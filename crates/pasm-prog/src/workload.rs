//! Host-side matrices and workload generators.
//!
//! The paper ran every experiment with the **identity matrix in A and uniform
//! random data in B**: the MC68000 multiply's execution time depends only on
//! the multiplier operand (B elements in the generated code), so using the
//! identity as the multiplicand leaves timing untouched while making results
//! trivially checkable (C = B). [`Matrix::bit_density`] additionally lets the
//! ablation benchmarks control *how much* timing variance the multiplier data
//! carries, by drawing values with a fixed number of one-bits.

use pasm_util::Rng;

/// A dense n×n matrix of 16-bit unsigned integers (row-major storage on the
/// host; the PEs hold it column-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    pub n: usize,
    data: Vec<u16>,
}

impl Matrix {
    /// The zero matrix.
    pub fn zero(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0; n * n],
        }
    }

    /// The identity matrix (the paper's A operand).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n);
        for i in 0..n {
            m.set(i, i, 1);
        }
        m
    }

    /// Uniform random 16-bit entries from a seeded generator (the paper's B).
    pub fn uniform(n: usize, seed: u64) -> Self {
        let mut rng = Rng::seed_from_u64(seed);
        Matrix {
            n,
            data: (0..n * n).map(|_| rng.gen_u16()).collect(),
        }
    }

    /// Random entries with exactly `ones` one-bits each (0 ≤ ones ≤ 16), so a
    /// `MULU` by any entry takes exactly `38 + 2·ones` cycles. Used by the
    /// bit-density ablation.
    pub fn bit_density(n: usize, ones: u32, seed: u64) -> Self {
        assert!(ones <= 16, "a 16-bit value has at most 16 one-bits");
        let mut rng = Rng::seed_from_u64(seed);
        let data = (0..n * n)
            .map(|_| {
                // Sample a random 16-bit pattern with the requested popcount.
                let mut bits: [u8; 16] = std::array::from_fn(|i| i as u8);
                for i in (1..16).rev() {
                    let j = rng.gen_range(i + 1);
                    bits.swap(i, j);
                }
                bits[..ones as usize]
                    .iter()
                    .fold(0u16, |acc, &b| acc | (1 << b))
            })
            .collect();
        Matrix { n, data }
    }

    /// Build from a row-major closure.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> u16) -> Self {
        let mut m = Self::zero(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Build from row-major words (`n²` of them).
    pub fn from_words(n: usize, words: &[u16]) -> Self {
        assert_eq!(words.len(), n * n, "an n\u{d7}n matrix is n\u{b2} words");
        Matrix {
            n,
            data: words.to_vec(),
        }
    }

    /// The entries as row-major words.
    pub fn words(&self) -> &[u16] {
        &self.data
    }

    /// Element at (row, col).
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u16 {
        self.data[row * self.n + col]
    }

    /// Set element at (row, col).
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, v: u16) {
        self.data[row * self.n + col] = v;
    }

    /// One column as a vector of length n (what a PE stores contiguously).
    pub fn column(&self, col: usize) -> Vec<u16> {
        (0..self.n).map(|r| self.get(r, col)).collect()
    }

    /// Reference product with the experiments' arithmetic: 16-bit unsigned,
    /// overflow ignored (wrapping), exactly what the generated programs compute.
    pub fn multiply(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.n, rhs.n);
        let n = self.n;
        Matrix::from_fn(n, |r, c| {
            let mut acc: u16 = 0;
            for k in 0..n {
                acc = acc.wrapping_add(self.get(r, k).wrapping_mul(rhs.get(k, c)));
            }
            acc
        })
    }

    /// Mean one-bit count of the entries (diagnostic for the timing model).
    pub fn mean_popcount(&self) -> f64 {
        self.data.iter().map(|v| v.count_ones() as f64).sum::<f64>() / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication_is_neutral() {
        let b = Matrix::uniform(8, 42);
        let c = Matrix::identity(8).multiply(&b);
        assert_eq!(c, b);
        let c2 = b.multiply(&Matrix::identity(8));
        assert_eq!(c2, b);
    }

    #[test]
    fn multiply_small_known() {
        let a = Matrix::from_fn(2, |r, c| (r * 2 + c + 1) as u16); // [1 2; 3 4]
        let b = Matrix::from_fn(2, |r, c| (5 + r * 2 + c) as u16); // [5 6; 7 8]
        let c = a.multiply(&b);
        assert_eq!(c.get(0, 0), 19);
        assert_eq!(c.get(0, 1), 22);
        assert_eq!(c.get(1, 0), 43);
        assert_eq!(c.get(1, 1), 50);
    }

    #[test]
    fn multiply_wraps_like_the_hardware() {
        let a = Matrix::from_fn(1, |_, _| 0xFFFF);
        let b = Matrix::from_fn(1, |_, _| 3);
        // 0xFFFF * 3 = 0x2FFFD -> low word 0xFFFD.
        assert_eq!(a.multiply(&b).get(0, 0), 0xFFFD);
    }

    #[test]
    fn uniform_is_seeded_and_deterministic() {
        assert_eq!(Matrix::uniform(16, 7), Matrix::uniform(16, 7));
        assert_ne!(Matrix::uniform(16, 7), Matrix::uniform(16, 8));
        let pop = Matrix::uniform(64, 1).mean_popcount();
        assert!((pop - 8.0).abs() < 0.5, "uniform popcount ~8, got {pop}");
    }

    #[test]
    fn bit_density_is_exact() {
        for ones in [0u32, 1, 8, 15, 16] {
            let m = Matrix::bit_density(16, ones, 3);
            for r in 0..16 {
                for c in 0..16 {
                    assert_eq!(m.get(r, c).count_ones(), ones);
                }
            }
        }
    }

    #[test]
    fn columns_match_elements() {
        let m = Matrix::uniform(8, 9);
        let col = m.column(3);
        for (r, &v) in col.iter().enumerate() {
            assert_eq!(v, m.get(r, 3));
        }
    }
}
