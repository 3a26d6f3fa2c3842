//! Columnar data layout in PE memory (paper §4, Figure 5).
//!
//! Each logical PE *i* of a p-PE virtual machine stores `n/p` **adjacent
//! columns** of A, B and C. Column data is contiguous (n 16-bit words); A
//! columns are reached through a pointer table `TT` so the per-step rotation
//! of A is "a single memory move" (pointer shuffle) instead of copying data.
//!
//! Two implementation details differ from a naive layout, both documented in
//! the code generators:
//!
//! * **B columns are stored twice in a row** (`rows 0..n, 0..n`). The row index
//!   the algorithm needs is `(n/p)·i + v + j`, which exceeds `n` during the
//!   sweep; doubling the column turns the modulo wrap into plain linear
//!   addressing, which keeps the instruction stream free of data-dependent
//!   branches — a requirement for broadcasting it in SIMD mode.
//! * **Per-PE parameters live in a data area** (`PARAM_BASE`), so the same
//!   program text runs on every PE — the paper runs on 4, 8 or 16 processors
//!   "simply by changing variables embedded in their data sections".

use crate::workload::Matrix;
use pasm_machine::Machine;

/// Base of the per-PE parameter area (long words).
pub const PARAM_BASE: u32 = 0x0100;
/// Base of the A-column pointer table `TT` (long words, one per local column).
pub const TT_BASE: u32 = 0x0400;
/// Base of the A column storage.
pub const A_BASE: u32 = 0x0800;

/// Placement of the matrices inside each PE's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Matrix dimension.
    pub n: usize,
    /// Logical PEs sharing the work.
    pub p: usize,
    /// Columns per PE (`n/p`).
    pub cols: usize,
    /// B columns stored doubled (parallel versions) or plain (serial).
    pub b_doubled: bool,
}

impl Layout {
    /// Layout for the parallel (SIMD/MIMD/S-MIMD) versions.
    pub fn parallel(n: usize, p: usize) -> Layout {
        assert!(
            n.is_multiple_of(p) && p >= 1,
            "p must divide n (n={n}, p={p})"
        );
        Layout {
            n,
            p,
            cols: n / p,
            b_doubled: true,
        }
    }

    /// Layout for the optimized serial version (everything on one PE).
    pub fn serial(n: usize) -> Layout {
        Layout {
            n,
            p: 1,
            cols: n,
            b_doubled: false,
        }
    }

    /// Bytes per stored column of A or C.
    pub fn col_bytes(&self) -> u32 {
        2 * self.n as u32
    }

    /// Bytes per stored column of B (doubled for the parallel versions).
    pub fn b_col_bytes(&self) -> u32 {
        if self.b_doubled {
            4 * self.n as u32
        } else {
            2 * self.n as u32
        }
    }

    /// Base address of the B storage.
    pub fn b_base(&self) -> u32 {
        A_BASE + self.cols as u32 * self.col_bytes()
    }

    /// Base address of the C storage.
    pub fn c_base(&self) -> u32 {
        self.b_base() + self.cols as u32 * self.b_col_bytes()
    }

    /// First address past the data: the matmul kernel's memory footprint,
    /// which `pasm::ExperimentKey::validate` checks against a PE's memory.
    pub fn end(&self) -> u32 {
        self.c_base() + self.cols as u32 * self.col_bytes()
    }

    /// Address of A-column slot `s` on any PE.
    pub fn a_slot_addr(&self, s: usize) -> u32 {
        A_BASE + s as u32 * self.col_bytes()
    }

    /// Load the operand matrices into the PE memories of `machine`.
    ///
    /// `pes[l]` is the physical PE playing logical index `l`. Sets up the A and
    /// B columns, zeroes C, initializes the `TT` pointer table, and writes the
    /// per-PE parameter block (the B row-start pointer `b_base + 2·(n/p)·l`).
    pub fn load(&self, machine: &mut Machine, pes: &[usize], a: &Matrix, b: &Matrix) {
        assert_eq!(pes.len(), self.p, "need one physical PE per logical PE");
        assert_eq!(a.n, self.n);
        assert_eq!(b.n, self.n);
        for (l, &pe) in pes.iter().enumerate() {
            let virt0 = self.cols * l;
            let mem = machine.pe_mem_mut(pe);
            // Per-PE parameter: initial B row pointer.
            mem.write_long(PARAM_BASE, self.b_base() + 2 * virt0 as u32);
            // TT[v] = physical address of slot v (slots start out in order).
            for v in 0..self.cols {
                mem.write_long(TT_BASE + 4 * v as u32, self.a_slot_addr(v));
            }
            for v in 0..self.cols {
                let col = virt0 + v;
                mem.load_words(self.a_slot_addr(v), &a.column(col));
                let bcol = b.column(col);
                let b_addr = self.b_base() + v as u32 * self.b_col_bytes();
                mem.load_words(b_addr, &bcol);
                if self.b_doubled {
                    mem.load_words(b_addr + self.col_bytes(), &bcol);
                }
                // C is cleared by the program itself (that time is measured),
                // but zero it here too so read-back is meaningful even if a
                // program variant skips clearing.
                mem.clear_range(
                    self.c_base() + v as u32 * self.col_bytes(),
                    self.col_bytes(),
                );
            }
        }
    }

    /// Gather the C matrix back from the PE memories.
    pub fn read_c(&self, machine: &Machine, pes: &[usize]) -> Matrix {
        let mut c = Matrix::zero(self.n);
        for (l, &pe) in pes.iter().enumerate() {
            let mem = machine.pe_mem(pe);
            for v in 0..self.cols {
                let col = self.cols * l + v;
                let words = mem.dump_words(self.c_base() + v as u32 * self.col_bytes(), self.n);
                for (r, w) in words.into_iter().enumerate() {
                    c.set(r, col, w);
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasm_machine::MachineConfig;

    #[test]
    fn layout_addresses_are_disjoint_and_ordered() {
        for (n, p) in [(8usize, 4usize), (64, 4), (256, 4), (256, 16)] {
            let l = Layout::parallel(n, p);
            assert!(
                A_BASE >= TT_BASE + 4 * l.cols as u32,
                "TT overlaps A for n={n} p={p}"
            );
            assert!(l.b_base() > A_BASE);
            assert!(l.c_base() > l.b_base());
            assert!(l.end() > l.c_base());
        }
    }

    #[test]
    fn biggest_case_fits_prototype_memory() {
        let l = Layout::parallel(256, 4);
        assert!((l.end() as usize) <= MachineConfig::prototype().pe_mem_bytes);
        let s = Layout::serial(256);
        assert!((s.end() as usize) <= MachineConfig::prototype().pe_mem_bytes);
    }

    #[test]
    fn load_and_readback_roundtrip() {
        use crate::workload::Matrix;
        let mut m = pasm_machine::Machine::new(MachineConfig::small());
        let l = Layout::parallel(8, 4);
        let a = Matrix::uniform(8, 1);
        let b = Matrix::uniform(8, 2);
        let pes = [0usize, 1, 2, 3];
        l.load(&mut m, &pes, &a, &b);
        // Check B doubling on PE 2 (logical 2): local col 0 is global col 4.
        let mem = m.pe_mem(2);
        let col4 = b.column(4);
        let stored = mem.dump_words(l.b_base(), 8);
        let doubled = mem.dump_words(l.b_base() + l.col_bytes(), 8);
        assert_eq!(stored, col4);
        assert_eq!(doubled, col4);
        // TT starts in slot order.
        assert_eq!(mem.read_long(TT_BASE), l.a_slot_addr(0));
        assert_eq!(mem.read_long(TT_BASE + 4), l.a_slot_addr(1));
        // Param: logical 2 => virt0 = 4.
        assert_eq!(mem.read_long(PARAM_BASE), l.b_base() + 8);
        // C reads back as zero.
        let c = l.read_c(&m, &pes);
        assert_eq!(c, Matrix::zero(8));
    }
}
