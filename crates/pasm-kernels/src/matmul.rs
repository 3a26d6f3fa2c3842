//! The paper's workload as a registered kernel: column-partitioned matrix
//! multiplication. [`Kernel::generate`] draws identity A and seeded uniform B
//! (so C = B and results are trivially checkable while `MULU` timing
//! variance is fully driven by the B data — paper §6).
//!
//! The kernel's input words are A's rows followed by B's rows (`2·n²` words;
//! [`input_words`] builds them from any two matrices); the output is the
//! row-major C product read back from the PE column blocks.

use crate::Kernel;
use pasm_isa::Program;
use pasm_machine::Machine;
use pasm_prog::codegen::{mimd_mc_program, simd_bootstrap, PHASE_COMM, PHASE_MUL};
use pasm_prog::matmul::{mimd, serial, simd, MatmulParams};
use pasm_prog::{Layout, Matrix, Mode, VirtualMachine};

/// The kernel's input words for operands `a` and `b`: A's rows, then B's.
pub fn input_words(a: &Matrix, b: &Matrix) -> Vec<u16> {
    assert_eq!(a.n, b.n, "operands must have the same size");
    [a.words(), b.words()].concat()
}

/// Split input words back into the A and B operands.
fn operands(n: usize, input: &[u16]) -> (Matrix, Matrix) {
    assert_eq!(
        input.len(),
        2 * n * n,
        "matmul input is 2\u{b7}n\u{b2} words"
    );
    let (a, b) = input.split_at(n * n);
    (Matrix::from_words(n, a), Matrix::from_words(n, b))
}

/// The registered matmul kernel (see module docs).
pub struct Matmul;

impl Kernel for Matmul {
    fn name(&self) -> &'static str {
        crate::MATMUL
    }

    fn description(&self) -> &'static str {
        "column-partitioned n\u{d7}n matrix multiply, identity A (the paper's workload)"
    }

    fn phases(&self) -> (u8, u8) {
        (PHASE_MUL, PHASE_COMM)
    }

    fn validate(&self, n: usize, p: usize) -> Result<(), String> {
        check_n(n)?;
        if p < 2 || !p.is_power_of_two() {
            return Err(format!(
                "matmul: p must be a power of two >= 2 (serial is its own mode), got {p}"
            ));
        }
        if !n.is_multiple_of(p) || n < p {
            return Err(format!("matmul: p must divide n (n={n}, p={p})"));
        }
        Ok(())
    }

    /// The columnar layout's end ([`Layout::end`]); serial takes the same
    /// `n` range as the parallel variants.
    fn footprint(&self, mode: Mode, params: MatmulParams) -> Result<usize, String> {
        if mode == Mode::Serial {
            check_n(params.n)?;
        }
        Ok(layout(mode, params).end() as usize)
    }

    fn generate(&self, n: usize, seed: u64) -> Vec<u16> {
        input_words(&Matrix::identity(n), &Matrix::uniform(n, seed))
    }

    fn reference(&self, params: MatmulParams, input: &[u16]) -> Vec<u16> {
        let (a, b) = operands(params.n, input);
        a.multiply(&b).words().to_vec()
    }

    /// Serial keeps its own MC program (`StartPes; Halt`, no mask); S/MIMD
    /// pre-enqueues one barrier word per column transfer.
    fn programs(&self, mode: Mode, params: MatmulParams, mask: u16) -> (Program, Program) {
        match mode.comm_sync() {
            _ if mode == Mode::Serial => (serial::pe_program(params), serial::mc_program()),
            Some(sync) => (
                mimd::pe_program(params, sync),
                mimd_mc_program(sync, mask, params.n),
            ),
            None => (simd_bootstrap(), simd::mc_program(params, mask)),
        }
    }

    fn place(
        &self,
        machine: &mut Machine,
        mode: Mode,
        params: MatmulParams,
        pes: &[usize],
        input: &[u16],
    ) {
        let (a, b) = operands(params.n, input);
        layout(mode, params).load(machine, pes, &a, &b);
    }

    fn read_output(
        &self,
        machine: &Machine,
        mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
    ) -> Vec<u16> {
        let layout = layout(mode, params);
        layout.read_c(machine, &vm.pes[..layout.p]).words().to_vec()
    }
}

/// The matrix sizes the program generators support.
fn check_n(n: usize) -> Result<(), String> {
    if n == 0 || n > 512 {
        return Err(format!("matmul: n must be in 1..=512, got {n}"));
    }
    Ok(())
}

/// The columnar layout of a run: one PE for serial, `p` otherwise.
fn layout(mode: Mode, params: MatmulParams) -> Layout {
    if mode == Mode::Serial {
        Layout::serial(params.n)
    } else {
        Layout::parallel(params.n, params.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_the_input_under_identity_a() {
        let k = Matmul;
        let input = k.generate(8, 42);
        let params = MatmulParams {
            n: 8,
            p: 4,
            extra_muls: 0,
        };
        // Input is identity A followed by B, so the product is the B half.
        assert_eq!(k.reference(params, &input), input[64..]);
    }

    #[test]
    fn validate_enforces_divisibility() {
        let k = Matmul;
        assert!(k.validate(8, 4).is_ok());
        assert!(k.validate(8, 3).is_err());
        assert!(k.validate(6, 4).is_err());
        assert!(k.validate(0, 1).is_err());
        // The SIMD and MIMD programs need a ring of at least two PEs.
        assert!(k.validate(8, 1).is_err());
        assert!(k.validate(2, 2).is_ok());
    }

    #[test]
    fn footprint_is_the_layout_end() {
        let serial = |n| Matmul.footprint(Mode::Serial, MatmulParams::new(n, 1));
        assert_eq!(serial(64), Ok(Layout::serial(64).end() as usize));
        assert!(serial(0).is_err());
        assert!(serial(513).is_err());
        assert_eq!(
            Matmul.footprint(Mode::Simd, MatmulParams::new(512, 2)),
            Ok(0x10_0800)
        );
    }
}
