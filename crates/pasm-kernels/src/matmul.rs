//! The paper's workload as a registered kernel: column-partitioned matrix
//! multiplication. [`Kernel::generate`] draws identity A and seeded uniform B
//! (so C = B and results are trivially checkable while `MULU` timing
//! variance is fully driven by the B data — paper §6).
//!
//! The kernel's input words are A's rows followed by B's rows (`2·n²` words;
//! [`input_words`] builds them from any two matrices); the output is the
//! row-major C product read back from the PE column blocks.

use crate::Kernel;
use pasm_machine::{Machine, RunError};
use pasm_prog::codegen::{PHASE_COMM, PHASE_MUL};
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

    fn supports_serial(&self) -> bool {
        true
    }

    fn validate(&self, n: usize, p: usize) -> Result<(), String> {
        if n == 0 || n > 512 {
            return Err(format!("matmul: n must be in 1..=512, got {n}"));
        }
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

    fn generate(&self, n: usize, seed: u64) -> Vec<u16> {
        input_words(&Matrix::identity(n), &Matrix::uniform(n, seed))
    }

    fn reference(&self, params: MatmulParams, input: &[u16]) -> Vec<u16> {
        let (a, b) = operands(params.n, input);
        a.multiply(&b).words().to_vec()
    }

    fn load(
        &self,
        machine: &mut Machine,
        mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
        input: &[u16],
    ) -> Result<(), RunError> {
        let (a, b) = operands(params.n, input);
        if mode == Mode::Serial {
            Layout::serial(params.n).load(machine, &vm.pes[..1], &a, &b);
            machine.load_pe_program(vm.pes[0], serial::pe_program(params));
            machine.load_mc_program(vm.mcs[0], serial::mc_program());
            return Ok(());
        }
        Layout::parallel(params.n, params.p).load(machine, &vm.pes, &a, &b);
        // On a faulted network a failed ring is a real outcome, not a bug: a
        // full-machine ring uses every interior stage completely, so an
        // interior-box fault leaves no one-pass routing (the ESC permutation
        // two-pass limit; see docs/FAULTS.md).
        machine
            .connect_ring(&vm.pes)
            .map_err(|e| RunError::Net(e.to_string()))?;
        let (pe_prog, mc_prog) = match mode.comm_sync() {
            Some(sync) => (
                mimd::pe_program(params, sync),
                mimd::mc_program(params, sync, vm.mask),
            ),
            None => (simd::pe_program(), simd::mc_program(params, vm.mask)),
        };
        for &pe in &vm.pes {
            machine.load_pe_program(pe, pe_prog.clone());
        }
        for &mc in &vm.mcs {
            machine.load_mc_program(mc, mc_prog.clone());
        }
        Ok(())
    }

    fn read_output(
        &self,
        machine: &Machine,
        mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
    ) -> Vec<u16> {
        let layout = if mode == Mode::Serial {
            Layout::serial(params.n)
        } else {
            Layout::parallel(params.n, params.p)
        };
        layout.read_c(machine, &vm.pes[..layout.p]).words().to_vec()
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
}
