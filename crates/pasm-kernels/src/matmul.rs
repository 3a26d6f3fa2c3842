//! The paper's workload as a registered kernel: column-partitioned matrix
//! multiplication with identity A and seeded uniform B (so C = B and results
//! are trivially checkable while `MULU` timing variance is fully driven by
//! the B data — paper §6).
//!
//! The kernel's input words are the row-major B matrix (`n²` words); the
//! output is the row-major C product read back from the PE column blocks.

use crate::Kernel;
use pasm_machine::{Machine, RunError};
use pasm_prog::codegen::{PHASE_COMM, PHASE_MUL};
use pasm_prog::matmul::{mimd, serial, simd, CommSync, MatmulParams};
use pasm_prog::{Layout, Matrix, Mode, VirtualMachine};

/// Load one matmul job onto a machine's virtual machine: data layout, network
/// circuits, PE and MC programs. Returns the layout for result read-back.
///
/// Fails with [`RunError::Net`] when the ring circuits cannot be established —
/// on a faulted network this is a real outcome, not a bug: a full-machine ring
/// uses every interior stage completely, so an interior-box fault leaves no
/// one-pass routing (the ESC permutation two-pass limit; see docs/FAULTS.md).
pub fn load_matmul(
    machine: &mut Machine,
    mode: Mode,
    params: MatmulParams,
    vm: &VirtualMachine,
    a: &Matrix,
    b: &Matrix,
) -> Result<Layout, RunError> {
    match mode {
        Mode::Serial => {
            let layout = Layout::serial(params.n);
            layout.load(machine, &vm.pes[..1], a, b);
            machine.load_pe_program(vm.pes[0], serial::pe_program(params));
            machine.load_mc_program(vm.mcs[0], serial::mc_program());
            Ok(layout)
        }
        Mode::Simd => {
            let layout = Layout::parallel(params.n, params.p);
            layout.load(machine, &vm.pes, a, b);
            machine
                .connect_ring(&vm.pes)
                .map_err(|e| RunError::Net(e.to_string()))?;
            for &pe in &vm.pes {
                machine.load_pe_program(pe, simd::pe_program());
            }
            let mc_prog = simd::mc_program(params, vm.mask);
            for &mc in &vm.mcs {
                machine.load_mc_program(mc, mc_prog.clone());
            }
            Ok(layout)
        }
        Mode::Mimd | Mode::Smimd => {
            let sync = if mode == Mode::Mimd {
                CommSync::Polling
            } else {
                CommSync::Barrier
            };
            let layout = Layout::parallel(params.n, params.p);
            layout.load(machine, &vm.pes, a, b);
            machine
                .connect_ring(&vm.pes)
                .map_err(|e| RunError::Net(e.to_string()))?;
            let pe_prog = mimd::pe_program(params, sync);
            for &pe in &vm.pes {
                machine.load_pe_program(pe, pe_prog.clone());
            }
            let mc_prog = mimd::mc_program(params, sync, vm.mask);
            for &mc in &vm.mcs {
                machine.load_mc_program(mc, mc_prog.clone());
            }
            Ok(layout)
        }
    }
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
        let b = Matrix::uniform(n, seed);
        let mut words = Vec::with_capacity(n * n);
        for r in 0..n {
            for c in 0..n {
                words.push(b.get(r, c));
            }
        }
        words
    }

    fn reference(&self, params: MatmulParams, input: &[u16]) -> Vec<u16> {
        // A is the identity, so C = B. Kept as an explicit multiply so the
        // reference stays honest if the A operand ever changes.
        let n = params.n;
        let a = Matrix::identity(n);
        let b = Matrix::from_fn(n, |r, c| input[r * n + c]);
        let c = a.multiply(&b);
        let mut words = Vec::with_capacity(n * n);
        for r in 0..n {
            for col in 0..n {
                words.push(c.get(r, col));
            }
        }
        words
    }

    fn load(
        &self,
        machine: &mut Machine,
        mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
        input: &[u16],
    ) -> Result<(), RunError> {
        assert_eq!(
            input.len(),
            params.n * params.n,
            "matmul input is n\u{b2} words"
        );
        let a = Matrix::identity(params.n);
        let b = Matrix::from_fn(params.n, |r, c| input[r * params.n + c]);
        load_matmul(machine, mode, params, vm, &a, &b)?;
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
        let c = layout.read_c(machine, &vm.pes[..layout.p]);
        let mut words = Vec::with_capacity(params.n * params.n);
        for r in 0..params.n {
            for col in 0..params.n {
                words.push(c.get(r, col));
            }
        }
        words
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
        assert_eq!(k.reference(params, &input), input);
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
