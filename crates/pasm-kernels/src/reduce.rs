//! Global-sum reduction as a registered kernel.
//!
//! Thin registry adapter over [`pasm_prog::reduction`]: each PE sums its
//! `K = n/p` block locally (`local_sum` phase), then the partials circulate
//! the ring for `p − 1` synchronized steps with every PE forwarding and
//! accumulating (`recirculation_transfer` phase) until all PEs hold the
//! global wrapping 16-bit sum.
//!
//! O(K) constant-time adds against O(p) synchronized transfers: the
//! barrier-per-step cost structure the paper's S/MIMD protocol targets,
//! with almost no compute variance in the way.
//!
//! One note on topology: the ESC establishes its circuits once per run, so a
//! log-depth tree combine is out of reach — the reduction is realized as ring
//! forwarding on the same fixed `PE i → PE (i−1)` circuits every other kernel
//! uses, making its communication costs directly comparable.
//!
//! Output: `p` words, one per PE, all equal to the global sum.

use crate::Kernel;
use pasm_isa::Program;
use pasm_machine::Machine;
use pasm_prog::codegen::{mimd_mc_program, simd_bootstrap, PHASE_COMM, PHASE_LSUM};
use pasm_prog::matmul::MatmulParams;
use pasm_prog::reduction::{self, RESULT_ADDR, VEC_BASE};
use pasm_prog::{Mode, VirtualMachine};

/// The registered reduction kernel (see module docs).
pub struct Reduce;

impl Kernel for Reduce {
    fn name(&self) -> &'static str {
        "reduce"
    }

    fn description(&self) -> &'static str {
        "ring global sum: O(n/p) local adds, p-1 synchronized transfer steps"
    }

    fn phases(&self) -> (u8, u8) {
        (PHASE_LSUM, PHASE_COMM)
    }

    fn validate(&self, n: usize, p: usize) -> Result<(), String> {
        if p < 2 || !p.is_power_of_two() {
            return Err(format!("reduce: p must be a power of two >= 2, got {p}"));
        }
        if !n.is_multiple_of(p) {
            return Err(format!("reduce: p must divide n (n={n}, p={p})"));
        }
        let k = n / p;
        if !(1..=4096).contains(&k) {
            return Err(format!(
                "reduce: elements per PE must be in 1..=4096, got {k} (n={n}, p={p})"
            ));
        }
        Ok(())
    }

    /// The partial vector at [`VEC_BASE`] is the highest region.
    fn footprint(&self, mode: Mode, params: MatmulParams) -> Result<usize, String> {
        crate::parallel_only(self, mode)?;
        Ok(VEC_BASE as usize + 2 * (params.n / params.p))
    }

    fn generate(&self, n: usize, seed: u64) -> Vec<u16> {
        let mut rng = pasm_util::Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_u16()).collect()
    }

    fn reference(&self, params: MatmulParams, input: &[u16]) -> Vec<u16> {
        let sum = input.iter().fold(0u16, |a, &v| a.wrapping_add(v));
        vec![sum; params.p]
    }

    /// S/MIMD pre-enqueues one barrier word per ring step.
    fn programs(&self, mode: Mode, params: MatmulParams, mask: u16) -> (Program, Program) {
        match mode.comm_sync() {
            Some(sync) => (
                reduction::pe_program(params, sync),
                mimd_mc_program(sync, mask, params.p - 1),
            ),
            None => (simd_bootstrap(), reduction::simd_mc_program(params, mask)),
        }
    }

    fn place(
        &self,
        machine: &mut Machine,
        _mode: Mode,
        params: MatmulParams,
        pes: &[usize],
        input: &[u16],
    ) {
        assert_eq!(input.len(), params.n, "reduce input is n words");
        crate::scatter(machine, pes, VEC_BASE, input);
    }

    fn read_output(
        &self,
        machine: &Machine,
        _mode: Mode,
        _params: MatmulParams,
        vm: &VirtualMachine,
    ) -> Vec<u16> {
        crate::gather(machine, &vm.pes, RESULT_ADDR, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_the_wrapping_sum_everywhere() {
        let k = Reduce;
        let params = MatmulParams {
            n: 4,
            p: 2,
            extra_muls: 0,
        };
        assert_eq!(
            k.reference(params, &[0xFFFF, 2, 3, 0]),
            vec![4, 4] // 0xFFFF + 2 wraps to 1, + 3 = 4
        );
    }

    #[test]
    fn validate_requires_a_ring() {
        let k = Reduce;
        assert!(k.validate(64, 4).is_ok());
        assert!(k.validate(64, 1).is_err());
        assert!(k.validate(63, 4).is_err());
    }
}
