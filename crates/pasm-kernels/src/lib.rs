//! # pasm-kernels — the registered workloads of the PASM experiments
//!
//! The paper measures its SIMD / MIMD / S/MIMD tradeoff on one program
//! (column-partitioned matrix multiplication). This crate turns "a PASM
//! experiment" into "any registered workload": a [`Kernel`] is a named
//! workload that knows how to generate its own seeded input, emit per-mode
//! programs through the shared `pasm-prog` code generators, place its input
//! in PE memories, read its output back, and verify that output against a
//! scalar host reference. One provided method, [`Kernel::load`], puts any
//! kernel's run on a machine.
//!
//! Four kernels are registered, chosen for genuinely different
//! communication/compute signatures:
//!
//! | kernel    | compute                          | communication                | favors |
//! |-----------|----------------------------------|------------------------------|--------|
//! | `matmul`  | data-dependent `MULU` (38–70 cy) | O(n²/p) ring recirculation   | mode-dependent (the paper's crossover) |
//! | `smooth`  | constant-time shift/add stencil  | 2-word halo per iteration    | SIMD (no variance to equalize, free MC control flow) |
//! | `reduce`  | O(K) constant-time adds          | p−1 synchronized ring steps  | isolates the three comm protocols |
//! | `bitonic` | data-dependent compare-exchange  | (p−1)·K ring rotation        | MIMD (branchy CE beats the branch-free SIMD comparator) |
//!
//! The registry is static: [`kernels`] lists every kernel, [`find`] resolves a
//! client-supplied name (the `pasm-server` job field and `pasm-run --kernel`
//! both go through it, so an unknown name is rejected before any machine is
//! built).

pub mod bitonic;
pub mod matmul;
pub mod reduce;
pub mod smooth;

use pasm_isa::Program;
use pasm_machine::{Machine, RunError};
use pasm_prog::{MatmulParams, Mode, VirtualMachine};
use std::hash::Hasher;

/// Name of the default workload (the paper's matrix multiplication). An
/// `ExperimentKey` whose workload equals this hashes exactly as the
/// pre-registry keys did, so existing cache fingerprints stay valid.
pub const MATMUL: &str = "matmul";

/// A registered workload: everything an experiment runner needs to execute
/// and verify it in any mode, without knowing what it computes.
///
/// `params` reuses [`MatmulParams`]: `n` is the kernel's problem size
/// (elements or matrix dimension — see each kernel), `p` the PE count, and
/// `extra_muls` a kernel-specific extra-work knob (added multiplies for
/// `matmul`, added smoothing passes for `smooth`, unused elsewhere).
pub trait Kernel: Sync {
    /// Stable registry name (lowercase; what clients submit).
    fn name(&self) -> &'static str;

    /// One-line description for listings.
    fn description(&self) -> &'static str;

    /// `(compute_phase, comm_phase)` ids of this kernel's `Mark` spans (see
    /// `pasm_prog::codegen::phase_name`), used for result summaries.
    fn phases(&self) -> (u8, u8);

    /// Check the structural constraints on `(n, p)` of a parallel-mode run
    /// (divisibility, block-size bounds, power-of-two requirements, p ≥ 2)
    /// and return a client-displayable error. `p` range vs. the machine and
    /// the memory footprint are checked by the caller
    /// (`pasm::ExperimentKey::validate`); serial runs are not validated
    /// here.
    fn validate(&self, n: usize, p: usize) -> Result<(), String>;

    /// Bytes of each PE's memory (from address 0) a run in `mode` with
    /// `params` occupies, or a client-displayable error when the kernel has
    /// no variant for `mode` or its variant cannot take the size (serial
    /// matmul with `n = 0`). Parallel modes are asked only about `(n, p)`
    /// that [`Kernel::validate`] accepts.
    fn footprint(&self, mode: Mode, params: MatmulParams) -> Result<usize, String>;

    /// Deterministically generate the input words for problem size `n`.
    fn generate(&self, n: usize, seed: u64) -> Vec<u16>;

    /// Scalar host reference: the exact output words a correct run with
    /// these parameters produces.
    fn reference(&self, params: MatmulParams, input: &[u16]) -> Vec<u16>;

    /// The `(pe, mc)` programs of a run in `mode`: every PE of the virtual
    /// machine runs the first, every MC the second. `mask` is the Fetch-Unit
    /// mask of the participating PEs of each group.
    fn programs(&self, mode: Mode, params: MatmulParams, mask: u16) -> (Program, Program);

    /// Write the input words into the memories of `pes` (logical PE `l` is
    /// `pes[l]`; a serial run has one).
    fn place(
        &self,
        machine: &mut Machine,
        mode: Mode,
        params: MatmulParams,
        pes: &[usize],
        input: &[u16],
    );

    /// Load network circuits, data and programs for one run onto `machine`'s
    /// virtual machine. Fails with [`RunError::Net`] when the circuits cannot
    /// be established (a real outcome on a faulted network). Kernels do not
    /// override it.
    fn load(
        &self,
        machine: &mut Machine,
        mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
        input: &[u16],
    ) -> Result<(), RunError> {
        if let Err(e) = self.footprint(mode, params) {
            panic!("{e}");
        }
        if mode == Mode::Serial {
            assert_eq!(
                (vm.pes.len(), vm.mcs.len()),
                (1, 1),
                "a serial run has one PE and one MC"
            );
        } else {
            // On a faulted network a failed ring is a real outcome, not a
            // bug: a full-machine ring uses every interior stage completely,
            // so an interior-box fault leaves no one-pass routing (the ESC
            // permutation two-pass limit; see docs/FAULTS.md).
            machine
                .connect_ring(&vm.pes)
                .map_err(|e| RunError::Net(e.to_string()))?;
        }
        self.place(machine, mode, params, &vm.pes, input);
        let (pe_prog, mc_prog) = self.programs(mode, params, vm.mask);
        for &pe in &vm.pes {
            machine.load_pe_program(pe, pe_prog.clone());
        }
        for &mc in &vm.mcs {
            machine.load_mc_program(mc, mc_prog.clone());
        }
        Ok(())
    }

    /// Read the output words back from PE memories after the run, in the
    /// same layout [`Kernel::reference`] produces. `mode` is the mode the
    /// run used (output placement may differ, e.g. the serial matmul layout).
    fn read_output(
        &self,
        machine: &Machine,
        mode: Mode,
        params: MatmulParams,
        vm: &VirtualMachine,
    ) -> Vec<u16>;
}

static REGISTRY: [&dyn Kernel; 4] = [
    &matmul::Matmul,
    &smooth::Smooth,
    &reduce::Reduce,
    &bitonic::Bitonic,
];

/// All registered kernels, `matmul` first.
pub fn kernels() -> &'static [&'static dyn Kernel] {
    &REGISTRY
}

/// Resolve a kernel by registry name (case-insensitive).
pub fn find(name: &str) -> Option<&'static dyn Kernel> {
    let lower = name.to_ascii_lowercase();
    kernels().iter().copied().find(|k| k.name() == lower)
}

/// The registered names, for error messages and listings.
pub fn names() -> Vec<&'static str> {
    kernels().iter().map(|k| k.name()).collect()
}

/// The [`Kernel::footprint`] error of a kernel that runs in parallel modes
/// only.
pub(crate) fn parallel_only(kernel: &dyn Kernel, mode: Mode) -> Result<(), String> {
    if mode == Mode::Serial {
        return Err(format!(
            "{}: no serial variant (parallel modes only)",
            kernel.name()
        ));
    }
    Ok(())
}

/// Split `input` into `pes.len()` equal blocks and write block `l` at `base`
/// in the memory of `pes[l]` — the placement of every block-partitioned
/// kernel.
pub(crate) fn scatter(machine: &mut Machine, pes: &[usize], base: u32, input: &[u16]) {
    let k = input.len() / pes.len();
    assert_eq!(k * pes.len(), input.len(), "input must split evenly");
    for (&pe, block) in pes.iter().zip(input.chunks_exact(k)) {
        machine.pe_mem_mut(pe).load_words(base, block);
    }
}

/// The inverse of [`scatter`]: `k` words at `base` from each of `pes`, in order.
pub(crate) fn gather(machine: &Machine, pes: &[usize], base: u32, k: usize) -> Vec<u16> {
    let mut out = Vec::with_capacity(k * pes.len());
    for &pe in pes {
        let mem = machine.pe_mem(pe);
        out.extend((0..k as u32).map(|i| mem.read_word(base + 2 * i)));
    }
    out
}

/// FNV-1a fingerprint of a word sequence (big-endian bytes — the same
/// convention `ExperimentResult` uses for the matmul product checksum).
pub fn checksum(words: &[u16]) -> u64 {
    let mut h = pasm_util::Fnv1a::new();
    for w in words {
        h.write(&w.to_be_bytes());
    }
    h.finish()
}

/// Compare a run's output against the kernel's scalar reference; the error
/// pinpoints the first mismatching word.
pub fn verify(
    kernel: &dyn Kernel,
    params: MatmulParams,
    input: &[u16],
    output: &[u16],
) -> Result<(), String> {
    let expect = kernel.reference(params, input);
    if output.len() != expect.len() {
        return Err(format!(
            "{}: output has {} words, reference has {}",
            kernel.name(),
            output.len(),
            expect.len()
        ));
    }
    for (i, (got, want)) in output.iter().zip(expect.iter()).enumerate() {
        if got != want {
            return Err(format!(
                "{}: output word {i} is {got:#06x}, reference says {want:#06x}",
                kernel.name()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_lowercase() {
        let names = names();
        assert_eq!(names.len(), 4);
        assert_eq!(names[0], MATMUL);
        for n in &names {
            assert_eq!(n.to_ascii_lowercase(), **n);
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn find_is_case_insensitive_and_total() {
        assert_eq!(find("Bitonic").unwrap().name(), "bitonic");
        assert_eq!(find("MATMUL").unwrap().name(), "matmul");
        assert!(find("quicksort").is_none());
    }

    #[test]
    fn checksum_matches_manual_fnv() {
        let mut h = pasm_util::Fnv1a::new();
        h.write(&0x1234u16.to_be_bytes());
        h.write(&0x00FFu16.to_be_bytes());
        assert_eq!(checksum(&[0x1234, 0x00FF]), h.finish());
    }
}
