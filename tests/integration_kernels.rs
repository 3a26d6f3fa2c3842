//! End-to-end coverage of the `pasm-kernels` registry (ISSUE 5 acceptance):
//! every non-matmul kernel runs in SIMD, MIMD, and S/MIMD on p ∈ {4, 8, 16}
//! of the 16-PE prototype, each output verified word for word against the
//! kernel's scalar host reference; repeated seeded runs produce byte-identical
//! cycle buckets; and the registry/CLI plumbing (lookup, validation,
//! checksums) behaves at the boundaries.

use pasm::{run_kernel_opts, Kernel, KernelOutcome, MachineConfig, Mode, Params, RunOptions};
use pasm_machine::N_BUCKETS;

const SEED: u64 = 7321;

/// n chosen so K = n/p stays a power of two in bitonic's 2..=128 window for
/// every p in the sweep (p=16 → K=4, p=4 → K=16).
const N: usize = 64;

fn run_kernel(
    cfg: &MachineConfig,
    kernel: &'static dyn Kernel,
    mode: Mode,
    params: Params,
    input: &[u16],
) -> Result<KernelOutcome, pasm_machine::RunError> {
    run_kernel_opts(cfg, kernel, mode, params, input, &RunOptions::default())
}

#[test]
fn every_kernel_verifies_in_every_mode_and_partition() {
    let cfg = MachineConfig::prototype();
    for kernel in pasm::kernels::kernels().iter().copied() {
        if kernel.name() == pasm::MATMUL {
            continue; // covered by integration_matmul / integration_modes
        }
        let input = kernel.generate(N, SEED);
        for p in [4usize, 8, 16] {
            kernel
                .validate(N, p)
                .unwrap_or_else(|e| panic!("{} n={N} p={p}: {e}", kernel.name()));
            for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
                let out = run_kernel(&cfg, kernel, mode, Params::new(N, p), &input)
                    .unwrap_or_else(|e| panic!("{} {mode} p={p}: {e}", kernel.name()));
                out.verify(&input)
                    .unwrap_or_else(|e| panic!("{} {mode} p={p}: {e}", kernel.name()));
                assert!(out.cycles > 0);
            }
        }
    }
}

#[test]
fn repeated_runs_have_byte_identical_buckets() {
    // The acceptance criterion verbatim: same seed, same kernel, same mode →
    // the per-PE cycle buckets (not just the makespan) agree byte for byte.
    let cfg = MachineConfig::prototype();
    for kernel in pasm::kernels::kernels().iter().copied() {
        let input = kernel.generate(32, SEED);
        for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    run_kernel(&cfg, kernel, mode, Params::new(32, 4), &input)
                        .unwrap_or_else(|e| panic!("{} {mode}: {e}", kernel.name()))
                })
                .collect();
            assert_eq!(runs[0].cycles, runs[1].cycles, "{} {mode}", kernel.name());
            assert_eq!(runs[0].output, runs[1].output, "{} {mode}", kernel.name());
            let buckets = |o: &pasm::KernelOutcome| -> Vec<[u64; N_BUCKETS]> {
                o.run
                    .accounts
                    .as_ref()
                    .expect("accounting on by default")
                    .pe
                    .iter()
                    .map(|acc| *acc.buckets())
                    .collect()
            };
            let a = buckets(&runs[0]);
            let b = buckets(&runs[1]);
            let to_bytes = |v: &[[u64; N_BUCKETS]]| -> Vec<u8> {
                v.iter()
                    .flat_map(|pe| pe.iter().flat_map(|c| c.to_le_bytes()))
                    .collect()
            };
            assert_eq!(
                to_bytes(&a),
                to_bytes(&b),
                "{} {mode}: cycle buckets diverged between identical runs",
                kernel.name()
            );
        }
    }
}

#[test]
fn registry_lookup_is_case_insensitive_and_total() {
    assert_eq!(
        pasm::kernels::names(),
        ["matmul", "smooth", "reduce", "bitonic"]
    );
    for name in pasm::kernels::names() {
        let k = pasm::kernels::find(name).expect("registered kernel resolves");
        assert_eq!(k.name(), name);
        assert!(!k.description().is_empty());
    }
    assert!(pasm::kernels::find("SMOOTH").is_some());
    assert!(pasm::kernels::find("Bitonic").is_some());
    assert!(pasm::kernels::find("fft").is_none());
}

#[test]
fn only_matmul_supports_serial() {
    for kernel in pasm::kernels::kernels() {
        assert_eq!(
            kernel
                .footprint(pasm::Mode::Serial, pasm::Params::new(16, 1))
                .is_ok(),
            kernel.name() == pasm::MATMUL,
            "{}",
            kernel.name()
        );
    }
}

#[test]
fn generate_is_seed_deterministic_and_seed_sensitive() {
    for kernel in pasm::kernels::kernels() {
        let a = kernel.generate(32, 1);
        let b = kernel.generate(32, 1);
        let c = kernel.generate(32, 2);
        assert_eq!(a, b, "{}: same seed, same input", kernel.name());
        assert_ne!(a, c, "{}: different seed, different input", kernel.name());
        assert!(!a.is_empty(), "{}: non-empty input", kernel.name());
    }
}

#[test]
fn reference_checksum_matches_run_result_checksum() {
    // The CLI's verification contract: `kernels::checksum(reference)` equals
    // the keyed run's `c_checksum` for every workload.
    for kernel in pasm::kernels::names() {
        let key = pasm::ExperimentKey {
            config: MachineConfig::prototype(),
            mode: Mode::Smimd,
            params: Params::new(16, 4),
            seed: SEED,
            fault: Default::default(),
            workload: kernel,
        };
        let result = pasm::run_keyed(&key).expect("keyed kernel run");
        let k = pasm::kernels::find(kernel).unwrap();
        let expect = k.reference(key.params, &k.generate(16, SEED));
        assert_eq!(
            pasm::kernels::checksum(&expect),
            result.c_checksum,
            "{kernel}: checksum contract broken"
        );
        assert_eq!(result.workload, kernel);
    }
}
