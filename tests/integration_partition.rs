//! PASM's headline property: the machine is *partitionable* into independent
//! virtual SIMD/MIMD machines. These tests run multiple placements
//! simultaneously on disjoint MC groups and check correctness,
//! non-interference, and exact timing isolation.

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::kernels::reduce::Reduce;
use pasm::{
    run_placements, Kernel, KernelOutcome, MachineConfig, Mode, Params, Placement, RunOptions,
};
use pasm_prog::Matrix;

fn cfg() -> MachineConfig {
    MachineConfig::prototype()
}

/// A matmul of two random matrices on the virtual machine of `mcs`.
fn matmul(mode: Mode, n: usize, p: usize, mcs: Vec<usize>, seed: u64) -> Placement {
    Placement {
        kernel: &Matmul,
        mode,
        params: Params::new(n, p),
        mcs: Some(mcs),
        input: input_words(&Matrix::uniform(n, seed), &Matrix::uniform(n, seed + 1)),
    }
}

fn run(placements: &[Placement]) -> Vec<KernelOutcome> {
    run_placements(&cfg(), placements, &RunOptions::default()).unwrap()
}

/// Run the placements side by side and check every output against its
/// kernel's reference.
fn run_verified(placements: &[Placement]) -> Vec<KernelOutcome> {
    let out = run(placements);
    for (pl, o) in placements.iter().zip(&out) {
        o.verify(&pl.input)
            .unwrap_or_else(|e| panic!("{} {}: {e}", pl.kernel.name(), pl.mode));
        assert!(o.cycles > 0);
    }
    out
}

#[test]
fn two_concurrent_mimd_jobs_are_both_correct() {
    run_verified(&[
        matmul(Mode::Mimd, 16, 4, vec![0], 1),
        matmul(Mode::Mimd, 8, 4, vec![1], 2),
    ]);
}

#[test]
fn mixed_mode_partition_simd_next_to_smimd() {
    // A SIMD job on MCs {0,1} (8 PEs) next to an S/MIMD job on MC 2 (4 PEs),
    // with MC 3 idle — three-way partition of the prototype.
    run_verified(&[
        matmul(Mode::Simd, 16, 8, vec![0, 1], 3),
        matmul(Mode::Smimd, 16, 4, vec![2], 4),
    ]);
}

#[test]
fn four_way_partition_runs_all_modes_at_once() {
    run_verified(&[
        matmul(Mode::Simd, 8, 4, vec![0], 5),
        matmul(Mode::Mimd, 8, 4, vec![1], 6),
        matmul(Mode::Smimd, 8, 4, vec![2], 7),
        matmul(Mode::Serial, 8, 1, vec![3], 8),
    ]);
}

#[test]
fn partitions_have_exact_timing_isolation() {
    // A job must take *exactly* as long inside a partition as it does alone:
    // the partitions share no MCs, no queues, and only straight-mode boxes in
    // the low network stages.
    let smimd = Placement {
        kernel: &Matmul,
        mode: Mode::Smimd,
        params: Params::new(16, 4),
        mcs: None,
        input: Matmul.generate(16, 9),
    };
    let solo = run(std::slice::from_ref(&smimd));
    let out = run(&[
        Placement {
            mcs: Some(vec![0]),
            ..smimd
        },
        matmul(Mode::Mimd, 16, 4, vec![1], 11),
    ]);
    assert_eq!(
        out[0].cycles, solo[0].cycles,
        "partitioned run must match the solo run cycle-for-cycle"
    );
}

#[test]
fn mixed_kernels_share_the_machine() {
    // Different kernels side by side: each output verifies, and each
    // placement takes exactly as long as when it runs alone on its MCs.
    let placements = [
        matmul(Mode::Simd, 16, 8, vec![0, 1], 13),
        Placement {
            kernel: &Reduce,
            mode: Mode::Smimd,
            params: Params::new(256, 4),
            mcs: Some(vec![3]),
            input: Reduce.generate(256, 14),
        },
    ];
    let together = run_verified(&placements);
    for (pl, o) in placements.iter().zip(&together) {
        let alone = run(std::slice::from_ref(pl));
        assert_eq!(
            o.cycles,
            alone[0].cycles,
            "{} {}",
            pl.kernel.name(),
            pl.mode
        );
    }
}

#[test]
#[should_panic(expected = "claimed by two placements")]
fn overlapping_partitions_are_rejected() {
    let _ = run_placements(
        &cfg(),
        &[
            matmul(Mode::Mimd, 8, 4, vec![0], 1),
            matmul(Mode::Mimd, 8, 4, vec![0], 2),
        ],
        &RunOptions::default(),
    );
}

#[test]
#[should_panic(expected = "MC id out of range")]
fn out_of_range_mc_is_reported() {
    let _ = run_placements(
        &cfg(),
        &[matmul(Mode::Mimd, 8, 4, vec![4], 1)],
        &RunOptions::default(),
    );
}

#[test]
fn partition_on_later_mcs_works_alone() {
    // A virtual machine need not start at MC 0.
    run_verified(&[matmul(Mode::Smimd, 16, 8, vec![2, 3], 12)]);
}
