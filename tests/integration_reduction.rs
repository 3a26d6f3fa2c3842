//! Global-sum reduction across the ring: correctness in every mode and the
//! communication-protocol cost ordering on a communication-dominated workload.

use pasm::kernels::reduce::Reduce;
use pasm::{run_kernel_opts, KernelOutcome, MachineConfig, Mode, Params, RunOptions};
use pasm_prog::reduction::reference_sum;
use pasm_util::Rng;

fn cfg() -> MachineConfig {
    MachineConfig::prototype()
}

/// The `reduce` kernel over `p` per-PE blocks of `k` elements each; its
/// output holds each PE's result.
fn run_reduction(mode: Mode, k: usize, p: usize, blocks: &[Vec<u16>]) -> KernelOutcome {
    let input = blocks.concat();
    let params = Params::new(k * p, p);
    run_kernel_opts(
        &cfg(),
        &Reduce,
        mode,
        params,
        &input,
        &RunOptions::default(),
    )
    .unwrap_or_else(|e| panic!("{mode} k={k} p={p}: {e}"))
}

fn blocks(k: usize, p: usize, seed: u64) -> Vec<Vec<u16>> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..p)
        .map(|_| (0..k).map(|_| rng.gen_u16()).collect())
        .collect()
}

#[test]
fn all_modes_compute_the_global_sum() {
    for p in [2usize, 4, 8, 16] {
        let data = blocks(32, p, p as u64);
        let expect = reference_sum(&data);
        for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
            let out = run_reduction(mode, 32, p, &data);
            assert!(
                out.output.iter().all(|&s| s == expect),
                "{mode} p={p}: {:?} != {expect}",
                out.output
            );
        }
    }
}

#[test]
fn communication_protocol_cost_ordering() {
    // With a tiny local block the run is dominated by the p−1 ring exchanges:
    // polled MIMD must cost the most; barrier S/MIMD and lockstep SIMD are
    // both cheap.
    let p = 16;
    let data = blocks(4, p, 9);
    let t = |mode| run_reduction(mode, 4, p, &data).cycles;
    let (simd, mimd, smimd) = (t(Mode::Simd), t(Mode::Mimd), t(Mode::Smimd));
    assert!(
        mimd > smimd,
        "polling ({mimd}) must cost more than barriers ({smimd})"
    );
    assert!(
        mimd > simd,
        "polling ({mimd}) must cost more than lockstep ({simd})"
    );
}

#[test]
fn reduction_scales_with_block_size() {
    let p = 4;
    let small = blocks(8, p, 1);
    let large = blocks(256, p, 1);
    let ts = run_reduction(Mode::Mimd, 8, p, &small).cycles;
    let tl = run_reduction(Mode::Mimd, 256, p, &large).cycles;
    assert!(tl > ts);
    // The local-sum section is O(k); 32x the data should be >5x the time even
    // with the fixed ring cost.
    assert!(tl as f64 > 5.0 * ts as f64, "{tl} vs {ts}");
}

#[test]
fn single_element_blocks_work() {
    let p = 4;
    let data = vec![vec![1u16], vec![2], vec![3], vec![4]];
    let out = run_reduction(Mode::Smimd, 1, p, &data);
    assert!(out.output.iter().all(|&s| s == 10));
}
