//! Cross-crate timing-relationship tests: the qualitative claims of the paper
//! must hold on the simulated prototype at small problem sizes (kept small so
//! the suite stays fast in debug builds).

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::{run_kernel_opts, Breakdown, Kernel, KernelOutcome, Mode, Params, RunOptions};
use pasm_machine::MachineConfig;
use pasm_prog::codegen::{PHASE_COMM, PHASE_MUL};

fn cfg() -> MachineConfig {
    MachineConfig::prototype()
}

fn run(mode: Mode, params: Params, input: &[u16]) -> KernelOutcome {
    run_kernel_opts(&cfg(), &Matmul, mode, params, input, &RunOptions::default()).unwrap()
}

/// The paper workload (identity A, uniform B) of size `n` drawn from `seed`.
fn paper(mode: Mode, n: usize, p: usize, seed: u64) -> KernelOutcome {
    run(mode, Params::new(n, p), &Matmul.generate(n, seed))
}

fn cycles(mode: Mode, n: usize, p: usize, extra: usize) -> u64 {
    let params = Params::new(n, p).with_extra(extra);
    run(mode, params, &Matmul.generate(n, 1988)).cycles
}

#[test]
fn simd_beats_smimd_with_one_multiply() {
    // Paper §7: without added multiplies the SIMD version is faster — the MC
    // hides control flow and queue fetches beat DRAM.
    assert!(cycles(Mode::Simd, 32, 4, 0) < cycles(Mode::Smimd, 32, 4, 0));
}

#[test]
fn smimd_beats_simd_with_many_added_multiplies() {
    // Paper §8: enough data-dependent multiplies and decoupling wins.
    assert!(cycles(Mode::Smimd, 32, 4, 30) < cycles(Mode::Simd, 32, 4, 30));
}

#[test]
fn smimd_beats_mimd() {
    // Paper §5.3: barrier communication costs less than polled communication.
    assert!(cycles(Mode::Smimd, 32, 4, 0) < cycles(Mode::Mimd, 32, 4, 0));
}

#[test]
fn parallel_beats_serial_by_roughly_p() {
    let serial = cycles(Mode::Serial, 32, 1, 0);
    for mode in Mode::PARALLEL {
        let t = cycles(mode, 32, 4, 0);
        let speedup = serial as f64 / t as f64;
        assert!(
            speedup > 2.0 && speedup < 4.8,
            "{mode}: speedup {speedup:.2} out of the plausible band"
        );
    }
}

#[test]
fn mimd_to_smimd_gap_shrinks_with_n() {
    // Paper §7: T_MIMD / T_S/MIMD decreases as n increases — the only
    // difference is communication, which is O(n²) against O(n³/p) compute.
    let r8 = cycles(Mode::Mimd, 8, 4, 0) as f64 / cycles(Mode::Smimd, 8, 4, 0) as f64;
    let r32 = cycles(Mode::Mimd, 32, 4, 0) as f64 / cycles(Mode::Smimd, 32, 4, 0) as f64;
    assert!(r32 < r8, "ratio must shrink: n=8 {r8:.3} vs n=32 {r32:.3}");
}

#[test]
fn communication_dominates_small_n_compute_dominates_large_n() {
    let bs = Breakdown::of(&paper(Mode::Smimd, 8, 4, 1));
    let bl = Breakdown::of(&paper(Mode::Smimd, 64, 4, 1));
    let comm_share_small = bs.communication as f64 / bs.total as f64;
    let comm_share_large = bl.communication as f64 / bl.total as f64;
    assert!(
        comm_share_small > comm_share_large,
        "communication share must fall with n: {comm_share_small:.3} vs {comm_share_large:.3}"
    );
    assert!(bl.multiply > bl.communication, "multiply dominates at n=64");
}

#[test]
fn mimd_pays_more_communication_than_smimd() {
    let mimd = paper(Mode::Mimd, 16, 4, 1);
    let smimd = paper(Mode::Smimd, 16, 4, 1);
    assert!(
        mimd.run.phase_max(PHASE_COMM as usize) > smimd.run.phase_max(PHASE_COMM as usize),
        "polling must cost more than barrier communication"
    );
    // Compute sections are the same code: times must be close.
    let m = mimd.run.phase_max(PHASE_MUL as usize) as f64;
    let s = smimd.run.phase_max(PHASE_MUL as usize) as f64;
    assert!(
        (m - s).abs() / s < 0.05,
        "multiply sections nearly equal: {m} vs {s}"
    );
}

#[test]
fn added_multiplies_hurt_simd_more_than_smimd() {
    // The decoupling effect: the same added work costs SIMD the per-step max.
    let simd_delta = cycles(Mode::Simd, 16, 4, 10) - cycles(Mode::Simd, 16, 4, 0);
    let smimd_delta = cycles(Mode::Smimd, 16, 4, 10) - cycles(Mode::Smimd, 16, 4, 0);
    assert!(
        simd_delta > smimd_delta,
        "SIMD delta {simd_delta} must exceed S/MIMD delta {smimd_delta}"
    );
}

#[test]
fn simd_queue_stays_mostly_nonempty() {
    // Precondition for the control-overlap benefit (paper §5.1): the MC must
    // supply instructions faster than the PEs drain them.
    let out = paper(Mode::Simd, 32, 4, 1);
    let fu = &out.run.fu[0];
    assert!(fu.entries > 1000);
    assert!(
        (fu.empty_stall_cycles as f64) < 0.05 * out.cycles as f64,
        "queue-empty stalls should be rare: {} of {}",
        fu.empty_stall_cycles,
        out.cycles
    );
}

#[test]
fn all_pes_do_the_same_number_of_multiplies() {
    for mode in Mode::PARALLEL {
        let out = paper(mode, 16, 4, 1);
        let counts: Vec<u64> = out
            .run
            .pe
            .iter()
            .filter(|t| t.instrs > 0)
            .map(|t| t.mul_count)
            .collect();
        assert_eq!(counts.len(), 4, "{mode}");
        assert!(counts.iter().all(|&c| c == counts[0]), "{mode}: {counts:?}");
        // n³/p multiplies each.
        assert_eq!(counts[0], (16u64 * 16 * 16) / 4, "{mode}");
    }
}

#[test]
fn heavier_multipliers_slow_simd_down() {
    // Give some columns maximal-popcount multipliers: every MULU by them takes
    // the maximum 70 cycles and, in lockstep, everyone pays it.
    use pasm_prog::Matrix;
    let n = 16;
    let a = Matrix::identity(n);
    let uniform = Matrix::bit_density(n, 8, 3);
    let heavy = Matrix::from_fn(n, |r, c| if c < 4 { 0xFFFF } else { uniform.get(r, c) });
    let flat = run(Mode::Simd, Params::new(n, 4), &input_words(&a, &uniform));
    let skew = run(Mode::Simd, Params::new(n, 4), &input_words(&a, &heavy));
    assert!(skew.cycles > flat.cycles);
}
