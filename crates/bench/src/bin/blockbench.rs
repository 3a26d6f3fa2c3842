//! `blockbench` — wall-clock payoff of the block-compiled fast path.
//!
//! Runs every registered kernel in all three parallel modes on every grid
//! cell, [`REPEATS`] times per path — the block-compiled fast path and the
//! per-instruction interpreter (`RunOptions::fast_path = false`),
//! alternating — and reports the median, minimum and maximum host wall
//! time of each path and the ratio of the medians. Before timing is
//! trusted, every run is compared with the cell's first interpreter run as
//! a full [`pasm::ExperimentResult`]: simulated
//! makespan, per-bucket cycle totals, instruction counts and output
//! checksums must be byte-identical, or the bench exits nonzero. The fast
//! path is an *optimization of the scheduler*, never of the timing model —
//! see `docs/TIMING.md`.
//!
//! Grid: p ∈ {4, 8, 16} × the paper-scale sizes n ∈ {256, 1024} for the
//! streaming kernels. `matmul` is O(n³) in simulated work and capped at
//! n ≤ 512 by its generator, so it sweeps n ∈ {32, 64} instead — it
//! contributes to the equivalence gate but not to the headline speed-up.
//! Cells the kernel's own `validate` rejects (e.g. `bitonic` with a
//! per-PE chunk that is not a power of two) are skipped, not failed.
//!
//! Gates:
//! * every cell: fast-path results byte-identical to the interpreter's;
//! * full mode only: the best MIMD or S/MIMD speed-up at n = 1024, p = 16
//!   must reach [`MIN_SPEEDUP`]× — the fast path has to actually pay for
//!   its table.
//!
//! The best SIMD speed-up at n = 1024, p = 16 (the SIMD group step) is
//! reported next to the gate as `simd_best_speedup`, without a gate.
//!
//! `ci.sh` runs `blockbench --quick` (small n, equivalence gate only),
//! which writes under `target/bench-quick/`. Full runs write the top-level
//! `BENCH_blockbench.json` in the stable trajectory schema (see
//! `bench::save_bench_json`).

use bench::Spread;
use pasm::{ExperimentResult, MachineConfig, Mode, Params, RunOptions};
use pasm_util::{Json, ToJson};
use std::process::ExitCode;
use std::time::Instant;

const MODES: [Mode; 3] = [Mode::Simd, Mode::Mimd, Mode::Smimd];

/// The headline cell: speed-up is judged at this partition and size.
const GATE_N: usize = 1024;
const GATE_P: usize = 16;

/// Timed runs per path and cell in a full run (`--quick`: one).
const REPEATS: usize = 3;

/// Full-mode floor on the best n = 1024, p = 16 speed-up.
///
/// Measured on the reference container: bitonic S/MIMD ~5.2×, bitonic
/// MIMD ~3.2×. The floor sits below the best cell with margin because
/// host wall time drifts 2× and worse run to run under neighbor load. The ceiling is structural,
/// not a tuning artifact: `exec_timed` alone costs ~14 ns/instr vs
/// ~100 ns/instr for the full interpreter loop, and DRAM-refresh waits
/// are time-dependent, so the fast path must still evaluate two burst
/// delays per instruction instead of folding them per block — see the
/// "What the block compiler cannot fold" section of `docs/TIMING.md`.
const MIN_SPEEDUP: f64 = 2.5;

/// Sizes per kernel. `matmul` is cubic in simulated instructions (and its
/// generator rejects n > 512), so it gets the small pair; everything else
/// runs the paper-scale pair the issue calls for.
fn sizes(kernel: &str, quick: bool) -> &'static [usize] {
    match (kernel, quick) {
        ("matmul", true) => &[8],
        ("matmul", false) => &[32, 64],
        (_, true) => &[64],
        (_, false) => &[256, 1024],
    }
}

struct Row {
    kernel: &'static str,
    mode: Mode,
    n: usize,
    p: usize,
    cycles: u64,
    fast_ms: Spread,
    interp_ms: Spread,
    /// Ratio of the median wall times, interpreter over fast path.
    speedup: f64,
    identical: bool,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.to_string())),
            ("mode", self.mode.to_json()),
            ("n", Json::Int(self.n as i64)),
            ("p", Json::Int(self.p as i64)),
            ("cycles", Json::Int(self.cycles as i64)),
            ("fast_wall_ms", Json::Float(self.fast_ms.median)),
            ("fast_wall_ms_min", Json::Float(self.fast_ms.min)),
            ("fast_wall_ms_max", Json::Float(self.fast_ms.max)),
            ("interp_wall_ms", Json::Float(self.interp_ms.median)),
            ("interp_wall_ms_min", Json::Float(self.interp_ms.min)),
            ("interp_wall_ms_max", Json::Float(self.interp_ms.max)),
            ("speedup", Json::Float(self.speedup)),
            ("identical", Json::Bool(self.identical)),
        ])
    }
}

/// Run one cell with the fast path on or off, returning the summarized
/// result and the host wall time in milliseconds.
fn run_cell(
    cfg: &MachineConfig,
    kernel: &'static dyn pasm::Kernel,
    mode: Mode,
    params: Params,
    input: &[u16],
    seed: u64,
    fast_path: bool,
) -> Result<(ExperimentResult, f64), pasm_machine::RunError> {
    let opts = RunOptions {
        fast_path,
        ..RunOptions::default()
    };
    let t0 = Instant::now();
    let out = pasm::run_kernel_opts(cfg, kernel, mode, params, input, &opts)?;
    let wall = t0.elapsed().as_secs_f64() * 1e3;
    Ok((ExperimentResult::from_kernel_outcome(&out, seed), wall))
}

fn main() -> ExitCode {
    let quick = bench::quick_mode();
    let cfg = MachineConfig::prototype();
    let seed = pasm::figures::DEFAULT_SEED;
    let ps: &[usize] = if quick { &[4] } else { &[4, 8, 16] };
    let repeats = if quick { 1 } else { REPEATS };

    let mut rows: Vec<Row> = Vec::new();
    let mut failures = Vec::new();

    println!("== block-compiled fast path vs per-instruction interpreter ==");
    println!(
        "{:>8} {:>6} {:>6} {:>4} {:>12} {:>10} {:>10} {:>8} {:>6}",
        "kernel", "mode", "n", "p", "cycles", "interp ms", "fast ms", "speedup", "equal"
    );
    for kernel in pasm::kernels::kernels().iter().copied() {
        for &n in sizes(kernel.name(), quick) {
            let input = kernel.generate(n, seed);
            for &p in ps {
                if kernel.validate(n, p).is_err() {
                    continue; // out of the kernel's own bounds, not a failure
                }
                for mode in MODES {
                    let params = Params::new(n, p);
                    let run =
                        |fast_path| run_cell(&cfg, kernel, mode, params, &input, seed, fast_path);
                    // The paths alternate; every run must match the first
                    // interpreter run.
                    let samples = (0..repeats)
                        .map(|_| Ok((run(false)?, run(true)?)))
                        .collect::<Result<Vec<_>, pasm_machine::RunError>>();
                    let samples = match samples {
                        Ok(samples) => samples,
                        Err(e) => {
                            failures.push(format!("{} {mode} n={n} p={p}: {e}", kernel.name()));
                            continue;
                        }
                    };
                    let ((interp_res, _), (fast_res, _)) = &samples[0];
                    let identical = samples
                        .iter()
                        .all(|((i, _), (f, _))| i == interp_res && f == interp_res);
                    if !identical {
                        failures.push(format!(
                            "{} {mode} n={n} p={p}: fast path diverged from interpreter \
                             (cycles {} vs {}, buckets {:?} vs {:?})",
                            kernel.name(),
                            fast_res.cycles,
                            interp_res.cycles,
                            fast_res.pe_buckets,
                            interp_res.pe_buckets,
                        ));
                    }
                    let interp_ms = Spread::of(&samples.iter().map(|s| s.0 .1).collect::<Vec<_>>());
                    let fast_ms = Spread::of(&samples.iter().map(|s| s.1 .1).collect::<Vec<_>>());
                    let speedup = interp_ms.median / fast_ms.median.max(1e-9);
                    println!(
                        "{:>8} {:>6} {:>6} {:>4} {:>12} {:>10.2} {:>10.2} {:>7.2}x {:>6}",
                        kernel.name(),
                        format!("{mode}"),
                        n,
                        p,
                        fast_res.cycles,
                        interp_ms.median,
                        fast_ms.median,
                        speedup,
                        if identical { "yes" } else { "NO" },
                    );
                    rows.push(Row {
                        kernel: kernel.name(),
                        mode,
                        n,
                        p,
                        cycles: fast_res.cycles,
                        fast_ms,
                        interp_ms,
                        speedup,
                        identical,
                    });
                }
            }
        }
    }
    println!();

    // Headline: best speed-up at the gate cell (full mode only — quick runs
    // are too short for stable wall times, so they gate equivalence only).
    let best_at_gate = |simd: bool| {
        rows.iter()
            .filter(|r| r.n == GATE_N && r.p == GATE_P && (r.mode == Mode::Simd) == simd)
            .map(|r| r.speedup)
            .fold(0.0f64, f64::max)
    };
    let gate_best = best_at_gate(false);
    let simd_best = best_at_gate(true);
    if !quick {
        println!("blockbench: best SIMD n={GATE_N} p={GATE_P} speedup {simd_best:.1}x (group step, reported only)");
        if gate_best >= MIN_SPEEDUP {
            println!(
                "blockbench: best MIMD/S-MIMD n={GATE_N} p={GATE_P} speedup {gate_best:.1}x \
                 (gate: >= {MIN_SPEEDUP:.1}x)"
            );
        } else {
            failures.push(format!(
                "fast path too slow: best MIMD/S-MIMD n={GATE_N} p={GATE_P} speedup \
                 {gate_best:.2}x < {MIN_SPEEDUP:.1}x"
            ));
        }
    }

    let config = Json::obj(vec![
        ("preset", Json::Str("prototype".to_string())),
        ("seed", Json::Int(seed as i64)),
        (
            "ps",
            Json::Arr(ps.iter().map(|&p| Json::Int(p as i64)).collect()),
        ),
        (
            "sizes",
            Json::obj(
                pasm::kernels::kernels()
                    .iter()
                    .map(|k| {
                        (
                            k.name(),
                            Json::Arr(
                                sizes(k.name(), quick)
                                    .iter()
                                    .map(|&n| Json::Int(n as i64))
                                    .collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
        ("gate_n", Json::Int(GATE_N as i64)),
        ("gate_p", Json::Int(GATE_P as i64)),
        ("min_speedup", Json::Float(MIN_SPEEDUP)),
    ]);
    let metrics = Json::obj(vec![
        (
            "rows",
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
        ("gate_best_speedup", Json::Float(gate_best)),
        ("simd_best_speedup", Json::Float(simd_best)),
        (
            "all_identical",
            Json::Bool(rows.iter().all(|r| r.identical)),
        ),
    ]);
    bench::save_bench_json("blockbench", repeats, config, metrics);

    if failures.is_empty() {
        println!(
            "blockbench: {} cells, fast path byte-identical to the interpreter in all of them",
            rows.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
