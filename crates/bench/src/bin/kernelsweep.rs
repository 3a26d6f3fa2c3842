//! `kernelsweep` — where does each registered workload land on the
//! SIMD↔MIMD spectrum?
//!
//! Runs every kernel in the `pasm-kernels` registry in all three parallel
//! modes over p ∈ {4, 8, 16} on the 16-PE prototype, verifies each output
//! against the kernel's scalar host reference, and measures the paper's
//! **Σmax-vs-maxΣ** tradeoff per kernel: in SIMD the Fetch Unit releases
//! every broadcast instruction at the *maximum* over the PEs (the faster
//! PEs' slack shows up as `barrier_wait`), while in MIMD each PE pays only
//! the *sum of its own* instruction times and synchronizes by polling.
//! Which side wins depends on the kernel's signature:
//!
//! * `matmul`, `smooth` — compute is identical (or equalized cheaply)
//!   across PEs, so broadcast fetch is free bandwidth: **SIMD wins**;
//! * `bitonic`, `reduce` (at scale) — data-dependent compare-exchange paths
//!   and long per-PE loops make lockstep release pay max-variance on every
//!   instruction: **MIMD wins** the pure-mode comparison;
//! * S/MIMD rows show the hybrid (PE-resident code, barrier transfers) —
//!   frequently the overall winner, exactly the paper's point.
//!
//! The sweep is a regression gate (`ci.sh` runs `kernelsweep --quick`): it
//! exits nonzero if any output fails verification or if the spectrum
//! degenerates — the registry must always demonstrate at least one kernel
//! where SIMD beats MIMD and one where MIMD beats SIMD.
//!
//! Results go to the top-level `BENCH_kernelsweep.json` in the stable
//! `{name, config, metrics, schema_version}` trajectory schema.

use pasm::{MachineConfig, Mode, Params};
use pasm_machine::Bucket;
use pasm_util::{Json, ToJson};
use std::process::ExitCode;

const MODES: [Mode; 3] = [Mode::Simd, Mode::Mimd, Mode::Smimd];

/// Reference partition size: the placement (who wins which kernel) is judged
/// at this p, which both the quick and the full sweep run.
const REF_P: usize = 4;

/// Problem size per kernel: large enough that the kernel's signature —
/// not constant startup cost — decides the mode ranking. The quick sizes
/// are the smallest at which the full sweep's ranking is already visible.
fn problem_size(kernel: &str, quick: bool) -> usize {
    match (kernel, quick) {
        ("matmul", true) => 8,
        ("matmul", false) => 32,
        ("smooth", true) => 32,
        ("smooth", false) => 256,
        ("reduce", true) => 64,
        ("reduce", false) => 256,
        ("bitonic", true) => 128,
        ("bitonic", false) => 512,
        (k, _) => panic!("kernelsweep: no problem size configured for kernel `{k}`"),
    }
}

struct Row {
    kernel: &'static str,
    mode: Mode,
    n: usize,
    p: usize,
    cycles: u64,
    millis: f64,
    /// Slowest PE's compute-phase cycles (the paper's per-phase cost).
    compute_max: u64,
    /// Mean compute-phase cycles over active PEs — the gap to `compute_max`
    /// is the variance SIMD equalizes and MIMD keeps private.
    compute_mean: f64,
    comm_max: u64,
    barrier_wait: u64,
    verified: bool,
}

impl ToJson for Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.to_string())),
            ("mode", self.mode.to_json()),
            ("n", Json::Int(self.n as i64)),
            ("p", Json::Int(self.p as i64)),
            ("cycles", Json::Int(self.cycles as i64)),
            ("ms", Json::Float(self.millis)),
            ("compute_max", Json::Int(self.compute_max as i64)),
            ("compute_mean", Json::Float(self.compute_mean)),
            ("comm_max", Json::Int(self.comm_max as i64)),
            ("barrier_wait", Json::Int(self.barrier_wait as i64)),
            ("verified", Json::Bool(self.verified)),
        ])
    }
}

fn main() -> ExitCode {
    let quick = bench::quick_mode();
    let cfg = MachineConfig::prototype();
    let seed = pasm::figures::DEFAULT_SEED;
    let ps: &[usize] = if quick { &[REF_P] } else { &[4, 8, 16] };

    let mut rows: Vec<Row> = Vec::new();
    let mut failures = Vec::new();

    for kernel in pasm::kernels::kernels().iter().copied() {
        let n = problem_size(kernel.name(), quick);
        let input = kernel.generate(n, seed);
        for &p in ps {
            if let Err(e) = kernel.validate(n, p) {
                failures.push(format!("{} n={n} p={p}: {e}", kernel.name()));
                continue;
            }
            for mode in MODES {
                let params = Params::new(n, p);
                let opts = pasm::RunOptions::default();
                let out = match pasm::run_kernel_opts(&cfg, kernel, mode, params, &input, &opts) {
                    Ok(out) => out,
                    Err(e) => {
                        failures.push(format!("{} {mode} n={n} p={p}: {e}", kernel.name()));
                        continue;
                    }
                };
                let verified = match out.verify(&input) {
                    Ok(()) => true,
                    Err(e) => {
                        failures.push(format!("{} {mode} n={n} p={p}: {e}", kernel.name()));
                        false
                    }
                };
                let (compute, comm) = kernel.phases();
                let barrier_wait = out
                    .run
                    .accounts
                    .as_ref()
                    .map(|acc| acc.pe_bucket_totals()[Bucket::BarrierWait as usize])
                    .unwrap_or(0);
                rows.push(Row {
                    kernel: kernel.name(),
                    mode,
                    n,
                    p,
                    cycles: out.cycles,
                    millis: out.millis(),
                    compute_max: out.run.phase_max(compute as usize),
                    compute_mean: out.run.phase_mean(compute as usize),
                    comm_max: out.run.phase_max(comm as usize),
                    barrier_wait,
                    verified,
                });
            }
        }
    }

    // Placement: judge each kernel's spectrum side by the pure modes at the
    // reference partition size (S/MIMD reported alongside as the hybrid).
    let mut placement = Vec::new();
    let mut simd_wins = 0usize;
    let mut mimd_wins = 0usize;
    println!("== kernel placement on the SIMD\u{2194}MIMD spectrum (p = {REF_P}) ==");
    println!(
        "{:>8} {:>6} {:>10} {:>10} {:>10} {:>8} {:>7}",
        "kernel", "n", "simd", "mimd", "smimd", "simd/mimd", "side"
    );
    for kernel in pasm::kernels::kernels() {
        let cell = |mode: Mode| {
            rows.iter()
                .find(|r| r.kernel == kernel.name() && r.p == REF_P && r.mode == mode)
                .map(|r| r.cycles)
        };
        let (Some(simd), Some(mimd), Some(smimd)) =
            (cell(Mode::Simd), cell(Mode::Mimd), cell(Mode::Smimd))
        else {
            failures.push(format!("{}: incomplete p={REF_P} row set", kernel.name()));
            continue;
        };
        let side = match simd.cmp(&mimd) {
            std::cmp::Ordering::Less => {
                simd_wins += 1;
                "simd"
            }
            std::cmp::Ordering::Greater => {
                mimd_wins += 1;
                "mimd"
            }
            std::cmp::Ordering::Equal => "tie",
        };
        let n = problem_size(kernel.name(), quick);
        println!(
            "{:>8} {:>6} {:>10} {:>10} {:>10} {:>9.4} {:>7}",
            kernel.name(),
            n,
            simd,
            mimd,
            smimd,
            simd as f64 / mimd as f64,
            side
        );
        placement.push(Json::obj(vec![
            ("kernel", Json::Str(kernel.name().to_string())),
            ("n", Json::Int(n as i64)),
            ("p", Json::Int(REF_P as i64)),
            ("simd_cycles", Json::Int(simd as i64)),
            ("mimd_cycles", Json::Int(mimd as i64)),
            ("smimd_cycles", Json::Int(smimd as i64)),
            ("simd_over_mimd", Json::Float(simd as f64 / mimd as f64)),
            ("side", Json::Str(side.to_string())),
        ]));
    }
    println!();

    if simd_wins == 0 {
        failures.push("spectrum degenerate: no kernel where SIMD beats MIMD".to_string());
    }
    if mimd_wins == 0 {
        failures.push("spectrum degenerate: no kernel where MIMD beats SIMD".to_string());
    }

    let config = Json::obj(vec![
        ("preset", Json::Str("prototype".to_string())),
        ("seed", Json::Int(seed as i64)),
        ("ref_p", Json::Int(REF_P as i64)),
        (
            "ps",
            Json::Arr(ps.iter().map(|&p| Json::Int(p as i64)).collect()),
        ),
        (
            "sizes",
            Json::obj(
                pasm::kernels::kernels()
                    .iter()
                    .map(|k| (k.name(), Json::Int(problem_size(k.name(), quick) as i64)))
                    .collect(),
            ),
        ),
    ]);
    let metrics = Json::obj(vec![
        (
            "rows",
            Json::Arr(rows.iter().map(ToJson::to_json).collect()),
        ),
        ("placement", Json::Arr(placement)),
        ("simd_wins", Json::Int(simd_wins as i64)),
        ("mimd_wins", Json::Int(mimd_wins as i64)),
    ]);
    bench::save_bench_json("kernelsweep", 1, config, metrics);

    if failures.is_empty() {
        println!(
            "kernelsweep: {} runs verified; spectrum spans both ends \
             ({simd_wins} kernel(s) SIMD-side, {mimd_wins} MIMD-side)",
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
