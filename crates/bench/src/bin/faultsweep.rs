//! `faultsweep` — empirical check of the ESC single-fault theorem on the
//! full simulated machine.
//!
//! For **every** tolerable single network fault (each interchange box and
//! each inter-stage link, see `pasm_net::single_faults`) the sweep runs the
//! paper's matrix multiplication in all three parallel modes (SIMD, MIMD,
//! S/MIMD) across many seeds on a half-machine spread partition, and asserts:
//!
//! * the product matrix is **correct** under the fault, element for element;
//! * a *rerouted* fault (interior box or any link — `NetFault::reroutes`)
//!   slows the run down, and the slowdown is attributed to the
//!   `fault_detour` cycle bucket. SIMD and S/MIMD transfer in lockstep, so
//!   every rerouted fault must slow every run; MIMD receivers *poll*, which
//!   quantizes word arrivals to poll iterations — a detour smaller than one
//!   poll loop can vanish from an individual run's makespan (the same
//!   instruction-time non-determinism the paper studies). For MIMD each run
//!   must charge the detour and never get faster, and the mode as a whole —
//!   all rerouted faults across all seeds — must be slower than fault-free
//!   in aggregate;
//! * a *hidden* fault (extra-stage or output-stage box, bypassed by the
//!   multiplexers) costs exactly nothing: identical cycle count, zero
//!   detour cycles.
//!
//! The full sweep uses the 16-PE prototype with `p = 8` (the spread
//! partition on every other network line) and n=8 matrices over 16 seeds;
//! `--quick` shrinks it to the 4-PE small machine (14 faults) for CI. Any
//! violated assertion is printed and the binary exits nonzero — `ci.sh`
//! runs the quick sweep as a regression gate.

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::{par_map, Mode, Params, RunOptions};
use pasm_machine::{single_faults, Bucket, FaultPlan, MachineConfig};
use pasm_prog::Matrix;
use pasm_util::{Json, ToJson};
use std::process::ExitCode;

const MODES: [Mode; 3] = [Mode::Simd, Mode::Mimd, Mode::Smimd];

/// Aggregate of one (mode, seed) cell of the sweep: all faults checked
/// against one fault-free baseline.
struct Cell {
    mode: Mode,
    seed: u64,
    baseline_cycles: u64,
    faults: usize,
    rerouted: usize,
    /// Total cycles of the cell's rerouted-fault runs (vs `baseline_cycles ×
    /// rerouted` fault-free) — the mode-level aggregate-slowdown input.
    rerouted_cycles: u64,
    hidden: usize,
    max_slowdown: f64,
    violations: Vec<String>,
}

impl ToJson for Cell {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", Json::Str(self.mode.to_string())),
            ("seed", Json::Int(self.seed as i64)),
            ("baseline_cycles", Json::Int(self.baseline_cycles as i64)),
            ("faults", Json::Int(self.faults as i64)),
            ("rerouted", Json::Int(self.rerouted as i64)),
            ("rerouted_cycles", Json::Int(self.rerouted_cycles as i64)),
            ("hidden", Json::Int(self.hidden as i64)),
            ("max_slowdown", Json::Float(self.max_slowdown)),
            ("violations", Json::Int(self.violations.len() as i64)),
        ])
    }
}

fn sweep_cell(cfg: &MachineConfig, n: usize, p: usize, mode: Mode, seed: u64) -> Cell {
    let m = cfg.n_pes.max(2).trailing_zeros();
    // A non-trivial product (the paper workload multiplies by the identity,
    // which would let a fault that misroutes `A` go unnoticed).
    let input = input_words(
        &Matrix::uniform(n, seed),
        &Matrix::uniform(n, seed ^ 0x9E37_79B9_7F4A_7C15),
    );
    let params = Params::new(n, p);
    let run = |opts: &RunOptions| pasm::run_kernel_opts(cfg, &Matmul, mode, params, &input, opts);

    let base = run(&RunOptions::default()).expect("fault-free baseline run");
    let mut cell = Cell {
        mode,
        seed,
        baseline_cycles: base.cycles,
        faults: 0,
        rerouted: 0,
        rerouted_cycles: 0,
        hidden: 0,
        max_slowdown: 1.0,
        violations: Vec::new(),
    };
    if base.verify(&input).is_err() {
        cell.violations
            .push(format!("{mode} seed {seed}: fault-free product WRONG"));
        return cell;
    }

    for fault in single_faults(cfg.n_pes.max(2)) {
        cell.faults += 1;
        let opts = RunOptions {
            fault: FaultPlan::net_single(fault),
            ..RunOptions::default()
        };
        let tag = format!("{mode} seed {seed} fault {fault}");
        let out = match run(&opts) {
            Ok(out) => out,
            Err(e) => {
                cell.violations.push(format!("{tag}: run failed: {e}"));
                continue;
            }
        };
        if out.verify(&input).is_err() {
            cell.violations.push(format!("{tag}: product WRONG"));
        }
        let detour = out
            .run
            .accounts
            .as_ref()
            .map(|acc| acc.pe_bucket_totals()[Bucket::FaultDetour as usize])
            .unwrap_or(0);
        let slowdown = out.cycles as f64 / base.cycles as f64;
        cell.max_slowdown = cell.max_slowdown.max(slowdown);
        if fault.reroutes(m) {
            cell.rerouted += 1;
            cell.rerouted_cycles += out.cycles;
            if detour == 0 {
                cell.violations
                    .push(format!("{tag}: rerouted fault charged no fault_detour"));
            }
            // Lockstep transfers (SIMD, S/MIMD barriers) cannot hide the
            // extra hop: every rerouted run must be strictly slower. MIMD
            // polling may absorb a single run's detour, but never speeds
            // one up — the aggregate check below catches a detour model
            // that stopped reaching the makespan at all.
            let hidden_ok = mode == Mode::Mimd && out.cycles == base.cycles;
            if out.cycles <= base.cycles && !hidden_ok {
                cell.violations.push(format!(
                    "{tag}: rerouted fault shows no slowdown ({} vs {} cycles)",
                    out.cycles, base.cycles
                ));
            }
        } else {
            cell.hidden += 1;
            if detour != 0 {
                cell.violations.push(format!(
                    "{tag}: hidden fault charged {detour} detour cycles"
                ));
            }
            if out.cycles != base.cycles {
                cell.violations.push(format!(
                    "{tag}: hidden fault changed the cycle count ({} vs {})",
                    out.cycles, base.cycles
                ));
            }
        }
    }
    cell
}

/// Aggregate of one (kernel, mode) cell of the registry-wide sweep: every
/// tolerable single network fault, each output verified against the
/// kernel's scalar host reference.
struct KernelCell {
    kernel: &'static str,
    mode: Mode,
    baseline_cycles: u64,
    faults: usize,
    rerouted: usize,
    hidden: usize,
    max_slowdown: f64,
    violations: Vec<String>,
}

impl ToJson for KernelCell {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", Json::Str(self.kernel.to_string())),
            ("mode", Json::Str(self.mode.to_string())),
            ("baseline_cycles", Json::Int(self.baseline_cycles as i64)),
            ("faults", Json::Int(self.faults as i64)),
            ("rerouted", Json::Int(self.rerouted as i64)),
            ("hidden", Json::Int(self.hidden as i64)),
            ("max_slowdown", Json::Float(self.max_slowdown)),
            ("violations", Json::Int(self.violations.len() as i64)),
        ])
    }
}

/// Sweep one registered kernel through every single fault in one mode. The
/// per-fault checks are the theorem's kernel-agnostic core: the output is
/// always correct; a rerouted fault charges `fault_detour` and never speeds
/// the run up; a hidden fault costs exactly nothing. (The strict per-run
/// slowdown and aggregate checks stay with the matmul sweep above, whose
/// transfer volume makes them sharp.)
fn kernel_cell(
    cfg: &MachineConfig,
    kernel: &'static dyn pasm::Kernel,
    n: usize,
    p: usize,
    mode: Mode,
    seed: u64,
) -> KernelCell {
    let m = cfg.n_pes.max(2).trailing_zeros();
    let input = kernel.generate(n, seed);
    let params = Params::new(n, p);
    let base = pasm::run_kernel_opts(cfg, kernel, mode, params, &input, &RunOptions::default())
        .expect("fault-free kernel baseline");
    let mut cell = KernelCell {
        kernel: kernel.name(),
        mode,
        baseline_cycles: base.cycles,
        faults: 0,
        rerouted: 0,
        hidden: 0,
        max_slowdown: 1.0,
        violations: Vec::new(),
    };
    if let Err(e) = base.verify(&input) {
        cell.violations
            .push(format!("{} {mode}: fault-free run: {e}", kernel.name()));
        return cell;
    }
    for fault in single_faults(cfg.n_pes.max(2)) {
        cell.faults += 1;
        let opts = RunOptions {
            fault: FaultPlan::net_single(fault),
            ..RunOptions::default()
        };
        let tag = format!("{} {mode} fault {fault}", kernel.name());
        let out = match pasm::run_kernel_opts(cfg, kernel, mode, params, &input, &opts) {
            Ok(out) => out,
            Err(e) => {
                cell.violations.push(format!("{tag}: run failed: {e}"));
                continue;
            }
        };
        if let Err(e) = out.verify(&input) {
            cell.violations.push(format!("{tag}: {e}"));
        }
        let detour = out
            .run
            .accounts
            .as_ref()
            .map(|acc| acc.pe_bucket_totals()[Bucket::FaultDetour as usize])
            .unwrap_or(0);
        cell.max_slowdown = cell
            .max_slowdown
            .max(out.cycles as f64 / base.cycles as f64);
        if fault.reroutes(m) {
            cell.rerouted += 1;
            if detour == 0 {
                cell.violations
                    .push(format!("{tag}: rerouted fault charged no fault_detour"));
            }
            if out.cycles < base.cycles {
                cell.violations.push(format!(
                    "{tag}: rerouted fault sped the run up ({} vs {} cycles)",
                    out.cycles, base.cycles
                ));
            }
        } else {
            cell.hidden += 1;
            if detour != 0 {
                cell.violations.push(format!(
                    "{tag}: hidden fault charged {detour} detour cycles"
                ));
            }
            if out.cycles != base.cycles {
                cell.violations.push(format!(
                    "{tag}: hidden fault changed the cycle count ({} vs {})",
                    out.cycles, base.cycles
                ));
            }
        }
    }
    cell
}

fn main() -> ExitCode {
    let quick = bench::quick_mode();
    // Quick: a 4-PE machine (14 single faults) — the CI smoke sweep. Two
    // MCs, not small()'s one, so the half-machine partition spreads onto
    // lines [0, 2]; a single-MC machine would have to use the adjacent
    // lines [0, 1], whose ring is unroutable under interior faults.
    // Full: the 16-PE prototype (104 single faults), half-machine partition.
    let (cfg, n, p, n_seeds) = if quick {
        let cfg = MachineConfig {
            n_mcs: 2,
            // At n=4 a transfer is a handful of words, and the prototype's
            // 2-cycle stage latency disappears inside MIMD's poll interval
            // on every run. A slower (say, board-to-board) stage keeps the
            // detour visible at smoke scale.
            net_stage_cycles: 16,
            ..MachineConfig::small()
        };
        (cfg, 4, 2, 4u64)
    } else {
        (MachineConfig::prototype(), 8, 8, 16u64)
    };
    let faults = single_faults(cfg.n_pes.max(2)).len();
    println!(
        "faultsweep: {} PEs, p={p}, n={n}, {faults} single faults × {} modes × {n_seeds} seeds",
        cfg.n_pes,
        MODES.len(),
    );

    let cases: Vec<(Mode, u64)> = MODES
        .iter()
        .flat_map(|&mode| (0..n_seeds).map(move |s| (mode, pasm::figures::DEFAULT_SEED + s)))
        .collect();
    let cells = par_map(cases, |&(mode, seed)| sweep_cell(&cfg, n, p, mode, seed));

    // Registry-wide sweep: every other kernel through the same faults, one
    // seed, small per-PE blocks (the fault footprint is the ring circuits,
    // which every kernel shares with matmul).
    let kn = if quick { 8 } else { 32 };
    let kernel_cases: Vec<(&'static dyn pasm::Kernel, Mode)> = pasm::kernels::kernels()
        .iter()
        .copied()
        .filter(|k| k.name() != pasm::MATMUL)
        .flat_map(|k| MODES.iter().map(move |&mode| (k, mode)))
        .collect();
    let kernel_cells = par_map(kernel_cases, |&(k, mode)| {
        kernel_cell(&cfg, k, kn, p, mode, pasm::figures::DEFAULT_SEED)
    });

    let mut violations = 0usize;
    for cell in &cells {
        for v in &cell.violations {
            eprintln!("VIOLATION: {v}");
        }
        violations += cell.violations.len();
    }
    for mode in MODES {
        let rows: Vec<&Cell> = cells.iter().filter(|c| c.mode == mode).collect();
        let runs: usize = rows.iter().map(|c| c.faults).sum();
        let max_slow = rows.iter().map(|c| c.max_slowdown).fold(1.0, f64::max);
        // Aggregate slowdown of the mode's rerouted runs vs fault-free (for
        // SIMD and S/MIMD the per-run strictness already implies it; for
        // MIMD this is the check polling cannot dodge across 16 seeds).
        let rerouted_cycles: u64 = rows.iter().map(|c| c.rerouted_cycles).sum();
        let rerouted_base: u64 = rows
            .iter()
            .map(|c| c.baseline_cycles * c.rerouted as u64)
            .sum();
        let agg_slow = rerouted_cycles as f64 / rerouted_base as f64;
        if rerouted_cycles <= rerouted_base {
            eprintln!(
                "VIOLATION: {mode}: rerouted faults show no aggregate slowdown \
                 ({rerouted_cycles} cycles vs {rerouted_base} fault-free)"
            );
            violations += 1;
        }
        println!(
            "  {mode:>6}: {runs} faulted runs, all products {}, \
             slowdown mean {agg_slow:.4} / max {max_slow:.4}",
            if rows.iter().all(|c| c.violations.is_empty()) {
                "correct"
            } else {
                "NOT ALL CORRECT"
            },
        );
    }
    for cell in &kernel_cells {
        for v in &cell.violations {
            eprintln!("VIOLATION: {v}");
        }
        violations += cell.violations.len();
        println!(
            "  {:>7} {:>6}: {} faulted runs ({} rerouted, {} hidden), {}, max slowdown {:.4}",
            cell.kernel,
            cell.mode,
            cell.faults,
            cell.rerouted,
            cell.hidden,
            if cell.violations.is_empty() {
                "all correct"
            } else {
                "NOT ALL CORRECT"
            },
            cell.max_slowdown,
        );
    }
    bench::save_bench_json(
        "faultsweep",
        1,
        Json::obj(vec![
            ("n_pes", Json::Int(cfg.n_pes as i64)),
            ("n", Json::Int(n as i64)),
            ("p", Json::Int(p as i64)),
            ("seeds", Json::Int(n_seeds as i64)),
            ("faults", Json::Int(faults as i64)),
        ]),
        Json::obj(vec![
            (
                "cells",
                Json::Arr(cells.iter().map(|c| c.to_json()).collect()),
            ),
            (
                "kernel_cells",
                Json::Arr(kernel_cells.iter().map(|c| c.to_json()).collect()),
            ),
            ("violations", Json::Int(violations as i64)),
        ]),
    );

    if violations == 0 {
        println!(
            "single-fault theorem holds: every fault tolerated, rerouted faults slow down \
             through fault_detour, hidden faults cost nothing"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("faultsweep: {violations} violation(s)");
        ExitCode::FAILURE
    }
}
