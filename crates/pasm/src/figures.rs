//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Each function returns the rows/series the corresponding artifact plots;
//! the `bench` crate's binaries print them (see `report`) and EXPERIMENTS.md
//! records them against the paper's values. All runs use the paper's
//! workload — identity A, seeded uniform-random B — and the same data for
//! every mode at a given (n, p), as in paper §6.

use crate::experiment::{run_kernel_opts, KernelOutcome, Mode, Params, RunOptions};
use crate::metrics::{efficiency, Breakdown};
use crate::sweep::par_map;
use pasm_kernels::matmul::{input_words, Matmul};
use pasm_kernels::Kernel;
use pasm_machine::MachineConfig;
use pasm_prog::codegen::simd_bootstrap;
use pasm_prog::matmul::select_vm;
use pasm_prog::microbench::{self, MipsKind};
use pasm_prog::Matrix;
use pasm_util::impl_to_json;

/// The matrix sizes the paper sweeps (§6).
pub const PAPER_SIZES: [usize; 6] = [4, 8, 16, 64, 128, 256];

/// Default RNG seed for the B matrix.
pub const DEFAULT_SEED: u64 = 1988;

fn sizes_for(p: usize, ns: &[usize]) -> Vec<usize> {
    ns.iter().copied().filter(|&n| n >= p).collect()
}

/// One matmul run over `input` (see [`Matmul::generate`]) with default
/// options: no faults, fast path on.
fn matmul(cfg: &MachineConfig, mode: Mode, params: Params, input: &[u16]) -> KernelOutcome {
    run_kernel_opts(cfg, &Matmul, mode, params, input, &RunOptions::default())
        .unwrap_or_else(|e| panic!("{mode:?} n={} p={}: {e}", params.n, params.p))
}

// ----------------------------------------------------------------------
// Table 1 — raw performance in MIPS
// ----------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub instruction: String,
    pub simd_mips: f64,
    pub mimd_mips: f64,
}

/// Measure the raw instruction rate per mode and instruction class.
pub fn table1(cfg: &MachineConfig) -> Vec<Table1Row> {
    const UNROLL: usize = 64;
    const REPS: usize = 2_000;
    [MipsKind::AddRegister, MipsKind::MoveMemory]
        .into_iter()
        .map(|kind| {
            // MIMD: one PE runs the unrolled loop from its own memory.
            let mut m = pasm_machine::Machine::new(cfg.clone());
            m.load_pe_program(0, microbench::mimd_program(kind, UNROLL, REPS));
            m.start_pe(0, 0);
            let r = m.run().expect("MIPS MIMD run");
            let mimd_mips = mips(r.pe[0].instrs, r.pe[0].finished_at);

            // SIMD: the MC loops, the PE executes the broadcast block.
            let vm = select_vm(cfg, cfg.pes_per_mc());
            let mut m = pasm_machine::Machine::new(cfg.clone());
            for &p in &vm.pes {
                m.load_pe_program(p, simd_bootstrap());
            }
            m.load_mc_program(0, microbench::simd_mc_program(kind, UNROLL, REPS, vm.mask));
            let r = m.run().expect("MIPS SIMD run");
            let simd_mips = mips(r.pe[vm.pes[0]].instrs, r.pe[vm.pes[0]].finished_at);

            Table1Row {
                instruction: kind.name().to_string(),
                simd_mips,
                mimd_mips,
            }
        })
        .collect()
}

fn mips(instrs: u64, cycles: u64) -> f64 {
    let secs = cycles as f64 / pasm_isa::CLOCK_HZ as f64;
    instrs as f64 / secs / 1e6
}

// ----------------------------------------------------------------------
// Figure 6 — execution time vs problem size (p = 8, one multiply)
// ----------------------------------------------------------------------

/// One row of the Figure-6 series.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    pub n: usize,
    pub serial_ms: f64,
    pub simd_ms: f64,
    pub mimd_ms: f64,
    pub smimd_ms: f64,
}

/// Execution time vs n for all four versions.
pub fn fig6(cfg: &MachineConfig, p: usize, ns: &[usize], seed: u64) -> Vec<Fig6Row> {
    let points: Vec<usize> = sizes_for(p, ns);
    par_map(points, |&n| {
        let input = Matmul.generate(n, seed);
        let t = |mode| matmul(cfg, mode, Params::new(n, p), &input).millis();
        Fig6Row {
            n,
            serial_ms: t(Mode::Serial),
            simd_ms: t(Mode::Simd),
            mimd_ms: t(Mode::Mimd),
            smimd_ms: t(Mode::Smimd),
        }
    })
}

// ----------------------------------------------------------------------
// Figure 7 — execution time vs number of added inner-loop multiplies
// ----------------------------------------------------------------------

/// One row of the Figure-7 series.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    pub extra_muls: usize,
    pub simd_ms: f64,
    pub smimd_ms: f64,
}

/// SIMD vs S/MIMD as data-dependent multiplies are added (paper: n=64, p=4,
/// crossover near fourteen added multiplications).
pub fn fig7(cfg: &MachineConfig, n: usize, p: usize, extras: &[usize], seed: u64) -> Vec<Fig7Row> {
    let input = Matmul.generate(n, seed);
    par_map(extras.to_vec(), |&extra| {
        let params = Params::new(n, p).with_extra(extra);
        let t = |mode| matmul(cfg, mode, params, &input).millis();
        Fig7Row {
            extra_muls: extra,
            simd_ms: t(Mode::Simd),
            smimd_ms: t(Mode::Smimd),
        }
    })
}

/// Locate the crossover: the smallest number of added multiplies at which the
/// S/MIMD version is at least as fast as the SIMD version. `None` if SIMD
/// stays ahead over the probed range.
pub fn fig7_crossover(rows: &[Fig7Row]) -> Option<usize> {
    rows.iter()
        .find(|r| r.smimd_ms <= r.simd_ms)
        .map(|r| r.extra_muls)
}

// ----------------------------------------------------------------------
// Figures 8–10 — contributions to execution time
// ----------------------------------------------------------------------

/// One bar of the Figures 8–10 stacked breakdown.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    pub n: usize,
    pub mode: Mode,
    pub extra_muls: usize,
    pub multiply_ms: f64,
    pub communication_ms: f64,
    pub other_ms: f64,
    pub total_ms: f64,
}

/// Breakdown of SIMD and S/MIMD time into multiplication, communication and
/// other, for a given number of added multiplies (1 ⇒ Fig. 8, 14 ⇒ Fig. 9,
/// 30 ⇒ Fig. 10 in the paper's numbering of *total* inner-loop multiplies —
/// pass `extra_muls = total - 1`).
pub fn fig8_10(
    cfg: &MachineConfig,
    p: usize,
    extra_muls: usize,
    ns: &[usize],
    seed: u64,
) -> Vec<BreakdownRow> {
    let mut jobs = Vec::new();
    for &n in &sizes_for(p, ns) {
        for mode in [Mode::Simd, Mode::Smimd] {
            jobs.push((n, mode));
        }
    }
    par_map(jobs, |&(n, mode)| {
        let input = Matmul.generate(n, seed);
        let params = Params::new(n, p).with_extra(extra_muls);
        let br = Breakdown::of(&matmul(cfg, mode, params, &input));
        let ms = |c: u64| pasm_isa::cycles_to_ms(c);
        BreakdownRow {
            n,
            mode,
            extra_muls,
            multiply_ms: ms(br.multiply),
            communication_ms: ms(br.communication),
            other_ms: ms(br.other),
            total_ms: ms(br.total),
        }
    })
}

// ----------------------------------------------------------------------
// Figure 11 — efficiency vs problem size (p = 4, one multiply)
// ----------------------------------------------------------------------

/// One row of the Figure-11 series.
#[derive(Debug, Clone)]
pub struct EffRow {
    pub n: usize,
    pub simd: f64,
    pub mimd: f64,
    pub smimd: f64,
}

/// Efficiency (speed-up over serial divided by p) vs problem size.
pub fn fig11(cfg: &MachineConfig, p: usize, ns: &[usize], seed: u64) -> Vec<EffRow> {
    par_map(sizes_for(p, ns), |&n| {
        let input = Matmul.generate(n, seed);
        let t = |mode| matmul(cfg, mode, Params::new(n, p), &input).cycles;
        let serial = t(Mode::Serial);
        let e = |mode| efficiency(serial, t(mode), p);
        EffRow {
            n,
            simd: e(Mode::Simd),
            mimd: e(Mode::Mimd),
            smimd: e(Mode::Smimd),
        }
    })
}

// ----------------------------------------------------------------------
// Figure 12 — efficiency vs number of processors (n = 64, one multiply)
// ----------------------------------------------------------------------

/// One row of the Figure-12 series.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub p: usize,
    pub simd: f64,
    pub mimd: f64,
    pub smimd: f64,
}

/// Efficiency vs processor count for a fixed n.
pub fn fig12(cfg: &MachineConfig, n: usize, ps: &[usize], seed: u64) -> Vec<Fig12Row> {
    let input = Matmul.generate(n, seed);
    let serial = matmul(cfg, Mode::Serial, Params::new(n, 1), &input).cycles;
    par_map(ps.to_vec(), |&p| {
        let t = |mode| matmul(cfg, mode, Params::new(n, p), &input).cycles;
        let e = |mode| efficiency(serial, t(mode), p);
        Fig12Row {
            p,
            simd: e(Mode::Simd),
            mimd: e(Mode::Mimd),
            smimd: e(Mode::Smimd),
        }
    })
}

// ----------------------------------------------------------------------
// Ablations (ours; design decisions from DESIGN.md §4)
// ----------------------------------------------------------------------

/// Lockstep vs decoupled release at one experiment point.
#[derive(Debug, Clone)]
pub struct AblationReleaseRow {
    pub extra_muls: usize,
    pub lockstep_ms: f64,
    pub decoupled_ms: f64,
}

/// A1: how much of SIMD time is the per-instruction barrier (release-at-max)?
pub fn ablation_release(
    cfg: &MachineConfig,
    n: usize,
    p: usize,
    extras: &[usize],
    seed: u64,
) -> Vec<AblationReleaseRow> {
    let input = Matmul.generate(n, seed);
    par_map(extras.to_vec(), |&extra| {
        let params = Params::new(n, p).with_extra(extra);
        let t = |mode| {
            let cfg = MachineConfig {
                release_mode: mode,
                ..cfg.clone()
            };
            matmul(&cfg, Mode::Simd, params, &input).millis()
        };
        AblationReleaseRow {
            extra_muls: extra,
            lockstep_ms: t(pasm_machine::ReleaseMode::Lockstep),
            decoupled_ms: t(pasm_machine::ReleaseMode::Decoupled),
        }
    })
}

/// SIMD time and queue-empty stalls at one queue capacity.
#[derive(Debug, Clone)]
pub struct AblationQueueRow {
    pub capacity_words: u32,
    pub simd_ms: f64,
    pub empty_stall_cycles: u64,
    pub max_depth_words: u32,
}

/// A2: SIMD superlinearity requires the queue to stay non-empty (paper §10);
/// shrinking it forces the PEs to wait on MC control flow.
pub fn ablation_queue(
    cfg: &MachineConfig,
    n: usize,
    p: usize,
    capacities: &[u32],
    seed: u64,
) -> Vec<AblationQueueRow> {
    let input = Matmul.generate(n, seed);
    par_map(capacities.to_vec(), |&cap| {
        let cfg = MachineConfig {
            queue_capacity_words: cap,
            ..cfg.clone()
        };
        let out = matmul(&cfg, Mode::Simd, Params::new(n, p), &input);
        AblationQueueRow {
            capacity_words: cap,
            simd_ms: out.millis(),
            empty_stall_cycles: out
                .run
                .fu
                .iter()
                .map(|f| f.empty_stall_cycles)
                .max()
                .unwrap_or(0),
            max_depth_words: out
                .run
                .fu
                .iter()
                .map(|f| f.max_depth_words)
                .max()
                .unwrap_or(0),
        }
    })
}

/// Crossover position as a function of multiplier bit-density.
#[derive(Debug, Clone)]
pub struct AblationDensityRow {
    pub ones: u32,
    pub crossover: Option<usize>,
}

/// A3: with bit-density-controlled B data the multiply time is *constant*, so
/// the decoupling advantage should vanish and the crossover disappear;
/// uniform data restores it.
pub fn ablation_density(
    cfg: &MachineConfig,
    n: usize,
    p: usize,
    densities: &[u32],
    extras: &[usize],
    seed: u64,
) -> Vec<AblationDensityRow> {
    par_map(densities.to_vec(), |&ones| {
        let input = input_words(&Matrix::identity(n), &Matrix::bit_density(n, ones, seed));
        let rows: Vec<Fig7Row> = extras
            .iter()
            .map(|&extra| {
                let params = Params::new(n, p).with_extra(extra);
                let t = |mode| matmul(cfg, mode, params, &input).millis();
                Fig7Row {
                    extra_muls: extra,
                    simd_ms: t(Mode::Simd),
                    smimd_ms: t(Mode::Smimd),
                }
            })
            .collect();
        AblationDensityRow {
            ones,
            crossover: fig7_crossover(&rows),
        }
    })
}

impl_to_json!(Table1Row {
    instruction,
    simd_mips,
    mimd_mips
});
impl_to_json!(Fig6Row {
    n,
    serial_ms,
    simd_ms,
    mimd_ms,
    smimd_ms
});
impl_to_json!(Fig7Row {
    extra_muls,
    simd_ms,
    smimd_ms
});
impl_to_json!(BreakdownRow {
    n,
    mode,
    extra_muls,
    multiply_ms,
    communication_ms,
    other_ms,
    total_ms
});
impl_to_json!(EffRow {
    n,
    simd,
    mimd,
    smimd
});
impl_to_json!(Fig12Row {
    p,
    simd,
    mimd,
    smimd
});
impl_to_json!(AblationReleaseRow {
    extra_muls,
    lockstep_ms,
    decoupled_ms
});
impl_to_json!(AblationQueueRow {
    capacity_words,
    simd_ms,
    empty_stall_cycles,
    max_depth_words
});
impl_to_json!(AblationDensityRow { ones, crossover });
