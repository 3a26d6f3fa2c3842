//! The simulation workloads, `sim-lockstep` and `sim-autonomous`: one
//! calling thread runs `pasm::run_keyed` over every cell of the workload,
//! with a fresh input seed per cell per round, until the run time is up.

use crate::cells::{self, Cell, SeedStream, PIN_SEED};
use crate::gate::{self, Pins};
use crate::measure::{self, HostProbe, Samples, Windows};
use crate::trace::{self, Tracer};
use crate::{Args, Report};
use pasm::{ExperimentResult, KernelOutcome, Machine, RunResult};
use pasm_prog::matmul::select_vm;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 3;

/// One finished operation of the untraced loop.
struct Op {
    /// Round (one operation per cell) the operation ran in.
    round: usize,
    /// Host probe time taken just before the operation.
    probe_ms: f64,
    cell: usize,
    seed: u64,
    ms: f64,
    result: Result<ExperimentResult, String>,
}

/// Check each cell's pinned run; returns the failure of every cell whose
/// simulated statistics moved. Doubles as the warm-up round. Probes the
/// host before each cell into `probes`.
fn setup(
    cells: &[Cell],
    pins: &Pins,
    probe: &mut HostProbe,
    probes: &mut Vec<f64>,
) -> BTreeMap<usize, String> {
    let mut bad = BTreeMap::new();
    for (i, cell) in cells.iter().enumerate() {
        probes.push(probe.probe());
        let checked = pasm::run_keyed(&cell.key(PIN_SEED))
            .map_err(|e| format!("{}: {e:?}", cell.label()))
            .and_then(|r| pins.check(cell, &r));
        if let Err(e) = checked {
            bad.insert(i, e);
        }
    }
    bad
}

/// Rounds over every cell until `seconds` have passed (at least one
/// round). Returns the operations and each round's summed operation time
/// in seconds (the host probes between operations are left out).
fn op_loop(cells: &[Cell], seeds: &mut SeedStream, seconds: f64) -> (Vec<Op>, Vec<f64>) {
    let mut ops = Vec::new();
    let mut rounds = Vec::new();
    let mut probe = HostProbe::new();
    let t_loop = Instant::now();
    loop {
        let mut t_round = Duration::ZERO;
        for (i, cell) in cells.iter().enumerate() {
            let probe_ms = probe.probe();
            let seed = seeds.next_seed();
            let key = cell.key(seed);
            let t0 = Instant::now();
            let result = pasm::run_keyed(black_box(&key));
            let elapsed = t0.elapsed();
            t_round += elapsed;
            ops.push(Op {
                round: rounds.len(),
                probe_ms,
                cell: i,
                seed,
                ms: elapsed.as_secs_f64() * 1e3,
                result: result.map_err(|e| format!("{}: {e:?}", cell.label())),
            });
        }
        rounds.push(t_round.as_secs_f64());
        if t_loop.elapsed().as_secs_f64() >= seconds {
            return (ops, rounds);
        }
    }
}

/// The outcome check of one operation, after the loop.
fn check_op(cells: &[Cell], bad: &BTreeMap<usize, String>, op: &Op) -> Result<(), String> {
    if let Some(e) = bad.get(&op.cell) {
        return Err(e.clone());
    }
    let cell = &cells[op.cell];
    let r = op.result.as_ref().map_err(Clone::clone)?;
    gate::check_result(cell, op.seed, r, gate::reference_checksum(cell, op.seed))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cells = cells::cells(args.workload, args.scale);
    let pins = Pins::builtin();
    let mut setup_s = Vec::new();
    let mut bad = BTreeMap::new();
    let mut probe = HostProbe::new();
    for _ in 0..SETUPS {
        let mut probes = Vec::new();
        let t0 = Instant::now();
        bad = setup(&cells, &pins, &mut probe, &mut probes);
        let probe_s = probes.iter().sum::<f64>() / 1e3;
        setup_s.push((t0.elapsed().as_secs_f64() - probe_s) * HostProbe::factor(&probes));
    }
    let mut seeds = SeedStream::new(args.workload, args.seed);
    if args.trace {
        return Ok(traced(args, &cells, &bad, &mut seeds));
    }

    let (ops, rounds) = op_loop(&cells, &mut seeds, args.seconds);
    let mut report = Report::default();
    // Per round: the host probes, operations and simulated PE instructions.
    let mut per_round = vec![(Vec::new(), 0.0, 0.0); rounds.len()];
    for op in &ops {
        let row = &mut per_round[op.round];
        row.0.push(op.probe_ms);
        row.1 += 1.0;
        if let Ok(r) = &op.result {
            row.2 += r.pe_instrs as f64;
        }
        report.op(check_op(&cells, &bad, op));
    }
    let factors: Vec<f64> = per_round.iter().map(|r| HostProbe::factor(&r.0)).collect();
    let (mut lat, mut raw_lat) = (Samples::default(), Samples::default());
    let mut by_cell = vec![Vec::new(); cells.len()];
    for op in &ops {
        lat.push(op.ms * factors[op.round]);
        raw_lat.push(op.ms);
        by_cell[op.cell].push(op.ms * factors[op.round]);
    }
    let gmean = measure::median_gmean(by_cell.iter().map(Vec::as_slice));
    let (mut instrs, mut raw_instrs) = (Windows::default(), Windows::default());
    for ((secs, (_, n, pe_instrs)), f) in rounds.iter().zip(per_round).zip(&factors) {
        instrs.push(secs * f, n, pe_instrs);
        raw_instrs.push(*secs, n, pe_instrs);
    }
    report.metric("setup_s", measure::median(&setup_s), "s");
    report.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
    report.metric("sim_minstr_per_s", instrs.rate() / 1e6, "Minstr/s");
    report.metric("ops_per_s", instrs.count_rate(), "1/s");
    report.metric("op_ms_gmean", gmean, "ms");
    report.metric("op_ms_p90", lat.quantile(0.9), "ms");
    report.samples = vec![
        ("op_ms".into(), lat.len() as u64),
        ("windows".into(), rounds.len() as u64),
        ("setup_s".into(), setup_s.len() as u64),
    ];
    report.details = vec![
        ("host_factor".into(), measure::median(&factors)),
        ("raw_sim_minstr_per_s".into(), raw_instrs.rate() / 1e6),
        ("raw_ops_per_s".into(), raw_instrs.count_rate()),
        ("op_ms_p50".into(), lat.quantile(0.5)),
        ("raw_op_ms_p50".into(), raw_lat.quantile(0.5)),
        ("raw_op_ms_p90".into(), raw_lat.quantile(0.9)),
        ("loop_s".into(), rounds.iter().sum()),
    ];
    Ok(report)
}

/// Per-operation simulator facts the traced path collects.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SimCounts {
    ops: u64,
    pe_instrs: u64,
    mc_instrs: u64,
    sim_cycles: u64,
    net_bytes: u64,
    fu_entries: u64,
    fu_barrier_stalls: u64,
    /// `Machine::run` time with accounting off (the `machine.run` spans
    /// time it with accounting on).
    run_off_ns: u64,
}

impl SimCounts {
    fn add(&mut self, run: &RunResult) {
        self.ops += 1;
        self.pe_instrs += run.pe_instrs();
        self.mc_instrs += run.mc.iter().map(|t| t.instrs).sum::<u64>();
        self.sim_cycles += run.makespan;
        self.net_bytes += run.pe.iter().map(|t| t.net_bytes_sent).sum::<u64>();
        self.fu_entries += run.fu.iter().map(|f| f.entries).sum::<u64>();
        self.fu_barrier_stalls += run.fu.iter().map(|f| f.barrier_stalls).sum::<u64>();
    }

    /// The machine-layer metrics, per operation.
    pub(crate) fn metrics(&self, tracer: &Tracer, values: &mut BTreeMap<&'static str, f64>) {
        let ops = self.ops.max(1) as f64;
        let run = tracer.get("machine.run");
        values.insert("machine.run_ms", run.mean(1e6));
        values.insert(
            "machine.run_ns_per_instr",
            run.total_ns as f64 / (self.pe_instrs + self.mc_instrs).max(1) as f64,
        );
        values.insert("machine.fu_entries", self.fu_entries as f64 / ops);
        values.insert(
            "machine.fu_barrier_stalls",
            self.fu_barrier_stalls as f64 / ops,
        );
        values.insert("machine.pe_instrs", self.pe_instrs as f64 / ops);
        values.insert("machine.mc_instrs", self.mc_instrs as f64 / ops);
        values.insert("machine.sim_cycles", self.sim_cycles as f64 / ops);
        values.insert("net.bytes_sent", self.net_bytes as f64 / ops);
        values.insert("machine.new_ms", tracer.get("machine.new").mean(1e6));
        values.insert(
            "machine.account_overhead",
            run.total_ns as f64 / self.run_off_ns.max(1) as f64 - 1.0,
        );
        values.insert(
            "kernels.generate_ms",
            tracer.get("kernels.generate").mean(1e6),
        );
        values.insert("kernels.load_ms", tracer.get("kernels.load").mean(1e6));
        values.insert(
            "kernels.read_output_ms",
            tracer.get("kernels.read_output").mean(1e6),
        );
        values.insert(
            "experiment.summarize_ms",
            tracer.get("experiment.summarize").mean(1e6),
        );
    }
}

fn load(cell: &Cell, accounting: bool, seed: u64) -> Result<Machine, String> {
    let cfg = cell.config();
    let input = cell.kernel.generate(cell.n, seed);
    let mut machine = Machine::new(cfg.clone());
    machine.set_accounting(accounting);
    let vm = select_vm(&cfg, cell.p);
    cell.kernel
        .load(&mut machine, cell.mode, cell.params(), &vm, &input)
        .map_err(|e| format!("{e:?}"))?;
    Ok(machine)
}

/// The calls `pasm::run_keyed` makes for one fault-free key, each in its
/// own span: generate → `Machine::new` → load → run → read output →
/// summary. Also times `Machine::run` once more with accounting off
/// (outside every span) for `machine.account_overhead`.
pub(crate) fn decomposed(
    t: &mut Tracer,
    counts: &mut SimCounts,
    cell: &Cell,
    seed: u64,
) -> Result<ExperimentResult, String> {
    let cfg = cell.config();
    let (kernel, mode, params) = (cell.kernel, cell.mode, cell.params());
    let (result, run) = t.span("sim.op", |t| -> Result<_, String> {
        let input = t.span("kernels.generate", |_| kernel.generate(cell.n, seed));
        let (mut machine, vm) = t.span("machine.new", |_| {
            let mut m = Machine::new(cfg.clone());
            m.set_accounting(true);
            (m, select_vm(&cfg, cell.p))
        });
        t.span("kernels.load", |_| {
            kernel.load(&mut machine, mode, params, &vm, &input)
        })
        .map_err(|e| format!("{}: {e:?}", cell.label()))?;
        let run = t
            .span("machine.run", |_| machine.run())
            .map_err(|e| format!("{}: {e:?}", cell.label()))?;
        let output = t.span("kernels.read_output", |_| {
            kernel.read_output(&machine, mode, params, &vm)
        });
        Ok(t.span("experiment.summarize", |_| {
            let out = KernelOutcome {
                kernel,
                mode,
                params,
                cycles: run.makespan,
                run,
                output,
            };
            let result = ExperimentResult::from_kernel_outcome(&out, seed);
            black_box(pasm::run_span_log(&out.run));
            if let Some(a) = &out.run.accounts {
                black_box((a.pe_bucket_matrix(), a.mc_bucket_matrix()));
            }
            (result, out.run)
        }))
    })?;
    counts.add(&run);

    let mut machine = load(cell, false, seed)?;
    let t0 = Instant::now();
    black_box(machine.run().map_err(|e| format!("{e:?}"))?);
    counts.run_off_ns += t0.elapsed().as_nanos() as u64;
    Ok(result)
}

/// The traced run: an untraced pass for a third of the time, then the
/// same operations again through [`decomposed`]. `trace.overhead`
/// compares the two passes' mean operation time.
fn traced(
    args: &Args,
    cells: &[Cell],
    bad: &BTreeMap<usize, String>,
    seeds: &mut SeedStream,
) -> Report {
    let (ops, _) = op_loop(cells, seeds, args.seconds / 3.0);
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let mut counts = SimCounts::default();
    let mut plain_ms = 0.0;
    for op in &ops {
        plain_ms += op.ms;
        let cell = &cells[op.cell];
        let traced = decomposed(&mut tracer, &mut counts, cell, op.seed);
        report.op(check_op(cells, bad, op).and_then(|()| {
            let r = traced?;
            let plain = op.result.as_ref().map_err(Clone::clone)?;
            if gate::digest(&r) != gate::digest(plain) || r.c_checksum != plain.c_checksum {
                return Err(format!(
                    "{} seed {}: traced calls disagree with run_keyed",
                    cell.label(),
                    op.seed
                ));
            }
            Ok(())
        }));
    }
    let mut values = BTreeMap::new();
    counts.metrics(&tracer, &mut values);
    values.insert("trace.unattributed_share", tracer.unattributed_share());
    let traced_mean = tracer.get("sim.op").mean(1e6);
    values.insert(
        "trace.overhead",
        traced_mean / (plain_ms / ops.len().max(1) as f64) - 1.0,
    );
    trace::push_per_layer(&mut report, &values);
    report.samples = vec![("sim.op".into(), ops.len() as u64)];
    trace::finish(args, &tracer, &mut report);
    report
}
