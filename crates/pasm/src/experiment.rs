//! End-to-end experiment execution: place registered kernels on virtual
//! machines of one simulated PASM, run them, and collect each placement's
//! output and timing traces.

use pasm_kernels::Kernel;
use pasm_machine::{
    FaultPlan, Machine, MachineConfig, RunError, RunResult, BUCKET_NAMES, N_BUCKETS,
};
use pasm_prog::matmul::{select_vm, select_vm_on_mcs, MatmulParams};
use pasm_prog::VirtualMachine;
use pasm_util::json::{Json, ToJson};
use pasm_util::{Fnv1a, SpanLog};
use std::hash::{Hash, Hasher};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// The four program variants of the paper (defined next to the program
/// generators; re-exported here where the experiment API lives).
pub use pasm_prog::Mode;

/// Re-export of the workload registry: the named kernels an
/// [`ExperimentKey`] can select via its `workload` field.
pub use pasm_kernels::{self as kernels, MATMUL};

/// Convert a run's recorded phase spans into a named [`SpanLog`]: sources are
/// `pe<i>` / `mc<i>`, names come from [`pasm_prog::codegen::phase_name`].
/// Empty when the result carries no accounts (see
/// [`pasm_machine::Machine::set_accounting`]).
pub fn run_span_log(run: &RunResult) -> SpanLog {
    let mut log = SpanLog::new();
    let Some(accounts) = &run.accounts else {
        return log;
    };
    for (i, acc) in accounts.pe.iter().enumerate() {
        for s in &acc.spans {
            log.record(
                &format!("pe{i}"),
                pasm_prog::codegen::phase_name(s.phase),
                s.start,
                s.end,
            );
        }
    }
    for (i, acc) in accounts.mc.iter().enumerate() {
        for s in &acc.spans {
            log.record(
                &format!("mc{i}"),
                pasm_prog::codegen::phase_name(s.phase),
                s.start,
                s.end,
            );
        }
    }
    log
}

/// Everything a run can be parameterized with beyond what runs where:
/// injected faults, an external interrupt flag for cancellation/watchdog
/// use, and the fast-path toggle.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Faults to inject before circuits are established (default none).
    pub fault: FaultPlan,
    /// Cooperative stop flag, polled by the scheduler; setting it makes the
    /// run end with [`RunError::Interrupted`].
    pub interrupt: Option<Arc<AtomicBool>>,
    /// Use the fast path (default on). Turning it off forces
    /// the per-instruction interpreter; results are byte-identical either
    /// way (gated by the fast-vs-interpreter equivalence tests) — the toggle
    /// exists for that gate and for the `blockbench` comparison.
    pub fast_path: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            fault: FaultPlan::default(),
            interrupt: None,
            fast_path: true,
        }
    }
}

/// One registered kernel on one virtual machine: the unit of work of
/// [`run_placements`].
#[derive(Clone)]
pub struct Placement {
    /// The registry entry to run.
    pub kernel: &'static dyn Kernel,
    pub mode: Mode,
    pub params: MatmulParams,
    /// MCs (and thus PE groups) the virtual machine occupies; `None` takes
    /// [`select_vm`]'s spread placement.
    pub mcs: Option<Vec<usize>>,
    /// Input words in the layout of the kernel's [`Kernel::generate`].
    pub input: Vec<u16>,
}

/// Largest `extra_muls` a run may ask for. The program generators emit
/// `3 + extra_muls` instructions per inner-loop body before any deadline
/// can act, so an unbounded value would let one request exhaust the host's
/// memory; the paper sweeps 0–30.
pub const MAX_EXTRA_MULS: usize = 1024;

/// Largest Fetch Unit queue a key may configure, in words: a run's queue
/// can grow to this size in host memory.
const MAX_QUEUE_WORDS: u32 = 1 << 20;

/// The checks of [`ExperimentKey::validate`] that a placement has the
/// inputs for; [`run_placements`] asserts them.
fn check_run(
    cfg: &MachineConfig,
    kernel: &dyn Kernel,
    mode: Mode,
    params: MatmulParams,
) -> Result<(), String> {
    let MatmulParams { n, p, extra_muls } = params;
    if !p.is_power_of_two() || p > cfg.n_pes {
        return Err(format!(
            "p must be a power of two at most n_pes (= {}), got {p}",
            cfg.n_pes
        ));
    }
    if extra_muls > MAX_EXTRA_MULS {
        return Err(format!(
            "extra_muls must be at most {MAX_EXTRA_MULS}, got {extra_muls}"
        ));
    }
    if mode != Mode::Serial {
        kernel.validate(n, p)?;
    }
    let bytes = kernel.footprint(mode, params)?;
    if bytes > cfg.pe_mem_bytes {
        return Err(format!(
            "{} {mode} n={n} p={p} needs {bytes:#X} bytes per PE, a PE has {:#X}",
            kernel.name(),
            cfg.pe_mem_bytes
        ));
    }
    Ok(())
}

/// Check a placement and choose its virtual machine (panics as
/// [`run_placements`] documents).
fn virtual_machine(cfg: &MachineConfig, pl: &Placement) -> VirtualMachine {
    if let Err(e) = check_run(cfg, pl.kernel, pl.mode, pl.params) {
        panic!("invalid placement: {e}");
    }
    let p = if pl.mode == Mode::Serial {
        1
    } else {
        pl.params.p
    };
    match &pl.mcs {
        Some(mcs) => select_vm_on_mcs(cfg, p, mcs),
        None => select_vm(cfg, p),
    }
}

/// Run placements **simultaneously** on disjoint virtual machines of one
/// physical machine — PASM's partitionability (the first letter of its
/// name). A single job is one placement.
///
/// Faults are applied **before** circuit establishment, so the network
/// reconfigures (bypass/enable the two cube₀ stages) and the ring allocator
/// routes around the damage; PE fault models attach to the affected PEs.
///
/// Placements must name disjoint MC sets. Because partition members agree in
/// the low-order PE-address bits, concurrent ring circuits share low-stage
/// boxes only in straight mode and are disjoint elsewhere, so partitions
/// neither block nor slow each other (asserted by the integration tests).
/// Each outcome's `cycles` is the latest finish among its own PEs and MCs;
/// every outcome carries the whole machine's traces.
///
/// Panics on a placement [`ExperimentKey::validate`] would reject, on an MC
/// id out of range, or on an MC claimed twice — validate at the boundary
/// first.
pub fn run_placements(
    cfg: &MachineConfig,
    placements: &[Placement],
    opts: &RunOptions,
) -> Result<Vec<KernelOutcome>, RunError> {
    let vms: Vec<VirtualMachine> = placements
        .iter()
        .map(|pl| virtual_machine(cfg, pl))
        .collect();
    let mut claimed = vec![false; cfg.n_mcs];
    for &mc in vms.iter().flat_map(|vm| &vm.mcs) {
        assert!(
            !std::mem::replace(&mut claimed[mc], true),
            "MC {mc} claimed by two placements"
        );
    }
    let mut machine = Machine::new(cfg.clone());
    machine.set_fast_path(opts.fast_path);
    machine
        .apply_fault_plan(&opts.fault)
        .map_err(RunError::Net)?;
    if let Some(flag) = &opts.interrupt {
        machine.set_interrupt(Arc::clone(flag));
    }
    for (pl, vm) in placements.iter().zip(&vms) {
        pl.kernel
            .load(&mut machine, pl.mode, pl.params, vm, &pl.input)?;
    }
    let run = machine.run()?;
    Ok(placements
        .iter()
        .zip(&vms)
        .zip(std::iter::repeat_n(run, placements.len()))
        .map(|((pl, vm), run)| KernelOutcome {
            kernel: pl.kernel,
            mode: pl.mode,
            params: pl.params,
            cycles: vm
                .pes
                .iter()
                .map(|&pe| run.pe[pe].finished_at)
                .chain(vm.mcs.iter().map(|&mc| run.mc[mc].finished_at))
                .max()
                .unwrap_or(0),
            output: pl.kernel.read_output(&machine, pl.mode, pl.params, vm),
            run,
        })
        .collect())
}

/// The identity of one simulation: everything that determines its outcome.
///
/// Two runs with equal descriptors produce byte-identical results (the
/// simulator is deterministic), which is what makes result caching sound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentKey {
    pub config: MachineConfig,
    pub mode: Mode,
    pub params: MatmulParams,
    /// Seed of the workload's input generator (for matmul: identity A,
    /// seeded uniform B).
    pub seed: u64,
    /// Faults injected into the machine before the run (part of the identity:
    /// a degraded network yields different — still correct — timings).
    pub fault: FaultPlan,
    /// Registered kernel this key runs (see [`pasm_kernels::kernels`]).
    /// Defaults to [`MATMUL`], the paper's workload.
    pub workload: &'static str,
}

/// Hashed manually so that `workload == "matmul"` keys hash exactly as the
/// pre-registry five-field keys did: the original field order, with the
/// workload appended only when it deviates from the default. Existing
/// on-disk cache fingerprints therefore stay valid.
impl Hash for ExperimentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.config.hash(state);
        self.mode.hash(state);
        self.params.hash(state);
        self.seed.hash(state);
        self.fault.hash(state);
        if self.workload != MATMUL {
            self.workload.hash(state);
        }
    }
}

impl ExperimentKey {
    /// Stable 64-bit content fingerprint (FNV-1a over `Hash`), identical
    /// across processes — usable as a durable cache-entry name.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.hash(&mut h);
        h.finish()
    }

    /// The registry entry of this key's workload; `None` if the name is
    /// unknown (callers validate at the boundary, so runners treat that as
    /// a programming error).
    pub fn kernel(&self) -> Option<&'static dyn Kernel> {
        pasm_kernels::find(self.workload)
    }

    /// Whether this key can run: the one check the HTTP protocol, `pasm-run`
    /// and [`run_placements`] share. It rejects a machine config
    /// [`MachineConfig::validate`] refuses, an unregistered workload, a
    /// `p` that is not a power of two within the machine, `extra_muls` above
    /// [`MAX_EXTRA_MULS`], `(n, p)` the kernel's [`Kernel::validate`]
    /// refuses, a mode or size its [`Kernel::footprint`] refuses or that
    /// overflows a PE's memory, a fault plan naming parts the machine lacks,
    /// and a Fetch Unit queue above 1048576 words. A key it accepts loads
    /// without a panic.
    pub fn validate(&self) -> Result<(), String> {
        self.config.validate()?;
        let kernel = self.kernel().ok_or_else(|| {
            format!(
                "unknown workload `{}` (registered: {})",
                self.workload,
                pasm_kernels::names().join(", ")
            )
        })?;
        let queue = self.config.queue_capacity_words;
        if queue > MAX_QUEUE_WORDS {
            return Err(format!(
                "queue_capacity_words must be at most {MAX_QUEUE_WORDS}, got {queue}"
            ));
        }
        check_run(&self.config, kernel, self.mode, self.params)?;
        self.fault
            .validate(self.config.n_pes)
            .map_err(|e| format!("fault: {e}"))
    }
}

/// A compact, serializable summary of a completed run — what the simulation
/// service stores, caches, and returns (the full [`RunResult`] traces stay
/// host-side; megabyte matrices are reduced to a checksum).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Registered kernel the run executed (`"matmul"` for the paper workload).
    pub workload: &'static str,
    pub mode: Mode,
    pub n: usize,
    pub p: usize,
    pub extra_muls: usize,
    pub seed: u64,
    /// Simulated makespan in cycles.
    pub cycles: u64,
    /// Simulated execution time on the 8 MHz prototype clock.
    pub millis: f64,
    /// Phase breakdown in cycles (Figures 8–10 decomposition): the kernel's
    /// dominant compute span and its communication span (see
    /// [`Kernel::phases`]).
    pub multiply_cycles: u64,
    pub communication_cycles: u64,
    /// Instructions executed across all PEs.
    pub pe_instrs: u64,
    /// Cycle buckets summed over all PEs, indexed like
    /// [`pasm_machine::BUCKET_NAMES`] (all zero if the run carried no
    /// accounts).
    pub pe_buckets: [u64; N_BUCKETS],
    /// FNV-1a fingerprint of the output words (for matmul: the row-major
    /// product matrix).
    pub c_checksum: u64,
    /// Spelling of the injected fault plan (empty when fault-free).
    pub fault: String,
    /// Makespan of the fault-free run of the same key, when a fault was
    /// injected and a baseline was measured alongside (0 otherwise).
    pub baseline_cycles: u64,
    /// `cycles / baseline_cycles` — measured degradation from the fault
    /// (1.0 when fault-free or no baseline was run).
    pub slowdown: f64,
}

impl ToJson for ExperimentResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.to_string())),
            ("mode", self.mode.to_json()),
            ("n", self.n.to_json()),
            ("p", self.p.to_json()),
            ("extra_muls", self.extra_muls.to_json()),
            ("seed", self.seed.to_json()),
            ("cycles", self.cycles.to_json()),
            ("millis", self.millis.to_json()),
            ("multiply_cycles", self.multiply_cycles.to_json()),
            ("communication_cycles", self.communication_cycles.to_json()),
            ("pe_instrs", self.pe_instrs.to_json()),
            (
                "cycle_buckets",
                Json::obj(
                    BUCKET_NAMES
                        .iter()
                        .zip(self.pe_buckets.iter())
                        .map(|(name, v)| (*name, v.to_json()))
                        .collect(),
                ),
            ),
            // Full-range u64: as hex text, since JSON numbers are i64/f64.
            ("c_checksum", Json::Str(format!("{:016x}", self.c_checksum))),
            ("fault", Json::Str(self.fault.clone())),
            ("baseline_cycles", self.baseline_cycles.to_json()),
            ("slowdown", self.slowdown.to_json()),
        ])
    }
}

impl ExperimentResult {
    /// Parse the [`ToJson`] form back into a result — the inverse the durable
    /// result store needs to replay cache entries across restarts.
    ///
    /// Strict on everything that matters for integrity: the workload must be
    /// a registered kernel, the mode must parse, numeric fields must be
    /// present with the right signs, and the checksum must be the fixed-width
    /// hex the writer emits. Unknown cycle-bucket names are rejected (a
    /// record written by a different bucket layout must not be half-read).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        fn req<'a>(v: &'a Json, name: &str) -> Result<&'a Json, String> {
            v.get(name).ok_or_else(|| format!("missing `{name}`"))
        }
        fn req_u64(v: &Json, name: &str) -> Result<u64, String> {
            req(v, name)?
                .as_u64()
                .ok_or_else(|| format!("`{name}` must be a non-negative integer"))
        }
        fn req_usize(v: &Json, name: &str) -> Result<usize, String> {
            req(v, name)?
                .as_usize()
                .ok_or_else(|| format!("`{name}` must be a non-negative integer"))
        }
        fn req_f64(v: &Json, name: &str) -> Result<f64, String> {
            req(v, name)?
                .as_f64()
                .ok_or_else(|| format!("`{name}` must be a number"))
        }

        let workload_name = req(v, "workload")?
            .as_str()
            .ok_or("`workload` must be a string")?;
        let workload = kernels::find(workload_name)
            .map(|k| k.name())
            .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
        let mode_str = req(v, "mode")?.as_str().ok_or("`mode` must be a string")?;
        let mode = Mode::parse(mode_str).ok_or_else(|| format!("unknown mode `{mode_str}`"))?;

        let buckets_obj = req(v, "cycle_buckets")?;
        let Json::Obj(members) = buckets_obj else {
            return Err("`cycle_buckets` must be an object".to_string());
        };
        let mut pe_buckets = [0u64; N_BUCKETS];
        for (name, value) in members {
            let idx = BUCKET_NAMES
                .iter()
                .position(|b| b == name)
                .ok_or_else(|| format!("unknown cycle bucket `{name}`"))?;
            pe_buckets[idx] = value
                .as_u64()
                .ok_or_else(|| format!("bucket `{name}` must be a non-negative integer"))?;
        }

        let checksum_hex = req(v, "c_checksum")?
            .as_str()
            .ok_or("`c_checksum` must be a hex string")?;
        if checksum_hex.len() != 16 {
            return Err("`c_checksum` must be 16 hex digits".to_string());
        }
        let c_checksum = u64::from_str_radix(checksum_hex, 16)
            .map_err(|_| "`c_checksum` must be 16 hex digits".to_string())?;

        Ok(ExperimentResult {
            workload,
            mode,
            n: req_usize(v, "n")?,
            p: req_usize(v, "p")?,
            extra_muls: req_usize(v, "extra_muls")?,
            seed: req_u64(v, "seed")?,
            cycles: req_u64(v, "cycles")?,
            millis: req_f64(v, "millis")?,
            multiply_cycles: req_u64(v, "multiply_cycles")?,
            communication_cycles: req_u64(v, "communication_cycles")?,
            pe_instrs: req_u64(v, "pe_instrs")?,
            pe_buckets,
            c_checksum,
            fault: req(v, "fault")?
                .as_str()
                .ok_or("`fault` must be a string")?
                .to_string(),
            baseline_cycles: req_u64(v, "baseline_cycles")?,
            slowdown: req_f64(v, "slowdown")?,
        })
    }

    /// Summarize a finished registered-kernel run: phase cycles come from the
    /// kernel's declared compute/comm spans, the checksum from its output
    /// words.
    pub fn from_kernel_outcome(out: &KernelOutcome, seed: u64) -> Self {
        let (compute, comm) = out.kernel.phases();
        ExperimentResult {
            workload: out.kernel.name(),
            mode: out.mode,
            n: out.params.n,
            p: out.params.p,
            extra_muls: out.params.extra_muls,
            seed,
            cycles: out.cycles,
            millis: pasm_isa::cycles_to_ms(out.cycles),
            multiply_cycles: out.run.phase_max(compute as usize),
            communication_cycles: out.run.phase_max(comm as usize),
            pe_instrs: out.run.pe.iter().map(|t| t.instrs).sum(),
            pe_buckets: out
                .run
                .accounts
                .as_ref()
                .map(|a| a.pe_bucket_totals())
                .unwrap_or([0; N_BUCKETS]),
            c_checksum: pasm_kernels::checksum(&out.output),
            fault: String::new(),
            baseline_cycles: 0,
            slowdown: 1.0,
        }
    }
}

/// A completed placement of a registered kernel.
#[derive(Clone)]
pub struct KernelOutcome {
    /// The registry entry that ran.
    pub kernel: &'static dyn Kernel,
    pub mode: Mode,
    pub params: MatmulParams,
    /// Completion time: the latest finish among the placement's own PEs and
    /// MCs (the makespan when it ran alone).
    pub cycles: u64,
    /// Full machine traces.
    pub run: RunResult,
    /// Output words, in the kernel's reference layout.
    pub output: Vec<u16>,
}

impl std::fmt::Debug for KernelOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelOutcome")
            .field("kernel", &self.kernel.name())
            .field("mode", &self.mode)
            .field("params", &self.params)
            .field("cycles", &self.cycles)
            .field("output_words", &self.output.len())
            .finish()
    }
}

impl KernelOutcome {
    /// Execution time in milliseconds on the 8 MHz prototype clock.
    pub fn millis(&self) -> f64 {
        pasm_isa::cycles_to_ms(self.cycles)
    }

    /// The run's phase spans as a named [`SpanLog`] (see [`run_span_log`]).
    pub fn span_log(&self) -> SpanLog {
        run_span_log(&self.run)
    }

    /// Check the output against the kernel's scalar reference for `input`.
    pub fn verify(&self, input: &[u16]) -> Result<(), String> {
        pasm_kernels::verify(self.kernel, self.params, input, &self.output)
    }
}

/// Run one registered kernel end to end on [`select_vm`]'s virtual machine:
/// the one-placement case of [`run_placements`].
///
/// `input` must come from [`Kernel::generate`] (or obey the same layout).
pub fn run_kernel_opts(
    cfg: &MachineConfig,
    kernel: &'static dyn Kernel,
    mode: Mode,
    params: MatmulParams,
    input: &[u16],
    opts: &RunOptions,
) -> Result<KernelOutcome, RunError> {
    let placement = Placement {
        kernel,
        mode,
        params,
        mcs: None,
        input: input.to_vec(),
    };
    run_placements(cfg, std::slice::from_ref(&placement), opts)
        .map(|mut outs| outs.pop().expect("one outcome per placement"))
}

/// Run the experiment a key describes: the end-to-end unit of work of the
/// `pasm-server` simulation service. The key's `workload` selects the
/// registered kernel (the default, [`MATMUL`], runs the paper workload);
/// the input is generated from the key's seed.
///
/// When the key carries a fault plan, the fault-free run of the same key is
/// measured alongside and the result reports the fault spelling, the
/// baseline makespan, and the measured slowdown.
pub fn run_keyed(key: &ExperimentKey) -> Result<ExperimentResult, RunError> {
    run_keyed_traced(key, None).map(|t| t.result)
}

/// A keyed run's summary plus the full timing payload the cross-run span
/// store ingests: the named phase spans and the unsummed per-PE / per-MC
/// cycle-bucket matrices of the *primary* run (the baseline run of a faulted
/// key contributes only `baseline_cycles`, never its traces).
#[derive(Debug, Clone)]
pub struct ExperimentTrace {
    pub result: ExperimentResult,
    /// Phase spans (`pe<i>`/`mc<i>` sources; empty without accounts).
    pub spans: SpanLog,
    /// Per-PE bucket rows, `pe_buckets[pe][bucket]` per [`BUCKET_NAMES`].
    pub pe_buckets: Vec<[u64; N_BUCKETS]>,
    /// Per-MC bucket rows, `mc_buckets[mc][bucket]`.
    pub mc_buckets: Vec<[u64; N_BUCKETS]>,
}

/// [`run_keyed`], keeping the timing traces the summary throws away, with a
/// cooperative stop flag (cancellation, watchdog) that covers the baseline
/// run too, so a deadline bounds the whole job. This is the server's job
/// runner: the result feeds the cache and the trace feeds the query tier,
/// from one simulation.
pub fn run_keyed_traced(
    key: &ExperimentKey,
    interrupt: Option<Arc<AtomicBool>>,
) -> Result<ExperimentTrace, RunError> {
    let kernel = key.kernel().unwrap_or_else(|| {
        panic!(
            "unknown workload {:?} (validate at the boundary)",
            key.workload
        )
    });
    let placement = [Placement {
        kernel,
        mode: key.mode,
        params: key.params,
        mcs: None,
        input: kernel.generate(key.params.n, key.seed),
    }];
    let run = |fault: &FaultPlan| {
        let opts = RunOptions {
            fault: fault.clone(),
            interrupt: interrupt.clone(),
            ..RunOptions::default()
        };
        run_placements(&key.config, &placement, &opts)
            .map(|mut outs| outs.pop().expect("one outcome per placement"))
    };
    let out = run(&key.fault)?;
    let mut result = ExperimentResult::from_kernel_outcome(&out, key.seed);
    if !key.fault.is_empty() {
        result.fault = key.fault.to_string();
        result.baseline_cycles = run(&FaultPlan::default())?.cycles;
        if result.baseline_cycles > 0 {
            result.slowdown = result.cycles as f64 / result.baseline_cycles as f64;
        }
    }
    let spans = run_span_log(&out.run);
    let (pe_buckets, mc_buckets) = out
        .run
        .accounts
        .as_ref()
        .map(|a| (a.pe_bucket_matrix(), a.mc_bucket_matrix()))
        .unwrap_or_default();
    Ok(ExperimentTrace {
        result,
        spans,
        pe_buckets,
        mc_buckets,
    })
}

/// Re-export for callers constructing parameter sets.
pub use pasm_prog::matmul::MatmulParams as Params;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_result_round_trips_through_json() {
        let mut buckets = [0u64; N_BUCKETS];
        for (i, b) in buckets.iter_mut().enumerate() {
            *b = (i as u64 + 1) * 17;
        }
        let original = ExperimentResult {
            workload: "bitonic",
            mode: Mode::Smimd,
            n: 64,
            p: 8,
            extra_muls: 3,
            seed: 1988,
            cycles: 123_456_789,
            millis: 15.432_099_875,
            multiply_cycles: 42_000,
            communication_cycles: 17_500,
            pe_instrs: 987_654,
            pe_buckets: buckets,
            c_checksum: 0xDEAD_BEEF_0BAD_F00D,
            fault: "box:1:0".to_string(),
            baseline_cycles: 100_000_000,
            slowdown: 1.234_567,
        };
        let parsed = ExperimentResult::from_json(&original.to_json()).expect("round trip");
        assert_eq!(parsed, original);
        // The re-serialized form is byte-identical — the property the durable
        // store's "no corrupt result served" guarantee builds on.
        assert_eq!(parsed.to_json().dump(), original.to_json().dump());
    }

    #[test]
    fn traced_run_matches_the_summary_and_carries_the_breakdowns() {
        let key = ExperimentKey {
            config: MachineConfig::small(),
            mode: Mode::Simd,
            params: Params::new(4, 4),
            seed: 7,
            fault: FaultPlan::default(),
            workload: MATMUL,
        };
        let trace = run_keyed_traced(&key, None).unwrap();
        assert_eq!(trace.result, run_keyed(&key).unwrap());
        assert!(!trace.spans.is_empty(), "accounting is on by default");
        assert!(!trace.mc_buckets.is_empty());
        // Summing the per-PE rows reproduces the summary's bucket totals —
        // the invariant that makes the stored matrices trustworthy.
        let mut summed = [0u64; N_BUCKETS];
        for row in &trace.pe_buckets {
            for (o, v) in summed.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        assert_eq!(summed, trace.result.pe_buckets);
    }

    /// Keys of every workload, both presets, a fault and a non-default
    /// release mode: their fingerprints name durable cache entries, so they
    /// must not move.
    fn pinned_keys() -> Vec<ExperimentKey> {
        let key =
            |config: MachineConfig, mode, params, seed, fault: &str, workload| ExperimentKey {
                config,
                mode,
                params,
                seed,
                fault: FaultPlan::parse(fault).unwrap(),
                workload,
            };
        let prototype = MachineConfig::prototype;
        let mut decoupled = prototype();
        decoupled.release_mode = pasm_machine::ReleaseMode::Decoupled;
        let mut faulted = prototype();
        faulted.max_cycles = 50_000_000;
        vec![
            key(
                prototype(),
                Mode::Simd,
                Params::new(64, 4),
                1988,
                "",
                MATMUL,
            ),
            key(
                prototype(),
                Mode::Serial,
                Params::new(64, 1),
                1988,
                "",
                MATMUL,
            ),
            key(
                faulted,
                Mode::Smimd,
                Params {
                    n: 16,
                    p: 8,
                    extra_muls: 14,
                },
                7,
                "box:1:0,dead:3",
                MATMUL,
            ),
            key(
                prototype(),
                Mode::Mimd,
                Params::new(32, 4),
                1988,
                "",
                "smooth",
            ),
            key(
                MachineConfig::small(),
                Mode::Simd,
                Params::new(64, 2),
                3,
                "",
                "reduce",
            ),
            key(
                decoupled,
                Mode::Smimd,
                Params::new(64, 4),
                1988,
                "",
                "bitonic",
            ),
        ]
    }

    #[test]
    fn fingerprints_of_existing_keys_are_pinned() {
        let got: Vec<u64> = pinned_keys()
            .iter()
            .map(ExperimentKey::fingerprint)
            .collect();
        assert_eq!(got, PINNED_FINGERPRINTS);
    }

    #[test]
    fn existing_keys_still_validate() {
        for key in pinned_keys() {
            assert_eq!(key.validate(), Ok(()), "{key:?}");
        }
    }

    /// Keys whose machine config cannot be built are refused by the check,
    /// not by a panic in `Machine::new`: 12 PEs is no power of two, 32 PEs
    /// per MC overflow the Fetch Unit's 16-bit masks, and zero MCs control
    /// no PE.
    #[test]
    fn keys_with_unbuildable_configs_are_rejected() {
        let small = MachineConfig::small();
        for (config, want) in [
            (
                MachineConfig {
                    n_pes: 12,
                    ..small.clone()
                },
                "power of two",
            ),
            (
                MachineConfig {
                    n_pes: 64,
                    n_mcs: 2,
                    ..small.clone()
                },
                "at most 16 PEs",
            ),
            (MachineConfig { n_mcs: 0, ..small }, "n_mcs must divide"),
        ] {
            let key = ExperimentKey {
                config,
                mode: Mode::Simd,
                params: Params::new(4, 4),
                seed: 7,
                fault: FaultPlan::default(),
                workload: MATMUL,
            };
            let verdict = std::panic::catch_unwind(|| key.validate());
            let err = verdict.expect("no panic").expect_err("rejected");
            assert!(err.contains(want), "{want}: {err}");
        }
    }

    const PINNED_FINGERPRINTS: [u64; 6] = [
        0xecf9_bfec_e7b4_b186,
        0xadba_2810_65c4_049a,
        0x3a9e_fbcc_9838_123a,
        0x8397_1b28_1aaa_4cc4,
        0x91e8_a839_b062_7031,
        0xf469_ddb5_9526_8e46,
    ];

    #[test]
    fn experiment_result_from_json_rejects_damage() {
        let good = run_keyed(&ExperimentKey {
            config: MachineConfig::small(),
            mode: Mode::Simd,
            params: Params::new(4, 4),
            seed: 7,
            fault: FaultPlan::default(),
            workload: MATMUL,
        })
        .unwrap()
        .to_json();
        assert!(ExperimentResult::from_json(&good).is_ok());
        for (mutate, why) in [
            (("workload", Json::Str("warp".into())), "unknown workload"),
            (("mode", Json::Str("warp".into())), "unknown mode"),
            (("cycles", Json::Int(-1)), "negative cycles"),
            (("c_checksum", Json::Str("xyz".into())), "bad checksum hex"),
            (
                ("cycle_buckets", Json::obj(vec![("warp", Json::Int(1))])),
                "unknown bucket",
            ),
        ] {
            let Json::Obj(mut members) = good.clone() else {
                unreachable!()
            };
            for (k, v) in members.iter_mut() {
                if k == mutate.0 {
                    *v = mutate.1.clone();
                }
            }
            assert!(
                ExperimentResult::from_json(&Json::Obj(members)).is_err(),
                "{why}"
            );
        }
        assert!(ExperimentResult::from_json(&Json::obj(vec![])).is_err());
    }
}
