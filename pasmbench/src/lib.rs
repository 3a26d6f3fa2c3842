//! `pasmbench` — the repository benchmark.
//!
//! Three workloads, each of which gives one layer most of the work and
//! another layer almost none (see `pasmbench/README.md` for why each exists
//! and which layer metric should move which end-to-end metric):
//!
//! * `sim-lockstep` — SIMD `pasm::run_keyed` calls: Fetch-Unit barrier and
//!   scheduler bound, the block fast path bypassed;
//! * `sim-autonomous` — the same cells in MIMD and S/MIMD: block fast path,
//!   DRAM burst timing and accounting bound, the Fetch Unit idle;
//! * `serve-mixed` — an in-process durable `pasm_server::Server`: HTTP,
//!   protocol, cache, durable appends and span-store reads bound, the
//!   simulator nearly idle.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced
//! run (`--trace 1`) times the calls into each crate's public functions from
//! outside and reports the per-layer metrics. Every run checks every
//! operation's output (see [`gate`]).

pub mod cells;
pub mod gate;
pub mod measure;
pub mod serve;
pub mod sim;
pub mod trace;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimLockstep,
    SimAutonomous,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SimLockstep,
        Workload::SimAutonomous,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SimLockstep => "sim-lockstep",
            Workload::SimAutonomous => "sim-autonomous",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Problem sizes: `Full` is what the benchmark measures; `Tiny` shrinks
/// every cell so the smoke tests finish in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    /// Workload seed: the same seed gives the same operation inputs.
    pub seed: u64,
    /// Measured duration of the operation loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    pub scale: Scale,
    /// Directory for result documents, span dumps and server data dirs.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced: the result line plus the extra facts
/// (per-class percentiles with sample counts, self-time table) that go
/// only into the result document.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Messages of the first few failed checks (for the result document).
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Named samples behind each percentile: `(name, count)`.
    pub samples: Vec<(String, u64)>,
    /// Further workload-specific facts for the result document.
    pub details: Vec<(String, f64)>,
}

impl Report {
    /// Record one operation's outcome.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// True when every operation passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }
}

/// Run one benchmark invocation.
pub fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    match args.workload {
        Workload::SimLockstep | Workload::SimAutonomous => sim::run(args),
        Workload::ServeMixed => serve::run(args),
    }
}
