//! # pasm — reproduction of *Non-Deterministic Instruction Time Experiments
//! on the PASM System Prototype* (Fineberg, Casavant, Schwederski, Siegel;
//! ICPP 1988)
//!
//! This crate is the public face of the reproduction: it wires the simulated
//! prototype (`pasm-machine`), the experiment programs (`pasm-prog`) and the
//! measurement machinery together.
//!
//! ```no_run
//! use pasm::{kernels, run_kernel_opts, Kernel, MachineConfig, Mode, Params, RunOptions};
//!
//! let cfg = MachineConfig::prototype();
//! let matmul = kernels::find(pasm::MATMUL).unwrap();
//! let input = matmul.generate(64, 1); // identity A, then uniform B
//! let params = Params::new(64, 4);
//! let out = run_kernel_opts(&cfg, matmul, Mode::Smimd, params, &input, &RunOptions::default())
//!     .unwrap();
//! out.verify(&input).unwrap();
//! println!("S/MIMD n=64 p=4: {:.2} ms", out.millis());
//! ```
//!
//! * [`experiment`] — run registered kernels end to end, one or several
//!   side by side on disjoint partitions ([`run_placements`]),
//! * [`metrics`] — speed-up, efficiency, and phase breakdowns,
//! * [`figures`] — regenerate the data behind every table and figure of the
//!   paper's evaluation (Table 1, Figures 6–12),
//! * [`report`] — plain-text rendering of those tables,
//! * [`sweep`] — an ordered parallel map for running independent
//!   simulations side by side on the host.

pub mod experiment;
pub mod figures;
pub mod metrics;
pub mod report;
pub mod sweep;

pub use experiment::{
    run_kernel_opts, run_keyed, run_keyed_traced, run_placements, run_span_log, ExperimentKey,
    ExperimentResult, ExperimentTrace, KernelOutcome, Mode, Params, Placement, RunOptions, MATMUL,
    MAX_EXTRA_MULS,
};
pub use metrics::{efficiency, speedup, Breakdown};
pub use pasm_kernels::{self as kernels, Kernel};
pub use pasm_machine::{
    single_faults, FaultPlan, Machine, MachineConfig, NetFault, PeFault, PeFaultSpec, ReleaseMode,
    RunResult,
};
pub use pasm_prog::{CommSync, Matrix};
pub use sweep::par_map;
