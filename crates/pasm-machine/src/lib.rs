//! # pasm-machine — discrete-event simulator of the PASM prototype
//!
//! This crate ties the instruction set (`pasm-isa`), memory system
//! (`pasm-mem`) and interconnection network (`pasm-net`) into a running
//! machine: N processing elements and Q micro controllers, each an
//! MC68000-style CPU with its own cycle clock, coupled through
//!
//! * the **Fetch Unit** of each MC — mask register, block-moving controller
//!   and finite FIFO queue. SIMD instructions are *released* from the queue
//!   only once every enabled PE has requested them, which makes each
//!   variable-time instruction cost the maximum across PEs (the paper's
//!   central mechanism), and lets an MC overlap its control flow with PE
//!   computation — the source of the reported superlinear SIMD speed-up;
//! * **mode switching** — a PE enters SIMD mode by jumping into the reserved
//!   SIMD instruction space and leaves it when the MC broadcasts a jump back
//!   into PE memory, so switching costs a single jump in each direction;
//! * **barrier synchronization** — a MIMD-mode read from SIMD space completes
//!   only when all enabled PEs have read, implementing the cheap barriers the
//!   hybrid S/MIMD programs use for network transfers;
//! * the **circuit-switched network** — 8-bit transfer registers with
//!   overwrite protection, polled in MIMD mode, used synchronously in
//!   SIMD/S-MIMD mode.
//!
//! The entry point is [`Machine`]; configure with [`MachineConfig`], load
//! [`pasm_isa::Program`]s into PEs and MCs, establish circuits, and call
//! [`Machine::run`] to obtain a [`RunResult`]. Every executed instruction is
//! charged to one record per component, a [`CycleAccount`] bucketing every
//! simulated cycle by cause and counting the instructions and multiplies
//! executed ([`account`]); the result carries the accounts and the
//! per-component [`PeTrace`]/[`McTrace`] summaries derived from them.

pub mod account;
pub mod block;
pub mod config;
pub mod cpu;
pub mod fault;
pub mod fetch_unit;
pub mod machine;
pub mod trace;

pub use account::{
    Bucket, CycleAccount, MachineAccounts, PhaseSpan, BUCKET_NAMES, N_BUCKETS, N_PHASES,
};
pub use block::{CompiledProgram, InstrMeta};
pub use config::{MachineConfig, ReleaseMode};
pub use cpu::{Cpu, Effect, StepOutcome};
pub use fault::{FaultPlan, PeFault, PeFaultSpec};
pub use fetch_unit::FuStats;
pub use machine::{drr_ea, dtr_ea, status_ea, Machine, PeMode, RunError, RunResult};
pub use pasm_net::{single_faults, NetFault};
pub use trace::{McTrace, PeTrace};
