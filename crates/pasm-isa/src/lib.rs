//! # pasm-isa — reduced MC68000-style instruction set for the PASM prototype simulator
//!
//! The PASM prototype at Purdue used 8 MHz Motorola MC68000 processors for both
//! its Processing Elements (PEs) and its Micro Controllers (MCs). The experiments
//! in Fineberg et al., *Non-Deterministic Instruction Time Experiments on the
//! PASM System Prototype* (ICPP 1988), hinge on one property of that processor:
//! **the multiply instruction has a data-dependent execution time** (38 + 2·*n*
//! cycles for `MULU`, where *n* is the number of one-bits in the source operand).
//!
//! This crate defines a faithful, reduced subset of the MC68000 instruction set
//! together with its documented cycle-timing model:
//!
//! * [`Instr`] — the instruction enumeration (moves, arithmetic, logic, shifts,
//!   compares, branches, `DBRA` loops, jumps, and the variable-time `MULU`/`MULS`),
//! * [`Ea`] — the supported effective-address (addressing) modes,
//! * [`timing`] — per-instruction base cycle counts, per-addressing-mode
//!   effective-address calculation times, and the data-dependent multiply
//!   formulas, all taken from the M68000 user's manual,
//! * [`Program`] and [`ProgramBuilder`] — label-resolved instruction sequences,
//! * [`asm`] — a small two-pass text assembler for the subset (listings come
//!   from [`Program::listing`]).
//!
//! The crate is purely architectural: it knows how long an instruction takes on
//! the CPU core and how many instruction words it occupies, but nothing about
//! memory wait states, the Fetch Unit queue, or the interconnection network.
//! Those belong to `pasm-mem`, `pasm-net` and `pasm-machine`.
//!
//! ## Example
//!
//! ```
//! use pasm_isa::{timing, Instr, DataReg, Ea, Size};
//!
//! // MULU D1,D0 — the data-dependent instruction at the center of the paper.
//! let mulu = Instr::Mulu { src: Ea::D(DataReg::D1), dst: DataReg::D0 };
//! // With a multiplier of 0xFFFF (sixteen one-bits) the instruction takes
//! // 38 + 2*16 = 70 cycles; with 0 it takes the minimum 38.
//! assert_eq!(timing::mulu_cycles(0xFFFF), 70);
//! assert_eq!(timing::mulu_cycles(0x0000), 38);
//! assert_eq!(mulu.words(), 1);
//! ```

pub mod analysis;
pub mod asm;
pub mod instr;
pub mod operand;
pub mod program;
pub mod reg;
pub mod timing;

pub use instr::{Cond, Instr, ShiftCount, ShiftKind};
pub use operand::{Ea, Size};
pub use program::{Label, Program, ProgramBuilder};
pub use reg::{AddrReg, Ccr, DataReg};

/// Clock frequency of the PASM prototype CPUs (8 MHz MC68000s).
pub const CLOCK_HZ: u64 = 8_000_000;

/// Convert a cycle count on the 8 MHz prototype to seconds.
#[inline]
pub fn cycles_to_seconds(cycles: u64) -> f64 {
    cycles as f64 / CLOCK_HZ as f64
}

/// Convert a cycle count to milliseconds on the 8 MHz prototype.
#[inline]
pub fn cycles_to_ms(cycles: u64) -> f64 {
    cycles_to_seconds(cycles) * 1e3
}
