//! Cycle-timing model of the reduced instruction set.
//!
//! All numbers follow the M68000 8-/16-/32-bit Microprocessors User's Manual
//! (instruction execution time tables). They assume **zero-wait-state memory**;
//! the machine simulator adds per-bus-access wait states for the PE dynamic
//! RAM, refresh interference, and Fetch-Unit-queue effects on top of these
//! figures, because those are properties of the PASM prototype's memory system
//! rather than of the CPU core.
//!
//! The two functions at the heart of the reproduced experiments are
//! [`mulu_cycles`] and [`muls_cycles`]: the MC68000 multiplier is microcoded
//! with an early-out per-bit algorithm, so
//!
//! * `MULU` takes `38 + 2·n` cycles where `n` is the number of **one-bits** in
//!   the source operand (38–70 cycles), and
//! * `MULS` takes `38 + 2·n` cycles where `n` is the number of **10 or 01
//!   patterns** in the source operand appended with a zero (i.e. bit
//!   transitions of `src << 1` viewed as 17 bits).
//!
//! With uniformly random 16-bit data the `MULU` time is `38 + 2·B` with
//! `B ~ Binomial(16, ½)`: mean 54 cycles, but a *maximum over p processors*
//! that grows with p — exactly the SIMD lockstep penalty the paper measures.

use crate::instr::{Cond, Instr, ShiftCount};
use crate::operand::{Ea, Size};

/// Runtime facts the CPU interpreter must supply for data-dependent timings.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCtx {
    /// Source operand value (required for `MULU`/`MULS`/`DIVU`/`DIVS`).
    pub src_value: u32,
    /// Destination operand value before execution (required for the divides).
    pub dst_value: u32,
    /// Effective shift count (required for register-count shifts).
    pub shift_count: u32,
    /// Whether a conditional branch was taken.
    pub branch_taken: bool,
    /// Whether a `DBRA` loop counter expired (fell through).
    pub loop_expired: bool,
}

/// Effective-address calculation + operand fetch time for a *source* operand.
///
/// Manual Table 8-2 ("effective address calculation times").
pub fn ea_fetch_cycles(ea: Ea, size: Size) -> u32 {
    let long = matches!(size, Size::Long);
    match ea {
        Ea::D(_) | Ea::A(_) => 0,
        Ea::Ind(_) | Ea::PostInc(_) => {
            if long {
                8
            } else {
                4
            }
        }
        Ea::PreDec(_) => {
            if long {
                10
            } else {
                6
            }
        }
        Ea::Disp(..) | Ea::AbsW(_) => {
            if long {
                12
            } else {
                8
            }
        }
        Ea::AbsL(_) => {
            if long {
                16
            } else {
                12
            }
        }
        Ea::Imm(_) => {
            if long {
                8
            } else {
                4
            }
        }
    }
}

/// Destination penalty of a `MOVE` (manual Table 8-4, destination column,
/// relative to the register-destination case).
pub fn move_dst_cycles(ea: Ea, size: Size) -> u32 {
    let long = matches!(size, Size::Long);
    match ea {
        Ea::D(_) | Ea::A(_) => 0,
        // Writing through -(An) costs the same as (An) on MOVE (the decrement
        // overlaps the write), unlike its use as a source.
        Ea::Ind(_) | Ea::PostInc(_) | Ea::PreDec(_) => {
            if long {
                8
            } else {
                4
            }
        }
        Ea::Disp(..) | Ea::AbsW(_) => {
            if long {
                12
            } else {
                8
            }
        }
        Ea::AbsL(_) => {
            if long {
                16
            } else {
                12
            }
        }
        Ea::Imm(_) => 0, // not writable; caught elsewhere
    }
}

/// `LEA` timing (manual Table 8-6).
pub fn lea_cycles(ea: Ea) -> u32 {
    match ea {
        Ea::Ind(_) => 4,
        Ea::Disp(..) | Ea::AbsW(_) => 8,
        Ea::AbsL(_) => 12,
        // Other modes are illegal for LEA on the 68000; charge the cheapest
        // legal mode so accidental use in generated code stays conservative.
        _ => 4,
    }
}

/// Number of one-bits in a 16-bit multiplier.
#[inline]
pub fn ones(v: u16) -> u32 {
    v.count_ones()
}

/// `MULU <ea>,Dn` core time: 38 + 2·ones(src), excluding the source EA time.
///
/// Minimum 38 (multiplier 0), maximum 70 (multiplier 0xFFFF).
#[inline]
pub fn mulu_cycles(src: u16) -> u32 {
    mulu_cycles_from_ones(ones(src))
}

/// `MULU` core time as a function of the multiplier's popcount directly.
#[inline]
pub fn mulu_cycles_from_ones(ones: u32) -> u32 {
    38 + 2 * ones
}

/// `MULS <ea>,Dn` core time: 38 + 2·n where n is the number of `01`/`10`
/// patterns in the 17-bit value `src << 1` — i.e. the number of bit transitions
/// when scanning the source with an appended low zero.
#[inline]
pub fn muls_cycles(src: u16) -> u32 {
    let v = (src as u32) << 1; // 17 significant bits, bit 0 = appended zero
    let transitions = (v ^ (v >> 1)) & 0xFFFF; // pairs (b1,b0), (b2,b1), ... (b16,b15)
    38 + 2 * transitions.count_ones()
}

/// `DIVU <ea>,Dn` core time, excluding the source EA time.
///
/// The 68000 divider is a microcoded non-restoring loop whose per-iteration
/// cost depends on the developing quotient; published exact timings range
/// from 76 to 140 cycles plus a 10-cycle early-out when the quotient would
/// overflow 16 bits. We model the data dependence as `76 + 4·zeros(quotient)`
/// (each zero quotient bit takes the longer microcode path), which spans the
/// documented envelope, and 10 cycles for the overflow early-out. A divide by
/// zero is charged like an overflow (the real CPU traps; the experiments
/// never divide by zero).
#[inline]
pub fn divu_cycles(dividend: u32, divisor: u16) -> u32 {
    if divisor == 0 || (dividend >> 16) >= divisor as u32 {
        return 10; // overflow / zero-divide early-out
    }
    let q = dividend / divisor as u32;
    76 + 4 * (16 - (q as u16).count_ones())
}

/// `DIVS <ea>,Dn` core time: the unsigned core on the magnitudes plus sign
/// fix-up overhead (constant 8 cycles, plus 2 when the dividend is negative).
#[inline]
pub fn divs_cycles(dividend: u32, divisor: u16) -> u32 {
    let dd = (dividend as i32).unsigned_abs();
    let dv = (divisor as i16).unsigned_abs();
    let neg_fix = if (dividend as i32) < 0 { 2 } else { 0 };
    divu_cycles(dd, dv) + 8 + neg_fix
}

/// Shift/rotate register form: 6 + 2n (byte/word), 8 + 2n (long).
#[inline]
pub fn shift_cycles(size: Size, count: u32) -> u32 {
    let base = if matches!(size, Size::Long) { 8 } else { 6 };
    base + 2 * count
}

/// Conditional-branch timing (word displacement): taken 10, not taken 12.
#[inline]
pub fn bcc_cycles(taken: bool) -> u32 {
    if taken {
        10
    } else {
        12
    }
}

/// `DBRA` timing: branch taken (counter live) 10, expired (fall through) 14.
#[inline]
pub fn dbra_cycles(expired: bool) -> u32 {
    if expired {
        14
    } else {
        10
    }
}

/// The data-dependent part of an instruction's core time, as a *term* the
/// machine evaluates at run time against an [`ExecCtx`].
///
/// [`cycle_split`] decomposes every instruction into a static constant plus
/// exactly one of these terms, with the invariant (pinned by the
/// `decomposition` tests)
///
/// ```text
/// base_cycles(i, ctx) == cycle_split(i).static_cycles
///                      + dynamic_cycles(cycle_split(i).dynamic, ctx)
/// ```
///
/// for every instruction and every context. Most instructions carry
/// [`DynTerm::None`]; the exceptions are the paper's non-deterministic-time
/// instructions (multiplies, divides, register-count shifts) and the two
/// branch forms whose arms differ in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DynTerm {
    /// Fully static: the instruction's cost never depends on data.
    #[default]
    None,
    /// `MULU`: `mulu_cycles(src) − 38`, i.e. `2·ones(src)` — 0 to 32 extra
    /// cycles over the 38-cycle floor.
    MuluOnes,
    /// `MULS`: `2·transitions(src << 1)` over the same 38-cycle floor.
    MulsTransitions,
    /// `DIVU`: `divu_cycles(dst, src) − 10`; the static part is the 10-cycle
    /// overflow early-out, the term spans 0 and 66–130.
    DivuQuotient,
    /// `DIVS`: `divs_cycles(dst, src) − 18`; the static part is the early-out
    /// plus the constant 8-cycle sign fix-up.
    DivsQuotient,
    /// Register-count shifts: `2·count` over the 6/8-cycle base.
    ShiftCount,
    /// Conditional `Bcc` (not `BRA`): `+2` on fall-through (taken = 10,
    /// not taken = 12).
    BccFallThrough,
    /// `DBRA`: `+4` when the counter expires (taken = 10, expired = 14).
    DbraExpired,
}

impl DynTerm {
    /// True for the terms of `MULU`, `MULS`, `DIVU` and `DIVS`, the
    /// variable-time multiplies and divides.
    #[inline]
    pub fn is_mul_div(self) -> bool {
        matches!(
            self,
            DynTerm::MuluOnes
                | DynTerm::MulsTransitions
                | DynTerm::DivuQuotient
                | DynTerm::DivsQuotient
        )
    }
}

/// An instruction's core time split into a compile-time constant and a
/// run-time term (see [`cycle_split`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CycleSplit {
    /// Cycles charged regardless of data: the instruction's minimum core
    /// time, including all effective-address fetch cost.
    pub static_cycles: u32,
    /// The data-dependent remainder, evaluated via [`dynamic_cycles`].
    pub dynamic: DynTerm,
    /// [`Instr::words`], folded at split time: instruction words fetched,
    /// a pure function of the encoding.
    pub fetch_words: u32,
    /// [`data_accesses`], folded at split time: 16-bit operand bus accesses,
    /// likewise static per instruction.
    pub data_accesses: u32,
}

impl CycleSplit {
    /// True when the instruction's core time is a compile-time constant.
    pub fn is_static(&self) -> bool {
        self.dynamic == DynTerm::None
    }
}

/// Decompose an instruction's [`base_cycles`] into `static + dynamic(ctx)`.
///
/// This is the per-opcode table `pasm-machine`'s instruction table stores
/// once per loaded instruction: the static part is a constant, the dynamic
/// term is evaluated against each execution's [`ExecCtx`].
pub fn cycle_split(instr: &Instr) -> CycleSplit {
    let (static_cycles, dynamic) = match *instr {
        Instr::Mulu { src, .. } => (38 + ea_fetch_cycles(src, Size::Word), DynTerm::MuluOnes),
        Instr::Muls { src, .. } => (
            38 + ea_fetch_cycles(src, Size::Word),
            DynTerm::MulsTransitions,
        ),
        Instr::Divu { src, .. } => (10 + ea_fetch_cycles(src, Size::Word), DynTerm::DivuQuotient),
        Instr::Divs { src, .. } => (18 + ea_fetch_cycles(src, Size::Word), DynTerm::DivsQuotient),
        Instr::Shift {
            size,
            count: ShiftCount::Reg(_),
            ..
        } => (shift_cycles(size, 0), DynTerm::ShiftCount),
        Instr::Bcc {
            cond: Cond::True, ..
        } => (10, DynTerm::None),
        Instr::Bcc { .. } => (10, DynTerm::BccFallThrough),
        Instr::Dbra { .. } => (10, DynTerm::DbraExpired),
        // Everything else ignores the context entirely.
        _ => (base_cycles(instr, ExecCtx::default()), DynTerm::None),
    };
    CycleSplit {
        static_cycles,
        dynamic,
        fetch_words: instr.words(),
        data_accesses: data_accesses(instr),
    }
}

/// Evaluate a [`DynTerm`] against the run-time facts of one execution.
#[inline]
pub fn dynamic_cycles(term: DynTerm, ctx: ExecCtx) -> u32 {
    match term {
        DynTerm::None => 0,
        DynTerm::MuluOnes => mulu_cycles(ctx.src_value as u16) - 38,
        DynTerm::MulsTransitions => muls_cycles(ctx.src_value as u16) - 38,
        DynTerm::DivuQuotient => divu_cycles(ctx.dst_value, ctx.src_value as u16) - 10,
        DynTerm::DivsQuotient => divs_cycles(ctx.dst_value, ctx.src_value as u16) - 18,
        DynTerm::ShiftCount => 2 * ctx.shift_count,
        DynTerm::BccFallThrough => {
            if ctx.branch_taken {
                0
            } else {
                2
            }
        }
        DynTerm::DbraExpired => {
            if ctx.loop_expired {
                4
            } else {
                0
            }
        }
    }
}

/// The cycles of an instruction's dynamic term that are the paper's
/// non-deterministic instruction time (the `multiply_variance` bucket):
/// the core time of `MULU`/`MULS`/`DIVU`/`DIVS` beyond its data-independent
/// floor, given `dynamic = dynamic_cycles(term, ctx)`.
///
/// * `MULU`/`MULS`: all of it — the 38-cycle floor is the static part.
/// * `DIVU`/`DIVS`: what lies beyond 66. The static parts (10, 18) are the
///   overflow early-out, so the floors 76 and 84 sit 66 cycles above them;
///   an early-out (dynamic 0, or 2 for a negative `DIVS` dividend) is below
///   its floor and counts nothing.
/// * Every other term (shift counts, branch arms): none.
#[inline]
pub fn variance_cycles(term: DynTerm, dynamic: u32) -> u32 {
    match term {
        DynTerm::MuluOnes | DynTerm::MulsTransitions => dynamic,
        DynTerm::DivuQuotient | DynTerm::DivsQuotient => dynamic.saturating_sub(66),
        _ => 0,
    }
}

fn alu_to_reg(size: Size, src: Ea) -> u32 {
    // ADD/SUB/AND/OR/CMP <ea>,Dn
    let ea = ea_fetch_cycles(src, size);
    match size {
        Size::Byte | Size::Word => 4 + ea,
        Size::Long => {
            if src.is_register() || matches!(src, Ea::Imm(_)) {
                8 + ea
            } else {
                6 + ea
            }
        }
    }
}

fn alu_to_mem(size: Size, dst: Ea) -> u32 {
    // ADD/SUB/OR/EOR Dn,<ea> (read-modify-write on memory)
    let ea = ea_fetch_cycles(dst, size);
    match size {
        Size::Byte | Size::Word => 8 + ea,
        Size::Long => 12 + ea,
    }
}

fn single_operand(size: Size, dst: Ea, reg_b_w: u32, reg_l: u32) -> u32 {
    // CLR/NEG/NOT/TST-style single-operand forms.
    if dst.is_register() {
        if matches!(size, Size::Long) {
            reg_l
        } else {
            reg_b_w
        }
    } else {
        let ea = ea_fetch_cycles(dst, size);
        match size {
            Size::Byte | Size::Word => 8 + ea,
            Size::Long => 12 + ea,
        }
    }
}

/// Core execution time of an instruction in CPU cycles, assuming zero-wait
/// memory. The machine simulator layers memory wait states on top.
pub fn base_cycles(instr: &Instr, ctx: ExecCtx) -> u32 {
    match *instr {
        Instr::Move { size, src, dst } => {
            4 + ea_fetch_cycles(src, size) + move_dst_cycles(dst, size)
        }
        Instr::Movea { size, src, .. } => 4 + ea_fetch_cycles(src, size),
        Instr::Moveq { .. } => 4,
        Instr::Lea { src, .. } => lea_cycles(src),
        Instr::Clr { size, dst } => single_operand(size, dst, 4, 6),
        Instr::Swap { .. } => 4,
        Instr::Ext { .. } => 4,
        Instr::Add { size, src, .. } | Instr::Sub { size, src, .. } => alu_to_reg(size, src),
        Instr::AddTo { size, dst, .. } | Instr::SubTo { size, dst, .. } => alu_to_mem(size, dst),
        Instr::Adda { size, src, .. } | Instr::Suba { size, src, .. } => {
            // ADDA.W = 8+ea (source is sign-extended through the ALU twice);
            // ADDA.L = 6+ea for memory sources, 8+ea register/immediate.
            match size {
                Size::Long => {
                    if src.is_register() || matches!(src, Ea::Imm(_)) {
                        8 + ea_fetch_cycles(src, size)
                    } else {
                        6 + ea_fetch_cycles(src, size)
                    }
                }
                _ => 8 + ea_fetch_cycles(src, size),
            }
        }
        Instr::Addq { size, dst, .. } | Instr::Subq { size, dst, .. } => {
            if dst.is_register() {
                match dst {
                    // ADDQ to an address register is always a long operation: 8.
                    Ea::A(_) => 8,
                    _ => {
                        if matches!(size, Size::Long) {
                            8
                        } else {
                            4
                        }
                    }
                }
            } else {
                let ea = ea_fetch_cycles(dst, size);
                match size {
                    Size::Byte | Size::Word => 8 + ea,
                    Size::Long => 12 + ea,
                }
            }
        }
        Instr::Neg { size, dst } | Instr::Not { size, dst } => single_operand(size, dst, 4, 6),
        Instr::Mulu { src, .. } => {
            mulu_cycles(ctx.src_value as u16) + ea_fetch_cycles(src, Size::Word)
        }
        Instr::Muls { src, .. } => {
            muls_cycles(ctx.src_value as u16) + ea_fetch_cycles(src, Size::Word)
        }
        Instr::Divu { src, .. } => {
            divu_cycles(ctx.dst_value, ctx.src_value as u16) + ea_fetch_cycles(src, Size::Word)
        }
        Instr::Divs { src, .. } => {
            divs_cycles(ctx.dst_value, ctx.src_value as u16) + ea_fetch_cycles(src, Size::Word)
        }
        Instr::And { size, src, .. } | Instr::Or { size, src, .. } => alu_to_reg(size, src),
        Instr::OrTo { size, dst, .. } | Instr::Eor { size, dst, .. } => alu_to_mem(size, dst),
        Instr::Btst { dst, .. } => {
            if dst.is_register() {
                10
            } else {
                8 + ea_fetch_cycles(dst, Size::Byte)
            }
        }
        Instr::Shift { size, count, .. } => {
            let n = match count {
                ShiftCount::Imm(n) => n as u32,
                ShiftCount::Reg(_) => ctx.shift_count,
            };
            shift_cycles(size, n)
        }
        Instr::Cmp { size, src, .. } => match size {
            Size::Byte | Size::Word => 4 + ea_fetch_cycles(src, size),
            Size::Long => 6 + ea_fetch_cycles(src, size),
        },
        Instr::Cmpa { size, src, .. } => 6 + ea_fetch_cycles(src, size),
        Instr::Cmpi { size, dst, .. } => {
            if dst.is_register() {
                if matches!(size, Size::Long) {
                    14
                } else {
                    8
                }
            } else {
                let ea = ea_fetch_cycles(dst, size);
                match size {
                    Size::Byte | Size::Word => 8 + ea,
                    Size::Long => 12 + ea,
                }
            }
        }
        Instr::Tst { size, dst } => {
            4 + if dst.is_register() {
                0
            } else {
                ea_fetch_cycles(dst, size)
            }
        }
        Instr::Bcc {
            cond: Cond::True, ..
        } => 10, // BRA
        Instr::Bcc { .. } => bcc_cycles(ctx.branch_taken),
        Instr::Dbra { .. } => dbra_cycles(ctx.loop_expired),
        Instr::Jmp { .. } => 10,
        Instr::Jsr { .. } => 18,
        Instr::Rts => 16,
        Instr::Nop => 4,
        // PASM operations: costs of the underlying 68000 operations.
        Instr::JmpSimd => 10,        // JMP abs.W into the SIMD space
        Instr::JmpMimd { .. } => 12, // JMP abs.L back into PE memory
        Instr::Barrier => 8,         // MOVE.W abs.W,Dscratch (release wait added by machine)
        Instr::SetMask { .. } => 16, // MOVE.W #imm,FU-mask
        Instr::Enqueue { .. } | Instr::EnqueueWords { .. } => 20, // MOVE.L #ctl,FU-ctl
        Instr::StartPes => 16,
        Instr::Mark { .. } => 0,
        Instr::Halt => 4,
    }
}

/// Number of 16-bit **data** bus accesses to memory the instruction performs
/// (operand reads + writes, excluding instruction fetch). The machine uses this
/// to charge DRAM wait states on operand traffic.
pub fn data_accesses(instr: &Instr) -> u32 {
    fn rd(ea: Ea, size: Size) -> u32 {
        if ea.is_memory() {
            size.bus_accesses()
        } else {
            0
        }
    }
    fn rmw(ea: Ea, size: Size) -> u32 {
        if ea.is_memory() {
            2 * size.bus_accesses()
        } else {
            0
        }
    }
    match *instr {
        Instr::Move { size, src, dst } => rd(src, size) + rd(dst, size),
        Instr::Movea { size, src, .. } => rd(src, size),
        Instr::Lea { .. } | Instr::Moveq { .. } | Instr::Swap { .. } | Instr::Ext { .. } => 0,
        Instr::Clr { size, dst } => rd(dst, size), // write only
        Instr::Add { size, src, .. }
        | Instr::Sub { size, src, .. }
        | Instr::And { size, src, .. }
        | Instr::Or { size, src, .. }
        | Instr::Cmp { size, src, .. } => rd(src, size),
        Instr::AddTo { size, dst, .. }
        | Instr::SubTo { size, dst, .. }
        | Instr::OrTo { size, dst, .. }
        | Instr::Eor { size, dst, .. } => rmw(dst, size),
        Instr::Adda { size, src, .. }
        | Instr::Suba { size, src, .. }
        | Instr::Cmpa { size, src, .. } => rd(src, size),
        Instr::Addq { size, dst, .. } | Instr::Subq { size, dst, .. } => rmw(dst, size),
        Instr::Neg { size, dst } | Instr::Not { size, dst } => rmw(dst, size),
        Instr::Mulu { src, .. }
        | Instr::Muls { src, .. }
        | Instr::Divu { src, .. }
        | Instr::Divs { src, .. } => rd(src, Size::Word),
        Instr::Shift { .. } => 0,
        Instr::Btst { dst, .. } => rd(dst, Size::Byte),
        Instr::Cmpi { size, dst, .. } | Instr::Tst { size, dst } => rd(dst, size),
        Instr::Jsr { .. } => 2, // push return address (long)
        Instr::Rts => 2,        // pop return address
        Instr::Barrier => 1,    // one word read from SIMD space
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::ShiftKind;
    use crate::reg::{AddrReg::*, DataReg::*};

    #[test]
    fn mulu_bounds_and_formula() {
        assert_eq!(mulu_cycles(0), 38);
        assert_eq!(mulu_cycles(0xFFFF), 70);
        assert_eq!(mulu_cycles(0b1010_1010_1010_1010), 38 + 2 * 8);
        assert_eq!(mulu_cycles(1), 40);
        // Mean over all 16-bit values is 38 + 2*8 = 54.
        let mean: f64 = (0..=u16::MAX).map(|v| mulu_cycles(v) as f64).sum::<f64>() / 65536.0;
        assert!((mean - 54.0).abs() < 1e-9);
    }

    #[test]
    fn muls_transition_count() {
        // 0 has no transitions: minimum 38.
        assert_eq!(muls_cycles(0), 38);
        // 0xFFFF << 1 = 1_1111_1111_1111_1110: one 01 boundary at the bottom,
        // and the implicit sign bit run: transitions of v^(v>>1) & 0xFFFF.
        assert_eq!(muls_cycles(0xFFFF), 38 + 2);
        // Alternating bits maximize transitions: 0x5555 -> sixteen transitions.
        assert_eq!(muls_cycles(0x5555), 38 + 2 * 16);
        assert!(muls_cycles(0xAAAA) >= muls_cycles(0));
    }

    #[test]
    fn move_timing_matches_manual_examples() {
        let ctx = ExecCtx::default();
        // MOVE.W D0,D1 = 4
        let i = Instr::Move {
            size: Size::Word,
            src: Ea::D(D0),
            dst: Ea::D(D1),
        };
        assert_eq!(base_cycles(&i, ctx), 4);
        // MOVE.W (A0),D1 = 8
        let i = Instr::Move {
            size: Size::Word,
            src: Ea::Ind(A0),
            dst: Ea::D(D1),
        };
        assert_eq!(base_cycles(&i, ctx), 8);
        // MOVE.W (A0)+,(A1)+ = 12
        let i = Instr::Move {
            size: Size::Word,
            src: Ea::PostInc(A0),
            dst: Ea::PostInc(A1),
        };
        assert_eq!(base_cycles(&i, ctx), 12);
        // MOVE.L d(A0),d(A1) = 4 + 12 + 12 = 28
        let i = Instr::Move {
            size: Size::Long,
            src: Ea::Disp(4, A0),
            dst: Ea::Disp(8, A1),
        };
        assert_eq!(base_cycles(&i, ctx), 28);
    }

    #[test]
    fn alu_timing_examples() {
        let ctx = ExecCtx::default();
        // ADD.W (A0)+,D0 = 8
        let i = Instr::Add {
            size: Size::Word,
            src: Ea::PostInc(A0),
            dst: D0,
        };
        assert_eq!(base_cycles(&i, ctx), 8);
        // ADD.W D0,(A1) = 12 (read-modify-write)
        let i = Instr::AddTo {
            size: Size::Word,
            src: D0,
            dst: Ea::Ind(A1),
        };
        assert_eq!(base_cycles(&i, ctx), 12);
        // ADDQ.W #1,D0 = 4; ADDQ to An = 8
        let i = Instr::Addq {
            size: Size::Word,
            value: 1,
            dst: Ea::D(D0),
        };
        assert_eq!(base_cycles(&i, ctx), 4);
        let i = Instr::Addq {
            size: Size::Word,
            value: 1,
            dst: Ea::A(A0),
        };
        assert_eq!(base_cycles(&i, ctx), 8);
        // ADDA.W D0,A0 = 8
        let i = Instr::Adda {
            size: Size::Word,
            src: Ea::D(D0),
            dst: A0,
        };
        assert_eq!(base_cycles(&i, ctx), 8);
    }

    #[test]
    fn shift_and_branch_timing() {
        let ctx = ExecCtx {
            shift_count: 8,
            ..Default::default()
        };
        let i = Instr::Shift {
            kind: ShiftKind::Lsr,
            size: Size::Word,
            count: ShiftCount::Imm(8),
            dst: D0,
        };
        assert_eq!(base_cycles(&i, ctx), 6 + 16);
        let i = Instr::Shift {
            kind: ShiftKind::Lsl,
            size: Size::Long,
            count: ShiftCount::Reg(D1),
            dst: D0,
        };
        assert_eq!(base_cycles(&i, ctx), 8 + 16);

        assert_eq!(bcc_cycles(true), 10);
        assert_eq!(bcc_cycles(false), 12);
        assert_eq!(dbra_cycles(false), 10);
        assert_eq!(dbra_cycles(true), 14);
    }

    #[test]
    fn mulu_timing_includes_ea() {
        // MULU (A0),D0 with source value 0xF = 38 + 8 + 4(ea) = 50.
        let ctx = ExecCtx {
            src_value: 0xF,
            ..Default::default()
        };
        let i = Instr::Mulu {
            src: Ea::Ind(A0),
            dst: D0,
        };
        assert_eq!(base_cycles(&i, ctx), 38 + 8 + 4);
    }

    #[test]
    fn data_access_counts() {
        let i = Instr::Move {
            size: Size::Word,
            src: Ea::PostInc(A0),
            dst: Ea::PostInc(A1),
        };
        assert_eq!(data_accesses(&i), 2);
        let i = Instr::AddTo {
            size: Size::Word,
            src: D0,
            dst: Ea::Ind(A1),
        };
        assert_eq!(data_accesses(&i), 2); // read + write
        let i = Instr::Move {
            size: Size::Long,
            src: Ea::Ind(A0),
            dst: Ea::D(D0),
        };
        assert_eq!(data_accesses(&i), 2); // two bus accesses for a long read
        let i = Instr::Mulu {
            src: Ea::D(D1),
            dst: D0,
        };
        assert_eq!(data_accesses(&i), 0);
    }

    #[test]
    fn mark_is_free() {
        let i = Instr::Mark {
            begin: true,
            phase: 1,
        };
        assert_eq!(base_cycles(&i, ExecCtx::default()), 0);
        assert_eq!(i.words(), 0);
        assert_eq!(data_accesses(&i), 0);
    }
}
