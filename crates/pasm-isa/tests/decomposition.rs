//! Pins the static/dynamic cycle decomposition every machine step charges:
//! for every opcode and every execution context,
//!
//! ```text
//! base_cycles(i, ctx) == cycle_split(i).static_cycles
//!                      + dynamic_cycles(cycle_split(i).dynamic, ctx)
//! ```
//!
//! This is the contract `docs/TIMING.md` documents and `pasm-machine`'s
//! fast path relies on. Each formula stated there is exercised here, either
//! by the exhaustive opcode sweep or by the operand property sweeps below.

use pasm_isa::analysis::{instr_bounds, is_data_dependent};
use pasm_isa::instr::Instr;
use pasm_isa::operand::{Ea, Size};
use pasm_isa::reg::{AddrReg::*, DataReg::*};
use pasm_isa::timing::{
    base_cycles, cycle_split, divs_cycles, divu_cycles, dynamic_cycles, muls_cycles, mulu_cycles,
    variance_cycles, DynTerm, ExecCtx,
};
use pasm_isa::{Cond, ShiftCount, ShiftKind};

/// One representative per `Ea` addressing mode (the timing tables key on the
/// mode, not the register number).
fn ea_modes() -> Vec<Ea> {
    vec![
        Ea::D(D3),
        Ea::A(A2),
        Ea::Ind(A1),
        Ea::PostInc(A1),
        Ea::PreDec(A1),
        Ea::Disp(8, A1),
        Ea::AbsW(0x1000),
        Ea::AbsL(0x0010_0000),
        Ea::Imm(0x55AA),
    ]
}

/// At least one instance of every one of the 46 `Instr` variants, several of
/// them in multiple sizes / addressing modes so every arm of `base_cycles`
/// is crossed.
fn all_opcodes() -> Vec<Instr> {
    let mut v = Vec::new();
    for size in [Size::Byte, Size::Word, Size::Long] {
        for src in ea_modes() {
            v.push(Instr::Move {
                size,
                src,
                dst: Ea::D(D0),
            });
            v.push(Instr::Move {
                size,
                src: Ea::D(D1),
                dst: src,
            });
            v.push(Instr::Add { size, src, dst: D0 });
            v.push(Instr::Sub { size, src, dst: D0 });
            v.push(Instr::And { size, src, dst: D0 });
            v.push(Instr::Or { size, src, dst: D0 });
            v.push(Instr::Cmp { size, src, dst: D0 });
            v.push(Instr::Adda { size, src, dst: A0 });
            v.push(Instr::Suba { size, src, dst: A0 });
            v.push(Instr::Cmpa { size, src, dst: A0 });
            v.push(Instr::Movea { size, src, dst: A0 });
            v.push(Instr::AddTo {
                size,
                src: D1,
                dst: src,
            });
            v.push(Instr::SubTo {
                size,
                src: D1,
                dst: src,
            });
            v.push(Instr::OrTo {
                size,
                src: D1,
                dst: src,
            });
            v.push(Instr::Eor {
                size,
                src: D1,
                dst: src,
            });
            v.push(Instr::Addq {
                size,
                value: 4,
                dst: src,
            });
            v.push(Instr::Subq {
                size,
                value: 4,
                dst: src,
            });
            v.push(Instr::Clr { size, dst: src });
            v.push(Instr::Neg { size, dst: src });
            v.push(Instr::Not { size, dst: src });
            v.push(Instr::Cmpi {
                size,
                value: 7,
                dst: src,
            });
            v.push(Instr::Tst { size, dst: src });
        }
        for kind in [ShiftKind::Lsl, ShiftKind::Lsr, ShiftKind::Asr] {
            v.push(Instr::Shift {
                kind,
                size,
                count: ShiftCount::Imm(3),
                dst: D0,
            });
            v.push(Instr::Shift {
                kind,
                size,
                count: ShiftCount::Reg(D2),
                dst: D0,
            });
        }
    }
    for src in ea_modes() {
        v.push(Instr::Mulu { src, dst: D0 });
        v.push(Instr::Muls { src, dst: D0 });
        v.push(Instr::Divu { src, dst: D0 });
        v.push(Instr::Divs { src, dst: D0 });
        v.push(Instr::Lea { src, dst: A0 });
        v.push(Instr::Btst { bit: 3, dst: src });
    }
    for cond in [Cond::True, Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge] {
        v.push(Instr::Bcc { cond, target: 0 });
    }
    v.extend([
        Instr::Moveq { value: -1, dst: D0 },
        Instr::Swap { dst: D0 },
        Instr::Ext {
            size: Size::Word,
            dst: D0,
        },
        Instr::Ext {
            size: Size::Long,
            dst: D0,
        },
        Instr::Dbra { dst: D0, target: 0 },
        Instr::Jmp { target: 0 },
        Instr::Jsr { target: 0 },
        Instr::Rts,
        Instr::Nop,
        Instr::JmpSimd,
        Instr::JmpMimd { target: 0 },
        Instr::Barrier,
        Instr::SetMask { mask: 0xFFFF },
        Instr::Enqueue { block: 1 },
        Instr::EnqueueWords { count: 8 },
        Instr::StartPes,
        Instr::Mark {
            begin: true,
            phase: 1,
        },
        Instr::Mark {
            begin: false,
            phase: 1,
        },
        Instr::Halt,
    ]);
    v
}

/// A deterministic grid of execution contexts covering both branch arms,
/// shift counts 0–64, and a spread of operand values (corner cases plus LCG
/// pseudo-randoms).
fn ctx_grid() -> Vec<ExecCtx> {
    let mut values: Vec<u32> = vec![
        0,
        1,
        2,
        0xFF,
        0x5555,
        0xAAAA,
        0xFFFF,
        0x1_0000,
        0xFFFF_FFFF,
        0x8000_0000,
        123_456_789,
    ];
    let mut x: u32 = 0x1234_5678;
    for _ in 0..8 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        values.push(x);
    }
    let mut ctxs = Vec::new();
    for &src in &values {
        for &dst in &values {
            for shift in [0u32, 1, 8, 63, 64] {
                for flags in 0..4u8 {
                    ctxs.push(ExecCtx {
                        src_value: src,
                        dst_value: dst,
                        shift_count: shift,
                        branch_taken: flags & 1 != 0,
                        loop_expired: flags & 2 != 0,
                    });
                }
            }
        }
    }
    ctxs
}

fn variant_name(i: &Instr) -> &'static str {
    macro_rules! name_of {
        ($($v:ident),*) => {
            match i { $(Instr::$v { .. } => stringify!($v)),* }
        };
    }
    name_of!(
        Move,
        Movea,
        Moveq,
        Lea,
        Clr,
        Swap,
        Ext,
        Add,
        AddTo,
        Adda,
        Addq,
        Sub,
        SubTo,
        Suba,
        Subq,
        Neg,
        Mulu,
        Muls,
        Divu,
        Divs,
        And,
        Or,
        OrTo,
        Eor,
        Not,
        Shift,
        Btst,
        Cmp,
        Cmpa,
        Cmpi,
        Tst,
        Bcc,
        Dbra,
        Jmp,
        Jsr,
        Rts,
        Nop,
        JmpSimd,
        JmpMimd,
        Barrier,
        SetMask,
        Enqueue,
        EnqueueWords,
        StartPes,
        Mark,
        Halt
    )
}

/// The tentpole invariant: for every opcode × context, the split re-sums to
/// the interpreter's charge.
#[test]
fn split_resums_to_interpreter_charge_for_every_opcode() {
    let opcodes = all_opcodes();
    let ctxs = ctx_grid();
    let mut seen = std::collections::BTreeSet::new();
    for i in &opcodes {
        seen.insert(variant_name(i));
        let split = cycle_split(i);
        for ctx in &ctxs {
            let expect = base_cycles(i, *ctx);
            let got = split.static_cycles + dynamic_cycles(split.dynamic, *ctx);
            assert_eq!(
                got, expect,
                "decomposition mismatch for {i:?} with ctx {ctx:?}: \
                 static {} + dynamic({:?}) = {got}, interpreter charges {expect}",
                split.static_cycles, split.dynamic
            );
        }
    }
    // The sweep really covers the whole ISA: all 46 variants appeared.
    assert_eq!(seen.len(), 46, "opcode sweep missed variants: {seen:?}");
}

/// The `multiply_variance` charge taken from the split is the core time of
/// a variable-time opcode beyond its floor — 38 (MULU, MULS), 76 (DIVU), 84
/// (DIVS) — and zero for every other opcode, for every opcode × context.
/// The split's term also tells exactly those four opcodes apart
/// (`DynTerm::is_mul_div`, which the cycle account counts them by).
#[test]
fn variance_from_split_is_core_time_beyond_the_floor() {
    for i in &all_opcodes() {
        let split = cycle_split(i);
        let mul_div = matches!(
            i,
            Instr::Mulu { .. } | Instr::Muls { .. } | Instr::Divu { .. } | Instr::Divs { .. }
        );
        assert_eq!(split.dynamic.is_mul_div(), mul_div, "{i:?}");
        for ctx in &ctx_grid() {
            let (src, dst) = (ctx.src_value as u16, ctx.dst_value);
            let want = match i {
                Instr::Mulu { .. } => mulu_cycles(src).saturating_sub(38),
                Instr::Muls { .. } => muls_cycles(src).saturating_sub(38),
                Instr::Divu { .. } => divu_cycles(dst, src).saturating_sub(76),
                Instr::Divs { .. } => divs_cycles(dst, src).saturating_sub(84),
                _ => 0,
            };
            let got = variance_cycles(split.dynamic, dynamic_cycles(split.dynamic, *ctx));
            assert_eq!(got, want, "{i:?} under {ctx:?}");
        }
    }
}

/// Every charge lies inside the static bounds the analysis reports for the
/// instruction. Shift counts above 63 are skipped: the CPU masks a register
/// count with `& 63`, so it never charges one.
#[test]
fn every_charge_lies_within_instr_bounds() {
    let ctxs = ctx_grid();
    for i in &all_opcodes() {
        let b = instr_bounds(i);
        for ctx in ctxs.iter().filter(|ctx| ctx.shift_count <= 63) {
            let c = base_cycles(i, *ctx);
            assert!(
                b.min <= c && c <= b.max,
                "{i:?} charges {c} under {ctx:?}, outside {b:?}"
            );
        }
    }
}

/// The classifier calls an instruction data-dependent exactly when its
/// bounds have a spread.
#[test]
fn data_dependent_exactly_when_bounds_spread() {
    for i in &all_opcodes() {
        assert_eq!(
            is_data_dependent(i),
            instr_bounds(i).spread() > 0,
            "{i:?}: bounds {:?}",
            instr_bounds(i)
        );
    }
}

/// Instructions whose split claims to be fully static must charge the same
/// number of cycles under *every* context.
#[test]
fn static_split_implies_context_independence() {
    let ctxs = ctx_grid();
    for i in &all_opcodes() {
        let split = cycle_split(i);
        if split.is_static() {
            for ctx in &ctxs {
                assert_eq!(
                    base_cycles(i, *ctx),
                    split.static_cycles,
                    "{i:?} claims static split but charge varies with {ctx:?}"
                );
            }
        }
    }
}

/// MULU property sweep: exhaustive over all 65536 source words, the dynamic
/// term is exactly 2·ones(src).
#[test]
fn mulu_dynamic_term_is_two_cycles_per_set_bit() {
    let i = Instr::Mulu {
        src: Ea::D(D1),
        dst: D0,
    };
    let split = cycle_split(&i);
    assert_eq!(split.dynamic, DynTerm::MuluOnes);
    for src in 0..=0xFFFFu32 {
        let ctx = ExecCtx {
            src_value: src,
            ..Default::default()
        };
        let dynamic = dynamic_cycles(split.dynamic, ctx);
        assert_eq!(dynamic, 2 * src.count_ones(), "MULU src={src:#06x}");
        assert_eq!(split.static_cycles + dynamic, base_cycles(&i, ctx));
    }
}

/// MULS property sweep: exhaustive over all 65536 source words against the
/// interpreter (dynamic term = 2·transitions(src<<1), bounded by 2·16).
#[test]
fn muls_dynamic_term_matches_interpreter_exhaustively() {
    let i = Instr::Muls {
        src: Ea::D(D1),
        dst: D0,
    };
    let split = cycle_split(&i);
    assert_eq!(split.dynamic, DynTerm::MulsTransitions);
    for src in 0..=0xFFFFu32 {
        let ctx = ExecCtx {
            src_value: src,
            ..Default::default()
        };
        let dynamic = dynamic_cycles(split.dynamic, ctx);
        assert!(dynamic <= 32, "MULS src={src:#06x} dynamic {dynamic}");
        assert_eq!(split.static_cycles + dynamic, base_cycles(&i, ctx));
    }
}

/// DIVU property sweep: LCG-driven dividend/divisor pairs including the
/// early-out arms (zero divisor, overflow) re-sum exactly.
#[test]
fn divu_divs_dynamic_terms_cover_early_out_and_overflow() {
    let divu = Instr::Divu {
        src: Ea::D(D1),
        dst: D0,
    };
    let divs = Instr::Divs {
        src: Ea::D(D1),
        dst: D0,
    };
    let (su, ss) = (cycle_split(&divu), cycle_split(&divs));
    assert_eq!(su.dynamic, DynTerm::DivuQuotient);
    assert_eq!(ss.dynamic, DynTerm::DivsQuotient);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut cases: Vec<(u32, u32)> = vec![
        (0, 0),                // zero divisor: trap early-out
        (123, 0),              //
        (0xFFFF_FFFF, 1),      // overflow: quotient does not fit 16 bits
        (0x0001_0000, 1),      // boundary overflow
        (0xFFFF, 0xFFFF),      // quotient 1
        (0, 1),                // quotient 0: worst zero count
        (0xFFFE_0001, 0xFFFF), // maximal in-range quotient
    ];
    for _ in 0..500 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        cases.push(((x >> 32) as u32, (x & 0xFFFF) as u32));
    }
    for (dst_value, src_value) in cases {
        let ctx = ExecCtx {
            src_value,
            dst_value,
            ..Default::default()
        };
        assert_eq!(
            su.static_cycles + dynamic_cycles(su.dynamic, ctx),
            base_cycles(&divu, ctx),
            "DIVU {dst_value:#x}/{src_value:#x}"
        );
        assert_eq!(
            ss.static_cycles + dynamic_cycles(ss.dynamic, ctx),
            base_cycles(&divs, ctx),
            "DIVS {dst_value:#x}/{src_value:#x}"
        );
    }
}

/// DBRA and Bcc arm sweep: both arms of each branch decompose onto the
/// documented taken/fall-through costs.
#[test]
fn branch_arms_decompose_onto_documented_costs() {
    let dbra = Instr::Dbra { dst: D0, target: 0 };
    let split = cycle_split(&dbra);
    assert_eq!(split.static_cycles, 10);
    assert_eq!(split.dynamic, DynTerm::DbraExpired);
    for expired in [false, true] {
        let ctx = ExecCtx {
            loop_expired: expired,
            ..Default::default()
        };
        let total = split.static_cycles + dynamic_cycles(split.dynamic, ctx);
        assert_eq!(total, if expired { 14 } else { 10 });
        assert_eq!(total, base_cycles(&dbra, ctx));
    }
    // BRA (Bcc with Cond::True) is unconditionally 10 and fully static.
    let bra = Instr::Bcc {
        cond: Cond::True,
        target: 0,
    };
    assert_eq!(cycle_split(&bra).static_cycles, 10);
    assert!(cycle_split(&bra).is_static());
    // Conditional branches: taken 10, fall-through 12.
    let beq = Instr::Bcc {
        cond: Cond::Eq,
        target: 0,
    };
    let split = cycle_split(&beq);
    assert_eq!(split.static_cycles, 10);
    assert_eq!(split.dynamic, DynTerm::BccFallThrough);
    for taken in [false, true] {
        let ctx = ExecCtx {
            branch_taken: taken,
            ..Default::default()
        };
        let total = split.static_cycles + dynamic_cycles(split.dynamic, ctx);
        assert_eq!(total, if taken { 10 } else { 12 });
        assert_eq!(total, base_cycles(&beq, ctx));
    }
}

/// Register-count shifts: dynamic term is exactly 2·count for counts 0–64.
#[test]
fn shift_dynamic_term_is_two_per_count() {
    for size in [Size::Byte, Size::Word, Size::Long] {
        let i = Instr::Shift {
            kind: ShiftKind::Lsl,
            size,
            count: ShiftCount::Reg(D1),
            dst: D0,
        };
        let split = cycle_split(&i);
        assert_eq!(split.dynamic, DynTerm::ShiftCount);
        for count in 0..=64u32 {
            let ctx = ExecCtx {
                shift_count: count,
                ..Default::default()
            };
            assert_eq!(dynamic_cycles(split.dynamic, ctx), 2 * count);
            assert_eq!(
                split.static_cycles + dynamic_cycles(split.dynamic, ctx),
                base_cycles(&i, ctx)
            );
        }
    }
}
