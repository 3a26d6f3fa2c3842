//! Static timing analysis: best/worst-case cycle bounds and lockstep-cost
//! estimation for instruction sequences.
//!
//! The paper's subject is the gap between an instruction's *mean* execution
//! time (what an asynchronous MIMD stream pays) and the *maximum across p
//! processors* (what SIMD lockstep pays). This module quantifies that gap
//! statically for the data-dependent instructions of the ISA:
//!
//! * [`instr_bounds`] — min/max core cycles of one instruction over all data,
//! * [`block_bounds`] — bounds of a straight-line block,
//! * [`mulu_mean`], [`mulu_lockstep_mean`] — exact expected `MULU` time under
//!   uniform 16-bit multipliers, alone and under a max-of-p release rule,
//! * [`lockstep_premium`] — expected extra cycles per multiply that SIMD
//!   lockstep costs over asynchronous execution, as a function of p,
//! * [`ProgramStats`] — static instruction-mix summary of a program.

use crate::instr::{Instr, ShiftCount};
use crate::program::Program;
use crate::timing::{self, ExecCtx};

/// Inclusive min/max core-cycle bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingBounds {
    pub min: u32,
    pub max: u32,
}

impl TimingBounds {
    /// Width of the interval — the instruction's timing non-determinism.
    pub fn spread(self) -> u32 {
        self.max - self.min
    }
}

/// True if the instruction's core time depends on operand *values*
/// (exactly when its [`instr_bounds`] spread is nonzero): the instructions
/// whose [`timing::cycle_split`] carries a data-dependent term. `BRA` is
/// always taken, so only the conditional branches qualify.
pub fn is_data_dependent(i: &Instr) -> bool {
    !timing::cycle_split(i).is_static()
}

/// Core-cycle bounds of a single instruction over all possible data.
///
/// Branches are bounded over taken/not-taken; register-count shifts over
/// counts 0–63; multiplies and divides over their documented envelopes.
pub fn instr_bounds(i: &Instr) -> TimingBounds {
    let at = |ctx: ExecCtx| timing::base_cycles(i, ctx);
    // Divides: the overflow early-out is the cheapest; an all-zero quotient,
    // from the given divisor and dividend, the dearest.
    let divide = |src_value: u32, dst_value: u32| TimingBounds {
        min: at(ExecCtx {
            src_value: 0,
            dst_value: 1,
            ..Default::default()
        }),
        max: at(ExecCtx {
            src_value,
            dst_value,
            ..Default::default()
        }),
    };
    match *i {
        Instr::Mulu { .. } => TimingBounds {
            min: at(ExecCtx {
                src_value: 0,
                ..Default::default()
            }),
            max: at(ExecCtx {
                src_value: 0xFFFF,
                ..Default::default()
            }),
        },
        Instr::Muls { .. } => TimingBounds {
            min: at(ExecCtx {
                src_value: 0,
                ..Default::default()
            }),
            max: at(ExecCtx {
                src_value: 0x5555,
                ..Default::default()
            }),
        },
        Instr::Divu { .. } => divide(0xFFFF, 0),
        // A negative dividend adds the 2-cycle sign fix-up: -1 / 2.
        Instr::Divs { .. } => divide(2, 0xFFFF_FFFF),
        Instr::Shift {
            count: ShiftCount::Reg(_),
            ..
        } => TimingBounds {
            min: at(ExecCtx {
                shift_count: 0,
                ..Default::default()
            }),
            max: at(ExecCtx {
                shift_count: 63,
                ..Default::default()
            }),
        },
        Instr::Bcc { .. } => {
            let t = at(ExecCtx {
                branch_taken: true,
                ..Default::default()
            });
            let n = at(ExecCtx {
                branch_taken: false,
                ..Default::default()
            });
            TimingBounds {
                min: t.min(n),
                max: t.max(n),
            }
        }
        Instr::Dbra { .. } => {
            let l = at(ExecCtx {
                loop_expired: false,
                ..Default::default()
            });
            let e = at(ExecCtx {
                loop_expired: true,
                ..Default::default()
            });
            TimingBounds {
                min: l.min(e),
                max: l.max(e),
            }
        }
        _ => {
            let c = at(ExecCtx::default());
            TimingBounds { min: c, max: c }
        }
    }
}

/// Bounds of a straight-line block (no control flow inside).
pub fn block_bounds(block: &[Instr]) -> TimingBounds {
    block
        .iter()
        .map(instr_bounds)
        .fold(TimingBounds { min: 0, max: 0 }, |a, b| TimingBounds {
            min: a.min + b.min,
            max: a.max + b.max,
        })
}

/// A basic block of a program's main instruction stream: the half-open
/// instruction-index span `[start, end)` of a maximal straight-line run —
/// control enters only at `start` (a *leader*) and leaves only at the last
/// instruction (a control transfer, or the instruction before the next
/// leader).
///
/// Within a block, every instruction executes exactly once per entry, so
/// the static parts of [`timing::cycle_split`] sum into one per-block
/// constant: the block's best-case core time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockSpan {
    /// Index of the block's first instruction (a leader).
    pub start: usize,
    /// Exclusive end index.
    pub end: usize,
}

impl BlockSpan {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True for a degenerate empty span (never produced by [`basic_blocks`]).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Leader flags for an instruction stream: `true` at every index where a
/// basic block begins. Index 0, every branch target, and every instruction
/// following a control transfer (including `JSR` return points and the
/// fall-through of a conditional branch) are leaders.
pub fn block_leaders(instrs: &[Instr]) -> Vec<bool> {
    let mut leader = vec![false; instrs.len()];
    if let Some(l) = leader.first_mut() {
        *l = true;
    }
    for (i, instr) in instrs.iter().enumerate() {
        if instr.is_control_flow() {
            if let Some(t) = instr.target() {
                if t < leader.len() {
                    leader[t] = true;
                }
            }
            if i + 1 < leader.len() {
                leader[i + 1] = true;
            }
        }
    }
    leader
}

/// Partition an instruction stream into basic blocks (see [`BlockSpan`]).
///
/// The returned spans are in program order, non-empty, and tile `[0, len)`
/// exactly: every instruction belongs to exactly one block.
pub fn basic_blocks(instrs: &[Instr]) -> Vec<BlockSpan> {
    let leader = block_leaders(instrs);
    let mut blocks = Vec::new();
    let mut start = 0usize;
    for i in 0..instrs.len() {
        let last_of_block = instrs[i].is_control_flow() || i + 1 == instrs.len() || leader[i + 1];
        if last_of_block {
            blocks.push(BlockSpan { start, end: i + 1 });
            start = i + 1;
        }
    }
    blocks
}

/// Probability mass function of `popcount(U)` for `U ~ Uniform(0..2^16)`:
/// Binomial(16, ½).
fn popcount_pmf() -> [f64; 17] {
    let mut pmf = [0.0; 17];
    let mut c = 1f64;
    for (k, p) in pmf.iter_mut().enumerate() {
        *p = c / 65536.0;
        c = c * (16 - k) as f64 / (k + 1) as f64;
    }
    pmf
}

/// Expected `MULU` core time with a uniform random 16-bit multiplier: exactly
/// 38 + 2·8 = 54 cycles.
pub fn mulu_mean() -> f64 {
    let pmf = popcount_pmf();
    (0..=16)
        .map(|k| pmf[k] * timing::mulu_cycles_from_ones(k as u32) as f64)
        .sum()
}

/// Expected `MULU` time under lockstep with `p` processors drawing i.i.d.
/// uniform multipliers: `38 + 2·E[max of p Binomial(16,½)]`.
pub fn mulu_lockstep_mean(p: usize) -> f64 {
    assert!(p >= 1);
    let pmf = popcount_pmf();
    // CDF of one draw, then E[max] via P(max >= k).
    let mut cdf = [0.0f64; 17];
    let mut acc = 0.0;
    for k in 0..=16 {
        acc += pmf[k];
        cdf[k] = acc;
    }
    let mut e_max = 0.0;
    for k in 1..=16 {
        let below = cdf[k - 1];
        e_max += 1.0 - below.powi(p as i32); // P(max >= k)
    }
    38.0 + 2.0 * e_max
}

/// Expected extra cycles *per multiply* that the SIMD per-instruction barrier
/// costs over a single asynchronous stream: `mulu_lockstep_mean(p) − mulu_mean()`.
///
/// Note this is an upper bound on the *realizable* decoupling benefit: when
/// the multiplier is loop-invariant (as in the paper's inner loop) part of the
/// variance re-appears at the next coarser barrier — see the A1 ablation.
pub fn lockstep_premium(p: usize) -> f64 {
    mulu_lockstep_mean(p) - mulu_mean()
}

/// Static instruction-mix summary of a program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProgramStats {
    /// Instructions in the main stream.
    pub main_instrs: usize,
    /// Instructions across SIMD blocks.
    pub block_instrs: usize,
    /// Static count of data-dependent-time instructions (incl. blocks).
    pub variable_time_instrs: usize,
    /// Static count of multiplies/divides (incl. blocks).
    pub mul_div_instrs: usize,
    /// Static count of control-flow instructions in the main stream.
    pub control_instrs: usize,
    /// Total instruction words of the main stream.
    pub main_words: u32,
}

/// Compute the static summary.
pub fn program_stats(p: &Program) -> ProgramStats {
    let all = p.instrs.iter().chain(p.blocks.iter().flatten());
    let mut s = ProgramStats {
        main_instrs: p.instrs.len(),
        block_instrs: p.blocks.iter().map(Vec::len).sum(),
        main_words: p.words(),
        ..Default::default()
    };
    for i in all {
        if is_data_dependent(i) {
            s.variable_time_instrs += 1;
        }
        if matches!(
            i,
            Instr::Mulu { .. } | Instr::Muls { .. } | Instr::Divu { .. } | Instr::Divs { .. }
        ) {
            s.mul_div_instrs += 1;
        }
    }
    s.control_instrs = p.instrs.iter().filter(|i| i.is_control_flow()).count();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;
    use crate::operand::{Ea, Size};
    use crate::reg::DataReg::*;

    #[test]
    fn mulu_bounds_span_the_envelope() {
        let b = instr_bounds(&Instr::Mulu {
            src: Ea::D(D1),
            dst: D0,
        });
        assert_eq!(b, TimingBounds { min: 38, max: 70 });
        assert_eq!(b.spread(), 32);
    }

    #[test]
    fn divu_bounds_cover_early_out_and_worst_case() {
        let b = instr_bounds(&Instr::Divu {
            src: Ea::D(D1),
            dst: D0,
        });
        assert_eq!(b.min, 10);
        assert_eq!(b.max, 76 + 4 * 16);
    }

    #[test]
    fn fixed_instructions_have_zero_spread() {
        let b = instr_bounds(&Instr::Moveq { value: 1, dst: D0 });
        assert_eq!(b.spread(), 0);
        assert_eq!(b.min, 4);
    }

    #[test]
    fn branch_bounds() {
        let b = instr_bounds(&Instr::Bcc {
            cond: crate::Cond::Ne,
            target: 0,
        });
        assert_eq!(b, TimingBounds { min: 10, max: 12 });
        let b = instr_bounds(&Instr::Dbra { dst: D0, target: 0 });
        assert_eq!(b, TimingBounds { min: 10, max: 14 });
    }

    #[test]
    fn block_bounds_add_up() {
        let blk = [
            Instr::Move {
                size: Size::Word,
                src: Ea::D(D1),
                dst: Ea::D(D0),
            }, // 4
            Instr::Mulu {
                src: Ea::D(D1),
                dst: D0,
            }, // 38..70
        ];
        assert_eq!(block_bounds(&blk), TimingBounds { min: 42, max: 74 });
    }

    #[test]
    fn mulu_mean_is_54() {
        assert!((mulu_mean() - 54.0).abs() < 1e-9);
    }

    #[test]
    fn lockstep_mean_grows_with_p_and_is_bounded() {
        assert!((mulu_lockstep_mean(1) - 54.0).abs() < 1e-9);
        let mut prev = 54.0;
        for p in [2usize, 4, 8, 16, 64] {
            let m = mulu_lockstep_mean(p);
            assert!(m > prev, "p={p}");
            assert!(m < 70.0);
            prev = m;
        }
        // For p=4 the premium is ≈ 2·2.0 ± 0.5 cycles (max of 4 binomials).
        let prem = lockstep_premium(4);
        assert!((3.0..6.0).contains(&prem), "premium {prem}");
    }

    #[test]
    fn data_dependence_classifier() {
        assert!(is_data_dependent(&Instr::Mulu {
            src: Ea::D(D1),
            dst: D0
        }));
        assert!(is_data_dependent(&Instr::Divs {
            src: Ea::D(D1),
            dst: D0
        }));
        assert!(!is_data_dependent(&Instr::Nop));
        assert!(!is_data_dependent(&Instr::Bcc {
            cond: Cond::True,
            target: 0
        }));
        assert!(is_data_dependent(&Instr::Bcc {
            cond: Cond::Eq,
            target: 0
        }));
        assert!(!is_data_dependent(&Instr::Shift {
            kind: crate::ShiftKind::Lsl,
            size: Size::Word,
            count: ShiftCount::Imm(4),
            dst: D0,
        }));
        assert!(is_data_dependent(&Instr::Shift {
            kind: crate::ShiftKind::Lsl,
            size: Size::Word,
            count: ShiftCount::Reg(D1),
            dst: D0,
        }));
    }

    #[test]
    fn basic_blocks_of_a_loop() {
        // 0: MOVEQ          \ block [0,2): falls into the loop head
        // 1: MOVEQ          /
        // 2: ADD            \ block [2,4): loop body, ends at the DBRA
        // 3: DBRA -> 2      /
        // 4: NOP            \ block [4,6): DBRA fall-through, ends at HALT
        // 5: HALT           /
        let instrs = [
            Instr::Moveq { value: 0, dst: D0 },
            Instr::Moveq { value: 7, dst: D1 },
            Instr::Add {
                size: Size::Word,
                src: Ea::D(D1),
                dst: D0,
            },
            Instr::Dbra { dst: D1, target: 2 },
            Instr::Nop,
            Instr::Halt,
        ];
        let blocks = basic_blocks(&instrs);
        assert_eq!(
            blocks,
            vec![
                BlockSpan { start: 0, end: 2 },
                BlockSpan { start: 2, end: 4 },
                BlockSpan { start: 4, end: 6 },
            ]
        );
        for b in &blocks {
            assert!(!b.is_empty());
        }
        assert_eq!(blocks[1].len(), 2);
    }

    #[test]
    fn basic_blocks_tile_the_stream_exactly() {
        // A branch target mid-stream splits the fall-through block.
        let instrs = [
            Instr::Nop,
            Instr::Bcc {
                cond: crate::Cond::Eq,
                target: 3,
            },
            Instr::Nop, // leader: Bcc fall-through
            Instr::Nop, // leader: Bcc target
            Instr::Halt,
        ];
        let blocks = basic_blocks(&instrs);
        assert_eq!(
            blocks,
            vec![
                BlockSpan { start: 0, end: 2 },
                BlockSpan { start: 2, end: 3 },
                BlockSpan { start: 3, end: 5 },
            ]
        );
        // Tiling invariant: consecutive, non-empty, covering [0, len).
        let mut next = 0;
        for b in &blocks {
            assert_eq!(b.start, next);
            assert!(b.end > b.start);
            next = b.end;
        }
        assert_eq!(next, instrs.len());
        // Interior instructions are never control flow and never leaders.
        let leaders = block_leaders(&instrs);
        for b in &blocks {
            for i in b.start..b.end - 1 {
                assert!(!instrs[i].is_control_flow());
                if i > b.start {
                    assert!(!leaders[i]);
                }
            }
        }
    }

    #[test]
    fn basic_blocks_of_empty_and_straight_line_streams() {
        assert!(basic_blocks(&[]).is_empty());
        let instrs = [Instr::Nop, Instr::Nop, Instr::Nop];
        assert_eq!(basic_blocks(&instrs), vec![BlockSpan { start: 0, end: 3 }]);
    }

    #[test]
    fn stats_of_a_small_program() {
        let p = crate::asm::assemble(
            "
            t:  MULU D1,D0
                DIVU D2,D0
                LSR.W #1,D0
                DBRA D7,t
                HALT
            ",
        )
        .unwrap();
        let s = program_stats(&p);
        assert_eq!(s.main_instrs, 5);
        assert_eq!(s.mul_div_instrs, 2);
        assert_eq!(s.variable_time_instrs, 3); // MULU, DIVU, DBRA
        assert_eq!(s.control_instrs, 2); // DBRA, HALT
        assert!(s.main_words >= 5);
    }
}
