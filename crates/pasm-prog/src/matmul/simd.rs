//! The pure-SIMD matrix multiplication (paper §5.1).
//!
//! All looping and control flow runs on the MC; the PEs receive only
//! arithmetic, data movement, and network moves through the Fetch Unit queue.
//! The PE-side instruction stream is therefore *straight-line*: every loop
//! iteration is a fresh enqueue command by the MC, whose own execution is
//! overlapped with the PEs' work as long as the queue stays non-empty — the
//! source of the paper's control-flow-overlap benefit and superlinear
//! speed-up. Network transfers need no handshake at all: the per-instruction
//! release keeps all PEs of a group in lockstep.
//!
//! The PE programs themselves are the shared two-instruction
//! [`simd_bootstrap`].

use crate::codegen::*;
use crate::layout::{Layout, PARAM_BASE, TT_BASE};
use crate::matmul::MatmulParams;
use pasm_isa::{Ea, Instr, Program, ProgramBuilder, Size};

/// The MC control program: loops on the MC, work broadcast through blocks.
pub fn mc_program(params: MatmulParams, mask: u16) -> Program {
    let MatmulParams { n, p, extra_muls } = params;
    assert!(p >= 2, "the parallel program needs at least 2 PEs");
    let layout = Layout::parallel(n, p);
    let cols = layout.cols;

    let mut b = ProgramBuilder::new();

    // --- SIMD blocks (the Fetch Unit RAM contents) ---
    let blk_init = b.begin_block();
    b.emit(lea_abs(TT_BASE, TT_BASE_R));
    b.emit(lea_abs(layout.c_base(), C_BASE_R));
    b.emit(Instr::Movea {
        size: Size::Long,
        src: Ea::AbsW(PARAM_BASE as u16),
        dst: B_ROW,
    });
    b.emit(movea_a(C_BASE_R, C_PTR));
    b.end_block();

    // C clearing, unrolled so the PEs (not MC command issue) set the pace.
    // Largest factor ≤ 8 that tiles the loop exactly: 8 for the paper's
    // power-of-two sizes, smaller when n²/p has an odd factor.
    let unroll = (1..=8.min(cols * n))
        .rev()
        .find(|u| (cols * n).is_multiple_of(*u))
        .unwrap_or(1);
    let blk_clear = b.begin_block();
    for _ in 0..unroll {
        b.emit(Instr::Clr {
            size: Size::Word,
            dst: Ea::PostInc(C_PTR),
        });
    }
    b.end_block();

    let blk_jsetup = b.begin_block();
    for i in j_setup() {
        b.emit(i);
    }
    b.end_block();

    let blk_vsetup = b.begin_block();
    for i in v_setup(n) {
        b.emit(i);
    }
    b.end_block();

    let blk_inner = b.begin_block();
    for i in inner_body(extra_muls) {
        b.emit(i);
    }
    b.end_block();

    let blk_xsetup = b.begin_block();
    b.emit(Instr::Movea {
        size: Size::Long,
        src: Ea::Ind(TT_BASE_R),
        dst: A_PTR,
    });
    b.end_block();

    let blk_xfer = b.begin_block();
    xfer_element(false, &mut b);
    b.end_block();

    let (blk_rot_save, blk_rot_step, blk_rot_fin) = if cols >= 2 {
        let save = b.begin_block();
        b.emit(Instr::Move {
            size: Size::Long,
            src: Ea::Ind(TT_BASE_R),
            dst: Ea::D(XFER_OUT),
        });
        b.emit(movea_a(TT_BASE_R, TT_PTR));
        b.end_block();
        let step = b.begin_block();
        b.emit(Instr::Move {
            size: Size::Long,
            src: Ea::Disp(4, TT_PTR),
            dst: Ea::PostInc(TT_PTR),
        });
        b.end_block();
        let fin = b.begin_block();
        b.emit(Instr::Move {
            size: Size::Long,
            src: Ea::D(XFER_OUT),
            dst: Ea::Ind(TT_PTR),
        });
        b.end_block();
        (Some(save), Some(step), Some(fin))
    } else {
        (None, None, None)
    };

    let blk_jend = b.begin_block();
    b.emit(Instr::Addq {
        size: Size::Long,
        value: 2,
        dst: Ea::A(B_ROW),
    });
    b.end_block();

    // Phase markers travel through the queue so they execute on the PEs'
    // timeline (the MC runs ahead of its PEs by the queue depth).
    let mark = |b: &mut ProgramBuilder, begin: bool, phase: u8| {
        let blk = b.begin_block();
        b.emit(Instr::Mark { begin, phase });
        b.end_block();
        blk
    };
    let blk_mb1 = mark(&mut b, true, PHASE_MUL);
    let blk_me1 = mark(&mut b, false, PHASE_MUL);
    let blk_mb2 = mark(&mut b, true, PHASE_COMM);
    let blk_me2 = mark(&mut b, false, PHASE_COMM);
    let blk_cb = mark(&mut b, true, PHASE_CLEAR);
    let blk_ce = mark(&mut b, false, PHASE_CLEAR);

    let blk_done = b.begin_block();
    b.emit(Instr::JmpMimd {
        target: BOOTSTRAP_HALT,
    });
    b.emit(Instr::Halt); // broadcast halt is unreachable; JMPMIMD lands on the PE's own HALT
    b.end_block();

    // --- MC main program ---
    b.emit(Instr::SetMask { mask });
    b.emit(Instr::StartPes);
    b.emit(Instr::Enqueue { block: blk_init.0 });

    b.emit(Instr::Enqueue { block: blk_cb.0 });
    b.emit(movei_w((cols * n / unroll - 1) as u32, CNT_MID));
    let mcclear = b.here("mcclear");
    b.emit(Instr::Enqueue { block: blk_clear.0 });
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        mcclear,
    );
    b.emit(Instr::Enqueue { block: blk_ce.0 });

    b.emit(movei_w((n - 1) as u32, CNT_OUT));
    let mcj = b.here("mcj");
    b.emit(Instr::Enqueue { block: blk_mb1.0 });
    b.emit(Instr::Enqueue {
        block: blk_jsetup.0,
    });
    b.emit(movei_w((cols - 1) as u32, CNT_MID));
    let mcv = b.here("mcv");
    b.emit(Instr::Enqueue {
        block: blk_vsetup.0,
    });
    b.emit(movei_w((n - 1) as u32, XFER_HI));
    let mcl = b.here("mcl");
    b.emit(Instr::Enqueue { block: blk_inner.0 });
    b.branch(
        Instr::Dbra {
            dst: XFER_HI,
            target: 0,
        },
        mcl,
    );
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        mcv,
    );
    b.emit(Instr::Enqueue { block: blk_me1.0 });

    b.emit(Instr::Enqueue { block: blk_mb2.0 });
    b.emit(Instr::Enqueue {
        block: blk_xsetup.0,
    });
    b.emit(movei_w((n - 1) as u32, CNT_MID));
    let mcx = b.here("mcx");
    b.emit(Instr::Enqueue { block: blk_xfer.0 });
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        mcx,
    );
    b.emit(Instr::Enqueue { block: blk_me2.0 });

    if let (Some(save), Some(step), Some(fin)) = (blk_rot_save, blk_rot_step, blk_rot_fin) {
        b.emit(Instr::Enqueue { block: save.0 });
        b.emit(movei_w((cols - 2) as u32, CNT_MID));
        let mcr = b.here("mcr");
        b.emit(Instr::Enqueue { block: step.0 });
        b.branch(
            Instr::Dbra {
                dst: CNT_MID,
                target: 0,
            },
            mcr,
        );
        b.emit(Instr::Enqueue { block: fin.0 });
    }

    b.emit(Instr::Enqueue { block: blk_jend.0 });
    b.branch(
        Instr::Dbra {
            dst: CNT_OUT,
            target: 0,
        },
        mcj,
    );

    b.emit(Instr::Enqueue { block: blk_done.0 });
    b.emit(Instr::Halt);

    b.build().expect("SIMD MC program")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_program_builds_for_paper_sizes() {
        for (n, p) in [
            (4usize, 4usize),
            (8, 4),
            (8, 8),
            (16, 16),
            (64, 4),
            (256, 4),
        ] {
            let prog = mc_program(MatmulParams::new(n, p), 0xF);
            prog.validate().unwrap();
            assert!(prog.blocks.len() >= 10, "n={n} p={p}");
            // No polling and no barriers anywhere in SIMD.
            for blk in &prog.blocks {
                assert!(!blk.iter().any(|i| matches!(i, Instr::Barrier)));
            }
        }
    }

    #[test]
    fn extra_muls_land_in_the_inner_block() {
        let p0 = mc_program(MatmulParams::new(16, 4), 0xF);
        let p14 = mc_program(MatmulParams::new(16, 4).with_extra(14), 0xF);
        let muls = |p: &Program| {
            p.blocks
                .iter()
                .flat_map(|b| b.iter())
                .filter(|i| matches!(i, Instr::Mulu { .. }))
                .count()
        };
        assert_eq!(muls(&p14), muls(&p0) + 14);
    }

    #[test]
    fn mc_main_has_no_pe_arithmetic() {
        // Control/enqueue only in the main stream: the paper's separation.
        let prog = mc_program(MatmulParams::new(16, 4), 0xF);
        assert!(!prog
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Mulu { .. } | Instr::AddTo { .. })));
    }
}
