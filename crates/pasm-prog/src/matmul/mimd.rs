//! The pure-MIMD and hybrid S/MIMD matrix multiplications (paper §5.2, §5.3).
//!
//! Both run the full algorithm — all control flow included — on the PEs; the
//! MC only starts them (and, for S/MIMD, pre-enqueues the `n` barrier words:
//! [`mimd_mc_program`]). The two variants differ in exactly one place: the
//! communication handshake.
//! MIMD polls the network status register before every 8-bit network
//! operation; S/MIMD executes **one barrier per column transfer** and then
//! uses plain move instructions, because the transfer code itself has no
//! data-dependent instruction times — once aligned at the barrier, the PEs
//! stay aligned through the whole column.

use crate::codegen::*;
use crate::layout::{Layout, PARAM_BASE, TT_BASE};
use crate::matmul::{CommSync, MatmulParams};
use pasm_isa::{Ea, Instr, Program, ProgramBuilder, Size};

/// Build the PE program (identical for every PE; per-PE data comes from the
/// parameter area).
pub fn pe_program(params: MatmulParams, sync: CommSync) -> Program {
    let MatmulParams { n, p, extra_muls } = params;
    assert!(
        p >= 2,
        "the parallel program needs at least 2 PEs (serial is its own variant)"
    );
    let layout = Layout::parallel(n, p);
    let cols = layout.cols;

    let mut b = ProgramBuilder::new();

    // --- set-up: base registers and the per-PE B row pointer ---
    b.emit(lea_abs(TT_BASE, TT_BASE_R));
    b.emit(lea_abs(layout.c_base(), C_BASE_R));
    b.emit(Instr::Movea {
        size: Size::Long,
        src: Ea::AbsW(PARAM_BASE as u16),
        dst: B_ROW,
    });

    // --- clear C (measured: part of the paper's "other" contribution) ---
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_CLEAR,
    });
    b.emit(movea_a(C_BASE_R, C_PTR));
    b.emit(movei_w((cols * n - 1) as u32, CNT_MID));
    let clear = b.here("clear");
    b.emit(Instr::Clr {
        size: Size::Word,
        dst: Ea::PostInc(C_PTR),
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        clear,
    );
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_CLEAR,
    });

    // --- j loop: n rotation steps ---
    b.emit(movei_w((n - 1) as u32, CNT_OUT));
    let jloop = b.here("jloop");

    // multiplication section
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_MUL,
    });
    b.emit_all(j_setup());
    b.emit(movei_w((cols - 1) as u32, CNT_MID));
    let vloop = b.here("vloop");
    b.emit_all(v_setup(n));
    b.emit(movei_w((n - 1) as u32, XFER_HI)); // D6 doubles as the inner counter
    let lloop = b.here("lloop");
    b.emit_all(inner_body(extra_muls));
    b.branch(
        Instr::Dbra {
            dst: XFER_HI,
            target: 0,
        },
        lloop,
    );
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        vloop,
    );
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_MUL,
    });

    // communication section: ship logical column 0 (slot TT[0]) one position
    // left around the ring, receiving the right neighbour's column in place.
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_COMM,
    });
    if sync == CommSync::Barrier {
        b.emit(Instr::Barrier);
    }
    b.emit(Instr::Movea {
        size: Size::Long,
        src: Ea::Ind(TT_BASE_R),
        dst: A_PTR,
    });
    b.emit(movei_w((n - 1) as u32, CNT_MID));
    let xloop = b.here("xloop");
    xfer_element(sync == CommSync::Polling, &mut b);
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        xloop,
    );
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_COMM,
    });

    // rotate TT left: tmp = TT[0]; TT[v] = TT[v+1]; TT[last] = tmp.
    // (The "single memory move" pointer adjustment of paper §4.)
    if cols >= 2 {
        b.emit(Instr::Move {
            size: Size::Long,
            src: Ea::Ind(TT_BASE_R),
            dst: Ea::D(XFER_OUT),
        });
        b.emit(movea_a(TT_BASE_R, TT_PTR));
        b.emit(movei_w((cols - 2) as u32, CNT_MID));
        let rot = b.here("rot");
        b.emit(Instr::Move {
            size: Size::Long,
            src: Ea::Disp(4, TT_PTR),
            dst: Ea::PostInc(TT_PTR),
        });
        b.branch(
            Instr::Dbra {
                dst: CNT_MID,
                target: 0,
            },
            rot,
        );
        b.emit(Instr::Move {
            size: Size::Long,
            src: Ea::D(XFER_OUT),
            dst: Ea::Ind(TT_PTR),
        });
    }

    // advance the B row-start pointer and loop.
    b.emit(Instr::Addq {
        size: Size::Long,
        value: 2,
        dst: Ea::A(B_ROW),
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_OUT,
            target: 0,
        },
        jloop,
    );
    b.emit(Instr::Halt);

    b.build().expect("MIMD PE program")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn program_shapes() {
        let p = pe_program(MatmulParams::new(16, 4), CommSync::Polling);
        p.validate().unwrap();
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::Mulu { .. })));
        // Polling variant reads the status register; barrier variant does not.
        let polls = |p: &Program| {
            p.instrs
                .iter()
                .filter(
                    |i| matches!(i, Instr::Move { src, .. } if *src == pasm_machine::status_ea()),
                )
                .count()
        };
        assert_eq!(polls(&p), 4);
        assert!(!p.instrs.iter().any(|i| matches!(i, Instr::Barrier)));

        let q = pe_program(MatmulParams::new(16, 4), CommSync::Barrier);
        assert_eq!(polls(&q), 0);
        assert_eq!(
            q.instrs
                .iter()
                .filter(|i| matches!(i, Instr::Barrier))
                .count(),
            1
        );
    }

    #[test]
    fn extra_muls_appear_in_program() {
        let base = pe_program(MatmulParams::new(16, 4), CommSync::Polling);
        let extra = pe_program(MatmulParams::new(16, 4).with_extra(14), CommSync::Polling);
        let count = |p: &Program| {
            p.instrs
                .iter()
                .filter(|i| matches!(i, Instr::Mulu { .. }))
                .count()
        };
        assert_eq!(count(&extra), count(&base) + 14);
    }

    #[test]
    fn single_column_case_has_no_rotation_loop() {
        // n = p: one column per PE, nothing to rotate internally.
        let p = pe_program(MatmulParams::new(4, 4), CommSync::Polling);
        assert!(!p.instrs.iter().any(|i| matches!(
            i,
            Instr::Move {
                size: Size::Long,
                src: Ea::Disp(4, _),
                ..
            }
        )));
    }
}
