//! Shared code-generation conventions for the experiment programs.
//!
//! Register allocation (identical in every matmul variant, so the variants
//! differ *only* in control placement and synchronization — the quantities
//! under study):
//!
//! | reg | role |
//! |-----|------|
//! | A0  | A-column element walker |
//! | A1  | C element walker |
//! | A2  | B element walker (stride 4n+2 per internal column) |
//! | A3  | TT table walker |
//! | A4  | TT base |
//! | A5  | B row-start pointer (advances 2 bytes per rotation step) |
//! | A6  | C base |
//! | D0  | product scratch |
//! | D1  | the multiplier `bval` (the data-dependent-timing operand) |
//! | D2  | middle loop counter |
//! | D3  | scratch destination of the *added* multiplies |
//! | D4  | transfer word out |
//! | D5  | transfer word in (low byte, then the assembled word) |
//! | D6  | transfer high byte / poll scratch / inner counter |
//! | D7  | outer (rotation-step) counter |

use crate::matmul::CommSync;
use pasm_isa::{
    AddrReg, Cond, DataReg, Ea, Instr, Program, ProgramBuilder, ShiftCount, ShiftKind, Size,
};

/// Phase id of the multiplication section (Figures 8–10 breakdown).
pub const PHASE_MUL: u8 = 1;
/// Phase id of the communication section.
pub const PHASE_COMM: u8 = 2;
/// Phase id of the C-clearing loop (part of the paper's "other" time).
pub const PHASE_CLEAR: u8 = 3;
/// Phase id of the stencil compute loop (image-smoothing kernel).
pub const PHASE_STENCIL: u8 = 4;
/// Phase id of the boundary-sample halo exchange (image-smoothing kernel).
pub const PHASE_HALO: u8 = 5;
/// Phase id of the local bitonic sorting network (bitonic-sort kernel).
pub const PHASE_SORT: u8 = 6;
/// Phase id of the global rank-counting loop (bitonic-sort kernel).
pub const PHASE_RANK: u8 = 7;
/// Phase id of the per-PE local sum (reduction kernel).
pub const PHASE_LSUM: u8 = 8;

/// Stable span name of a phase id (the `name` field of JSONL trace events).
pub fn phase_name(phase: u8) -> &'static str {
    match phase {
        PHASE_MUL => "mac_loop",
        PHASE_COMM => "recirculation_transfer",
        PHASE_CLEAR => "clear_loop",
        PHASE_STENCIL => "stencil_compute",
        PHASE_HALO => "halo_exchange",
        PHASE_SORT => "bitonic_network",
        PHASE_RANK => "rank_count",
        PHASE_LSUM => "local_sum",
        _ => "unknown",
    }
}

pub const A_PTR: AddrReg = AddrReg::A0;
pub const C_PTR: AddrReg = AddrReg::A1;
pub const B_PTR: AddrReg = AddrReg::A2;
pub const TT_PTR: AddrReg = AddrReg::A3;
pub const TT_BASE_R: AddrReg = AddrReg::A4;
pub const B_ROW: AddrReg = AddrReg::A5;
pub const C_BASE_R: AddrReg = AddrReg::A6;

pub const PROD: DataReg = DataReg::D0;
pub const BVAL: DataReg = DataReg::D1;
pub const CNT_MID: DataReg = DataReg::D2;
pub const MUL_SCRATCH: DataReg = DataReg::D3;
pub const XFER_OUT: DataReg = DataReg::D4;
pub const XFER_IN: DataReg = DataReg::D5;
pub const XFER_HI: DataReg = DataReg::D6;
pub const CNT_OUT: DataReg = DataReg::D7;

/// `MOVE.W #imm,Dn` (word immediate loop-count setup).
pub fn movei_w(v: u32, dst: DataReg) -> Instr {
    Instr::Move {
        size: Size::Word,
        src: Ea::Imm(v),
        dst: Ea::D(dst),
    }
}

/// `MOVEA.L #addr,An`.
pub fn lea_abs(addr: u32, dst: AddrReg) -> Instr {
    Instr::Movea {
        size: Size::Long,
        src: Ea::Imm(addr),
        dst,
    }
}

/// `MOVEA.L Asrc,Adst` (pointer copy).
pub fn movea_a(src: AddrReg, dst: AddrReg) -> Instr {
    Instr::Movea {
        size: Size::Long,
        src: Ea::A(src),
        dst,
    }
}

/// The inner-loop body: load an A element, multiply by `bval`, add into C,
/// plus `extra` straight-line multiplies that exercise data-dependent timing
/// without touching the result (paper §6: "added as straight line code in
/// order to prevent skewing of execution time data due to control flow
/// overlap ... and did not affect the values in the C matrix").
pub fn inner_body(extra: usize) -> Vec<Instr> {
    let mut v = Vec::with_capacity(3 + extra);
    v.push(Instr::Move {
        size: Size::Word,
        src: Ea::PostInc(A_PTR),
        dst: Ea::D(PROD),
    });
    v.push(Instr::Mulu {
        src: Ea::D(BVAL),
        dst: PROD,
    });
    for _ in 0..extra {
        v.push(Instr::Mulu {
            src: Ea::D(BVAL),
            dst: MUL_SCRATCH,
        });
    }
    v.push(Instr::AddTo {
        size: Size::Word,
        src: PROD,
        dst: Ea::PostInc(C_PTR),
    });
    v
}

/// Per-internal-column setup: next A-column pointer from TT, load `bval`,
/// advance the B walker by one doubled column plus one row (4n + 2 bytes).
pub fn v_setup(n: usize) -> Vec<Instr> {
    vec![
        Instr::Movea {
            size: Size::Long,
            src: Ea::PostInc(TT_PTR),
            dst: A_PTR,
        },
        Instr::Move {
            size: Size::Word,
            src: Ea::Ind(B_PTR),
            dst: Ea::D(BVAL),
        },
        Instr::Adda {
            size: Size::Word,
            src: Ea::Imm(4 * n as u32 + 2),
            dst: B_PTR,
        },
    ]
}

/// Per-rotation-step setup: reset the three walkers from their bases.
pub fn j_setup() -> Vec<Instr> {
    vec![
        movea_a(TT_BASE_R, TT_PTR),
        movea_a(C_BASE_R, C_PTR),
        movea_a(B_ROW, B_PTR),
    ]
}

/// One element of the 16-bit-over-8-bit column transfer (paper §4: two shift
/// operations, an OR, and two network operations per element). `polls` inserts
/// the MIMD status-polling handshake before every network operation; without
/// it the sequence relies on synchronized execution (SIMD / S-MIMD).
///
/// Reads the outgoing element at `(A0)`, writes the incoming element back to
/// the same slot, and advances `A0`.
pub fn xfer_element(polls: bool, b: &mut ProgramBuilder) {
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::Ind(A_PTR),
        dst: Ea::D(XFER_OUT),
    });
    // The received low byte lands in D5 with MOVE.B, which merges only the low
    // byte — clear the word first or the previous element's high byte survives
    // the OR.
    b.emit(Instr::Clr {
        size: Size::Word,
        dst: Ea::D(XFER_IN),
    });
    if polls {
        emit_poll(b, 1); // transmitter ready
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: Ea::D(XFER_OUT),
        dst: pasm_machine::dtr_ea(),
    });
    if polls {
        emit_poll(b, 2); // receive valid
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: pasm_machine::drr_ea(),
        dst: Ea::D(XFER_IN),
    });
    b.emit(Instr::Shift {
        kind: ShiftKind::Lsr,
        size: Size::Word,
        count: ShiftCount::Imm(8),
        dst: XFER_OUT,
    });
    if polls {
        emit_poll(b, 1);
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: Ea::D(XFER_OUT),
        dst: pasm_machine::dtr_ea(),
    });
    if polls {
        emit_poll(b, 2);
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: pasm_machine::drr_ea(),
        dst: Ea::D(XFER_HI),
    });
    b.emit(Instr::Shift {
        kind: ShiftKind::Lsl,
        size: Size::Word,
        count: ShiftCount::Imm(8),
        dst: XFER_HI,
    });
    b.emit(Instr::Or {
        size: Size::Word,
        src: Ea::D(XFER_HI),
        dst: XFER_IN,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(XFER_IN),
        dst: Ea::PostInc(A_PTR),
    });
}

/// Status-register poll loop: spin until `bit` (1 = tx ready, 2 = rx valid) is
/// set. This is the MIMD handshake the S/MIMD version replaces with a barrier.
fn emit_poll(b: &mut ProgramBuilder, bit: u32) {
    let top = b.here(format!("L{}", b.position()));
    b.emit(Instr::Move {
        size: Size::Byte,
        src: pasm_machine::status_ea(),
        dst: Ea::D(XFER_HI),
    });
    b.emit(Instr::And {
        size: Size::Word,
        src: Ea::Imm(bit),
        dst: XFER_HI,
    });
    b.branch(
        Instr::Bcc {
            cond: Cond::Eq,
            target: 0,
        },
        top,
    );
}

/// Index of the `HALT` in [`simd_bootstrap`]: the `JMPMIMD` target that
/// ends every SIMD program.
pub const BOOTSTRAP_HALT: usize = 1;

/// The PE program of every SIMD run: enter SIMD mode, and a halt the final
/// broadcast `JMPMIMD` jumps back to — mode switching on the prototype is
/// that cheap.
pub fn simd_bootstrap() -> Program {
    let mut b = ProgramBuilder::new();
    b.emit(Instr::JmpSimd);
    b.emit(Instr::Halt);
    b.build().expect("SIMD PE bootstrap")
}

/// The MC program of every MIMD and S/MIMD run: it only enables and starts
/// its PEs. For S/MIMD it first pre-enqueues the `barriers` barrier words
/// the PE program reads — the mechanism of paper §3: "the Fetch Unit Queue
/// is empty when the MIMD program completes".
pub fn mimd_mc_program(sync: CommSync, mask: u16, barriers: usize) -> Program {
    let mut b = ProgramBuilder::new();
    b.emit(Instr::SetMask { mask });
    if sync == CommSync::Barrier {
        b.emit(Instr::EnqueueWords {
            count: u16::try_from(barriers).expect("barrier count fits ENQWORDS"),
        });
    }
    b.emit(Instr::StartPes);
    b.emit(Instr::Halt);
    b.build().expect("MIMD MC program")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_body_length_scales_with_extras() {
        assert_eq!(inner_body(0).len(), 3);
        assert_eq!(inner_body(14).len(), 17);
        // All added multiplies target the scratch register, never the product.
        for i in &inner_body(5)[2..7] {
            assert_eq!(
                *i,
                Instr::Mulu {
                    src: Ea::D(BVAL),
                    dst: MUL_SCRATCH
                }
            );
        }
    }

    #[test]
    fn xfer_sequence_matches_paper_shape() {
        // Without polls: 2 network writes, 2 network reads, 2 shifts, 1 OR.
        let mut b = ProgramBuilder::new();
        xfer_element(false, &mut b);
        b.emit(Instr::Halt);
        let p = b.build().unwrap();
        let writes = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Move { dst, .. } if *dst == pasm_machine::dtr_ea()))
            .count();
        let reads = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Move { src, .. } if *src == pasm_machine::drr_ea()))
            .count();
        let shifts = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Shift { .. }))
            .count();
        let ors = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Or { .. }))
            .count();
        assert_eq!((writes, reads, shifts, ors), (2, 2, 2, 1));
    }

    #[test]
    fn polled_xfer_adds_four_poll_loops() {
        let mut b = ProgramBuilder::new();
        xfer_element(true, &mut b);
        b.emit(Instr::Halt);
        let p = b.build().unwrap();
        let polls = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Move { src, .. } if *src == pasm_machine::status_ea()))
            .count();
        assert_eq!(polls, 4);
    }

    #[test]
    fn bootstrap_is_two_instructions() {
        let p = simd_bootstrap();
        assert_eq!(p.instrs, vec![Instr::JmpSimd, Instr::Halt]);
        assert_eq!(p.instrs[BOOTSTRAP_HALT], Instr::Halt);
    }

    #[test]
    fn mc_program_variants() {
        let mimd = mimd_mc_program(CommSync::Polling, 0xF, 16);
        assert!(!mimd
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::EnqueueWords { .. })));
        let smimd = mimd_mc_program(CommSync::Barrier, 0xF, 16);
        assert!(smimd
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::EnqueueWords { count: 16 })));
    }
}
