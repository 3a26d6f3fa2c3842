//! Global-sum reduction: a second, communication-dominated workload.
//!
//! Each PE holds a block of 16-bit values; after a local sum, the partial
//! results travel around the same `PE i → PE (i−1)` ring the matrix multiply
//! uses, with every PE forwarding what it received and accumulating — after
//! p−1 steps every PE holds the global (wrapping) sum.
//!
//! Where the matrix multiplication is compute-dominated (O(n³/p) multiply vs
//! O(n²) transfer), the reduction inverts the ratio: O(K) local adds against
//! O(p) synchronized transfers. It therefore isolates the paper's
//! *communication* comparison — polled MIMD handshakes vs barrier-synchronized
//! moves vs SIMD lockstep — with almost no multiply-variance in the way.

use crate::codegen::*;
use crate::matmul::{CommSync, MatmulParams};
use pasm_isa::{DataReg, Ea, Instr, Program, ProgramBuilder, Size};

/// Base address of each PE's input block.
pub const VEC_BASE: u32 = 0x2000;
/// Status-register bit *positions* (BTST takes positions, not masks).
const TX_READY_BIT: u8 = 0;
const RX_VALID_BIT: u8 = 1;
/// Address where each PE stores the final global sum.
pub const RESULT_ADDR: u32 = 0x0200;

/// Host reference: wrapping 16-bit sum of all blocks.
pub fn reference_sum(blocks: &[Vec<u16>]) -> u16 {
    blocks
        .iter()
        .flatten()
        .fold(0u16, |a, &v| a.wrapping_add(v))
}

/// Emit the two-byte ring transfer of `D4`, receiving into `D5`
/// (shared by the MIMD/S-MIMD PE program and the SIMD block).
fn emit_exchange(b: &mut ProgramBuilder, polls: bool) {
    // Reuse the matmul element protocol but on a register, not memory:
    // send low, receive low, send high, receive high, reassemble.
    use pasm_machine::{drr_ea, dtr_ea};
    b.emit(Instr::Clr {
        size: Size::Word,
        dst: Ea::D(XFER_IN),
    });
    if polls {
        emit_status_poll(b, TX_READY_BIT);
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: Ea::D(XFER_OUT),
        dst: dtr_ea(),
    });
    if polls {
        emit_status_poll(b, RX_VALID_BIT);
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: drr_ea(),
        dst: Ea::D(XFER_IN),
    });
    b.emit(Instr::Shift {
        kind: pasm_isa::ShiftKind::Lsr,
        size: Size::Word,
        count: pasm_isa::ShiftCount::Imm(8),
        dst: XFER_OUT,
    });
    if polls {
        emit_status_poll(b, TX_READY_BIT);
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: Ea::D(XFER_OUT),
        dst: dtr_ea(),
    });
    if polls {
        emit_status_poll(b, RX_VALID_BIT);
    }
    b.emit(Instr::Move {
        size: Size::Byte,
        src: drr_ea(),
        dst: Ea::D(XFER_HI),
    });
    b.emit(Instr::Shift {
        kind: pasm_isa::ShiftKind::Lsl,
        size: Size::Word,
        count: pasm_isa::ShiftCount::Imm(8),
        dst: XFER_HI,
    });
    b.emit(Instr::Or {
        size: Size::Word,
        src: Ea::D(XFER_HI),
        dst: XFER_IN,
    });
}

/// Status poll using `BTST` (tighter than the AND/BEQ idiom of the matmul —
/// both protocols existed on the prototype).
fn emit_status_poll(b: &mut ProgramBuilder, bit: u8) {
    let top = b.here(format!("L{}", b.position()));
    b.emit(Instr::Btst {
        bit,
        dst: pasm_machine::status_ea(),
    });
    b.branch(
        Instr::Bcc {
            cond: pasm_isa::Cond::Eq,
            target: 0,
        },
        top,
    );
}

/// PE program for the MIMD (polling) and S/MIMD (barrier) variants over `n`
/// values on `p` PEs (`params.extra_muls` is unused). The MC program is
/// [`mimd_mc_program`] with `p − 1` barrier words, one per ring step.
pub fn pe_program(params: MatmulParams, sync: CommSync) -> Program {
    let (k, p) = (params.n / params.p, params.p);
    assert!(p >= 2 && k >= 1);
    let mut b = ProgramBuilder::new();

    // Local sum.
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_LSUM,
    });
    b.emit(lea_abs(VEC_BASE, A_PTR));
    b.emit(Instr::Clr {
        size: Size::Word,
        dst: Ea::D(PROD),
    });
    b.emit(movei_w(k as u32 - 1, CNT_MID));
    let lsum = b.here("lsum");
    b.emit(Instr::Add {
        size: Size::Word,
        src: Ea::PostInc(A_PTR),
        dst: PROD,
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_MID,
            target: 0,
        },
        lsum,
    );

    // Ring accumulation: forward what arrived, add it, p-1 times.
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_LSUM,
    });
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_COMM,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(PROD),
        dst: Ea::D(XFER_OUT),
    });
    b.emit(movei_w(p as u32 - 2, CNT_OUT));
    let step = b.here("step");
    if sync == CommSync::Barrier {
        b.emit(Instr::Barrier);
    }
    emit_exchange(&mut b, sync == CommSync::Polling);
    b.emit(Instr::Add {
        size: Size::Word,
        src: Ea::D(XFER_IN),
        dst: PROD,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(XFER_IN),
        dst: Ea::D(XFER_OUT),
    });
    b.branch(
        Instr::Dbra {
            dst: CNT_OUT,
            target: 0,
        },
        step,
    );

    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_COMM,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(PROD),
        dst: Ea::AbsW(RESULT_ADDR as u16),
    });
    b.emit(Instr::Halt);
    b.build().expect("reduction PE program")
}

/// SIMD variant: the MC drives the local-sum loop and the ring steps (the
/// PEs run [`simd_bootstrap`]).
pub fn simd_mc_program(params: MatmulParams, mask: u16) -> Program {
    let (k, p) = (params.n / params.p, params.p);
    assert!(p >= 2 && k >= 1);

    let mut b = ProgramBuilder::new();
    let init = b.begin_block();
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_LSUM,
    });
    b.emit(lea_abs(VEC_BASE, A_PTR));
    b.emit(Instr::Clr {
        size: Size::Word,
        dst: Ea::D(PROD),
    });
    b.end_block();

    let add = b.begin_block();
    b.emit(Instr::Add {
        size: Size::Word,
        src: Ea::PostInc(A_PTR),
        dst: PROD,
    });
    b.end_block();

    let ring_init = b.begin_block();
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_LSUM,
    });
    b.emit(Instr::Mark {
        begin: true,
        phase: PHASE_COMM,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(PROD),
        dst: Ea::D(XFER_OUT),
    });
    b.end_block();

    let exch = b.begin_block();
    emit_exchange(&mut b, false);
    b.emit(Instr::Add {
        size: Size::Word,
        src: Ea::D(XFER_IN),
        dst: PROD,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(XFER_IN),
        dst: Ea::D(XFER_OUT),
    });
    b.end_block();

    let done = b.begin_block();
    b.emit(Instr::Mark {
        begin: false,
        phase: PHASE_COMM,
    });
    b.emit(Instr::Move {
        size: Size::Word,
        src: Ea::D(PROD),
        dst: Ea::AbsW(RESULT_ADDR as u16),
    });
    b.emit(Instr::JmpMimd {
        target: BOOTSTRAP_HALT,
    });
    b.end_block();

    b.emit(Instr::SetMask { mask });
    b.emit(Instr::StartPes);
    b.emit(Instr::Enqueue { block: init.0 });
    b.emit(movei_w(k as u32 - 1, DataReg::D6));
    let l = b.here("mcsum");
    b.emit(Instr::Enqueue { block: add.0 });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D6,
            target: 0,
        },
        l,
    );
    b.emit(Instr::Enqueue { block: ring_init.0 });
    b.emit(movei_w(p as u32 - 2, DataReg::D7));
    let s = b.here("mcstep");
    b.emit(Instr::Enqueue { block: exch.0 });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D7,
            target: 0,
        },
        s,
    );
    b.emit(Instr::Enqueue { block: done.0 });
    b.emit(Instr::Halt);
    b.build().expect("SIMD reduction MC program")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn programs_build_for_ring_sizes() {
        for p in [2usize, 4, 8, 16] {
            let params = MatmulParams::new(32 * p, p);
            pe_program(params, CommSync::Polling).validate().unwrap();
            pe_program(params, CommSync::Barrier).validate().unwrap();
            simd_mc_program(params, 0xF).validate().unwrap();
        }
    }

    #[test]
    fn reference_sum_wraps() {
        let blocks = vec![vec![0xFFFFu16, 2], vec![3]];
        assert_eq!(reference_sum(&blocks), 4);
    }

    #[test]
    fn polling_variant_uses_btst() {
        let p = pe_program(MatmulParams::new(32, 4), CommSync::Polling);
        assert!(p.instrs.iter().any(|i| matches!(i, Instr::Btst { .. })));
        let q = pe_program(MatmulParams::new(32, 4), CommSync::Barrier);
        assert!(!q.instrs.iter().any(|i| matches!(i, Instr::Btst { .. })));
        assert_eq!(
            q.instrs
                .iter()
                .filter(|i| matches!(i, Instr::Barrier))
                .count(),
            1
        );
    }
}
