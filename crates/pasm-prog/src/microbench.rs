//! Raw-performance microbenchmarks (paper Table 1).
//!
//! The prototype's instruction rate was measured "with repeated blocks of
//! straight line code which were large enough to make the loop control
//! overlap insignificant", for two instruction classes, in both modes. These
//! generators produce exactly that: `unroll` copies of the measured
//! instruction inside a `reps`-iteration loop, either fetched from PE memory
//! (MIMD) or broadcast through the Fetch Unit queue (SIMD).

use crate::codegen::{lea_abs, movei_w, BOOTSTRAP_HALT};
use pasm_isa::{DataReg, Ea, Instr, Program, ProgramBuilder, Size};

/// The two instruction classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MipsKind {
    /// Register-to-register `ADD.W D1,D0` (4 cycles core).
    AddRegister,
    /// Memory-to-register `MOVE.W (A0),D0` (8 cycles core + a data access).
    MoveMemory,
}

impl MipsKind {
    fn instr(self) -> Instr {
        match self {
            MipsKind::AddRegister => Instr::Add {
                size: Size::Word,
                src: Ea::D(DataReg::D1),
                dst: DataReg::D0,
            },
            MipsKind::MoveMemory => Instr::Move {
                size: Size::Word,
                src: Ea::Ind(pasm_isa::AddrReg::A0),
                dst: Ea::D(DataReg::D0),
            },
        }
    }

    /// Human-readable mnemonic for result tables.
    pub fn name(self) -> &'static str {
        match self {
            MipsKind::AddRegister => "ADD.W Dn,Dn",
            MipsKind::MoveMemory => "MOVE.W (An),Dn",
        }
    }
}

/// Scratch address the memory variant reads from.
const SCRATCH: u32 = 0x1000;

/// MIMD version: the PE runs the unrolled loop from its own memory.
pub fn mimd_program(kind: MipsKind, unroll: usize, reps: usize) -> Program {
    let mut b = ProgramBuilder::new();
    b.emit(lea_abs(SCRATCH, pasm_isa::AddrReg::A0));
    b.emit(movei_w(reps as u32 - 1, DataReg::D7));
    let top = b.here("top");
    for _ in 0..unroll {
        b.emit(kind.instr());
    }
    b.branch(
        Instr::Dbra {
            dst: DataReg::D7,
            target: 0,
        },
        top,
    );
    b.emit(Instr::Halt);
    b.build().expect("MIPS MIMD program")
}

/// SIMD version: the MC loops and broadcasts the unrolled block (the PEs
/// run [`simd_bootstrap`](crate::codegen::simd_bootstrap)).
pub fn simd_mc_program(kind: MipsKind, unroll: usize, reps: usize, mask: u16) -> Program {
    let mut b = ProgramBuilder::new();
    let init = b.begin_block();
    b.emit(lea_abs(SCRATCH, pasm_isa::AddrReg::A0));
    b.end_block();
    let body = b.begin_block();
    for _ in 0..unroll {
        b.emit(kind.instr());
    }
    b.end_block();
    let done = b.begin_block();
    b.emit(Instr::JmpMimd {
        target: BOOTSTRAP_HALT,
    });
    b.end_block();

    b.emit(Instr::SetMask { mask });
    b.emit(Instr::StartPes);
    b.emit(Instr::Enqueue { block: init.0 });
    b.emit(movei_w(reps as u32 - 1, DataReg::D7));
    let top = b.here("top");
    b.emit(Instr::Enqueue { block: body.0 });
    b.branch(
        Instr::Dbra {
            dst: DataReg::D7,
            target: 0,
        },
        top,
    );
    b.emit(Instr::Enqueue { block: done.0 });
    b.emit(Instr::Halt);
    b.build().expect("MIPS MC program")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mimd_program_shape() {
        let p = mimd_program(MipsKind::AddRegister, 16, 10);
        p.validate().unwrap();
        let adds = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Add { .. }))
            .count();
        assert_eq!(adds, 16);
    }

    #[test]
    fn simd_program_shape() {
        let mc = simd_mc_program(MipsKind::MoveMemory, 16, 10, 0xF);
        mc.validate().unwrap();
        let moves = mc.blocks[1]
            .iter()
            .filter(|i| matches!(i, Instr::Move { .. }))
            .count();
        assert_eq!(moves, 16);
    }

    #[test]
    fn kinds_have_names() {
        assert!(MipsKind::AddRegister.name().contains("ADD"));
        assert!(MipsKind::MoveMemory.name().contains("MOVE"));
    }
}
