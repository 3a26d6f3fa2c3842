//! A small two-pass text assembler for the reduced instruction set.
//!
//! The experiment programs are generated programmatically (see `pasm-prog`),
//! but a textual form is invaluable for tests, examples, and exploration:
//!
//! ```
//! let src = "
//!     ; sum 10 words starting at (A0) into D0
//!         MOVEQ   #0,D0
//!         MOVEQ   #9,D1
//! loop:   ADD.W   (A0)+,D0
//!         DBRA    D1,loop
//!         HALT
//! ";
//! let prog = pasm_isa::asm::assemble(src).unwrap();
//! assert_eq!(prog.instrs.len(), 5);
//! assert_eq!(prog.symbols["loop"], 2);
//! ```
//!
//! ## Syntax
//!
//! * one instruction per line; `;` starts a comment,
//! * labels are `name:` (alone or before an instruction on the same line),
//! * size suffixes `.B`, `.W`, `.L` (default `.W`),
//! * operands: `Dn`, `An`, `(An)`, `(An)+`, `-(An)`, `d(An)`, `$addr.W`,
//!   `$addr.L`, `#imm` (decimal, `$hex`, or `%binary`),
//! * SIMD blocks are bracketed by `.block`/`.endblock`; `ENQUEUE #n` refers to
//!   the n-th block in order of appearance,
//! * PASM ops: `JMPSIMD`, `JMPMIMD label`, `BARRIER`, `SETMASK #m`,
//!   `ENQUEUE #b`, `ENQWORDS #n`, `STARTPES`, `MARKB #p`, `MARKE #p`, `HALT`.

mod parse;

pub use parse::{assemble, AsmError};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Cond, Instr};
    use crate::operand::{Ea, Size};
    use crate::reg::{AddrReg::*, DataReg::*};

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            "
            start:  MOVE.W  #42,D0
                    MOVE.W  D0,(A0)+
                    BRA     start
            ",
        )
        .unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Move {
                size: Size::Word,
                src: Ea::Imm(42),
                dst: Ea::D(D0)
            }
        );
        assert_eq!(
            p.instrs[1],
            Instr::Move {
                size: Size::Word,
                src: Ea::D(D0),
                dst: Ea::PostInc(A0)
            }
        );
        assert_eq!(
            p.instrs[2],
            Instr::Bcc {
                cond: Cond::True,
                target: 0
            }
        );
    }

    #[test]
    fn assembles_addressing_modes() {
        let p = assemble(
            "
            MOVE.B  -(A1),D1
            MOVE.L  8(A2),D2
            MOVE.W  -6(A3),D3
            MOVE.W  $1F00.W,D4
            MOVE.W  $00FF0000.L,D5
            MOVE.W  #$FF,D6
            MOVE.W  #%1010,D7
            ",
        )
        .unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Move {
                size: Size::Byte,
                src: Ea::PreDec(A1),
                dst: Ea::D(D1)
            }
        );
        assert_eq!(
            p.instrs[1],
            Instr::Move {
                size: Size::Long,
                src: Ea::Disp(8, A2),
                dst: Ea::D(D2)
            }
        );
        assert_eq!(
            p.instrs[2],
            Instr::Move {
                size: Size::Word,
                src: Ea::Disp(-6, A3),
                dst: Ea::D(D3)
            }
        );
        assert_eq!(
            p.instrs[3],
            Instr::Move {
                size: Size::Word,
                src: Ea::AbsW(0x1F00),
                dst: Ea::D(D4)
            }
        );
        assert_eq!(
            p.instrs[4],
            Instr::Move {
                size: Size::Word,
                src: Ea::AbsL(0xFF0000),
                dst: Ea::D(D5)
            }
        );
        assert_eq!(
            p.instrs[5],
            Instr::Move {
                size: Size::Word,
                src: Ea::Imm(0xFF),
                dst: Ea::D(D6)
            }
        );
        assert_eq!(
            p.instrs[6],
            Instr::Move {
                size: Size::Word,
                src: Ea::Imm(0b1010),
                dst: Ea::D(D7)
            }
        );
    }

    #[test]
    fn assembles_arith_and_mul() {
        let p = assemble(
            "
            ADD.W   (A0)+,D0
            ADD.W   D0,(A1)
            ADDA.L  D1,A2
            ADDQ.W  #4,D3
            SUBQ.L  #1,A4
            MULU    D1,D0
            MULS    (A0),D2
            LSR.W   #8,D4
            LSL.L   D5,D6
            SWAP    D7
            ",
        )
        .unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Add {
                size: Size::Word,
                src: Ea::PostInc(A0),
                dst: D0
            }
        );
        assert_eq!(
            p.instrs[1],
            Instr::AddTo {
                size: Size::Word,
                src: D0,
                dst: Ea::Ind(A1)
            }
        );
        assert_eq!(
            p.instrs[2],
            Instr::Adda {
                size: Size::Long,
                src: Ea::D(D1),
                dst: A2
            }
        );
        assert_eq!(
            p.instrs[3],
            Instr::Addq {
                size: Size::Word,
                value: 4,
                dst: Ea::D(D3)
            }
        );
        assert_eq!(
            p.instrs[4],
            Instr::Subq {
                size: Size::Long,
                value: 1,
                dst: Ea::A(A4)
            }
        );
        assert_eq!(
            p.instrs[5],
            Instr::Mulu {
                src: Ea::D(D1),
                dst: D0
            }
        );
        assert_eq!(
            p.instrs[6],
            Instr::Muls {
                src: Ea::Ind(A0),
                dst: D2
            }
        );
        assert!(matches!(p.instrs[7], Instr::Shift { .. }));
        assert!(matches!(p.instrs[8], Instr::Shift { .. }));
        assert_eq!(p.instrs[9], Instr::Swap { dst: D7 });
    }

    #[test]
    fn assembles_blocks_and_pasm_ops() {
        let p = assemble(
            "
                    SETMASK #$000F
            .block
                    NOP
                    JMPMIMD done
            .endblock
                    ENQUEUE #0
                    ENQWORDS #16
                    STARTPES
            done:   HALT
            ",
        )
        .unwrap();
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(p.blocks[0][0], Instr::Nop);
        assert_eq!(p.blocks[0][1].target(), Some(4)); // `done` follows STARTPES
        assert_eq!(p.instrs[0], Instr::SetMask { mask: 0x000F });
        assert_eq!(p.instrs[1], Instr::Enqueue { block: 0 });
        assert_eq!(p.instrs[2], Instr::EnqueueWords { count: 16 });
        assert_eq!(p.instrs[3], Instr::StartPes);
    }

    #[test]
    fn errors_are_reported_with_line_numbers() {
        let err = assemble("  BOGUS D0\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = assemble("\n MOVE.W D9,D0\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = assemble(" BRA nowhere\n").unwrap_err();
        assert!(err.to_string().contains("nowhere"), "{err}");
    }

    #[test]
    fn roundtrip_display_of_each_parsed_instruction() {
        // Every parsed instruction must render through Display without panicking.
        let p = assemble(
            "
            x:  MOVEQ #-3,D0
                CLR.W (A0)
                NOT.W D1
                NEG.B D2
                EXT.L D3
                CMP.W (A0)+,D4
                CMPA.L A1,A2
                CMPI.W #7,D5
                TST.W (A6)
                BNE x
                BEQ x
                BGT x
                JSR x
                RTS
                NOP
                JMPSIMD
                BARRIER
                MARKB #1
                MARKE #1
                HALT
            ",
        )
        .unwrap();
        for i in &p.instrs {
            let _ = i.to_string();
        }
        assert_eq!(p.instrs.len(), 20);
    }
}
