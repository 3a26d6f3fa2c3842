//! The instruction table: one-time static analysis that turns a loaded
//! program into the table every executor reads.
//!
//! [`compile_program`] decodes, once per instruction of the main stream and
//! of every SIMD block, everything a step needs: the static/dynamic cycle
//! decomposition ([`pasm_isa::timing::cycle_split`]), the instruction
//! lowered to the handler of its (opcode, EA shape) ([`Op`]; the generic
//! interpreter for shapes without one), and a *stop* flag for instructions
//! that interact with the rest of the machine (mode switches, Fetch-Unit
//! commands, barriers, `HALT`, absolute network-register and timer
//! operands). The resulting
//! [`CompiledProgram`] is the machine's only copy of a loaded program: the
//! interpreter, the fast paths and the Fetch Unit all read their
//! instructions and timing from it, and all execute an entry through
//! [`crate::cpu::step`], so every step charges `split.static_cycles +
//! dynamic_cycles(split.dynamic, ctx)` and takes its `multiply_variance`
//! share from the same term ([`pasm_isa::timing::variance_cycles`]).
//!
//! The fast paths (see `machine.rs`) leap a MIMD PE through the table, and
//! run a SIMD broadcast on its whole group, without returning to the
//! global event scheduler, escaping to the per-instruction path at every
//! stop instruction or memory-mapped access. Tables are cached per
//! [`program_fingerprint`] and shared by every component running the same
//! program.
//!
//! Nothing is folded across instructions: DRAM refresh makes memory wait
//! states a function of the *absolute* cycle an access starts on, so every
//! path still prices the memory bursts per instruction (`docs/TIMING.md`).

use crate::cpu::Op;
use pasm_isa::timing::{cycle_split, CycleSplit};
use pasm_isa::{Ea, Instr, Program, Size};
use pasm_mem::map::{self, MemMap};
use pasm_util::Fnv1a;
use std::hash::{Hash, Hasher};

/// One instruction of a loaded program, decoded once: its timing facts and
/// the handler that executes it.
#[derive(Debug, Clone, Copy)]
pub struct InstrMeta {
    /// The instruction.
    pub instr: Instr,
    /// Precomputed static/dynamic cycle decomposition.
    pub split: CycleSplit,
    /// The instruction lowered to the handler of its (opcode, EA shape);
    /// [`Op::Generic`] runs the generic interpreter.
    pub op: Op,
    /// The fast paths must return to the event scheduler *before* executing
    /// this instruction: it halts, switches mode, talks to the Fetch Unit, or
    /// accesses a fixed memory-mapped address (see [`is_stop`]).
    pub stop: bool,
}

impl InstrMeta {
    /// The table entry of one instruction.
    pub fn of(instr: Instr) -> InstrMeta {
        InstrMeta {
            instr,
            split: cycle_split(&instr),
            op: Op::of(&instr),
            stop: is_stop(&instr),
        }
    }
}

/// A program compiled to its instruction table. Built once per distinct
/// program (see [`program_fingerprint`]) and shared by every PE/MC running
/// it.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// The main instruction stream, indexed by pc.
    pub meta: Vec<InstrMeta>,
    /// The program's SIMD blocks (the Fetch Unit RAM), block after block. A
    /// Fetch-Unit queue entry names its broadcast instruction by its index
    /// here.
    pub simd: Vec<InstrMeta>,
    /// Index into [`CompiledProgram::simd`] of each SIMD block's first
    /// instruction.
    pub simd_start: Vec<u32>,
}

impl CompiledProgram {
    /// SIMD block `b`: the index of its first instruction in
    /// [`CompiledProgram::simd`], and its instructions.
    pub fn simd_block(&self, b: usize) -> (u32, &[InstrMeta]) {
        let first = self.simd_start[b];
        let end = self
            .simd_start
            .get(b + 1)
            .map_or(self.simd.len(), |&e| e as usize);
        (first, &self.simd[first as usize..end])
    }
}

/// True for instructions the fast paths must not execute: they produce
/// machine-level effects (mode switches, barrier reads, Fetch-Unit commands,
/// PE start-up, halting) that require the global scheduler's view, or they
/// access a fixed address outside main memory (an absolute operand naming a
/// network register or the timer), which only the full PE bus serves. An
/// operand whose address is computed at run time (`(An)`, `d16(An)`) is
/// found only when the fast path's bus refuses it. [`Instr::Mark`] is *not*
/// a stop — the fast paths apply phase marks inline.
pub fn is_stop(i: &Instr) -> bool {
    let effect = matches!(
        i,
        Instr::JmpSimd
            | Instr::JmpMimd { .. }
            | Instr::Barrier
            | Instr::SetMask { .. }
            | Instr::Enqueue { .. }
            | Instr::EnqueueWords { .. }
            | Instr::StartPes
            | Instr::Halt
    );
    effect
        || accessed_operands(i)
            .into_iter()
            .flatten()
            .any(|ea| match ea {
                Ea::AbsW(w) => !MemMap.is_main(w as u32),
                Ea::AbsL(l) => !MemMap.is_main(l),
                _ => false,
            })
}

/// Whether `i` is a stop only because it moves one byte between a data
/// register and a network data register by absolute address:
/// `MOVE.B Dn,DTR` or `MOVE.B DRR,Dn`, the transfers of the kernels' SIMD
/// blocks. The SIMD lockstep chain runs such a broadcast in place, on the
/// full bus, when its group's circuits are closed.
pub(crate) fn is_net_transfer(i: &Instr) -> bool {
    matches!(
        *i,
        Instr::Move {
            size: Size::Byte,
            src: Ea::D(_),
            dst: Ea::AbsL(map::NET_DTR),
        } | Instr::Move {
            size: Size::Byte,
            src: Ea::AbsL(map::NET_DRR),
            dst: Ea::D(_),
        }
    )
}

/// The effective-address operands `i` reads or writes (`LEA` computes an
/// address and accesses nothing).
fn accessed_operands(i: &Instr) -> [Option<Ea>; 2] {
    match *i {
        Instr::Move { src, dst, .. } => [Some(src), Some(dst)],
        Instr::Movea { src, .. }
        | Instr::Add { src, .. }
        | Instr::Adda { src, .. }
        | Instr::Sub { src, .. }
        | Instr::Suba { src, .. }
        | Instr::Mulu { src, .. }
        | Instr::Muls { src, .. }
        | Instr::Divu { src, .. }
        | Instr::Divs { src, .. }
        | Instr::And { src, .. }
        | Instr::Or { src, .. }
        | Instr::Cmp { src, .. }
        | Instr::Cmpa { src, .. } => [Some(src), None],
        Instr::Clr { dst, .. }
        | Instr::AddTo { dst, .. }
        | Instr::Addq { dst, .. }
        | Instr::SubTo { dst, .. }
        | Instr::Subq { dst, .. }
        | Instr::Neg { dst, .. }
        | Instr::OrTo { dst, .. }
        | Instr::Eor { dst, .. }
        | Instr::Not { dst, .. }
        | Instr::Btst { dst, .. }
        | Instr::Cmpi { dst, .. }
        | Instr::Tst { dst, .. } => [Some(dst), None],
        _ => [None, None],
    }
}

/// Deterministic identity of an instruction stream: FNV-1a over the `Hash`
/// encoding of the instructions, stable within and across runs (unlike
/// `RandomState`).
pub fn fingerprint(instrs: &[Instr]) -> u64 {
    let mut h = Fnv1a::new();
    instrs.len().hash(&mut h);
    for i in instrs {
        i.hash(&mut h);
    }
    h.finish()
}

/// Deterministic identity of a whole program — main stream and SIMD
/// blocks — used as the table cache key: programs that differ only in
/// their blocks (two MCs broadcasting different bodies from the same
/// control loop) must not share a table.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint(&program.instrs));
    program.blocks.len().hash(&mut h);
    for block in &program.blocks {
        h.write_u64(fingerprint(block));
    }
    h.finish()
}

/// Compile a program, main stream and SIMD blocks, once at load, so no
/// step, enqueue or broadcast decodes an instruction.
pub fn compile_program(program: &Program) -> CompiledProgram {
    let mut c = CompiledProgram {
        meta: program.instrs.iter().map(|&i| InstrMeta::of(i)).collect(),
        ..CompiledProgram::default()
    };
    for block in &program.blocks {
        c.simd_start.push(c.simd.len() as u32);
        c.simd.extend(block.iter().map(|&i| InstrMeta::of(i)));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasm_isa::timing::{
        divs_cycles, divu_cycles, dynamic_cycles, muls_cycles, mulu_cycles, variance_cycles,
        ExecCtx,
    };
    use pasm_isa::{DataReg::*, ProgramBuilder, Size};
    use pasm_mem::map;

    fn loop_program() -> Vec<Instr> {
        vec![
            Instr::Moveq { value: 0, dst: D0 },
            Instr::Moveq { value: 7, dst: D1 },
            Instr::Add {
                size: Size::Word,
                src: Ea::D(D1),
                dst: D0,
            },
            Instr::Mulu {
                src: Ea::D(D1),
                dst: D0,
            },
            Instr::Dbra { dst: D1, target: 2 },
            Instr::Halt,
        ]
    }

    /// The table parallels the program: the main stream entry by entry, and
    /// every SIMD block at its `simd_start` offset.
    #[test]
    fn meta_maps_every_instruction_to_its_block() {
        let mut b = ProgramBuilder::new();
        for len in [2, 0, 3] {
            b.begin_block();
            for _ in 0..len {
                b.emit(Instr::Nop);
            }
            b.emit(Instr::JmpMimd { target: 0 });
            b.end_block();
        }
        for &i in &loop_program() {
            b.emit(i);
        }
        let prog = b.build().unwrap();
        let c = compile_program(&prog);
        let main: Vec<Instr> = c.meta.iter().map(|m| m.instr).collect();
        assert_eq!(main, prog.instrs);
        assert_eq!(c.simd_start.len(), prog.blocks.len());
        for (k, block) in prog.blocks.iter().enumerate() {
            let (first, metas) = c.simd_block(k);
            assert_eq!(first, c.simd_start[k]);
            let got: Vec<Instr> = metas.iter().map(|m| m.instr).collect();
            assert_eq!(&got, block, "block {k}");
        }
        assert_eq!(
            c.simd.len(),
            prog.blocks.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = loop_program();
        let mut b = loop_program();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b[0] = Instr::Moveq { value: 1, dst: D0 };
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&a[..5]));
    }

    /// The table's split carries what the `multiply_variance` bucket needs:
    /// evaluated on it, [`variance_cycles`] gives the cycles of the core
    /// time beyond the opcode's floor (38/38/76/84), and none elsewhere.
    #[test]
    fn table_split_reproduces_account_variance() {
        let prog = Program {
            instrs: vec![
                Instr::Mulu {
                    src: Ea::D(D1),
                    dst: D0,
                },
                Instr::Muls {
                    src: Ea::D(D1),
                    dst: D0,
                },
                Instr::Divu {
                    src: Ea::D(D1),
                    dst: D0,
                },
                Instr::Divs {
                    src: Ea::D(D1),
                    dst: D0,
                },
                Instr::Nop,
                Instr::Add {
                    size: Size::Word,
                    src: Ea::D(D1),
                    dst: D0,
                },
            ],
            ..Program::default()
        };
        let c = compile_program(&prog);
        for (src, dst) in [(0xFFFF, 0xFFFF), (7, 100_007), (3, 0x0012_3456), (0, 5)] {
            let ctx = ExecCtx {
                src_value: src,
                dst_value: dst,
                ..ExecCtx::default()
            };
            let got: Vec<u32> = c
                .meta
                .iter()
                .map(|m| variance_cycles(m.split.dynamic, dynamic_cycles(m.split.dynamic, ctx)))
                .collect();
            let s = src as u16;
            let want = [
                mulu_cycles(s) - 38,
                muls_cycles(s) - 38,
                divu_cycles(dst, s).saturating_sub(76),
                divs_cycles(dst, s).saturating_sub(84),
                0,
                0,
            ];
            assert_eq!(got, want, "src {src:#x}, dst {dst:#x}");
        }
    }

    #[test]
    fn stop_classification_covers_machine_effects() {
        for i in [
            Instr::JmpSimd,
            Instr::JmpMimd { target: 0 },
            Instr::Barrier,
            Instr::SetMask { mask: 1 },
            Instr::Enqueue { block: 0 },
            Instr::EnqueueWords { count: 1 },
            Instr::StartPes,
            Instr::Halt,
        ] {
            assert!(is_stop(&i), "{i:?}");
            assert!(InstrMeta::of(i).stop, "{i:?}");
        }
        // Fixed memory-mapped operands: the network registers the kernels
        // poll and move bytes through, and the timer.
        for i in [
            Instr::Move {
                size: Size::Byte,
                src: Ea::AbsL(map::NET_DRR),
                dst: Ea::D(D0),
            },
            Instr::Move {
                size: Size::Byte,
                src: Ea::D(D0),
                dst: Ea::AbsL(map::NET_DTR),
            },
            Instr::Btst {
                bit: 0,
                dst: Ea::AbsL(map::NET_STATUS),
            },
            Instr::Move {
                size: Size::Word,
                src: Ea::AbsL(map::TIMER),
                dst: Ea::D(D4),
            },
        ] {
            assert!(is_stop(&i), "{i:?}");
            // Only the two byte moves through a data register are transfers.
            let transfer = matches!(
                i,
                Instr::Move {
                    size: Size::Byte,
                    ..
                }
            );
            assert_eq!(is_net_transfer(&i), transfer, "{i:?}");
        }
        for i in [
            Instr::Move {
                size: Size::Word,
                src: Ea::D(D0),
                dst: Ea::AbsL(map::NET_DTR),
            },
            Instr::Move {
                size: Size::Byte,
                src: Ea::AbsL(map::NET_DRR),
                dst: Ea::AbsL(map::NET_DTR),
            },
            Instr::Move {
                size: Size::Byte,
                src: Ea::AbsL(map::NET_DRR),
                dst: Ea::PostInc(pasm_isa::AddrReg::A0),
            },
        ] {
            assert!(is_stop(&i) && !is_net_transfer(&i), "{i:?}");
        }
        for i in [
            Instr::Nop,
            Instr::Dbra { dst: D0, target: 0 },
            Instr::Jmp { target: 0 },
            Instr::Rts,
            Instr::Mark {
                begin: true,
                phase: 0,
            },
            // Main memory by absolute address, and an address computation.
            Instr::Move {
                size: Size::Word,
                src: Ea::AbsW(0x100),
                dst: Ea::AbsL(0x200),
            },
            Instr::Lea {
                src: Ea::AbsL(map::TIMER),
                dst: pasm_isa::AddrReg::A0,
            },
            Instr::Move {
                size: Size::Word,
                src: Ea::Ind(pasm_isa::AddrReg::A1),
                dst: Ea::D(D6),
            },
        ] {
            assert!(!is_stop(&i), "{i:?}");
        }
    }
}
