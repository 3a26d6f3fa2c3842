//! The block compiler: one-time static analysis that turns a loaded program
//! into a table of basic blocks with folded cycle costs.
//!
//! [`compile`] splits the instruction stream into basic blocks
//! ([`pasm_isa::analysis::basic_blocks`]) and precomputes, per instruction,
//! the static/dynamic cycle decomposition ([`pasm_isa::timing::cycle_split`])
//! plus a *stop* flag for instructions that interact with the rest of the
//! machine (mode switches, Fetch-Unit commands, barriers, `HALT`). Per block
//! it folds the static costs into one constant and counts the remaining
//! data-dependent terms.
//!
//! The machine's fast path (see `machine.rs`) consumes this table: a PE in
//! MIMD mode (or an MC between Fetch-Unit commands) leaps through compiled
//! instructions without returning to the global event scheduler, using the
//! cached [`CycleSplit`] for the core charge and escaping to the full
//! per-instruction path at every stop instruction or memory-mapped access.
//! Compiled programs are cached per [`fingerprint`] and invalidated when a
//! fault plan changes a PE's timing model (see
//! [`Machine::apply_fault_plan`](crate::Machine::apply_fault_plan)).
//!
//! What is folded and what is not is specified in `docs/TIMING.md`: core
//! cycles split exactly into `static + dynamic(ctx)` (pinned by the
//! `pasm-isa` decomposition tests), while DRAM refresh makes memory wait
//! states a function of the *absolute* cycle the access starts on, so the
//! fast path still evaluates `burst_delay` per instruction — the block
//! constant [`CompiledBlock::static_cycles`] is the core-cycle floor of one
//! pass through the block, not its wall duration.

use crate::account::variance_floor;
use pasm_isa::analysis::{basic_blocks, BlockSpan};
use pasm_isa::timing::{cycle_split, CycleSplit, DynTerm};
use pasm_isa::{Instr, Program};
use std::hash::{Hash, Hasher};

/// Per-instruction compiled metadata, parallel to the program's `instrs`.
///
/// The instruction itself is duplicated here so the fast path reads one
/// table entry per step instead of touching both the program stream and the
/// metadata table.
#[derive(Debug, Clone, Copy)]
pub struct InstrMeta {
    /// The instruction (copied from the program stream at compile time).
    pub instr: Instr,
    /// Precomputed static/dynamic cycle decomposition.
    pub split: CycleSplit,
    /// [`variance_floor`] of the instruction, folded so the fast path
    /// computes the `MultiplyVariance` bucket without re-matching the opcode.
    pub variance_min: u32,
    /// The fast path must return to the event scheduler *before* executing
    /// this instruction: it halts, switches mode, or talks to the Fetch Unit.
    pub stop: bool,
    /// Index into [`CompiledProgram::blocks`] of the containing block.
    pub block: u32,
}

impl InstrMeta {
    /// The metadata of one instruction, outside any block (`block` = 0):
    /// what [`compile`] starts from for the main stream, and what
    /// [`compile_program`] keeps for each SIMD-block instruction, so queue
    /// entries run through the same executor as compiled programs.
    pub fn of(instr: Instr) -> InstrMeta {
        InstrMeta {
            instr,
            split: cycle_split(&instr),
            variance_min: variance_floor(&instr),
            stop: is_stop(&instr),
            block: 0,
        }
    }
}

/// One basic block with folded static cost.
#[derive(Debug, Clone, Copy)]
pub struct CompiledBlock {
    /// Instruction-index span of the block.
    pub span: BlockSpan,
    /// Sum of the static core-cycle costs of every instruction in the block:
    /// the cost of one full pass assuming zero-wait memory and all dynamic
    /// terms zero.
    pub static_cycles: u32,
    /// Number of instructions carrying a data-dependent term
    /// ([`DynTerm`] ≠ `None`) that must be evaluated at execution time.
    pub dynamic_terms: u32,
    /// The block contains a stop instruction (the fast path will leave the
    /// block early at it).
    pub has_stop: bool,
}

/// A program compiled to its block table. Built once per distinct program
/// (see [`program_fingerprint`]) and shared by every PE/MC running it.
#[derive(Debug, Clone, Default)]
pub struct CompiledProgram {
    /// FNV-style hash of the main instruction stream this table was built
    /// from ([`fingerprint`]).
    pub fingerprint: u64,
    /// Basic blocks in program order, tiling the instruction stream.
    pub blocks: Vec<CompiledBlock>,
    /// Per-instruction metadata, same length as the instruction stream.
    pub meta: Vec<InstrMeta>,
    /// Metadata of the program's SIMD blocks (the Fetch Unit RAM), block
    /// after block. A Fetch-Unit queue entry names its broadcast instruction
    /// by its index here; empty unless built by [`compile_program`].
    pub simd: Vec<InstrMeta>,
    /// Index into [`CompiledProgram::simd`] of each SIMD block's first
    /// instruction.
    pub simd_start: Vec<u32>,
}

impl CompiledProgram {
    /// Total static cycles over all blocks (diagnostic).
    pub fn total_static_cycles(&self) -> u64 {
        self.blocks.iter().map(|b| b.static_cycles as u64).sum()
    }

    /// Fraction of instructions that are fully static (no dynamic term).
    pub fn static_fraction(&self) -> f64 {
        if self.meta.is_empty() {
            return 1.0;
        }
        let n = self.meta.iter().filter(|m| m.split.is_static()).count();
        n as f64 / self.meta.len() as f64
    }
}

/// True for instructions the fast path must not execute: they produce
/// machine-level effects (mode switches, barrier reads, Fetch-Unit commands,
/// PE start-up, halting) that require the global scheduler's view.
/// [`Instr::Mark`] is *not* a stop — the fast path applies phase marks
/// inline.
pub fn is_stop(i: &Instr) -> bool {
    matches!(
        i,
        Instr::JmpSimd
            | Instr::JmpMimd { .. }
            | Instr::Barrier
            | Instr::SetMask { .. }
            | Instr::Enqueue { .. }
            | Instr::EnqueueWords { .. }
            | Instr::StartPes
            | Instr::Halt
    )
}

/// FNV-1a over the `Hash` encoding of the instructions: deterministic within
/// and across runs (unlike `RandomState`), which keeps cache behaviour — and
/// therefore any diagnostics derived from it — reproducible.
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Deterministic identity of an instruction stream, used as the block-table
/// cache key. Two programs with equal instruction streams compile to the
/// same table, so kernels regenerated per run hit the cache.
pub fn fingerprint(instrs: &[Instr]) -> u64 {
    let mut h = Fnv1a(0xCBF2_9CE4_8422_2325);
    instrs.len().hash(&mut h);
    for i in instrs {
        i.hash(&mut h);
    }
    h.finish()
}

/// Deterministic identity of a whole program — main stream and SIMD
/// blocks — used as the block-table cache key: programs that differ only in
/// their blocks (two MCs broadcasting different bodies from the same
/// control loop) must not share a table.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = Fnv1a(fingerprint(&program.instrs));
    program.blocks.len().hash(&mut h);
    for block in &program.blocks {
        h.write_u64(fingerprint(block));
    }
    h.finish()
}

/// Compile a program: its main stream into the block table ([`compile`])
/// and its SIMD blocks into [`CompiledProgram::simd`], once at load, so
/// neither an enqueue nor a broadcast decodes an instruction.
pub fn compile_program(program: &Program) -> CompiledProgram {
    let mut c = compile(&program.instrs);
    for block in &program.blocks {
        c.simd_start.push(c.simd.len() as u32);
        c.simd.extend(block.iter().map(|&i| InstrMeta::of(i)));
    }
    c
}

/// Compile an instruction stream into its block table.
pub fn compile(instrs: &[Instr]) -> CompiledProgram {
    let spans = basic_blocks(instrs);
    let mut meta: Vec<InstrMeta> = instrs.iter().map(|&i| InstrMeta::of(i)).collect();
    let blocks: Vec<CompiledBlock> = spans
        .iter()
        .enumerate()
        .map(|(bi, &span)| {
            let mut static_cycles = 0u32;
            let mut dynamic_terms = 0u32;
            let mut has_stop = false;
            for m in &mut meta[span.start..span.end] {
                m.block = bi as u32;
                static_cycles += m.split.static_cycles;
                if m.split.dynamic != DynTerm::None {
                    dynamic_terms += 1;
                }
                has_stop |= m.stop;
            }
            CompiledBlock {
                span,
                static_cycles,
                dynamic_terms,
                has_stop,
            }
        })
        .collect();
    CompiledProgram {
        fingerprint: fingerprint(instrs),
        blocks,
        meta,
        ..CompiledProgram::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasm_isa::timing::{base_cycles, ExecCtx};
    use pasm_isa::{DataReg::*, Ea, Size};

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

    #[test]
    fn block_constants_fold_static_costs() {
        let prog = loop_program();
        let c = compile(&prog);
        assert_eq!(c.blocks.len(), 3);
        // Block 0: two MOVEQ at 4 cycles each.
        assert_eq!(c.blocks[0].static_cycles, 8);
        assert_eq!(c.blocks[0].dynamic_terms, 0);
        // Block 1: ADD(4) + MULU(38) + DBRA(10); MULU and DBRA carry terms.
        assert_eq!(c.blocks[1].static_cycles, 4 + 38 + 10);
        assert_eq!(c.blocks[1].dynamic_terms, 2);
        assert!(!c.blocks[1].has_stop);
        // Block 2: HALT — a stop.
        assert!(c.blocks[2].has_stop);
        assert!(c.meta[5].stop);
        // Block constant == sum of interpreter charges with zero dynamics.
        let zero = ExecCtx {
            branch_taken: true, // DBRA taken arm is the 10-cycle static floor
            ..Default::default()
        };
        let sum: u32 = prog[2..5].iter().map(|i| base_cycles(i, zero)).sum();
        assert_eq!(c.blocks[1].static_cycles, sum);
    }

    #[test]
    fn meta_maps_every_instruction_to_its_block() {
        let c = compile(&loop_program());
        for (pc, m) in c.meta.iter().enumerate() {
            let b = c.blocks[m.block as usize];
            assert!(b.span.start <= pc && pc < b.span.end, "pc {pc}");
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let a = loop_program();
        let mut b = loop_program();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(compile(&a).fingerprint, fingerprint(&a));
        b[0] = Instr::Moveq { value: 1, dst: D0 };
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&a[..5]));
    }

    #[test]
    fn variance_min_reproduces_account_variance() {
        let prog = vec![
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
        ];
        let floors: Vec<u32> = compile(&prog).meta.iter().map(|m| m.variance_min).collect();
        assert_eq!(floors, [38, 38, 76, 84, 0, 0]);
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
        ] {
            assert!(!is_stop(&i), "{i:?}");
        }
    }
}
