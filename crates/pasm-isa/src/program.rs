//! Programs and the label-resolving program builder.
//!
//! A [`Program`] is a sequence of instructions addressed by instruction index,
//! plus a set of *SIMD blocks*. On the real prototype, blocks of SIMD
//! instructions live in the Fetch Unit RAM of each MC; the MC commands the
//! Fetch Unit Controller to enqueue a block, and the controller streams it into
//! the FIFO queue word by word while the MC proceeds (paper §3). Here a block
//! is simply an indexed `Vec<Instr>` referenced by [`crate::Instr::Enqueue`].

use crate::instr::Instr;
use std::collections::BTreeMap;
use std::fmt;

/// An opaque label handle issued by [`ProgramBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Identifier of a SIMD instruction block within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub u16);

/// Errors surfaced when finalizing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A label was referenced by a branch but never bound to a position.
    UnboundLabel(String),
    /// A label was bound twice.
    DuplicateLabel(String),
    /// A branch target index is outside the program.
    TargetOutOfRange { instr: usize, target: usize },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnboundLabel(n) => write!(f, "label `{n}` referenced but never bound"),
            BuildError::DuplicateLabel(n) => write!(f, "label `{n}` bound more than once"),
            BuildError::TargetOutOfRange { instr, target } => {
                write!(
                    f,
                    "instruction {instr} branches to out-of-range index {target}"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A finalized program: main instruction stream + SIMD blocks + debug symbols.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// The main instruction stream (a PE's MIMD program, or an MC's control program).
    pub instrs: Vec<Instr>,
    /// SIMD instruction blocks (the Fetch Unit RAM contents), indexed by [`BlockId`].
    pub blocks: Vec<Vec<Instr>>,
    /// Bound label positions, for listings and debugging.
    pub symbols: BTreeMap<String, usize>,
}

impl Program {
    /// Number of instructions in the main stream.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the main stream is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Total static size in 16-bit instruction words (main stream only).
    pub fn words(&self) -> u32 {
        self.instrs.iter().map(Instr::words).sum()
    }

    /// Check structural invariants: branch targets in range, `Enqueue` block ids
    /// valid, and no MC-only operations inside SIMD blocks.
    pub fn validate(&self) -> Result<(), BuildError> {
        for (i, ins) in self.instrs.iter().enumerate() {
            if let Some(t) = ins.target() {
                // `JmpMimd` in the main stream would also be odd, but harmless.
                if t > self.instrs.len() {
                    return Err(BuildError::TargetOutOfRange {
                        instr: i,
                        target: t,
                    });
                }
            }
            if let Instr::Enqueue { block } = ins {
                if *block as usize >= self.blocks.len() {
                    return Err(BuildError::TargetOutOfRange {
                        instr: i,
                        target: *block as usize,
                    });
                }
            }
        }
        for blk in &self.blocks {
            for (i, ins) in blk.iter().enumerate() {
                debug_assert!(!ins.is_mc_only(), "MC-only op inside SIMD block at {i}");
                // `JmpMimd` targets inside a block index the *PE* program (the
                // block lives in an MC program but is executed by PEs), so its
                // range cannot be checked here. Other branches are meaningless
                // in a broadcast stream.
                debug_assert!(
                    matches!(ins, Instr::JmpMimd { .. }) || ins.target().is_none(),
                    "branch other than JMPMIMD inside SIMD block: {ins}"
                );
            }
        }
        Ok(())
    }

    /// Render an assembly-style listing (instruction indices, symbols, blocks).
    pub fn listing(&self) -> String {
        use fmt::Write as _;
        let mut by_index: BTreeMap<usize, Vec<&str>> = BTreeMap::new();
        for (name, &idx) in &self.symbols {
            by_index.entry(idx).or_default().push(name);
        }
        let mut out = String::new();
        for (i, ins) in self.instrs.iter().enumerate() {
            if let Some(names) = by_index.get(&i) {
                for n in names {
                    let _ = writeln!(out, "{n}:");
                }
            }
            let _ = writeln!(out, "  {i:5}  {ins}");
        }
        for (b, blk) in self.blocks.iter().enumerate() {
            let _ = writeln!(out, "block {b}:");
            for ins in blk {
                let _ = writeln!(out, "         {ins}");
            }
        }
        out
    }
}

/// Where an emitted instruction lives (main stream or a SIMD block).
#[derive(Debug, Clone, Copy)]
enum Loc {
    Main(usize),
    Block(usize, usize),
}

/// Incremental program builder with forward-referencing labels.
///
/// ```
/// use pasm_isa::{Instr, ProgramBuilder, DataReg, Cond};
///
/// let mut b = ProgramBuilder::new();
/// let top = b.new_label("top");
/// b.bind(top);
/// b.emit(Instr::Nop);
/// b.branch(Instr::Dbra { dst: DataReg::D0, target: 0 }, top);
/// b.emit(Instr::Halt);
/// let p = b.build().unwrap();
/// assert_eq!(p.instrs.len(), 3);
/// assert_eq!(p.instrs[1].target(), Some(0));
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    blocks: Vec<Vec<Instr>>,
    label_names: Vec<String>,
    bound: Vec<Option<usize>>,
    fixups: Vec<(Loc, Label)>,
    /// If set, emission goes into this block instead of the main stream.
    current_block: Option<usize>,
}

impl ProgramBuilder {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a new, yet-unbound label.
    pub fn new_label(&mut self, name: impl Into<String>) -> Label {
        self.label_names.push(name.into());
        self.bound.push(None);
        Label(self.label_names.len() - 1)
    }

    /// Bind a label to the *next* main-stream instruction position.
    ///
    /// Labels always denote main-stream positions (a `JmpMimd` inside a block
    /// targets the PE's own program), so binding while inside a block is a bug.
    pub fn bind(&mut self, l: Label) {
        assert!(
            self.current_block.is_none(),
            "cannot bind a label inside a SIMD block"
        );
        assert!(
            self.bound[l.0].is_none(),
            "label `{}` bound twice",
            self.label_names[l.0]
        );
        self.bound[l.0] = Some(self.instrs.len());
    }

    /// Create and immediately bind a label at the current position.
    pub fn here(&mut self, name: impl Into<String>) -> Label {
        let l = self.new_label(name);
        self.bind(l);
        l
    }

    /// Emit one instruction into the current stream (main or open block).
    pub fn emit(&mut self, i: Instr) {
        match self.current_block {
            None => self.instrs.push(i),
            Some(b) => self.blocks[b].push(i),
        }
    }

    /// Emit a sequence of instructions.
    pub fn emit_all(&mut self, instrs: impl IntoIterator<Item = Instr>) {
        for i in instrs {
            self.emit(i);
        }
    }

    /// Emit a branch-family instruction whose target will be patched to `l`.
    /// The `target` field of the passed instruction is ignored.
    pub fn branch(&mut self, i: Instr, l: Label) {
        assert!(
            i.target().is_some(),
            "branch() needs an instruction with a target: {i}"
        );
        let loc = match self.current_block {
            None => Loc::Main(self.instrs.len()),
            Some(b) => Loc::Block(b, self.blocks[b].len()),
        };
        self.emit(i);
        self.fixups.push((loc, l));
    }

    /// Open a new SIMD block; subsequent `emit`s go into it until [`Self::end_block`].
    pub fn begin_block(&mut self) -> BlockId {
        assert!(self.current_block.is_none(), "SIMD blocks cannot nest");
        self.blocks.push(Vec::new());
        let id = self.blocks.len() - 1;
        self.current_block = Some(id);
        BlockId(id as u16)
    }

    /// Close the currently open SIMD block.
    pub fn end_block(&mut self) {
        assert!(
            self.current_block.is_some(),
            "end_block without begin_block"
        );
        self.current_block = None;
    }

    /// Current instruction index of the main stream (where the next `emit` lands).
    pub fn position(&self) -> usize {
        self.instrs.len()
    }

    /// Finalize: resolve all label fixups and validate.
    pub fn build(mut self) -> Result<Program, BuildError> {
        assert!(
            self.current_block.is_none(),
            "unclosed SIMD block at build()"
        );
        for (loc, l) in self.fixups.drain(..) {
            let target = self.bound[l.0]
                .ok_or_else(|| BuildError::UnboundLabel(self.label_names[l.0].clone()))?;
            match loc {
                Loc::Main(i) => self.instrs[i].set_target(target),
                Loc::Block(b, i) => self.blocks[b][i].set_target(target),
            }
        }
        let symbols = self
            .label_names
            .iter()
            .zip(&self.bound)
            .filter_map(|(n, b)| b.map(|idx| (n.clone(), idx)))
            .collect();
        let p = Program {
            instrs: self.instrs,
            blocks: self.blocks,
            symbols,
        };
        p.validate()?;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Cond;

    #[test]
    fn forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let fwd = b.new_label("fwd");
        let back = b.here("back");
        b.emit(Instr::Nop);
        b.branch(
            Instr::Bcc {
                cond: Cond::Eq,
                target: 0,
            },
            fwd,
        );
        b.branch(
            Instr::Bcc {
                cond: Cond::True,
                target: 0,
            },
            back,
        );
        b.bind(fwd);
        b.emit(Instr::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.instrs[1].target(), Some(3));
        assert_eq!(p.instrs[2].target(), Some(0));
        assert_eq!(p.symbols["fwd"], 3);
        assert_eq!(p.symbols["back"], 0);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label("nowhere");
        b.branch(Instr::Jmp { target: 0 }, l);
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::UnboundLabel("nowhere".into())
        );
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.new_label("x");
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn blocks_with_branch_into_main() {
        let mut b = ProgramBuilder::new();
        let resume = b.new_label("resume");
        let blk = b.begin_block();
        b.emit(Instr::Nop);
        b.branch(Instr::JmpMimd { target: 0 }, resume);
        b.end_block();
        b.emit(Instr::Enqueue { block: blk.0 });
        b.bind(resume);
        b.emit(Instr::Halt);
        let p = b.build().unwrap();
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(p.blocks[0][1].target(), Some(1));
        p.validate().unwrap();
    }

    #[test]
    fn enqueue_of_missing_block_fails_validation() {
        let p = Program {
            instrs: vec![Instr::Enqueue { block: 3 }],
            blocks: vec![],
            symbols: BTreeMap::new(),
        };
        assert!(matches!(
            p.validate(),
            Err(BuildError::TargetOutOfRange { .. })
        ));
    }

    #[test]
    fn listing_contains_symbols_and_blocks() {
        let mut b = ProgramBuilder::new();
        b.here("entry");
        b.emit(Instr::Nop);
        let blk = b.begin_block();
        b.emit(Instr::Nop);
        b.end_block();
        b.emit(Instr::Enqueue { block: blk.0 });
        b.emit(Instr::Halt);
        let p = b.build().unwrap();
        let txt = p.listing();
        assert!(txt.contains("entry:"));
        assert!(txt.contains("block 0:"));
        assert!(txt.contains("ENQUEUE"));
        assert!(p.words() > 0);
    }

    #[test]
    fn counts() {
        let p = Program::default();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }
}
