//! The CPU core shared by PEs and MCs.
//!
//! [`step`] executes exactly one instruction-table entry against a [`Bus`],
//! returning the core cycle cost (from `pasm_isa::timing`) plus fetch/data
//! access counts so the machine can layer memory wait states on top, or a
//! [`Block`] reason when the instruction touches a resource that is not ready
//! (network transmit buffer occupied, no received byte). A blocked
//! instruction leaves *all* architectural state unchanged — the machine
//! re-issues it when the resource frees, which models the hardware holding
//! the bus cycle.
//!
//! Every entry is lowered once, at load, to an [`Op`]: a handler for its
//! (opcode, EA shape) with register indices, immediates and displacements
//! already extracted. The handlers cover the shapes that dominate executed
//! instructions; every other shape is [`Op::Generic`], which runs the
//! generic interpreter `exec_timed` — also the reference the handlers are
//! differentially tested against.

use crate::block::InstrMeta;
use pasm_isa::timing::{self, CycleSplit, DynTerm, ExecCtx};
use pasm_isa::{Ccr, Cond, Ea, Instr, ShiftCount, ShiftKind, Size};

/// Architectural state of one MC68000-style processor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cpu {
    /// Data registers D0–D7.
    pub d: [u32; 8],
    /// Address registers A0–A7.
    pub a: [u32; 8],
    /// Program counter: an *instruction index* into the current program.
    pub pc: usize,
    /// Condition codes.
    pub ccr: Ccr,
}

/// Why an instruction could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// Write to the network transmit register while the previous byte has not
    /// been accepted by the destination (hardware overwrite protection).
    NetTxFull,
    /// Read of the network receive register with no byte in flight.
    NetRxEmpty,
    /// The instruction touched a memory-mapped region the current bus does not
    /// model. Used by the fast path to bail out to the full
    /// per-instruction path *before* any device state changes.
    Mmio,
}

/// Side effects the machine must act on after an instruction completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Nothing beyond the architectural update.
    None,
    /// Processor stops.
    Halt,
    /// PE jumps into the SIMD instruction space (MIMD → SIMD).
    EnterSimd,
    /// PE leaves SIMD mode and resumes its own program at the index.
    ExitSimd { target: usize },
    /// PE issues a barrier read from SIMD space (completes via the Fetch Unit).
    BarrierRequest,
    /// Phase-accounting marker.
    Mark { begin: bool, phase: u8 },
    /// MC Fetch-Unit / orchestration operation.
    Mc(McEffect),
}

/// MC-side operations (decoded for the machine's Fetch Unit model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McEffect {
    SetMask(u16),
    Enqueue(u16),
    EnqueueWords(u16),
    StartPes,
}

/// Result of a completed instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepResult {
    /// Core cycles assuming zero-wait memory.
    pub cycles: u32,
    /// Instruction words fetched (for instruction-memory wait accounting).
    pub fetch_words: u32,
    /// 16-bit data accesses to memory (for data wait accounting).
    pub data_accesses: u32,
    /// The share of `cycles` that is data-dependent multiply/divide time
    /// ([`timing::variance_cycles`]); zero for every other opcode.
    pub variance: u32,
    /// Machine-visible side effect.
    pub effect: Effect,
}

/// Outcome of [`step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    Done(StepResult),
    Blocked(Block),
}

/// Memory/MMIO interface the interpreter runs against.
///
/// Reads and writes may block (network registers). Reads of the timer return
/// the current cycle count; ordinary memory never blocks.
pub trait Bus {
    fn read(&mut self, addr: u32, size: Size) -> Result<u32, Block>;
    fn write(&mut self, addr: u32, value: u32, size: Size) -> Result<(), Block>;
    /// Network cycles the accesses so far added to the instruction: waiting
    /// out a byte in flight, then the degraded-routing detours (a fault
    /// surcharge). Plain memory adds none.
    fn net_cycles(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// A trivial bus over a plain memory, for MCs and tests.
pub struct MemBus<'m>(pub &'m mut pasm_mem::Memory);

impl Bus for MemBus<'_> {
    fn read(&mut self, addr: u32, size: Size) -> Result<u32, Block> {
        Ok(self.0.read(addr, size))
    }
    fn write(&mut self, addr: u32, value: u32, size: Size) -> Result<(), Block> {
        self.0.write(addr, value, size);
        Ok(())
    }
}

/// Deferred address-register updates ((An)+ / -(An)), committed only when the
/// instruction completes so a blocked instruction can be re-issued verbatim.
#[derive(Default)]
struct Pending {
    updates: [(usize, u32); 4],
    len: usize,
}

impl Pending {
    fn push(&mut self, reg: usize, value: u32) {
        self.updates[self.len] = (reg, value);
        self.len += 1;
    }
    fn commit(&self, cpu: &mut Cpu) {
        for &(r, v) in &self.updates[..self.len] {
            cpu.a[r] = v;
        }
    }
}

/// Resolve the address of a memory-mode EA, staging any auto-inc/dec.
fn ea_addr(cpu: &Cpu, pend: &mut Pending, ea: Ea, size: Size) -> u32 {
    match ea {
        Ea::Ind(an) => cpu.a[an.index()],
        Ea::PostInc(an) => {
            let addr = cpu.a[an.index()];
            pend.push(an.index(), addr.wrapping_add(size.bytes()));
            addr
        }
        Ea::PreDec(an) => {
            let addr = cpu.a[an.index()].wrapping_sub(size.bytes());
            pend.push(an.index(), addr);
            addr
        }
        Ea::Disp(d, an) => cpu.a[an.index()].wrapping_add(d as i32 as u32),
        Ea::AbsW(w) => w as u32,
        Ea::AbsL(l) => l,
        Ea::D(_) | Ea::A(_) | Ea::Imm(_) => unreachable!("not a memory EA"),
    }
}

/// Read an operand (sized, zero-extended into u32).
fn read_ea<B: Bus + ?Sized>(
    cpu: &Cpu,
    bus: &mut B,
    pend: &mut Pending,
    ea: Ea,
    size: Size,
) -> Result<u32, Block> {
    match ea {
        Ea::D(dn) => Ok(size.truncate(cpu.d[dn.index()])),
        Ea::A(an) => Ok(size.truncate(cpu.a[an.index()])),
        Ea::Imm(v) => Ok(size.truncate(v)),
        _ => {
            let addr = ea_addr(cpu, pend, ea, size);
            bus.read(addr, size)
        }
    }
}

/// Write an operand.
fn write_ea<B: Bus + ?Sized>(
    cpu: &mut Cpu,
    bus: &mut B,
    pend: &mut Pending,
    ea: Ea,
    size: Size,
    value: u32,
) -> Result<(), Block> {
    match ea {
        Ea::D(dn) => {
            let i = dn.index();
            cpu.d[i] = size.merge(cpu.d[i], value);
            Ok(())
        }
        Ea::A(an) => {
            // Address-register destinations always load the full register,
            // sign-extending word data (MOVEA/ADDA semantics).
            cpu.a[an.index()] = size.sign_extend(value);
            Ok(())
        }
        Ea::Imm(_) => panic!("write to immediate operand"),
        _ => {
            let addr = ea_addr(cpu, pend, ea, size);
            bus.write(addr, value, size)
        }
    }
}

fn add_flags(ccr: &mut Ccr, size: Size, a: u32, b: u32, r: u32) {
    let (an, bn, rn) = (size.msb(a), size.msb(b), size.msb(r));
    ccr.n = rn;
    ccr.z = size.truncate(r) == 0;
    ccr.v = (an == bn) && (rn != an);
    ccr.c = (an && bn) || (!rn && (an || bn));
    ccr.x = ccr.c;
}

fn sub_flags(ccr: &mut Ccr, size: Size, d: u32, s: u32, r: u32, set_x: bool) {
    let (dn, sn, rn) = (size.msb(d), size.msb(s), size.msb(r));
    ccr.n = rn;
    ccr.z = size.truncate(r) == 0;
    ccr.v = (dn != sn) && (rn != dn);
    ccr.c = (!dn && (sn || rn)) || (sn && rn);
    if set_x {
        ccr.x = ccr.c;
    }
}

/// Unwrap a bus access, or return the instruction's [`StepOutcome::Blocked`]
/// before any further state changes.
macro_rules! try_bus {
    ($e:expr) => {
        match $e {
            Ok(v) => v,
            Err(b) => return StepOutcome::Blocked(b),
        }
    };
}

/// An instruction lowered to the handler of its (opcode, EA shape), with its
/// operands extracted: register numbers, immediates, displacements, branch
/// targets. Built once per loaded instruction ([`Op::of`]) and carried in
/// the instruction table; [`step`] dispatches on it. Sizes are word unless
/// the name says byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Any other shape: the generic interpreter.
    Generic,
    /// `DBRA Dd,target`.
    Dbra { d: u8, target: u32 },
    /// `Bcc target`, `BRA` included.
    Bcc { cond: Cond, target: u32 },
    /// `ADD.W (Aa)+,Dd`.
    AddFromPostInc { a: u8, d: u8 },
    /// `ADD.W Ds,Dd`.
    AddReg { s: u8, d: u8 },
    /// `SUB.W Ds,Dd`.
    SubReg { s: u8, d: u8 },
    /// `CMP.W Ds,Dd`.
    CmpReg { s: u8, d: u8 },
    /// `OR.W Ds,Dd`.
    OrReg { s: u8, d: u8 },
    /// `ADD.W Ds,(Aa)+`.
    AddToPostInc { s: u8, a: u8 },
    /// `ADDQ.W #k,Dd`.
    Addq { k: u8, d: u8 },
    /// `MOVE.W (Aa)+,Dd`.
    MoveFromPostInc { a: u8, d: u8 },
    /// `MOVE.W disp(Aa),Dd`; `(Aa)` is `disp` 0.
    MoveFromDisp { disp: i16, a: u8, d: u8 },
    /// `MOVE.W Ds,(Aa)+`.
    MoveToPostInc { s: u8, a: u8 },
    /// `LSL`/`ASL`, `LSR` or `ASR` `.W #k,Dd`, `k` in 1..=8.
    ShiftImm { kind: ShiftKind, k: u8, d: u8 },
    /// `MULU Ds,Dd`.
    MuluReg { s: u8, d: u8 },
    /// `AND.W #imm,Dd`.
    AndImm { imm: u16, d: u8 },
    /// `CLR.W Dd`.
    ClrReg { d: u8 },
    /// `MOVE.B addr.L,Dd`: on a PE, the network-register reads.
    MoveByteFromAbs { addr: u32, d: u8 },
    /// `MOVE.B Ds,addr.L`: on a PE, the network-register writes.
    MoveByteToAbs { s: u8, addr: u32 },
}

impl Op {
    /// The handler of an instruction's shape: [`Op::Generic`] unless one of
    /// the lowered shapes matches.
    pub fn of(instr: &Instr) -> Op {
        Op::lower(instr).unwrap_or(Op::Generic)
    }

    fn lower(instr: &Instr) -> Option<Op> {
        use Ea::{AbsL, Disp, Imm, Ind, PostInc, D};
        use Size::{Byte, Word};
        let r = |i: usize| i as u8;
        let target = |t: usize| u32::try_from(t).ok();
        Some(match *instr {
            Instr::Dbra { dst, target: t } => Op::Dbra {
                d: r(dst.index()),
                target: target(t)?,
            },
            Instr::Bcc { cond, target: t } => Op::Bcc {
                cond,
                target: target(t)?,
            },
            Instr::Add {
                size: Word,
                src,
                dst,
            } => match src {
                PostInc(a) => Op::AddFromPostInc {
                    a: r(a.index()),
                    d: r(dst.index()),
                },
                D(s) => Op::AddReg {
                    s: r(s.index()),
                    d: r(dst.index()),
                },
                _ => return None,
            },
            Instr::Sub {
                size: Word,
                src: D(s),
                dst,
            } => Op::SubReg {
                s: r(s.index()),
                d: r(dst.index()),
            },
            Instr::Cmp {
                size: Word,
                src: D(s),
                dst,
            } => Op::CmpReg {
                s: r(s.index()),
                d: r(dst.index()),
            },
            Instr::Or {
                size: Word,
                src: D(s),
                dst,
            } => Op::OrReg {
                s: r(s.index()),
                d: r(dst.index()),
            },
            Instr::AddTo {
                size: Word,
                src,
                dst: PostInc(a),
            } => Op::AddToPostInc {
                s: r(src.index()),
                a: r(a.index()),
            },
            Instr::Addq {
                size: Word,
                value,
                dst: D(d),
            } => Op::Addq {
                k: value,
                d: r(d.index()),
            },
            Instr::Move {
                size: Word,
                src,
                dst: D(d),
            } => match src {
                PostInc(a) => Op::MoveFromPostInc {
                    a: r(a.index()),
                    d: r(d.index()),
                },
                Ind(a) => Op::MoveFromDisp {
                    disp: 0,
                    a: r(a.index()),
                    d: r(d.index()),
                },
                Disp(disp, a) => Op::MoveFromDisp {
                    disp,
                    a: r(a.index()),
                    d: r(d.index()),
                },
                _ => return None,
            },
            Instr::Move {
                size: Word,
                src: D(s),
                dst: PostInc(a),
            } => Op::MoveToPostInc {
                s: r(s.index()),
                a: r(a.index()),
            },
            Instr::Shift {
                kind: kind @ (ShiftKind::Lsl | ShiftKind::Asl | ShiftKind::Lsr | ShiftKind::Asr),
                size: Word,
                count: ShiftCount::Imm(k @ 1..=8),
                dst,
            } => Op::ShiftImm {
                kind,
                k,
                d: r(dst.index()),
            },
            Instr::Mulu { src: D(s), dst } => Op::MuluReg {
                s: r(s.index()),
                d: r(dst.index()),
            },
            Instr::And {
                size: Word,
                src: Imm(v),
                dst,
            } => Op::AndImm {
                imm: v as u16,
                d: r(dst.index()),
            },
            Instr::Clr {
                size: Word,
                dst: D(d),
            } => Op::ClrReg { d: r(d.index()) },
            Instr::Move {
                size: Byte,
                src: AbsL(addr),
                dst: D(d),
            } => Op::MoveByteFromAbs {
                addr,
                d: r(d.index()),
            },
            Instr::Move {
                size: Byte,
                src: D(s),
                dst: AbsL(addr),
            } => Op::MoveByteToAbs {
                s: r(s.index()),
                addr,
            },
            _ => return None,
        })
    }
}

/// Execute one instruction-table entry through the handler of its shape
/// ([`InstrMeta::op`]). On success the PC has been advanced (sequentially or
/// to a branch target) and all effects applied; on [`StepOutcome::Blocked`]
/// no state has changed: every handler makes its bus accesses before it
/// writes a register. The core cycles are the entry's
/// `split.static_cycles` plus the shape's dynamic term, exactly as the
/// generic interpreter charges them.
///
/// The one entry point of every executor: the MIMD batch, the SIMD
/// lockstep chain and the per-instruction PE and MC steps.
#[inline(always)]
pub fn step<B: Bus + ?Sized>(cpu: &mut Cpu, bus: &mut B, m: &InstrMeta) -> StepOutcome {
    const W: Size = Size::Word;
    let mut next_pc = cpu.pc + 1;
    // The shape's dynamic cycles, and their multiply-variance share.
    let mut dynamic = 0;
    let mut variance = 0;
    match m.op {
        Op::Generic => return exec_timed(cpu, bus, &m.instr, &m.split),
        Op::Dbra { d, target } => {
            let reg = &mut cpu.d[d as usize];
            let count = (*reg as u16).wrapping_sub(1);
            *reg = W.merge(*reg, count as u32);
            if count != 0xFFFF {
                next_pc = target as usize;
            } else {
                let ctx = ExecCtx {
                    loop_expired: true,
                    ..ExecCtx::default()
                };
                dynamic = timing::dynamic_cycles(DynTerm::DbraExpired, ctx);
            }
        }
        Op::Bcc { cond, target } => {
            if cond.eval(cpu.ccr) {
                next_pc = target as usize;
            } else {
                // Never reached by `BRA`, the one form without the term.
                dynamic = timing::dynamic_cycles(DynTerm::BccFallThrough, ExecCtx::default());
            }
        }
        Op::AddFromPostInc { a, d } => {
            let addr = cpu.a[a as usize];
            let s = try_bus!(bus.read(addr, W));
            cpu.a[a as usize] = addr.wrapping_add(2);
            add_word(cpu, s, d);
        }
        Op::AddReg { s, d } => add_word(cpu, W.truncate(cpu.d[s as usize]), d),
        Op::SubReg { s, d } => sub_word(cpu, s, d, true),
        Op::CmpReg { s, d } => sub_word(cpu, s, d, false),
        Op::OrReg { s, d } => {
            let i = d as usize;
            let r = W.truncate(cpu.d[i] | cpu.d[s as usize]);
            cpu.d[i] = W.merge(cpu.d[i], r);
            cpu.ccr.set_logic(r, W);
        }
        Op::AddToPostInc { s, a } => {
            let addr = cpu.a[a as usize];
            let dv = try_bus!(bus.read(addr, W));
            let sv = W.truncate(cpu.d[s as usize]);
            let r = W.truncate(sv.wrapping_add(dv));
            try_bus!(bus.write(addr, r, W));
            add_flags(&mut cpu.ccr, W, dv, sv, r);
            cpu.a[a as usize] = addr.wrapping_add(2);
        }
        Op::Addq { k, d } => {
            let i = d as usize;
            let dv = W.truncate(cpu.d[i]);
            let r = W.truncate(dv.wrapping_add(k as u32));
            add_flags(&mut cpu.ccr, W, dv, k as u32, r);
            cpu.d[i] = W.merge(cpu.d[i], r);
        }
        Op::MoveFromPostInc { a, d } => {
            let addr = cpu.a[a as usize];
            let v = try_bus!(bus.read(addr, W));
            cpu.a[a as usize] = addr.wrapping_add(2);
            move_to_reg(cpu, W, v, d);
        }
        Op::MoveFromDisp { disp, a, d } => {
            let addr = cpu.a[a as usize].wrapping_add(disp as i32 as u32);
            let v = try_bus!(bus.read(addr, W));
            move_to_reg(cpu, W, v, d);
        }
        Op::MoveToPostInc { s, a } => {
            let v = W.truncate(cpu.d[s as usize]);
            let addr = cpu.a[a as usize];
            try_bus!(bus.write(addr, v, W));
            cpu.a[a as usize] = addr.wrapping_add(2);
            cpu.ccr.set_logic(v, W);
        }
        Op::ShiftImm { kind, k, d } => {
            let i = d as usize;
            let n = k as u32;
            let v = W.truncate(cpu.d[i]);
            let (r, carry) = match kind {
                ShiftKind::Lsr => (v >> n, (v >> (n - 1)) & 1 != 0),
                ShiftKind::Asr => {
                    let sv = W.sign_extend(v) as i32;
                    (W.truncate((sv >> n) as u32), (sv >> (n - 1)) & 1 != 0)
                }
                // LSL and ASL: `Op::of` lowers no rotate.
                _ => (W.truncate(v << n), (v >> (16 - n)) & 1 != 0),
            };
            cpu.d[i] = W.merge(cpu.d[i], r);
            cpu.ccr.set_logic(r, W);
            cpu.ccr.c = carry;
            cpu.ccr.x = carry;
        }
        Op::MuluReg { s, d } => {
            let s = W.truncate(cpu.d[s as usize]);
            let i = d as usize;
            let r = s * (cpu.d[i] & 0xFFFF);
            cpu.d[i] = r;
            cpu.ccr.set_logic(r, Size::Long);
            let ctx = ExecCtx {
                src_value: s,
                ..ExecCtx::default()
            };
            dynamic = timing::dynamic_cycles(DynTerm::MuluOnes, ctx);
            variance = timing::variance_cycles(DynTerm::MuluOnes, dynamic);
        }
        Op::AndImm { imm, d } => {
            let i = d as usize;
            let r = cpu.d[i] & imm as u32;
            cpu.d[i] = W.merge(cpu.d[i], r);
            cpu.ccr.set_logic(r, W);
        }
        Op::ClrReg { d } => {
            let i = d as usize;
            cpu.d[i] = W.merge(cpu.d[i], 0);
            cpu.ccr.set_logic(0, W);
        }
        Op::MoveByteFromAbs { addr, d } => {
            let v = try_bus!(bus.read(addr, Size::Byte));
            move_to_reg(cpu, Size::Byte, v, d);
        }
        Op::MoveByteToAbs { s, addr } => {
            let v = Size::Byte.truncate(cpu.d[s as usize]);
            try_bus!(bus.write(addr, v, Size::Byte));
            cpu.ccr.set_logic(v, Size::Byte);
        }
    }
    cpu.pc = next_pc;
    StepOutcome::Done(StepResult {
        cycles: m.split.static_cycles + dynamic,
        fetch_words: m.split.fetch_words,
        data_accesses: m.split.data_accesses,
        variance,
        effect: Effect::None,
    })
}

/// `ADD.W` of the word `s` into data register `d`.
#[inline(always)]
fn add_word(cpu: &mut Cpu, s: u32, d: u8) {
    let i = d as usize;
    let dv = Size::Word.truncate(cpu.d[i]);
    let r = Size::Word.truncate(s.wrapping_add(dv));
    add_flags(&mut cpu.ccr, Size::Word, dv, s, r);
    cpu.d[i] = Size::Word.merge(cpu.d[i], r);
}

/// `SUB.W Ds,Dd` (`store`), or `CMP.W Ds,Dd`: the flags without the
/// result.
#[inline(always)]
fn sub_word(cpu: &mut Cpu, s: u8, d: u8, store: bool) {
    let i = d as usize;
    let sv = Size::Word.truncate(cpu.d[s as usize]);
    let dv = Size::Word.truncate(cpu.d[i]);
    let r = Size::Word.truncate(dv.wrapping_sub(sv));
    sub_flags(&mut cpu.ccr, Size::Word, dv, sv, r, store);
    if store {
        cpu.d[i] = Size::Word.merge(cpu.d[i], r);
    }
}

/// `MOVE` of the value `v` read from memory into data register `d`.
#[inline(always)]
fn move_to_reg(cpu: &mut Cpu, size: Size, v: u32, d: u8) {
    let i = d as usize;
    cpu.d[i] = size.merge(cpu.d[i], v);
    cpu.ccr.set_logic(v, size);
}

/// Execute one instruction, lowered on the spot: [`step`] on its
/// instruction-table entry. For tests and one-off use; the machine steps
/// its loaded table.
pub fn exec<B: Bus + ?Sized>(cpu: &mut Cpu, bus: &mut B, instr: &Instr) -> StepOutcome {
    step(cpu, bus, &InstrMeta::of(*instr))
}

/// The generic interpreter: any instruction, with its static/dynamic cycle
/// decomposition precomputed once per loaded instruction (the machine's
/// instruction table, `block.rs`). [`step`] runs it for every shape without
/// a handler ([`Op::Generic`]); the handlers are tested against it.
///
/// The core cycle charge is `split.static_cycles + dynamic_cycles(
/// split.dynamic, ctx)`, which equals [`timing::base_cycles`] for every
/// instruction × context — the invariant is pinned by the `pasm-isa`
/// decomposition tests — and the multiply variance is taken from the same
/// dynamic term ([`timing::variance_cycles`]).
fn exec_timed<B: Bus + ?Sized>(
    cpu: &mut Cpu,
    bus: &mut B,
    instr: &Instr,
    split: &CycleSplit,
) -> StepOutcome {
    let mut pend = Pending::default();
    let mut ctx = ExecCtx::default();
    let mut effect = Effect::None;
    let mut next_pc = cpu.pc + 1;

    match *instr {
        Instr::Move { size, src, dst } => {
            let v = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            try_bus!(write_ea(cpu, bus, &mut pend, dst, size, v));
            cpu.ccr.set_logic(v, size);
        }
        Instr::Movea { size, src, dst } => {
            let v = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            cpu.a[dst.index()] = size.sign_extend(v);
        }
        Instr::Moveq { value, dst } => {
            let v = value as i32 as u32;
            cpu.d[dst.index()] = v;
            cpu.ccr.set_logic(v, Size::Long);
        }
        Instr::Lea { src, dst } => {
            let addr = match src {
                Ea::Ind(an) => cpu.a[an.index()],
                Ea::Disp(d, an) => cpu.a[an.index()].wrapping_add(d as i32 as u32),
                Ea::AbsW(w) => w as u32,
                Ea::AbsL(l) => l,
                other => panic!("LEA with illegal addressing mode {other}"),
            };
            cpu.a[dst.index()] = addr;
        }
        Instr::Clr { size, dst } => {
            try_bus!(write_ea(cpu, bus, &mut pend, dst, size, 0));
            cpu.ccr.set_logic(0, size);
        }
        Instr::Swap { dst } => {
            let i = dst.index();
            cpu.d[i] = cpu.d[i].rotate_left(16);
            cpu.ccr.set_logic(cpu.d[i], Size::Long);
        }
        Instr::Ext { size, dst } => {
            let i = dst.index();
            let v = match size {
                Size::Word => Size::Word.merge(cpu.d[i], Size::Byte.sign_extend(cpu.d[i])),
                Size::Long => Size::Word.sign_extend(cpu.d[i]),
                Size::Byte => panic!("EXT.B does not exist"),
            };
            cpu.d[i] = v;
            cpu.ccr.set_logic(v, size);
        }
        Instr::Add { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let d = size.truncate(cpu.d[dst.index()]);
            let r = size.truncate(s.wrapping_add(d));
            add_flags(&mut cpu.ccr, size, d, s, r);
            let i = dst.index();
            cpu.d[i] = size.merge(cpu.d[i], r);
        }
        Instr::AddTo { size, src, dst } => {
            let s = size.truncate(cpu.d[src.index()]);
            let addr = ea_addr(cpu, &mut pend, dst, size);
            let d = try_bus!(bus.read(addr, size));
            let r = size.truncate(s.wrapping_add(d));
            add_flags(&mut cpu.ccr, size, d, s, r);
            try_bus!(bus.write(addr, r, size));
        }
        Instr::Adda { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let s = size.sign_extend(s);
            let i = dst.index();
            cpu.a[i] = cpu.a[i].wrapping_add(s);
        }
        Instr::Addq { size, value, dst } => match dst {
            Ea::A(an) => {
                let i = an.index();
                cpu.a[i] = cpu.a[i].wrapping_add(value as u32);
            }
            _ => {
                let d = try_bus!(read_ea(cpu, bus, &mut pend, dst, size));
                let r = size.truncate(d.wrapping_add(value as u32));
                add_flags(&mut cpu.ccr, size, d, value as u32, r);
                try_bus!(write_ea(cpu, bus, &mut pend, dst, size, r));
            }
        },
        Instr::Sub { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let d = size.truncate(cpu.d[dst.index()]);
            let r = size.truncate(d.wrapping_sub(s));
            sub_flags(&mut cpu.ccr, size, d, s, r, true);
            let i = dst.index();
            cpu.d[i] = size.merge(cpu.d[i], r);
        }
        Instr::SubTo { size, src, dst } => {
            let s = size.truncate(cpu.d[src.index()]);
            let addr = ea_addr(cpu, &mut pend, dst, size);
            let d = try_bus!(bus.read(addr, size));
            let r = size.truncate(d.wrapping_sub(s));
            sub_flags(&mut cpu.ccr, size, d, s, r, true);
            try_bus!(bus.write(addr, r, size));
        }
        Instr::Suba { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let s = size.sign_extend(s);
            let i = dst.index();
            cpu.a[i] = cpu.a[i].wrapping_sub(s);
        }
        Instr::Subq { size, value, dst } => match dst {
            Ea::A(an) => {
                let i = an.index();
                cpu.a[i] = cpu.a[i].wrapping_sub(value as u32);
            }
            _ => {
                let d = try_bus!(read_ea(cpu, bus, &mut pend, dst, size));
                let r = size.truncate(d.wrapping_sub(value as u32));
                sub_flags(&mut cpu.ccr, size, d, value as u32, r, true);
                try_bus!(write_ea(cpu, bus, &mut pend, dst, size, r));
            }
        },
        Instr::Neg { size, dst } => {
            let d = try_bus!(read_ea(cpu, bus, &mut pend, dst, size));
            let r = size.truncate(0u32.wrapping_sub(d));
            sub_flags(&mut cpu.ccr, size, 0, d, r, true);
            try_bus!(write_ea(cpu, bus, &mut pend, dst, size, r));
        }
        Instr::Mulu { src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, Size::Word));
            ctx.src_value = s;
            let i = dst.index();
            let r = (s & 0xFFFF) * (cpu.d[i] & 0xFFFF);
            cpu.d[i] = r;
            cpu.ccr.set_logic(r, Size::Long);
        }
        Instr::Muls { src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, Size::Word));
            ctx.src_value = s;
            let i = dst.index();
            let r = ((s as u16 as i16 as i32) * (cpu.d[i] as u16 as i16 as i32)) as u32;
            cpu.d[i] = r;
            cpu.ccr.set_logic(r, Size::Long);
        }
        Instr::Divu { src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, Size::Word));
            ctx.src_value = s;
            let i = dst.index();
            let dd = cpu.d[i];
            ctx.dst_value = dd;
            if s == 0 || (dd >> 16) >= s {
                // Zero divide / quotient overflow: register unchanged, V set.
                cpu.ccr.v = true;
                cpu.ccr.c = false;
            } else {
                let q = dd / s;
                let r = dd % s;
                cpu.d[i] = (r << 16) | (q & 0xFFFF);
                cpu.ccr.set_logic(q, Size::Word);
            }
        }
        Instr::Divs { src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, Size::Word));
            ctx.src_value = s;
            let i = dst.index();
            let dd = cpu.d[i];
            ctx.dst_value = dd;
            let sv = s as u16 as i16 as i32;
            let dv = dd as i32;
            // Short-circuit keeps the division safe when sv == 0.
            if sv == 0 || dv / sv > i16::MAX as i32 || dv / sv < i16::MIN as i32 {
                cpu.ccr.v = true;
                cpu.ccr.c = false;
            } else {
                let q = dv / sv;
                let r = dv % sv;
                cpu.d[i] = ((r as u32 & 0xFFFF) << 16) | (q as u32 & 0xFFFF);
                cpu.ccr.set_logic(q as u32, Size::Word);
            }
        }
        Instr::And { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let i = dst.index();
            let r = size.truncate(cpu.d[i] & s);
            cpu.d[i] = size.merge(cpu.d[i], r);
            cpu.ccr.set_logic(r, size);
        }
        Instr::Or { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let i = dst.index();
            let r = size.truncate(cpu.d[i] | s);
            cpu.d[i] = size.merge(cpu.d[i], r);
            cpu.ccr.set_logic(r, size);
        }
        Instr::OrTo { size, src, dst } => {
            let s = size.truncate(cpu.d[src.index()]);
            let addr = ea_addr(cpu, &mut pend, dst, size);
            let d = try_bus!(bus.read(addr, size));
            let r = size.truncate(d | s);
            cpu.ccr.set_logic(r, size);
            try_bus!(bus.write(addr, r, size));
        }
        Instr::Eor { size, src, dst } => {
            let s = size.truncate(cpu.d[src.index()]);
            let d = try_bus!(read_ea(cpu, bus, &mut pend, dst, size));
            let r = size.truncate(d ^ s);
            cpu.ccr.set_logic(r, size);
            try_bus!(write_ea(cpu, bus, &mut pend, dst, size, r));
        }
        Instr::Not { size, dst } => {
            let d = try_bus!(read_ea(cpu, bus, &mut pend, dst, size));
            let r = size.truncate(!d);
            cpu.ccr.set_logic(r, size);
            try_bus!(write_ea(cpu, bus, &mut pend, dst, size, r));
        }
        Instr::Shift {
            kind,
            size,
            count,
            dst,
        } => {
            let n = match count {
                ShiftCount::Imm(k) => k as u32,
                ShiftCount::Reg(r) => cpu.d[r.index()] & 63,
            };
            ctx.shift_count = n;
            let i = dst.index();
            let bits = 8 * size.bytes();
            let v = size.truncate(cpu.d[i]);
            let mut carry = false;
            let r = if n == 0 {
                v
            } else {
                match kind {
                    ShiftKind::Lsl | ShiftKind::Asl => {
                        carry = n <= bits && (v >> (bits - n.min(bits))) & 1 != 0;
                        if n >= bits {
                            if n > bits {
                                carry = false;
                            }
                            0
                        } else {
                            size.truncate(v << n)
                        }
                    }
                    ShiftKind::Lsr => {
                        carry = n <= bits && n >= 1 && (v >> (n - 1)) & 1 != 0;
                        if n >= bits {
                            if n > bits {
                                carry = false;
                            }
                            0
                        } else {
                            v >> n
                        }
                    }
                    ShiftKind::Rol => {
                        let k = n % bits;
                        let r = if k == 0 {
                            v
                        } else {
                            size.truncate((v << k) | (v >> (bits - k)))
                        };
                        carry = r & 1 != 0; // last bit rotated out of the top = new bit 0
                        r
                    }
                    ShiftKind::Ror => {
                        let k = n % bits;
                        let r = if k == 0 {
                            v
                        } else {
                            size.truncate((v >> k) | (v << (bits - k)))
                        };
                        carry = size.msb(r); // last bit rotated out of the bottom = new MSB
                        r
                    }
                    ShiftKind::Asr => {
                        let sign = size.msb(v);
                        let sv = size.sign_extend(v) as i32;
                        let shifted = if n >= bits {
                            if sign {
                                -1i32
                            } else {
                                0
                            }
                        } else {
                            sv >> n
                        };
                        carry = if n >= 1 && n <= bits {
                            (sv >> (n - 1).min(31)) & 1 != 0
                        } else {
                            sign
                        };
                        size.truncate(shifted as u32)
                    }
                }
            };
            cpu.d[i] = size.merge(cpu.d[i], r);
            cpu.ccr.set_logic(r, size);
            if n > 0 {
                cpu.ccr.c = carry;
                // Rotates leave X untouched on the 68000.
                if !matches!(kind, ShiftKind::Rol | ShiftKind::Ror) {
                    cpu.ccr.x = carry;
                }
            }
        }
        Instr::Btst { bit, dst } => {
            let (v, width) = match dst {
                Ea::D(_) | Ea::A(_) => {
                    (try_bus!(read_ea(cpu, bus, &mut pend, dst, Size::Long)), 32)
                }
                _ => (try_bus!(read_ea(cpu, bus, &mut pend, dst, Size::Byte)), 8),
            };
            cpu.ccr.z = v & (1 << (bit as u32 % width)) == 0;
        }
        Instr::Cmp { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let d = size.truncate(cpu.d[dst.index()]);
            let r = size.truncate(d.wrapping_sub(s));
            sub_flags(&mut cpu.ccr, size, d, s, r, false);
        }
        Instr::Cmpa { size, src, dst } => {
            let s = try_bus!(read_ea(cpu, bus, &mut pend, src, size));
            let s = size.sign_extend(s);
            let d = cpu.a[dst.index()];
            let r = d.wrapping_sub(s);
            sub_flags(&mut cpu.ccr, Size::Long, d, s, r, false);
        }
        Instr::Cmpi { size, value, dst } => {
            let d = try_bus!(read_ea(cpu, bus, &mut pend, dst, size));
            let s = size.truncate(value);
            let r = size.truncate(d.wrapping_sub(s));
            sub_flags(&mut cpu.ccr, size, d, s, r, false);
        }
        Instr::Tst { size, dst } => {
            let d = try_bus!(read_ea(cpu, bus, &mut pend, dst, size));
            cpu.ccr.set_logic(d, size);
        }
        Instr::Bcc { cond, target } => {
            let taken = cond.eval(cpu.ccr);
            ctx.branch_taken = taken;
            if taken {
                next_pc = target;
            }
        }
        Instr::Dbra { dst, target } => {
            let i = dst.index();
            let count = (cpu.d[i] as u16).wrapping_sub(1);
            cpu.d[i] = Size::Word.merge(cpu.d[i], count as u32);
            if count != 0xFFFF {
                next_pc = target;
            } else {
                ctx.loop_expired = true;
            }
        }
        Instr::Jmp { target } => next_pc = target,
        Instr::Jsr { target } => {
            let sp = cpu.a[7].wrapping_sub(4);
            try_bus!(bus.write(sp, (cpu.pc + 1) as u32, Size::Long));
            cpu.a[7] = sp;
            next_pc = target;
        }
        Instr::Rts => {
            let sp = cpu.a[7];
            let ret = try_bus!(bus.read(sp, Size::Long));
            cpu.a[7] = sp.wrapping_add(4);
            next_pc = ret as usize;
        }
        Instr::Nop => {}
        Instr::JmpSimd => effect = Effect::EnterSimd,
        Instr::JmpMimd { target } => effect = Effect::ExitSimd { target },
        Instr::Barrier => effect = Effect::BarrierRequest,
        Instr::SetMask { mask } => effect = Effect::Mc(McEffect::SetMask(mask)),
        Instr::Enqueue { block } => effect = Effect::Mc(McEffect::Enqueue(block)),
        Instr::EnqueueWords { count } => effect = Effect::Mc(McEffect::EnqueueWords(count)),
        Instr::StartPes => effect = Effect::Mc(McEffect::StartPes),
        Instr::Mark { begin, phase } => effect = Effect::Mark { begin, phase },
        Instr::Halt => effect = Effect::Halt,
    }

    pend.commit(cpu);
    cpu.pc = next_pc;
    let dynamic = timing::dynamic_cycles(split.dynamic, ctx);
    StepOutcome::Done(StepResult {
        cycles: split.static_cycles + dynamic,
        fetch_words: split.fetch_words,
        data_accesses: split.data_accesses,
        variance: timing::variance_cycles(split.dynamic, dynamic),
        effect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MainOnlyBus;
    use pasm_isa::asm::assemble;
    use pasm_isa::{Cond, DataReg, Program};
    use pasm_mem::Memory;

    /// Run a program on a bare CPU + memory until HALT; return (cpu, mem, cycles).
    fn run(src: &str, setup: impl FnOnce(&mut Cpu, &mut Memory)) -> (Cpu, Memory, u64) {
        let prog: Program = assemble(src).expect("assembly");
        let mut cpu = Cpu::default();
        let mut mem = Memory::new(1 << 16);
        cpu.a[7] = 0x8000; // stack
        setup(&mut cpu, &mut mem);
        let mut cycles = 0u64;
        for _ in 0..1_000_000 {
            let instr = prog.instrs[cpu.pc];
            match exec(&mut cpu, &mut MemBus(&mut mem), &instr) {
                StepOutcome::Done(r) => {
                    cycles += r.cycles as u64;
                    if matches!(r.effect, Effect::Halt) {
                        return (cpu, mem, cycles);
                    }
                }
                StepOutcome::Blocked(b) => panic!("unexpected block {b:?}"),
            }
        }
        panic!("program did not halt");
    }

    /// Every lowered shape, by a dense index: the match is exhaustive, so a
    /// new [`Op`] variant fails to compile here until the differential test
    /// below draws it.
    fn shape_index(op: Op) -> usize {
        match op {
            Op::Generic => 0,
            Op::Dbra { .. } => 1,
            Op::Bcc { .. } => 2,
            Op::AddFromPostInc { .. } => 3,
            Op::AddReg { .. } => 4,
            Op::SubReg { .. } => 5,
            Op::CmpReg { .. } => 6,
            Op::OrReg { .. } => 7,
            Op::AddToPostInc { .. } => 8,
            Op::Addq { .. } => 9,
            Op::MoveFromPostInc { .. } => 10,
            Op::MoveFromDisp { .. } => 11,
            Op::MoveToPostInc { .. } => 12,
            Op::ShiftImm { .. } => 13,
            Op::MuluReg { .. } => 14,
            Op::AndImm { .. } => 15,
            Op::ClrReg { .. } => 16,
            Op::MoveByteFromAbs { .. } => 17,
            Op::MoveByteToAbs { .. } => 18,
        }
    }
    const SHAPES: usize = 19;

    /// Base of the memory the differential test's address registers point
    /// into, and the bytes it compares.
    const ARENA: u32 = 0x400;
    const ARENA_WORDS: usize = 0x200;

    /// A register value: mostly the carry, overflow and multiplier edges
    /// (0, 1, 0x7FFF, 0x8000, 0xFFFF, with and without high-word bits; a
    /// low word of 0 expires a DBRA counter), otherwise random.
    fn data_value(rng: &mut pasm_util::Rng) -> u32 {
        const EDGES: [u32; 7] = [0, 1, 0x7FFF, 0x8000, 0xFFFF, 0xFFFF_0000, 0x1234_8000];
        match rng.gen_range(3) {
            0 => rng.gen_u32(),
            _ => EDGES[rng.gen_range(EDGES.len())] ^ (rng.gen_range(2) as u32 * 0xABCD_0000),
        }
    }

    /// One random instruction of lowered shape `shape`. Address registers
    /// are set by the caller to point into the arena; absolute byte
    /// addresses are in the arena or memory-mapped.
    fn instr_of_shape(shape: usize, rng: &mut pasm_util::Rng) -> Instr {
        use pasm_isa::AddrReg;
        let dr = |rng: &mut pasm_util::Rng| DataReg::from_index(rng.gen_range(8)).unwrap();
        // A0–A6: A7 is left alone so a stray stack use would show.
        let ar = |rng: &mut pasm_util::Rng| AddrReg::from_index(rng.gen_range(7)).unwrap();
        let target = rng.gen_range(100);
        let abs = |rng: &mut pasm_util::Rng| match rng.gen_range(4) {
            0 => pasm_mem::map::NET_DRR + rng.gen_range(2) as u32,
            1 => pasm_mem::map::TIMER,
            _ => ARENA + rng.gen_range(2 * ARENA_WORDS) as u32,
        };
        let w = Size::Word;
        match shape {
            1 => Instr::Dbra {
                dst: dr(rng),
                target,
            },
            2 => {
                const CONDS: [Cond; 15] = [
                    Cond::True,
                    Cond::Ne,
                    Cond::Eq,
                    Cond::Cc,
                    Cond::Cs,
                    Cond::Pl,
                    Cond::Mi,
                    Cond::Ge,
                    Cond::Gt,
                    Cond::Le,
                    Cond::Lt,
                    Cond::Hi,
                    Cond::Ls,
                    Cond::Vc,
                    Cond::Vs,
                ];
                Instr::Bcc {
                    cond: CONDS[rng.gen_range(CONDS.len())],
                    target,
                }
            }
            3 => Instr::Add {
                size: w,
                src: Ea::PostInc(ar(rng)),
                dst: dr(rng),
            },
            4 => Instr::Add {
                size: w,
                src: Ea::D(dr(rng)),
                dst: dr(rng),
            },
            5 => Instr::Sub {
                size: w,
                src: Ea::D(dr(rng)),
                dst: dr(rng),
            },
            6 => Instr::Cmp {
                size: w,
                src: Ea::D(dr(rng)),
                dst: dr(rng),
            },
            7 => Instr::Or {
                size: w,
                src: Ea::D(dr(rng)),
                dst: dr(rng),
            },
            8 => Instr::AddTo {
                size: w,
                src: dr(rng),
                dst: Ea::PostInc(ar(rng)),
            },
            9 => Instr::Addq {
                size: w,
                value: 1 + rng.gen_range(8) as u8,
                dst: Ea::D(dr(rng)),
            },
            10 => Instr::Move {
                size: w,
                src: Ea::PostInc(ar(rng)),
                dst: Ea::D(dr(rng)),
            },
            11 => Instr::Move {
                size: w,
                src: match rng.gen_range(3) {
                    0 => Ea::Ind(ar(rng)),
                    // Negative and positive even displacements.
                    _ => Ea::Disp(2 * (rng.gen_range(64) as i16 - 32), ar(rng)),
                },
                dst: Ea::D(dr(rng)),
            },
            12 => Instr::Move {
                size: w,
                src: Ea::D(dr(rng)),
                dst: Ea::PostInc(ar(rng)),
            },
            13 => {
                use ShiftKind::*;
                Instr::Shift {
                    kind: [Lsl, Asl, Lsr, Asr][rng.gen_range(4)],
                    size: w,
                    count: ShiftCount::Imm(1 + rng.gen_range(8) as u8),
                    dst: dr(rng),
                }
            }
            14 => Instr::Mulu {
                src: Ea::D(dr(rng)),
                dst: dr(rng),
            },
            15 => Instr::And {
                size: w,
                src: Ea::Imm(data_value(rng)),
                dst: dr(rng),
            },
            16 => Instr::Clr {
                size: w,
                dst: Ea::D(dr(rng)),
            },
            17 => Instr::Move {
                size: Size::Byte,
                src: Ea::AbsL(abs(rng)),
                dst: Ea::D(dr(rng)),
            },
            18 => Instr::Move {
                size: Size::Byte,
                src: Ea::D(dr(rng)),
                dst: Ea::AbsL(abs(rng)),
            },
            _ => unreachable!("shape {shape}"),
        }
    }

    /// Differential test of the shape handlers: every lowered shape, on
    /// seeded random CPU states (all five flags, X included) and memory,
    /// through [`step`] and through the generic interpreter. Registers,
    /// flags, pc, arena bytes and the outcome must match; an access the bus
    /// refuses must block with the state bit-identical.
    #[test]
    fn shape_handlers_match_the_generic_interpreter() {
        let mut blocked = 0;
        for seed in 0..4000u64 {
            let mut rng = pasm_util::Rng::seed_from_u64(seed);
            let shape = 1 + (seed as usize % (SHAPES - 1));
            let instr = instr_of_shape(shape, &mut rng);
            let meta = InstrMeta::of(instr);
            assert_eq!(
                shape_index(meta.op),
                shape,
                "{instr} lowered to {:?}",
                meta.op
            );

            let mut cpu = Cpu::default();
            for d in &mut cpu.d {
                *d = data_value(&mut rng);
            }
            for a in &mut cpu.a {
                *a = ARENA + 64 + 2 * rng.gen_range(ARENA_WORDS - 64) as u32;
            }
            if rng.gen_range(8) == 0 {
                // An address register into SIMD space, memory-mapped at
                // every displacement drawn: the access must block.
                cpu.a[rng.gen_range(7)] = pasm_mem::map::SIMD_SPACE_BASE + 0x100;
            }
            let bits = rng.gen_range(32);
            cpu.ccr = Ccr {
                x: bits & 1 != 0,
                n: bits & 2 != 0,
                z: bits & 4 != 0,
                v: bits & 8 != 0,
                c: bits & 16 != 0,
            };
            cpu.pc = rng.gen_range(100);
            let mut mem = Memory::new(1 << 16);
            let words: Vec<u16> = (0..ARENA_WORDS)
                .map(|_| data_value(&mut rng) as u16)
                .collect();
            mem.load_words(ARENA, &words);

            // The fast path's bus: memory-mapped accesses are refused.
            let (mut want_cpu, mut want_mem) = (cpu.clone(), mem.clone());
            let want_bus = &mut MainOnlyBus(&mut want_mem);
            let want = exec_timed(&mut want_cpu, want_bus, &instr, &meta.split);
            let (mut got_cpu, mut got_mem) = (cpu.clone(), mem.clone());
            let got = step(&mut got_cpu, &mut MainOnlyBus(&mut got_mem), &meta);
            assert_eq!(got, want, "seed {seed}: {instr}");
            assert_eq!(got_cpu, want_cpu, "seed {seed}: {instr}");
            let dump = |m: &Memory| m.dump_words(ARENA, ARENA_WORDS);
            assert_eq!(dump(&got_mem), dump(&want_mem), "seed {seed}: {instr}");
            if let StepOutcome::Blocked(b) = got {
                assert_eq!(b, Block::Mmio);
                assert_eq!(
                    got_cpu, cpu,
                    "seed {seed}: {instr} blocked but changed state"
                );
                assert_eq!(
                    dump(&got_mem),
                    words,
                    "seed {seed}: {instr} blocked but wrote"
                );
                blocked += 1;
            }
        }
        assert!(blocked > 0, "no access was refused");
    }

    #[test]
    fn loop_sums_words() {
        let (cpu, _, _) = run(
            "
                MOVEQ   #0,D0
                MOVEQ   #3,D1
                LEA     $100.W,A0
            top: ADD.W  (A0)+,D0
                DBRA    D1,top
                HALT
            ",
            |_, mem| mem.load_words(0x100, &[10, 20, 30, 40]),
        );
        assert_eq!(cpu.d[0] & 0xFFFF, 100);
        assert_eq!(cpu.a[0], 0x108);
    }

    #[test]
    fn mulu_and_muls_products() {
        let (cpu, _, _) = run(
            "
                MOVE.W  #300,D0
                MOVE.W  #700,D1
                MULU    D1,D0      ; D0 = 210000
                MOVE.W  #$FFFF,D2  ; -1 as signed word
                MOVE.W  #5,D3
                MULS    D3,D2      ; D2 = -5
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0], 210_000);
        assert_eq!(cpu.d[2], (-5i32) as u32);
    }

    #[test]
    fn conditional_branches() {
        let (cpu, _, _) = run(
            "
                MOVEQ   #5,D0
                CMPI.W  #5,D0
                BEQ     eq
                MOVEQ   #0,D7
                HALT
            eq: MOVEQ   #1,D7
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[7], 1);
    }

    #[test]
    fn signed_vs_unsigned_compares() {
        let (cpu, _, _) = run(
            "
                MOVE.W  #$8000,D0   ; -32768 signed, 32768 unsigned
                CMPI.W  #1,D0
                BLT     signed_less
                MOVEQ   #0,D6
                BRA     next
            signed_less: MOVEQ #1,D6
            next: CMPI.W #1,D0
                BHI     unsigned_greater
                MOVEQ   #0,D7
                HALT
            unsigned_greater: MOVEQ #1,D7
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[6], 1, "signed: 0x8000 < 1");
        assert_eq!(cpu.d[7], 1, "unsigned: 0x8000 > 1");
    }

    #[test]
    fn shifts_and_or_assemble_16bit_from_bytes() {
        // The paper's 16-bit-over-8-bit-network recipe: shift + OR.
        let (cpu, _, _) = run(
            "
                MOVE.B  #$AB,D0
                LSL.W   #8,D0
                MOVE.B  #$CD,D1
                OR.W    D1,D0
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0] & 0xFFFF, 0xABCD);
    }

    #[test]
    fn jsr_rts_roundtrip() {
        let (cpu, _, _) = run(
            "
                JSR     sub
                MOVEQ   #7,D1
                HALT
            sub: MOVEQ  #3,D0
                RTS
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0], 3);
        assert_eq!(cpu.d[1], 7);
        assert_eq!(cpu.a[7], 0x8000, "stack balanced");
    }

    #[test]
    fn dbra_runs_count_plus_one_times() {
        let (cpu, _, _) = run(
            "
                MOVEQ   #0,D0
                MOVE.W  #4,D1
            t:  ADDQ.W  #1,D0
                DBRA    D1,t
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0], 5);
    }

    #[test]
    fn predec_postinc_pair() {
        let (cpu, mem, _) = run(
            "
                LEA     $200.W,A0
                LEA     $200.W,A1
                MOVE.W  #$1234,-(A0)
                MOVE.W  #$5678,-(A0)
                MOVE.W  (A0)+,D0
                MOVE.W  (A0)+,D1
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0] & 0xFFFF, 0x5678);
        assert_eq!(cpu.d[1] & 0xFFFF, 0x1234);
        assert_eq!(cpu.a[0], 0x200);
        assert_eq!(mem.read_word(0x1FE), 0x1234);
    }

    #[test]
    fn cycles_accumulate_realistically() {
        // 5 MOVEQ (4 cycles each) + HALT(4) = 24 core cycles.
        let (_, _, cycles) = run(
            "
                MOVEQ #1,D0
                MOVEQ #2,D1
                MOVEQ #3,D2
                MOVEQ #4,D3
                MOVEQ #5,D4
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cycles, 24);
    }

    #[test]
    fn effects_surface() {
        let mut cpu = Cpu::default();
        let mut mem = Memory::new(64);
        let r = exec(&mut cpu, &mut MemBus(&mut mem), &Instr::JmpSimd);
        let StepOutcome::Done(r) = r else { panic!() };
        assert_eq!(r.effect, Effect::EnterSimd);
        let r = exec(
            &mut cpu,
            &mut MemBus(&mut mem),
            &Instr::Mark {
                begin: true,
                phase: 2,
            },
        );
        let StepOutcome::Done(r) = r else { panic!() };
        assert_eq!(
            r.effect,
            Effect::Mark {
                begin: true,
                phase: 2
            }
        );
        assert_eq!(r.cycles, 0);
        let r = exec(
            &mut cpu,
            &mut MemBus(&mut mem),
            &Instr::Bcc {
                cond: Cond::True,
                target: 9,
            },
        );
        let StepOutcome::Done(_) = r else { panic!() };
        assert_eq!(cpu.pc, 9);
    }

    #[test]
    fn divu_quotient_and_remainder() {
        let (cpu, _, _) = run(
            "
                MOVE.L  #100007,D0
                MOVE.W  #100,D1
                DIVU    D1,D0      ; q=1000, r=7
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0] & 0xFFFF, 1000, "quotient in the low word");
        assert_eq!(cpu.d[0] >> 16, 7, "remainder in the high word");
    }

    #[test]
    fn divu_overflow_leaves_register_and_sets_v() {
        let mut cpu = Cpu::default();
        cpu.d[0] = 0x0012_3456; // high word 0x12 >= divisor 3 => overflow
        cpu.d[1] = 3;
        let mut mem = Memory::new(64);
        let i = Instr::Divu {
            src: Ea::D(DataReg::D1),
            dst: DataReg::D0,
        };
        let StepOutcome::Done(r) = exec(&mut cpu, &mut MemBus(&mut mem), &i) else {
            panic!()
        };
        assert_eq!(cpu.d[0], 0x0012_3456, "destination unchanged on overflow");
        assert!(cpu.ccr.v);
        assert_eq!(r.cycles, 10, "early-out timing");
    }

    #[test]
    fn divs_signed_semantics() {
        let (cpu, _, _) = run(
            "
                MOVE.L  #-100,D0
                MOVE.W  #7,D1
                DIVS    D1,D0      ; -100/7 = -14 rem -2 (truncating)
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0] & 0xFFFF, (-14i16 as u16) as u32);
        assert_eq!((cpu.d[0] >> 16) as u16 as i16, -2);
    }

    #[test]
    fn divu_timing_depends_on_quotient_zeros() {
        // q = 0xFFFF (no zero bits) is fastest; q = 1 (15 zero bits) slower.
        let fast = pasm_isa::timing::divu_cycles(0xFFFF, 1);
        let slow = pasm_isa::timing::divu_cycles(1, 1);
        assert_eq!(fast, 76);
        assert_eq!(slow, 76 + 4 * 15);
        assert!(pasm_isa::timing::divs_cycles((-1i32) as u32, 1) > fast);
    }

    #[test]
    fn rotates_wrap_bits() {
        let (cpu, _, _) = run(
            "
                MOVE.W  #$8001,D0
                ROL.W   #1,D0      ; -> $0003
                MOVE.W  #$8001,D1
                ROR.W   #1,D1      ; -> $C000
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[0] & 0xFFFF, 0x0003);
        assert_eq!(cpu.d[1] & 0xFFFF, 0xC000);
    }

    #[test]
    fn btst_sets_z_only() {
        let (cpu, _, _) = run(
            "
                MOVE.W  #%100,D0
                BTST    #2,D0
                BEQ     zero
                MOVEQ   #1,D7
                BRA     done
            zero: MOVEQ #0,D7
            done: BTST  #1,D0
                BEQ     z2
                MOVEQ   #9,D6
                HALT
            z2: MOVEQ   #2,D6
                HALT
            ",
            |_, _| {},
        );
        assert_eq!(cpu.d[7], 1, "bit 2 is set");
        assert_eq!(cpu.d[6], 2, "bit 1 is clear");
    }

    #[test]
    fn mulu_reports_data_dependent_cycles() {
        let mut cpu = Cpu::default();
        cpu.d[1] = 0xFFFF;
        cpu.d[0] = 2;
        let mut mem = Memory::new(64);
        let i = Instr::Mulu {
            src: Ea::D(DataReg::D1),
            dst: DataReg::D0,
        };
        let StepOutcome::Done(r) = exec(&mut cpu, &mut MemBus(&mut mem), &i) else {
            panic!()
        };
        assert_eq!(r.cycles, 70);
        assert_eq!(r.variance, 32, "70 cycles over the 38-cycle floor");
        assert_eq!(cpu.d[0], 0x1FFFE);
    }
}
