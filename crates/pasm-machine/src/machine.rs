//! The machine: PEs, MCs, Fetch Units, network state, and the event scheduler.
//!
//! Every component (PE, MC, Fetch Unit controller) carries its own local cycle
//! clock; the scheduler repeatedly executes the runnable component with the
//! smallest next event time, so cross-component interactions (queue releases,
//! network handshakes, controller stalls) are resolved in global time order.
//! All of the paper's phenomena are *emergent* here: SIMD's per-instruction
//! `max` comes from the Fetch Unit release rule, MIMD's polling overhead from
//! actual polling instructions, and SIMD superlinearity from the MC executing
//! control flow while its PEs compute.

use crate::account::{variance_floor, Bucket, CycleAccount, MachineAccounts};
use crate::block::{self, CompiledProgram, InstrMeta};
use crate::config::{MachineConfig, ReleaseMode};
use crate::cpu::{
    exec, exec_timed, Block, Bus, Cpu, Effect, McEffect, MemBus, StepOutcome, StepResult,
};
use crate::fault::{FaultPlan, PeFault};
use crate::fetch_unit::{EntryKind, FetchUnit, FuStats, QueueEntry};
use crate::trace::{McTrace, PeTrace};
use pasm_isa::{Instr, Program, Size};
use pasm_mem::map::{self, MemMap, NetReg, Region};
use pasm_mem::{BurstClock, MemTiming, Memory};
use pasm_net::{ring_circuits, CircuitId, EscNetwork, NetError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Execution mode of a PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeMode {
    /// Fetching instructions from its own program (own memory).
    Mimd,
    /// Fetching instructions from its MC's Fetch Unit queue.
    Simd,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeState {
    /// Not started.
    Idle,
    /// Can execute at `ready_at`.
    Ready,
    /// Waiting for a word from SIMD space (instruction fetch or barrier read).
    AwaitSimd { since: u64 },
    /// Blocked writing the network transmit register.
    AwaitNetTx { since: u64 },
    /// Blocked reading the network receive register.
    AwaitNetRx { since: u64 },
    /// Stopped.
    Halted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum McState {
    Idle,
    Ready,
    /// Waiting for the Fetch Unit controller to accept the next command.
    AwaitFuc {
        since: u64,
    },
    Halted,
}

/// A byte travelling to (or parked at) a PE's receive register.
#[derive(Debug, Clone, Copy)]
struct RxByte {
    value: u8,
    valid_at: u64,
}

/// Shared network data-plane state (the structural routing lives in `pasm-net`).
#[derive(Debug)]
struct NetState {
    /// Established circuit destination per PE.
    dest: Vec<Option<usize>>,
    /// In-flight / parked byte per destination PE.
    rx: Vec<Option<RxByte>>,
    /// Per-sender extra cycles each transmitted word pays for network stages
    /// beyond the fault-free minimum (nonzero only on degraded networks).
    detour: Vec<u64>,
}

struct Pe {
    cpu: Cpu,
    mem: Memory,
    program: Program,
    mode: PeMode,
    state: PeState,
    ready_at: u64,
    /// SIMD-delivered instruction awaiting execution.
    pending: Option<QueueEntry>,
    /// Queue cursor for `ReleaseMode::Decoupled`.
    cursor: usize,
    /// Block table of `program`, shared via the machine's fingerprint cache;
    /// `None` forces the per-instruction path (fault-plan invalidation).
    compiled: Option<Arc<CompiledProgram>>,
}

struct Mc {
    cpu: Cpu,
    mem: Memory,
    program: Program,
    state: McState,
    ready_at: u64,
    /// Block table of `program`, with its SIMD blocks compiled: the queue
    /// entries of this MC's Fetch Unit index [`CompiledProgram::simd`].
    compiled: Arc<CompiledProgram>,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Global completion time: the latest halt over all components.
    pub makespan: u64,
    /// Latest PE halt time (excludes MC wind-down).
    pub pe_makespan: u64,
    /// Per-PE summaries, derived from the cycle accounts.
    pub pe: Vec<PeTrace>,
    /// Per-MC summaries, derived from the cycle accounts.
    pub mc: Vec<McTrace>,
    /// Per-Fetch-Unit statistics.
    pub fu: Vec<FuStats>,
    /// Cycle accounts per component, `None` if left out with
    /// [`Machine::set_accounting`].
    pub accounts: Option<MachineAccounts>,
}

impl RunResult {
    /// Sum of a phase's cycles, maximized over PEs (the paper's per-phase
    /// contribution is the slowest processor's view).
    pub fn phase_max(&self, phase: usize) -> u64 {
        self.pe
            .iter()
            .map(|t| t.phase_cycles[phase])
            .max()
            .unwrap_or(0)
    }

    /// Mean over PEs that executed anything.
    pub fn phase_mean(&self, phase: usize) -> f64 {
        let active: Vec<&PeTrace> = self.pe.iter().filter(|t| t.instrs > 0).collect();
        if active.is_empty() {
            return 0.0;
        }
        active
            .iter()
            .map(|t| t.phase_cycles[phase] as f64)
            .sum::<f64>()
            / active.len() as f64
    }

    /// Total instructions executed by PEs.
    pub fn pe_instrs(&self) -> u64 {
        self.pe.iter().map(|t| t.instrs).sum()
    }
}

/// Errors a run can end with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// No component can make progress but not everything has halted.
    Deadlock(String),
    /// The configured cycle budget was exceeded.
    CycleLimit(u64),
    /// An external party tripped the interrupt flag (see
    /// [`Machine::set_interrupt`]) — job cancellation, watchdog deadline.
    Interrupted,
    /// The network could not establish the circuits a job needs — e.g. a
    /// full-machine ring under an interior-box fault, which the ESC cannot
    /// route in one pass. Carries the underlying [`pasm_net::NetError`] text.
    Net(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock(s) => write!(f, "deadlock: {s}"),
            RunError::CycleLimit(c) => write!(f, "cycle limit {c} exceeded"),
            RunError::Interrupted => write!(f, "interrupted"),
            RunError::Net(s) => write!(f, "network: {s}"),
        }
    }
}

impl std::error::Error for RunError {}

/// The simulated PASM prototype.
pub struct Machine {
    cfg: MachineConfig,
    pes: Vec<Pe>,
    mcs: Vec<Mc>,
    fus: Vec<FetchUnit>,
    /// Scheduler index: the next event time of each PE, then of each MC —
    /// its `ready_at` while `Ready`, `u64::MAX` otherwise (simulated time
    /// never reaches it: runs stop at `max_cycles`). Written only by
    /// [`Machine::set_pe`] and [`Machine::set_mc`].
    due: Vec<u64>,
    net: NetState,
    esc: EscNetwork,
    /// Cycle accounts: the one record every executed instruction and every
    /// wait is charged to.
    acct: MachineAccounts,
    /// Whether the result carries `acct` (see [`Machine::set_accounting`]).
    report_accounts: bool,
    /// Injected per-PE fault models.
    pe_faults: Vec<Option<PeFault>>,
    /// Per MC, the group-local mask bits of its PEs that are not dead: the
    /// PEs a Fetch-Unit entry can wait for.
    live: Vec<u16>,
    /// Cooperative cancellation: checked periodically by [`Machine::run`].
    interrupt: Option<Arc<AtomicBool>>,
    /// Block tables keyed by program fingerprint; components running the same
    /// program (every PE of a data-parallel kernel) share one compilation.
    block_cache: HashMap<u64, Arc<CompiledProgram>>,
    /// Block-compiled fast path enabled (default). Timing and accounting are
    /// byte-identical either way — gated by the equivalence tests.
    fast_path: bool,
}

enum Component {
    Pe(usize),
    Mc(usize),
    Fuc(usize),
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.assert_valid();
        let pes = (0..cfg.n_pes)
            .map(|_| Pe {
                cpu: Cpu::default(),
                mem: Memory::new(cfg.pe_mem_bytes),
                program: Program::default(),
                mode: PeMode::Mimd,
                state: PeState::Idle,
                ready_at: 0,
                pending: None,
                cursor: 0,
                compiled: None,
            })
            .collect();
        let mcs = (0..cfg.n_mcs)
            .map(|_| Mc {
                cpu: Cpu::default(),
                mem: Memory::new(1 << 16),
                program: Program::default(),
                state: McState::Idle,
                ready_at: 0,
                compiled: Arc::default(),
            })
            .collect();
        let fus = (0..cfg.n_mcs)
            .map(|_| FetchUnit::new(cfg.queue_capacity_words))
            .collect();
        let net = NetState {
            dest: vec![None; cfg.n_pes],
            rx: vec![None; cfg.n_pes],
            detour: vec![0; cfg.n_pes],
        };
        let esc = EscNetwork::new(cfg.n_pes.max(2));
        let acct = MachineAccounts::new(cfg.n_pes, cfg.n_mcs);
        let pe_faults = vec![None; cfg.n_pes];
        let live = vec![((1u32 << cfg.pes_per_mc()) - 1) as u16; cfg.n_mcs];
        let due = vec![u64::MAX; cfg.n_pes + cfg.n_mcs];
        Machine {
            cfg,
            pes,
            mcs,
            fus,
            due,
            net,
            esc,
            acct,
            report_accounts: true,
            pe_faults,
            live,
            interrupt: None,
            block_cache: HashMap::new(),
            fast_path: true,
        }
    }

    /// Enable or disable the block-compiled fast path (enabled by default).
    /// Disabling it forces the per-instruction interpreter everywhere; the
    /// simulated timing, traces and cycle accounts are identical either way.
    /// Like [`Machine::set_accounting`], this is deliberately not part of
    /// [`MachineConfig`]: it changes how fast the simulator runs, never what
    /// it simulates.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// The block table a PE's loaded program compiled to (diagnostics), or
    /// `None` if the PE was invalidated back to the per-instruction path.
    pub fn pe_compiled(&self, pe: usize) -> Option<&CompiledProgram> {
        self.pes[pe].compiled.as_deref()
    }

    /// Fetch or build the shared block table for a program.
    fn compile_program(&mut self, program: &Program) -> Arc<CompiledProgram> {
        let fp = block::program_fingerprint(program);
        if let Some(c) = self.block_cache.get(&fp) {
            return Arc::clone(c);
        }
        let c = Arc::new(block::compile_program(program));
        self.block_cache.insert(fp, Arc::clone(&c));
        c
    }

    /// Whether the result carries the cycle accounts (default on). The
    /// machine keeps them either way — the traces derive from them — so
    /// this changes only [`RunResult::accounts`], never the simulation.
    pub fn set_accounting(&mut self, enabled: bool) {
        self.report_accounts = enabled;
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Controlling MC of a PE: PASM assigns PE *i* to MC *i mod Q* (the
    /// low-order q bits of the PE number select the MC).
    pub fn mc_of_pe(&self, pe: usize) -> usize {
        pe % self.cfg.n_mcs
    }

    /// Group-local index of a PE within its MC group (its mask bit).
    pub fn group_bit(&self, pe: usize) -> u16 {
        (pe / self.cfg.n_mcs) as u16
    }

    /// Physical PEs controlled by an MC, in mask-bit order.
    pub fn group_pes(&self, mc: usize) -> impl Iterator<Item = usize> {
        self.group_members(mc, ((1u32 << self.cfg.pes_per_mc()) - 1) as u16)
    }

    /// The PEs of an MC's group whose mask bits are set in `bits` (a subset
    /// of the group's bits), in mask-bit and so PE-index order.
    fn group_members(&self, mc: usize, mut bits: u16) -> impl Iterator<Item = usize> {
        let n_mcs = self.cfg.n_mcs;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let j = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                j * n_mcs + mc
            })
        })
    }

    /// Load a PE's MIMD program.
    pub fn load_pe_program(&mut self, pe: usize, program: Program) {
        program.validate().expect("invalid PE program");
        let compiled = self.compile_program(&program);
        self.pes[pe].program = program;
        self.pes[pe].compiled = (self.pe_faults[pe].is_none()).then_some(compiled);
    }

    /// Load an MC's control program.
    pub fn load_mc_program(&mut self, mc: usize, program: Program) {
        program.validate().expect("invalid MC program");
        let compiled = self.compile_program(&program);
        self.mcs[mc].program = program;
        self.mcs[mc].compiled = compiled;
        self.set_mc(mc, McState::Ready, self.mcs[mc].ready_at);
    }

    /// Direct access to a PE's memory (data set-up; the paper's secondary-
    /// storage I/O is outside the measured program time).
    pub fn pe_mem_mut(&mut self, pe: usize) -> &mut Memory {
        &mut self.pes[pe].mem
    }

    /// Read access to a PE's memory (result verification).
    pub fn pe_mem(&self, pe: usize) -> &Memory {
        &self.pes[pe].mem
    }

    /// Read access to a PE's CPU (tests).
    pub fn pe_cpu(&self, pe: usize) -> &Cpu {
        &self.pes[pe].cpu
    }

    /// Mutable access to a PE's CPU (test set-up).
    pub fn pe_cpu_mut(&mut self, pe: usize) -> &mut Cpu {
        &mut self.pes[pe].cpu
    }

    /// The structural network (fault injection, reconfiguration).
    pub fn network_mut(&mut self) -> &mut EscNetwork {
        &mut self.esc
    }

    /// Inject a fault plan: network faults go to the ESC (which reconfigures
    /// its bypass stages for them), PE faults are latched per PE. Must be
    /// called before circuits are established and PEs are started.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), String> {
        plan.validate(self.cfg.n_pes)?;
        self.esc.apply_faults(&plan.net);
        for spec in &plan.pe {
            self.pe_faults[spec.pe] = Some(spec.kind);
            if spec.kind == PeFault::Dead {
                let mc = self.mc_of_pe(spec.pe);
                self.live[mc] &= !(1 << self.group_bit(spec.pe));
            }
            // A faulted PE's timing model no longer matches its block table
            // (slow-PE wait states, stuck ports): drop it so the PE re-enters
            // the per-instruction path. Unaffected PEs keep their tables.
            self.pes[spec.pe].compiled = None;
        }
        Ok(())
    }

    /// Install a cooperative cancellation flag: [`Machine::run`] checks it
    /// periodically and returns [`RunError::Interrupted`] once it is set.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    fn is_dead(&self, pe: usize) -> bool {
        matches!(self.pe_faults[pe], Some(PeFault::Dead))
    }

    /// Per-word cycles a circuit pays for stages beyond the fault-free
    /// minimum of m. Zero unless the network runs degraded with both cube₀
    /// stages in the data path (m + 1 hops).
    fn detour_cycles_for(&self, id: CircuitId) -> u64 {
        let hops = self.esc.circuit(id).map(|p| p.hops.len()).unwrap_or(0) as u64;
        let m = self.esc.size().trailing_zeros() as u64;
        hops.saturating_sub(m) * self.cfg.net_stage_cycles
    }

    /// Establish one circuit `src → dst` (consuming boxes in the ESC network).
    pub fn connect(&mut self, src: usize, dst: usize) -> Result<(), NetError> {
        let id = self.esc.establish(src, dst)?;
        self.net.dest[src] = Some(dst);
        self.net.detour[src] = self.detour_cycles_for(id);
        Ok(())
    }

    /// Establish the matmul ring over the listed physical PEs:
    /// `pes[k] → pes[(k + len − 1) % len]`.
    pub fn connect_ring(&mut self, pes: &[usize]) -> Result<(), NetError> {
        let ids = ring_circuits(&mut self.esc, pes)?;
        let p = pes.len();
        for (k, &src) in pes.iter().enumerate() {
            self.net.dest[src] = Some(pes[(k + p - 1) % p]);
            self.net.detour[src] = self.detour_cycles_for(ids[k]);
        }
        Ok(())
    }

    /// Start a PE directly (tests / serial runs without MC orchestration).
    /// A dead PE silently refuses to start — exactly like real hardware that
    /// never answers.
    pub fn start_pe(&mut self, pe: usize, at: u64) {
        assert!(!self.pes[pe].program.is_empty(), "PE {pe} has no program");
        if self.is_dead(pe) {
            return;
        }
        if self.pes[pe].state == PeState::Idle {
            self.acct.pe[pe].started_at = at;
        }
        self.set_pe(pe, PeState::Ready, at);
    }

    // ------------------------------------------------------------------
    // Scheduler
    // ------------------------------------------------------------------

    /// Set PE `i`'s state and next event time, keeping `due` in step.
    #[inline]
    fn set_pe(&mut self, i: usize, state: PeState, ready_at: u64) {
        let pe = &mut self.pes[i];
        pe.state = state;
        pe.ready_at = ready_at;
        self.due[i] = if state == PeState::Ready {
            ready_at
        } else {
            u64::MAX
        };
    }

    /// Set MC `i`'s state and next event time, keeping `due` in step.
    #[inline]
    fn set_mc(&mut self, i: usize, state: McState, ready_at: u64) {
        let mc = &mut self.mcs[i];
        mc.state = state;
        mc.ready_at = ready_at;
        self.due[self.pes.len() + i] = if state == McState::Ready {
            ready_at
        } else {
            u64::MAX
        };
    }

    /// Whether every `due` entry matches its component's state.
    fn due_in_step(&self) -> bool {
        let pes = self
            .pes
            .iter()
            .map(|p| (p.state == PeState::Ready, p.ready_at));
        let mcs = self
            .mcs
            .iter()
            .map(|m| (m.state == McState::Ready, m.ready_at));
        pes.chain(mcs)
            .zip(&self.due)
            .all(|((ready, at), &due)| due == if ready { at } else { u64::MAX })
    }

    /// The component with the earliest next event. Ties go to PEs by index,
    /// then MCs by index (the first minimum of `due`), then Fetch Unit
    /// controllers by index.
    fn next_runnable(&mut self) -> Option<(Component, u64)> {
        let t = self.due.iter().copied().min().unwrap_or(u64::MAX);
        let mut best = (t != u64::MAX).then(|| {
            let k = self.due.iter().position(|&d| d == t);
            let k = k.expect("the minimum of `due` is one of its entries");
            let c = match k.checked_sub(self.pes.len()) {
                None => Component::Pe(k),
                Some(m) => Component::Mc(m),
            };
            (c, t)
        });
        for i in 0..self.fus.len() {
            if let Some(t) = self.fus[i].next_move_completion(self.cfg.fuc_cycles_per_word) {
                if best.as_ref().is_none_or(|(_, bt)| t < *bt) {
                    best = Some((Component::Fuc(i), t));
                }
            }
        }
        best
    }

    /// Run until everything halts (or idles). Returns the collected result.
    pub fn run(&mut self) -> Result<RunResult, RunError> {
        let mut steps: u32 = 0;
        loop {
            steps = steps.wrapping_add(1);
            if steps & 0x3FF == 0 {
                if let Some(flag) = &self.interrupt {
                    if flag.load(Ordering::Relaxed) {
                        return Err(RunError::Interrupted);
                    }
                }
            }
            debug_assert!(self.due_in_step(), "scheduler index out of step");
            match self.next_runnable() {
                Some((_, t)) if t > self.cfg.max_cycles => {
                    return Err(RunError::CycleLimit(self.cfg.max_cycles));
                }
                Some((Component::Pe(i), _)) => self.step_pe(i),
                Some((Component::Mc(i), _)) => self.step_mc(i),
                Some((Component::Fuc(i), t)) => self.step_fuc(i, t),
                None => break,
            }
        }
        // Completion check: anything still waiting is a deadlock.
        let mut stuck = Vec::new();
        for (i, pe) in self.pes.iter().enumerate() {
            match pe.state {
                PeState::Idle | PeState::Halted | PeState::Ready => {}
                s => stuck.push(format!("PE{i} {s:?} pc={}", pe.cpu.pc)),
            }
        }
        for (i, mc) in self.mcs.iter().enumerate() {
            if let McState::AwaitFuc { .. } = mc.state {
                stuck.push(format!("MC{i} AwaitFuc pc={}", mc.cpu.pc));
            }
        }
        if !stuck.is_empty() {
            return Err(RunError::Deadlock(stuck.join(", ")));
        }
        Ok(self.result())
    }

    fn result(&self) -> RunResult {
        let pe: Vec<PeTrace> = self.acct.pe.iter().map(PeTrace::from).collect();
        let mc: Vec<McTrace> = self.acct.mc.iter().map(McTrace::from).collect();
        let pe_makespan = pe.iter().map(|t| t.finished_at).max().unwrap_or(0);
        let mc_makespan = mc.iter().map(|t| t.finished_at).max().unwrap_or(0);
        RunResult {
            makespan: pe_makespan.max(mc_makespan),
            pe_makespan,
            pe,
            mc,
            fu: self.fus.iter().map(|f| f.stats).collect(),
            accounts: self.report_accounts.then(|| self.acct.clone()),
        }
    }

    // ------------------------------------------------------------------
    // PE stepping
    // ------------------------------------------------------------------

    /// Block-compiled fast path for a PE: execute straight-line MIMD work
    /// without returning to the event scheduler between instructions.
    ///
    /// Sound because a Ready MIMD-mode PE touching only its own memory cannot
    /// interact with any other component: nothing external mutates a Ready
    /// PE, and instructions without machine effects have none outward — so
    /// running the PE arbitrarily far ahead of global time commutes with any
    /// scheduler interleaving. The batch leaves (and the per-instruction path
    /// takes over) at every *stop* instruction (mode switch, barrier, halt)
    /// and at any memory-mapped access ([`Block::Mmio`], raised before any
    /// state changes); see [`exec_batch`].
    ///
    /// Returns `true` if at least one instruction was executed.
    fn try_fast_pe(&mut self, i: usize) -> bool {
        let pe = &mut self.pes[i];
        if pe.mode != PeMode::Mimd || pe.pending.is_some() {
            return false;
        }
        // A faulted PE has no table (see `apply_fault_plan`).
        let Some(compiled) = pe.compiled.as_deref() else {
            return false;
        };
        if compiled.meta.get(pe.cpu.pc).is_none_or(|m| m.stop) {
            return false;
        }
        let Some(end) = exec_batch(
            &mut pe.cpu,
            &mut MainOnlyBus(&mut pe.mem),
            compiled,
            &mut self.acct.pe[i],
            pe.ready_at,
            self.cfg.pe_dram,
            self.cfg.max_cycles,
        ) else {
            return false;
        };
        self.set_pe(i, PeState::Ready, end);
        true
    }

    fn step_pe(&mut self, i: usize) {
        if self.fast_path && self.try_fast_pe(i) {
            return;
        }
        let now = self.pes[i].ready_at;

        let (instr, simd_delivered) = match self.pes[i].pending {
            Some(QueueEntry {
                kind: EntryKind::Instr(k),
                ..
            }) => {
                let mc = &self.mcs[self.mc_of_pe(i)];
                (mc.compiled.simd[k as usize].instr, true)
            }
            _ => {
                let pc = self.pes[i].cpu.pc;
                let prog = &self.pes[i].program;
                assert!(
                    pc < prog.instrs.len(),
                    "PE {i}: pc {pc} fell off the program"
                );
                (prog.instrs[pc], false)
            }
        };

        // Execute against the PE bus.
        let outcome;
        let extra_cycles;
        let detour_cycles;
        let wrote_net_to;
        let consumed_rx;
        {
            let detour_per_word = self.net.detour[i];
            let stuck_tx = matches!(self.pe_faults[i], Some(PeFault::StuckTx));
            let pe = &mut self.pes[i];
            let mut bus = PeBus {
                mem: &mut pe.mem,
                net: &mut self.net,
                pe: i,
                now,
                net_word_cycles: self.cfg.net_word_cycles,
                detour_per_word,
                stuck_tx,
                extra_cycles: 0,
                detour_cycles: 0,
                wrote_net_to: None,
                consumed_rx: false,
            };
            outcome = exec(&mut pe.cpu, &mut bus, &instr);
            extra_cycles = bus.extra_cycles;
            detour_cycles = bus.detour_cycles;
            wrote_net_to = bus.wrote_net_to;
            consumed_rx = bus.consumed_rx;
        }

        let r = match outcome {
            StepOutcome::Blocked(Block::NetTxFull) => {
                self.set_pe(i, PeState::AwaitNetTx { since: now }, now);
                return;
            }
            StepOutcome::Blocked(Block::NetRxEmpty) => {
                self.set_pe(i, PeState::AwaitNetRx { since: now }, now);
                return;
            }
            StepOutcome::Blocked(Block::Mmio) => {
                unreachable!("PE {i}: full bus raised the fast-path-only Mmio block")
            }
            StepOutcome::Done(r) => r,
        };

        // Charge memory waits: instruction words come from the queue (SRAM) in
        // SIMD mode, from PE DRAM in MIMD mode; operand traffic is always DRAM.
        let fetch_timing = if simd_delivered {
            self.cfg.fu_sram
        } else {
            self.cfg.pe_dram
        };
        let fetch_wait = fetch_timing.burst_delay(now, r.fetch_words);
        let data_wait = self
            .cfg
            .pe_dram
            .burst_delay(now + fetch_wait, r.data_accesses);
        // Slow-PE fault model: every operand access pays extra wait states.
        let slow_wait = match self.pe_faults[i] {
            Some(PeFault::Slow { extra_wait }) => extra_wait * r.data_accesses as u64,
            _ => 0,
        };
        let waits = Waits {
            fetch: fetch_wait,
            data: data_wait,
            network: extra_cycles,
            fault: detour_cycles + slow_wait,
        };
        let acc = &mut self.acct.pe[i];
        let mut charges = Charges::default();
        let new_now = charges.charge(acc, &instr, variance_floor(&instr), &r, now, waits);
        charges.flush(acc);
        acc.net_bytes_sent += wrote_net_to.is_some() as u64;

        // Network wakeups.
        if let Some(dest) = wrote_net_to {
            if let PeState::AwaitNetRx { since } = self.pes[dest].state {
                let valid_at = self.net.rx[dest].map(|b| b.valid_at).unwrap_or(new_now);
                let wake = valid_at.max(since);
                self.acct.pe[dest].charge(Bucket::Network, wake - since);
                self.set_pe(dest, PeState::Ready, wake);
            }
        }
        if consumed_rx {
            // Senders blocked on our receive register may proceed.
            for s in 0..self.pes.len() {
                if self.net.dest[s] == Some(i) {
                    if let PeState::AwaitNetTx { since } = self.pes[s].state {
                        let wake = new_now.max(since);
                        self.acct.pe[s].charge(Bucket::Network, wake - since);
                        self.set_pe(s, PeState::Ready, wake);
                    }
                }
            }
        }

        self.set_pe(i, PeState::Ready, new_now);
        if simd_delivered {
            self.pes[i].pending = None;
        }

        match r.effect {
            Effect::None | Effect::Mark { .. } => {
                if self.pes[i].mode == PeMode::Simd {
                    self.issue_simd_request(i, new_now);
                }
            }
            Effect::Halt => {
                self.set_pe(i, PeState::Halted, new_now);
                self.acct.pe[i].finished_at = new_now;
            }
            Effect::EnterSimd => {
                self.pes[i].mode = PeMode::Simd;
                self.issue_simd_request(i, new_now);
            }
            Effect::ExitSimd { target } => {
                assert!(simd_delivered, "PE {i}: JMPMIMD outside the SIMD stream");
                self.pes[i].mode = PeMode::Mimd;
                self.pes[i].cpu.pc = target;
            }
            Effect::BarrierRequest => {
                assert_eq!(
                    self.pes[i].mode,
                    PeMode::Mimd,
                    "BARRIER is a MIMD-mode read"
                );
                self.set_pe(i, PeState::AwaitSimd { since: new_now }, new_now);
                let mc = self.mc_of_pe(i);
                self.check_release(mc);
            }
            Effect::Mc(_) => panic!("PE {i} executed an MC-only operation: {instr}"),
        }
    }

    fn issue_simd_request(&mut self, i: usize, at: u64) {
        self.set_pe(i, PeState::AwaitSimd { since: at }, at);
        let mc = self.mc_of_pe(i);
        self.check_release(mc);
    }

    // ------------------------------------------------------------------
    // Fetch Unit release
    // ------------------------------------------------------------------

    fn check_release(&mut self, mc: usize) {
        match self.cfg.release_mode {
            ReleaseMode::Lockstep => self.check_release_lockstep(mc),
            ReleaseMode::Decoupled => self.check_release_decoupled(mc),
        }
    }

    /// Lockstep release, then — on the fast path — the SIMD group step for
    /// as long as each release hands one broadcast instruction to its group
    /// (see [`Machine::group_step`]). The chain's bucket charges are added
    /// to the PE accounts once, when it ends (see [`Chain`]).
    fn check_release_lockstep(&mut self, mc: usize) {
        let mut released = self.release_lockstep(mc);
        if !self.fast_path || !matches!(released, Released::One(_)) {
            return;
        }
        let mut chain = Chain {
            budget: FAST_BATCH,
            simd_ok: 0,
            charged: 0,
            charges: Default::default(),
        };
        while let Released::One(rel) = released {
            released = self.group_step(mc, rel, &mut chain);
        }
        for pe in self.group_members(mc, chain.charged) {
            chain.charges[self.group_bit(pe) as usize].flush(&mut self.acct.pe[pe]);
        }
    }

    /// Real hardware rule: the head entry is released when every PE enabled by
    /// its mask has an outstanding request; release time = max(entry ready,
    /// slowest request) + release overhead.
    fn release_lockstep(&mut self, mc: usize) -> Released {
        let mut released = Released::Nothing;
        loop {
            let Some(&head) = self.fus[mc].queue.front() else {
                return released;
            };
            // Dead PEs never request, so they are masked out of the release
            // decision — a SIMD broadcast to the survivors must still release.
            let enabled = head.mask & self.live[mc];
            if enabled == 0 {
                // Nobody is enabled: the entry drains with no effect.
                self.fus[mc].pop_head(head.ready_at);
                continue;
            }
            let mut max_req = 0u64;
            for pe in self.group_members(mc, enabled) {
                match self.pes[pe].state {
                    PeState::AwaitSimd { since } => max_req = max_req.max(since),
                    _ => return released,
                }
            }
            let release = head.ready_at.max(max_req) + self.cfg.simd_release_cycles;
            {
                let stats = &mut self.fus[mc].stats;
                if head.ready_at > max_req {
                    stats.empty_stall_cycles += head.ready_at - max_req;
                    stats.empty_stalls += 1;
                } else {
                    stats.barrier_stalls += 1;
                }
            }
            self.fus[mc].pop_head(release);
            for pe in self.group_members(mc, enabled) {
                let PeState::AwaitSimd { since } = self.pes[pe].state else {
                    unreachable!()
                };
                self.acct.pe[pe].charge(Bucket::BarrierWait, release - since);
                self.set_pe(pe, PeState::Ready, release);
                self.pes[pe].pending = match (self.pes[pe].mode, head.kind) {
                    (PeMode::Simd, EntryKind::Instr(_)) => Some(head),
                    (PeMode::Simd, EntryKind::Data) => {
                        panic!("PE {pe}: SIMD instruction fetch got a barrier data word")
                    }
                    // A MIMD barrier read consumes the word, whatever it is.
                    (PeMode::Mimd, _) => None,
                };
            }
            released = match released {
                Released::Nothing => Released::One(Release {
                    kind: head.kind,
                    enabled,
                    at: release,
                }),
                _ => Released::Many,
            };
            // The enabled PEs are no longer waiting; the next head (if any)
            // cannot release until they request again — except entries whose
            // mask excludes them, handled by the loop.
        }
    }

    /// SIMD group step: run the broadcast instruction `rel` just released on
    /// every enabled PE in one pass — the rounds the scheduler would give
    /// each PE at `rel.at`, in the same order, with the same charges — and
    /// return what the last round's release check released.
    ///
    /// Sound because a broadcast that is not a stop and touches only main
    /// memory changes nothing but the executing PE's own registers, memory
    /// and account. The only components that can observe the order of
    /// these rounds are the group's MC, its Fetch Unit controller and its
    /// other PEs, so [`Machine::group_horizon_clear`] first replays the MC's
    /// and the controller's events due before `rel.at`, and gives up if
    /// anything else is due. A round's release check runs only where it can
    /// act ([`Machine::release_may_act`]). The horizon's last controller
    /// check (with its `fuc_blocked` side effect) stands for the one the
    /// scheduler makes before every round: only a pop changes the
    /// controller's state, and a check in the rounds pops only when it
    /// releases, which ends the step. A PE whose operand is memory-mapped
    /// stays `Ready` for [`Machine::step_pe`]. The step stops
    /// — returning [`Released::Nothing`] — only between rounds, so the
    /// machine is always left in a state the per-instruction path passes
    /// through.
    fn group_step(&mut self, mc: usize, rel: Release, chain: &mut Chain) -> Released {
        let EntryKind::Instr(k) = rel.kind else {
            return Released::Nothing;
        };
        let meta = self.mcs[mc].compiled.simd[k as usize];
        if meta.stop || rel.at > self.cfg.max_cycles || !self.group_horizon_clear(mc, rel, chain) {
            return Released::Nothing;
        }
        let b = Broadcast {
            meta,
            at: rel.at,
            fetch: BurstClock::new(self.cfg.fu_sram, rel.at),
            data: BurstClock::new(self.cfg.pe_dram, rel.at),
        };
        // Group bits of this release's PEs not yet visited, and of those
        // not requesting again (not yet run, or left `Ready` by an MMIO
        // operand).
        let mut unvisited = rel.enabled;
        let mut ready = rel.enabled;
        for pe in self.group_members(mc, rel.enabled) {
            let j = self.group_bit(pe);
            unvisited &= !(1 << j);
            if !self.group_exec(pe, &b, &mut chain.charges[j as usize]) {
                continue;
            }
            ready &= !(1 << j);
            chain.charged |= 1 << j;
            chain.budget -= 1;
            let queued = self.fus[mc].queue.len();
            let released = if self.release_may_act(mc, ready) {
                self.release_lockstep(mc)
            } else {
                Released::Nothing
            };
            // A check leaves no drained entry at the head and nothing
            // enqueues during the rounds, so one that releases nothing
            // pops nothing: the controller's state is the horizon's.
            debug_assert!(
                !matches!(released, Released::Nothing) || self.fus[mc].queue.len() == queued,
                "a release check popped without releasing"
            );
            if unvisited == 0 {
                return released;
            }
            if !matches!(released, Released::Nothing) {
                // PEs released now would interleave with this head's
                // remaining rounds: leave those to the scheduler.
                return Released::Nothing;
            }
        }
        Released::Nothing
    }

    /// Whether [`Machine::release_lockstep`] on MC `mc` could change any
    /// state, given that the group's PEs in `ready` (group bits) are not
    /// requesting. It cannot on an empty queue, nor when the head enables
    /// one of them: the check returns at the first enabled PE that is not
    /// requesting, before it pops or releases anything.
    fn release_may_act(&self, mc: usize, ready: u16) -> bool {
        self.fus[mc]
            .queue
            .front()
            .is_some_and(|head| head.mask & self.live[mc] & ready == 0)
    }

    /// Whether nothing of MC `mc`'s group acts before its PEs run `rel` at
    /// `rel.at` (the group step's horizon). The MC's steps and controller
    /// moves due earlier are replayed inline, in the scheduler's order — the
    /// MC wins a tie with its controller, as in [`Machine::next_runnable`] —
    /// as long as the release check they trigger releases nothing. The step
    /// ends at anything else:
    ///
    /// * an enabled PE that is not a fault-free SIMD-mode PE (checked once
    ///   per chain: neither changes while it runs);
    /// * another PE of the group `Ready` at or before `rel.at` (a tie is
    ///   settled by PE index, which this check does not model), or blocked
    ///   on the network (another group can wake it at any time);
    /// * an exhausted [`FAST_BATCH`] budget.
    ///
    /// The MC and the controller lose a tie at `rel.at` to the PEs, which
    /// the scheduler picks first.
    fn group_horizon_clear(&mut self, mc: usize, rel: Release, chain: &mut Chain) -> bool {
        let rounds = rel.enabled.count_ones();
        let unchecked = rel.enabled & !chain.simd_ok;
        for pe in self.group_members(mc, unchecked) {
            if self.pes[pe].mode != PeMode::Simd || self.pe_faults[pe].is_some() {
                return false;
            }
        }
        chain.simd_ok |= unchecked;
        let cpw = self.cfg.fuc_cycles_per_word;
        loop {
            if chain.budget < rounds {
                return false;
            }
            for pe in self.group_members(mc, self.live[mc] & !rel.enabled) {
                match self.pes[pe].state {
                    PeState::Ready if self.pes[pe].ready_at <= rel.at => return false,
                    PeState::AwaitNetTx { .. } | PeState::AwaitNetRx { .. } => return false,
                    _ => {}
                }
            }
            let fuc = self.fus[mc].next_move_completion(cpw);
            let m = &self.mcs[mc];
            let mc_due = (m.state == McState::Ready).then_some(m.ready_at);
            let enqueued = match (mc_due, fuc) {
                (Some(t), _) if t < rel.at && fuc.is_none_or(|c| t <= c) => self.mc_step(mc),
                (_, Some(c)) if c < rel.at => {
                    self.fuc_move(mc, c);
                    true
                }
                _ => return true,
            };
            chain.budget -= 1;
            if enqueued && !matches!(self.release_lockstep(mc), Released::Nothing) {
                return false;
            }
        }
    }

    /// One round of the group step: PE `i` executes the released broadcast
    /// `b` on the main-memory-only bus with the charges [`Machine::step_pe`]
    /// makes for a SIMD-delivered instruction (fetch waits from the queue
    /// SRAM, data waits from PE DRAM), summed into `charges`, then requests
    /// its next word. Returns `false`, with nothing changed, if the
    /// instruction touched memory-mapped space.
    fn group_exec(&mut self, i: usize, b: &Broadcast, charges: &mut Charges) -> bool {
        let pe = &mut self.pes[i];
        let bus = &mut MainOnlyBus(&mut pe.mem);
        let acc = &mut self.acct.pe[i];
        let Some(end) = exec_one(
            &mut pe.cpu,
            bus,
            acc,
            &b.meta,
            b.at,
            &b.fetch,
            &b.data,
            charges,
        ) else {
            return false;
        };
        pe.pending = None;
        self.set_pe(i, PeState::AwaitSimd { since: end }, end);
        true
    }

    /// Ablation rule: each PE receives entries at its own pace (as if it had a
    /// private queue). Entries retire once every enabled PE consumed them.
    fn check_release_decoupled(&mut self, mc: usize) {
        // Serve every waiting PE whose cursor points at an available entry.
        for pe in self.group_pes(mc) {
            let PeState::AwaitSimd { since } = self.pes[pe].state else {
                continue;
            };
            let bit = 1u16 << self.group_bit(pe);
            loop {
                let cursor = self.pes[pe].cursor;
                let Some(entry) = self.fus[mc].queue.get(cursor).copied() else {
                    break;
                };
                if entry.mask & bit == 0 {
                    self.pes[pe].cursor += 1;
                    continue;
                }
                let release = entry.ready_at.max(since) + self.cfg.simd_release_cycles;
                if entry.ready_at > since {
                    self.fus[mc].stats.empty_stall_cycles += entry.ready_at - since;
                    self.fus[mc].stats.empty_stalls += 1;
                }
                self.fus[mc].queue[cursor].consumed |= bit;
                self.pes[pe].cursor += 1;
                self.acct.pe[pe].charge(Bucket::BarrierWait, release - since);
                self.set_pe(pe, PeState::Ready, release);
                self.pes[pe].pending = match (self.pes[pe].mode, entry.kind) {
                    (PeMode::Simd, EntryKind::Instr(_)) => Some(entry),
                    (PeMode::Mimd, _) => None,
                    (PeMode::Simd, EntryKind::Data) => {
                        panic!("PE {pe}: SIMD instruction fetch got a barrier data word")
                    }
                };
                break;
            }
        }
        // Retire fully consumed heads. Dead PEs can never consume their bit;
        // they are excluded so heads still retire (mirrors the lockstep
        // rule's dead masking).
        while let Some(&head) = self.fus[mc].queue.front() {
            let need = head.mask & self.live[mc];
            if need != 0 && head.consumed & need != need {
                break;
            }
            let t = self.fus[mc].fuc_free_at;
            self.fus[mc].pop_head(t);
            for pe in self.group_pes(mc) {
                self.pes[pe].cursor = self.pes[pe].cursor.saturating_sub(1);
            }
        }
    }

    // ------------------------------------------------------------------
    // MC stepping
    // ------------------------------------------------------------------

    /// Block-compiled fast path for an MC: the control-flow arithmetic between
    /// Fetch-Unit commands runs without scheduler round-trips. Every
    /// Fetch-Unit command (and `HALT`) is a stop instruction, so interaction
    /// points — including the enqueue stall check — always go through
    /// [`Machine::step_mc`]. MCs execute against plain memory (no MMIO), so
    /// the only exits are stops, the cycle budget, and the batch cap.
    fn try_fast_mc(&mut self, i: usize) -> bool {
        let mc = &mut self.mcs[i];
        if mc.compiled.meta.get(mc.cpu.pc).is_none_or(|m| m.stop) {
            return false;
        }
        let Some(end) = exec_batch(
            &mut mc.cpu,
            &mut MemBus(&mut mc.mem),
            &mc.compiled,
            &mut self.acct.mc[i],
            mc.ready_at,
            self.cfg.mc_dram,
            self.cfg.max_cycles,
        ) else {
            return false;
        };
        self.set_mc(i, McState::Ready, end);
        true
    }

    fn step_mc(&mut self, i: usize) {
        if self.mc_step(i) {
            self.check_release(i);
        }
    }

    /// One MC step without the release check an enqueue command triggers;
    /// returns whether it enqueued a block, so the caller runs that check.
    fn mc_step(&mut self, i: usize) -> bool {
        if self.fast_path && self.try_fast_mc(i) {
            return false;
        }
        let now = self.mcs[i].ready_at;
        let pc = self.mcs[i].cpu.pc;
        assert!(
            pc < self.mcs[i].program.instrs.len(),
            "MC {i}: pc {pc} fell off the program"
        );
        let instr = self.mcs[i].program.instrs[pc];

        // An enqueue command stalls until the controller finished the previous
        // command (single command register).
        if matches!(instr, Instr::Enqueue { .. } | Instr::EnqueueWords { .. })
            && !self.fus[i].command_done()
        {
            self.set_mc(i, McState::AwaitFuc { since: now }, now);
            return false;
        }

        let outcome = {
            let mc = &mut self.mcs[i];
            exec(&mut mc.cpu, &mut MemBus(&mut mc.mem), &instr)
        };
        let r = match outcome {
            StepOutcome::Done(r) => r,
            StepOutcome::Blocked(b) => panic!("MC {i} blocked on {b:?} — MCs have no network"),
        };

        let fetch_wait = self.cfg.mc_dram.burst_delay(now, r.fetch_words);
        let data_wait = self
            .cfg
            .mc_dram
            .burst_delay(now + fetch_wait, r.data_accesses);
        let waits = Waits {
            fetch: fetch_wait,
            data: data_wait,
            ..Waits::default()
        };
        let acc = &mut self.acct.mc[i];
        let mut charges = Charges::default();
        let new_now = charges.charge(acc, &instr, variance_floor(&instr), &r, now, waits);
        charges.flush(acc);
        self.set_mc(i, McState::Ready, new_now);

        match r.effect {
            Effect::None | Effect::Mark { .. } => {}
            Effect::Halt => {
                self.set_mc(i, McState::Halted, new_now);
                self.acct.mc[i].finished_at = new_now;
            }
            Effect::Mc(op) => match op {
                McEffect::SetMask(m) => self.fus[i].mask = m,
                McEffect::Enqueue(b) => {
                    let mc = &self.mcs[i];
                    let first = mc.compiled.simd_start[b as usize];
                    let block = &mc.program.blocks[b as usize];
                    let earliest = new_now + self.cfg.fuc_command_cycles;
                    self.fus[i].command_block(first, block, earliest);
                    return true;
                }
                McEffect::EnqueueWords(c) => {
                    self.fus[i].command_data_words(c, new_now + self.cfg.fuc_command_cycles);
                }
                McEffect::StartPes => {
                    for pe in self.group_pes(i) {
                        if self.is_dead(pe) {
                            continue;
                        }
                        if self.pes[pe].state == PeState::Idle && !self.pes[pe].program.is_empty() {
                            self.set_pe(pe, PeState::Ready, new_now);
                            self.acct.pe[pe].started_at = new_now;
                        }
                    }
                }
            },
            other => panic!("MC {i} produced PE effect {other:?}"),
        }
        false
    }

    // ------------------------------------------------------------------
    // Fetch Unit controller stepping
    // ------------------------------------------------------------------

    fn step_fuc(&mut self, i: usize, completion: u64) {
        self.fuc_move(i, completion);
        self.check_release(i);
    }

    /// The controller's move into the queue, and the MC's wake-up once its
    /// command is done. The release check reads neither `fuc_free_at`, the
    /// pending commands nor the MC, so it may follow the wake-up — which
    /// lets the SIMD group step see the MC's new state in its horizon.
    fn fuc_move(&mut self, i: usize, completion: u64) {
        self.fus[i].do_move(completion);
        if self.fus[i].command_done() {
            if let McState::AwaitFuc { since } = self.mcs[i].state {
                let wake = self.fus[i].fuc_free_at.max(since);
                self.acct.mc[i].charge(Bucket::BarrierWait, wake - since);
                self.set_mc(i, McState::Ready, wake);
            }
        }
    }
}

/// Instructions the fast path executes per scheduler turn before yielding, so
/// cooperative interrupt checks in [`Machine::run`] stay responsive. Purely a
/// latency bound: where the loop breaks never changes simulated state.
const FAST_BATCH: u32 = 4096;

/// What one chain of SIMD group steps — one
/// [`Machine::check_release_lockstep`] — carries from release to release.
struct Chain {
    /// Scheduler turns left before the chain yields (see [`FAST_BATCH`]).
    budget: u32,
    /// Group bits of the PEs found in SIMD mode and fault-free.
    simd_ok: u16,
    /// Group bits of the PEs with charges in `charges`.
    charged: u16,
    /// Bucket charges per group bit, flushed into the PE accounts when the
    /// chain ends: bucket sums commute, and nothing reads an account while
    /// the machine runs.
    charges: [Charges; 16],
}

/// A released broadcast instruction as every enabled PE runs it: its
/// compiled metadata, the release cycle, and the queue SRAM and PE DRAM
/// refresh clocks at that cycle.
struct Broadcast {
    meta: InstrMeta,
    at: u64,
    fetch: BurstClock,
    data: BurstClock,
}

/// A head entry the lockstep release handed to its enabled PEs.
#[derive(Clone, Copy)]
struct Release {
    kind: EntryKind,
    /// Group-local mask bits of the PEs it was released to.
    enabled: u16,
    /// Release time: when those PEs run it.
    at: u64,
}

/// What one pass of the lockstep release loop released (drained entries
/// with no enabled PE do not count).
enum Released {
    Nothing,
    One(Release),
    Many,
}

/// The batch loop of both fast paths: execute compiled instructions from
/// `now` on `bus`, pricing memory accesses on `timing`, until a stop
/// instruction, a bus refusal (a PE's memory-mapped access), the cycle
/// budget, or [`FAST_BATCH`] instructions — so interrupts stay responsive. A
/// pc past the program end also ends the batch, for the per-instruction
/// path to report. Returns the end time, or `None` if nothing executed.
fn exec_batch<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    compiled: &CompiledProgram,
    acc: &mut CycleAccount,
    mut now: u64,
    timing: MemTiming,
    max_cycles: u64,
) -> Option<u64> {
    // Incremental refresh phase: same delays as `timing.burst_delay(now, …)`
    // without the per-access modulo (property-tested in `pasm-mem`).
    let mut clock = BurstClock::new(timing, now);
    let mut charges = Charges::default();
    let mut executed = false;
    for _ in 0..FAST_BATCH {
        if now > max_cycles {
            break;
        }
        let Some(m) = compiled.meta.get(cpu.pc) else {
            break;
        };
        if m.stop {
            break;
        }
        let Some(end) = exec_one(cpu, bus, acc, m, now, &clock, &clock, &mut charges) else {
            break;
        };
        clock.advance(end - now);
        now = end;
        executed = true;
    }
    charges.flush(acc);
    executed.then_some(now)
}

/// Execute one compiled instruction at `now` on `bus` and charge it: the
/// executor of both batch loops and of the SIMD group step (the interpreter
/// it calls is always inlined, see `exec_timed`). Instruction words are
/// priced on `fetch`, operands on `data` (both tracking `now`). Returns the
/// end time, or `None` if the bus refused an access before any state
/// changed.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn exec_one<B: Bus>(
    cpu: &mut Cpu,
    bus: &mut B,
    acc: &mut CycleAccount,
    m: &InstrMeta,
    now: u64,
    fetch: &BurstClock,
    data: &BurstClock,
    charges: &mut Charges,
) -> Option<u64> {
    let StepOutcome::Done(r) = exec_timed(cpu, bus, &m.instr, Some(&m.split)) else {
        return None;
    };
    // Only `Mark` has an effect here: every other effectful instruction is
    // a stop.
    if !matches!(r.effect, Effect::None | Effect::Mark { .. }) {
        unreachable!("fast path executed effectful {:?}", r.effect);
    }
    let fetch_wait = fetch.burst_delay(0, r.fetch_words);
    let waits = Waits {
        fetch: fetch_wait,
        data: data.burst_delay(fetch_wait, r.data_accesses),
        ..Waits::default()
    };
    Some(charges.charge(acc, &m.instr, m.variance_min, &r, now, waits))
}

/// Cycles one executed instruction spent beyond its core cycles, by cause.
#[derive(Default)]
struct Waits {
    /// Instruction-fetch memory wait states.
    fetch: u64,
    /// Operand memory wait states.
    data: u64,
    /// Waiting out a network byte in flight.
    network: u64,
    /// Injected-fault surcharges (degraded routing, slow-PE waits).
    fault: u64,
}

/// Bucket charges of executed instructions, summed in locals and added to
/// the account by one [`Charges::flush`]: the result is identical to charging
/// per instruction, the cost is one set of read-modify-writes per batch
/// instead of per step. Every executed instruction is charged through
/// [`Charges::charge`] — a batch of one on the per-instruction path.
#[derive(Default)]
struct Charges {
    compute: u64,
    variance: u64,
    fetch: u64,
    memory: u64,
    network: u64,
    fault: u64,
}

impl Charges {
    /// Charge one instruction that started at `now` and return its end time.
    /// `variance_min` is the opcode's [`variance_floor`]. The opcode
    /// histogram and the phase marks go straight to `acc`.
    #[inline(always)]
    fn charge(
        &mut self,
        acc: &mut CycleAccount,
        instr: &Instr,
        variance_min: u32,
        r: &StepResult,
        now: u64,
        w: Waits,
    ) -> u64 {
        let var = r.mulu_cycles.saturating_sub(variance_min) as u64;
        self.compute += r.cycles as u64 - var;
        self.variance += var;
        self.fetch += w.fetch;
        self.memory += w.data;
        self.network += w.network;
        self.fault += w.fault;
        let duration = r.cycles as u64 + w.fetch + w.data + w.network + w.fault;
        let end = now + duration;
        acc.record_instr(instr, duration);
        if let Effect::Mark { begin, phase } = r.effect {
            acc.mark(begin, phase, end);
        }
        end
    }

    fn flush(&self, acc: &mut CycleAccount) {
        acc.charge(Bucket::Compute, self.compute);
        acc.charge(Bucket::MultiplyVariance, self.variance);
        acc.charge(Bucket::Fetch, self.fetch);
        acc.charge(Bucket::MemoryWait, self.memory);
        acc.charge(Bucket::Network, self.network);
        acc.charge(Bucket::FaultDetour, self.fault);
    }
}

/// Bus of the fast path: main memory only. Any memory-mapped access (network
/// registers, SIMD space, timer) raises [`Block::Mmio`] *before* touching
/// device state, so the instruction can be re-issued on the full [`PeBus`] by
/// the per-instruction path. Reads of main memory are side-effect free and
/// the interpreter never writes main memory before a later bus access in the
/// same instruction, so an escape leaves the machine exactly as it was.
struct MainOnlyBus<'m>(&'m mut Memory);

impl Bus for MainOnlyBus<'_> {
    fn read(&mut self, addr: u32, size: Size) -> Result<u32, Block> {
        match MemMap.region(addr) {
            Region::Main => Ok(self.0.read(addr, size)),
            _ => Err(Block::Mmio),
        }
    }
    fn write(&mut self, addr: u32, value: u32, size: Size) -> Result<(), Block> {
        match MemMap.region(addr) {
            Region::Main => {
                self.0.write(addr, value, size);
                Ok(())
            }
            _ => Err(Block::Mmio),
        }
    }
}

// ----------------------------------------------------------------------
// PE bus
// ----------------------------------------------------------------------

/// Bus view a PE's instruction executes against: its own memory plus the
/// memory-mapped network registers and timer.
struct PeBus<'a> {
    mem: &'a mut Memory,
    net: &'a mut NetState,
    pe: usize,
    now: u64,
    net_word_cycles: u64,
    /// Per-word degraded-routing surcharge of this PE's circuit (see
    /// `NetState::detour`); paid by the sender on each transmit.
    detour_per_word: u64,
    /// Stuck-tx fault model: the transmit port never accepts a word.
    stuck_tx: bool,
    /// Extra cycles discovered during execution (waiting out a byte in flight).
    extra_cycles: u64,
    /// Cycles attributable to injected faults (degraded-routing detours).
    detour_cycles: u64,
    /// Destination PE of a completed transmit, if any.
    wrote_net_to: Option<usize>,
    /// The receive register was consumed.
    consumed_rx: bool,
}

impl Bus for PeBus<'_> {
    fn read(&mut self, addr: u32, size: Size) -> Result<u32, Block> {
        match MemMap.region(addr) {
            Region::Main => Ok(self.mem.read(addr, size)),
            Region::SimdSpace => {
                panic!("PE {}: raw read of SIMD space — use BARRIER", self.pe)
            }
            Region::Net(NetReg::Dtr) => Ok(0),
            Region::Net(NetReg::Drr) => match self.net.rx[self.pe] {
                None => Err(Block::NetRxEmpty),
                Some(b) => {
                    if b.valid_at > self.now {
                        self.extra_cycles += b.valid_at - self.now;
                    }
                    self.net.rx[self.pe] = None;
                    self.consumed_rx = true;
                    Ok(b.value as u32)
                }
            },
            Region::Net(NetReg::Status) => {
                let tx_ready = match self.net.dest[self.pe] {
                    Some(d) => !self.stuck_tx && self.net.rx[d].is_none(),
                    None => false,
                };
                let rx_valid = self.net.rx[self.pe].is_some_and(|b| b.valid_at <= self.now);
                Ok((tx_ready as u32) | ((rx_valid as u32) << 1))
            }
            Region::Timer => Ok(size.truncate(self.now as u32)),
        }
    }

    fn write(&mut self, addr: u32, value: u32, size: Size) -> Result<(), Block> {
        match MemMap.region(addr) {
            Region::Main => {
                self.mem.write(addr, value, size);
                Ok(())
            }
            Region::Net(NetReg::Dtr) => {
                if self.stuck_tx {
                    return Err(Block::NetTxFull);
                }
                let dest = self.net.dest[self.pe].unwrap_or_else(|| {
                    panic!("PE {}: network send with no circuit established", self.pe)
                });
                if self.net.rx[dest].is_some() {
                    return Err(Block::NetTxFull);
                }
                // A degraded circuit (extra stage in the data path) holds the
                // sender for the additional stage traversal and delivers the
                // word correspondingly later.
                self.detour_cycles += self.detour_per_word;
                self.net.rx[dest] = Some(RxByte {
                    value: value as u8,
                    valid_at: self.now + self.net_word_cycles + self.detour_per_word,
                });
                self.wrote_net_to = Some(dest);
                Ok(())
            }
            Region::Net(_) => panic!("PE {}: write to read-only network register", self.pe),
            Region::SimdSpace | Region::Timer => {
                panic!("PE {}: write to reserved region {addr:#X}", self.pe)
            }
        }
    }
}

/// Convenience: absolute EA of the network transmit register.
pub fn dtr_ea() -> pasm_isa::Ea {
    pasm_isa::Ea::AbsL(map::NET_DTR)
}

/// Convenience: absolute EA of the network receive register.
pub fn drr_ea() -> pasm_isa::Ea {
    pasm_isa::Ea::AbsL(map::NET_DRR)
}

/// Convenience: absolute EA of the network status register.
pub fn status_ea() -> pasm_isa::Ea {
    pasm_isa::Ea::AbsL(map::NET_STATUS)
}

#[cfg(test)]
mod tests;
