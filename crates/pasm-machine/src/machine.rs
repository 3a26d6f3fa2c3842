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

use crate::account::{Bucket, CycleAccount, MachineAccounts};
use crate::block::{self, CompiledProgram, InstrMeta};
use crate::config::{MachineConfig, ReleaseMode};
use crate::cpu::{self, Block, Bus, Cpu, Effect, McEffect, MemBus, StepOutcome, StepResult};
use crate::fault::{FaultPlan, PeFault};
use crate::fetch_unit::{EntryKind, FetchUnit, FuStats, QueueEntry};
use crate::trace::{McTrace, PeTrace};
use pasm_isa::timing::DynTerm;
use pasm_isa::{Instr, Program, Size};
use pasm_mem::map::{self, MemMap, NetReg, Region};
use pasm_mem::{BurstClock, Memory};
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
    /// Established circuit source per PE: the inverse of `dest`. The ESC
    /// claims each output port once, so one circuit ends at each PE.
    sender: Vec<Option<usize>>,
    /// In-flight / parked byte per destination PE.
    rx: Vec<Option<RxByte>>,
    /// Per-sender extra cycles each transmitted word pays for network stages
    /// beyond the fault-free minimum (nonzero only on degraded networks).
    detour: Vec<u64>,
    /// Per sender, whether its transmit port never accepts a word (the
    /// stuck-tx fault).
    stuck_tx: Vec<bool>,
}

impl NetState {
    /// Record the circuit `src → dst`, whose words pay `detour` extra cycles.
    /// It replaces `src`'s previous circuit and the previous circuit into
    /// `dst`: the ESC established it, so those were released, and `dest`
    /// and `sender` stay inverse maps.
    fn set_circuit(&mut self, src: usize, dst: usize, detour: u64) {
        if let Some(old) = self.dest[src].take() {
            self.sender[old] = None;
        }
        if let Some(old) = self.sender[dst] {
            self.dest[old] = None;
        }
        self.dest[src] = Some(dst);
        self.sender[dst] = Some(src);
        self.detour[src] = detour;
    }
}

struct Pe {
    cpu: Cpu,
    mem: Memory,
    mode: PeMode,
    state: PeState,
    ready_at: u64,
    /// SIMD-delivered instruction awaiting execution.
    pending: Option<QueueEntry>,
    /// Queue cursor for `ReleaseMode::Decoupled`.
    cursor: usize,
    /// The loaded program's instruction table, shared via the machine's
    /// fingerprint cache (empty until a program is loaded).
    compiled: Arc<CompiledProgram>,
    /// Extra wait states each operand access pays (the slow-PE fault; zero
    /// on a healthy PE).
    slow_wait: u64,
}

struct Mc {
    cpu: Cpu,
    mem: Memory,
    state: McState,
    ready_at: u64,
    /// The loaded program's instruction table, SIMD blocks included: the
    /// queue entries of this MC's Fetch Unit index [`CompiledProgram::simd`].
    compiled: Arc<CompiledProgram>,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Global completion time: the latest halt over all components.
    pub makespan: u64,
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
    /// A program did what the machine cannot execute — it ran past its last
    /// instruction. Names the component, its pc and the cycle.
    Fault(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Deadlock(s) => write!(f, "deadlock: {s}"),
            RunError::CycleLimit(c) => write!(f, "cycle limit {c} exceeded"),
            RunError::Interrupted => write!(f, "interrupted"),
            RunError::Net(s) => write!(f, "network: {s}"),
            RunError::Fault(s) => write!(f, "fault: {s}"),
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
    /// Per MC, the group-local mask bits of its PEs that are not dead: the
    /// PEs a Fetch-Unit entry can wait for.
    live: Vec<u16>,
    /// Cooperative cancellation: checked periodically by [`Machine::run`].
    interrupt: Option<Arc<AtomicBool>>,
    /// Instruction tables keyed by program fingerprint; components running
    /// the same program (every PE of a data-parallel kernel) share one.
    block_cache: HashMap<u64, Arc<CompiledProgram>>,
    /// Fast path enabled (default). Timing and accounting are
    /// byte-identical either way — gated by the equivalence tests.
    fast_path: bool,
    /// The members of a lockstep chain ([`Machine::lockstep_chain`]), kept
    /// between chains so a chain allocates nothing.
    lockstep: Vec<Member>,
    /// Scheduler picks [`Machine::run`] made (see [`Machine::rounds`]).
    rounds: u64,
}

enum Component {
    Pe(usize),
    Mc(usize),
    Fuc(usize),
}

impl Machine {
    /// Build a machine from a configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid machine config: {e}");
        }
        let pes = (0..cfg.n_pes)
            .map(|_| Pe {
                cpu: Cpu::default(),
                mem: Memory::new(cfg.pe_mem_bytes),
                mode: PeMode::Mimd,
                state: PeState::Idle,
                ready_at: 0,
                pending: None,
                cursor: 0,
                compiled: Arc::default(),
                slow_wait: 0,
            })
            .collect();
        let mcs = (0..cfg.n_mcs)
            .map(|_| Mc {
                cpu: Cpu::default(),
                mem: Memory::new(1 << 16),
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
            sender: vec![None; cfg.n_pes],
            rx: vec![None; cfg.n_pes],
            detour: vec![0; cfg.n_pes],
            stuck_tx: vec![false; cfg.n_pes],
        };
        let esc = EscNetwork::new(cfg.n_pes.max(2));
        let acct = MachineAccounts::new(cfg.n_pes, cfg.n_mcs);
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
            live,
            interrupt: None,
            block_cache: HashMap::new(),
            fast_path: true,
            lockstep: Vec::new(),
            rounds: 0,
        }
    }

    /// Enable or disable the fast path (enabled by default).
    /// Disabling it forces the per-instruction interpreter everywhere; the
    /// simulated timing, traces and cycle accounts are identical either way.
    /// Like [`Machine::set_accounting`], this is deliberately not part of
    /// [`MachineConfig`]: it changes how fast the simulator runs, never what
    /// it simulates.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.fast_path = enabled;
    }

    /// Fetch or build the shared instruction table for a program.
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

    /// The number of scheduler rounds [`Machine::run`] has made: its picks
    /// of the component with the earliest next event, each followed by
    /// that component's step, and the last pick, which ends the run.
    /// Host-side only, like [`Machine::set_fast_path`]: it measures how the
    /// simulator ran, never what it simulated, so it stays out of
    /// [`RunResult`] (which the fast path must reproduce exactly) and out
    /// of [`MachineConfig`].
    pub fn rounds(&self) -> u64 {
        self.rounds
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
        self.pes[pe].compiled = self.compile_program(&program);
    }

    /// Load an MC's control program.
    pub fn load_mc_program(&mut self, mc: usize, program: Program) {
        program.validate().expect("invalid MC program");
        self.mcs[mc].compiled = self.compile_program(&program);
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
    /// its bypass stages for them); each PE fault becomes the fact its
    /// executors read — a dead PE leaves its group's `live` mask, a slow
    /// PE's operand accesses pay `slow_wait`, a stuck PE's transmit port
    /// refuses every word. Must be called before circuits are established
    /// and PEs are started.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), String> {
        plan.validate(self.cfg.n_pes)?;
        self.esc.apply_faults(&plan.net);
        for spec in &plan.pe {
            match spec.kind {
                PeFault::Dead => {
                    let mc = self.mc_of_pe(spec.pe);
                    self.live[mc] &= !(1 << self.group_bit(spec.pe));
                }
                PeFault::Slow { extra_wait } => self.pes[spec.pe].slow_wait = extra_wait,
                PeFault::StuckTx => self.net.stuck_tx[spec.pe] = true,
            }
        }
        Ok(())
    }

    /// Install a cooperative cancellation flag: [`Machine::run`] checks it
    /// periodically and returns [`RunError::Interrupted`] once it is set.
    pub fn set_interrupt(&mut self, flag: Arc<AtomicBool>) {
        self.interrupt = Some(flag);
    }

    fn is_dead(&self, pe: usize) -> bool {
        self.live[self.mc_of_pe(pe)] & (1 << self.group_bit(pe)) == 0
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
        let detour = self.detour_cycles_for(id);
        self.net.set_circuit(src, dst, detour);
        Ok(())
    }

    /// Establish the matmul ring over the listed physical PEs:
    /// `pes[k] → pes[(k + len − 1) % len]`.
    pub fn connect_ring(&mut self, pes: &[usize]) -> Result<(), NetError> {
        let ids = ring_circuits(&mut self.esc, pes)?;
        let p = pes.len();
        for (k, &src) in pes.iter().enumerate() {
            let detour = self.detour_cycles_for(ids[k]);
            self.net.set_circuit(src, pes[(k + p - 1) % p], detour);
        }
        Ok(())
    }

    /// Start a PE directly (tests / serial runs without MC orchestration).
    /// A dead PE silently refuses to start — exactly like real hardware that
    /// never answers.
    pub fn start_pe(&mut self, pe: usize, at: u64) {
        assert!(
            !self.pes[pe].compiled.meta.is_empty(),
            "PE {pe} has no program"
        );
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
        // One pass; `min_by_key` keeps the first of equal minima.
        let (k, t) = (self.due.iter().copied().enumerate())
            .min_by_key(|&(_, d)| d)
            .unwrap_or((0, u64::MAX));
        let mut best = (t != u64::MAX).then(|| {
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
        loop {
            self.rounds += 1;
            if self.rounds & 0x3FF == 0 {
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
                Some((Component::Pe(i), _)) => self.step_pe(i)?,
                Some((Component::Mc(i), _)) => self.step_mc(i)?,
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
        RunResult {
            makespan: pe
                .iter()
                .map(|t| t.finished_at)
                .chain(mc.iter().map(|t| t.finished_at))
                .max()
                .unwrap_or(0),
            pe,
            mc,
            fu: self.fus.iter().map(|f| f.stats).collect(),
            accounts: self.report_accounts.then(|| self.acct.clone()),
        }
    }

    // ------------------------------------------------------------------
    // PE stepping
    // ------------------------------------------------------------------

    /// The MIMD batch, on the fast path the rest of a PE step whose first
    /// instruction ([`Machine::step_pe`]) left PE `i` `Ready` in MIMD mode:
    /// execute straight-line MIMD work without returning to the event
    /// scheduler between instructions.
    ///
    /// Sound because a Ready MIMD-mode PE touching only its own memory cannot
    /// interact with any other component: nothing external mutates a Ready
    /// PE, and instructions without machine effects have none outward — so
    /// running the PE arbitrarily far ahead of global time commutes with any
    /// scheduler interleaving. Each instruction is priced by [`exec_one`],
    /// slow-PE waits included. The batch stops (and the PE's next step
    /// takes over) before every *stop* instruction (mode switch, barrier,
    /// halt, an absolute network-register or timer operand), before any
    /// other memory-mapped access ([`Block::Mmio`], raised before any state
    /// changes), at a pc past the program end (for the next step to report),
    /// past the cycle budget, and after [`FAST_BATCH`] instructions, so
    /// interrupts stay responsive. It may execute nothing.
    fn try_fast_pe(&mut self, i: usize) {
        let pe = &mut self.pes[i];
        debug_assert!(pe.mode == PeMode::Mimd && pe.pending.is_none());
        let acc = &mut self.acct.pe[i];
        let bus = &mut MainOnlyBus(&mut pe.mem);
        let mut now = pe.ready_at;
        // Incremental refresh phase: same delays as `BurstClock::new(…, now)`
        // at every step, without the per-instruction modulo.
        let mut clock = BurstClock::new(self.cfg.pe_dram, now);
        let mut charges = Charges::default();
        for _ in 0..FAST_BATCH {
            if now > self.cfg.max_cycles {
                break;
            }
            let Some(m) = pe.compiled.meta.get(pe.cpu.pc).filter(|m| !m.stop) else {
                break;
            };
            let Ok((end, _)) = exec_one(
                &mut pe.cpu,
                bus,
                acc,
                m,
                now,
                &clock,
                &clock,
                pe.slow_wait,
                &mut charges,
            ) else {
                break;
            };
            clock.advance(end - now);
            now = end;
        }
        charges.flush(acc);
        self.set_pe(i, PeState::Ready, now);
    }

    /// One scheduler round of PE `i`: its next instruction — the pending
    /// broadcast in SIMD mode, its own program's at `pc` in MIMD mode — on
    /// the full [`PeBus`], with network registers, blocking, wake-ups and
    /// stops. On the fast path, an instruction that leaves the PE `Ready`
    /// in MIMD mode with no machine effect continues into the MIMD batch
    /// ([`Machine::try_fast_pe`]) in the same round, so a memory-mapped
    /// access costs one round, not two. A pc past the program's end is a
    /// [`RunError::Fault`], raised before any state changes.
    fn step_pe(&mut self, i: usize) -> Result<(), RunError> {
        let now = self.pes[i].ready_at;
        let (meta, simd_delivered) = match self.pes[i].pending {
            Some(QueueEntry {
                kind: EntryKind::Instr(k),
                ..
            }) => {
                let mc = &self.mcs[self.mc_of_pe(i)];
                (mc.compiled.simd[k as usize], true)
            }
            _ => {
                let pc = self.pes[i].cpu.pc;
                let Some(&m) = self.pes[i].compiled.meta.get(pc) else {
                    return Err(RunError::Fault(format!(
                        "PE {i} ran off the end of its program: pc {pc} at cycle {now}"
                    )));
                };
                (m, false)
            }
        };
        let instr = meta.instr;

        // Instruction words come from the queue (SRAM) in SIMD mode, from PE
        // DRAM in MIMD mode; operand traffic is always DRAM.
        let data = BurstClock::new(self.cfg.pe_dram, now);
        let fetch = if simd_delivered {
            BurstClock::new(self.cfg.fu_sram, now)
        } else {
            data
        };
        let pe = &mut self.pes[i];
        let acc = &mut self.acct.pe[i];
        let mut bus = PeBus::new(&mut pe.mem, &mut self.net, i, now, self.cfg.net_word_cycles);
        let mut charges = Charges::default();
        let outcome = exec_one(
            &mut pe.cpu,
            &mut bus,
            acc,
            &meta,
            now,
            &fetch,
            &data,
            pe.slow_wait,
            &mut charges,
        );
        let (wrote_net_to, consumed_rx) = (bus.wrote_net_to, bus.consumed_rx);
        let (new_now, effect) = match outcome {
            Ok(done) => done,
            Err(Block::NetTxFull) => {
                self.set_pe(i, PeState::AwaitNetTx { since: now }, now);
                return Ok(());
            }
            Err(Block::NetRxEmpty) => {
                self.set_pe(i, PeState::AwaitNetRx { since: now }, now);
                return Ok(());
            }
            Err(Block::Mmio) => {
                unreachable!("PE {i}: full bus raised the fast-path-only Mmio block")
            }
        };
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
            // The sender blocked on our receive register may proceed.
            if let Some(s) = self.net.sender[i] {
                if let PeState::AwaitNetTx { since } = self.pes[s].state {
                    let wake = new_now.max(since);
                    self.acct.pe[s].charge(Bucket::Network, wake - since);
                    self.set_pe(s, PeState::Ready, wake);
                }
            }
        }

        self.set_pe(i, PeState::Ready, new_now);
        if simd_delivered {
            self.pes[i].pending = None;
        }

        match effect {
            Effect::None | Effect::Mark { .. } => match self.pes[i].mode {
                PeMode::Simd => self.issue_simd_request(i, new_now),
                PeMode::Mimd if self.fast_path => self.try_fast_pe(i),
                PeMode::Mimd => {}
            },
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
        Ok(())
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

    /// Lockstep release, then — on the fast path — a lockstep chain for as
    /// long as a release hands one broadcast instruction to its group (see
    /// [`Machine::lockstep_chain`]). The chains of one check share one
    /// [`FAST_BATCH`] budget.
    fn check_release_lockstep(&mut self, mc: usize) {
        let mut released = self.release_lockstep(mc);
        if !self.fast_path {
            return;
        }
        let mut budget = FAST_BATCH;
        while let Released::One(rel) = released {
            released = self.lockstep_chain(mc, rel, &mut budget);
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
            let release = self.pop_released(mc, head.ready_at, max_req);
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
                    head,
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

    /// Pop MC `mc`'s head entry, ready at `ready_at` and released to PEs
    /// whose last request came at `max_req`, and return the release time.
    /// The release counts as an empty-queue stall if the entry came last,
    /// as a barrier stall otherwise.
    fn pop_released(&mut self, mc: usize, ready_at: u64, max_req: u64) -> u64 {
        let release = ready_at.max(max_req) + self.cfg.simd_release_cycles;
        let fu = &mut self.fus[mc];
        if ready_at > max_req {
            fu.stats.empty_stall_cycles += ready_at - max_req;
            fu.stats.empty_stalls += 1;
        } else {
            fu.stats.barrier_stalls += 1;
        }
        fu.pop_head(release);
        release
    }

    /// The lockstep chain: run the broadcast `rel` just released on every
    /// PE it enables (its *members*), then each following head released to
    /// the same members, in one loop that keeps the group's lockstep in
    /// locals. Each member's broadcast is priced by [`exec_one`] on the
    /// main-memory-only bus, as [`Machine::step_pe`] prices a SIMD-delivered
    /// instruction; its end is its next request. When the next head enables
    /// exactly the members, the loop releases it at max(entry ready, latest
    /// end) + release overhead, each member waiting `release − end`, with the
    /// counts and the pop of [`Machine::release_lockstep`]. On an empty
    /// queue, [`Machine::replay_to_head`] first runs the group's MC and
    /// controller up to the move that lands the next head. A network byte
    /// transfer runs in the loop too, on the full bus
    /// ([`Machine::net_broadcast`]), when the group's circuits are closed.
    ///
    /// Sound because a broadcast that is not a stop and touches only main
    /// memory changes nothing but the executing PE's own registers, memory
    /// and account, and a transfer over closed circuits also only the
    /// members' receive registers, which nothing else reads. The only
    /// components that can observe the order of the members' rounds are the
    /// group's MC, its Fetch Unit controller and its other PEs, so
    /// [`Machine::group_horizon_clear`] first replays the MC's and the
    /// controller's events due before each release. The release check a
    /// member's request makes runs only where it can act
    /// ([`Machine::release_may_act`]).
    ///
    /// PE state is written only when the chain leaves: before a broadcast,
    /// at the cycle budget, a blocked horizon, a horizon whose release check
    /// could act, or a stop instruction other than a transfer over closed
    /// circuits (memory-mapped absolute operands included, see
    /// [`block::is_stop`]); within a broadcast, at a member whose access the
    /// bus refuses, or after a member whose release check could act; after
    /// it, at an empty queue whose replay stops before a head lands, a head
    /// with another mask or a data word, or a released head followed by one
    /// that could release too. Members that ran the broadcast then request
    /// their next word since their end, the others are `Ready` at the
    /// release with the head pending, and the release check of
    /// [`Machine::release_lockstep`] runs, where the per-instruction path
    /// would run it: the machine is always left in a state that path passes
    /// through. Returns what that check released.
    fn lockstep_chain(&mut self, mc: usize, rel: Release, budget: &mut u32) -> Released {
        let mut members = std::mem::take(&mut self.lockstep);
        members.clear();
        let mut bits = rel.enabled;
        while bits != 0 {
            let j = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let pe = j * self.cfg.n_mcs + mc;
            if self.pes[pe].mode != PeMode::Simd {
                // A barrier read: `release_lockstep` already consumed it.
                self.lockstep = members;
                return Released::Nothing;
            }
            members.push(Member {
                pe,
                end: 0,
                wait: 0,
                charges: Charges::default(),
            });
        }
        let enabled = rel.enabled;
        let (mut head, mut at) = (rel.head, rel.at);
        // How many members have run the broadcast released at `at`.
        let ran = 'chain: loop {
            if at > self.cfg.max_cycles || !self.group_horizon_clear(mc, enabled, at, budget) {
                break 0;
            }
            let EntryKind::Instr(k) = head.kind else {
                unreachable!("the chain releases only broadcast instructions")
            };
            let meta = self.mcs[mc].compiled.simd[k as usize];
            let max_end = if meta.stop {
                match self.net_broadcast(mc, &mut members, enabled, &meta, at, budget) {
                    Ok(max_end) => max_end,
                    Err(ran) => break ran,
                }
            } else {
                let fetch = BurstClock::new(self.cfg.fu_sram, at);
                let data = BurstClock::new(self.cfg.pe_dram, at);
                let mut unrun = enabled;
                let mut max_end = 0;
                for (r, m) in members.iter_mut().enumerate() {
                    let pe = &mut self.pes[m.pe];
                    let Ok((end, _)) = exec_one(
                        &mut pe.cpu,
                        &mut MainOnlyBus(&mut pe.mem),
                        &mut self.acct.pe[m.pe],
                        &meta,
                        at,
                        &fetch,
                        &data,
                        pe.slow_wait,
                        &mut m.charges,
                    ) else {
                        break 'chain r;
                    };
                    m.end = end;
                    max_end = max_end.max(end);
                    // Members run in mask-bit order: this one is the lowest
                    // bit left.
                    unrun &= unrun - 1;
                    *budget -= 1;
                    if unrun != 0 && self.release_may_act(mc, unrun) {
                        break 'chain r + 1;
                    }
                }
                max_end
            };
            // The last request's release check, inline while the head goes
            // to the same members; on an empty queue, after the group's own
            // events up to the move that lands the next head.
            let next = match self.fus[mc].queue.front() {
                Some(&next) => next,
                None => match self.replay_to_head(mc, enabled, budget) {
                    Some(next) => next,
                    None => break members.len(),
                },
            };
            if next.mask & self.live[mc] != enabled || !matches!(next.kind, EntryKind::Instr(_)) {
                break members.len();
            }
            let release = self.pop_released(mc, next.ready_at, max_end);
            for m in &mut members {
                m.wait += release - m.end;
            }
            (head, at) = (next, release);
            // The check goes on to the next head, which the members, no
            // longer requesting, hold back only if it enables one of them.
            if self.release_may_act(mc, enabled) {
                break 0;
            }
        };
        for (r, m) in members.iter().enumerate() {
            let pe = m.pe;
            if r < ran {
                self.set_pe(pe, PeState::AwaitSimd { since: m.end }, m.end);
                self.pes[pe].pending = None;
            } else {
                self.set_pe(pe, PeState::Ready, at);
                self.pes[pe].pending = Some(head);
            }
            let acc = &mut self.acct.pe[pe];
            m.charges.flush(acc);
            acc.charge(Bucket::BarrierWait, m.wait);
        }
        self.lockstep = members;
        self.release_lockstep(mc)
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

    /// Whether nothing of MC `mc`'s group acts before the members `enabled`
    /// (group bits) of a lockstep chain run their broadcast at `at` (the
    /// chain's horizon). The MC's steps and controller moves due earlier are
    /// replayed inline, in the scheduler's order — the MC wins a tie with its
    /// controller, as in [`Machine::next_runnable`] — as long as the release
    /// check an enqueue makes could not act: the members, released at `at`,
    /// are not requesting, so [`Machine::release_may_act`] decides it
    /// exactly. The horizon is blocked by anything else:
    ///
    /// * another PE of the group `Ready` at or before `at` (a tie is
    ///   settled by PE index, which this check does not model), or blocked
    ///   on the network (another group can wake it at any time);
    /// * an MC step that faults (the scheduler reports it, at the MC's turn);
    /// * a `budget` that cannot cover the members' rounds (see
    ///   [`FAST_BATCH`]).
    ///
    /// The MC and the controller lose a tie at `at` to the PEs, which the
    /// scheduler picks first. The last controller check (with its
    /// `fuc_blocked` side effect) stands for the one the scheduler makes
    /// before every round of the members: only a pop changes the
    /// controller's state, and the chain pops only when it releases.
    fn group_horizon_clear(&mut self, mc: usize, enabled: u16, at: u64, budget: &mut u32) -> bool {
        let rounds = enabled.count_ones();
        let cpw = self.cfg.fuc_cycles_per_word;
        loop {
            if *budget < rounds || !self.others_quiet(mc, enabled, at) {
                return false;
            }
            let fuc = self.fus[mc].next_move_completion(cpw);
            let m = &self.mcs[mc];
            let mc_due = (m.state == McState::Ready).then_some(m.ready_at);
            let enqueued = match (mc_due, fuc) {
                (Some(t), _) if t < at && fuc.is_none_or(|c| t <= c) => {
                    let Ok(enqueued) = self.mc_step(mc) else {
                        return false;
                    };
                    enqueued
                }
                (_, Some(c)) if c < at => {
                    self.fuc_move(mc, c);
                    true
                }
                _ => return true,
            };
            *budget -= 1;
            if enqueued && self.release_may_act(mc, enabled) {
                return false;
            }
        }
    }

    /// Whether no live PE of MC `mc`'s group outside `enabled` (group bits)
    /// is due by `by` — the scheduler would step it first, PEs winning
    /// ties — or blocked on the network, where another group can wake it
    /// at any time.
    fn others_quiet(&self, mc: usize, enabled: u16, by: u64) -> bool {
        self.group_members(mc, self.live[mc] & !enabled)
            .all(|pe| match self.pes[pe].state {
                PeState::Ready => self.pes[pe].ready_at > by,
                PeState::AwaitNetTx { .. } | PeState::AwaitNetRx { .. } => false,
                _ => true,
            })
    }

    /// A lockstep chain's network broadcast: the `MOVE.B` to DTR or from DRR
    /// `meta`, released at `at`, on each of the `members` (group bits
    /// `enabled`) on the full [`PeBus`], in mask-bit order, as
    /// [`Machine::step_pe`] runs it in their rounds at `at`. Returns the
    /// latest end, or — as the main-memory loop of
    /// [`Machine::lockstep_chain`] breaks — how many members ran it: none if
    /// `meta` is another stop or the group's circuits are not closed, those
    /// before a member whose access the bus refuses (before any state
    /// changes), those up to a member whose release check could act.
    ///
    /// Sound only when every circuit that starts or ends at a member also
    /// starts and ends at a member: then no other PE reads or writes a
    /// receive register the members use, and no wake-up of the
    /// per-instruction path can fire — a circuit's other end is a member,
    /// and members neither wait on the network nor run out of this order.
    #[inline(never)]
    fn net_broadcast(
        &mut self,
        mc: usize,
        members: &mut [Member],
        enabled: u16,
        meta: &InstrMeta,
        at: u64,
        budget: &mut u32,
    ) -> Result<u64, usize> {
        let n_mcs = self.cfg.n_mcs;
        let member = |p: usize| p % n_mcs == mc && enabled & (1 << (p / n_mcs)) != 0;
        let net = &self.net;
        let closed = || {
            (members.iter())
                .all(|m| net.dest[m.pe].is_none_or(member) && net.sender[m.pe].is_none_or(member))
        };
        if !block::is_net_transfer(&meta.instr) || !closed() {
            return Err(0);
        }
        let fetch = BurstClock::new(self.cfg.fu_sram, at);
        let data = BurstClock::new(self.cfg.pe_dram, at);
        let mut unrun = enabled;
        let mut max_end = 0;
        for (r, m) in members.iter_mut().enumerate() {
            let pe = &mut self.pes[m.pe];
            let acc = &mut self.acct.pe[m.pe];
            let mut bus = PeBus::new(
                &mut pe.mem,
                &mut self.net,
                m.pe,
                at,
                self.cfg.net_word_cycles,
            );
            let Ok((end, _)) = exec_one(
                &mut pe.cpu,
                &mut bus,
                acc,
                meta,
                at,
                &fetch,
                &data,
                pe.slow_wait,
                &mut m.charges,
            ) else {
                return Err(r);
            };
            acc.net_bytes_sent += bus.wrote_net_to.is_some() as u64;
            m.end = end;
            max_end = max_end.max(end);
            unrun &= unrun - 1;
            *budget -= 1;
            if unrun != 0 && self.release_may_act(mc, unrun) {
                return Err(r + 1);
            }
        }
        Ok(max_end)
    }

    /// After the members `enabled` (group bits) of a lockstep chain
    /// requested their next word from MC `mc`'s empty queue: replay the
    /// MC's steps and its controller's moves in the scheduler's order —
    /// the MC wins a tie with its controller — until a move lands a head,
    /// and return it; its release check is the caller's. Every release
    /// check before that move finds the queue empty and changes nothing.
    /// The replay stops, returning `None`, where the scheduler could pick
    /// something else of the group first or would end the run: at an event
    /// past `max_cycles`, when [`Machine::others_quiet`] fails at the
    /// event's time, at an MC step that faults, when the group has no event
    /// left, or when the [`FAST_BATCH`] `budget` is spent. As in
    /// [`Machine::group_horizon_clear`], each turn's controller check (with
    /// its `fuc_blocked` side effect) stands for the scheduler's checks
    /// until the next change of the controller.
    #[inline(never)]
    fn replay_to_head(&mut self, mc: usize, enabled: u16, budget: &mut u32) -> Option<QueueEntry> {
        let cpw = self.cfg.fuc_cycles_per_word;
        while *budget > 0 {
            let fuc = self.fus[mc].next_move_completion(cpw);
            let m = &self.mcs[mc];
            let mc_due = (m.state == McState::Ready).then_some(m.ready_at);
            let (t, mc_first) = match (mc_due, fuc) {
                (Some(t), _) if fuc.is_none_or(|c| t <= c) => (t, true),
                (_, Some(c)) => (c, false),
                _ => return None,
            };
            if t > self.cfg.max_cycles || !self.others_quiet(mc, enabled, t) {
                return None;
            }
            *budget -= 1;
            if !mc_first {
                self.fuc_move(mc, t);
                return self.fus[mc].queue.front().copied();
            }
            // An enqueue's release check finds the queue still empty.
            self.mc_step(mc).ok()?;
        }
        None
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

    fn step_mc(&mut self, i: usize) -> Result<(), RunError> {
        if self.mc_step(i)? {
            self.check_release(i);
        }
        Ok(())
    }

    /// One MC instruction without the release check an enqueue command
    /// triggers; returns whether it enqueued a block, so the caller runs
    /// that check. MCs always step one instruction at a time: the
    /// control-flow arithmetic between their Fetch-Unit commands is a few
    /// instructions at most. A pc past the program's end is a
    /// [`RunError::Fault`], raised before any state changes.
    fn mc_step(&mut self, i: usize) -> Result<bool, RunError> {
        let now = self.mcs[i].ready_at;
        let pc = self.mcs[i].cpu.pc;
        let Some(&meta) = self.mcs[i].compiled.meta.get(pc) else {
            return Err(RunError::Fault(format!(
                "MC {i} ran off the end of its program: pc {pc} at cycle {now}"
            )));
        };
        let instr = meta.instr;

        // An enqueue command stalls until the controller finished the previous
        // command (single command register).
        if matches!(instr, Instr::Enqueue { .. } | Instr::EnqueueWords { .. })
            && !self.fus[i].command_done()
        {
            self.set_mc(i, McState::AwaitFuc { since: now }, now);
            return Ok(false);
        }

        let mc = &mut self.mcs[i];
        let acc = &mut self.acct.mc[i];
        let clock = BurstClock::new(self.cfg.mc_dram, now);
        let mut charges = Charges::default();
        let bus = &mut MemBus(&mut mc.mem);
        let (new_now, effect) = exec_one(
            &mut mc.cpu,
            bus,
            acc,
            &meta,
            now,
            &clock,
            &clock,
            0,
            &mut charges,
        )
        .unwrap_or_else(|b| panic!("MC {i} blocked on {b:?} — MCs have no network"));
        charges.flush(acc);
        self.set_mc(i, McState::Ready, new_now);

        match effect {
            Effect::None | Effect::Mark { .. } => {}
            Effect::Halt => {
                self.set_mc(i, McState::Halted, new_now);
                self.acct.mc[i].finished_at = new_now;
            }
            Effect::Mc(op) => match op {
                McEffect::SetMask(m) => self.fus[i].mask = m,
                McEffect::Enqueue(b) => {
                    let (first, block) = self.mcs[i].compiled.simd_block(b as usize);
                    let earliest = new_now + self.cfg.fuc_command_cycles;
                    self.fus[i].command_block(first, block, earliest);
                    return Ok(true);
                }
                McEffect::EnqueueWords(c) => {
                    self.fus[i].command_data_words(c, new_now + self.cfg.fuc_command_cycles);
                }
                McEffect::StartPes => {
                    for pe in self.group_pes(i) {
                        if self.is_dead(pe) {
                            continue;
                        }
                        let loaded = !self.pes[pe].compiled.meta.is_empty();
                        if self.pes[pe].state == PeState::Idle && loaded {
                            self.set_pe(pe, PeState::Ready, new_now);
                            self.acct.pe[pe].started_at = new_now;
                        }
                    }
                }
            },
            other => panic!("MC {i} produced PE effect {other:?}"),
        }
        Ok(false)
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
    /// lets the SIMD lockstep chain see the MC's new state in its horizon.
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

/// One PE of a lockstep chain, as [`Machine::lockstep_chain`] keeps it.
struct Member {
    pe: usize,
    /// When it ended the last broadcast it ran: its request time.
    end: u64,
    /// Barrier waits of the releases the chain made, charged when it ends.
    wait: u64,
    /// Charges of the broadcasts it ran, flushed when the chain ends: the
    /// sums commute, and nothing reads an account while the machine runs.
    charges: Charges,
}

/// A head entry the lockstep release handed to its enabled PEs.
#[derive(Clone, Copy)]
struct Release {
    /// The entry, as its PEs hold it pending.
    head: QueueEntry,
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

/// Execute one compiled instruction at `now` on `bus`, price it and charge
/// it: the only code that does so, on every path — the per-instruction PE
/// and MC steps, the MIMD batch and the SIMD lockstep chain — through the
/// handler of the instruction's shape ([`cpu::step`], always inlined). Instruction words wait on `fetch`,
/// operands on `data` (both tracking `now`), every operand access pays
/// `slow_wait` more (a slow PE's fault surcharge), and the bus adds its
/// network and detour cycles ([`Bus::net_cycles`]). Returns the end time and
/// the instruction's effect, or why the bus refused an access before any
/// state changed.
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
    slow_wait: u64,
    charges: &mut Charges,
) -> Result<(u64, Effect), Block> {
    let r = match cpu::step(cpu, bus, m) {
        StepOutcome::Done(r) => r,
        StepOutcome::Blocked(b) => return Err(b),
    };
    let (network, detour) = bus.net_cycles();
    let fetch_wait = fetch.burst_delay(0, r.fetch_words);
    let waits = Waits {
        fetch: fetch_wait,
        data: data.burst_delay(fetch_wait, r.data_accesses),
        network,
        fault: detour + slow_wait * r.data_accesses as u64,
    };
    Ok((
        charges.charge(acc, m.split.dynamic, &r, now, waits),
        r.effect,
    ))
}

/// Cycles one executed instruction spent beyond its core cycles, by cause.
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

/// Charges of executed instructions, summed in locals and added to the
/// account by one [`Charges::flush`]: the result is identical to charging
/// per instruction, the cost is one set of read-modify-writes per batch
/// instead of per step. Every executed instruction is charged through
/// [`Charges::charge`], by [`exec_one`] — a batch of one on the
/// per-instruction paths.
#[derive(Default)]
struct Charges {
    compute: u64,
    variance: u64,
    fetch: u64,
    memory: u64,
    network: u64,
    fault: u64,
    /// Instructions executed, phase marks excluded.
    instrs: u64,
    /// `MULU`/`MULS`/`DIVU`/`DIVS` executed, and their cycles with waits.
    mul_div: u64,
    mul_div_cycles: u64,
}

impl Charges {
    /// Charge one instruction that started at `now` and return its end time.
    /// `dynamic` is its table entry's data-dependent term, which tells a
    /// multiply or divide. Phase marks go straight to `acc`.
    #[inline(always)]
    fn charge(
        &mut self,
        acc: &mut CycleAccount,
        dynamic: DynTerm,
        r: &StepResult,
        now: u64,
        w: Waits,
    ) -> u64 {
        let var = r.variance as u64;
        self.compute += r.cycles as u64 - var;
        self.variance += var;
        self.fetch += w.fetch;
        self.memory += w.data;
        self.network += w.network;
        self.fault += w.fault;
        let duration = r.cycles as u64 + w.fetch + w.data + w.network + w.fault;
        let mul_div = dynamic.is_mul_div() as u64;
        self.mul_div += mul_div;
        self.mul_div_cycles += mul_div * duration;
        let end = now + duration;
        if let Effect::Mark { begin, phase } = r.effect {
            acc.mark(begin, phase, end);
        } else {
            self.instrs += 1;
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
        acc.instrs += self.instrs;
        acc.mul_div += self.mul_div;
        acc.mul_div_cycles += self.mul_div_cycles;
    }
}

/// Bus of the fast path: main memory only. Any memory-mapped access (network
/// registers, SIMD space, timer) raises [`Block::Mmio`] *before* touching
/// device state, so the instruction can be re-issued on the full [`PeBus`] by
/// the per-instruction path. Reads of main memory are side-effect free and
/// the interpreter never writes main memory before a later bus access in the
/// same instruction, so an escape leaves the machine exactly as it was.
pub(crate) struct MainOnlyBus<'m>(pub(crate) &'m mut Memory);

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
    /// Extra cycles discovered during execution (waiting out a byte in flight).
    extra_cycles: u64,
    /// Cycles attributable to injected faults (degraded-routing detours).
    detour_cycles: u64,
    /// Destination PE of a completed transmit, if any.
    wrote_net_to: Option<usize>,
    /// The receive register was consumed.
    consumed_rx: bool,
}

impl<'a> PeBus<'a> {
    fn new(
        mem: &'a mut Memory,
        net: &'a mut NetState,
        pe: usize,
        now: u64,
        net_word_cycles: u64,
    ) -> Self {
        PeBus {
            mem,
            net,
            pe,
            now,
            net_word_cycles,
            extra_cycles: 0,
            detour_cycles: 0,
            wrote_net_to: None,
            consumed_rx: false,
        }
    }
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
                    Some(d) => !self.net.stuck_tx[self.pe] && self.net.rx[d].is_none(),
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
                if self.net.stuck_tx[self.pe] {
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
                let detour = self.net.detour[self.pe];
                self.detour_cycles += detour;
                self.net.rx[dest] = Some(RxByte {
                    value: value as u8,
                    valid_at: self.now + self.net_word_cycles + detour,
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

    fn net_cycles(&self) -> (u64, u64) {
        (self.extra_cycles, self.detour_cycles)
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
