//! Cycle accounting: attributing every simulated cycle to a cause.
//!
//! The paper's contribution is a *measurement* story — MC68000 cycles
//! attributed to instruction fetch, data-dependent multiplies, lockstep
//! barrier waits, and network transfers across SIMD/MIMD/S-MIMD — so the
//! simulator keeps a [`CycleAccount`] per PE and per MC that buckets every
//! cycle of the component's lifetime into one of seven [`Bucket`]s, plus
//! timestamped phase spans.
//!
//! The invariant that makes the accounting auditable (and that the
//! integration suite asserts for every mode): for a halted component,
//!
//! ```text
//! started_at + Σ buckets == finished_at
//! ```
//!
//! — no cycle is dropped and none is double-counted.
//!
//! The account is the machine's only per-component record: the hot loop
//! charges nothing else, and the [`crate::PeTrace`]/[`crate::McTrace`]
//! summaries of a [`crate::RunResult`] are views derived from it. For that it
//! also keeps the facts its buckets and spans cannot give: the halt time,
//! the network words sent, and the instructions executed, of them the
//! `MULU`/`MULS`/`DIVU`/`DIVS` and their cycles. Those three counts are
//! summed per batch next to the bucket charges, never per opcode.

/// Number of distinct phase ids supported by `Mark` instrumentation.
pub const N_PHASES: usize = 16;

/// Number of cycle buckets.
pub const N_BUCKETS: usize = 7;

/// Where a simulated cycle went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bucket {
    /// Instruction-fetch memory wait states (queue SRAM in SIMD mode, PE DRAM
    /// in MIMD mode — their difference is the superlinearity argument).
    Fetch = 0,
    /// Core execution cycles at their data-independent minimum.
    Compute = 1,
    /// Data-dependent cycles of `MULU`/`MULS`/`DIVU`/`DIVS` beyond that
    /// minimum — the paper's non-deterministic instruction time.
    MultiplyVariance = 2,
    /// Waiting on the Fetch Unit: SIMD lockstep release, S/MIMD barrier
    /// reads, queue-empty stalls, and (for MCs) the controller handshake.
    BarrierWait = 3,
    /// Network cycles: transfer-register stalls and in-flight byte latency.
    Network = 4,
    /// Operand (data) memory wait states, including DRAM refresh.
    MemoryWait = 5,
    /// Cycles caused by injected faults: the per-word extra-stage detour of a
    /// degraded ESC (both cube₀ stages in the data path) and the extra wait
    /// states of a slow-PE fault model. Zero on a healthy machine.
    FaultDetour = 6,
}

/// Stable exposition names of the buckets, indexable by `Bucket as usize`.
pub const BUCKET_NAMES: [&str; N_BUCKETS] = [
    "fetch",
    "compute",
    "multiply_variance",
    "barrier_wait",
    "network",
    "memory_wait",
    "fault_detour",
];

impl Bucket {
    /// All buckets, in index order.
    pub const ALL: [Bucket; N_BUCKETS] = [
        Bucket::Fetch,
        Bucket::Compute,
        Bucket::MultiplyVariance,
        Bucket::BarrierWait,
        Bucket::Network,
        Bucket::MemoryWait,
        Bucket::FaultDetour,
    ];

    /// The bucket's stable snake_case name (used in JSON and `/metrics`).
    pub fn name(self) -> &'static str {
        BUCKET_NAMES[self as usize]
    }
}

/// A closed instrumentation-phase interval on one component's local timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase id (see `pasm-prog`'s `PHASE_*` constants).
    pub phase: u8,
    /// Local cycle the begin marker executed.
    pub start: u64,
    /// Local cycle the end marker executed.
    pub end: u64,
}

/// Cycle breakdown of one component (PE or MC).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleAccount {
    /// Local cycle at which the component first became runnable.
    pub started_at: u64,
    /// Local cycle at which the component halted (0 if it never did).
    pub(crate) finished_at: u64,
    /// 8-bit network words sent (PEs only).
    pub(crate) net_bytes_sent: u64,
    /// Instructions executed, phase markers excluded.
    pub(crate) instrs: u64,
    /// `MULU`/`MULS`/`DIVU`/`DIVS` instructions executed.
    pub(crate) mul_div: u64,
    /// Cycles those instructions took, memory waits included.
    pub(crate) mul_div_cycles: u64,
    /// Timestamped phase intervals, in close order.
    pub spans: Vec<PhaseSpan>,
    buckets: [u64; N_BUCKETS],
    phase_open: [Option<u64>; N_PHASES],
}

impl CycleAccount {
    /// Add `cycles` to a bucket.
    pub fn charge(&mut self, bucket: Bucket, cycles: u64) {
        self.buckets[bucket as usize] += cycles;
    }

    /// One bucket's accumulated cycles.
    pub fn bucket(&self, bucket: Bucket) -> u64 {
        self.buckets[bucket as usize]
    }

    /// All buckets, indexable by `Bucket as usize` / [`BUCKET_NAMES`].
    pub fn buckets(&self) -> &[u64; N_BUCKETS] {
        &self.buckets
    }

    /// Sum over all buckets. For a halted component this equals
    /// `finished_at - started_at` (the audited invariant).
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Handle a phase marker at local time `now`, recording closed intervals.
    /// A phase begun twice or ended without a begin is a program bug
    /// (debug-asserted); in release the second begin restarts the phase and
    /// an unmatched end is ignored.
    pub fn mark(&mut self, begin: bool, phase: u8, now: u64) {
        let p = phase as usize % N_PHASES;
        if begin {
            debug_assert!(self.phase_open[p].is_none(), "phase {p} begun twice");
            self.phase_open[p] = Some(now);
        } else if let Some(start) = self.phase_open[p].take() {
            self.spans.push(PhaseSpan {
                phase: p as u8,
                start,
                end: now,
            });
        } else {
            debug_assert!(false, "phase {p} ended without begin");
        }
    }

    /// Executed `MULU`/`MULS`/`DIVU`/`DIVS` instructions and the cycles they
    /// took, memory waits included.
    pub fn mul_div(&self) -> (u64, u64) {
        (self.mul_div, self.mul_div_cycles)
    }

    /// Cycles per phase: the summed length of its closed spans.
    pub(crate) fn phase_cycles(&self) -> [u64; N_PHASES] {
        let mut out = [0; N_PHASES];
        for s in &self.spans {
            out[s.phase as usize] += s.end - s.start;
        }
        out
    }
}

/// The full machine's accounts: one [`CycleAccount`] per PE and per MC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineAccounts {
    /// Per-PE accounts, indexed by physical PE number.
    pub pe: Vec<CycleAccount>,
    /// Per-MC accounts, indexed by MC number.
    pub mc: Vec<CycleAccount>,
}

impl MachineAccounts {
    /// Fresh zeroed accounts for a machine of the given shape.
    pub fn new(n_pes: usize, n_mcs: usize) -> Self {
        MachineAccounts {
            pe: vec![CycleAccount::default(); n_pes],
            mc: vec![CycleAccount::default(); n_mcs],
        }
    }

    /// Bucket totals summed over all PEs (the per-job breakdown the server
    /// exports; MCs excluded so the numbers speak about PE time).
    pub fn pe_bucket_totals(&self) -> [u64; N_BUCKETS] {
        let mut out = [0u64; N_BUCKETS];
        for a in &self.pe {
            for (o, b) in out.iter_mut().zip(a.buckets.iter()) {
                *o += b;
            }
        }
        out
    }

    /// Per-PE bucket rows, `matrix[pe][bucket]` — the unsummed counterpart
    /// of [`MachineAccounts::pe_bucket_totals`] the span store persists so
    /// per-PE breakdowns survive the process.
    pub fn pe_bucket_matrix(&self) -> Vec<[u64; N_BUCKETS]> {
        self.pe.iter().map(|a| a.buckets).collect()
    }

    /// Per-MC bucket rows, `matrix[mc][bucket]`.
    pub fn mc_bucket_matrix(&self) -> Vec<[u64; N_BUCKETS]> {
        self.mc.iter().map(|a| a.buckets).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_total() {
        let mut a = CycleAccount::default();
        a.charge(Bucket::Compute, 100);
        a.charge(Bucket::Fetch, 7);
        a.charge(Bucket::Compute, 1);
        assert_eq!(a.bucket(Bucket::Compute), 101);
        assert_eq!(a.total(), 108);
    }

    /// The `multiply_variance` charge is the core time beyond the opcode's
    /// floor: 38 for MULU/MULS, 76 for DIVU, 84 for DIVS.
    #[test]
    fn variance_is_cycles_beyond_minimum() {
        use pasm_isa::timing::{variance_cycles, DynTerm};
        // `dynamic` is the core time minus the split's static part: 38 for
        // the multiplies, 10 (DIVU) and 18 (DIVS) for the divides.
        assert_eq!(variance_cycles(DynTerm::MuluOnes, 38 - 38), 0);
        assert_eq!(variance_cycles(DynTerm::MuluOnes, 70 - 38), 32);
        assert_eq!(variance_cycles(DynTerm::MulsTransitions, 40 - 38), 2);
        assert_eq!(variance_cycles(DynTerm::None, 0), 0);
        assert_eq!(variance_cycles(DynTerm::ShiftCount, 16), 0);
        assert_eq!(
            variance_cycles(DynTerm::DivuQuotient, 10 - 10),
            0,
            "overflow early-out"
        );
        assert_eq!(variance_cycles(DynTerm::DivuQuotient, 76 - 10), 0);
        assert_eq!(variance_cycles(DynTerm::DivuQuotient, 76 + 4 * 15 - 10), 60);
        assert_eq!(
            variance_cycles(DynTerm::DivsQuotient, 20 - 18),
            0,
            "negative early-out"
        );
        assert_eq!(variance_cycles(DynTerm::DivsQuotient, 84 + 6 - 18), 6);
    }

    #[test]
    fn marks_record_closed_spans() {
        let mut a = CycleAccount::default();
        a.mark(true, 1, 100);
        a.mark(true, 2, 120);
        a.mark(false, 2, 150);
        a.mark(false, 1, 200);
        assert_eq!(
            a.spans,
            vec![
                PhaseSpan {
                    phase: 2,
                    start: 120,
                    end: 150
                },
                PhaseSpan {
                    phase: 1,
                    start: 100,
                    end: 200
                },
            ]
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "ended without begin")]
    fn unmatched_end_marker_panics() {
        CycleAccount::default().mark(false, 3, 500);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "begun twice")]
    fn phase_begun_twice_panics() {
        let mut a = CycleAccount::default();
        a.mark(true, 3, 100);
        a.mark(true, 3, 200);
    }

    #[test]
    fn machine_accounts_aggregate_over_components() {
        let mut m = MachineAccounts::new(2, 1);
        m.pe[0].charge(Bucket::Compute, 10);
        m.pe[1].charge(Bucket::Compute, 5);
        m.pe[1].charge(Bucket::BarrierWait, 3);
        m.mc[0].charge(Bucket::Compute, 100);
        assert_eq!(m.pe_bucket_totals()[Bucket::Compute as usize], 15);
        assert_eq!(m.pe_bucket_totals()[Bucket::BarrierWait as usize], 3);
        // The unsummed matrices expose the same numbers row by row.
        let pe = m.pe_bucket_matrix();
        assert_eq!(pe.len(), 2);
        assert_eq!(pe[0][Bucket::Compute as usize], 10);
        assert_eq!(pe[1][Bucket::BarrierWait as usize], 3);
        let mc = m.mc_bucket_matrix();
        assert_eq!(mc.len(), 1);
        assert_eq!(mc[0][Bucket::Compute as usize], 100);
    }
}
