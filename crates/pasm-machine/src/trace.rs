//! Per-component instrumentation: instruction counts, stall accounting, and
//! the phase breakdown used to regenerate the paper's Figures 8–10.

/// Number of distinct phase ids supported by `Mark` instrumentation.
pub const N_PHASES: usize = 16;

/// Execution statistics of one PE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeTrace {
    /// Instructions executed (MIMD and SIMD-delivered, marks excluded).
    pub instrs: u64,
    /// Cycles spent executing instructions (incl. memory waits, excl. stalls).
    pub busy_cycles: u64,
    /// Multiply instructions executed.
    pub mul_count: u64,
    /// Total cycles inside multiply instructions.
    pub mul_cycles: u64,
    /// Cycles from issuing a SIMD-space request to the release (lockstep wait
    /// + queue-empty wait).
    pub simd_wait_cycles: u64,
    /// Extra cycles charged for instruction-fetch memory waits.
    pub fetch_wait_cycles: u64,
    /// Extra cycles charged for operand (data) memory waits.
    pub data_wait_cycles: u64,
    /// Cycles stalled on the network transmit register (receiver not ready).
    pub net_tx_stall_cycles: u64,
    /// Cycles stalled on the network receive register (no byte in flight).
    pub net_rx_stall_cycles: u64,
    /// 8-bit network words sent.
    pub net_bytes_sent: u64,
    /// Local time when this PE halted (0 if it never ran).
    pub finished_at: u64,
    /// Accumulated cycles per instrumentation phase.
    pub phase_cycles: [u64; N_PHASES],
    /// Open phase start times (begin marker seen, end pending).
    pub(crate) phase_open: [Option<u64>; N_PHASES],
}

impl PeTrace {
    /// Handle a `Mark` instruction executed at local time `now`.
    pub fn mark(&mut self, begin: bool, phase: u8, now: u64) {
        let p = phase as usize % N_PHASES;
        if begin {
            debug_assert!(self.phase_open[p].is_none(), "phase {p} begun twice");
            self.phase_open[p] = Some(now);
        } else if let Some(start) = self.phase_open[p].take() {
            self.phase_cycles[p] += now.saturating_sub(start);
        } else {
            debug_assert!(false, "phase {p} ended without begin");
        }
    }

    /// Total stall time (everything that is not instruction execution).
    pub fn stall_cycles(&self) -> u64 {
        self.simd_wait_cycles + self.net_tx_stall_cycles + self.net_rx_stall_cycles
    }
}

/// Execution statistics of one MC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McTrace {
    /// Instructions executed.
    pub instrs: u64,
    /// Cycles spent executing instructions.
    pub busy_cycles: u64,
    /// Cycles stalled waiting for the Fetch Unit controller to accept a command.
    pub fuc_wait_cycles: u64,
    /// Blocks enqueued.
    pub blocks_enqueued: u64,
    /// Local time when this MC halted (0 if it never ran).
    pub finished_at: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accounting_accumulates() {
        let mut t = PeTrace::default();
        t.mark(true, 1, 100);
        t.mark(false, 1, 150);
        t.mark(true, 1, 200);
        t.mark(false, 1, 230);
        assert_eq!(t.phase_cycles[1], 80);
        assert_eq!(t.phase_cycles[2], 0);
    }

    #[test]
    fn nested_distinct_phases() {
        let mut t = PeTrace::default();
        t.mark(true, 1, 0);
        t.mark(true, 2, 10);
        t.mark(false, 2, 30);
        t.mark(false, 1, 100);
        assert_eq!(t.phase_cycles[1], 100);
        assert_eq!(t.phase_cycles[2], 20);
    }

    #[test]
    fn stall_total() {
        let t = PeTrace {
            simd_wait_cycles: 5,
            net_tx_stall_cycles: 7,
            net_rx_stall_cycles: 11,
            ..Default::default()
        };
        assert_eq!(t.stall_cycles(), 23);
    }
}
