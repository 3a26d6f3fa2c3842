//! Per-component summaries: instruction counts, network words, and the phase
//! breakdown used to regenerate the paper's Figures 8–10. Both are views of
//! a component's [`CycleAccount`], built once when the run ends.

use crate::account::{CycleAccount, N_PHASES};

/// Execution statistics of one PE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeTrace {
    /// Instructions executed (MIMD and SIMD-delivered, marks excluded).
    pub instrs: u64,
    /// Multiply and divide instructions executed.
    pub mul_count: u64,
    /// 8-bit network words sent.
    pub net_bytes_sent: u64,
    /// Local time when this PE halted (0 if it never ran).
    pub finished_at: u64,
    /// Accumulated cycles per instrumentation phase.
    pub phase_cycles: [u64; N_PHASES],
}

impl From<&CycleAccount> for PeTrace {
    fn from(a: &CycleAccount) -> PeTrace {
        PeTrace {
            instrs: a.instrs,
            mul_count: a.mul_div,
            net_bytes_sent: a.net_bytes_sent,
            finished_at: a.finished_at,
            phase_cycles: a.phase_cycles(),
        }
    }
}

/// Execution statistics of one MC.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct McTrace {
    /// Instructions executed.
    pub instrs: u64,
    /// Local time when this MC halted (0 if it never ran).
    pub finished_at: u64,
}

impl From<&CycleAccount> for McTrace {
    fn from(a: &CycleAccount) -> McTrace {
        McTrace {
            instrs: a.instrs,
            finished_at: a.finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accounting_accumulates() {
        let mut a = CycleAccount::default();
        a.mark(true, 1, 100);
        a.mark(false, 1, 150);
        a.mark(true, 1, 200);
        a.mark(false, 1, 230);
        let t = PeTrace::from(&a);
        assert_eq!(t.phase_cycles[1], 80);
        assert_eq!(t.phase_cycles[2], 0);
    }

    #[test]
    fn nested_distinct_phases() {
        let mut a = CycleAccount::default();
        a.mark(true, 1, 0);
        a.mark(true, 2, 10);
        a.mark(false, 2, 30);
        a.mark(false, 1, 100);
        let t = PeTrace::from(&a);
        assert_eq!(t.phase_cycles[1], 100);
        assert_eq!(t.phase_cycles[2], 20);
    }

    #[test]
    fn views_derive_from_a_hand_charged_account() {
        let mut a = CycleAccount::default();
        a.instrs = 4;
        a.mul_div = 3;
        a.finished_at = 500;
        a.net_bytes_sent = 7;
        a.mark(true, 4, 10);
        a.mark(false, 4, 25);
        a.mark(true, 4, 100);
        a.mark(false, 4, 140);

        let pe = PeTrace::from(&a);
        let mut phase_cycles = [0; N_PHASES];
        phase_cycles[4] = 15 + 40;
        assert_eq!(
            pe,
            PeTrace {
                instrs: 4,
                mul_count: 3,
                net_bytes_sent: 7,
                finished_at: 500,
                phase_cycles,
            }
        );
        assert_eq!(
            McTrace::from(&a),
            McTrace {
                instrs: 4,
                finished_at: 500,
            }
        );
    }
}
