//! Per-component summaries: instruction counts, waits, and the phase
//! breakdown used to regenerate the paper's Figures 8–10. Both are views of
//! a component's [`CycleAccount`], built once when the run ends.

use crate::account::{Bucket, CycleAccount, N_PHASES};

/// Execution statistics of one PE.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeTrace {
    /// Instructions executed (MIMD and SIMD-delivered, marks excluded).
    pub instrs: u64,
    /// Multiply and divide instructions executed.
    pub mul_count: u64,
    /// Cycles from issuing a SIMD-space request to the release (lockstep wait
    /// + queue-empty wait).
    pub simd_wait_cycles: u64,
    /// Extra cycles charged for instruction-fetch memory waits.
    pub fetch_wait_cycles: u64,
    /// Extra cycles charged for operand (data) memory waits.
    pub data_wait_cycles: u64,
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
            instrs: a.instrs(),
            mul_count: a.mul_div().0,
            simd_wait_cycles: a.bucket(Bucket::BarrierWait),
            fetch_wait_cycles: a.bucket(Bucket::Fetch),
            data_wait_cycles: a.bucket(Bucket::MemoryWait),
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
            instrs: a.instrs(),
            finished_at: a.finished_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::opcode_index;
    use pasm_isa::{DataReg, Ea, Instr};

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
        let src = Ea::D(DataReg::D1);
        let dst = DataReg::D0;
        let mut a = CycleAccount::default();
        let row = |i: Instr| opcode_index(&i);
        a.record_instr(row(Instr::Mulu { src, dst }), 70);
        a.record_instr(row(Instr::Mulu { src, dst }), 40);
        a.record_instr(row(Instr::Divs { src, dst }), 150);
        a.record_instr(row(Instr::Enqueue { block: 3 }), 12);
        a.record_instr(
            row(Instr::Mark {
                begin: true,
                phase: 4,
            }),
            0,
        );
        a.mark(true, 4, 10);
        a.mark(false, 4, 25);
        a.mark(true, 4, 100);
        a.mark(false, 4, 140);
        a.charge(Bucket::BarrierWait, 33);
        a.charge(Bucket::Fetch, 6);
        a.charge(Bucket::MemoryWait, 9);
        a.finished_at = 500;
        a.net_bytes_sent = 7;

        let pe = PeTrace::from(&a);
        let mut phase_cycles = [0; N_PHASES];
        phase_cycles[4] = 15 + 40;
        assert_eq!(
            pe,
            PeTrace {
                instrs: 4,
                mul_count: 3,
                simd_wait_cycles: 33,
                fetch_wait_cycles: 6,
                data_wait_cycles: 9,
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
