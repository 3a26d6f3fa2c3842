//! Derived measurements: speed-up, efficiency, and the phase breakdown.

use crate::experiment::KernelOutcome;

/// Speed-up of a parallel run over the serial baseline.
pub fn speedup(serial_cycles: u64, parallel_cycles: u64) -> f64 {
    serial_cycles as f64 / parallel_cycles as f64
}

/// Efficiency as defined in paper §10: speed-up divided by the number of PEs.
/// The paper's SIMD version exceeds 1.0 ("superlinear") because the MCs do the
/// control flow and the queue fetches faster than PE DRAM.
pub fn efficiency(serial_cycles: u64, parallel_cycles: u64, p: usize) -> f64 {
    speedup(serial_cycles, parallel_cycles) / p as f64
}

/// The Figures 8–10 decomposition of a run's execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Cycles in the multiplication section (incl. the add into C and the
    /// related address arithmetic, as in the paper).
    pub multiply: u64,
    /// Cycles in the communication section (polls/barriers included).
    pub communication: u64,
    /// Everything else: clearing C, pointer rotation, loop overheads.
    pub other: u64,
    /// Total program time.
    pub total: u64,
}

impl Breakdown {
    /// Extract the breakdown from a finished run: `multiply` and
    /// `communication` are the kernel's compute and comm phases (see
    /// [`pasm_kernels::Kernel::phases`]), taken from the slowest PE's
    /// accounting (the makespan perspective).
    pub fn of(out: &KernelOutcome) -> Breakdown {
        let (compute, comm) = out.kernel.phases();
        let multiply = out.run.phase_max(compute as usize);
        let communication = out.run.phase_max(comm as usize);
        let total = out.cycles;
        Breakdown {
            multiply,
            communication,
            other: total.saturating_sub(multiply + communication),
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_and_efficiency() {
        assert!((speedup(1000, 250) - 4.0).abs() < 1e-12);
        assert!((efficiency(1000, 250, 4) - 1.0).abs() < 1e-12);
        assert!(efficiency(1000, 300, 4) < 1.0);
        assert!(efficiency(1000, 200, 4) > 1.0, "superlinear case");
    }
}
