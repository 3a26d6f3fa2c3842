//! Machine configuration: sizes and timing parameters of the simulated prototype.

use pasm_mem::MemTiming;

/// How the Fetch Unit releases a queued SIMD instruction to its PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReleaseMode {
    /// The real hardware rule: an instruction is released only after **all**
    /// enabled PEs have requested it, so every variable-time instruction costs
    /// the *maximum* across PEs (paper §3 and the T_SIMD equation in §5.2).
    Lockstep,
    /// Ablation: each PE receives the instruction as soon as it asks (as if
    /// every PE had its own private queue). Removes the per-instruction max
    /// and isolates how much of the SIMD cost is the lockstep barrier.
    Decoupled,
}

/// Full parameter set of a simulated PASM prototype.
///
/// Defaults ([`MachineConfig::prototype`]) model the 30-processor prototype
/// used in the paper: N = 16 PEs, Q = 4 MCs, 8 MHz MC68000s, DRAM PE memory
/// with one more wait state than the static-RAM Fetch Unit queue, and a
/// circuit-switched 8-bit-wide Extra-Stage Cube network.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of processing elements (power of two).
    pub n_pes: usize,
    /// Number of micro controllers; each controls `n_pes / n_mcs` PEs.
    pub n_mcs: usize,
    /// Bytes of main memory per PE.
    pub pe_mem_bytes: usize,
    /// PE main-memory (DRAM) timing.
    pub pe_dram: MemTiming,
    /// Fetch Unit queue (SRAM) timing, as seen by a PE fetching from the queue.
    pub fu_sram: MemTiming,
    /// MC program-memory timing.
    pub mc_dram: MemTiming,
    /// Fetch Unit queue capacity in 16-bit words.
    pub queue_capacity_words: u32,
    /// Cycles the Fetch Unit controller needs to move one word into the queue.
    pub fuc_cycles_per_word: u64,
    /// Latency from the MC's enqueue command to the controller starting to move.
    pub fuc_command_cycles: u64,
    /// Extra cycles from the last enabled PE's request to instruction delivery.
    pub simd_release_cycles: u64,
    /// Network circuit set-up cost in cycles. Not charged: circuits are
    /// established before the run starts, and nothing reads this field. It
    /// stays because `#[derive(Hash)]` puts it into every `ExperimentKey`
    /// fingerprint, so removing or changing it would rename every cached
    /// result.
    pub net_setup_cycles: u64,
    /// Latency of one 8-bit word through an established circuit.
    pub net_word_cycles: u64,
    /// Additional per-word cycles for each network stage a circuit traverses
    /// beyond the fault-free minimum of m. Only degraded configurations (both
    /// cube₀ stages in the data path) have longer circuits, so this is the
    /// unit cost the `fault_detour` bucket is charged in.
    pub net_stage_cycles: u64,
    /// Release rule (see [`ReleaseMode`]).
    pub release_mode: ReleaseMode,
    /// Hard stop for the scheduler (guards against runaway programs).
    pub max_cycles: u64,
}

impl MachineConfig {
    /// The PASM prototype as described in the paper (N = 16, Q = 4).
    pub fn prototype() -> Self {
        MachineConfig {
            n_pes: 16,
            n_mcs: 4,
            pe_mem_bytes: 1 << 20,
            pe_dram: MemTiming::PE_DRAM,
            fu_sram: MemTiming::FU_SRAM,
            mc_dram: MemTiming::MC_DRAM,
            queue_capacity_words: 512,
            fuc_cycles_per_word: 2,
            fuc_command_cycles: 4,
            simd_release_cycles: 0,
            net_setup_cycles: 120,
            net_word_cycles: 4,
            net_stage_cycles: 2,
            release_mode: ReleaseMode::Lockstep,
            max_cycles: u64::MAX,
        }
    }

    /// A small machine for fast unit tests (4 PEs, 1 MC, 64 KiB memories).
    pub fn small() -> Self {
        MachineConfig {
            n_pes: 4,
            n_mcs: 1,
            pe_mem_bytes: 1 << 16,
            ..Self::prototype()
        }
    }

    /// PEs per MC group.
    pub fn pes_per_mc(&self) -> usize {
        self.n_pes / self.n_mcs
    }

    /// Check the structural constraints a machine is built on, naming the
    /// first one violated. The Fetch Unit's masks are 16 bits wide, so an MC
    /// controls at most 16 PEs.
    pub fn validate(&self) -> Result<(), String> {
        let (n, q) = (self.n_pes, self.n_mcs);
        if !n.is_power_of_two() {
            return Err(format!("n_pes must be a power of two, got {n}"));
        }
        if q == 0 || !n.is_multiple_of(q) {
            return Err(format!("n_mcs must divide n_pes (= {n}), got {q}"));
        }
        if self.pes_per_mc() > 16 {
            return Err(format!(
                "an MC controls at most 16 PEs, got n_pes / n_mcs = {n} / {q}"
            ));
        }
        if self.pe_mem_bytes < 1024 {
            return Err(format!(
                "pe_mem_bytes must be at least 1024, got {}",
                self.pe_mem_bytes
            ));
        }
        if self.queue_capacity_words < 4 {
            return Err(format!(
                "queue_capacity_words must hold one instruction (4 words), got {}",
                self.queue_capacity_words
            ));
        }
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_paper() {
        let c = MachineConfig::prototype();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.n_pes, 16);
        assert_eq!(c.n_mcs, 4);
        assert_eq!(c.pes_per_mc(), 4);
        assert_eq!(c.release_mode, ReleaseMode::Lockstep);
        // The SRAM queue must be at least one wait state faster than PE DRAM.
        assert!(c.fu_sram.wait_states < c.pe_dram.wait_states);
    }

    #[test]
    fn small_config_valid() {
        let c = MachineConfig::small();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.pes_per_mc(), 4);
    }

    #[test]
    fn invalid_pe_count_rejected() {
        let c = MachineConfig {
            n_pes: 12,
            ..MachineConfig::prototype()
        };
        assert!(c.validate().unwrap_err().contains("power of two"));
    }
}
