//! Calibration sweep for the memory-timing constants (not a paper artifact).
//!
//! The prototype's exact wait-state and refresh figures are not published;
//! this utility sweeps the plausible space and reports, per configuration:
//! the Fig-7 crossover for one seed (1988) at p=4 and the n given as the
//! first argument (default 32; the paper's Fig. 7 is at n=64), the
//! Fig-11-style efficiencies, and the Table-1 MIPS ratio.
//!
//! The fit it supports is historical. The prototype constants were chosen
//! when seed 1988 drew a B matrix whose crossover landed on the paper's ≈14
//! added multiplies; the in-repo generator draws a different B for the same
//! seed, and the model's n=64 crossover for it is 16 today (EXPERIMENTS.md,
//! Calibration). The crossover also varies across seeds, so one seed's
//! position is not a target: do not re-tune the memory constants from this
//! sweep to recover 14.

use pasm::figures::{fig11, fig7, fig7_crossover, table1};
use pasm::MachineConfig;
use pasm_mem::MemTiming;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(32);
    let extras: Vec<usize> = (0..=30).collect();

    println!("calibration at n={n}, p=4, seed 1988 (historical single-seed fit, not a target)");
    println!("pe_ws fu_ws refresh | crossover | eff SIMD/MIMD/SMIMD | MIPS add simd/mimd");

    for (pe_ws, fu_ws) in [(1u32, 0u32), (2, 1), (3, 2)] {
        for refresh in [4u64, 8, 10, 12, 16] {
            let cfg = MachineConfig {
                pe_dram: MemTiming {
                    wait_states: pe_ws,
                    refresh_interval: 125,
                    refresh_duration: refresh,
                },
                fu_sram: MemTiming {
                    wait_states: fu_ws,
                    refresh_interval: 0,
                    refresh_duration: 0,
                },
                mc_dram: MemTiming {
                    wait_states: pe_ws,
                    refresh_interval: 125,
                    refresh_duration: refresh,
                },
                ..MachineConfig::prototype()
            };
            let rows = fig7(&cfg, n, 4, &extras, 1988);
            let cross = fig7_crossover(&rows);
            let eff = fig11(&cfg, 4, &[n], 1988);
            let t1 = table1(&cfg);
            println!(
                "{:>5} {:>5} {:>7} | {:>9} | {:.3}/{:.3}/{:.3} | {:.2}/{:.2}",
                pe_ws,
                fu_ws,
                refresh,
                cross
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "none".into()),
                eff[0].simd,
                eff[0].mimd,
                eff[0].smimd,
                t1[0].simd_mips,
                t1[0].mimd_mips,
            );
        }
    }
}
