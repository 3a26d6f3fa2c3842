//! Golden gate for the paper's reproduced numbers: cycle-exact values of the
//! Fig. 7 crossover, the Fig. 9 near-equal pair, Table 1's MIPS, and the
//! Fig. 11 efficiencies, all on `MachineConfig::prototype()` with seed 1988
//! (the seed of every figure binary). EXPERIMENTS.md quotes these values; a
//! change to the timing model, the programs or the input draw that moves one
//! of them must update that file in the same change.
//!
//! The paper-scale point (Fig. 11 at n = 256) is `#[ignore]`d for debug
//! builds; `ci.sh` runs it in release with `--ignored`.

use pasm::figures::{table1, DEFAULT_SEED};
use pasm::{efficiency, run_keyed, ExperimentKey, FaultPlan, MachineConfig, Mode, Params};

/// The keyed paper run: identity A, uniform B drawn from seed 1988.
fn key(workload: &'static str, mode: Mode, params: Params) -> ExperimentKey {
    ExperimentKey {
        config: MachineConfig::prototype(),
        mode,
        params,
        seed: DEFAULT_SEED,
        fault: FaultPlan::default(),
        workload,
    }
}

fn cycles(mode: Mode, n: usize, p: usize, extra: usize) -> u64 {
    let params = Params::new(n, p).with_extra(extra);
    run_keyed(&key(pasm::MATMUL, mode, params))
        .expect("paper run")
        .cycles
}

#[test]
fn fig7_crossover_lies_between_15_and_16_added_multiplies() {
    // 15: SIMD 8071.47 ms vs S/MIMD 8073.66 ms; 16: 8554.73 vs 8526.79 ms.
    let (simd15, smimd15) = (
        cycles(Mode::Simd, 64, 4, 15),
        cycles(Mode::Smimd, 64, 4, 15),
    );
    let (simd16, smimd16) = (
        cycles(Mode::Simd, 64, 4, 16),
        cycles(Mode::Smimd, 64, 4, 16),
    );
    assert_eq!(
        [simd15, smimd15, simd16, smimd16],
        [64_571_748, 64_589_304, 68_437_821, 68_214_356]
    );
    assert!(simd15 < smimd15, "SIMD still ahead at 15 added multiplies");
    assert!(smimd16 <= simd16, "S/MIMD ahead from 16 added multiplies");
}

#[test]
fn fig9_totals_are_near_equal_at_13_added_multiplies() {
    // SIMD 7102.70 ms vs S/MIMD 7120.23 ms.
    let (simd, smimd) = (
        cycles(Mode::Simd, 64, 4, 13),
        cycles(Mode::Smimd, 64, 4, 13),
    );
    assert_eq!([simd, smimd], [56_821_571, 56_961_830]);
    let gap = simd.abs_diff(smimd) as f64 / simd.min(smimd) as f64;
    assert!(gap < 0.005, "Fig. 9 totals differ by {:.3} %", gap * 100.0);
}

#[test]
fn table1_mips() {
    let got: Vec<String> = table1(&MachineConfig::prototype())
        .iter()
        .flat_map(|r| [format!("{:.4}", r.simd_mips), format!("{:.4}", r.mimd_mips)])
        .collect();
    assert_eq!(got, ["1.5997", "1.2479", "0.7039", "0.6400"]);
}

#[test]
fn fig11_simd_is_superlinear_at_n64() {
    let serial = cycles(Mode::Serial, 64, 4, 0);
    let simd = cycles(Mode::Simd, 64, 4, 0);
    assert_eq!([serial, simd], [27_353_550, 6_559_123]);
    let e = efficiency(serial, simd, 4);
    assert_eq!(format!("{e:.4}"), "1.0426");
    assert!(e > 1.0);
}

#[test]
#[ignore = "paper scale; ci.sh runs it in release"]
fn fig11_smimd_efficiency_at_n256() {
    let serial = cycles(Mode::Serial, 256, 4, 0);
    let smimd = cycles(Mode::Smimd, 256, 4, 0);
    assert_eq!([serial, smimd], [1_735_303_116, 450_523_981]);
    assert_eq!(format!("{:.4}", efficiency(serial, smimd, 4)), "0.9629");
}

/// One literal fingerprint per registered kernel: the result cache and the
/// span store name their on-disk records by it, so it must never drift.
#[test]
fn every_kernel_fingerprint_is_pinned() {
    let got: Vec<(&str, String)> = pasm::kernels::names()
        .into_iter()
        .map(|k| {
            let fp = key(k, Mode::Simd, Params::new(64, 4)).fingerprint();
            (k, format!("{fp:016x}"))
        })
        .collect();
    assert_eq!(
        got,
        [
            ("matmul", "ecf9bfece7b4b186".to_string()),
            ("smooth", "1068381a19f3944d".to_string()),
            ("reduce", "610da5ec4dc7d499".to_string()),
            ("bitonic", "324a29c399beb8e1".to_string()),
        ]
    );
}
