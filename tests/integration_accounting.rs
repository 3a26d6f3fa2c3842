//! Integration tests of the cycle-accounting observability layer: the
//! bucket-sum invariant (`started_at + Σ buckets == finished_at` for every
//! halted component, in every mode), the paper's qualitative bucket
//! signatures, the phase-span log, and the guarantee that disabling
//! accounting changes simulated results by exactly zero.

use pasm::kernels::matmul::Matmul;
use pasm::{run_kernel_opts, Kernel, KernelOutcome, MachineConfig, Mode, Params, RunOptions};
use pasm_machine::{Bucket, MachineAccounts};

const N: usize = 8;
const P: usize = 4;
const SEED: u64 = 1988;

fn run_with_accounting(mode: Mode, accounting: bool) -> KernelOutcome {
    let opts = RunOptions {
        accounting,
        ..RunOptions::default()
    };
    let input = Matmul.generate(N, SEED);
    let cfg = MachineConfig::prototype();
    run_kernel_opts(&cfg, &Matmul, mode, Params::new(N, P), &input, &opts).expect("run")
}

fn run(mode: Mode) -> KernelOutcome {
    run_with_accounting(mode, true)
}

fn accounts(out: &KernelOutcome) -> &MachineAccounts {
    out.run.accounts.as_ref().expect("accounting on by default")
}

#[test]
fn buckets_sum_to_busy_window_in_every_mode() {
    for mode in Mode::ALL {
        let out = run(mode);
        let acc = accounts(&out);
        let mut active = 0;
        for (i, trace) in out.run.pe.iter().enumerate() {
            if trace.instrs == 0 {
                continue;
            }
            active += 1;
            assert_eq!(
                acc.pe[i].started_at + acc.pe[i].total(),
                trace.finished_at,
                "{mode} pe{i}: every cycle of the busy window must land in \
                 exactly one bucket"
            );
        }
        assert!(active >= 1, "{mode}: no active PEs");
        for (i, trace) in out.run.mc.iter().enumerate() {
            if trace.instrs == 0 {
                continue;
            }
            assert_eq!(
                acc.mc[i].started_at + acc.mc[i].total(),
                trace.finished_at,
                "{mode} mc{i}: bucket-sum invariant"
            );
        }
    }
}

#[test]
fn barrier_wait_signature_matches_the_paper() {
    for mode in Mode::ALL {
        let out = run(mode);
        let barrier: u64 = accounts(&out)
            .pe
            .iter()
            .map(|a| a.bucket(Bucket::BarrierWait))
            .sum();
        match mode {
            // Serial has nothing to synchronize with; MIMD synchronizes by
            // polling, which burns compute cycles, not barrier waits.
            Mode::Serial | Mode::Mimd => {
                assert_eq!(barrier, 0, "{mode}: unexpected barrier_wait {barrier}")
            }
            Mode::Simd | Mode::Smimd => {
                assert!(barrier > 0, "{mode}: expected nonzero barrier_wait")
            }
        }
    }
}

#[test]
fn multiply_variance_is_charged_in_every_mode() {
    for mode in Mode::ALL {
        let out = run(mode);
        let variance: u64 = accounts(&out)
            .pe
            .iter()
            .map(|a| a.bucket(Bucket::MultiplyVariance))
            .sum();
        assert!(
            variance > 0,
            "{mode}: data-dependent multiplies must charge variance"
        );
    }
}

#[test]
fn disabling_accounting_changes_nothing_but_the_breakdowns() {
    for mode in Mode::ALL {
        let on = run_with_accounting(mode, true);
        let off = run_with_accounting(mode, false);
        assert_eq!(on.cycles, off.cycles, "{mode}: makespan must not move");
        assert_eq!(on.output, off.output, "{mode}: product must not move");
        assert!(on.run.accounts.is_some());
        assert!(off.run.accounts.is_none());
        for (t_on, t_off) in on.run.pe.iter().zip(off.run.pe.iter()) {
            assert_eq!(t_on.finished_at, t_off.finished_at, "{mode}: PE timing");
            assert_eq!(t_on.instrs, t_off.instrs, "{mode}: PE instruction count");
        }
        assert!(off.span_log().is_empty(), "no accounts, no spans");
    }
}

#[test]
fn span_log_names_the_program_phases() {
    let out = run(Mode::Simd);
    let log = out.span_log();
    assert!(!log.is_empty());
    for phase in ["clear_loop", "mac_loop", "recirculation_transfer"] {
        assert!(
            log.total_cycles(phase) > 0,
            "SIMD run should record a {phase} span"
        );
    }

    // The JSONL form round-trips: one well-formed object per line.
    let jsonl = log.to_jsonl();
    assert_eq!(jsonl.lines().count(), log.len());
    for line in jsonl.lines() {
        let obj = pasm_util::json::parse(line).expect("valid JSON");
        for key in ["source", "name", "start", "end", "cycles"] {
            assert!(obj.get(key).is_some(), "span object missing {key:?}");
        }
    }
}

#[test]
fn experiment_result_carries_the_bucket_totals() {
    let key = pasm::ExperimentKey {
        config: MachineConfig::prototype(),
        mode: Mode::Simd,
        params: Params::new(N, P),
        seed: SEED,
        fault: Default::default(),
        workload: pasm::MATMUL,
    };
    let result = pasm::run_keyed(&key).expect("run");
    let total: u64 = result.pe_buckets.iter().sum();
    assert!(total > 0, "keyed runs account by default");
    let json = pasm_util::ToJson::to_json(&result);
    let buckets = json.get("cycle_buckets").expect("cycle_buckets in JSON");
    for name in pasm_machine::BUCKET_NAMES {
        assert!(buckets.get(name).is_some(), "bucket {name:?} in JSON");
    }
}
