//! Integration tests of the cycle-accounting observability layer: the
//! bucket-sum invariant (`started_at + Σ buckets == finished_at` for every
//! halted component, in every mode), the paper's qualitative bucket
//! signatures, the phase-span log, and the guarantee that leaving the
//! accounts out of a result changes simulated results by exactly zero.

use pasm::kernels::matmul::Matmul;
use pasm::{
    run_kernel_opts, run_span_log, Kernel, KernelOutcome, Machine, MachineConfig, Mode, Params,
    RunOptions, RunResult,
};
use pasm_machine::{Bucket, MachineAccounts};
use pasm_prog::matmul::select_vm;

const N: usize = 8;
const P: usize = 4;
const SEED: u64 = 1988;

fn run(mode: Mode) -> KernelOutcome {
    let input = Matmul.generate(N, SEED);
    let cfg = MachineConfig::prototype();
    let opts = RunOptions::default();
    run_kernel_opts(&cfg, &Matmul, mode, Params::new(N, P), &input, &opts).expect("run")
}

/// The matmul run on a machine of its own, so that accounting can be
/// switched with [`Machine::set_accounting`]; returns the run and the product.
fn run_with_accounting(mode: Mode, accounting: bool) -> (RunResult, Vec<u16>) {
    let input = Matmul.generate(N, SEED);
    let cfg = MachineConfig::prototype();
    let params = Params::new(N, P);
    let vm = select_vm(&cfg, if mode == Mode::Serial { 1 } else { P });
    let mut machine = Machine::new(cfg);
    machine.set_accounting(accounting);
    Matmul
        .load(&mut machine, mode, params, &vm, &input)
        .expect("load");
    let run = machine.run().expect("run");
    let output = Matmul.read_output(&machine, mode, params, &vm);
    (run, output)
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
        let (on, on_output) = run_with_accounting(mode, true);
        let (off, off_output) = run_with_accounting(mode, false);
        assert_eq!(on_output, off_output, "{mode}: product must not move");
        assert!(on.accounts.is_some());
        assert!(off.accounts.is_none());
        assert!(run_span_log(&off).is_empty(), "no accounts, no spans");
        assert_eq!(
            RunResult {
                accounts: None,
                ..on
            },
            off,
            "{mode}: makespan, traces and Fetch-Unit statistics must not move"
        );
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
