//! Determinism regression (ISSUE 4 satellite): the simulator is a pure
//! function of (config, program, seed). Two runs of an identical key must
//! agree byte for byte — same cycle count, same per-bucket cycle accounts,
//! same product checksum — with the accounts reported or left out,
//! fault-free or faulted.
//!
//! This is the property the `pasm-server` result cache and the experiment
//! key fingerprint rely on: if it drifts, cached results silently diverge
//! from fresh ones.

use pasm::kernels::matmul::Matmul;
use pasm::{run_keyed, ExperimentKey, FaultPlan, Kernel, Machine, MachineConfig, Mode, NetFault};
use pasm_prog::matmul::select_vm;

fn key(mode: Mode, fault: FaultPlan) -> ExperimentKey {
    ExperimentKey {
        config: MachineConfig::prototype(),
        mode,
        params: pasm::Params::new(8, if mode == Mode::Serial { 1 } else { 4 }),
        seed: 31337,
        fault,
        workload: pasm::MATMUL,
    }
}

#[test]
fn identical_keys_give_identical_results() {
    for mode in [Mode::Serial, Mode::Simd, Mode::Mimd, Mode::Smimd] {
        let first = run_keyed(&key(mode, FaultPlan::default())).expect("first run");
        let second = run_keyed(&key(mode, FaultPlan::default())).expect("second run");
        // `ExperimentResult` is `PartialEq` over every field: cycles, millis,
        // the full `pe_buckets` array, checksum, slowdown.
        assert_eq!(first, second, "{mode} runs diverged");
        assert!(first.c_checksum != 0, "checksum populated");
    }
}

#[test]
fn faulted_runs_are_deterministic_too() {
    let fault = FaultPlan::net_single(NetFault::Link {
        boundary: 2,
        line: 5,
    });
    let first = run_keyed(&key(Mode::Smimd, fault.clone())).expect("first faulted run");
    let second = run_keyed(&key(Mode::Smimd, fault)).expect("second faulted run");
    assert_eq!(first, second, "faulted runs diverged");
    assert_eq!(first.fault, "link:2:5");
    assert!(first.slowdown > 1.0, "rerouted link fault shows slowdown");
}

#[test]
fn kernel_runs_are_deterministic() {
    // Every registered workload, keyed twice: cycles, the full pe_buckets
    // array, and the output checksum must agree byte for byte — the same
    // contract the result cache relies on for matmul.
    for kernel in pasm::kernels::names() {
        for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
            let key = ExperimentKey {
                config: MachineConfig::prototype(),
                mode,
                params: pasm::Params::new(16, 4),
                seed: 31337,
                fault: FaultPlan::default(),
                workload: kernel,
            };
            let first = run_keyed(&key).expect("first kernel run");
            let second = run_keyed(&key).expect("second kernel run");
            assert_eq!(first, second, "{kernel} {mode} runs diverged");
            assert_eq!(first.workload, kernel);
            assert!(first.c_checksum != 0, "{kernel} {mode}: checksum populated");
        }
    }
}

#[test]
fn workload_field_keeps_matmul_fingerprints() {
    // The `workload` member hashes only when it is not the default, so every
    // pre-existing matmul fingerprint (and the server's on-disk cache) stays
    // valid; distinct kernels must still get distinct fingerprints.
    let matmul = key(Mode::Simd, FaultPlan::default());
    let mut smooth = key(Mode::Simd, FaultPlan::default());
    smooth.workload = "smooth";
    assert_ne!(matmul.fingerprint(), smooth.fingerprint());
    assert_eq!(matmul.fingerprint(), {
        // Re-built from scratch: the fingerprint is content-addressed.
        key(Mode::Simd, FaultPlan::default()).fingerprint()
    });
}

#[test]
fn accounting_never_changes_the_simulation() {
    let cfg = MachineConfig::prototype();
    let input = Matmul.generate(8, 31337);
    let params = pasm::Params::new(8, 4);
    let vm = select_vm(&cfg, 4);
    for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
        let run = |accounting: bool| {
            let mut machine = Machine::new(cfg.clone());
            machine.set_accounting(accounting);
            Matmul
                .load(&mut machine, mode, params, &vm, &input)
                .expect("load");
            let run = machine.run().expect("run");
            (run, Matmul.read_output(&machine, mode, params, &vm))
        };
        let (with, with_output) = run(true);
        let (without, without_output) = run(false);
        assert_eq!(with.makespan, without.makespan, "{mode}: observer effect");
        assert_eq!(with_output, without_output, "{mode}: product differs");
        assert!(with.accounts.is_some() && without.accounts.is_none());

        // And two unaccounted runs agree with each other.
        let (again, again_output) = run(false);
        assert_eq!(again, without);
        assert_eq!(again_output, without_output);
    }
}
