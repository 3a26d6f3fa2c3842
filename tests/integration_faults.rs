//! Fault injection end to end (ISSUE 4): the matmul variants complete
//! correctly under any single network fault, rerouted faults charge the
//! `fault_detour` bucket, PE fault models degrade gracefully, and the
//! unroutable full-machine ring is a clean error — never a panic or a hang.
//!
//! The exhaustive sweep here uses a 4-PE machine (14 single faults) so the
//! suite stays fast; `bench --bin faultsweep` runs the same assertions on
//! the 16-PE prototype across 104 faults and 16 seeds.

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::{
    run_kernel_opts, run_keyed, single_faults, ExperimentKey, FaultPlan, Kernel, MachineConfig,
    Mode, NetFault, PeFault, RunOptions,
};
use pasm_machine::{Bucket, RunError};
use pasm_prog::Matrix;

/// A 4-PE machine whose half-machine partition spreads across two MCs —
/// the smallest machine with a fault-tolerant p=2 partition.
fn small_cfg() -> MachineConfig {
    MachineConfig {
        n_mcs: 2,
        ..MachineConfig::small()
    }
}

fn keyed(cfg: MachineConfig, mode: Mode, n: usize, p: usize, fault: FaultPlan) -> ExperimentKey {
    ExperimentKey {
        config: cfg,
        mode,
        params: pasm::Params::new(n, p),
        seed: 4242,
        fault,
        workload: pasm::MATMUL,
    }
}

#[test]
fn every_single_network_fault_is_tolerated_in_all_modes() {
    let cfg = small_cfg();
    let input = input_words(&Matrix::uniform(4, 11), &Matrix::uniform(4, 22));
    for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
        for fault in single_faults(cfg.n_pes) {
            let opts = RunOptions {
                fault: FaultPlan::net_single(fault),
                ..RunOptions::default()
            };
            let params = pasm::Params::new(4, 2);
            let out = run_kernel_opts(&cfg, &Matmul, mode, params, &input, &opts)
                .unwrap_or_else(|e| panic!("{mode} under {fault}: {e}"));
            out.verify(&input)
                .unwrap_or_else(|e| panic!("{mode} product wrong under {fault}: {e}"));
        }
    }
}

#[test]
fn rerouted_fault_slows_down_through_the_detour_bucket() {
    // An interior box fault on the prototype: every circuit of the p=8
    // partition pays the extra stage.
    let fault = FaultPlan::net_single(NetFault::Box {
        stage: 1,
        box_idx: 0,
    });
    let key = keyed(MachineConfig::prototype(), Mode::Smimd, 8, 8, fault);
    let result = run_keyed(&key).expect("faulted run completes");
    let fault_free = run_keyed(&keyed(
        MachineConfig::prototype(),
        Mode::Smimd,
        8,
        8,
        FaultPlan::default(),
    ))
    .expect("fault-free run");

    assert_eq!(result.fault, "box:1:0");
    assert_eq!(
        result.c_checksum, fault_free.c_checksum,
        "product unchanged"
    );
    assert_eq!(result.baseline_cycles, fault_free.cycles);
    assert!(
        result.cycles > result.baseline_cycles && result.slowdown > 1.0,
        "rerouted fault must cost cycles: {result:?}"
    );
    assert!(
        result.pe_buckets[Bucket::FaultDetour as usize] > 0,
        "slowdown attributed to fault_detour"
    );
}

#[test]
fn hidden_fault_costs_nothing() {
    // An extra-stage box fault is bypassed by the multiplexers: same cycle
    // count as fault-free, nothing charged to fault_detour.
    let fault = FaultPlan::net_single(NetFault::Box {
        stage: 0,
        box_idx: 3,
    });
    let key = keyed(MachineConfig::prototype(), Mode::Smimd, 8, 8, fault);
    let result = run_keyed(&key).expect("hidden-faulted run completes");
    assert_eq!(result.cycles, result.baseline_cycles);
    assert_eq!(result.slowdown, 1.0);
    assert_eq!(result.pe_buckets[Bucket::FaultDetour as usize], 0);
}

#[test]
fn full_machine_ring_reports_a_clean_routing_error() {
    // p = 16 uses all network lines; an interior fault makes the full ring
    // unroutable in a single pass (the ESC needs two passes for it), which
    // must surface as `RunError::Net` — not a panic, not a hang.
    let fault = FaultPlan::net_single(NetFault::Box {
        stage: 1,
        box_idx: 0,
    });
    let key = keyed(MachineConfig::prototype(), Mode::Smimd, 16, 16, fault);
    match run_keyed(&key) {
        Err(RunError::Net(msg)) => {
            assert!(
                msg.contains("blocked"),
                "routing error names the block: {msg}"
            )
        }
        other => panic!("expected RunError::Net, got {other:?}"),
    }
}

#[test]
fn dead_pe_fails_the_simd_ring_with_a_diagnosis() {
    // PE 12 of the p=4 partition [0, 4, 8, 12] never starts. The Fetch Unit
    // masks it out of release decisions (unit-tested at the machine level),
    // so the broadcast phases of the survivors proceed — until a survivor
    // waits on the ring word the dead PE will never send. That must surface
    // as a *detected* deadlock naming the starved receive, immediately, not
    // as a silent spin to the cycle limit.
    let input = Matmul.generate(8, 77);
    let opts = RunOptions {
        fault: FaultPlan::pe_single(12, PeFault::Dead),
        ..RunOptions::default()
    };
    let mut cfg = MachineConfig::prototype();
    cfg.max_cycles = 10_000_000;
    match run_kernel_opts(
        &cfg,
        &Matmul,
        Mode::Simd,
        pasm::Params::new(8, 4),
        &input,
        &opts,
    ) {
        Err(RunError::Deadlock(report)) => assert!(
            report.contains("AwaitNetRx"),
            "deadlock report names the starved receive: {report}"
        ),
        other => panic!("expected a detected deadlock, got {other:?}"),
    }
}

#[test]
fn slow_pe_charges_fault_detour_and_still_computes_correctly() {
    let input = Matmul.generate(8, 78);
    let opts = RunOptions {
        fault: FaultPlan::pe_single(0, PeFault::Slow { extra_wait: 3 }),
        ..RunOptions::default()
    };
    let cfg = MachineConfig::prototype();
    let params = pasm::Params::new(8, 4);
    let out = run_kernel_opts(&cfg, &Matmul, Mode::Smimd, params, &input, &opts)
        .expect("slow-PE run completes");
    out.verify(&input)
        .expect("marginal DRAM still computes right");
    let detour =
        out.run.accounts.as_ref().unwrap().pe_bucket_totals()[Bucket::FaultDetour as usize];
    assert!(detour > 0, "extra wait states charged to fault_detour");
}

#[test]
fn stuck_tx_port_fails_bounded_not_hanging() {
    let input = Matmul.generate(8, 79);
    let opts = RunOptions {
        fault: FaultPlan::pe_single(0, PeFault::StuckTx),
        ..RunOptions::default()
    };
    let mut cfg = MachineConfig::prototype();
    cfg.max_cycles = 2_000_000;
    for mode in [Mode::Mimd, Mode::Smimd] {
        match run_kernel_opts(&cfg, &Matmul, mode, pasm::Params::new(8, 4), &input, &opts) {
            Err(RunError::Deadlock(_) | RunError::CycleLimit(_)) => {}
            other => panic!("{mode} with a stuck port must fail bounded, got {other:?}"),
        }
    }
}
