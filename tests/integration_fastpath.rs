//! Fast-vs-interpreter equivalence: the fast path (the MIMD batch loop over
//! the instruction table and the SIMD lockstep chain) must be an optimization of the *scheduler*, never of the timing model.
//! Every test here runs the same experiment twice — once on the fast path,
//! once forced onto the per-instruction interpreter — and demands the full
//! [`pasm::ExperimentResult`]s be equal: simulated makespan, per-bucket
//! cycle totals (Compute, MultiplyVariance, Fetch, MemoryWait, …),
//! instruction counts, output checksums.
//!
//! The sweep here uses the 4-PE machine so the suite stays fast;
//! `bench --bin blockbench` runs the same equality on the 16-PE prototype
//! at paper scale (n up to 1024) and also times the two paths.

use pasm::{
    run_kernel_opts, ExperimentResult, FaultPlan, Machine, MachineConfig, Mode, NetFault, Params,
    PeFault, ReleaseMode, RunOptions, RunResult,
};

/// A 4-PE machine whose half-machine partition spreads across two MCs —
/// the smallest machine with a fault-tolerant p=2 partition.
fn small_cfg() -> MachineConfig {
    MachineConfig {
        n_mcs: 2,
        ..MachineConfig::small()
    }
}

const SEED: u64 = 4242;

/// Run one kernel cell twice (fast path on / off) and return both
/// outcomes. Errors count as outcomes too: a fault that deadlocks the
/// machine must deadlock *identically* on both paths, so failures are
/// compared by their rendered message.
fn both_paths(
    cfg: &MachineConfig,
    kernel: &'static dyn pasm::Kernel,
    mode: Mode,
    n: usize,
    p: usize,
    fault: FaultPlan,
) -> (
    Result<ExperimentResult, String>,
    Result<ExperimentResult, String>,
) {
    let input = kernel.generate(n, SEED);
    let run = |fast_path: bool| {
        let opts = RunOptions {
            fault: fault.clone(),
            fast_path,
            ..RunOptions::default()
        };
        run_kernel_opts(cfg, kernel, mode, Params::new(n, p), &input, &opts)
            .map(|out| ExperimentResult::from_kernel_outcome(&out, SEED))
            .map_err(|e| e.to_string())
    };
    (run(true), run(false))
}

fn assert_identical_on(
    cfg: &MachineConfig,
    kernel: &str,
    mode: Mode,
    n: usize,
    p: usize,
    fault: &FaultPlan,
) {
    let k = pasm::kernels::find(kernel).expect("registered kernel");
    let (fast, interp) = both_paths(cfg, k, mode, n, p, fault.clone());
    assert_eq!(
        fast, interp,
        "{kernel} {mode} n={n} p={p} fault={fault:?}: fast path diverged from interpreter"
    );
}

fn assert_identical(kernel: &str, mode: Mode, n: usize, p: usize, fault: &FaultPlan) {
    assert_identical_on(&small_cfg(), kernel, mode, n, p, fault);
}

#[test]
fn every_kernel_and_mode_is_identical_on_both_paths() {
    for kernel in pasm::kernels::kernels() {
        // n=16 suits all four kernels' validators on a p∈{2,4} machine.
        for n in [16, 32] {
            for p in [2, 4] {
                if kernel.validate(n, p).is_err() {
                    continue;
                }
                for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
                    assert_identical(kernel.name(), mode, n, p, &FaultPlan::default());
                }
            }
        }
    }
}

#[test]
fn network_faults_are_identical_on_both_paths() {
    // A rerouted interior fault makes every circuit pay a detour; the
    // timing perturbation must land identically on both paths.
    for fault in pasm::single_faults(small_cfg().n_pes) {
        for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
            assert_identical("matmul", mode, 4, 2, &FaultPlan::net_single(fault));
        }
    }
}

#[test]
fn pe_faults_invalidate_blocks_identically_on_both_paths() {
    // A faulted PE takes the fast paths like a healthy one: a slow PE's
    // operand waits are priced in the executor every path shares, a stuck
    // transmit port is reached only through a memory-mapped access, and a
    // dead PE never starts. The degraded run must match the interpreter
    // even in how it *fails*: where a dead or stuck PE starves the others,
    // both paths must end in the same deadlock report or hit the same cycle
    // limit (bounded, as in `integration_faults`).
    let mut cfg = small_cfg();
    cfg.max_cycles = 2_000_000;
    for kernel in pasm::kernels::kernels() {
        if kernel.validate(16, 4).is_err() {
            continue;
        }
        for kind in [
            PeFault::Dead,
            PeFault::Slow { extra_wait: 3 },
            PeFault::StuckTx,
        ] {
            for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
                let fault = FaultPlan::pe_single(1, kind);
                assert_identical_on(&cfg, kernel.name(), mode, 16, 4, &fault);
            }
        }
    }
}

#[test]
fn fast_path_default_matches_explicit_interpreter_on_prototype() {
    // One paper-scale spot check on the full 16-PE prototype: the
    // defaults (fast path on) equal the forced interpreter.
    let cfg = MachineConfig::prototype();
    let k = pasm::kernels::find("bitonic").expect("registered kernel");
    let (fast, interp) = both_paths(&cfg, k, Mode::Smimd, 128, 16, FaultPlan::default());
    assert_eq!(fast, interp);
    assert!(fast.expect("fault-free run completes").cycles > 0);
}

/// The complete machine state a run leaves behind — every trace, Fetch
/// Unit statistic and cycle account (phase spans included) — plus the
/// output words, or the rendered error.
fn full_run(
    cfg: &MachineConfig,
    kernel: &'static dyn pasm::Kernel,
    mode: Mode,
    n: usize,
    p: usize,
    fault: &FaultPlan,
    fast_path: bool,
) -> Result<(RunResult, Vec<u16>), String> {
    let input = kernel.generate(n, SEED);
    let opts = RunOptions {
        fault: fault.clone(),
        fast_path,
        ..RunOptions::default()
    };
    run_kernel_opts(cfg, kernel, mode, Params::new(n, p), &input, &opts)
        .map(|out| (out.run, out.output))
        .map_err(|e| e.to_string())
}

/// `ExperimentResult` carries neither the Fetch Unit statistics nor the MC
/// traces, so a SIMD lockstep chain that moved a barrier stall, an empty stall,
/// an MC's controller wait or a phase span would pass the tests above.
/// This one compares the whole `RunResult` of both paths, over machine
/// shapes the lockstep chain treats differently: several groups, a partial
/// mask, a queue too small for a block, decoupled release, a dead PE, a
/// rerouted network.
#[test]
fn simd_run_state_is_identical_on_both_paths() {
    let two_groups = small_cfg();
    let one_group = MachineConfig::small();
    let tiny_queue = MachineConfig {
        queue_capacity_words: 4,
        ..small_cfg()
    };
    let decoupled = MachineConfig {
        release_mode: ReleaseMode::Decoupled,
        ..small_cfg()
    };
    let prototype = MachineConfig::prototype();
    let mut limited = small_cfg();
    limited.max_cycles = 2_000_000;
    let healthy = FaultPlan::default();
    let dead = FaultPlan::pe_single(1, PeFault::Dead);
    let net = FaultPlan::net_single(NetFault::Box {
        stage: 1,
        box_idx: 0,
    });
    // (machine, p, fault): p=2 on the one-MC machine leaves half of the
    // group masked out; the 4-word queue keeps the controller blocked on
    // space, so releases go through `fuc_blocked`/`space_available_at`.
    let shapes: [(&MachineConfig, usize, &FaultPlan); 8] = [
        (&two_groups, 4, &healthy),
        (&prototype, 16, &healthy),
        (&one_group, 4, &healthy),
        (&one_group, 2, &healthy),
        (&tiny_queue, 4, &healthy),
        (&decoupled, 4, &healthy),
        (&limited, 4, &dead),
        (&two_groups, 4, &net),
    ];
    let mut compared = 0;
    for kernel in pasm::kernels::kernels() {
        for n in [16, 32] {
            for &(cfg, p, fault) in &shapes {
                if kernel.validate(n, p).is_err() {
                    continue;
                }
                for mode in [Mode::Simd, Mode::Smimd] {
                    let fast = full_run(cfg, *kernel, mode, n, p, fault, true);
                    let interp = full_run(cfg, *kernel, mode, n, p, fault, false);
                    assert!(
                        fast == interp,
                        "{} {mode} n={n} p={p} fault={fault:?} cfg={cfg:?}: \
                         fast path diverged from interpreter\nfast:   {fast:?}\ninterp: {interp:?}",
                        kernel.name()
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared >= 40, "only {compared} cells compared");
}

/// Scheduler rounds on the prototype (input seed 1): the paper's matmul
/// at n=32, p=16 in SIMD, MIMD and S/MIMD, and two SIMD cells whose group
/// is one MC, matmul n=32 and reduce n=16384 at p=4, as exact counts and
/// per PE instruction.
/// The rounds measure the fast path's host cost, not simulated time, so
/// they are read from [`Machine::rounds`] beside the run, never from the
/// `RunResult` the tests above compare. A PE step runs its first
/// instruction on the full bus and continues in the MIMD batch, so a
/// polled network access costs one round, not two. The SIMD lockstep
/// chain runs a ring transfer whose circuits stay inside the group (p=4)
/// and the MC's work behind an empty queue in place; a transfer between
/// groups (p=16) still costs one round per member.
#[test]
fn scheduler_rounds_are_pinned() {
    let cfg = MachineConfig::prototype();
    for (kernel, n, p, mode, want, max_per_instr) in [
        ("matmul", 32, 16, Mode::Simd, 69_186, 0.26),
        ("matmul", 32, 16, Mode::Mimd, 136_064, 0.26),
        ("matmul", 32, 16, Mode::Smimd, 67_999, 0.21),
        ("matmul", 32, 4, Mode::Simd, 293, 0.003),
        ("reduce", 16_384, 4, Mode::Simd, 58, 0.004),
    ] {
        let kernel = pasm::kernels::find(kernel).expect("registered kernel");
        let params = Params::new(n, p);
        let input = kernel.generate(params.n, 1);
        let vm = pasm_prog::select_vm(&cfg, params.p);
        let mut machine = Machine::new(cfg.clone());
        kernel
            .load(&mut machine, mode, params, &vm, &input)
            .expect("the ring connects");
        let run = machine.run().expect("the run completes");
        let rounds = machine.rounds();
        let per_instr = rounds as f64 / run.pe_instrs() as f64;
        let cell = format!("{} {mode} n={n} p={p}", kernel.name());
        assert_eq!(rounds, want, "{cell}: scheduler rounds");
        assert!(
            per_instr <= max_per_instr,
            "{cell}: {per_instr:.6} rounds per PE instruction, want ≤ {max_per_instr}"
        );
    }
}
