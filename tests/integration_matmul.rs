//! Cross-crate functional test: every program variant computes the correct
//! product on the simulated prototype, for random (not just identity) data.

use pasm::kernels::matmul::{input_words, Matmul};
use pasm::{run_kernel_opts, Kernel, KernelOutcome, Matrix, Mode, Params, RunOptions};
use pasm_machine::MachineConfig;

fn cfg() -> MachineConfig {
    MachineConfig::prototype()
}

/// Multiply `a × b` and assert the product equals the host reference.
fn run_matmul_verified(
    cfg: &MachineConfig,
    mode: Mode,
    params: Params,
    a: &Matrix,
    b: &Matrix,
) -> KernelOutcome {
    run_input_verified(cfg, mode, params, &input_words(a, b))
}

fn run_input_verified(
    cfg: &MachineConfig,
    mode: Mode,
    params: Params,
    input: &[u16],
) -> KernelOutcome {
    let out = run_kernel_opts(cfg, &Matmul, mode, params, input, &RunOptions::default()).unwrap();
    out.verify(input)
        .unwrap_or_else(|e| panic!("{mode} n={} p={}: {e}", params.n, params.p));
    out
}

#[test]
fn serial_matches_reference() {
    for n in [4usize, 8, 16] {
        let a = Matrix::uniform(n, 10 + n as u64);
        let b = Matrix::uniform(n, 20 + n as u64);
        run_matmul_verified(&cfg(), Mode::Serial, Params::new(n, 1), &a, &b);
    }
}

#[test]
fn mimd_matches_reference_random_data() {
    for (n, p) in [(8usize, 4usize), (16, 4), (16, 8), (16, 16)] {
        let a = Matrix::uniform(n, 1);
        let b = Matrix::uniform(n, 2);
        run_matmul_verified(&cfg(), Mode::Mimd, Params::new(n, p), &a, &b);
    }
}

#[test]
fn smimd_matches_reference_random_data() {
    for (n, p) in [(8usize, 4usize), (16, 4), (16, 8)] {
        let a = Matrix::uniform(n, 3);
        let b = Matrix::uniform(n, 4);
        run_matmul_verified(&cfg(), Mode::Smimd, Params::new(n, p), &a, &b);
    }
}

#[test]
fn simd_matches_reference_random_data() {
    for (n, p) in [(8usize, 4usize), (16, 4), (16, 8), (16, 16)] {
        let a = Matrix::uniform(n, 5);
        let b = Matrix::uniform(n, 6);
        run_matmul_verified(&cfg(), Mode::Simd, Params::new(n, p), &a, &b);
    }
}

#[test]
fn all_modes_agree_on_the_paper_workload() {
    let n = 16;
    let input = Matmul.generate(n, 7);
    let b = &input[n * n..]; // the product, since A is the identity
    for mode in Mode::ALL {
        let p = if mode == Mode::Serial { 1 } else { 4 };
        let out = run_input_verified(&cfg(), mode, Params::new(n, p), &input);
        assert_eq!(out.output, b, "{mode}");
        assert!(out.cycles > 0);
    }
}

#[test]
fn extra_multiplies_do_not_change_the_result() {
    let n = 8;
    let a = Matrix::uniform(n, 8);
    let b = Matrix::uniform(n, 9);
    for mode in [Mode::Simd, Mode::Smimd, Mode::Mimd] {
        let base = run_matmul_verified(&cfg(), mode, Params::new(n, 4), &a, &b);
        let extra = run_matmul_verified(&cfg(), mode, Params::new(n, 4).with_extra(5), &a, &b);
        assert_eq!(base.output, extra.output, "{mode}");
        assert!(
            extra.cycles > base.cycles,
            "{mode}: added multiplies must cost time ({} vs {})",
            extra.cycles,
            base.cycles
        );
    }
}

#[test]
fn smaller_machine_configs_work_too() {
    // The simulator is not hard-wired to the 16-PE prototype.
    let cfg = MachineConfig {
        n_pes: 8,
        n_mcs: 2,
        ..MachineConfig::prototype()
    };
    let a = Matrix::uniform(8, 11);
    let b = Matrix::uniform(8, 12);
    for mode in [Mode::Simd, Mode::Mimd, Mode::Smimd] {
        run_matmul_verified(&cfg, mode, Params::new(8, 8), &a, &b);
    }
}
