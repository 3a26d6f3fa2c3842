//! The validation contract of `ExperimentKey::validate`, the one check that
//! decides which experiments can run: every key of the grid in
//! `common/grid.rs` that it accepts loads and starts without a panic, and
//! every key it rejects is one `pasm-run:` line with exit code 1 from the
//! CLI. (`integration_server` submits the rejected keys over HTTP.)

#[path = "common/grid.rs"]
mod grid;

use pasm_machine::RunError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;

/// A budget no run of the grid finishes within, so each accepted key stops
/// right after it is loaded and started.
const TINY_MAX_CYCLES: u64 = 64;

#[test]
fn every_accepted_key_loads_and_stops_at_the_cycle_limit() {
    let mut accepted = 0;
    let mut broken = Vec::new();
    for case in grid::cases() {
        let mut key = case.key();
        if key.validate().is_err() {
            continue;
        }
        accepted += 1;
        key.config.max_cycles = TINY_MAX_CYCLES;
        match catch_unwind(AssertUnwindSafe(|| pasm::run_keyed(&key))) {
            Ok(Err(RunError::CycleLimit(_))) => {}
            Ok(other) => broken.push(format!("{case:?}: {other:?}")),
            Err(_) => broken.push(format!("{case:?}: panicked")),
        }
    }
    assert!(broken.is_empty(), "{broken:#?}");
    assert!(accepted > 100, "only {accepted} keys accepted");
}

#[test]
fn the_grid_has_both_verdicts_for_every_kernel_and_preset() {
    let cases = grid::cases();
    for kernel in pasm::kernels::names() {
        for small in [false, true] {
            let verdicts: Vec<bool> = cases
                .iter()
                .filter(|c| c.kernel == kernel && c.small == small)
                .map(|c| c.key().validate().is_ok())
                .collect();
            assert!(verdicts.contains(&true), "{kernel} small={small}");
            assert!(verdicts.contains(&false), "{kernel} small={small}");
        }
    }
    for case in grid::former_panics() {
        let err = case.key().validate().expect_err("rejected");
        if case.n != 0 {
            assert!(err.contains("bytes per PE"), "{case:?}: {err}");
        }
    }
}

#[test]
fn rejected_inputs_exit_1_with_one_pasm_run_line() {
    let rejected: Vec<grid::Case> = grid::cases()
        .into_iter()
        .filter(|c| !c.small && c.key().validate().is_err())
        .collect();
    for case in grid::former_panics().iter().filter(|c| !c.small) {
        assert!(
            rejected.iter().any(|r| r.key() == case.key()),
            "{case:?} is rejected and tried"
        );
    }
    for case in &rejected {
        let out = Command::new(env!("CARGO_BIN_EXE_pasm-run"))
            .args(case.cli_args())
            .output()
            .expect("pasm-run starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{case:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{case:?}");
        assert_eq!(stderr.lines().count(), 1, "{case:?}: {stderr}");
        assert!(stderr.starts_with("pasm-run: "), "{case:?}: {stderr}");
    }
}

/// `pasm-run`'s file-mode summary line, cycle for cycle: instruction count,
/// run length, MUL/DIV cycles (memory waits included) and memory-wait
/// cycles of the two example programs.
#[test]
fn file_mode_summary_lines_are_pinned() {
    let cases = [
        (
            "sum.s",
            "304 instructions in 2822 cycles (0.353 ms at 8 MHz); 0 cycles in MULU/MULS/DIVU/DIVS (memory waits included), 994 memory-wait cycles",
        ),
        (
            "mulu_timing.s",
            "4006 instructions in 143128 cycles (17.891 ms at 8 MHz); 113893 cycles in MULU/MULS/DIVU/DIVS (memory waits included), 15080 memory-wait cycles",
        ),
    ];
    for (file, summary) in cases {
        let path = format!(
            "{}/../../examples/programs/{file}",
            env!("CARGO_MANIFEST_DIR")
        );
        let out = Command::new(env!("CARGO_BIN_EXE_pasm-run"))
            .args([path.as_str(), "--stats"])
            .output()
            .expect("pasm-run starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{file}: {stdout}");
        assert!(
            stdout.lines().any(|l| l == summary),
            "{file}: no line `{summary}` in\n{stdout}"
        );
    }
}

/// A file-mode program that runs past its last instruction is a run error,
/// not a panic: exit 1 with one `pasm-run:` line naming the PE, pc and
/// cycle.
#[test]
fn a_program_without_halt_exits_1_with_one_pasm_run_line() {
    let path = std::env::temp_dir().join(format!("pasm-run-no-halt-{}.s", std::process::id()));
    std::fs::write(&path, "MOVEQ #1,D0\n").expect("temp file written");
    let out = Command::new(env!("CARGO_BIN_EXE_pasm-run"))
        .arg(&path)
        .output()
        .expect("pasm-run starts");
    std::fs::remove_file(&path).expect("temp file removed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(
        stderr,
        "pasm-run: fault: PE 0 ran off the end of its program: pc 1 at cycle 16\n"
    );
}
