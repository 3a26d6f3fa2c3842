//! `pasm-run` — assemble a program file and run it on one simulated PE, or
//! run a matmul experiment (optionally on a faulted machine).
//!
//! A scratch-pad for the MC68000-style assembly dialect and the prototype's
//! timing model:
//!
//! ```sh
//! cargo run -p pasm --bin pasm-run -- program.s [--listing] [--stats] [--max-cycles N] [--trace out.jsonl]
//! cargo run -p pasm --bin pasm-run -- --mode smimd --n 16 --p 8 [--kernel NAME] [--seed S] [--fault box:1:0]
//! ```
//!
//! In file mode, the program runs in MIMD mode on PE 0 of a small machine
//! (so DRAM wait states and refresh apply, as they would on the prototype).
//! On `HALT` the tool prints the register file, the condition codes, and the
//! cycle count; `--stats` adds the static timing analysis of
//! `pasm_isa::analysis`; `--trace` writes the program's `MARK`-delimited
//! phase spans as JSONL trace events (see `docs/OBSERVABILITY.md`).
//!
//! In `--mode` mode, the tool runs one registered workload (`--kernel`,
//! default `matmul` — see `docs/KERNELS.md`) on the 16-PE prototype,
//! verifies the output against the kernel's scalar host reference, and —
//! with `--fault` — also runs the fault-free baseline and reports the
//! measured slowdown. The tool only parses its flags: the run it names is
//! checked by `ExperimentKey::validate`, the same check `pasm-serve` applies
//! to a submission, so every user error (unknown mode or kernel, a `--p` or
//! `--n` the kernel or the machine cannot take, a bad fault spec) exits 1
//! with one `pasm-run:` line, never a panic.

use pasm_isa::analysis;
use pasm_machine::{Bucket, FaultPlan, Machine, MachineConfig};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: pasm-run <file.s> [--listing] [--stats] [--max-cycles N] [--trace out.jsonl]\n\
                pasm-run --mode <serial|simd|mimd|smimd> --n N [--p P] [--kernel NAME] [--seed S] [--fault SPEC]"
    );
    ExitCode::from(2)
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("pasm-run: {msg}");
    ExitCode::FAILURE
}

/// The `--mode` path: one keyed kernel run on the prototype configuration,
/// with every invalid input reported as a one-line error.
#[allow(clippy::too_many_arguments)]
fn run_experiment(
    mode_str: &str,
    kernel_name: &str,
    n: Option<usize>,
    p: usize,
    seed: u64,
    fault_spec: Option<&str>,
    max_cycles: u64,
) -> ExitCode {
    let Some(mode) = pasm::Mode::parse(mode_str) else {
        return fail(&format!(
            "unknown --mode `{mode_str}` (expected serial, simd, mimd, or smimd)"
        ));
    };
    let Some(kernel) = pasm::kernels::find(kernel_name) else {
        return fail(&format!(
            "unknown --kernel `{kernel_name}` (registered: {})",
            pasm::kernels::names().join(", ")
        ));
    };
    let Some(n) = n else {
        return fail("--mode requires --n (problem size)");
    };
    let fault = match fault_spec {
        None => FaultPlan::default(),
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(f) => f,
            Err(e) => return fail(&format!("bad --fault `{spec}`: {e}")),
        },
    };
    let mut config = MachineConfig::prototype();
    config.max_cycles = max_cycles;
    let key = pasm::ExperimentKey {
        config,
        mode,
        params: pasm::Params::new(n, if mode == pasm::Mode::Serial { 1 } else { p }),
        seed,
        fault,
        workload: kernel.name(),
    };
    if let Err(e) = key.validate() {
        return fail(&e);
    }
    let result = match pasm::run_keyed(&key) {
        Ok(r) => r,
        Err(e) => return fail(&e.to_string()),
    };
    let input = kernel.generate(n, seed);
    let expect = kernel.reference(key.params, &input);
    let correct = pasm::kernels::checksum(&expect) == result.c_checksum;
    println!(
        "{} {} n={} p={} seed={}: {} cycles ({:.3} ms), output {}",
        kernel.name(),
        mode,
        n,
        key.params.p,
        seed,
        result.cycles,
        result.millis,
        if correct { "correct" } else { "WRONG" },
    );
    if !result.fault.is_empty() {
        let detour = result.pe_buckets[pasm_machine::Bucket::FaultDetour as usize];
        println!(
            "fault {}: baseline {} cycles, slowdown {:.4}, fault_detour {} cycles",
            result.fault, result.baseline_cycles, result.slowdown, detour,
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let mut file = None;
    let mut listing = false;
    let mut stats = false;
    let mut trace = None;
    let mut max_cycles = 100_000_000u64;
    let mut mode = None;
    let mut kernel = "matmul".to_string();
    let mut n = None;
    let mut p = 4usize;
    let mut seed = pasm::figures::DEFAULT_SEED;
    let mut fault = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--listing" => listing = true,
            "--stats" => stats = true,
            "--trace" => match args.next() {
                Some(p) => trace = Some(p),
                None => return usage(),
            },
            "--max-cycles" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_cycles = v,
                None => return usage(),
            },
            "--mode" => match args.next() {
                Some(m) => mode = Some(m),
                None => return usage(),
            },
            "--kernel" => match args.next() {
                Some(k) => kernel = k,
                None => return usage(),
            },
            "--n" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => n = Some(v),
                None => return usage(),
            },
            "--p" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => p = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--fault" => match args.next() {
                Some(f) => fault = Some(f),
                None => return usage(),
            },
            _ if file.is_none() && !a.starts_with('-') => file = Some(a),
            _ => return usage(),
        }
    }
    if let Some(mode) = mode {
        return run_experiment(&mode, &kernel, n, p, seed, fault.as_deref(), max_cycles);
    }
    let Some(file) = file else { return usage() };

    let src = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pasm-run: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let program = match pasm_isa::asm::assemble(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("pasm-run: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if listing {
        print!("{}", program.listing());
        println!();
    }
    if stats {
        let s = analysis::program_stats(&program);
        println!(
            "static: {} instructions ({} words), {} data-dependent-time, {} mul/div, {} control",
            s.main_instrs, s.main_words, s.variable_time_instrs, s.mul_div_instrs, s.control_instrs
        );
        let straight: Vec<pasm_isa::Instr> = program
            .instrs
            .iter()
            .copied()
            .filter(|i| !i.is_control_flow())
            .collect();
        let b = analysis::block_bounds(&straight);
        println!(
            "static: straight-line core-cycle bounds {}..{}\n",
            b.min, b.max
        );
    }

    let cfg = MachineConfig {
        max_cycles,
        ..MachineConfig::small()
    };
    let mut machine = Machine::new(cfg);
    machine.load_pe_program(0, program);
    machine.start_pe(0, 0);
    match machine.run() {
        Ok(run) => {
            let cpu = machine.pe_cpu(0);
            for i in 0..8 {
                println!(
                    "D{i} = {:#010X}  {:>10}    A{i} = {:#010X}",
                    cpu.d[i], cpu.d[i] as i32, cpu.a[i]
                );
            }
            println!("CCR: {}", cpu.ccr);
            let t = &run.pe[0];
            let account = &run
                .accounts
                .as_ref()
                .expect("accounting is on by default")
                .pe[0];
            let (_, mul_div_cycles) = account.mul_div();
            println!(
                "\n{} instructions in {} cycles ({:.3} ms at 8 MHz); {} cycles in MULU/MULS/DIVU/DIVS (memory waits included), {} memory-wait cycles",
                t.instrs,
                t.finished_at,
                pasm_isa::cycles_to_ms(t.finished_at),
                mul_div_cycles,
                account.bucket(Bucket::Fetch) + account.bucket(Bucket::MemoryWait),
            );
            if let Some(path) = trace {
                let log = pasm::run_span_log(&run);
                if let Err(e) = std::fs::write(&path, log.to_jsonl()) {
                    eprintln!("pasm-run: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("trace: {} span(s) written to {path}", log.len());
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pasm-run: {e}");
            ExitCode::FAILURE
        }
    }
}
