//! Command line of the repository benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path pasmbench/Cargo.toml -- \
//!     --workload sim-lockstep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. A human-readable summary
//! (and, for traced runs, the self-time table) goes to standard error; the
//! full result document with its provenance is written under `--out`
//! (default `.bench_data`). `--write-pins` recomputes `pasmbench/pins.tsv`.

use pasmbench::{gate, measure, Args, Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pasmbench --workload <sim-lockstep|sim-autonomous|serve-mixed> \
    --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       \
    pasmbench --write-pins";

fn parse_args() -> Result<Option<Args>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out_dir = PathBuf::from(".bench_data");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-pins" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(bad("expected 0..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::Full,
        out_dir,
    }))
}

fn write_pins() -> Result<(), String> {
    let pins = gate::Pins::compute()?;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/pins.tsv");
    std::fs::write(path, pins.render()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!("pasmbench: wrote {path}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match write_pins() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("pasmbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("pasmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match pasmbench::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pasmbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let doc = measure::document(&args, &report);
    let path = args.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, doc.pretty()) {
        eprintln!("pasmbench: writing {}: {e}", path.display());
    }
    eprintln!("{}", doc.pretty());
    println!("{}", measure::result_line(&report));
    ExitCode::SUCCESS
}
