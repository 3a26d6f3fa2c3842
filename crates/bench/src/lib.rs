//! Shared plumbing for the benchmark binaries that regenerate the paper's
//! tables and figures. Each binary prints a plain-text table (see
//! `pasm::report`) and also drops the raw rows as JSON under
//! `bench-results/` for EXPERIMENTS.md bookkeeping.

use pasm_util::{Json, ToJson};
use std::fs;
use std::path::PathBuf;

pub mod http;

/// Directory the binaries write raw JSON results into.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench-results");
    fs::create_dir_all(&dir).expect("create bench-results dir");
    dir
}

/// Serialize rows to `bench-results/<name>.json`. The note names the file
/// relative to the repository root, so the captured output of a run does
/// not depend on where the checkout lives.
pub fn save_json<T: ToJson>(name: &str, rows: &T) {
    let file = format!("{name}.json");
    fs::write(results_dir().join(&file), rows.to_json().pretty()).expect("write results");
    eprintln!("(raw rows written to bench-results/{file})");
}

/// Schema of the top-level `BENCH_*.json` trajectory files. Bump when the
/// document shape (not the metric values) changes.
pub const BENCH_SCHEMA_VERSION: i64 = 2;

/// Serialize one benchmark document in the stable cross-PR schema
/// `{name, run{quick, repeats, git_revision}, config, metrics{…},
/// schema_version}`, so successive PRs can diff the perf trajectory
/// mechanically. `run` says what produced the numbers: `repeats` is how
/// many samples stand behind each measured figure, `git_revision` the
/// checked-out commit. `config` records what was run (sizes, machine
/// preset), `metrics` the measured numbers.
///
/// Only full runs write the recorded `BENCH_<name>.json` at the repository
/// root; `--quick` smoke runs (what `ci.sh` runs) write the same document
/// to `target/bench-quick/` so they never overwrite a recorded run.
pub fn save_bench_json(name: &str, repeats: usize, config: Json, metrics: Json) {
    let quick = quick_mode();
    let doc = Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        (
            "run",
            Json::obj(vec![
                ("quick", Json::Bool(quick)),
                ("repeats", Json::Int(repeats as i64)),
                ("git_revision", Json::Str(git_revision())),
            ]),
        ),
        ("config", config),
        ("metrics", metrics),
        ("schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
    ]);
    let mut dir = repo_root();
    if quick {
        dir = dir.join("target/bench-quick");
        fs::create_dir_all(&dir).expect("create target/bench-quick");
    }
    let path = dir.join(format!("BENCH_{name}.json"));
    fs::write(&path, doc.pretty()).expect("write BENCH json");
    eprintln!("(benchmark doc written to {})", path.display());
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The checked-out commit, suffixed `-dirty` when the working tree has
/// uncommitted changes (the numbers then come from code no commit holds);
/// `unknown` when git or the repository is not available.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo_root())
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median, minimum and maximum of repeated samples of one measurement.
/// Host wall times drift run to run, so benchmarks compare medians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    /// The spread of `samples`, which must not be empty. The median of an
    /// even count is the mean of the middle two.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "Spread::of needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let mid = s.len() / 2;
        let median = if s.len() % 2 == 1 {
            s[mid]
        } else {
            (s[mid - 1] + s[mid]) / 2.0
        };
        Spread {
            median,
            min: s[0],
            max: s[s.len() - 1],
        }
    }
}

/// `--quick` on the command line caps the problem-size sweep for smoke runs.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The paper's problem sizes, optionally capped for `--quick`.
pub fn sizes() -> Vec<usize> {
    let all = pasm::figures::PAPER_SIZES.to_vec();
    if quick_mode() {
        all.into_iter().filter(|&n| n <= 64).collect()
    } else {
        all
    }
}

#[cfg(test)]
mod tests {
    use super::Spread;

    #[test]
    fn spread_takes_the_median_of_odd_and_even_counts() {
        let odd = Spread::of(&[3.0, 1.0, 2.0]);
        assert_eq!((odd.median, odd.min, odd.max), (2.0, 1.0, 3.0));
        let even = Spread::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.median, even.min, even.max), (2.5, 1.0, 4.0));
        assert_eq!(Spread::of(&[7.0]).median, 7.0);
    }
}
