//! `durabench` — durability cost and recovery benchmark of the `pasm-server`
//! persistence tier (ISSUE 9).
//!
//! For each fsync policy (`always`, `interval:100`, `never`) the bench
//! starts a server over a fresh data dir, submits a batch of distinct cold
//! jobs over HTTP, and measures end-to-end cold-submit throughput plus the
//! fsync counts actually issued — the durability/throughput trade the
//! `--fsync` flag exposes. It then **restarts** the server over the same
//! data dir and records the recovery wall time and replayed-result count,
//! and gates (exit nonzero) on the durability contract: the restarted
//! server must answer a cached submit for every persisted key **without
//! re-simulating** — byte-identical result, zero cold completions.
//!
//! `--quick` shrinks the batch for the CI smoke run. Results land in
//! `BENCH_durabench.json`.

use bench::http::{await_done, await_ready, get_json, request};
use pasm_server::{FsyncPolicy, Server, ServerConfig};
use pasm_util::{json, Json};
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn start(dir: &Path, policy: FsyncPolicy) -> Server {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 256,
        data_dir: Some(dir.to_path_buf()),
        fsync: policy,
        ..ServerConfig::default()
    })
    .expect("server starts");
    await_ready(server.addr());
    server
}

fn durability_stat(addr: SocketAddr, key: &str) -> u64 {
    get_json(addr, "/stats")
        .get("durability")
        .and_then(|d| d.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("durability.{key} in /stats"))
}

/// One fsync policy measured end to end: populate, then restart + verify.
struct PolicyRun {
    label: &'static str,
    jobs: u64,
    submit_wall_ms: u64,
    jobs_per_sec: f64,
    store_fsyncs: u64,
    journal_fsyncs: u64,
    recovery_ms: u64,
    results_replayed: u64,
    violations: u64,
}

fn run_policy(label: &'static str, policy: FsyncPolicy, jobs: u64) -> PolicyRun {
    let dir = std::env::temp_dir().join(format!("pasm-durabench-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let body_of = |i: u64| format!(r#"{{"mode":"simd","n":8,"p":4,"seed":{}}}"#, 50_000 + i);

    // Phase 1: cold-submit throughput under this fsync policy.
    let mut server = start(&dir, policy);
    let addr = server.addr();
    let t0 = Instant::now();
    let ids: Vec<u64> = (0..jobs)
        .map(|i| {
            let (code, payload) = request(addr, "POST", "/submit", &body_of(i));
            assert_eq!(code, 202, "cold submit: {payload}");
            json::parse(&payload)
                .ok()
                .and_then(|j| j.get("job_id").and_then(Json::as_u64))
                .expect("job_id")
        })
        .collect();
    let mut results = Vec::with_capacity(ids.len());
    for (i, id) in ids.iter().enumerate() {
        await_done(addr, *id);
        let body = get_json(addr, &format!("/result/{id}"));
        results.push((
            body_of(i as u64),
            body.get("result").expect("result").dump(),
        ));
    }
    let submit_wall_ms = t0.elapsed().as_millis() as u64;
    let store_fsyncs = durability_stat(addr, "store_fsyncs");
    let journal_fsyncs = durability_stat(addr, "journal_fsyncs");
    server.shutdown();

    // Phase 2: restart over the populated dir — the durability gate. Every
    // persisted key must answer cached and byte-identical at submit time,
    // with zero cold completions (nothing re-simulated).
    let mut server = start(&dir, policy);
    let addr = server.addr();
    let recovery_ms = durability_stat(addr, "recovery_ms");
    let results_replayed = durability_stat(addr, "results_replayed");
    let mut violations = 0u64;
    if results_replayed != jobs {
        eprintln!("VIOLATION [{label}]: replayed {results_replayed} of {jobs} results");
        violations += 1;
    }
    for (body, expect) in &results {
        let (code, payload) = request(addr, "POST", "/submit", body);
        let resp = json::parse(&payload).expect("submit response");
        let cached = resp.get("cached").and_then(Json::as_bool) == Some(true);
        let identical = resp.get("result").map(Json::dump).as_deref() == Some(expect);
        if code != 200 || !cached || !identical {
            eprintln!(
                "VIOLATION [{label}]: restart lost {body} \
                 (code {code}, cached {cached}, identical {identical})"
            );
            violations += 1;
        }
    }
    let cold_after_restart = get_json(addr, "/stats")
        .get("latency")
        .and_then(|l| l.get("cold"))
        .and_then(|c| c.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(u64::MAX);
    if cold_after_restart != 0 {
        eprintln!("VIOLATION [{label}]: {cold_after_restart} jobs re-simulated after restart");
        violations += 1;
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    PolicyRun {
        label,
        jobs,
        submit_wall_ms,
        jobs_per_sec: jobs as f64 / (submit_wall_ms.max(1) as f64 / 1000.0),
        store_fsyncs,
        journal_fsyncs,
        recovery_ms,
        results_replayed,
        violations,
    }
}

fn main() -> ExitCode {
    let quick = bench::quick_mode();
    let jobs: u64 = if quick { 8 } else { 48 };
    let policies: [(&'static str, FsyncPolicy); 3] = [
        ("always", FsyncPolicy::Always),
        (
            "interval:100",
            FsyncPolicy::Interval(Duration::from_millis(100)),
        ),
        ("never", FsyncPolicy::Never),
    ];

    println!("durabench: {jobs} cold jobs per fsync policy (quick={quick})");
    let runs: Vec<PolicyRun> = policies
        .into_iter()
        .map(|(label, policy)| run_policy(label, policy, jobs))
        .collect();

    println!(
        "  {:>14} {:>8} {:>10} {:>12} {:>14} {:>12} {:>10}",
        "fsync", "jobs", "wall ms", "jobs/s", "store fsyncs", "recovery ms", "replayed"
    );
    let mut violations = 0;
    for r in &runs {
        violations += r.violations;
        println!(
            "  {:>14} {:>8} {:>10} {:>12.1} {:>14} {:>12} {:>10}",
            r.label,
            r.jobs,
            r.submit_wall_ms,
            r.jobs_per_sec,
            r.store_fsyncs,
            r.recovery_ms,
            r.results_replayed
        );
    }

    bench::save_bench_json(
        "durabench",
        jobs as usize,
        Json::obj(vec![
            ("jobs_per_policy", Json::Int(jobs as i64)),
            ("workers", Json::Int(4)),
            ("n", Json::Int(8)),
            ("p", Json::Int(4)),
        ]),
        Json::obj(vec![
            (
                "policies",
                Json::Arr(
                    runs.iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("fsync", Json::Str(r.label.to_string())),
                                ("jobs", Json::Int(r.jobs as i64)),
                                ("submit_wall_ms", Json::Int(r.submit_wall_ms as i64)),
                                ("jobs_per_sec", Json::Float(r.jobs_per_sec)),
                                ("store_fsyncs", Json::Int(r.store_fsyncs as i64)),
                                ("journal_fsyncs", Json::Int(r.journal_fsyncs as i64)),
                                ("recovery_ms", Json::Int(r.recovery_ms as i64)),
                                ("results_replayed", Json::Int(r.results_replayed as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("violations", Json::Int(violations as i64)),
        ]),
    );

    if violations == 0 {
        println!(
            "durability gate holds: every restart served every persisted result from the \
             replayed cache, byte-identical, with zero re-simulations"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("durabench: {violations} violation(s)");
        ExitCode::FAILURE
    }
}
