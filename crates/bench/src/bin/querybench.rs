//! `querybench` — query-tier latency and recovery benchmark of the
//! `pasm-store` span store behind `pasm-server` (ISSUE 10).
//!
//! Populates a durable server with a small mode × p sweep of cold jobs, then
//! measures the three query endpoints (`/results`, `/spans/<fp>`,
//! `/sweep/phases`) **warm** (same process that ingested the records), and
//! again **cold** after a restart — the first pass over a freshly replayed
//! index, where `/spans/<fp>` reads record bytes back off disk. The restart
//! also records the span-store recovery numbers (`spans_replayed`,
//! `recovery_ms`).
//!
//! Gates (exit nonzero) on the query-tier contract: after the restart every
//! fingerprint's `/spans/<fp>` payload must be **byte-identical** to the
//! pre-restart one, and serving the whole query load must leave the
//! simulator untouched (`sim_runs` stays 0 in the restarted process).
//!
//! `--quick` shrinks the sweep for the CI smoke run. Results land in
//! `BENCH_querybench.json`.

use bench::http::{await_done, await_ready, get_json, request};
use pasm_server::{FsyncPolicy, Server, ServerConfig};
use pasm_util::{json, Json};
use std::net::SocketAddr;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

fn start(dir: &Path) -> Server {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_depth: 256,
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Never,
        ..ServerConfig::default()
    })
    .expect("server starts");
    await_ready(server.addr());
    server
}

fn stat_u64(addr: SocketAddr, path: &[&str]) -> u64 {
    let mut v = get_json(addr, "/stats");
    for key in path {
        v = v.get(key).cloned().unwrap_or(Json::Null);
    }
    v.as_u64()
        .unwrap_or_else(|| panic!("{} in /stats", path.join(".")))
}

/// Mean request latency in microseconds over one GET per path.
fn mean_latency_us(addr: SocketAddr, paths: &[String]) -> f64 {
    let t0 = Instant::now();
    for path in paths {
        let (code, payload) = request(addr, "GET", path, "");
        assert_eq!(code, 200, "GET {path}: {payload}");
    }
    t0.elapsed().as_micros() as f64 / paths.len().max(1) as f64
}

struct Pass {
    results_us: f64,
    spans_us: f64,
    sweep_us: f64,
}

/// One full measurement pass over the three endpoints.
fn measure(addr: SocketAddr, fps: &[String]) -> Pass {
    let span_paths: Vec<String> = fps.iter().map(|fp| format!("/spans/{fp}")).collect();
    Pass {
        results_us: mean_latency_us(
            addr,
            &[
                "/results?workload=matmul".to_string(),
                "/results?workload=matmul&mode=simd".to_string(),
                "/results?workload=matmul&mode=mimd&limit=4".to_string(),
            ],
        ),
        spans_us: mean_latency_us(addr, &span_paths),
        sweep_us: mean_latency_us(addr, &["/sweep/phases?workload=matmul".to_string()]),
    }
}

fn main() -> ExitCode {
    let quick = bench::quick_mode();
    // A mode × p sweep with a couple of seeds: enough distinct runs for the
    // sweep endpoint to have real groups to aggregate.
    let seeds: u64 = if quick { 1 } else { 4 };
    let sweep: Vec<(&str, u64)> = vec![("simd", 2), ("simd", 4), ("mimd", 2), ("mimd", 4)];
    let dir = std::env::temp_dir().join(format!("pasm-querybench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: populate a durable server and measure the warm query tier.
    let mut server = start(&dir);
    let addr = server.addr();
    let mut fps: Vec<String> = Vec::new();
    for seed in 0..seeds {
        for (mode, p) in &sweep {
            let body = format!(
                r#"{{"mode":"{mode}","n":8,"p":{p},"seed":{}}}"#,
                70_000 + seed
            );
            let (code, payload) = request(addr, "POST", "/submit", &body);
            assert_eq!(code, 202, "cold submit: {payload}");
            let resp = json::parse(&payload).expect("submit response");
            let id = resp.get("job_id").and_then(Json::as_u64).expect("job_id");
            fps.push(
                resp.get("key")
                    .and_then(Json::as_str)
                    .expect("key")
                    .to_string(),
            );
            await_done(addr, id);
        }
    }
    let jobs = fps.len() as u64;
    // Byte baseline for the restart gate, then the timed warm pass.
    let baseline: Vec<(String, String)> = fps
        .iter()
        .map(|fp| {
            let (code, payload) = request(addr, "GET", &format!("/spans/{fp}"), "");
            assert_eq!(code, 200, "warm /spans/{fp}: {payload}");
            (fp.clone(), payload)
        })
        .collect();
    let warm = measure(addr, &fps);
    server.shutdown();

    // Phase 2: restart — recovery numbers, then the cold pass (fresh index,
    // first disk reads) and the gates.
    let mut server = start(&dir);
    let addr = server.addr();
    let recovery_ms = stat_u64(addr, &["durability", "recovery_ms"]);
    let spans_replayed = stat_u64(addr, &["durability", "spans_replayed"]);
    let cold = measure(addr, &fps);

    let mut violations = 0u64;
    if spans_replayed != jobs {
        eprintln!("VIOLATION: replayed {spans_replayed} of {jobs} span records");
        violations += 1;
    }
    for (fp, expect) in &baseline {
        let (code, payload) = request(addr, "GET", &format!("/spans/{fp}"), "");
        if code != 200 || &payload != expect {
            eprintln!("VIOLATION: /spans/{fp} differs after restart (code {code})");
            violations += 1;
        }
    }
    let sim_runs = stat_u64(addr, &["sim_runs"]);
    if sim_runs != 0 {
        eprintln!("VIOLATION: {sim_runs} simulator invocations while serving queries");
        violations += 1;
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    println!("querybench: {jobs} runs ingested (quick={quick})");
    println!("  {:>14} {:>12} {:>12}", "endpoint", "warm µs", "cold µs");
    for (name, w, c) in [
        ("/results", warm.results_us, cold.results_us),
        ("/spans/<fp>", warm.spans_us, cold.spans_us),
        ("/sweep/phases", warm.sweep_us, cold.sweep_us),
    ] {
        println!("  {name:>14} {w:>12.1} {c:>12.1}");
    }
    println!("  recovery {recovery_ms} ms, {spans_replayed} span records replayed");

    bench::save_bench_json(
        "querybench",
        jobs as usize,
        Json::obj(vec![
            ("jobs", Json::Int(jobs as i64)),
            ("workers", Json::Int(4)),
            ("n", Json::Int(8)),
        ]),
        Json::obj(vec![
            (
                "warm_us",
                Json::obj(vec![
                    ("results", Json::Float(warm.results_us)),
                    ("spans", Json::Float(warm.spans_us)),
                    ("sweep", Json::Float(warm.sweep_us)),
                ]),
            ),
            (
                "cold_us",
                Json::obj(vec![
                    ("results", Json::Float(cold.results_us)),
                    ("spans", Json::Float(cold.spans_us)),
                    ("sweep", Json::Float(cold.sweep_us)),
                ]),
            ),
            ("recovery_ms", Json::Int(recovery_ms as i64)),
            ("spans_replayed", Json::Int(spans_replayed as i64)),
            ("violations", Json::Int(violations as i64)),
        ]),
    );

    if violations == 0 {
        println!(
            "query-tier gate holds: byte-identical span payloads across restart, \
             zero re-simulations"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("querybench: {violations} violation(s)");
        ExitCode::FAILURE
    }
}
