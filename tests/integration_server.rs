//! End-to-end test of the `pasm-server` simulation service over localhost:
//! a real TCP client submits jobs, polls them to completion, exercises the
//! cache and the bounded queue, and drains the server (ISSUE 2 acceptance).

mod common;
#[path = "common/grid.rs"]
mod grid;

use common::{await_terminal, get, job_id, request, request_raw, status_str, submit};
use pasm_server::{JobSpec, Server, ServerConfig};
use pasm_util::{json, Json};
use std::net::TcpStream;

fn start(workers: usize, queue_depth: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

#[test]
fn batch_of_jobs_completes_across_workers() {
    let mut server = start(4, 256);
    let addr = server.addr();

    // 100+ distinct matmul jobs across all four modes.
    let mut ids = Vec::new();
    let mut expected_done = 0u64;
    for round in 0..26 {
        for mode in ["serial", "simd", "mimd", "smimd"] {
            let n = 4 + 4 * (round % 4); // 4, 8, 12, 16 — p=4 divides all
            let extra = round / 4;
            let body =
                format!(r#"{{"mode":"{mode}","n":{n},"p":4,"extra_muls":{extra},"seed":77}}"#);
            let (code, resp) = submit(addr, &body);
            assert!(
                code == 202 || code == 200,
                "submit accepted: {code} {resp:?}"
            );
            ids.push(job_id(&resp));
            expected_done += 1;
        }
    }
    assert!(ids.len() >= 100, "submitted {} jobs", ids.len());

    for &id in &ids {
        let st = await_terminal(addr, id);
        assert_eq!(status_str(&st), "done", "job {id}: {st:?}");
        let (code, result) = get(addr, &format!("/result/{id}"));
        assert_eq!(code, 200, "result of done job: {result:?}");
        let res = result.get("result").expect("result payload");
        assert!(res.get("cycles").and_then(Json::as_u64).unwrap() > 0);
        let checksum = res
            .get("c_checksum")
            .and_then(Json::as_str)
            .expect("hex checksum");
        assert_eq!(checksum.len(), 16, "fixed-width hex: {checksum:?}");
    }

    let (code, stats) = get(addr, "/stats");
    assert_eq!(code, 200);
    assert_eq!(
        stats.get("completed").and_then(Json::as_u64).unwrap(),
        expected_done
    );
    assert_eq!(stats.get("failed").and_then(Json::as_u64).unwrap(), 0);
    let recent = stats
        .get("recent")
        .and_then(Json::as_arr)
        .expect("recent JSONL lines");
    assert!(!recent.is_empty(), "stats carries per-job JSONL lines");
    // Each recent entry is itself a valid JSON object with the accounting fields.
    let line = json::parse(recent[0].as_str().unwrap()).expect("recent line is JSON");
    for field in ["job_id", "mode", "n", "p", "cycles", "wall_ms", "cache"] {
        assert!(
            line.get(field).is_some(),
            "JSONL line has `{field}`: {line:?}"
        );
    }

    let (code, health) = get(addr, "/healthz");
    assert_eq!(code, 200);
    assert_eq!(health.get("workers").and_then(Json::as_u64).unwrap(), 4);

    server.shutdown();
}

#[test]
fn duplicate_submission_is_served_from_cache() {
    let mut server = start(2, 64);
    let addr = server.addr();
    let body = r#"{"mode":"smimd","n":16,"p":4,"seed":4242}"#;

    let (code, first) = submit(addr, body);
    assert_eq!(code, 202, "first submission simulates: {first:?}");
    let first_id = job_id(&first);
    let st = await_terminal(addr, first_id);
    assert_eq!(status_str(&st), "done");
    assert_eq!(st.get("cached").and_then(Json::as_bool), Some(false));

    let (_, stats) = get(addr, "/stats");
    let hits_before = stats
        .get("cache")
        .unwrap()
        .get("hits")
        .and_then(Json::as_u64)
        .unwrap();

    // Identical key → served synchronously from the cache, no queueing.
    let (code, second) = submit(addr, body);
    assert_eq!(code, 200, "cache hit completes at submit time: {second:?}");
    assert_eq!(status_str(&second), "done");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_ne!(job_id(&second), first_id, "a fresh job id even on a hit");
    assert_eq!(
        second.get("key").and_then(Json::as_str),
        first.get("key").and_then(Json::as_str),
        "same content fingerprint"
    );

    let (_, stats) = get(addr, "/stats");
    let hits_after = stats
        .get("cache")
        .unwrap()
        .get("hits")
        .and_then(Json::as_u64)
        .unwrap();
    assert_eq!(hits_after, hits_before + 1, "hit counter incremented");

    // Both results are byte-identical (deterministic simulator).
    let (_, r1) = get(addr, &format!("/result/{first_id}"));
    let (_, r2) = get(addr, &format!("/result/{}", job_id(&second)));
    assert_eq!(
        r1.get("result").unwrap().dump(),
        r2.get("result").unwrap().dump()
    );

    server.shutdown();
}

#[test]
fn full_queue_rejects_with_queue_full() {
    // One worker, tiny queue, big jobs: the queue must saturate.
    let mut server = start(1, 2);
    let addr = server.addr();

    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for seed in 0..32 {
        // Distinct seeds defeat the cache; n=48 keeps each job slow enough
        // for the queue to fill faster than one worker drains it.
        let body = format!(r#"{{"mode":"mimd","n":48,"p":4,"seed":{seed}}}"#);
        let (code, resp) = submit(addr, &body);
        match code {
            202 => accepted.push(job_id(&resp)),
            429 => {
                assert_eq!(resp.get("error").and_then(Json::as_str), Some("queue_full"));
                assert_eq!(resp.get("queue_depth").and_then(Json::as_u64), Some(2));
                rejected += 1;
            }
            other => panic!("unexpected status {other}: {resp:?}"),
        }
    }
    assert!(rejected > 0, "saturated queue pushed back");
    assert!(!accepted.is_empty());

    // Every accepted job still completes.
    for &id in &accepted {
        assert_eq!(status_str(&await_terminal(addr, id)), "done");
    }
    let (_, stats) = get(addr, "/stats");
    assert_eq!(
        stats
            .get("rejected_queue_full")
            .and_then(Json::as_u64)
            .unwrap(),
        rejected
    );

    server.shutdown();
}

#[test]
fn shutdown_drains_admitted_jobs() {
    let mut server = start(2, 64);
    let addr = server.addr();

    let mut accepted = 0u64;
    for seed in 100..116 {
        let body = format!(r#"{{"mode":"simd","n":32,"p":4,"seed":{seed}}}"#);
        let (code, _) = submit(addr, &body);
        assert_eq!(code, 202);
        accepted += 1;
    }

    // Drain immediately: shutdown must not return until every admitted job
    // has been simulated by the pool.
    server.shutdown();
    assert!(server.all_jobs_terminal(), "no job left queued or running");
    let stats = server.snapshot();
    assert_eq!(
        stats.get("completed").and_then(Json::as_u64).unwrap(),
        accepted,
        "all admitted jobs completed during drain: {stats:?}"
    );
    // The listener is gone: new connections are refused.
    assert!(TcpStream::connect(addr).is_err(), "accept loop exited");
}

#[test]
fn metrics_serve_valid_exposition_text_under_load() {
    let mut server = start(2, 64);
    let addr = server.addr();

    // Load: distinct jobs plus a repeated one so both the cold and the hit
    // latency histograms have observations; probe /metrics while jobs are
    // still in flight to check it serves concurrently with simulation.
    let mut ids = Vec::new();
    for seed in 0..8 {
        let body = format!(r#"{{"mode":"simd","n":16,"p":4,"seed":{seed}}}"#);
        let (code, resp) = submit(addr, &body);
        assert!(code == 202 || code == 200);
        ids.push(job_id(&resp));
        let (code, _, _) = request_raw(addr, "GET", "/metrics", None);
        assert_eq!(code, 200, "/metrics during load");
    }
    for &id in &ids {
        assert_eq!(status_str(&await_terminal(addr, id)), "done");
    }
    let (code, repeat) = submit(addr, r#"{"mode":"simd","n":16,"p":4,"seed":0}"#);
    assert_eq!(code, 200, "repeat is a cache hit: {repeat:?}");

    let (code, head, text) = request_raw(addr, "GET", "/metrics", None);
    assert_eq!(code, 200);
    assert!(
        head.to_ascii_lowercase()
            .contains("content-type: text/plain; version=0.0.4"),
        "exposition content type: {head:?}"
    );

    // Every line is a HELP/TYPE comment or `name[{labels}] value` with a
    // numeric value — the Prometheus text exposition grammar.
    assert!(!text.is_empty() && text.ends_with('\n'));
    for line in text.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line: {line:?}"));
        assert!(!name.is_empty(), "empty metric name: {line:?}");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value: {line:?}"
        );
    }

    let sample = |name: &str| -> f64 {
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("metric {name} not exposed"))
            .parse()
            .expect("numeric sample")
    };
    assert_eq!(sample("pasm_jobs_completed_total"), 9.0);
    assert_eq!(sample("pasm_jobs_failed_total"), 0.0);
    assert!(sample("pasm_cache_hits_total") >= 1.0);
    assert!(sample("pasm_sim_cycles_total") > 0.0);
    assert_eq!(sample("pasm_workers"), 2.0);

    // Histograms split by cache outcome: 8 cold runs, at least one hit.
    assert_eq!(sample(r#"pasm_job_wall_ms_count{kind="cold"}"#), 8.0);
    assert!(sample(r#"pasm_job_wall_ms_count{kind="hit"}"#) >= 1.0);

    // The aggregated simulation buckets carry the SIMD signature: compute
    // and barrier_wait cycles both nonzero.
    assert!(sample(r#"pasm_sim_cycle_bucket_total{bucket="compute"}"#) > 0.0);
    assert!(sample(r#"pasm_sim_cycle_bucket_total{bucket="barrier_wait"}"#) > 0.0);

    // /stats mirrors the split accounting (satellite: cold vs hit latency).
    let (_, stats) = get(addr, "/stats");
    let latency = stats.get("latency").expect("latency block");
    let cold = latency.get("cold").unwrap();
    let hit = latency.get("hit").unwrap();
    assert_eq!(cold.get("count").and_then(Json::as_u64), Some(8));
    assert!(hit.get("count").and_then(Json::as_u64).unwrap() >= 1);
    // A recent JSONL line separates cold from hit wall time.
    let recent = stats.get("recent").and_then(Json::as_arr).unwrap();
    let line = json::parse(recent.last().unwrap().as_str().unwrap()).unwrap();
    assert!(
        line.get("cold_wall_ms").is_some() && line.get("hit_wall_ms").is_some(),
        "JSONL line carries the cold/hit split: {line:?}"
    );

    server.shutdown();
}

#[test]
fn cancel_expire_and_error_paths() {
    let mut server = start(1, 16);
    let addr = server.addr();

    // Occupy the single worker with a chain of slow jobs.
    for seed in 0..4 {
        let body = format!(r#"{{"mode":"mimd","n":48,"p":4,"seed":{seed}}}"#);
        submit(addr, &body);
    }

    // A queued job with an already-expired deadline is dropped unrun.
    let (code, doomed) = submit(
        addr,
        r#"{"mode":"simd","n":32,"p":4,"seed":900,"deadline_ms":0}"#,
    );
    assert_eq!(code, 202);
    let doomed_id = job_id(&doomed);

    // A queued job can be canceled while it waits.
    let (code, victim) = submit(addr, r#"{"mode":"simd","n":32,"p":4,"seed":901}"#);
    assert_eq!(code, 202);
    let victim_id = job_id(&victim);
    let (code, canceled) = request(addr, "POST", &format!("/cancel/{victim_id}"), None);
    assert_eq!(code, 200, "queued job cancels: {canceled:?}");
    assert_eq!(status_str(&canceled), "canceled");
    let (code, gone) = get(addr, &format!("/result/{victim_id}"));
    assert_eq!(code, 409, "canceled job has no result: {gone:?}");

    assert_eq!(status_str(&await_terminal(addr, doomed_id)), "expired");

    // Client errors: bad body, unknown mode, unknown job, bad method.
    let (code, resp) = submit(addr, "not json");
    assert_eq!(code, 400, "{resp:?}");
    let (code, resp) = submit(addr, r#"{"mode":"warp","n":8}"#);
    assert_eq!(code, 400, "{resp:?}");
    // Every kernel's parallel programs need at least two PEs: p=1 is
    // refused at the boundary instead of panicking on a worker.
    for kernel in pasm::kernels::names() {
        for mode in ["simd", "mimd", "smimd"] {
            let body = format!(r#"{{"mode":"{mode}","kernel":"{kernel}","n":16,"p":1}}"#);
            let (code, resp) = submit(addr, &body);
            assert_eq!(code, 400, "{body}: {resp:?}");
        }
    }
    let (code, resp) = get(addr, "/status/999999");
    assert_eq!(code, 404, "{resp:?}");
    let (code, resp) = request(addr, "POST", "/healthz", None);
    assert_eq!(code, 405, "{resp:?}");
    let (code, resp) = get(addr, "/nope");
    assert_eq!(code, 404, "{resp:?}");

    server.shutdown();
}

/// A submission whose `extra_muls` would make the program generator
/// allocate without bound is refused at the boundary with a 400 naming
/// the bound, and the server goes on serving.
#[test]
fn oversized_extra_muls_is_refused_and_the_server_keeps_serving() {
    let mut server = start(1, 4);
    let addr = server.addr();

    let (code, resp) = submit(
        addr,
        r#"{"mode":"simd","n":8,"p":4,"extra_muls":1099511627776}"#,
    );
    assert_eq!(code, 400, "{resp:?}");
    assert_eq!(
        resp.get("error").and_then(Json::as_str),
        Some("bad_request")
    );
    let bound = pasm::MAX_EXTRA_MULS.to_string();
    let message = resp.get("message").and_then(Json::as_str).unwrap_or("");
    assert!(
        message.contains(&bound),
        "message names the bound: {resp:?}"
    );

    let (code, resp) = submit(addr, r#"{"mode":"simd","n":8,"p":4,"extra_muls":2}"#);
    assert_eq!(code, 202, "{resp:?}");
    let st = await_terminal(addr, job_id(&resp));
    assert_eq!(status_str(&st), "done", "{st:?}");

    server.shutdown();
}

/// Every grid key `ExperimentKey::validate` rejects is a 400 `bad_request`
/// at `/submit`, so none reaches a worker to panic and be quarantined; every
/// key it accepts parses to the same key from its submit body.
#[test]
fn every_rejected_grid_key_is_a_bad_request() {
    let mut server = start(1, 4);
    let addr = server.addr();
    let mut rejected = 0;
    for case in grid::cases() {
        let key = case.key();
        if key.validate().is_ok() {
            let spec = JobSpec::from_json(&json::parse(&case.body()).unwrap());
            assert_eq!(spec.map(|s| s.key), Ok(key), "{case:?}");
            continue;
        }
        rejected += 1;
        let (code, resp) = submit(addr, &case.body());
        assert_eq!(code, 400, "{case:?}: {resp:?}");
        assert_eq!(
            resp.get("error").and_then(Json::as_str),
            Some("bad_request"),
            "{case:?}"
        );
    }
    assert!(rejected > 100, "only {rejected} keys rejected");
    for case in grid::former_panics() {
        let (code, resp) = submit(addr, &case.body());
        assert_eq!(code, 400, "{case:?}: {resp:?}");
    }
    let (_, stats) = get(addr, "/stats");
    assert_eq!(stats.get("quarantined").and_then(Json::as_u64), Some(0));
    server.shutdown();
}
