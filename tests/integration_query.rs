//! Query-tier tests of the cross-run span store behind `pasm-server`
//! (ISSUE 10): completed jobs are queryable — full phase breakdowns by
//! fingerprint, filtered/paginated listings, cross-run phase aggregation —
//! without ever re-entering the simulator, and the store recovers every
//! durably indexed fingerprint across seeded crashes.
//!
//! The acceptance gates:
//!
//! * `GET /spans/<fp>` is **byte-identical** to a direct traced run of the
//!   same key — the stored record is the run's timing payload, not a
//!   re-derivation;
//! * serving queries never simulates (`sim_runs` in `/stats` is the proof);
//! * after a seeded crash (`CrashFuse`) and restart, every span record that
//!   reached disk is indexed and served, and idempotent re-ingest keeps the
//!   listing duplicate-free.

mod common;

use common::{await_ready, get, request_raw, submit, tmpdir};
use pasm::{ExperimentKey, Mode};
use pasm_server::store::read_records;
use pasm_server::{CrashFuse, FsyncPolicy, Server, ServerConfig};
use pasm_store::{RunSummary, SpanRecord};
use pasm_util::{json, Json, ToJson};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- helpers

/// Submit, await `done`, return the job's content fingerprint (16 hex).
fn run_to_done(addr: SocketAddr, body: &str) -> String {
    let (code, resp) = submit(addr, body);
    assert!(code == 202 || code == 200, "{resp:?}");
    let id = resp.get("job_id").and_then(Json::as_u64).expect("job_id");
    let fp = resp
        .get("key")
        .and_then(Json::as_str)
        .expect("key")
        .to_string();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (code, status) = get(addr, &format!("/status/{id}"));
        assert_eq!(code, 200, "{status:?}");
        match status.get("status").and_then(Json::as_str).unwrap_or("") {
            "queued" | "running" => {
                assert!(Instant::now() < deadline, "job {id} did not finish");
                std::thread::sleep(Duration::from_millis(5));
            }
            "done" => return fp,
            other => panic!("job {id} ended {other}: {status:?}"),
        }
    }
}

fn stat_u64(addr: SocketAddr, path: &[&str]) -> u64 {
    let (code, mut v) = get(addr, "/stats");
    assert_eq!(code, 200);
    for key in path {
        v = v.get(key).cloned().unwrap_or(Json::Null);
    }
    v.as_u64()
        .unwrap_or_else(|| panic!("{} missing from /stats", path.join(".")))
}

fn start_memory() -> Server {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    })
    .expect("server starts");
    await_ready(server.addr());
    server
}

fn start_durable(dir: &Path, fuse: Option<Arc<CrashFuse>>) -> Server {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        test_fuse: fuse,
        ..ServerConfig::default()
    })
    .expect("server starts");
    await_ready(server.addr());
    server
}

/// Ground truth for one fault-free matmul job: the exact bytes
/// `GET /spans/<fp>` must serve, built from a direct [`pasm::run_keyed_traced`]
/// of the same key — the same packaging the server's ingest performs.
fn expected_span_dump(mode: Mode, n: usize, p: usize, seed: u64) -> (String, String) {
    let key = ExperimentKey {
        config: pasm_machine::MachineConfig::prototype(),
        mode,
        params: pasm::Params::new(n, p),
        seed,
        fault: Default::default(),
        workload: pasm::MATMUL,
    };
    let fingerprint = key.fingerprint();
    let trace = pasm::run_keyed_traced(&key, None).expect("traced run succeeds");
    let r = &trace.result;
    let mode_label = match r.mode.to_json() {
        Json::Str(s) => s,
        _ => unreachable!("mode serializes to a string"),
    };
    let record = SpanRecord {
        fingerprint,
        summary: RunSummary {
            workload: r.workload.to_string(),
            mode: mode_label,
            n: r.n as u64,
            p: r.p as u64,
            seed: r.seed,
            cycles: r.cycles,
            fault: r.fault.clone(),
        },
        bucket_names: pasm_machine::BUCKET_NAMES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        pe_buckets: trace.pe_buckets.iter().map(|row| row.to_vec()).collect(),
        mc_buckets: trace.mc_buckets.iter().map(|row| row.to_vec()).collect(),
        spans: trace.spans,
    };
    (format!("{fingerprint:016x}"), record.to_json().dump())
}

// ------------------------------------------------------------------ tests

/// The core query-tier contract: `/spans/<fp>` serves the run's full timing
/// payload byte-identical to a direct traced run of the same key, and the
/// whole query surface is served from the store — the `sim_runs` counter
/// does not move under query load.
#[test]
fn span_payload_is_byte_identical_to_a_direct_traced_run() {
    let (fp, expected) = expected_span_dump(Mode::Simd, 8, 4, 4242);
    let mut server = start_memory();
    let addr = server.addr();

    let served_fp = run_to_done(addr, r#"{"mode":"simd","n":8,"p":4,"seed":4242}"#);
    assert_eq!(
        served_fp, fp,
        "server and test agree on the key fingerprint"
    );
    assert_eq!(stat_u64(addr, &["sim_runs"]), 1, "one job, one simulation");

    let (code, _, payload) = request_raw(addr, "GET", &format!("/spans/{fp}"), None);
    assert_eq!(code, 200, "{payload}");
    assert_eq!(payload, expected, "span record drifted from the traced run");

    // Hammer every query endpoint, then resubmit the same job (cache hit):
    // none of it may reach the simulator.
    for _ in 0..3 {
        let (code, _, _) = request_raw(addr, "GET", &format!("/spans/{fp}"), None);
        assert_eq!(code, 200);
        let (code, _) = get(addr, "/results?workload=matmul&mode=simd&p=4");
        assert_eq!(code, 200);
        let (code, _) = get(addr, "/sweep/phases?workload=matmul");
        assert_eq!(code, 200);
    }
    let (code, resp) = submit(addr, r#"{"mode":"simd","n":8,"p":4,"seed":4242}"#);
    assert_eq!(code, 200, "cache answers at submit: {resp:?}");
    assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        stat_u64(addr, &["sim_runs"]),
        1,
        "queries and cache hits never re-simulate"
    );
    assert_eq!(stat_u64(addr, &["queries", "spans"]), 4);
    assert_eq!(stat_u64(addr, &["queries", "results"]), 3);
    assert_eq!(stat_u64(addr, &["queries", "sweeps"]), 3);
    server.shutdown();
}

/// `/results`: filtering on workload/mode/p (mode in any accepted
/// spelling), deterministic ordering, offset/limit pagination with a stable
/// pre-pagination total, and 400s on malformed parameters.
#[test]
fn results_listing_filters_and_paginates() {
    let mut server = start_memory();
    let addr = server.addr();
    for body in [
        r#"{"mode":"simd","n":8,"p":2,"seed":51}"#,
        r#"{"mode":"simd","n":8,"p":4,"seed":51}"#,
        r#"{"mode":"mimd","n":8,"p":4,"seed":51}"#,
        r#"{"mode":"mimd","n":8,"p":4,"seed":52}"#,
    ] {
        run_to_done(addr, body);
    }

    let total = |path: &str| {
        let (code, body) = get(addr, path);
        assert_eq!(code, 200, "{body:?}");
        body.get("total").and_then(Json::as_u64).unwrap()
    };
    assert_eq!(total("/results"), 4);
    assert_eq!(total("/results?workload=matmul"), 4);
    assert_eq!(total("/results?workload=nosuch"), 0);
    assert_eq!(total("/results?mode=simd"), 2);
    assert_eq!(total("/results?mode=MIMD"), 2, "mode spelling is forgiving");
    assert_eq!(total("/results?p=4"), 3);
    assert_eq!(total("/results?mode=mimd&p=4"), 2);

    // Pagination: second row only, total still reports the full match.
    let (code, page) = get(addr, "/results?mode=mimd&offset=1&limit=1");
    assert_eq!(code, 200);
    assert_eq!(page.get("total").and_then(Json::as_u64), Some(2));
    assert_eq!(page.get("count").and_then(Json::as_u64), Some(1));
    let rows = page.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 1);
    // Deterministic order: (workload, mode, p, n, seed) — the mimd pair
    // differs only in seed, so offset=1 is the seed-52 run.
    assert_eq!(rows[0].get("seed").and_then(Json::as_u64), Some(52));
    assert_eq!(
        rows[0].get("fp").and_then(Json::as_str).map(|fp| fp.len()),
        Some(16),
        "rows lead with the span fingerprint"
    );

    for bad in [
        "/results?mode=warp9",
        "/results?p=many",
        "/results?offset=-1",
        "/results?limit=x",
    ] {
        let (code, body) = get(addr, bad);
        assert_eq!(code, 400, "{bad}: {body:?}");
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("bad_request")
        );
    }
    server.shutdown();
}

/// `/sweep/phases`: groups by `(mode, p)` with per-phase shares summing to
/// one, excludes fault-injected runs from the clean sweep, and rejects
/// requests without a workload.
#[test]
fn sweep_phases_groups_runs_and_excludes_faulted_ones() {
    let mut server = start_memory();
    let addr = server.addr();
    for body in [
        r#"{"mode":"simd","n":8,"p":4,"seed":61}"#,
        r#"{"mode":"simd","n":8,"p":4,"seed":62}"#,
        r#"{"mode":"mimd","n":8,"p":4,"seed":61}"#,
        // Faulted run: present in `/results`, excluded from the sweep.
        r#"{"mode":"simd","n":8,"p":4,"seed":61,"fault":"box:1:0"}"#,
    ] {
        run_to_done(addr, body);
    }

    let (code, body) = get(addr, "/sweep/phases?workload=matmul");
    assert_eq!(code, 200, "{body:?}");
    let groups = body.get("groups").and_then(Json::as_arr).unwrap();
    assert_eq!(groups.len(), 2, "one group per (mode, p): {body:?}");
    for group in groups {
        let mode = group.get("mode").and_then(Json::as_str).unwrap();
        let runs = group.get("runs").and_then(Json::as_u64).unwrap();
        let expected_runs = if mode == "Simd" { 2 } else { 1 };
        assert_eq!(runs, expected_runs, "faulted run must not be aggregated");
        let phases = group.get("phases").and_then(Json::as_arr).unwrap();
        assert!(!phases.is_empty(), "phase totals present: {group:?}");
        let share_sum: f64 = phases
            .iter()
            .map(|p| p.get("share").and_then(Json::as_f64).unwrap())
            .sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "phase shares sum to 1, got {share_sum}"
        );
    }
    // But the faulted run is listed — exclusion is sweep-only.
    let (_, listing) = get(addr, "/results?mode=simd&p=4");
    assert_eq!(listing.get("total").and_then(Json::as_u64), Some(3));

    let (code, body) = get(addr, "/sweep/phases?workload=matmul&mode=mimd");
    assert_eq!(code, 200);
    assert_eq!(
        body.get("groups").and_then(Json::as_arr).map(|g| g.len()),
        Some(1)
    );
    let (code, _) = get(addr, "/sweep/phases");
    assert_eq!(code, 400, "workload is required");
    let (code, _) = get(addr, "/sweep/phases?workload=matmul&mode=warp9");
    assert_eq!(code, 400, "unknown mode is rejected");
    server.shutdown();
}

/// Misses are JSON, not empty 404s: unknown fingerprints on `/spans/<fp>`
/// and `/result/<fp>` answer structured `not_found` bodies, malformed
/// fingerprints answer 400, and span misses are counted.
#[test]
fn unknown_fingerprints_answer_structured_json() {
    let mut server = start_memory();
    let addr = server.addr();
    run_to_done(addr, r#"{"mode":"simd","n":8,"p":4,"seed":71}"#);

    let (code, body) = get(addr, "/spans/00000000000000aa");
    assert_eq!(code, 404, "{body:?}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("not_found"));
    let (code, body) = get(addr, "/result/00000000000000aa");
    assert_eq!(code, 404, "{body:?}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("not_found"));
    for bad in ["/spans/xyz", "/spans/123", "/spans/00000000000000aa00"] {
        let (code, body) = get(addr, bad);
        assert_eq!(code, 400, "{bad}: {body:?}");
        assert_eq!(
            body.get("error").and_then(Json::as_str),
            Some("bad_request")
        );
    }
    assert_eq!(stat_u64(addr, &["queries", "span_misses"]), 1);
    server.shutdown();
}

/// The crash gate: after a seeded kill at each byte budget, a restart
/// recovers **every** span record that reached disk — each is indexed and
/// served byte-identical to ground truth — and resubmitting the full job
/// set heals the missing ones with no duplicate listings (idempotent
/// re-ingest, content-addressed index).
#[test]
fn seeded_crashes_recover_every_indexed_fingerprint() {
    let jobs: [(Mode, usize, usize, u64, &str); 4] = [
        (
            Mode::Simd,
            8,
            4,
            81,
            r#"{"mode":"simd","n":8,"p":4,"seed":81}"#,
        ),
        (
            Mode::Mimd,
            8,
            4,
            81,
            r#"{"mode":"mimd","n":8,"p":4,"seed":81}"#,
        ),
        (
            Mode::Smimd,
            8,
            8,
            81,
            r#"{"mode":"smimd","n":8,"p":8,"seed":81}"#,
        ),
        (
            Mode::Simd,
            4,
            4,
            82,
            r#"{"mode":"simd","n":4,"p":4,"seed":82}"#,
        ),
    ];
    let truth: Vec<(String, String, &str)> = jobs
        .iter()
        .map(|&(mode, n, p, seed, body)| {
            let (fp, dump) = expected_span_dump(mode, n, p, seed);
            (fp, dump, body)
        })
        .collect();

    // Kill points spread from "nothing landed" through the span records'
    // own bytes to "most of the run survived".
    let budgets: [u64; 8] = [0, 10, 60, 300, 1200, 4000, 12000, 40000];
    for (i, &budget) in budgets.iter().enumerate() {
        let dir = tmpdir("query", &format!("crash-{i}"));

        // Victim run: writes past `budget` bytes silently vanish.
        {
            let mut server = start_durable(&dir, Some(CrashFuse::new(budget)));
            let addr = server.addr();
            for (fp, _, body) in &truth {
                assert_eq!(&run_to_done(addr, body), fp, "budget {budget}");
            }
            server.shutdown();
        }

        // Ground truth of the damage: the fingerprints whose span records
        // actually reached disk intact.
        let (records, _) = read_records(&dir.join("spans")).expect("read spans log");
        let durable: HashSet<String> = records
            .iter()
            .map(|payload| {
                let text = std::str::from_utf8(payload).expect("span record is UTF-8");
                let record = json::parse(text).expect("span record is JSON");
                record
                    .get("fp")
                    .and_then(Json::as_str)
                    .expect("span record carries its fingerprint")
                    .to_string()
            })
            .collect();

        let mut server = start_durable(&dir, None);
        let addr = server.addr();
        assert_eq!(
            stat_u64(addr, &["durability", "spans_replayed"]),
            durable.len() as u64,
            "budget {budget}: every surviving span record is replayed"
        );
        for (fp, expected, _) in &truth {
            if !durable.contains(fp) {
                continue;
            }
            let (code, _, payload) = request_raw(addr, "GET", &format!("/spans/{fp}"), None);
            assert_eq!(code, 200, "budget {budget}: indexed span {fp} lost");
            assert_eq!(
                &payload, expected,
                "budget {budget}: recovered span record drifted"
            );
        }

        // Heal: resubmit everything. Recovered results answer from cache,
        // the rest recompute; either way every span ends up queryable
        // exactly once.
        for (fp, expected, body) in &truth {
            assert_eq!(&run_to_done(addr, body), fp, "budget {budget}");
            let (code, _, payload) = request_raw(addr, "GET", &format!("/spans/{fp}"), None);
            assert_eq!(code, 200, "budget {budget}: span {fp} missing after heal");
            assert_eq!(
                &payload, expected,
                "budget {budget}: healed span record drifted"
            );
        }
        let (code, listing) = get(addr, "/results");
        assert_eq!(code, 200);
        assert_eq!(
            listing.get("total").and_then(Json::as_u64),
            Some(truth.len() as u64),
            "budget {budget}: re-ingest must not duplicate listings: {listing:?}"
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
