//! Crash-safety tests of the durable persistence tier (ISSUE 9): the server
//! is killed at seeded byte offsets of its combined log write stream via the
//! test-only [`CrashFuse`], restarted over the surviving bytes, and checked
//! against ground truth:
//!
//! * every job whose `completed` journal record survived serves its result
//!   from the replayed cache, byte-identical to the pre-crash result (the
//!   store append strictly precedes the `completed` journal append in the
//!   shared write stream, so an acknowledged completion implies a durable
//!   result);
//! * no corrupt or torn record is ever served — damage is skipped and
//!   counted in `/metrics`;
//! * journaled pending jobs are re-enqueued exactly once, under their
//!   original ids, and complete;
//! * a restarted server answers a cached `/result` without re-simulating.

mod common;

use common::{await_ready, await_terminal, get, request_raw, status_str, submit, tmpdir};
use pasm_server::store::read_records;
use pasm_server::{CrashFuse, FsyncPolicy, Server, ServerConfig};
use pasm_util::{json, Json};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

// ---------------------------------------------------------------- helpers

fn metric(addr: SocketAddr, name: &str) -> u64 {
    let (code, _, text) = request_raw(addr, "GET", "/metrics", None);
    assert_eq!(code, 200);
    text.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("metric {name} not found"))
}

fn start_durable(dir: &Path, fuse: Option<Arc<CrashFuse>>) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        test_fuse: fuse,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// The job set: every registered kernel, every execution mode, tiny sizes.
const JOBS: [&str; 6] = [
    r#"{"mode":"simd","n":4,"p":4,"seed":1801}"#,
    r#"{"mode":"mimd","n":8,"p":4,"seed":1801}"#,
    r#"{"mode":"smimd","n":8,"p":8,"seed":1801}"#,
    r#"{"mode":"serial","n":8,"seed":1801}"#,
    r#"{"mode":"mimd","kernel":"smooth","n":32,"p":4,"seed":1801}"#,
    r#"{"mode":"simd","kernel":"bitonic","n":32,"p":4,"seed":1801}"#,
];

/// Deterministic ground truth: run the whole job set on a memory-only
/// server and keep each result's compact JSON dump, keyed by submit body.
fn ground_truth() -> HashMap<&'static str, String> {
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let mut truth = HashMap::new();
    for body in JOBS {
        let (code, resp) = submit(addr, body);
        assert_eq!(code, 202, "{resp:?}");
        let id = resp.get("job_id").and_then(Json::as_u64).unwrap();
        let done = await_terminal(addr, id);
        assert_eq!(status_str(&done), "done", "{done:?}");
        let (code, result) = get(addr, &format!("/result/{id}"));
        assert_eq!(code, 200);
        truth.insert(body, result.get("result").expect("result").dump());
    }
    server.shutdown();
    truth
}

/// Journal events of one data dir: `(submitted, started, terminal)` id sets
/// plus the `completed` subset.
#[derive(Default)]
struct JournalView {
    submitted: HashSet<u64>,
    terminal: HashSet<u64>,
    completed: HashSet<u64>,
}

fn read_journal(dir: &Path) -> JournalView {
    let (records, _) = read_records(&dir.join("journal")).expect("read journal");
    let mut view = JournalView::default();
    for payload in records {
        let text = std::str::from_utf8(&payload).expect("journal record is UTF-8");
        let event = json::parse(text).expect("journal record is JSON");
        let ev = event.get("ev").and_then(Json::as_str).unwrap().to_string();
        let id = event.get("id").and_then(Json::as_u64).unwrap();
        match ev.as_str() {
            "submitted" => {
                view.submitted.insert(id);
            }
            "completed" => {
                view.completed.insert(id);
                view.terminal.insert(id);
            }
            "failed" | "canceled" | "expired" => {
                view.terminal.insert(id);
            }
            "started" => {}
            other => panic!("unexpected journal event {other:?}"),
        }
    }
    view
}

// ------------------------------------------------------------------ tests

/// The CI durability gate: a server restarted over a populated data dir
/// answers every cached `/result` from the replayed store, byte-identical,
/// without re-simulating a single job.
#[test]
fn restart_serves_persisted_results_without_resimulating() {
    let truth = ground_truth();
    let dir = tmpdir("recovery", "restart");

    {
        let mut server = start_durable(&dir, None);
        let addr = server.addr();
        await_ready(addr);
        for body in JOBS {
            let (code, resp) = submit(addr, body);
            assert_eq!(code, 202, "{resp:?}");
            let id = resp.get("job_id").and_then(Json::as_u64).unwrap();
            assert_eq!(status_str(&await_terminal(addr, id)), "done");
        }
        server.shutdown();
    }

    let mut server = start_durable(&dir, None);
    let addr = server.addr();
    await_ready(addr);
    assert_eq!(metric(addr, "pasm_store_results_replayed_total"), 6);
    assert_eq!(metric(addr, "pasm_store_records_corrupt_total"), 0);
    for body in JOBS {
        let (code, resp) = submit(addr, body);
        assert_eq!(code, 200, "cache answers at submit time: {resp:?}");
        assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
        assert_eq!(
            resp.get("result").expect("result").dump(),
            truth[body],
            "replayed result is byte-identical: {body}"
        );
    }
    // The cold-latency histogram saw no observations: nothing re-simulated.
    let (_, stats) = get(addr, "/stats");
    let cold_count = stats
        .get("latency")
        .and_then(|l| l.get("cold"))
        .and_then(|c| c.get("count"))
        .and_then(Json::as_u64);
    assert_eq!(cold_count, Some(0), "{stats:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The crash-injection sweep: ≥ 20 seeded kill points across the combined
/// write stream. After each crash → restart, the durable-completion
/// invariant holds, pending jobs are re-enqueued exactly once, and every
/// served result matches ground truth exactly.
#[test]
fn seeded_crash_points_never_lose_or_corrupt_completed_results() {
    let truth = ground_truth();
    // 24 kill points: inside the first segment magics, mid-header,
    // mid-payload, between a result append and its journal record, and deep
    // enough that most of the run survives.
    let budgets: [u64; 24] = [
        0, 1, 3, 5, 7, 8, 9, 12, 16, 21, 25, 40, 64, 100, 150, 200, 300, 400, 600, 900, 1300, 2000,
        3500, 6000,
    ];

    for (i, &budget) in budgets.iter().enumerate() {
        let dir = tmpdir("recovery", &format!("crash-{i}"));

        // Victim run: every write past `budget` bytes silently vanishes.
        let mut by_id: HashMap<u64, &'static str> = HashMap::new();
        {
            let mut server = start_durable(&dir, Some(CrashFuse::new(budget)));
            let addr = server.addr();
            await_ready(addr);
            for body in JOBS {
                let (code, resp) = submit(addr, body);
                assert_eq!(code, 202, "{resp:?}");
                by_id.insert(resp.get("job_id").and_then(Json::as_u64).unwrap(), body);
            }
            for id in by_id.keys() {
                assert_eq!(status_str(&await_terminal(addr, *id)), "done");
            }
            server.shutdown();
        }

        // What actually reached disk.
        let journal = read_journal(&dir);
        let pending: HashSet<u64> = journal
            .submitted
            .difference(&journal.terminal)
            .copied()
            .collect();

        // Restart over the damaged dir: replay must absorb every tear.
        let mut server = start_durable(&dir, None);
        let addr = server.addr();
        await_ready(addr);
        assert_eq!(
            metric(addr, "pasm_jobs_reenqueued_total"),
            pending.len() as u64,
            "budget {budget}: every pending job re-enqueued exactly once"
        );

        // Durable-completion invariant: a surviving `completed` record
        // implies the result record landed first (shared write stream), so
        // the restarted cache must answer it byte-identically at submit.
        for id in &journal.completed {
            let body = by_id[id];
            let (code, resp) = submit(addr, body);
            assert_eq!(code, 200, "budget {budget}: completed job {id} lost");
            assert_eq!(resp.get("cached").and_then(Json::as_bool), Some(true));
            assert_eq!(
                resp.get("result").expect("result").dump(),
                truth[body],
                "budget {budget}: durable result drifted for {body}"
            );
        }

        // Re-enqueued jobs finish under their original ids and match truth.
        for id in &pending {
            let done = await_terminal(addr, *id);
            assert_eq!(status_str(&done), "done", "budget {budget}: {done:?}");
            let (code, result) = get(addr, &format!("/result/{id}"));
            assert_eq!(code, 200);
            assert_eq!(
                result.get("result").expect("result").dump(),
                truth[by_id[id]],
                "budget {budget}: recovered job {id} result drifted"
            );
        }

        // No matter what survived, every key of the job set still answers
        // with ground truth — damage is never served, only recomputed.
        for body in JOBS {
            let (code, resp) = submit(addr, body);
            assert!(code == 200 || code == 202, "{resp:?}");
            let id = resp.get("job_id").and_then(Json::as_u64).unwrap();
            await_terminal(addr, id);
            let (code, result) = get(addr, &format!("/result/{id}"));
            assert_eq!(code, 200);
            assert_eq!(
                result.get("result").expect("result").dump(),
                truth[body],
                "budget {budget}: post-recovery result drifted for {body}"
            );
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A flipped payload bit in the result store is detected, counted, and the
/// damaged entry recomputed — never served.
#[test]
fn bit_flipped_result_is_skipped_counted_and_recomputed() {
    let truth = ground_truth();
    let dir = tmpdir("recovery", "bitflip");
    {
        let mut server = start_durable(&dir, None);
        let addr = server.addr();
        await_ready(addr);
        for body in JOBS {
            let (code, resp) = submit(addr, body);
            assert_eq!(code, 202, "{resp:?}");
            let id = resp.get("job_id").and_then(Json::as_u64).unwrap();
            assert_eq!(status_str(&await_terminal(addr, id)), "done");
        }
        server.shutdown();
    }

    // Flip one bit deep inside the first result record's payload.
    let seg = dir.join("results").join("seg-000001.log");
    let mut bytes = std::fs::read(&seg).unwrap();
    let offset = 8 + 8 + 40; // magic + record header + 40 payload bytes
    bytes[offset] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();

    let mut server = start_durable(&dir, None);
    let addr = server.addr();
    await_ready(addr);
    assert_eq!(metric(addr, "pasm_store_records_corrupt_total"), 1);
    assert_eq!(metric(addr, "pasm_store_results_replayed_total"), 5);
    for body in JOBS {
        let (code, resp) = submit(addr, body);
        assert!(code == 200 || code == 202, "{resp:?}");
        let id = resp.get("job_id").and_then(Json::as_u64).unwrap();
        await_terminal(addr, id);
        let (code, result) = get(addr, &format!("/result/{id}"));
        assert_eq!(code, 200);
        assert_eq!(
            result.get("result").expect("result").dump(),
            truth[body],
            "corrupted entry must be recomputed, not served: {body}"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Readiness vs. liveness: `/healthz` answers 503 `recovering` while the
/// startup replay is in flight and `/submit` refuses, then both flip once
/// the index is rebuilt.
#[test]
fn healthz_is_503_recovering_until_replay_finishes() {
    let dir = tmpdir("recovery", "readiness");
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        queue_depth: 8,
        data_dir: Some(dir.clone()),
        fsync: FsyncPolicy::Always,
        recovery_hold_ms: 400,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    let (code, body) = get(addr, "/healthz");
    assert_eq!(code, 503, "{body:?}");
    assert_eq!(status_str(&body), "recovering");
    let (code, body) = submit(addr, JOBS[0]);
    assert_eq!(code, 503, "{body:?}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("recovering"));

    await_ready(addr);
    let (code, body) = get(addr, "/healthz");
    assert_eq!(code, 200);
    assert_eq!(status_str(&body), "ok");
    let (code, resp) = submit(addr, JOBS[0]);
    assert_eq!(code, 202, "{resp:?}");
    let id = resp.get("job_id").and_then(Json::as_u64).unwrap();
    assert_eq!(status_str(&await_terminal(addr, id)), "done");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain flushes everything: the journal closes every admitted
/// job, the result store holds every completed result, and the stats
/// snapshot lands in the data dir.
#[test]
fn graceful_drain_flushes_journal_store_and_snapshot() {
    let dir = tmpdir("recovery", "drain");
    {
        let mut server = start_durable(&dir, None);
        let addr = server.addr();
        await_ready(addr);
        for body in &JOBS[..3] {
            let (code, resp) = submit(addr, body);
            assert_eq!(code, 202, "{resp:?}");
            let id = resp.get("job_id").and_then(Json::as_u64).unwrap();
            assert_eq!(status_str(&await_terminal(addr, id)), "done");
        }
        server.shutdown();
    }
    let journal = read_journal(&dir);
    assert_eq!(journal.submitted.len(), 3);
    assert_eq!(journal.completed.len(), 3);
    let (results, stats) = read_records(&dir.join("results")).expect("read results");
    assert_eq!(results.len(), 3);
    assert_eq!(stats.truncated + stats.corrupt, 0);
    let snapshot = std::fs::read_to_string(dir.join("stats.json")).expect("stats snapshot");
    let snapshot = json::parse(snapshot.trim()).expect("snapshot is JSON");
    assert_eq!(snapshot.get("completed").and_then(Json::as_u64), Some(3));
    let durability = snapshot.get("durability").expect("durability section");
    assert_eq!(
        durability.get("store_appends").and_then(Json::as_u64),
        Some(3)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
