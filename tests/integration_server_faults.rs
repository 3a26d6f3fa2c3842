//! Fault-tolerance tests of the `pasm-server` service: panic quarantine
//! (one attempt per job), the deadline watchdog, cooperative cancellation
//! of running jobs, and fault-plan jobs over HTTP. The durable tests also
//! check that each job's journal holds one `started` and exactly one
//! terminal record.
//!
//! The panic path is driven by the test-only `chaos` member of the submit
//! body, which makes the worker panic deliberately without touching the
//! simulation itself (and is excluded from the cache key).

mod common;

use common::{
    await_ready, await_terminal, get, job_id, request, request_raw, status_str, submit, tmpdir,
};
use pasm_server::store::read_records;
use pasm_server::{FsyncPolicy, Server, ServerConfig};
use pasm_util::{json, Json};
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

fn message(resp: &Json) -> String {
    resp.get("message")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string()
}

fn stat(addr: SocketAddr, key: &str) -> u64 {
    let (code, body) = get(addr, "/stats");
    assert_eq!(code, 200);
    body.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stat {key} in {body:?}"))
}

fn start(workers: usize) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth: 64,
        ..ServerConfig::default()
    })
    .expect("server starts")
}

/// Start a server with a durable data dir and wait out its recovery phase.
fn start_durable(workers: usize, dir: &Path) -> Server {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth: 64,
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    })
    .expect("server starts");
    await_ready(server.addr());
    server
}

/// Journal event counts for one job id: `(submitted, started, terminals)`.
fn journal_events(dir: &Path, id: u64) -> (u64, u64, Vec<String>) {
    let (records, _) = read_records(&dir.join("journal")).expect("read journal");
    let (mut submitted, mut started, mut terminals) = (0, 0, Vec::new());
    for payload in records {
        let event = json::parse(std::str::from_utf8(&payload).unwrap()).unwrap();
        if event.get("id").and_then(Json::as_u64) != Some(id) {
            continue;
        }
        match event.get("ev").and_then(Json::as_str).unwrap() {
            "submitted" => submitted += 1,
            "started" => started += 1,
            terminal => terminals.push(terminal.to_string()),
        }
    }
    (submitted, started, terminals)
}

fn await_running(addr: SocketAddr, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = get(addr, &format!("/status/{id}"));
        if status_str(&body) == "running" {
            return;
        }
        assert!(Instant::now() < deadline, "job never started running");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A deliberately panicking job is quarantined as `failed` after its one
/// attempt, with the panic recorded and journaled once — and the worker
/// that caught the panic goes on serving.
#[test]
fn panicking_job_is_quarantined_and_the_pool_survives() {
    let dir = tmpdir("faults", "panic");
    let mut server = start_durable(1, &dir);
    let addr = server.addr();

    let (code, resp) = submit(
        addr,
        r#"{"mode":"simd","n":4,"p":4,"seed":901,"chaos":{"kind":"panic"}}"#,
    );
    assert_eq!(code, 202, "{resp:?}");
    let id = job_id(&resp);
    let done = await_terminal(addr, id);
    assert_eq!(status_str(&done), "failed", "{done:?}");
    assert!(
        message(&done).contains("simulation panicked: chaos: injected panic"),
        "panic recorded in the error detail: {done:?}"
    );
    // One attempt, no retry bookkeeping: the summary has no `attempts`
    // member and `/stats` no `retries` counter.
    assert!(done.get("attempts").is_none(), "{done:?}");
    assert_eq!(stat(addr, "quarantined"), 1);
    assert!(get(addr, "/stats").1.get("retries").is_none());
    let (code, gone) = get(addr, &format!("/result/{id}"));
    assert_eq!(code, 500, "no result for a quarantined job: {gone:?}");
    assert_eq!(gone.get("error").and_then(Json::as_str), Some("job_failed"));

    // The quarantine counters are on /metrics too.
    let (code, _, text) = request_raw(addr, "GET", "/metrics", None);
    assert_eq!(code, 200);
    assert!(text.contains("pasm_jobs_quarantined_total 1"), "{text}");
    assert!(!text.contains("pasm_job_retries_total"), "{text}");

    // The single worker caught the panic and still serves: every later job
    // completes on it.
    let ids: Vec<u64> = (0..6)
        .map(|i| {
            let body = format!(r#"{{"mode":"simd","n":4,"p":4,"seed":{}}}"#, 1000 + i);
            let (code, resp) = submit(addr, &body);
            assert_eq!(code, 202, "{resp:?}");
            job_id(&resp)
        })
        .collect();
    for id in ids {
        assert_eq!(status_str(&await_terminal(addr, id)), "done");
    }
    server.shutdown();

    let (submitted, started, terminals) = journal_events(&dir, id);
    assert_eq!(submitted, 1);
    assert_eq!(started, 1, "one attempt journals `started` once");
    assert_eq!(terminals, vec!["failed".to_string()], "exactly one close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The watchdog interrupts a running job past its wall-clock deadline and
/// records a deadline failure (not a crash, not a hung worker), closing the
/// job once in the journal.
#[test]
fn watchdog_fails_a_running_job_past_its_deadline() {
    let dir = tmpdir("faults", "watchdog");
    let mut server = start_durable(1, &dir);
    let addr = server.addr();

    // The simulation runs for seconds if never interrupted, while the
    // deadline is wide enough that the job cannot expire unclaimed behind
    // the fsync of its `submitted` record on a loaded CI machine.
    let (code, resp) = submit(
        addr,
        r#"{"mode":"mimd","n":256,"p":4,"seed":903,"deadline_ms":250}"#,
    );
    assert_eq!(code, 202, "{resp:?}");
    let id = job_id(&resp);
    let done = await_terminal(addr, id);
    assert_eq!(status_str(&done), "failed", "{done:?}");
    assert!(
        message(&done).contains("deadline exceeded"),
        "watchdog recorded the deadline: {done:?}"
    );
    assert_eq!(stat(addr, "watchdog_timeouts"), 1);
    assert_eq!(stat(addr, "quarantined"), 0);

    // The worker is free again.
    let (_, resp) = submit(addr, r#"{"mode":"simd","n":4,"p":4,"seed":904}"#);
    assert_eq!(status_str(&await_terminal(addr, job_id(&resp))), "done");
    assert_eq!(stat(addr, "completed"), 1);
    server.shutdown();

    let (submitted, started, terminals) = journal_events(&dir, id);
    assert_eq!(submitted, 1);
    assert_eq!(started, 1);
    assert_eq!(terminals, vec!["failed".to_string()], "exactly one close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Canceling a *running* job interrupts the simulation cooperatively,
/// releases the worker slot, leaves the counters consistent, and closes
/// the job once in the journal.
#[test]
fn cancel_while_running_releases_the_worker_slot() {
    let dir = tmpdir("faults", "cancel-running");
    let mut server = start_durable(1, &dir);
    let addr = server.addr();

    let (code, resp) = submit(addr, r#"{"mode":"mimd","n":256,"p":4,"seed":905}"#);
    assert_eq!(code, 202, "{resp:?}");
    let id = job_id(&resp);

    // Wait until the single worker has actually claimed it.
    await_running(addr, id);

    // Cooperative cancel: accepted (202), terminal state follows shortly.
    let (code, resp) = request(addr, "POST", &format!("/cancel/{id}"), None);
    assert_eq!(code, 202, "{resp:?}");
    assert_eq!(
        resp.get("cancel_requested").and_then(Json::as_bool),
        Some(true)
    );
    let done = await_terminal(addr, id);
    assert_eq!(status_str(&done), "canceled", "{done:?}");
    assert!(
        message(&done).contains("canceled while running"),
        "{done:?}"
    );
    let (code, gone) = get(addr, &format!("/result/{id}"));
    assert_eq!(code, 409, "canceled job has no result: {gone:?}");

    // The slot is free and the counters add up.
    let (_, resp) = submit(addr, r#"{"mode":"simd","n":4,"p":4,"seed":906}"#);
    assert_eq!(status_str(&await_terminal(addr, job_id(&resp))), "done");
    assert_eq!(stat(addr, "canceled"), 1);
    assert_eq!(stat(addr, "completed"), 1);
    assert_eq!(stat(addr, "failed"), 0);
    assert_eq!(stat(addr, "quarantined"), 0);
    assert_eq!(stat(addr, "submitted"), 2);
    server.shutdown();

    let (submitted, started, terminals) = journal_events(&dir, id);
    assert_eq!(submitted, 1);
    assert_eq!(started, 1);
    assert_eq!(terminals, vec!["canceled".to_string()], "exactly one close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fault-plan jobs run end to end over HTTP: the result reports the fault,
/// the fault-free baseline, and a slowdown attributed to rerouting; bad
/// fault specs are client errors.
#[test]
fn fault_plan_jobs_report_their_slowdown() {
    let mut server = start(2);
    let addr = server.addr();

    // An interior box fault: rerouted, so the job must be slower than its
    // fault-free twin.
    let (code, resp) = submit(
        addr,
        r#"{"mode":"smimd","n":8,"p":8,"seed":907,"fault":"box:1:0"}"#,
    );
    assert_eq!(code, 202, "{resp:?}");
    let id = job_id(&resp);
    let done = await_terminal(addr, id);
    assert_eq!(status_str(&done), "done", "{done:?}");
    assert_eq!(done.get("fault").and_then(Json::as_str), Some("box:1:0"));

    let (code, body) = get(addr, &format!("/result/{id}"));
    assert_eq!(code, 200, "{body:?}");
    let result = body.get("result").expect("result payload");
    assert_eq!(result.get("fault").and_then(Json::as_str), Some("box:1:0"));
    let baseline = result
        .get("baseline_cycles")
        .and_then(Json::as_u64)
        .expect("baseline_cycles");
    let cycles = result.get("cycles").and_then(Json::as_u64).expect("cycles");
    let slowdown = result
        .get("slowdown")
        .and_then(Json::as_f64)
        .expect("slowdown");
    assert!(baseline > 0 && cycles > baseline, "{result:?}");
    assert!(slowdown > 1.0, "rerouted fault slows the run: {result:?}");
    assert_eq!(stat(addr, "fault_jobs"), 1);

    // Malformed fault specs are 400s, not failed jobs.
    for bad in [
        r#"{"mode":"simd","n":4,"p":4,"fault":"warp:1"}"#,
        r#"{"mode":"simd","n":4,"p":4,"fault":"dead:99"}"#,
        r#"{"mode":"simd","n":4,"p":4,"fault":42}"#,
    ] {
        let (code, resp) = submit(addr, bad);
        assert_eq!(code, 400, "{resp:?}");
    }
    server.shutdown();
}
