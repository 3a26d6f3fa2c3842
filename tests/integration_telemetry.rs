//! Telemetry golden: the exact surface of `/metrics` and `/stats`.
//!
//! One scenario (a cold job, its cache hit, and one each of `/results`,
//! `/spans/<fp>` and `/sweep/phases`) runs against a memory-only and a
//! durable server. The test pins the `/metrics` series (name plus label
//! set), the `/stats` leaf paths and the deterministic `/stats` values, and
//! checks that every scalar both views expose reads the same in both. The
//! surface from before both views rendered one table is kept as it was;
//! what that table added is listed apart (`*_ADDED`).
//! `docs/OBSERVABILITY.md` §3 is the table these lists follow; a series or
//! path that appears, disappears or changes spelling fails here first.

mod common;

use common::{await_ready, await_terminal, get, request_raw, status_str, submit, tmpdir};
use pasm_machine::BUCKET_NAMES;
use pasm_server::{FsyncPolicy, Server, ServerConfig};
use pasm_util::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

/// Every `/metrics` series of a memory-only server, sorted.
const MEMORY_SERIES: &str = r#"
pasm_cache_entries
pasm_cache_hits_total
pasm_cache_misses_total
pasm_draining
pasm_fault_jobs_total
pasm_job_wall_ms_bucket{kind="cold",le="+Inf"}
pasm_job_wall_ms_bucket{kind="cold",le="1"}
pasm_job_wall_ms_bucket{kind="cold",le="10"}
pasm_job_wall_ms_bucket{kind="cold",le="100"}
pasm_job_wall_ms_bucket{kind="cold",le="1000"}
pasm_job_wall_ms_bucket{kind="cold",le="2"}
pasm_job_wall_ms_bucket{kind="cold",le="25"}
pasm_job_wall_ms_bucket{kind="cold",le="250"}
pasm_job_wall_ms_bucket{kind="cold",le="5"}
pasm_job_wall_ms_bucket{kind="cold",le="50"}
pasm_job_wall_ms_bucket{kind="cold",le="5000"}
pasm_job_wall_ms_bucket{kind="hit",le="+Inf"}
pasm_job_wall_ms_bucket{kind="hit",le="1"}
pasm_job_wall_ms_bucket{kind="hit",le="10"}
pasm_job_wall_ms_bucket{kind="hit",le="100"}
pasm_job_wall_ms_bucket{kind="hit",le="1000"}
pasm_job_wall_ms_bucket{kind="hit",le="2"}
pasm_job_wall_ms_bucket{kind="hit",le="25"}
pasm_job_wall_ms_bucket{kind="hit",le="250"}
pasm_job_wall_ms_bucket{kind="hit",le="5"}
pasm_job_wall_ms_bucket{kind="hit",le="50"}
pasm_job_wall_ms_bucket{kind="hit",le="5000"}
pasm_job_wall_ms_count{kind="cold"}
pasm_job_wall_ms_count{kind="hit"}
pasm_job_wall_ms_sum{kind="cold"}
pasm_job_wall_ms_sum{kind="hit"}
pasm_jobs_canceled_total
pasm_jobs_completed_total
pasm_jobs_expired_total
pasm_jobs_failed_total
pasm_jobs_quarantined_total
pasm_jobs_rejected_queue_full_total
pasm_jobs_submitted_total
pasm_jobs_tracked
pasm_query_results_total
pasm_query_span_misses_total
pasm_query_spans_total
pasm_query_sweeps_total
pasm_queue_capacity
pasm_queue_depth
pasm_recovering
pasm_sim_cycle_bucket_total{bucket="barrier_wait"}
pasm_sim_cycle_bucket_total{bucket="compute"}
pasm_sim_cycle_bucket_total{bucket="fault_detour"}
pasm_sim_cycle_bucket_total{bucket="fetch"}
pasm_sim_cycle_bucket_total{bucket="memory_wait"}
pasm_sim_cycle_bucket_total{bucket="multiply_variance"}
pasm_sim_cycle_bucket_total{bucket="network"}
pasm_sim_cycles_total
pasm_sim_runs_total
pasm_span_store_runs
pasm_watchdog_timeouts_total
pasm_workers
"#;

/// The series a data dir adds.
const DURABLE_SERIES: &str = r#"
pasm_jobs_reenqueued_total
pasm_journal_appends_total
pasm_journal_fsyncs_total
pasm_recovery_wall_ms
pasm_span_store_appends_total
pasm_span_store_fsyncs_total
pasm_span_store_replayed_total
pasm_store_appends_total
pasm_store_fsyncs_total
pasm_store_records_corrupt_total
pasm_store_records_truncated_total
pasm_store_results_replayed_total
"#;

/// Every `/stats` leaf path of a memory-only server, sorted (an array is
/// one leaf).
const MEMORY_PATHS: &str = "
cache.entries
cache.hits
cache.misses
canceled
completed
expired
failed
fault_jobs
latency.cold.count
latency.cold.mean_ms
latency.cold.total_ms
latency.hit.count
latency.hit.mean_ms
latency.hit.total_ms
quarantined
queries.results
queries.span_misses
queries.spans
queries.sweeps
recent
rejected_queue_full
sim_cycle_buckets.barrier_wait
sim_cycle_buckets.compute
sim_cycle_buckets.fault_detour
sim_cycle_buckets.fetch
sim_cycle_buckets.memory_wait
sim_cycle_buckets.multiply_variance
sim_cycle_buckets.network
sim_runs
span_store.appends
span_store.durable
span_store.fsyncs
span_store.runs
submitted
total_cycles
total_wall_ms
watchdog_timeouts
";

/// The paths a data dir adds.
const DURABLE_PATHS: &str = "
durability.jobs_interrupted
durability.jobs_reenqueued
durability.journal_appends
durability.journal_fsyncs
durability.records_corrupt
durability.records_truncated
durability.recovering
durability.recovery_ms
durability.results_replayed
durability.spans_replayed
durability.store_appends
durability.store_fsyncs
";

/// What one table for both views added: each a scalar the other view
/// already exposed. Memory-only `/metrics` gains the span-store append and
/// fsync counters `/stats` always had.
const MEMORY_SERIES_ADDED: &str = "
pasm_span_store_appends_total
pasm_span_store_fsyncs_total
";

/// `/stats` gains the queue, job-table, worker and lifecycle gauges.
const MEMORY_PATHS_ADDED: &str = "
draining
jobs_tracked
queue_capacity
queue_depth
recovering
workers
";

/// `/metrics` gains `durability.jobs_interrupted`.
const DURABLE_SERIES_ADDED: &str = "
pasm_jobs_interrupted_total
";

/// Deterministic `/stats` values of the scenario in both modes. Wall times
/// (`latency.*.total_ms`, `latency.*.mean_ms`, `total_wall_ms`,
/// `durability.recovery_ms`) and `recent` vary from run to run.
const COMMON_VALUES: &str = "
cache.entries 1
cache.hits 1
cache.misses 1
canceled 0
completed 2
draining 0
expired 0
failed 0
fault_jobs 0
jobs_tracked 2
latency.cold.count 1
latency.hit.count 1
quarantined 0
queries.results 1
queries.span_misses 0
queries.spans 1
queries.sweeps 1
queue_capacity 64
queue_depth 0
recovering 0
rejected_queue_full 0
sim_cycle_buckets.barrier_wait 17068
sim_cycle_buckets.compute 392728
sim_cycle_buckets.fault_detour 0
sim_cycle_buckets.fetch 32968
sim_cycle_buckets.memory_wait 50516
sim_cycle_buckets.multiply_variance 64288
sim_cycle_buckets.network 0
sim_runs 1
span_store.runs 1
submitted 2
total_cycles 278892
watchdog_timeouts 0
workers 2
";

/// Deterministic values only a memory-only server reads this way.
const MEMORY_VALUES: &str = "
span_store.appends 0
span_store.durable false
span_store.fsyncs 0
";

/// Deterministic values of the durable server (fsync `always`).
const DURABLE_VALUES: &str = "
durability.jobs_interrupted 0
durability.jobs_reenqueued 0
durability.journal_appends 3
durability.journal_fsyncs 3
durability.records_corrupt 0
durability.records_truncated 0
durability.recovering false
durability.results_replayed 0
durability.spans_replayed 0
durability.store_appends 1
durability.store_fsyncs 1
span_store.appends 1
span_store.durable true
span_store.fsyncs 1
";

/// `/stats` path and `/metrics` series that expose one scalar, in both
/// modes. The sim-cycle buckets pair up by name (see [`shared`]).
#[rustfmt::skip]
const SHARED: &[(&str, &str)] = &[
    ("submitted", "pasm_jobs_submitted_total"),
    ("completed", "pasm_jobs_completed_total"),
    ("failed", "pasm_jobs_failed_total"),
    ("canceled", "pasm_jobs_canceled_total"),
    ("expired", "pasm_jobs_expired_total"),
    ("rejected_queue_full", "pasm_jobs_rejected_queue_full_total"),
    ("quarantined", "pasm_jobs_quarantined_total"),
    ("watchdog_timeouts", "pasm_watchdog_timeouts_total"),
    ("fault_jobs", "pasm_fault_jobs_total"),
    ("total_cycles", "pasm_sim_cycles_total"),
    ("sim_runs", "pasm_sim_runs_total"),
    ("queries.results", "pasm_query_results_total"),
    ("queries.spans", "pasm_query_spans_total"),
    ("queries.span_misses", "pasm_query_span_misses_total"),
    ("queries.sweeps", "pasm_query_sweeps_total"),
    ("span_store.runs", "pasm_span_store_runs"),
    ("cache.hits", "pasm_cache_hits_total"),
    ("cache.misses", "pasm_cache_misses_total"),
    ("cache.entries", "pasm_cache_entries"),
    ("latency.cold.count", r#"pasm_job_wall_ms_count{kind="cold"}"#),
    ("latency.cold.total_ms", r#"pasm_job_wall_ms_sum{kind="cold"}"#),
    ("latency.hit.count", r#"pasm_job_wall_ms_count{kind="hit"}"#),
    ("latency.hit.total_ms", r#"pasm_job_wall_ms_sum{kind="hit"}"#),
    // Added with the one table: each exposed by one view before.
    ("span_store.appends", "pasm_span_store_appends_total"),
    ("span_store.fsyncs", "pasm_span_store_fsyncs_total"),
    ("queue_depth", "pasm_queue_depth"),
    ("queue_capacity", "pasm_queue_capacity"),
    ("jobs_tracked", "pasm_jobs_tracked"),
    ("workers", "pasm_workers"),
    ("draining", "pasm_draining"),
    ("recovering", "pasm_recovering"),
];

/// Pairs only a durable server exposes in both views.
#[rustfmt::skip]
const DURABLE_SHARED: &[(&str, &str)] = &[
    ("durability.recovering", "pasm_recovering"),
    ("durability.results_replayed", "pasm_store_results_replayed_total"),
    ("durability.spans_replayed", "pasm_span_store_replayed_total"),
    ("durability.records_truncated", "pasm_store_records_truncated_total"),
    ("durability.records_corrupt", "pasm_store_records_corrupt_total"),
    ("durability.jobs_reenqueued", "pasm_jobs_reenqueued_total"),
    ("durability.recovery_ms", "pasm_recovery_wall_ms"),
    ("durability.store_appends", "pasm_store_appends_total"),
    ("durability.store_fsyncs", "pasm_store_fsyncs_total"),
    ("durability.journal_appends", "pasm_journal_appends_total"),
    ("durability.journal_fsyncs", "pasm_journal_fsyncs_total"),
    // Added with the one table.
    ("durability.jobs_interrupted", "pasm_jobs_interrupted_total"),
];

fn start(data_dir: Option<PathBuf>) -> Server {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        data_dir,
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    })
    .expect("server starts");
    await_ready(server.addr());
    server
}

/// One cold job, its cache hit, and one query of each kind.
fn drive(addr: SocketAddr) {
    let body = r#"{"mode":"simd","n":16,"p":4}"#;
    let (code, first) = submit(addr, body);
    assert_eq!(code, 202, "{first:?}");
    let id = first.get("job_id").and_then(Json::as_u64).unwrap();
    assert_eq!(status_str(&await_terminal(addr, id)), "done");
    let (code, second) = submit(addr, body);
    assert_eq!(code, 200, "{second:?}");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    let fp = first.get("key").and_then(Json::as_str).unwrap();
    for path in [
        "/results".to_string(),
        format!("/spans/{fp}"),
        "/sweep/phases?workload=matmul".to_string(),
    ] {
        let (code, resp) = get(addr, &path);
        assert_eq!(code, 200, "{path}: {resp:?}");
    }
}

/// `/metrics` samples keyed by series (`name{labels}`).
fn metrics(addr: SocketAddr) -> BTreeMap<String, f64> {
    let (code, _, text) = request_raw(addr, "GET", "/metrics", None);
    assert_eq!(code, 200);
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (series, value) = l.rsplit_once(' ').expect("sample line");
            (series.to_string(), value.parse().expect("numeric sample"))
        })
        .collect()
}

/// `/stats` leaves keyed by dotted path (an array is one leaf).
fn leaves(v: &Json, prefix: &str, out: &mut BTreeMap<String, Json>) {
    match v {
        Json::Obj(members) => {
            for (k, child) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                leaves(child, &path, out);
            }
        }
        leaf => {
            out.insert(prefix.to_string(), leaf.clone());
        }
    }
}

/// `/metrics` and `/stats` read while nothing moves: `/stats` is read
/// before and after `/metrics` until the two reads agree.
fn quiet_views(addr: SocketAddr) -> (BTreeMap<String, f64>, BTreeMap<String, Json>) {
    for _ in 0..100 {
        let (_, before) = get(addr, "/stats");
        let m = metrics(addr);
        let (_, after) = get(addr, "/stats");
        if before.dump() == after.dump() {
            let mut s = BTreeMap::new();
            leaves(&after, "", &mut s);
            return (m, s);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("/stats never settled");
}

/// Fail with the difference unless `got` holds exactly the lines of `want`.
fn assert_surface<'a>(what: &str, got: impl Iterator<Item = &'a String>, want: &[&str]) {
    let got: BTreeSet<&str> = got.map(String::as_str).collect();
    let want: BTreeSet<&str> = want
        .iter()
        .flat_map(|l| l.lines())
        .filter(|l| !l.is_empty())
        .collect();
    let missing: Vec<_> = want.difference(&got).collect();
    let unexpected: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "{what}: missing {missing:?}, unexpected {unexpected:?}"
    );
}

/// A `/stats` leaf as the number `/metrics` would print.
fn as_number(v: &Json) -> f64 {
    match v {
        Json::Bool(b) => f64::from(u8::from(*b)),
        other => other
            .as_f64()
            .unwrap_or_else(|| panic!("{other:?} is not a scalar")),
    }
}

/// Every (path, series) pair of the mode, the sim-cycle buckets included.
fn shared(durable: bool) -> Vec<(String, String)> {
    let mut pairs: Vec<(String, String)> = SHARED
        .iter()
        .chain(if durable { DURABLE_SHARED } else { &[] })
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    for name in BUCKET_NAMES {
        pairs.push((
            format!("sim_cycle_buckets.{name}"),
            format!("pasm_sim_cycle_bucket_total{{bucket=\"{name}\"}}"),
        ));
    }
    pairs
}

fn check(data_dir: Option<PathBuf>) {
    let durable = data_dir.is_some();
    let server = start(data_dir);
    let addr = server.addr();
    drive(addr);
    let (m, s) = quiet_views(addr);

    let mut series = vec![MEMORY_SERIES, MEMORY_SERIES_ADDED];
    let mut paths = vec![MEMORY_PATHS, MEMORY_PATHS_ADDED];
    if durable {
        series.extend([DURABLE_SERIES, DURABLE_SERIES_ADDED]);
        paths.push(DURABLE_PATHS);
    }
    assert_surface("/metrics series", m.keys(), &series);
    assert_surface("/stats paths", s.keys(), &paths);

    let mode_values = if durable {
        DURABLE_VALUES
    } else {
        MEMORY_VALUES
    };
    for line in COMMON_VALUES.lines().chain(mode_values.lines()) {
        let Some((path, want)) = line.split_once(' ') else {
            continue;
        };
        assert_eq!(s[path].dump(), want, "/stats {path}");
    }

    for (path, name) in shared(durable) {
        assert_eq!(as_number(&s[&path]), m[&name], "/stats {path} vs {name}");
    }
    let wall_sums =
        m[r#"pasm_job_wall_ms_sum{kind="cold"}"#] + m[r#"pasm_job_wall_ms_sum{kind="hit"}"#];
    assert_eq!(as_number(&s["total_wall_ms"]), wall_sums, "total_wall_ms");
}

#[test]
fn memory_only_views_are_pinned() {
    check(None);
}

#[test]
fn durable_views_are_pinned() {
    check(Some(tmpdir("telemetry", "durable")));
}
