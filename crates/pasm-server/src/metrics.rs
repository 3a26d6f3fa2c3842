//! The service's telemetry: one table of named values, rendered two ways.
//!
//! `scalars` decides, once per request, which values the server exposes.
//! Each `Scalar` carries its `/stats` JSON path, its Prometheus name, its
//! kind, its help text and its value. `GET /metrics` (`exposition`)
//! renders the table in the Prometheus [text exposition format];
//! `GET /stats` and the `stats.json` drain snapshot (`stats_json`) nest it
//! by path. Both views also render the two labelled families from one
//! snapshot each: the split cold/hit job-latency histogram and the per-cause
//! simulation cycle buckets. `/stats` alone adds the members that are not
//! counters or gauges: latency means, `recent`, `span_store.durable` and
//! `durability.recovering`. `docs/OBSERVABILITY.md` §3 lists every entry.
//!
//! [text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use crate::server::AppState;
use crate::stats::{HistSnapshot, LATENCY_BOUNDS_MS};
use pasm_machine::BUCKET_NAMES;
use pasm_store::SpanStore;
use pasm_util::Json;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};

/// The Content-Type of the exposition payload.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// How Prometheus should treat a [`Scalar`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// Only ever grows within one process.
    Counter,
    /// Goes up and down (sizes, flags read as 0/1).
    Gauge,
}

/// One exposed value, named once for both views.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Scalar {
    /// Dotted JSON path in `/stats` (`"cache.hits"`).
    pub(crate) path: &'static str,
    /// Prometheus metric name in `/metrics`.
    pub(crate) name: &'static str,
    pub(crate) kind: Kind,
    /// The `# HELP` text.
    pub(crate) help: &'static str,
    pub(crate) value: u64,
}

fn counter(path: &'static str, name: &'static str, value: u64, help: &'static str) -> Scalar {
    Scalar {
        path,
        name,
        kind: Kind::Counter,
        help,
        value,
    }
}

fn gauge(path: &'static str, name: &'static str, value: u64, help: &'static str) -> Scalar {
    Scalar {
        kind: Kind::Gauge,
        ..counter(path, name, value, help)
    }
}

/// Every scalar the server exposes right now. Durability entries exist only
/// when the server runs with a data dir (once its recovery has opened the
/// logs).
#[rustfmt::skip]
pub(crate) fn scalars(state: &AppState) -> Vec<Scalar> {
    let s = &state.stats;
    let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner()).len() as u64;
    let mut table = vec![
        counter("submitted", "pasm_jobs_submitted_total", n(&s.submitted),
            "Jobs accepted by POST /submit (cache hits included)."),
        counter("completed", "pasm_jobs_completed_total", n(&s.completed),
            "Jobs that reached the done state."),
        counter("failed", "pasm_jobs_failed_total", n(&s.failed),
            "Jobs that failed in simulation."),
        counter("canceled", "pasm_jobs_canceled_total", n(&s.canceled),
            "Jobs canceled while queued."),
        counter("expired", "pasm_jobs_expired_total", n(&s.expired),
            "Jobs whose deadline passed before a worker picked them up."),
        counter("rejected_queue_full", "pasm_jobs_rejected_queue_full_total", n(&s.rejected_queue_full),
            "Submissions pushed back with 429 queue_full."),
        counter("quarantined", "pasm_jobs_quarantined_total", n(&s.quarantined),
            "Jobs failed by a caught worker panic (never retried)."),
        counter("watchdog_timeouts", "pasm_watchdog_timeouts_total", n(&s.watchdog_timeouts),
            "Running jobs interrupted by the deadline watchdog."),
        counter("fault_jobs", "pasm_fault_jobs_total", n(&s.fault_jobs),
            "Submissions that carried a non-empty fault plan."),
        gauge("queue_depth", "pasm_queue_depth", state.queue.len() as u64,
            "Jobs currently waiting in the admission queue."),
        gauge("queue_capacity", "pasm_queue_capacity", state.queue.capacity() as u64,
            "Bounded admission queue capacity."),
        gauge("jobs_tracked", "pasm_jobs_tracked", jobs,
            "Jobs in the job table (all states)."),
        gauge("workers", "pasm_workers", state.workers as u64,
            "Simulation worker threads."),
        gauge("draining", "pasm_draining", state.draining.load(Ordering::SeqCst) as u64,
            "1 while the server is shutting down."),
        gauge("recovering", "pasm_recovering", state.recovering.load(Ordering::SeqCst) as u64,
            "1 while startup replay of the durable logs is in progress."),
    ];
    if let Some(d) = state.durability.get() {
        let r = &d.recovery;
        table.extend([
            counter("durability.results_replayed", "pasm_store_results_replayed_total", r.results_replayed,
                "Results replayed from the durable store into the cache on startup."),
            counter("durability.records_truncated", "pasm_store_records_truncated_total", r.records_truncated,
                "Torn-tail log records truncated during replay (all three logs)."),
            counter("durability.records_corrupt", "pasm_store_records_corrupt_total", r.records_corrupt,
                "Corrupt log records detected, skipped, and never served (all three logs)."),
            counter("durability.jobs_reenqueued", "pasm_jobs_reenqueued_total", r.jobs_reenqueued,
                "Journaled pending jobs re-enqueued on startup."),
            counter("durability.jobs_interrupted", "pasm_jobs_interrupted_total", r.jobs_interrupted,
                "Re-enqueued jobs that had already started when the last process stopped."),
            gauge("durability.recovery_ms", "pasm_recovery_wall_ms", r.recovery_ms,
                "Startup recovery wall time in milliseconds."),
            counter("durability.store_appends", "pasm_store_appends_total", d.store.appends(),
                "Result records appended to the durable store by this process."),
            counter("durability.store_fsyncs", "pasm_store_fsyncs_total", d.store.fsyncs(),
                "Result-store fsyncs issued by this process."),
            counter("durability.journal_appends", "pasm_journal_appends_total", d.journal.appends(),
                "Job-journal events appended by this process."),
            counter("durability.journal_fsyncs", "pasm_journal_fsyncs_total", d.journal.fsyncs(),
                "Job-journal fsyncs issued by this process."),
            counter("durability.spans_replayed", "pasm_span_store_replayed_total", r.spans_replayed,
                "Span records replayed into the query-tier index on startup."),
        ]);
    }
    // The span store is installed at startup, or by recovery with a data dir.
    let spans = |read: fn(&SpanStore) -> u64| state.spans.get().map_or(0, read);
    table.extend([
        gauge("span_store.runs", "pasm_span_store_runs", spans(|s| s.len() as u64),
            "Runs indexed by the query tier (durable or in-memory)."),
        counter("span_store.appends", "pasm_span_store_appends_total", spans(SpanStore::appends),
            "Span records appended to the span store by this process."),
        counter("span_store.fsyncs", "pasm_span_store_fsyncs_total", spans(SpanStore::fsyncs),
            "Span-store fsyncs issued by this process."),
        counter("sim_runs", "pasm_sim_runs_total", n(&s.sim_runs),
            "Simulator invocations; query traffic must never move this."),
        counter("queries.results", "pasm_query_results_total", n(&s.results_queries),
            "GET /results queries served."),
        counter("queries.spans", "pasm_query_spans_total", n(&s.span_queries),
            "GET /spans/<fp> queries served."),
        counter("queries.span_misses", "pasm_query_span_misses_total", n(&s.span_misses),
            "GET /spans/<fp> queries that found no servable record."),
        counter("queries.sweeps", "pasm_query_sweeps_total", n(&s.sweep_queries),
            "GET /sweep/phases queries served."),
        counter("cache.hits", "pasm_cache_hits_total", state.cache.hits(),
            "Result-cache hits."),
        counter("cache.misses", "pasm_cache_misses_total", state.cache.misses(),
            "Result-cache misses."),
        gauge("cache.entries", "pasm_cache_entries", state.cache.entries() as u64,
            "Result-cache entries resident."),
        counter("total_cycles", "pasm_sim_cycles_total", n(&s.total_cycles),
            "Simulated cycles summed over completed jobs (cache hits included)."),
    ]);
    table
}

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// The `/metrics` payload: the table, then the latency histogram and the
/// simulation cycle buckets.
pub(crate) fn exposition(state: &AppState) -> String {
    let mut out = String::with_capacity(4096);
    for s in scalars(state) {
        let kind = match s.kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        header(&mut out, s.name, s.help, kind);
        let _ = writeln!(out, "{} {}", s.name, s.value);
    }

    let name = "pasm_job_wall_ms";
    header(
        &mut out,
        name,
        "Job wall-clock latency in milliseconds, split by cache outcome.",
        "histogram",
    );
    for (kind, snap) in latency(state) {
        let mut cumulative = 0u64;
        for (i, c) in snap.counts.iter().enumerate() {
            cumulative += c;
            let le = LATENCY_BOUNDS_MS
                .get(i)
                .map_or("+Inf".to_string(), u64::to_string);
            let _ = writeln!(
                out,
                "{name}_bucket{{kind=\"{kind}\",le=\"{le}\"}} {cumulative}"
            );
        }
        let _ = writeln!(out, "{name}_sum{{kind=\"{kind}\"}} {}", snap.sum);
        let _ = writeln!(out, "{name}_count{{kind=\"{kind}\"}} {}", snap.count);
    }

    let name = "pasm_sim_cycle_bucket_total";
    header(
        &mut out,
        name,
        "Per-PE simulation cycles by cause, aggregated over cold runs.",
        "counter",
    );
    for (bucket, value) in BUCKET_NAMES.iter().zip(state.stats.sim_bucket_totals()) {
        let _ = writeln!(out, "{name}{{bucket=\"{bucket}\"}} {value}");
    }
    out
}

/// The `/stats` payload: the table nested by path, the latency histogram's
/// count, total and mean per cache outcome (and their sum as
/// `total_wall_ms`), the simulation cycle buckets, and the members that are
/// not numbers.
pub(crate) fn stats_json(state: &AppState) -> Json {
    let mut root = Vec::new();
    for s in scalars(state) {
        insert(&mut root, s.path, Json::Int(s.value as i64));
    }
    let latency = latency(state);
    let wall: u64 = latency.iter().map(|(_, snap)| snap.sum).sum();
    insert(&mut root, "total_wall_ms", Json::Int(wall as i64));
    for (kind, snap) in latency {
        let at = |member: &str| format!("latency.{kind}.{member}");
        insert(&mut root, &at("count"), Json::Int(snap.count as i64));
        insert(&mut root, &at("total_ms"), Json::Int(snap.sum as i64));
        insert(&mut root, &at("mean_ms"), Json::Float(snap.mean_ms()));
    }
    for (bucket, value) in BUCKET_NAMES.iter().zip(state.stats.sim_bucket_totals()) {
        let path = format!("sim_cycle_buckets.{bucket}");
        insert(&mut root, &path, Json::Int(value as i64));
    }
    let durable = state.spans.get().is_some_and(|s| s.is_durable());
    insert(&mut root, "span_store.durable", Json::Bool(durable));
    if state.durability.get().is_some() {
        let recovering = state.recovering.load(Ordering::SeqCst);
        insert(&mut root, "durability.recovering", Json::Bool(recovering));
    }
    let recent = state.stats.recent_lines().into_iter().map(Json::Str);
    insert(&mut root, "recent", Json::Arr(recent.collect()));
    Json::Obj(root)
}

/// The two latency histograms, labelled by cache outcome.
fn latency(state: &AppState) -> [(&'static str, HistSnapshot); 2] {
    let (cold, hit) = state.stats.latency_snapshots();
    [("cold", cold), ("hit", hit)]
}

/// Put `value` at the dotted `path` of `members`, creating the objects on
/// the way.
fn insert(members: &mut Vec<(String, Json)>, path: &str, value: Json) {
    let Some((head, rest)) = path.split_once('.') else {
        members.push((path.to_string(), value));
        return;
    };
    let i = match members.iter().position(|(k, _)| k == head) {
        Some(i) => i,
        None => {
            members.push((head.to_string(), Json::Obj(Vec::new())));
            members.len() - 1
        }
    };
    match &mut members[i].1 {
        Json::Obj(children) => insert(children, rest, value),
        _ => panic!("/stats path `{path}` runs through a value"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use std::time::Duration;

    /// A started server, past its recovery phase.
    fn server(data_dir: Option<std::path::PathBuf>) -> Server {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: 64,
            data_dir,
            ..ServerConfig::default()
        })
        .expect("server starts");
        while server.state().recovering.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
        }
        server
    }

    #[test]
    fn exposition_is_well_formed() {
        let dir = std::env::temp_dir().join(format!("pasm-metrics-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = server(Some(dir.clone()));
        let text = exposition(server.state());
        let mut typed = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.push(rest.split(' ').next().unwrap());
                continue;
            }
            assert!(
                line.starts_with("# HELP ")
                    || line
                        .rsplit_once(' ')
                        .is_some_and(|(name, v)| !name.is_empty() && v.parse::<f64>().is_ok()),
                "malformed exposition line: {line:?}"
            );
        }
        let mut unique = typed.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), typed.len(), "a metric name is typed twice");
        assert!(text.contains("pasm_queue_depth 0"));
        assert!(text.contains("pasm_queue_capacity 64"));
        assert!(text.contains("pasm_workers 2"));
        assert!(text.contains("pasm_jobs_quarantined_total 0"));
        assert!(text.contains("pasm_recovering 0"));
        assert!(text.contains("pasm_store_results_replayed_total 0"));
        assert!(text.contains("pasm_jobs_interrupted_total 0"));
        assert!(text.contains("pasm_span_store_replayed_total 0"));
        assert!(text.contains("pasm_span_store_runs 0"));
        assert!(text.contains("pasm_sim_cycle_bucket_total{bucket=\"barrier_wait\"} 0"));
        assert!(text.contains("pasm_job_wall_ms_bucket{kind=\"cold\",le=\"+Inf\"} 0"));
        assert!(text.ends_with('\n'));
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn memory_only_exposition_omits_durability_series() {
        let server = server(None);
        let text = exposition(server.state());
        assert!(text.contains("pasm_recovering 0"));
        assert!(!text.contains("pasm_store_results_replayed_total"));
        assert!(!text.contains("pasm_journal_appends_total"));
        assert!(!text.contains("pasm_span_store_replayed_total"));
        assert!(
            text.contains("pasm_span_store_runs 0"),
            "the query tier exists even memory-only"
        );
    }
}
