//! Service accounting: aggregate counters plus one JSONL line per completed
//! job. The lines back the `stats` endpoint (recent window) and, when the
//! server is started with a log path, an append-only file — the trajectory
//! future performance PRs compare against.
//!
//! Latency accounting is split by cache outcome: cache hits complete in
//! microseconds and would otherwise drown the cold-run distribution, so
//! [`Stats`] keeps **two** wall-clock histograms (`cold` and `hit`) and a
//! cold-only wall-time total. Aggregated simulation cycle buckets (fetch,
//! compute, multiply-variance, …) are accumulated from cold runs only —
//! a cache hit re-serves an already-counted simulation.

use crate::protocol::JobStatus;
use pasm::ExperimentResult;
use pasm_machine::N_BUCKETS;
use pasm_util::Json;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many recent per-job lines the `stats` endpoint keeps in memory.
const RECENT_CAP: usize = 256;

/// Upper bounds (inclusive, milliseconds) of the latency histogram buckets;
/// an implicit `+Inf` bucket follows the last bound.
pub const LATENCY_BOUNDS_MS: [u64; 10] = [1, 2, 5, 10, 25, 50, 100, 250, 1000, 5000];

/// Number of histogram buckets including the `+Inf` overflow bucket.
pub const N_LATENCY_BUCKETS: usize = LATENCY_BOUNDS_MS.len() + 1;

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Default)]
struct Hist {
    /// Per-bucket (non-cumulative) observation counts.
    buckets: [AtomicU64; N_LATENCY_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Hist {
    fn observe(&self, ms: u64) {
        let idx = LATENCY_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(LATENCY_BOUNDS_MS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ms, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistSnapshot {
        let mut counts = [0u64; N_LATENCY_BUCKETS];
        for (c, b) in counts.iter_mut().zip(self.buckets.iter()) {
            *c = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// A consistent-enough point-in-time copy of one histogram.
#[derive(Debug, Clone, Copy)]
pub struct HistSnapshot {
    /// Per-bucket counts aligned with [`LATENCY_BOUNDS_MS`] (last = `+Inf`).
    pub counts: [u64; N_LATENCY_BUCKETS],
    /// Sum of observed values in milliseconds.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistSnapshot {
    /// Mean observed latency in milliseconds (0 with no observations).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Aggregate service counters plus the per-job JSONL accounting stream.
#[derive(Default)]
pub struct Stats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub canceled: AtomicU64,
    pub expired: AtomicU64,
    /// Submissions rejected with `queue_full`.
    pub rejected_queue_full: AtomicU64,
    /// Worker attempts that panicked and were retried with backoff.
    pub retries: AtomicU64,
    /// Jobs whose worker panicked past the retry budget — the panic was
    /// caught, the job failed, and the worker slot survived.
    pub quarantined: AtomicU64,
    /// Running jobs interrupted by the deadline watchdog.
    pub watchdog_timeouts: AtomicU64,
    /// Submissions that carried a non-empty fault plan.
    pub fault_jobs: AtomicU64,
    /// Simulated cycles summed over completed jobs (cache hits included —
    /// this measures *served* simulation volume).
    pub total_cycles: AtomicU64,
    /// Simulator invocations (one per worker attempt that reached the
    /// simulator). The query tier serves stored spans, so query traffic must
    /// never move this counter — the integration tests assert exactly that.
    pub sim_runs: AtomicU64,
    /// `GET /results` queries served.
    pub results_queries: AtomicU64,
    /// `GET /spans/<fp>` queries served.
    pub span_queries: AtomicU64,
    /// `GET /spans/<fp>` queries that found no (servable) record.
    pub span_misses: AtomicU64,
    /// `GET /sweep/phases` queries served.
    pub sweep_queries: AtomicU64,
    /// Simulation cycle buckets aggregated over cold runs, indexed like
    /// [`pasm_machine::BUCKET_NAMES`].
    sim_buckets: [AtomicU64; N_BUCKETS],
    cold_latency: Hist,
    hit_latency: Hist,
    recent: Mutex<std::collections::VecDeque<String>>,
    log_file: Mutex<Option<File>>,
}

impl Stats {
    /// Fresh counters; with a path, each completion is also appended there.
    pub fn new(log_path: Option<&Path>) -> std::io::Result<Self> {
        let stats = Stats::default();
        if let Some(path) = log_path {
            let file = OpenOptions::new().create(true).append(true).open(path)?;
            *stats.log_file.lock().unwrap_or_else(|e| e.into_inner()) = Some(file);
        }
        Ok(stats)
    }

    /// Bump the terminal-state counter for `status` (no-op for live states).
    pub fn count(&self, status: JobStatus) {
        match status {
            JobStatus::Done => self.completed.fetch_add(1, Ordering::Relaxed),
            JobStatus::Failed => self.failed.fetch_add(1, Ordering::Relaxed),
            JobStatus::Canceled => self.canceled.fetch_add(1, Ordering::Relaxed),
            JobStatus::Expired => self.expired.fetch_add(1, Ordering::Relaxed),
            JobStatus::Queued | JobStatus::Running => 0,
        };
    }

    /// Record one completed job: update the split latency accounting and
    /// emit a JSONL line.
    pub fn record_completion(
        &self,
        job_id: u64,
        result: &ExperimentResult,
        wall_ms: u64,
        cache_hit: bool,
    ) {
        self.total_cycles
            .fetch_add(result.cycles, Ordering::Relaxed);
        if cache_hit {
            self.hit_latency.observe(wall_ms);
        } else {
            self.cold_latency.observe(wall_ms);
            for (total, v) in self.sim_buckets.iter().zip(result.pe_buckets.iter()) {
                total.fetch_add(*v, Ordering::Relaxed);
            }
        }
        let line = Json::obj(vec![
            ("job_id", Json::Int(job_id as i64)),
            ("mode", pasm_util::ToJson::to_json(&result.mode)),
            ("n", Json::Int(result.n as i64)),
            ("p", Json::Int(result.p as i64)),
            ("extra_muls", Json::Int(result.extra_muls as i64)),
            ("seed", Json::Int(result.seed as i64)),
            ("cycles", Json::Int(result.cycles as i64)),
            ("sim_ms", Json::Float(result.millis)),
            ("wall_ms", Json::Int(wall_ms as i64)),
            // Latency split by cache outcome: exactly one of these is the
            // job's wall time, the other is null — so downstream histogram
            // builders never mix ~0 ms hits into the cold distribution.
            (
                "cold_wall_ms",
                if cache_hit {
                    Json::Null
                } else {
                    Json::Int(wall_ms as i64)
                },
            ),
            (
                "hit_wall_ms",
                if cache_hit {
                    Json::Int(wall_ms as i64)
                } else {
                    Json::Null
                },
            ),
            (
                "cache",
                Json::Str(if cache_hit { "hit" } else { "miss" }.to_string()),
            ),
        ])
        .dump();
        if let Some(file) = self
            .log_file
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            let _ = writeln!(file, "{line}");
        }
        let mut recent = self.recent.lock().unwrap_or_else(|e| e.into_inner());
        recent.push_back(line);
        while recent.len() > RECENT_CAP {
            recent.pop_front();
        }
    }

    /// Flush and fsync the JSONL job log (graceful drain): completions
    /// acknowledged to clients must not ride only in OS buffers when the
    /// process exits.
    pub fn flush_sync(&self) {
        if let Some(file) = self
            .log_file
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            let _ = file.flush();
            let _ = file.sync_data();
        }
    }

    /// Snapshots of the two latency histograms: `(cold, hit)`.
    pub fn latency_snapshots(&self) -> (HistSnapshot, HistSnapshot) {
        (self.cold_latency.snapshot(), self.hit_latency.snapshot())
    }

    /// Aggregated simulation cycle buckets over all cold completions.
    pub fn sim_bucket_totals(&self) -> [u64; N_BUCKETS] {
        let mut out = [0u64; N_BUCKETS];
        for (o, b) in out.iter_mut().zip(self.sim_buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// The recent JSONL lines, oldest first.
    pub fn recent_lines(&self) -> Vec<String> {
        self.recent
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_observe_into_the_right_slot() {
        let h = Hist::default();
        h.observe(0); // ≤ 1
        h.observe(1); // ≤ 1
        h.observe(3); // ≤ 5
        h.observe(9999); // ≤ +Inf
        let s = h.snapshot();
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[2], 1);
        assert_eq!(s.counts[N_LATENCY_BUCKETS - 1], 1);
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 10003);
        assert!((s.mean_ms() - 10003.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        assert_eq!(Hist::default().snapshot().mean_ms(), 0.0);
    }
}
