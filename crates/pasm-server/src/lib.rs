//! # pasm-server — a batched, cache-backed simulation service
//!
//! Serves `pasm` experiments over HTTP/JSON with explicit backpressure:
//!
//! * a **bounded admission queue** ([`queue::JobQueue`]) that rejects
//!   submissions with `429 queue_full` once `queue_depth` jobs are waiting,
//! * **worker threads** popping that queue and executing
//!   [`pasm::run_keyed_traced`] simulations,
//! * a **content-addressed result cache** ([`cache::ResultCache`]) keyed by
//!   the [`pasm::ExperimentKey::fingerprint`] of the full key — sound
//!   because the simulator is deterministic — with hit/miss counters,
//! * **job lifecycle endpoints**: `POST /submit`, `GET /status/<id>`,
//!   `GET /result/<id>`, `POST /cancel/<id>`, `GET /healthz`, `GET /stats`,
//!   plus a hand-rolled Prometheus-text `GET /metrics` ([`metrics`]) with
//!   queue/cache gauges, split cold/hit latency histograms, and the
//!   aggregated simulation cycle buckets of the observability layer,
//! * per-job **deadlines** (`deadline_ms`: a job still queued past its
//!   deadline expires instead of simulating for nobody) and **graceful
//!   drain** on shutdown (every admitted job reaches a terminal state),
//! * one **JSONL accounting line** per completed job, surfaced by `/stats`
//!   and appended to an optional `--log` file.
//!
//! The whole service is `std`-only: no async runtime, no HTTP framework —
//! one thread per connection (connections are short: `Connection: close`),
//! which is plenty for a simulation backend whose unit of work is measured
//! in milliseconds to seconds.

pub mod cache;
pub mod http;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod stats;
pub mod store;

pub use cache::ResultCache;
pub use journal::{JobJournal, JournalReplay};
pub use protocol::{BadRequest, JobSpec, JobStatus};
pub use queue::{JobQueue, QueueFull};
pub use server::{Server, ServerConfig};
pub use store::{CrashFuse, FsyncPolicy, ReplayStats, ResultStore, SegmentLog};
