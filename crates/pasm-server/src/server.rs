//! The simulation service itself: job lifecycle, worker execution, router.
//!
//! Data flow: `submit` validates a [`JobSpec`], consults the result cache,
//! and — on a miss — admits the job to the bounded [`JobQueue`] (or rejects
//! it with `queue_full`). Workers from a [`pasm::WorkerPool`] pop admitted
//! jobs in FIFO order, re-check the cache (duplicate coalescing), run the
//! simulation, publish the result into the cache and the job table, and emit
//! one JSONL accounting line. Shutdown closes the queue and joins the pool,
//! so every admitted job reaches a terminal state before the server returns.

use crate::cache::ResultCache;
use crate::http::{read_request, write_json, write_text, Request};
use crate::journal::JobJournal;
use crate::metrics;
use crate::protocol::{error_body, BadRequest, ChaosSpec, JobSpec, JobStatus};
use crate::queue::JobQueue;
use crate::stats::Stats;
use crate::store::{CrashFuse, FsyncPolicy, ResultStore};
use pasm::{run_keyed_traced, ExperimentResult, ExperimentTrace, Mode, WorkerPool};
use pasm_machine::RunError;
use pasm_store::{ResultsQuery, RunSummary, SpanRecord, SpanStore};
use pasm_util::{Json, ToJson};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Tunables of one service instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (tests).
    pub addr: String,
    /// Simulation worker threads.
    pub workers: usize,
    /// Bounded queue depth — the backpressure limit.
    pub queue_depth: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Optional JSONL job-log path.
    pub log_path: Option<PathBuf>,
    /// Durable data directory (the `results/`, `journal/` and `spans/`
    /// segment logs plus a `stats.json` drain snapshot live inside). `None`
    /// runs memory-only.
    pub data_dir: Option<PathBuf>,
    /// Fsync policy of the durable logs (see `docs/DURABILITY.md`).
    pub fsync: FsyncPolicy,
    /// Test-only crash injector shared by the three durable logs.
    #[doc(hidden)]
    pub test_fuse: Option<Arc<CrashFuse>>,
    /// Test-only: hold the startup recovery phase open this many extra
    /// milliseconds so readiness probes can observe the 503 window.
    #[doc(hidden)]
    pub recovery_hold_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8471".to_string(),
            workers: thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4),
            queue_depth: 256,
            cache_capacity: 4096,
            log_path: None,
            data_dir: None,
            fsync: FsyncPolicy::Interval(Duration::from_millis(FsyncPolicy::DEFAULT_INTERVAL_MS)),
            test_fuse: None,
            recovery_hold_ms: 0,
        }
    }
}

/// One tracked job.
pub(crate) struct Job {
    spec: JobSpec,
    status: JobStatus,
    cached: bool,
    error: Option<String>,
    submitted_at: Instant,
    result: Option<Arc<ExperimentResult>>,
    wall_ms: u64,
    /// Worker attempts consumed so far (1 = no retries).
    attempts: u32,
    /// A client asked to cancel while the job was running; the worker's
    /// interrupt flag is tripped and the job ends `canceled` when it stops.
    cancel_requested: bool,
    /// The deadline watchdog tripped this job's interrupt flag.
    watchdog_fired: bool,
}

/// The durable half of the service: result store + job journal, both over
/// crash-safe segment logs, and what the replay of the three logs (these
/// two and the span store) found. Present only when a data dir is
/// configured, from the end of the recovery phase on.
pub(crate) struct Durability {
    pub(crate) store: ResultStore,
    pub(crate) journal: JobJournal,
    pub(crate) recovery: RecoveryInfo,
}

/// What the startup recovery phase found (rendered by both telemetry views).
#[derive(Debug)]
pub(crate) struct RecoveryInfo {
    /// Results replayed from the store into the cache.
    pub(crate) results_replayed: u64,
    /// Span records replayed into the query-tier index.
    pub(crate) spans_replayed: u64,
    /// Torn-tail records truncated across the three logs (results, journal,
    /// spans).
    pub(crate) records_truncated: u64,
    /// Corrupt (CRC/undecodable) records skipped across the three logs, plus
    /// malformed journal events.
    pub(crate) records_corrupt: u64,
    /// Journaled pending jobs re-enqueued.
    pub(crate) jobs_reenqueued: u64,
    /// Re-enqueued jobs that had already started when the crash hit.
    pub(crate) jobs_interrupted: u64,
    /// Recovery wall time in milliseconds.
    pub(crate) recovery_ms: u64,
}

/// Everything the request, worker and recovery paths share. The telemetry
/// table (`metrics::scalars`) reads its counters, gauges and stores.
pub(crate) struct AppState {
    pub(crate) queue: JobQueue,
    pub(crate) cache: ResultCache,
    pub(crate) stats: Stats,
    pub(crate) jobs: Mutex<HashMap<u64, Job>>,
    /// Interrupt flags of currently-running jobs, keyed by job id. Tripping
    /// a flag (cancel, watchdog) makes the simulation return `Interrupted`
    /// at its next scheduler check. Lock order: `jobs` before `interrupts`.
    interrupts: Mutex<HashMap<u64, Arc<AtomicBool>>>,
    next_id: AtomicU64,
    pub(crate) draining: AtomicBool,
    /// Tells the watchdog thread to exit (set after the worker pool joins,
    /// so deadlines keep firing while the drain finishes running jobs).
    watchdog_stop: AtomicBool,
    pub(crate) workers: usize,
    /// Set once by the recovery thread (or never, memory-only mode).
    pub(crate) durability: OnceLock<Durability>,
    /// The query tier: set at startup (memory-only mode) or by the recovery
    /// thread (disk backing). Workers ingest every cold completion; the
    /// `/results`, `/spans/<fp>` and `/sweep/phases` endpoints read it.
    pub(crate) spans: OnceLock<SpanStore>,
    /// True from bind until the durable logs are replayed; readiness, not
    /// liveness — `/healthz` answers 503 and `/submit` refuses meanwhile.
    pub(crate) recovering: AtomicBool,
}

/// Run `f` against the journal if durability is enabled; a failed journal
/// write degrades to a warning (the job still runs — it is the *durability*
/// of its lifecycle that is lost, not the job).
fn with_journal(state: &AppState, f: impl FnOnce(&JobJournal) -> io::Result<()>) {
    if let Some(d) = state.durability.get() {
        if let Err(e) = f(&d.journal) {
            eprintln!("pasm-serve: journal write failed: {e}");
        }
    }
}

/// A running simulation service. Dropping it (or calling
/// [`Server::shutdown`]) drains admitted jobs and joins every thread.
pub struct Server {
    state: Arc<AppState>,
    addr: SocketAddr,
    data_dir: Option<PathBuf>,
    pool: Option<WorkerPool>,
    accept: Option<thread::JoinHandle<()>>,
    watchdog: Option<thread::JoinHandle<()>>,
    recovery: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the accept loop, and return.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe the drain flag.
        listener.set_nonblocking(true)?;

        let state = Arc::new(AppState {
            queue: JobQueue::new(config.queue_depth),
            cache: ResultCache::new(config.cache_capacity),
            stats: Stats::new(config.log_path.as_deref())?,
            jobs: Mutex::new(HashMap::new()),
            interrupts: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            watchdog_stop: AtomicBool::new(false),
            workers: config.workers.max(1),
            durability: OnceLock::new(),
            spans: OnceLock::new(),
            recovering: AtomicBool::new(config.data_dir.is_some()),
        });
        // Memory-only servers still get the query tier — just not durable.
        // With a data dir, the recovery thread installs the disk-backed
        // store instead (before any worker can complete a job).
        if config.data_dir.is_none() {
            let _ = state.spans.set(SpanStore::in_memory());
        }

        // Recovery phase: replay the durable logs off the request path, so
        // the listener can answer (503 `recovering`) from the first instant.
        // Until the flag flips, `/submit` refuses and `/healthz` is not
        // ready; workers idle on the empty queue.
        let recovery = match config.data_dir.clone() {
            Some(dir) => {
                let state = Arc::clone(&state);
                let policy = config.fsync;
                let fuse = config.test_fuse.clone();
                let hold_ms = config.recovery_hold_ms;
                Some(
                    thread::Builder::new()
                        .name("pasm-recovery".into())
                        .spawn(move || recover(&state, &dir, policy, fuse, hold_ms))?,
                )
            }
            None => None,
        };

        let pool = WorkerPool::new(state.workers);
        for _ in 0..state.workers {
            let state = Arc::clone(&state);
            pool.execute(move || {
                while let Some(job_id) = state.queue.pop_blocking() {
                    run_job(&state, job_id);
                }
            });
        }

        // Deadline watchdog: a *running* job past its deadline gets its
        // interrupt flag tripped and ends `failed` — no worker thread is
        // ever killed, the simulation stops cooperatively. The same tick
        // fsyncs what an `interval` policy left unsynced.
        let wd_state = Arc::clone(&state);
        let watchdog = thread::Builder::new()
            .name("pasm-watchdog".into())
            .spawn(move || {
                while !wd_state.watchdog_stop.load(Ordering::SeqCst) {
                    fire_watchdog(&wd_state);
                    sync_due_logs(&wd_state);
                    thread::sleep(Duration::from_millis(5));
                }
            })?;

        let accept_state = Arc::clone(&state);
        let accept = thread::Builder::new()
            .name("pasm-accept".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let state = Arc::clone(&accept_state);
                        let _ = thread::Builder::new()
                            .name("pasm-conn".into())
                            .spawn(move || {
                                handle_connection(&state, stream);
                            });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if accept_state.draining.load(Ordering::SeqCst) {
                            break;
                        }
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            })?;

        Ok(Server {
            state,
            addr,
            data_dir: config.data_dir,
            pool: Some(pool),
            accept: Some(accept),
            watchdog: Some(watchdog),
            recovery,
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// JSON snapshot of the service counters (the `/stats` payload).
    /// Usable after [`Server::shutdown`], when the listener is gone.
    pub fn snapshot(&self) -> Json {
        metrics::stats_json(&self.state)
    }

    /// The shared state, for the telemetry unit tests.
    #[cfg(test)]
    pub(crate) fn state(&self) -> &AppState {
        &self.state
    }

    /// True when every tracked job has reached a terminal state.
    pub fn all_jobs_terminal(&self) -> bool {
        let jobs = self.state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.values().all(|job| job.status.is_terminal())
    }

    /// Graceful drain: stop admitting, finish every already-admitted job,
    /// flush every durable sink, join all threads. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        if self.state.draining.swap(true, Ordering::SeqCst) {
            return; // already drained — keep drop-after-shutdown a no-op
        }
        // Let an in-flight recovery finish first: its re-enqueued jobs must
        // land before the queue closes, or they would neither run nor stay
        // journaled as pending in a *new* journal write.
        if let Some(recovery) = self.recovery.take() {
            let _ = recovery.join();
        }
        self.state.queue.close();
        if let Some(mut pool) = self.pool.take() {
            pool.join();
        }
        // Every admitted job is terminal now: flush + fsync the durable
        // logs and the JSONL job log, and snapshot the final counters, so
        // nothing acknowledged rides only in OS buffers when we exit.
        if let Some(d) = self.state.durability.get() {
            if let Err(e) = d.store.sync() {
                eprintln!("pasm-serve: result store fsync failed on drain: {e}");
            }
            if let Err(e) = d.journal.sync() {
                eprintln!("pasm-serve: journal fsync failed on drain: {e}");
            }
        }
        if let Some(spans) = self.state.spans.get() {
            if let Err(e) = spans.sync() {
                eprintln!("pasm-serve: span store fsync failed on drain: {e}");
            }
        }
        self.state.stats.flush_sync();
        if let Some(dir) = &self.data_dir {
            let snapshot = metrics::stats_json(&self.state).dump();
            match std::fs::File::create(dir.join("stats.json")) {
                Ok(mut f) => {
                    let _ = f.write_all(snapshot.as_bytes());
                    let _ = f.write_all(b"\n");
                    let _ = f.sync_data();
                }
                Err(e) => eprintln!("pasm-serve: stats snapshot failed on drain: {e}"),
            }
        }
        // Stop the watchdog only after the workers are gone, so deadlines
        // keep bounding jobs that finish during the drain.
        self.state.watchdog_stop.store(true, Ordering::SeqCst);
        if let Some(watchdog) = self.watchdog.take() {
            let _ = watchdog.join();
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ----------------------------------------------------------------------
// Recovery path
// ----------------------------------------------------------------------

/// Startup recovery: replay the result store into the cache, replay the job
/// journal and the span store, re-enqueue pending jobs, then flip
/// `recovering` off. Never panics on damaged logs — torn and corrupt
/// records are counted and skipped. If the data dir is unusable the server
/// degrades to memory-only (loudly) rather than refusing to serve.
fn recover(
    state: &AppState,
    dir: &Path,
    policy: FsyncPolicy,
    fuse: Option<Arc<CrashFuse>>,
    hold_ms: u64,
) {
    let t0 = Instant::now();
    if hold_ms > 0 {
        thread::sleep(Duration::from_millis(hold_ms));
    }
    let store = ResultStore::open(&dir.join("results"), policy, fuse.clone(), |fp, result| {
        state.cache.insert_replayed(fp, Arc::new(result));
    });
    let (store, store_stats) = match store {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pasm-serve: result store unusable ({e}); running memory-only");
            let _ = state.spans.set(SpanStore::in_memory());
            state.recovering.store(false, Ordering::SeqCst);
            return;
        }
    };
    let journal = match JobJournal::open(&dir.join("journal"), policy, fuse.clone()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("pasm-serve: job journal unusable ({e}); running memory-only");
            let _ = state.spans.set(SpanStore::in_memory());
            state.recovering.store(false, Ordering::SeqCst);
            return;
        }
    };
    let (journal, replay, journal_stats) = journal;
    // The query tier recovers alongside: a failure here degrades spans to
    // memory (results and the journal stay durable) instead of refusing to
    // serve.
    let span_stats = match SpanStore::open(&dir.join("spans"), policy, fuse) {
        Ok((spans, span_stats)) => {
            let _ = state.spans.set(spans);
            span_stats
        }
        Err(e) => {
            eprintln!("pasm-serve: span store unusable ({e}); query tier is memory-only");
            let _ = state.spans.set(SpanStore::in_memory());
            Default::default()
        }
    };
    state.next_id.fetch_max(replay.next_id, Ordering::SeqCst);

    // Re-validate every pending job. Bodies come off disk, so a journal
    // from an older build gets the same scrutiny as a client request; an
    // unparseable body is closed out in the journal instead of replaying
    // forever.
    let mut recovered = Vec::new();
    for (id, body) in &replay.pending {
        let spec = pasm_util::json::parse(body)
            .ok()
            .and_then(|v| JobSpec::from_json(&v).ok());
        match spec {
            Some(spec) => recovered.push((*id, spec)),
            None => {
                eprintln!("pasm-serve: journaled job {id} no longer parses; marking failed");
                if let Err(e) = journal.terminal("failed", *id) {
                    eprintln!("pasm-serve: journal write failed: {e}");
                }
            }
        }
    }
    let recovery = RecoveryInfo {
        results_replayed: store_stats.replayed,
        spans_replayed: span_stats.replayed,
        records_truncated: store_stats.truncated + journal_stats.truncated + span_stats.truncated,
        records_corrupt: store_stats.corrupt
            + journal_stats.corrupt
            + span_stats.corrupt
            + replay.malformed,
        jobs_reenqueued: recovered.len() as u64,
        jobs_interrupted: replay.interrupted,
        recovery_ms: t0.elapsed().as_millis() as u64,
    };
    // Durability must be live before any recovered job is visible, so its
    // lifecycle is journaled and its result persisted.
    let _ = state.durability.set(Durability {
        store,
        journal,
        recovery,
    });

    // Re-enqueue every pending job under its original id.
    let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    for (id, spec) in &recovered {
        jobs.insert(
            *id,
            Job {
                spec: spec.clone(),
                status: JobStatus::Queued,
                cached: false,
                error: None,
                submitted_at: Instant::now(),
                result: None,
                wall_ms: 0,
                attempts: 0,
                cancel_requested: false,
                watchdog_fired: false,
            },
        );
    }
    drop(jobs);
    // push_front prepends, so feed it in reverse to preserve FIFO order —
    // recovered jobs run before anything submitted after restart.
    for (id, _) in recovered.iter().rev() {
        state.queue.push_front(*id);
    }
    state.recovering.store(false, Ordering::SeqCst);
}

// ----------------------------------------------------------------------
// Worker path
// ----------------------------------------------------------------------

/// Attempts per job: one initial try plus two panic retries.
const MAX_ATTEMPTS: u32 = 3;
/// Backoff before retry k is `RETRY_BACKOFF_MS << (k - 1)`.
const RETRY_BACKOFF_MS: u64 = 25;

/// Why a job did not produce a result.
enum JobFailure {
    /// The simulation returned an error (deterministic — never retried).
    Error(RunError),
    /// Every attempt panicked; the panic payload of the last one.
    Panic(String),
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

/// One worker attempt: fire the test-only chaos hook, then simulate with a
/// cooperative interrupt attached. Every path that reaches the simulator
/// bumps `sim_runs` first — the counter the query-tier tests use to prove a
/// query never re-simulates.
fn attempt_job(
    state: &AppState,
    spec: &JobSpec,
    attempt: u32,
    interrupt: &Arc<AtomicBool>,
) -> Result<ExperimentTrace, RunError> {
    match spec.chaos {
        Some(ChaosSpec::Panic) => panic!("chaos: injected panic (attempt {attempt})"),
        Some(ChaosSpec::Transient { times }) if attempt < times => {
            panic!("chaos: injected transient failure (attempt {attempt} of {times})")
        }
        _ => {}
    }
    state.stats.sim_runs.fetch_add(1, Ordering::Relaxed);
    run_keyed_traced(&spec.key, Some(Arc::clone(interrupt)))
}

/// The mode's canonical wire spelling (`"Simd"`, …) — what the span store
/// indexes and the query endpoints filter by.
fn mode_label(mode: Mode) -> String {
    match mode.to_json() {
        Json::Str(s) => s,
        _ => unreachable!("mode serializes to a string"),
    }
}

/// Package one traced run as the span store's ingest unit.
fn span_record(fingerprint: u64, trace: &ExperimentTrace) -> SpanRecord {
    let r = &trace.result;
    SpanRecord {
        fingerprint,
        summary: RunSummary {
            workload: r.workload.to_string(),
            mode: mode_label(r.mode),
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
        spans: trace.spans.clone(),
    }
}

fn run_job(state: &AppState, job_id: u64) {
    // Publish the interrupt flag first, so cancel/watchdog can reach this
    // run from the instant the job is marked running.
    let interrupt = Arc::new(AtomicBool::new(false));
    state
        .interrupts
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(job_id, Arc::clone(&interrupt));
    let unregister = |state: &AppState| {
        state
            .interrupts
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job_id);
    };

    // Claim the job: skip if canceled, expire if its deadline passed in the
    // queue, otherwise mark running.
    let spec = {
        let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job) = jobs.get_mut(&job_id) else {
            drop(jobs);
            unregister(state);
            return;
        };
        if job.status != JobStatus::Queued {
            drop(jobs);
            unregister(state);
            return;
        }
        if let Some(deadline_ms) = job.spec.deadline_ms {
            if job.submitted_at.elapsed() >= Duration::from_millis(deadline_ms) {
                job.status = JobStatus::Expired;
                state.stats.count(JobStatus::Expired);
                drop(jobs);
                with_journal(state, |j| j.terminal("expired", job_id));
                unregister(state);
                return;
            }
        }
        job.status = JobStatus::Running;
        // A cancel may have landed between the queue pop and the flag
        // registration above; honor it before burning simulation time.
        if job.cancel_requested {
            interrupt.store(true, Ordering::SeqCst);
        }
        job.spec.clone()
    };
    with_journal(state, |j| j.started(job_id));

    // Duplicate coalescing: an identical job may have completed while this
    // one waited in the queue — including a journal-recovered job whose
    // result was persisted before the crash (restart dedupe: the cache
    // answers, the simulator never re-runs).
    if let Some(hit) = state.cache.peek(&spec.key) {
        unregister(state);
        finish_done(state, job_id, hit, true, 0, 1);
        return;
    }

    // Quarantined retry loop: every attempt runs under `catch_unwind`, so a
    // worker panic becomes a recorded failure instead of a dead slot. Panics
    // are treated as transient up to the retry budget (with exponential
    // backoff); simulation *errors* are deterministic and never retried.
    let t0 = Instant::now();
    let mut attempt: u32 = 0;
    let outcome = loop {
        let run = catch_unwind(AssertUnwindSafe(|| {
            attempt_job(state, &spec, attempt, &interrupt)
        }));
        match run {
            Ok(Ok(trace)) => break Ok(trace),
            Ok(Err(e)) => break Err(JobFailure::Error(e)),
            Err(panic) => {
                let msg = panic_message(panic);
                // An interrupt that raced with a panicking attempt wins: the
                // client canceled (or the watchdog fired), so the job ends as
                // interrupted — not quarantined as a panic failure.
                if interrupt.load(Ordering::SeqCst) {
                    break Err(JobFailure::Error(RunError::Interrupted));
                }
                if attempt + 1 < MAX_ATTEMPTS {
                    state.stats.retries.fetch_add(1, Ordering::Relaxed);
                    // Backoff sleeps in slices, watching the interrupt flag:
                    // a cancel or watchdog deadline landing *between*
                    // attempts must end the job as interrupted, not burn
                    // another attempt and quarantine as a panic failure.
                    if backoff_interrupted(
                        &interrupt,
                        Duration::from_millis(RETRY_BACKOFF_MS << attempt),
                    ) {
                        break Err(JobFailure::Error(RunError::Interrupted));
                    }
                    attempt += 1;
                    continue;
                }
                state.stats.quarantined.fetch_add(1, Ordering::Relaxed);
                break Err(JobFailure::Panic(msg));
            }
        }
    };
    let wall_ms = t0.elapsed().as_millis() as u64;
    unregister(state);

    match outcome {
        Ok(trace) => {
            let fingerprint = spec.key.fingerprint();
            // Persistence order is spans → result → `completed` journal
            // event, so each durable fact implies the ones before it: a
            // crash after any prefix re-enqueues the job on restart, the
            // re-run is deduped by the cache (result durable) or re-ingested
            // idempotently (spans only), and a journaled completion always
            // has both its result and its span record on disk.
            if let Some(spans) = state.spans.get() {
                if let Err(e) = spans.ingest(&span_record(fingerprint, &trace)) {
                    eprintln!("pasm-serve: span store write failed: {e}");
                }
            }
            let result = Arc::new(trace.result);
            if let Some(d) = state.durability.get() {
                if let Err(e) = d.store.append(fingerprint, &result) {
                    eprintln!("pasm-serve: result store write failed: {e}");
                }
            }
            state.cache.insert(spec.key, Arc::clone(&result));
            finish_done(state, job_id, result, false, wall_ms, attempt + 1);
        }
        Err(failure) => finish_failed(state, job_id, failure, wall_ms, attempt + 1),
    }
}

/// Sleep out a retry backoff in slices, returning early — and `true` — the
/// moment the job's interrupt flag trips.
fn backoff_interrupted(interrupt: &AtomicBool, total: Duration) -> bool {
    let slice = Duration::from_millis(5);
    let deadline = Instant::now() + total;
    loop {
        if interrupt.load(Ordering::SeqCst) {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        thread::sleep(slice.min(deadline - now));
    }
}

fn finish_done(
    state: &AppState,
    job_id: u64,
    result: Arc<ExperimentResult>,
    cache_hit: bool,
    wall_ms: u64,
    attempts: u32,
) {
    {
        let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job) = jobs.get_mut(&job_id) else {
            return;
        };
        job.status = JobStatus::Done;
        job.cached = cache_hit;
        job.wall_ms = wall_ms;
        job.attempts = attempts;
        job.result = Some(Arc::clone(&result));
    }
    state.stats.count(JobStatus::Done);
    state
        .stats
        .record_completion(job_id, &result, wall_ms, cache_hit);
    with_journal(state, |j| j.terminal("completed", job_id));
}

fn finish_failed(state: &AppState, job_id: u64, failure: JobFailure, wall_ms: u64, attempts: u32) {
    let terminal;
    {
        let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job) = jobs.get_mut(&job_id) else {
            return;
        };
        job.wall_ms = wall_ms;
        job.attempts = attempts;
        match failure {
            // An interrupted run is whatever the interrupter meant it to be:
            // a client cancellation or a watchdog deadline.
            JobFailure::Error(RunError::Interrupted) if job.cancel_requested => {
                job.status = JobStatus::Canceled;
                job.error = Some("canceled while running".to_string());
                state.stats.count(JobStatus::Canceled);
            }
            JobFailure::Error(RunError::Interrupted) if job.watchdog_fired => {
                job.status = JobStatus::Failed;
                job.error = Some("deadline exceeded while running".to_string());
                state.stats.count(JobStatus::Failed);
            }
            JobFailure::Error(e) => {
                job.status = JobStatus::Failed;
                job.error = Some(format!("simulation error: {e}"));
                state.stats.count(JobStatus::Failed);
            }
            JobFailure::Panic(msg) => {
                job.status = JobStatus::Failed;
                job.error = Some(format!("simulation panicked: {msg}"));
                state.stats.count(JobStatus::Failed);
            }
        }
        terminal = if job.status == JobStatus::Canceled {
            "canceled"
        } else {
            "failed"
        };
    }
    with_journal(state, |j| j.terminal(terminal, job_id));
}

/// Fsync the durable logs' appends that an `interval` fsync policy has
/// left unsynced for longer than the interval: without this, the last
/// records before a quiet period would wait for the next append. A no-op
/// under `always` and `never`. A failed fsync leaves the log dirty, so the
/// next append (which reports its error) or the drain tries again.
fn sync_due_logs(state: &AppState) {
    if let Some(d) = state.durability.get() {
        let _ = d.store.sync_due();
        let _ = d.journal.sync_due();
    }
    if let Some(spans) = state.spans.get() {
        let _ = spans.sync_due();
    }
}

/// One watchdog sweep: trip the interrupt of every running job whose
/// wall-clock deadline has passed.
fn fire_watchdog(state: &AppState) {
    let mut fired = Vec::new();
    {
        let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        for (&id, job) in jobs.iter_mut() {
            if job.status == JobStatus::Running && !job.watchdog_fired {
                if let Some(deadline_ms) = job.spec.deadline_ms {
                    if job.submitted_at.elapsed() >= Duration::from_millis(deadline_ms) {
                        job.watchdog_fired = true;
                        fired.push(id);
                    }
                }
            }
        }
    }
    let interrupts = state.interrupts.lock().unwrap_or_else(|e| e.into_inner());
    for id in fired {
        state
            .stats
            .watchdog_timeouts
            .fetch_add(1, Ordering::Relaxed);
        if let Some(flag) = interrupts.get(&id) {
            flag.store(true, Ordering::SeqCst);
        }
    }
}

// ----------------------------------------------------------------------
// HTTP path
// ----------------------------------------------------------------------

fn handle_connection(state: &AppState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let response = match read_request(&mut stream) {
        Ok(req) => {
            // `/metrics` is the one non-JSON endpoint: Prometheus text.
            if req.method == "GET" && req.path == "/metrics" {
                let _ = write_text(
                    &mut stream,
                    200,
                    metrics::CONTENT_TYPE,
                    &metrics::exposition(state),
                );
                return;
            }
            route(state, &req)
        }
        Err(e) => (400, error_body("bad_request", &e.to_string())),
    };
    let _ = write_json(&mut stream, response.0, &response.1);
}

fn route(state: &AppState, req: &Request) -> (u16, Json) {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("POST", "/submit") => submit(state, &req.body),
        ("GET", "/healthz") => healthz(state),
        ("GET", "/stats") => (200, metrics::stats_json(state)),
        ("GET", "/results") => results_list(state, req),
        ("GET", "/sweep/phases") => sweep_phases(state, req),
        ("GET", _) if path.starts_with("/spans/") => {
            span_get(state, path.strip_prefix("/spans/").unwrap_or(""))
        }
        ("GET", _) if path.starts_with("/status/") => {
            with_job_id(path, "/status/", |id| status(state, id))
        }
        // `/result/<16 hex digits>` is a content-addressed cache lookup;
        // any other tail is a job id (ids start at 1, so a 16-digit decimal
        // id can never occur in practice).
        ("GET", _) if path.starts_with("/result/") => {
            let tail = path.strip_prefix("/result/").unwrap_or("");
            match parse_fingerprint(tail) {
                Some(fp) => result_by_fingerprint(state, fp),
                None => with_job_id(path, "/result/", |id| result(state, id)),
            }
        }
        ("POST", _) if path.starts_with("/cancel/") => {
            with_job_id(path, "/cancel/", |id| cancel(state, id))
        }
        (
            "POST" | "GET",
            "/submit" | "/healthz" | "/stats" | "/metrics" | "/results" | "/sweep/phases",
        ) => (
            405,
            error_body("method_not_allowed", "wrong method for this endpoint"),
        ),
        _ => (404, error_body("not_found", "unknown endpoint")),
    }
}

/// Parse an exactly-16-hex-digit store fingerprint (`None` otherwise).
fn parse_fingerprint(tail: &str) -> Option<u64> {
    (tail.len() == 16 && tail.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| u64::from_str_radix(tail, 16).ok())
        .flatten()
}

fn with_job_id(path: &str, prefix: &str, f: impl FnOnce(u64) -> (u16, Json)) -> (u16, Json) {
    match path
        .strip_prefix(prefix)
        .and_then(|s| s.parse::<u64>().ok())
    {
        Some(id) => f(id),
        None => (400, error_body("bad_request", "job id must be an integer")),
    }
}

fn submit(state: &AppState, body: &str) -> (u16, Json) {
    if state.draining.load(Ordering::SeqCst) {
        return (503, error_body("shutting_down", "server is draining"));
    }
    if state.recovering.load(Ordering::SeqCst) {
        return (
            503,
            error_body("recovering", "server is replaying its durable logs"),
        );
    }
    let parsed = match pasm_util::json::parse(body) {
        Ok(v) => v,
        Err(e) => return (400, error_body("bad_request", &e.to_string())),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(spec) => spec,
        Err(BadRequest { message }) => return (400, error_body("bad_request", &message)),
    };
    state.stats.submitted.fetch_add(1, Ordering::Relaxed);
    if !spec.key.fault.is_empty() {
        state.stats.fault_jobs.fetch_add(1, Ordering::Relaxed);
    }
    let fingerprint = format!("{:016x}", spec.key.fingerprint());

    // Cache hit: the job completes at submission time, no queue involved.
    if let Some(hit) = state.cache.get(&spec.key) {
        let job_id = state.next_id.fetch_add(1, Ordering::Relaxed);
        let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.insert(
            job_id,
            Job {
                spec,
                status: JobStatus::Done,
                cached: true,
                error: None,
                submitted_at: Instant::now(),
                result: Some(Arc::clone(&hit)),
                wall_ms: 0,
                attempts: 0,
                cancel_requested: false,
                watchdog_fired: false,
            },
        );
        drop(jobs);
        state.stats.count(JobStatus::Done);
        state.stats.record_completion(job_id, &hit, 0, true);
        return (
            200,
            Json::obj(vec![
                ("job_id", Json::Int(job_id as i64)),
                ("status", Json::Str("done".into())),
                ("cached", Json::Bool(true)),
                ("key", Json::Str(fingerprint)),
                ("result", hit.to_json()),
            ]),
        );
    }

    // Miss: admit into the bounded queue, or push back.
    let job_id = state.next_id.fetch_add(1, Ordering::Relaxed);
    {
        let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
        jobs.insert(
            job_id,
            Job {
                spec,
                status: JobStatus::Queued,
                cached: false,
                error: None,
                submitted_at: Instant::now(),
                result: None,
                wall_ms: 0,
                attempts: 0,
                cancel_requested: false,
                watchdog_fired: false,
            },
        );
    }
    // Journal the submission (with the raw body, for replay) *before* the
    // queue admits it: once a client could learn of this job, the journal
    // already knows. If admission then fails, the entry is closed below.
    with_journal(state, |j| j.submitted(job_id, body));
    if state.queue.try_push(job_id).is_err() {
        state
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&job_id);
        with_journal(state, |j| j.terminal("canceled", job_id));
        state
            .stats
            .rejected_queue_full
            .fetch_add(1, Ordering::Relaxed);
        return (
            429,
            Json::obj(vec![
                ("error", Json::Str("queue_full".into())),
                ("queue_depth", Json::Int(state.queue.capacity() as i64)),
            ]),
        );
    }
    (
        202,
        Json::obj(vec![
            ("job_id", Json::Int(job_id as i64)),
            ("status", Json::Str("queued".into())),
            ("key", Json::Str(fingerprint)),
        ]),
    )
}

fn job_summary(job_id: u64, job: &Job) -> Json {
    let mut fields = vec![
        ("job_id", Json::Int(job_id as i64)),
        ("status", Json::Str(job.status.as_str().into())),
        ("cached", Json::Bool(job.cached)),
        ("mode", job.spec.key.mode.to_json()),
        ("kernel", Json::Str(job.spec.key.workload.into())),
        ("n", Json::Int(job.spec.key.params.n as i64)),
        ("p", Json::Int(job.spec.key.params.p as i64)),
        (
            "key",
            Json::Str(format!("{:016x}", job.spec.key.fingerprint())),
        ),
    ];
    if !job.spec.key.fault.is_empty() {
        fields.push(("fault", Json::Str(job.spec.key.fault.to_string())));
    }
    if job.attempts > 1 {
        fields.push(("attempts", Json::Int(job.attempts as i64)));
    }
    if job.cancel_requested && !job.status.is_terminal() {
        fields.push(("cancel_requested", Json::Bool(true)));
    }
    if let Some(err) = &job.error {
        fields.push(("message", Json::Str(err.clone())));
    }
    Json::obj(fields)
}

fn status(state: &AppState, job_id: u64) -> (u16, Json) {
    let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    match jobs.get(&job_id) {
        Some(job) => (200, job_summary(job_id, job)),
        None => (404, error_body("not_found", "unknown job id")),
    }
}

fn result(state: &AppState, job_id: u64) -> (u16, Json) {
    let jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let Some(job) = jobs.get(&job_id) else {
        return (404, error_body("not_found", "unknown job id"));
    };
    match job.status {
        JobStatus::Done => (
            200,
            Json::obj(vec![
                ("job_id", Json::Int(job_id as i64)),
                ("cached", Json::Bool(job.cached)),
                ("wall_ms", Json::Int(job.wall_ms as i64)),
                (
                    "result",
                    job.result.as_ref().expect("done job has result").to_json(),
                ),
            ]),
        ),
        JobStatus::Queued | JobStatus::Running => (202, job_summary(job_id, job)),
        JobStatus::Failed => (
            500,
            error_body(
                "job_failed",
                job.error.as_deref().unwrap_or("simulation failed"),
            ),
        ),
        JobStatus::Canceled => (409, error_body("canceled", "job was canceled")),
        JobStatus::Expired => (
            409,
            error_body("expired", "job deadline passed before it ran"),
        ),
    }
}

// ----------------------------------------------------------------------
// Query tier: `/results`, `/spans/<fp>`, `/sweep/phases`, `/result/<fp>`
// ----------------------------------------------------------------------

/// The query tier's store, or the 503 to answer while startup replay is
/// still rebuilding its index.
fn span_store(state: &AppState) -> Result<&SpanStore, (u16, Json)> {
    state.spans.get().ok_or((
        503,
        error_body("recovering", "server is replaying its durable logs"),
    ))
}

/// One `/results` row: the run summary with its fingerprint up front.
fn result_row_json(fingerprint: u64, summary: &RunSummary) -> Json {
    let Json::Obj(mut members) = summary.to_json() else {
        unreachable!("run summaries serialize to objects")
    };
    members.insert(
        0,
        ("fp".to_string(), Json::Str(format!("{fingerprint:016x}"))),
    );
    Json::Obj(members)
}

fn results_list(state: &AppState, req: &Request) -> (u16, Json) {
    let store = match span_store(state) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    state.stats.results_queries.fetch_add(1, Ordering::Relaxed);
    let mut query = ResultsQuery {
        workload: req.query_param("workload").map(str::to_string),
        ..ResultsQuery::default()
    };
    if let Some(m) = req.query_param("mode") {
        // Accept any spelling `Mode::parse` does; filter on the canonical
        // label the store indexes.
        let Some(mode) = Mode::parse(m) else {
            return (400, error_body("bad_request", "unknown mode"));
        };
        query.mode = Some(mode_label(mode));
    }
    if let Some(raw) = req.query_param("p") {
        let Ok(v) = raw.parse::<u64>() else {
            return (
                400,
                error_body("bad_request", "`p` must be a non-negative integer"),
            );
        };
        query.p = Some(v);
    }
    if let Some(raw) = req.query_param("offset") {
        let Ok(v) = raw.parse::<usize>() else {
            return (
                400,
                error_body("bad_request", "`offset` must be a non-negative integer"),
            );
        };
        query.offset = v;
    }
    if let Some(raw) = req.query_param("limit") {
        let Ok(v) = raw.parse::<usize>() else {
            return (
                400,
                error_body("bad_request", "`limit` must be a non-negative integer"),
            );
        };
        query.limit = Some(v);
    }
    let page = store.list(&query);
    (
        200,
        Json::obj(vec![
            ("total", Json::Int(page.total as i64)),
            ("offset", Json::Int(query.offset as i64)),
            ("count", Json::Int(page.rows.len() as i64)),
            (
                "rows",
                Json::Arr(
                    page.rows
                        .iter()
                        .map(|r| result_row_json(r.fingerprint, &r.summary))
                        .collect(),
                ),
            ),
        ]),
    )
}

fn span_get(state: &AppState, tail: &str) -> (u16, Json) {
    let store = match span_store(state) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    state.stats.span_queries.fetch_add(1, Ordering::Relaxed);
    let Some(fingerprint) = parse_fingerprint(tail) else {
        return (
            400,
            error_body("bad_request", "span fingerprint must be 16 hex digits"),
        );
    };
    match store.get(fingerprint) {
        Ok(Some(record)) => (200, record.to_json()),
        // Unknown fingerprint and damaged-since-indexing bytes answer the
        // same way: there is nothing servable under this name.
        Ok(None) => {
            state.stats.span_misses.fetch_add(1, Ordering::Relaxed);
            (404, error_body("not_found", "unknown span fingerprint"))
        }
        Err(e) => (500, error_body("store_error", &e.to_string())),
    }
}

fn sweep_phases(state: &AppState, req: &Request) -> (u16, Json) {
    let store = match span_store(state) {
        Ok(s) => s,
        Err(resp) => return resp,
    };
    state.stats.sweep_queries.fetch_add(1, Ordering::Relaxed);
    let Some(workload) = req.query_param("workload") else {
        return (
            400,
            error_body("bad_request", "`workload` query parameter is required"),
        );
    };
    let mode = match req.query_param("mode") {
        Some(m) => match Mode::parse(m) {
            Some(mode) => Some(mode_label(mode)),
            None => return (400, error_body("bad_request", "unknown mode")),
        },
        None => None,
    };
    let groups = store.phase_sweep(workload, mode.as_deref());
    (
        200,
        Json::obj(vec![
            ("workload", Json::Str(workload.to_string())),
            (
                "groups",
                Json::Arr(
                    groups
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("mode", Json::Str(g.mode.clone())),
                                ("p", Json::Int(g.p as i64)),
                                ("runs", Json::Int(g.runs as i64)),
                                ("total_cycles", Json::Int(g.total_cycles as i64)),
                                (
                                    "phases",
                                    Json::Arr(
                                        g.phases
                                            .iter()
                                            .map(|ph| {
                                                Json::obj(vec![
                                                    ("name", Json::Str(ph.name.clone())),
                                                    ("cycles", Json::Int(ph.cycles as i64)),
                                                    ("share", Json::Float(ph.share)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    )
}

/// Content-addressed result lookup: `GET /result/<16 hex digits>` answers
/// from the cache (which startup replay seeds from the durable store) —
/// an unknown fingerprint is a JSON 404, never a re-simulation.
fn result_by_fingerprint(state: &AppState, fingerprint: u64) -> (u16, Json) {
    match state.cache.peek_fingerprint(fingerprint) {
        Some(result) => (
            200,
            Json::obj(vec![
                ("key", Json::Str(format!("{fingerprint:016x}"))),
                ("cached", Json::Bool(true)),
                ("result", result.to_json()),
            ]),
        ),
        None => (404, error_body("not_found", "unknown result fingerprint")),
    }
}

fn cancel(state: &AppState, job_id: u64) -> (u16, Json) {
    let mut jobs = state.jobs.lock().unwrap_or_else(|e| e.into_inner());
    let Some(job) = jobs.get_mut(&job_id) else {
        return (404, error_body("not_found", "unknown job id"));
    };
    match job.status {
        JobStatus::Queued => {
            // A job still in the queue cancels immediately; if a worker has
            // already popped it, it is effectively running — fall through to
            // the cooperative path below.
            if state.queue.remove(job_id) {
                job.status = JobStatus::Canceled;
                state.stats.count(JobStatus::Canceled);
                with_journal(state, |j| j.terminal("canceled", job_id));
                (200, job_summary(job_id, job))
            } else {
                request_running_cancel(state, job_id, job)
            }
        }
        JobStatus::Running => request_running_cancel(state, job_id, job),
        // Terminal states: cancellation is a no-op, report the state.
        _ => (200, job_summary(job_id, job)),
    }
}

/// Cancel a job a worker is executing: trip its interrupt flag and let the
/// simulation stop at its next scheduler check. The response is 202 — the
/// job transitions to `canceled` asynchronously, when the worker notices.
fn request_running_cancel(state: &AppState, job_id: u64, job: &mut Job) -> (u16, Json) {
    job.cancel_requested = true;
    let interrupts = state.interrupts.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(flag) = interrupts.get(&job_id) {
        flag.store(true, Ordering::SeqCst);
    }
    (202, job_summary(job_id, job))
}

fn healthz(state: &AppState) -> (u16, Json) {
    let draining = state.draining.load(Ordering::SeqCst);
    // Readiness vs. liveness: while the startup replay runs the process is
    // alive but not ready — 503 tells orchestrators to hold traffic.
    let recovering = state.recovering.load(Ordering::SeqCst);
    let status = if recovering {
        "recovering"
    } else if draining {
        "draining"
    } else {
        "ok"
    };
    (
        if recovering { 503 } else { 200 },
        Json::obj(vec![
            ("status", Json::Str(status.into())),
            ("workers", Json::Int(state.workers as i64)),
            ("queue_len", Json::Int(state.queue.len() as i64)),
            ("queue_depth", Json::Int(state.queue.capacity() as i64)),
            (
                "jobs",
                Json::Int(state.jobs.lock().unwrap_or_else(|e| e.into_inner()).len() as i64),
            ),
        ]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn request_head_past_the_cap_gets_400() {
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let flood = thread::spawn(move || {
            let mut head = b"GET /healthz HTTP/1.1\r\nX-Long: ".to_vec();
            head.resize(head.len() + (1 << 20) + 1, b'a');
            // The server stops reading at the cap, so this write may fail.
            let _ = writer.write_all(&head);
        });
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
        assert!(response.contains("bad_request"), "{response}");
        flood.join().unwrap();
    }
}
