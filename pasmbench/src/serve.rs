//! The `serve-mixed` workload: an in-process durable `pasm_server::Server`
//! (`fsync` = `always`, 2 workers) driven over HTTP by one closed-loop
//! client.
//!
//! Each round sends one cold submit of a fresh small cell and polls it to
//! `done`, resubmits it twice (cache hits), and makes three reads:
//! `/results`, `/spans/<fp>` and `/sweep/phases`. Set-up fills the store
//! with one cold job per cell at the pin seed and restarts the server, so
//! `setup_s` includes the write-ahead-log replay.

use crate::cells::{self, mode_name, Cell, SeedStream, PIN_SEED};
use crate::gate::{self, Pins};
use crate::measure::{self, Samples, Windows};
use crate::sim::{self, SimCounts, SETUPS};
use crate::trace::{self, Tracer};
use crate::{Args, Report};
use pasm::ExperimentResult;
use pasm_server::{
    FsyncPolicy, JobJournal, JobSpec, ResultCache, ResultStore, Server, ServerConfig,
};
use pasm_store::{ResultsQuery, RunSummary, SpanRecord, SpanStore};
use pasm_util::{json, Json, ToJson};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Simulation workers of the server under test.
const WORKERS: usize = 2;
/// Rows asked of each `/results` query.
const LIST_LIMIT: usize = 20;
/// Cold keys the traced run replays through the library calls.
const REPLAY_MAX: usize = 64;

/// A reply's status code and body, or the transport error.
type Reply = Result<(u16, String), String>;

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Reply {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(io)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .map_err(io)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(io)?;
    let code = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status line"))?;
    let payload = raw.split_once("\r\n\r\n").map_or("", |(_, p)| p);
    Ok((code, payload.to_string()))
}

fn get_json(addr: SocketAddr, path: &str) -> Result<Json, String> {
    match request(addr, "GET", path, "")? {
        (200, payload) => json::parse(&payload).map_err(|e| format!("GET {path}: {e}")),
        (code, payload) => Err(format!("GET {path}: {code} {payload}")),
    }
}

fn field_u64(v: &Json, path: &[&str]) -> u64 {
    let mut v = v;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return 0,
        }
    }
    v.as_u64().unwrap_or(0)
}

fn start(dir: &Path) -> Result<Server, String> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: WORKERS,
        queue_depth: 256,
        data_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs(60);
    while request(server.addr(), "GET", "/healthz", "")?.0 != 200 {
        if Instant::now() > deadline {
            return Err("server never became ready".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(server)
}

/// Submit `body` through `req`; returns the job id of a queued (cold) job.
fn submit_cold(req: &mut impl FnMut(&str, &str, &str) -> Reply, body: &str) -> Result<u64, String> {
    match req("POST", "/submit", body)? {
        (202, payload) => json::parse(&payload)
            .ok()
            .and_then(|v| v.get("job_id")?.as_u64())
            .ok_or_else(|| format!("submit: no job id in {payload}")),
        (code, payload) => Err(format!("cold submit answered {code}: {payload}")),
    }
}

/// Poll job `id` through `req` until it is done, counting the polls; the
/// final status reply.
fn poll_done(req: &mut impl FnMut(&str, &str, &str) -> Reply, id: u64, polls: &mut u64) -> Reply {
    loop {
        let (code, payload) = req("GET", &format!("/status/{id}"), "")?;
        *polls += 1;
        let status = json::parse(&payload)
            .ok()
            .and_then(|v| Some(v.get("status")?.as_str()?.to_string()))
            .unwrap_or_default();
        match (code, status.as_str()) {
            (200, "queued" | "running") => {}
            (200, "done") => return Ok((code, payload)),
            _ => return Err(format!("job {id}: {code} {payload}")),
        }
    }
}

/// Parse a submit/result payload's `result` member.
fn parse_result(payload: &str) -> Result<ExperimentResult, String> {
    let v = json::parse(payload).map_err(|e| e.to_string())?;
    ExperimentResult::from_json(v.get("result").ok_or("no result member")?)
}

struct Setup {
    server: Server,
    dir: PathBuf,
    recovery_ms: f64,
    /// Pin failures by cell index.
    bad: BTreeMap<usize, String>,
}

/// Fill a fresh data dir with every cell's pinned run, then restart.
fn setup(args: &Args, cells: &[Cell], pins: &Pins, round: usize) -> Result<Setup, String> {
    let dir = args
        .out_dir
        .join(format!("serve-data-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut server = start(&dir)?;
    let addr = server.addr();
    let mut req = |method: &str, path: &str, body: &str| request(addr, method, path, body);
    let ids = cells
        .iter()
        .map(|c| submit_cold(&mut req, &c.body(PIN_SEED)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut bad = BTreeMap::new();
    for (i, (cell, id)) in cells.iter().zip(ids).enumerate() {
        poll_done(&mut req, id, &mut 0)?;
        let checked = match request(addr, "GET", &format!("/result/{id}"), "")? {
            (200, payload) => parse_result(&payload).and_then(|r| pins.check(cell, &r)),
            (code, payload) => Err(format!("result {id}: {code} {payload}")),
        };
        if let Err(e) = checked {
            bad.insert(i, e);
        }
    }
    server.shutdown();
    drop(server);
    let server = start(&dir)?;
    let stats = get_json(server.addr(), "/stats")?;
    if field_u64(&stats, &["durability", "results_replayed"]) != cells.len() as u64 {
        return Err(format!("restart replayed {stats:?}"));
    }
    Ok(Setup {
        server,
        dir,
        recovery_ms: field_u64(&stats, &["durability", "recovery_ms"]) as f64,
        bad,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Cold,
    Hit,
    Results,
    Spans,
    Sweep,
}

/// One client operation, kept for the checks after the loop.
struct Op {
    class: Class,
    /// Cycle over all cells the operation ran in.
    window: usize,
    cell: usize,
    seed: u64,
    ms: f64,
    /// Status code and payload, or the transport error.
    reply: Reply,
    /// The count the reply must report (`/results` total, `/sweep` runs).
    expect: u64,
}

/// What the closed loop did.
#[derive(Default)]
struct LoopOut {
    ops: Vec<Op>,
    /// Wall time of each cycle over all cells, in seconds.
    windows: Vec<f64>,
    polls: u64,
    threads_peak: u64,
}

/// Cold keys stored so far: by (kernel, mode) and by kernel.
#[derive(Default)]
struct Stored {
    by_mode: BTreeMap<(&'static str, &'static str), u64>,
    by_kernel: BTreeMap<&'static str, u64>,
}

impl Stored {
    fn new(cells: &[Cell]) -> Stored {
        let mut s = Stored::default();
        for c in cells {
            s.add(c);
        }
        s
    }

    fn add(&mut self, c: &Cell) {
        *self
            .by_mode
            .entry((c.kernel.name(), mode_name(c.mode)))
            .or_default() += 1;
        *self.by_kernel.entry(c.kernel.name()).or_default() += 1;
    }
}

/// One request; when tracing, in its own span and followed by a sample of
/// the process's thread count into `threads_peak`.
fn timed(
    tracer: &mut Option<&mut Tracer>,
    threads_peak: &mut u64,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Reply {
    match tracer {
        Some(t) => {
            let reply = t.span("http.request", |_| request(addr, method, path, body));
            *threads_peak = (*threads_peak).max(measure::threads_now());
            reply
        }
        None => request(addr, method, path, body),
    }
}

fn in_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce(&mut Option<&mut Tracer>) -> R,
) -> R {
    match tracer.take() {
        Some(t) => {
            let r = t.span(name, |t| f(&mut Some(t)));
            *tracer = Some(t);
            r
        }
        None => f(tracer),
    }
}

/// Cycles of one round per cell until `seconds` have passed (at least
/// one cycle).
fn op_loop(
    addr: SocketAddr,
    cells: &[Cell],
    seeds: &mut SeedStream,
    stored: &mut Stored,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> LoopOut {
    let mut out = LoopOut::default();
    let t_loop = Instant::now();
    let mut t_window = Instant::now();
    let mut round = 0usize;
    loop {
        let ci = round % cells.len();
        let window = out.windows.len();
        round += 1;
        let cell = &cells[ci];
        let seed = seeds.next_seed();
        let body = cell.body(seed);
        let fp = format!("{:016x}", cell.key(seed).fingerprint());
        let op = |class, ms, reply, expect| Op {
            class,
            window,
            cell: ci,
            seed,
            ms,
            reply,
            expect,
        };

        let t0 = Instant::now();
        let cold = in_span(&mut tracer, "serve.cold", |t| {
            let mut req =
                |m: &str, p: &str, b: &str| timed(t, &mut out.threads_peak, addr, m, p, b);
            let id = submit_cold(&mut req, &body)?;
            poll_done(&mut req, id, &mut out.polls)
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if cold.is_ok() {
            stored.add(cell);
        }
        out.ops.push(op(Class::Cold, ms, cold, 0));

        for _ in 0..2 {
            let t0 = Instant::now();
            let reply = in_span(&mut tracer, "serve.hit", |t| {
                timed(t, &mut out.threads_peak, addr, "POST", "/submit", &body)
            });
            out.ops
                .push(op(Class::Hit, t0.elapsed().as_secs_f64() * 1e3, reply, 0));
        }

        let queries = [
            (
                Class::Results,
                format!(
                    "/results?workload={}&mode={}&limit={LIST_LIMIT}",
                    cell.kernel.name(),
                    mode_name(cell.mode)
                ),
                stored.by_mode[&(cell.kernel.name(), mode_name(cell.mode))],
            ),
            (Class::Spans, format!("/spans/{fp}"), 0),
            (
                Class::Sweep,
                format!("/sweep/phases?workload={}", cell.kernel.name()),
                stored.by_kernel[cell.kernel.name()],
            ),
        ];
        for (class, path, expect) in queries {
            let t0 = Instant::now();
            let reply = in_span(&mut tracer, "serve.query", |t| {
                timed(t, &mut out.threads_peak, addr, "GET", &path, "")
            });
            out.ops
                .push(op(class, t0.elapsed().as_secs_f64() * 1e3, reply, expect));
        }

        if round.is_multiple_of(cells.len()) {
            out.windows.push(t_window.elapsed().as_secs_f64());
            t_window = Instant::now();
            if t_loop.elapsed().as_secs_f64() >= seconds {
                return out;
            }
        }
    }
}

/// Check every operation's reply; returns each cold key's result (by the
/// index of its cold op) for the throughput count and the replay.
fn check_ops(
    cells: &[Cell],
    bad: &BTreeMap<usize, String>,
    ops: &[Op],
    report: &mut Report,
) -> BTreeMap<usize, ExperimentResult> {
    let mut results = BTreeMap::new();
    let mut last_cold = 0;
    for (i, op) in ops.iter().enumerate() {
        if op.class == Class::Cold {
            last_cold = i;
        }
        let cell = &cells[op.cell];
        let checked = (|| -> Result<(), String> {
            if let Some(e) = bad.get(&op.cell) {
                return Err(e.clone());
            }
            let (code, payload) = op.reply.as_ref().map_err(Clone::clone)?;
            let parsed = || json::parse(payload).map_err(|e| e.to_string());
            match op.class {
                Class::Cold => Ok(()),
                Class::Hit => {
                    let v = parsed()?;
                    if *code != 200 || v.get("cached").and_then(Json::as_bool) != Some(true) {
                        return Err(format!("hit answered {code}: {payload}"));
                    }
                    let r = parse_result(payload)?;
                    gate::check_result(cell, op.seed, &r, gate::reference_checksum(cell, op.seed))?;
                    match results.get(&last_cold) {
                        Some(first) if gate::digest(first) != gate::digest(&r) => {
                            Err("the two hits disagree".to_string())
                        }
                        Some(_) => Ok(()),
                        None => {
                            results.insert(last_cold, r);
                            Ok(())
                        }
                    }
                }
                Class::Results => {
                    let v = parsed()?;
                    let total = field_u64(&v, &["total"]);
                    let rows = v
                        .get("rows")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len);
                    if *code != 200
                        || total != op.expect
                        || rows as u64 != total.min(LIST_LIMIT as u64)
                    {
                        return Err(format!(
                            "/results: {code}, total {total} rows {rows}, expected {}",
                            op.expect
                        ));
                    }
                    Ok(())
                }
                Class::Spans => {
                    if *code != 200 {
                        return Err(format!("/spans: {code} {payload}"));
                    }
                    let record = SpanRecord::from_json(&parsed()?)?;
                    let want = cell.key(op.seed).fingerprint();
                    let cycles = results.get(&last_cold).map(|r| r.cycles);
                    if record.fingerprint != want || Some(record.summary.cycles) != cycles {
                        return Err(format!("/spans/{want:016x}: record names another run"));
                    }
                    Ok(())
                }
                Class::Sweep => {
                    let v = parsed()?;
                    let runs: u64 = v
                        .get("groups")
                        .and_then(Json::as_arr)
                        .map_or(0, |g| g.iter().map(|g| field_u64(g, &["runs"])).sum());
                    if *code != 200 || runs != op.expect {
                        return Err(format!(
                            "/sweep/phases: {code}, {runs} runs, expected {}",
                            op.expect
                        ));
                    }
                    Ok(())
                }
            }
        })();
        report.op(checked);
    }
    results
}

fn samples(ops: &[Op], keep: impl Fn(Class) -> bool) -> Samples {
    let mut s = Samples::default();
    for op in ops.iter().filter(|o| keep(o.class)) {
        s.push(op.ms);
    }
    s
}

pub fn run(args: &Args) -> Result<Report, String> {
    let cells = cells::cells(args.workload, args.scale);
    let pins = Pins::builtin();
    let mut setup_s = Vec::new();
    let mut recovery_ms = Vec::new();
    let mut last = None;
    for round in 0..SETUPS {
        if let Some(Setup {
            mut server, dir, ..
        }) = last.take()
        {
            server.shutdown();
            drop(server);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = Instant::now();
        let s = setup(args, &cells, &pins, round)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        recovery_ms.push(s.recovery_ms);
        last = Some(s);
    }
    let Setup {
        mut server,
        dir,
        bad,
        ..
    } = last.expect("at least one set-up");
    let mut seeds = SeedStream::new(args.workload, args.seed);
    let mut stored = Stored::new(&cells);
    let addr = server.addr();

    let mut report = Report::default();
    if args.trace {
        traced(
            args,
            &cells,
            &bad,
            &mut seeds,
            &mut stored,
            addr,
            &mut report,
            &recovery_ms,
        )?;
    } else {
        let out = op_loop(addr, &cells, &mut seeds, &mut stored, args.seconds, None);
        let results = check_ops(&cells, &bad, &out.ops, &mut report);
        let all = samples(&out.ops, |_| true);
        let cold = samples(&out.ops, |c| c == Class::Cold);
        let hit = samples(&out.ops, |c| c == Class::Hit);
        let query = samples(&out.ops, |c| !matches!(c, Class::Cold | Class::Hit));
        // Per window: operations and simulated PE instructions.
        let mut per_window = vec![(0.0, 0.0); out.windows.len()];
        for (i, op) in out.ops.iter().enumerate() {
            let row = &mut per_window[op.window];
            row.0 += 1.0;
            row.1 += results.get(&i).map_or(0.0, |r| r.pe_instrs as f64);
        }
        let mut instrs = Windows::default();
        for (secs, (n, pe_instrs)) in out.windows.iter().zip(per_window) {
            instrs.push(*secs, n, pe_instrs);
        }
        report.metric("setup_s", measure::median(&setup_s), "s");
        report.metric("peak_rss_mb", measure::peak_rss_mb(), "MB");
        report.metric("sim_minstr_per_s", instrs.rate() / 1e6, "Minstr/s");
        report.metric("ops_per_s", instrs.count_rate(), "1/s");
        let mut groups: BTreeMap<(usize, Class), Vec<f64>> = BTreeMap::new();
        for op in &out.ops {
            groups.entry((op.cell, op.class)).or_default().push(op.ms);
        }
        let gmean = measure::median_gmean(groups.values().map(Vec::as_slice));
        report.metric("op_ms_gmean", gmean, "ms");
        report.metric("op_ms_p90", all.quantile(0.9), "ms");
        report.samples = vec![
            ("op_ms".into(), all.len() as u64),
            ("cold_ms".into(), cold.len() as u64),
            ("hit_ms".into(), hit.len() as u64),
            ("query_ms".into(), query.len() as u64),
            ("windows".into(), out.windows.len() as u64),
            ("setup_s".into(), setup_s.len() as u64),
        ];
        report.details = vec![
            ("op_ms_p50".into(), all.quantile(0.5)),
            ("cold_ms_p50".into(), cold.quantile(0.5)),
            ("cold_ms_p90".into(), cold.quantile(0.9)),
            ("hit_ms_p50".into(), hit.quantile(0.5)),
            ("query_ms_p50".into(), query.quantile(0.5)),
            ("query_ms_p90".into(), query.quantile(0.9)),
            (
                "polls_per_cold".into(),
                out.polls as f64 / cold.len().max(1) as f64,
            ),
            ("recovery_ms".into(), measure::median(&recovery_ms)),
            ("loop_s".into(), out.windows.iter().sum()),
        ];
    }
    server.shutdown();
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
    Ok(report)
}

/// The `/stats` counters a cold job moves, as a difference between two
/// snapshots.
#[derive(Debug, Clone, Copy)]
struct Counters {
    /// Fsyncs and appends across the journal, result store and span store.
    fsyncs: u64,
    appends: u64,
    sim_runs: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl Counters {
    fn read(addr: SocketAddr) -> Result<Counters, String> {
        let s = get_json(addr, "/stats")?;
        let across = |what: &str| {
            field_u64(&s, &["durability", &format!("store_{what}")])
                + field_u64(&s, &["durability", &format!("journal_{what}")])
                + field_u64(&s, &["span_store", what])
        };
        Ok(Counters {
            fsyncs: across("fsyncs"),
            appends: across("appends"),
            sim_runs: field_u64(&s, &["sim_runs"]),
            cache_hits: field_u64(&s, &["cache", "hits"]),
            cache_misses: field_u64(&s, &["cache", "misses"]),
        })
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            fsyncs: self.fsyncs - before.fsyncs,
            appends: self.appends - before.appends,
            sim_runs: self.sim_runs - before.sim_runs,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

fn span_record(fingerprint: u64, trace: &pasm::ExperimentTrace) -> SpanRecord {
    let r = &trace.result;
    SpanRecord {
        fingerprint,
        summary: RunSummary {
            workload: r.workload.to_string(),
            mode: match r.mode.to_json() {
                Json::Str(s) => s,
                other => other.dump(),
            },
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

/// Replay the server's work for one round through the public library
/// calls, each in its own span, on scratch stores with the same records.
struct Replay {
    cache: ResultCache,
    store: ResultStore,
    journal: JobJournal,
    spans: SpanStore,
    next_id: u64,
}

impl Replay {
    fn open(dir: &Path) -> Result<Replay, String> {
        let _ = std::fs::remove_dir_all(dir);
        let io = |e: std::io::Error| format!("replay store: {e}");
        let (store, _) =
            ResultStore::open(&dir.join("results"), FsyncPolicy::Always, None, |_, _| {})
                .map_err(io)?;
        let (journal, _, _) =
            JobJournal::open(&dir.join("journal"), FsyncPolicy::Always, None).map_err(io)?;
        let (spans, _) =
            SpanStore::open(&dir.join("spans"), FsyncPolicy::Always, None).map_err(io)?;
        Ok(Replay {
            cache: ResultCache::new(4096),
            store,
            journal,
            spans,
            next_id: 1,
        })
    }

    fn parse(t: &mut Tracer, body: &str) -> Result<JobSpec, String> {
        t.span("protocol.parse", |_| {
            let v = json::parse(body).map_err(|e| e.to_string())?;
            JobSpec::from_json(&v).map_err(|e| e.message)
        })
    }

    fn round(
        &mut self,
        t: &mut Tracer,
        cell: &Cell,
        seed: u64,
    ) -> Result<ExperimentResult, String> {
        let body = cell.body(seed);
        let io = |e: std::io::Error| e.to_string();
        let id = self.next_id;
        self.next_id += 1;
        let result = t.span("replay.cold", |t| -> Result<_, String> {
            let spec = Self::parse(t, &body)?;
            if t.span("cache.get", |_| self.cache.get(&spec.key)).is_some() {
                return Err("replay key already cached".into());
            }
            t.span("journal.append", |_| self.journal.submitted(id, &body))
                .map_err(io)?;
            t.span("journal.append", |_| self.journal.started(id))
                .map_err(io)?;
            let trace = t
                .span("server.sim", |_| pasm::run_keyed_traced(&spec.key, None))
                .map_err(|e| format!("{e:?}"))?;
            let fp = spec.key.fingerprint();
            let record = span_record(fp, &trace);
            t.span("span_store.ingest", |_| self.spans.ingest(&record))
                .map_err(io)?;
            t.span("result_store.append", |_| {
                self.store.append(fp, &trace.result)
            })
            .map_err(io)?;
            t.span("journal.append", |_| self.journal.terminal("completed", id))
                .map_err(io)?;
            let result = std::sync::Arc::new(trace.result);
            t.span("cache.insert", |_| {
                self.cache.insert(spec.key, result.clone())
            });
            Ok(result)
        })?;
        for _ in 0..2 {
            t.span("replay.hit", |t| -> Result<(), String> {
                let spec = Self::parse(t, &body)?;
                let hit = t
                    .span("cache.get", |_| self.cache.get(&spec.key))
                    .ok_or("replay hit missed")?;
                black_box(t.span("json.encode", |_| hit.to_json().dump()));
                Ok(())
            })?;
        }
        t.span("replay.query", |t| -> Result<(), String> {
            let query = ResultsQuery {
                workload: Some(cell.kernel.name().to_string()),
                mode: Some(result.mode.to_json().as_str().unwrap_or("").to_string()),
                limit: Some(LIST_LIMIT),
                ..ResultsQuery::default()
            };
            black_box(t.span("span_store.list", |_| self.spans.list(&query)));
            let fp = cell.key(seed).fingerprint();
            let record = t
                .span("span_store.get", |_| self.spans.get(fp))
                .map_err(io)?
                .ok_or("replay span record missing")?;
            black_box(t.span("span_store.sweep", |_| {
                self.spans.phase_sweep(cell.kernel.name(), None)
            }));
            let text = t.span("json.encode", |_| record.to_json().dump());
            let back = t
                .span("json.decode", |_| json::parse(&text))
                .map_err(|e| e.to_string())?;
            if SpanRecord::from_json(&back)? != record {
                return Err("span record does not round-trip".into());
            }
            Ok(())
        })?;
        Ok((*result).clone())
    }
}

/// The traced run: an untraced loop for half the time, a traced loop for
/// the other half, then a replay of the traced loop's cold keys through the
/// library calls the server makes.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    cells: &[Cell],
    bad: &BTreeMap<usize, String>,
    seeds: &mut SeedStream,
    stored: &mut Stored,
    addr: SocketAddr,
    report: &mut Report,
    recovery_ms: &[f64],
) -> Result<(), String> {
    let mut healthz = Samples::default();
    for _ in 0..50 {
        let t0 = Instant::now();
        let (code, _) = request(addr, "GET", "/healthz", "")?;
        healthz.push_since(t0);
        if code != 200 {
            return Err(format!("/healthz answered {code}"));
        }
    }
    let plain = op_loop(addr, cells, seeds, stored, args.seconds / 2.0, None);
    let before = Counters::read(addr)?;
    let mut tracer = Tracer::new();
    let traced = op_loop(
        addr,
        cells,
        seeds,
        stored,
        args.seconds / 2.0,
        Some(&mut tracer),
    );
    let moved = Counters::read(addr)?.since(before);

    let mut ops = plain.ops;
    let n_plain = ops.len();
    ops.extend(traced.ops);
    let results = check_ops(cells, bad, &ops, report);
    let cold_b = ops[n_plain..]
        .iter()
        .filter(|o| o.class == Class::Cold)
        .count()
        .max(1) as f64;

    let replay_dir = args
        .out_dir
        .join(format!("replay-data-{}", std::process::id()));
    let mut replay = Replay::open(&replay_dir)?;
    let mut counts = SimCounts::default();
    for (i, served) in results.range(n_plain..).take(REPLAY_MAX) {
        let op = &ops[*i];
        let cell = &cells[op.cell];
        let checked = replay.round(&mut tracer, cell, op.seed).and_then(|r| {
            let direct = sim::decomposed(&mut tracer, &mut counts, cell, op.seed)?;
            if gate::digest(&r) != gate::digest(served)
                || gate::digest(&direct) != gate::digest(served)
            {
                return Err(format!(
                    "{} seed {}: library calls disagree with the server",
                    cell.label(),
                    op.seed
                ));
            }
            Ok(())
        });
        report.op(checked);
    }
    drop(replay);
    let _ = std::fs::remove_dir_all(&replay_dir);

    let mut values = BTreeMap::new();
    counts.metrics(&tracer, &mut values);
    let us = |name: &str| tracer.get(name).mean(1e3);
    let lookups = (moved.cache_hits + moved.cache_misses).max(1);
    values.insert("http.healthz_ms_p50", healthz.quantile(0.5));
    values.insert("protocol.parse_us", us("protocol.parse"));
    values.insert("cache.get_us", us("cache.get"));
    values.insert("cache.hit_ratio", moved.cache_hits as f64 / lookups as f64);
    values.insert("server.sim_ms", tracer.get("server.sim").mean(1e6));
    values.insert("server.polls_per_cold", traced.polls as f64 / cold_b);
    values.insert("server.sim_runs_per_cold", moved.sim_runs as f64 / cold_b);
    values.insert("journal.append_us", us("journal.append"));
    values.insert("result_store.append_us", us("result_store.append"));
    values.insert("span_store.ingest_us", us("span_store.ingest"));
    values.insert("store.fsyncs_per_cold", moved.fsyncs as f64 / cold_b);
    values.insert("store.appends_per_cold", moved.appends as f64 / cold_b);
    values.insert("span_store.get_us", us("span_store.get"));
    values.insert("span_store.list_us", us("span_store.list"));
    values.insert("span_store.sweep_us", us("span_store.sweep"));
    values.insert("json.encode_us", us("json.encode"));
    values.insert("json.decode_us", us("json.decode"));
    values.insert("server.recovery_ms", measure::median(recovery_ms));
    values.insert("server.threads_peak", traced.threads_peak as f64);
    values.insert("trace.unattributed_share", tracer.unattributed_share());
    let client = |ops: &[Op]| ops.iter().map(|o| o.ms).sum::<f64>() / ops.len().max(1) as f64;
    values.insert(
        "trace.overhead",
        client(&ops[n_plain..]) / client(&ops[..n_plain]) - 1.0,
    );
    trace::push_per_layer(report, &values);
    report.samples = vec![
        ("http.healthz_ms".into(), healthz.len() as u64),
        ("client_ops_traced".into(), (ops.len() - n_plain) as u64),
        (
            "replay_rounds".into(),
            results.range(n_plain..).take(REPLAY_MAX).count() as u64,
        ),
    ];
    trace::finish(args, &tracer, report);
    Ok(())
}
