//! `pasm-store` — the durable, fingerprint-keyed **span + bucket store**
//! behind the server's query tier.
//!
//! The result cache answers "what did this exact experiment produce?"; this
//! crate answers the *analytics* questions the paper's figures are made of:
//! which runs exist for a workload, how a run's cycles split across program
//! phases on every PE and MC, and how a phase's share moves across a
//! parameter sweep. Jobs ingest one [`SpanRecord`] per completed experiment
//! — the key summary, the per-PE/per-MC cycle buckets, and the full span
//! log — and the store serves three read paths without re-simulation:
//!
//! * [`SpanStore::list`] — filtered, paginated run summaries
//!   (`GET /results`);
//! * [`SpanStore::get`] — one run's complete phase breakdown
//!   (`GET /spans/<fp>`);
//! * [`SpanStore::phase_sweep`] — cross-run phase aggregation grouped by
//!   `(mode, p)` (`GET /sweep/phases`).
//!
//! ## Layout: WAL on disk, compact index in memory
//!
//! Records are JSON payloads on a [`SegmentLog`] (the PASMSEG1 framing every
//! durable tier shares — see [`segment`]). Full records are *big* (a span
//! per phase per component), so the in-memory index keeps only what queries
//! touch: `fingerprint → {key summary, per-phase cycle totals, record
//! location}`. Listing and sweep aggregation run entirely from the index;
//! only [`SpanStore::get`] goes back to disk, re-reading one record at its
//! remembered offset ([`segment::read_record_at`]) under the same CRC check
//! replay uses — a record damaged since indexing is refused, never served.
//!
//! Opening the store replays the log to rebuild the index, inheriting the
//! segment log's crash semantics: torn tails truncated, CRC-corrupt records
//! skipped and counted, CRC-intact records that fail JSON decoding (foreign
//! schema version, framing reuse) folded into the `corrupt` counter.
//!
//! Ingest is **idempotent by fingerprint**: the simulator is deterministic,
//! so a fingerprint fully determines its record, and re-ingesting after a
//! crash-and-rerun (the server re-executes jobs whose results never became
//! durable) is a no-op rather than a duplicate.
//!
//! A [`SpanStore::in_memory`] backing serves the same queries with no disk
//! at all — the query tier works in `--data-dir`-less servers too, just
//! without durability.

pub mod segment;

pub use segment::{
    read_record_at, read_records, CrashFuse, FsyncPolicy, RecordLoc, ReplayStats, SegmentLog,
    DEFAULT_SEGMENT_BYTES, MAX_RECORD, SEGMENT_MAGIC,
};

use pasm_util::span::{SpanEvent, SpanLog};
use pasm_util::{json, Json};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Version stamped into every on-disk span record. A record carrying a
/// different version is skipped (and counted) on replay, never half-read.
pub const STORE_SCHEMA_VERSION: i64 = 1;

/// The experiment-key summary indexed per record: the fields queries filter
/// and group by. This is deliberately a plain-data mirror of the relevant
/// `pasm::ExperimentResult` fields — the store must not depend on the
/// simulator crates, only on what the wire format needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Registered kernel name (`"matmul"` for the paper workload).
    pub workload: String,
    /// Execution mode spelling (`"serial"`, `"simd"`, `"mimd"`, `"smimd"`).
    pub mode: String,
    /// Problem size.
    pub n: u64,
    /// Processors used.
    pub p: u64,
    /// Input-generator seed.
    pub seed: u64,
    /// Simulated makespan in cycles.
    pub cycles: u64,
    /// Injected fault plan spelling (empty when fault-free).
    pub fault: String,
}

impl RunSummary {
    /// The summary as a JSON object (nested under `"run"` in the record).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("mode", Json::Str(self.mode.clone())),
            ("n", Json::Int(self.n as i64)),
            ("p", Json::Int(self.p as i64)),
            ("seed", Json::Int(self.seed as i64)),
            ("cycles", Json::Int(self.cycles as i64)),
            ("fault", Json::Str(self.fault.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<RunSummary, String> {
        let str_field = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("`{name}` must be a string"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("`{name}` must be a non-negative integer"))
        };
        Ok(RunSummary {
            workload: str_field("workload")?,
            mode: str_field("mode")?,
            n: u64_field("n")?,
            p: u64_field("p")?,
            seed: u64_field("seed")?,
            cycles: u64_field("cycles")?,
            fault: str_field("fault")?,
        })
    }

    /// Deterministic listing order: the sweep axes first, fingerprint last
    /// as the tie-breaker.
    fn sort_key(&self) -> (String, String, u64, u64, u64, String) {
        (
            self.workload.clone(),
            self.mode.clone(),
            self.p,
            self.n,
            self.seed,
            self.fault.clone(),
        )
    }
}

/// One completed experiment's full timing payload: the unit of ingest and
/// of `GET /spans/<fp>`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Content fingerprint of the experiment key (the store's primary key).
    pub fingerprint: u64,
    /// The key summary queries filter and group by.
    pub summary: RunSummary,
    /// Cycle-bucket names, indexing the rows of `pe_buckets`/`mc_buckets`
    /// (stored per record so the store never depends on the machine crate's
    /// bucket layout).
    pub bucket_names: Vec<String>,
    /// Per-PE cycle buckets: `pe_buckets[pe][bucket]`.
    pub pe_buckets: Vec<Vec<u64>>,
    /// Per-MC cycle buckets: `mc_buckets[mc][bucket]`.
    pub mc_buckets: Vec<Vec<u64>>,
    /// The run's named phase spans (`pe<i>`/`mc<i>` sources).
    pub spans: SpanLog,
}

impl SpanRecord {
    /// The on-disk (and on-wire) JSON form.
    pub fn to_json(&self) -> Json {
        let buckets = |rows: &[Vec<u64>]| {
            Json::Arr(
                rows.iter()
                    .map(|row| Json::Arr(row.iter().map(|&v| Json::Int(v as i64)).collect()))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("schema_version", Json::Int(STORE_SCHEMA_VERSION)),
            ("fp", Json::Str(format!("{:016x}", self.fingerprint))),
            ("run", self.summary.to_json()),
            (
                "bucket_names",
                Json::Arr(
                    self.bucket_names
                        .iter()
                        .map(|n| Json::Str(n.clone()))
                        .collect(),
                ),
            ),
            ("pe_buckets", buckets(&self.pe_buckets)),
            ("mc_buckets", buckets(&self.mc_buckets)),
            (
                "spans",
                Json::Arr(self.spans.events.iter().map(SpanEvent::to_json).collect()),
            ),
        ])
    }

    /// Parse the [`SpanRecord::to_json`] form back. Strict: a record with a
    /// foreign schema version or a malformed field is an error (replay
    /// counts it as corrupt rather than serving a half-read breakdown).
    pub fn from_json(v: &Json) -> Result<SpanRecord, String> {
        let version = v
            .get("schema_version")
            .and_then(Json::as_i64)
            .ok_or("missing `schema_version`")?;
        if version != STORE_SCHEMA_VERSION {
            return Err(format!("unknown schema_version {version}"));
        }
        let fp_hex = v.get("fp").and_then(Json::as_str).ok_or("missing `fp`")?;
        if fp_hex.len() != 16 {
            return Err("`fp` must be 16 hex digits".to_string());
        }
        let fingerprint =
            u64::from_str_radix(fp_hex, 16).map_err(|_| "`fp` must be 16 hex digits")?;
        let summary = RunSummary::from_json(v.get("run").ok_or("missing `run`")?)?;
        let bucket_names = v
            .get("bucket_names")
            .and_then(Json::as_arr)
            .ok_or("missing `bucket_names`")?
            .iter()
            .map(|n| n.as_str().map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("`bucket_names` must be strings")?;
        let buckets = |name: &str| -> Result<Vec<Vec<u64>>, String> {
            v.get(name)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing `{name}`"))?
                .iter()
                .map(|row| {
                    let row = row
                        .as_arr()
                        .ok_or_else(|| format!("`{name}` rows must be arrays"))?;
                    if row.len() != bucket_names.len() {
                        return Err(format!("`{name}` row width mismatch"));
                    }
                    row.iter()
                        .map(|cell| {
                            cell.as_u64()
                                .ok_or_else(|| format!("`{name}` cells must be non-negative"))
                        })
                        .collect()
                })
                .collect()
        };
        let pe_buckets = buckets("pe_buckets")?;
        let mc_buckets = buckets("mc_buckets")?;
        let mut spans = SpanLog::new();
        for e in v
            .get("spans")
            .and_then(Json::as_arr)
            .ok_or("missing `spans`")?
        {
            spans.events.push(SpanEvent::from_json(e)?);
        }
        Ok(SpanRecord {
            fingerprint,
            summary,
            bucket_names,
            pe_buckets,
            mc_buckets,
            spans,
        })
    }

    /// Total cycles per phase name, in first-appearance order — the
    /// breakdown the index caches and the sweep aggregates.
    pub fn phase_totals(&self) -> Vec<(String, u64)> {
        let mut order: Vec<String> = Vec::new();
        let mut totals: HashMap<&str, u64> = HashMap::new();
        for e in &self.spans.events {
            if !totals.contains_key(e.name.as_str()) {
                order.push(e.name.clone());
            }
            *totals.entry(e.name.as_str()).or_insert(0) += e.cycles();
        }
        order
            .into_iter()
            .map(|name| {
                let total = totals[name.as_str()];
                (name, total)
            })
            .collect()
    }
}

/// What the index remembers per fingerprint: enough to answer listings and
/// sweeps without touching disk, plus where the full record lives.
#[derive(Debug, Clone)]
struct IndexEntry {
    summary: RunSummary,
    phase_totals: Vec<(String, u64)>,
    stored: Stored,
}

#[derive(Debug, Clone)]
enum Stored {
    /// Record location in the segment log (disk backing).
    Disk(RecordLoc),
    /// The whole record, held in memory (no-data-dir backing).
    Memory(Box<SpanRecord>),
}

enum Backing {
    Disk { dir: PathBuf, log: SegmentLog },
    Memory,
}

/// Filter + pagination for [`SpanStore::list`] (`GET /results`).
#[derive(Debug, Clone, Default)]
pub struct ResultsQuery {
    /// Keep only runs of this workload.
    pub workload: Option<String>,
    /// Keep only runs in this mode.
    pub mode: Option<String>,
    /// Keep only runs with this processor count.
    pub p: Option<u64>,
    /// Rows to skip (after filtering + sorting).
    pub offset: usize,
    /// Maximum rows to return (`None` = no cap).
    pub limit: Option<usize>,
}

/// One row of a [`SpanStore::list`] page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultRow {
    pub fingerprint: u64,
    pub summary: RunSummary,
}

/// A [`SpanStore::list`] page: the rows plus the total match count (so
/// clients can paginate without a second query).
#[derive(Debug, Clone)]
pub struct ResultsPage {
    /// Runs matching the filter, before offset/limit.
    pub total: usize,
    pub rows: Vec<ResultRow>,
}

/// One phase's aggregate within a [`SweepGroup`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPhase {
    pub name: String,
    /// Cycles in this phase, summed over the group's runs.
    pub cycles: u64,
    /// `cycles / Σ phase cycles` within the group — the "share vs. p" the
    /// sweep figures plot.
    pub share: f64,
}

/// Cross-run phase totals for one `(mode, p)` cell of a sweep
/// (`GET /sweep/phases`).
#[derive(Debug, Clone)]
pub struct SweepGroup {
    pub mode: String,
    pub p: u64,
    /// Runs aggregated into this cell.
    pub runs: u64,
    /// Σ phase cycles over the cell (the share denominator).
    pub total_cycles: u64,
    /// Phases sorted by name (deterministic output order).
    pub phases: Vec<SweepPhase>,
}

/// The store: a compact fingerprint index over a segment-log WAL (or over
/// memory when no data directory is configured). Thread-safe; the server
/// shares one instance across workers and request threads.
pub struct SpanStore {
    backing: Backing,
    index: Mutex<HashMap<u64, IndexEntry>>,
}

impl SpanStore {
    /// Open (creating if needed) the durable store under `dir`, replaying
    /// the log into a fresh index. Replay inherits the segment log's crash
    /// semantics; CRC-intact records that fail to decode are folded into
    /// the `corrupt` counter. Duplicate fingerprints keep the first record
    /// (the simulator is deterministic, so any duplicate is byte-identical
    /// modulo crash-rerun timing).
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        fuse: Option<Arc<CrashFuse>>,
    ) -> io::Result<(SpanStore, ReplayStats)> {
        let mut index: HashMap<u64, IndexEntry> = HashMap::new();
        let mut malformed = 0u64;
        let (log, mut stats) =
            SegmentLog::open(dir, policy, DEFAULT_SEGMENT_BYTES, fuse, |payload, loc| {
                match decode_record(payload) {
                    Some(record) => {
                        index
                            .entry(record.fingerprint)
                            .or_insert_with(|| IndexEntry {
                                phase_totals: record.phase_totals(),
                                summary: record.summary,
                                stored: Stored::Disk(loc),
                            });
                    }
                    None => malformed += 1,
                }
            })?;
        stats.replayed -= malformed;
        stats.corrupt += malformed;
        Ok((
            SpanStore {
                backing: Backing::Disk {
                    dir: dir.to_path_buf(),
                    log,
                },
                index: Mutex::new(index),
            },
            stats,
        ))
    }

    /// A store with no disk behind it: same queries, no durability. Used
    /// when the server runs without `--data-dir`.
    pub fn in_memory() -> SpanStore {
        SpanStore {
            backing: Backing::Memory,
            index: Mutex::new(HashMap::new()),
        }
    }

    /// Whether this store survives a restart.
    pub fn is_durable(&self) -> bool {
        matches!(self.backing, Backing::Disk { .. })
    }

    /// Ingest one completed run. Idempotent by fingerprint: returns `false`
    /// (and writes nothing) when the fingerprint is already indexed — the
    /// crash-rerun path re-ingests the same deterministic record, which must
    /// not duplicate it on disk.
    pub fn ingest(&self, record: &SpanRecord) -> io::Result<bool> {
        let mut index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        if index.contains_key(&record.fingerprint) {
            return Ok(false);
        }
        let stored = match &self.backing {
            Backing::Disk { log, .. } => {
                let loc = log.append(record.to_json().dump().as_bytes())?;
                Stored::Disk(loc)
            }
            Backing::Memory => Stored::Memory(Box::new(record.clone())),
        };
        index.insert(
            record.fingerprint,
            IndexEntry {
                summary: record.summary.clone(),
                phase_totals: record.phase_totals(),
                stored,
            },
        );
        Ok(true)
    }

    /// Whether a fingerprint is indexed (one lock, no disk).
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(&fingerprint)
    }

    /// Fetch one run's full record. Disk backing re-reads the record at its
    /// indexed offset and re-verifies the CRC; `Ok(None)` means the
    /// fingerprint is unknown *or* the bytes were damaged since indexing —
    /// either way there is nothing servable.
    pub fn get(&self, fingerprint: u64) -> io::Result<Option<SpanRecord>> {
        let stored = {
            let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
            match index.get(&fingerprint) {
                Some(entry) => entry.stored.clone(),
                None => return Ok(None),
            }
        };
        match stored {
            Stored::Memory(record) => Ok(Some(*record)),
            Stored::Disk(loc) => {
                let Backing::Disk { dir, log } = &self.backing else {
                    unreachable!("disk location in a memory-backed store");
                };
                // The record may still sit in an unflushed OS buffer only in
                // the fsync=never/interval window; sync first so the offset
                // read sees it.
                log.sync()?;
                match read_record_at(dir, loc)? {
                    Some(payload) => Ok(decode_record(&payload)),
                    None => Ok(None),
                }
            }
        }
    }

    /// Filtered, sorted, paginated run listing (`GET /results`).
    pub fn list(&self, query: &ResultsQuery) -> ResultsPage {
        let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let mut rows: Vec<ResultRow> = index
            .iter()
            .filter(|(_, e)| {
                query
                    .workload
                    .as_ref()
                    .is_none_or(|w| &e.summary.workload == w)
                    && query.mode.as_ref().is_none_or(|m| &e.summary.mode == m)
                    && query.p.is_none_or(|p| e.summary.p == p)
            })
            .map(|(&fingerprint, e)| ResultRow {
                fingerprint,
                summary: e.summary.clone(),
            })
            .collect();
        drop(index);
        rows.sort_by(|a, b| {
            (a.summary.sort_key(), a.fingerprint).cmp(&(b.summary.sort_key(), b.fingerprint))
        });
        let total = rows.len();
        let rows = rows
            .into_iter()
            .skip(query.offset)
            .take(query.limit.unwrap_or(usize::MAX))
            .collect();
        ResultsPage { total, rows }
    }

    /// Cross-run phase aggregation for one workload, grouped by `(mode, p)`
    /// and sorted the same way (`GET /sweep/phases`). `mode` narrows to one
    /// mode when given. Fault-injected runs are excluded — their timing is
    /// not comparable to the clean sweep.
    pub fn phase_sweep(&self, workload: &str, mode: Option<&str>) -> Vec<SweepGroup> {
        let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let mut groups: HashMap<(String, u64), (u64, HashMap<String, u64>)> = HashMap::new();
        for entry in index.values() {
            if entry.summary.workload != workload
                || !entry.summary.fault.is_empty()
                || mode.is_some_and(|m| entry.summary.mode != m)
            {
                continue;
            }
            let cell = groups
                .entry((entry.summary.mode.clone(), entry.summary.p))
                .or_default();
            cell.0 += 1;
            for (name, cycles) in &entry.phase_totals {
                *cell.1.entry(name.clone()).or_insert(0) += cycles;
            }
        }
        drop(index);
        let mut out: Vec<SweepGroup> = groups
            .into_iter()
            .map(|((mode, p), (runs, totals))| {
                let total_cycles: u64 = totals.values().sum();
                let mut phases: Vec<SweepPhase> = totals
                    .into_iter()
                    .map(|(name, cycles)| SweepPhase {
                        name,
                        cycles,
                        share: if total_cycles > 0 {
                            cycles as f64 / total_cycles as f64
                        } else {
                            0.0
                        },
                    })
                    .collect();
                phases.sort_by(|a, b| a.name.cmp(&b.name));
                SweepGroup {
                    mode,
                    p,
                    runs,
                    total_cycles,
                    phases,
                }
            })
            .collect();
        out.sort_by_key(|g| (g.mode.clone(), g.p));
        out
    }

    /// Every indexed fingerprint, sorted (test/inspection helper).
    pub fn fingerprints(&self) -> Vec<u64> {
        let mut fps: Vec<u64> = self
            .index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .copied()
            .collect();
        fps.sort_unstable();
        fps
    }

    /// Indexed run count.
    pub fn len(&self) -> usize {
        self.index.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the store holds no runs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flush and fsync pending appends (graceful drain; no-op in memory).
    pub fn sync(&self) -> io::Result<()> {
        match &self.backing {
            Backing::Disk { log, .. } => log.sync(),
            Backing::Memory => Ok(()),
        }
    }

    /// Fsync pending appends if the interval policy says they are due
    /// ([`SegmentLog::sync_due`]; no-op in memory).
    pub fn sync_due(&self) -> io::Result<()> {
        match &self.backing {
            Backing::Disk { log, .. } => log.sync_due(),
            Backing::Memory => Ok(()),
        }
    }

    /// Records appended by this process.
    pub fn appends(&self) -> u64 {
        match &self.backing {
            Backing::Disk { log, .. } => log.appends(),
            Backing::Memory => 0,
        }
    }

    /// Fsyncs issued by this process.
    pub fn fsyncs(&self) -> u64 {
        match &self.backing {
            Backing::Disk { log, .. } => log.fsyncs(),
            Backing::Memory => 0,
        }
    }
}

/// Decode one span record; `None` means undecodable (counted as corrupt).
fn decode_record(payload: &[u8]) -> Option<SpanRecord> {
    let text = std::str::from_utf8(payload).ok()?;
    let value = json::parse(text).ok()?;
    SpanRecord::from_json(&value).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pasm-spanstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A small synthetic record: p PEs, two phases, plausible buckets.
    fn record(workload: &str, mode: &str, p: u64, seed: u64) -> SpanRecord {
        let mut spans = SpanLog::new();
        for pe in 0..p {
            spans.record(&format!("pe{pe}"), "compute", 0, 1000 + 10 * pe);
            spans.record(
                &format!("pe{pe}"),
                "exchange",
                1000 + 10 * pe,
                1300 + 10 * pe,
            );
        }
        spans.record("mc0", "exchange", 990, 1310);
        let fingerprint = {
            // Any stable per-(workload,mode,p,seed) value works as a key.
            let mut h = pasm_util::Fnv1a::new();
            use std::hash::Hasher;
            h.write(workload.as_bytes());
            h.write(mode.as_bytes());
            h.write(&p.to_le_bytes());
            h.write(&seed.to_le_bytes());
            h.finish()
        };
        SpanRecord {
            fingerprint,
            summary: RunSummary {
                workload: workload.to_string(),
                mode: mode.to_string(),
                n: 4 * p,
                p,
                seed,
                cycles: 1310,
                fault: String::new(),
            },
            bucket_names: vec!["busy".into(), "wait".into()],
            pe_buckets: (0..p).map(|pe| vec![1200 + pe, 110]).collect(),
            mc_buckets: vec![vec![300, 20]],
            spans,
        }
    }

    #[test]
    fn record_json_round_trips_byte_identically() {
        let original = record("matmul", "simd", 4, 7);
        let parsed = SpanRecord::from_json(&original.to_json()).expect("round trip");
        assert_eq!(parsed, original);
        assert_eq!(parsed.to_json().dump(), original.to_json().dump());
    }

    #[test]
    fn record_json_rejects_damage() {
        let good = record("matmul", "simd", 2, 7).to_json();
        assert!(SpanRecord::from_json(&good).is_ok());
        for (field, bad, why) in [
            ("schema_version", Json::Int(99), "unknown version"),
            ("fp", Json::Str("xyz".into()), "bad fingerprint hex"),
            ("run", Json::obj(vec![]), "empty summary"),
            ("pe_buckets", Json::Arr(vec![Json::Int(1)]), "non-array row"),
            (
                "spans",
                Json::Arr(vec![Json::obj(vec![("source", Json::Int(1))])]),
                "malformed span",
            ),
        ] {
            let Json::Obj(mut members) = good.clone() else {
                unreachable!()
            };
            for (k, v) in members.iter_mut() {
                if k == field {
                    *v = bad.clone();
                }
            }
            assert!(SpanRecord::from_json(&Json::Obj(members)).is_err(), "{why}");
        }
    }

    #[test]
    fn phase_totals_sum_per_name_in_first_appearance_order() {
        let rec = record("matmul", "simd", 2, 7);
        let totals = rec.phase_totals();
        assert_eq!(totals.len(), 2);
        assert_eq!(totals[0].0, "compute");
        assert_eq!(totals[0].1, 1000 + 1010);
        assert_eq!(totals[1].0, "exchange");
        assert_eq!(totals[1].1, 300 + 300 + 320);
    }

    #[test]
    fn ingest_get_round_trips_and_survives_reopen() {
        let dir = tmpdir("reopen");
        let rec = record("matmul", "mimd", 4, 11);
        {
            let (store, stats) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
            assert_eq!(stats, ReplayStats::default());
            assert!(store.ingest(&rec).unwrap());
            let got = store.get(rec.fingerprint).unwrap().expect("present");
            assert_eq!(got.to_json().dump(), rec.to_json().dump());
        }
        let (store, stats) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(store.len(), 1);
        let got = store.get(rec.fingerprint).unwrap().expect("recovered");
        assert_eq!(got.to_json().dump(), rec.to_json().dump());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ingest_is_idempotent_by_fingerprint() {
        let dir = tmpdir("idem");
        let rec = record("matmul", "simd", 2, 3);
        {
            let (store, _) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
            assert!(store.ingest(&rec).unwrap());
            assert!(!store.ingest(&rec).unwrap(), "second ingest is a no-op");
            assert_eq!(store.appends(), 1, "nothing extra hit the disk");
        }
        // Re-ingest after a restart (the crash-rerun path) is also a no-op.
        let (store, _) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
        assert!(!store.ingest(&rec).unwrap());
        assert_eq!(store.appends(), 0);
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_loses_only_the_torn_record() {
        let dir = tmpdir("torn");
        let first = record("matmul", "simd", 2, 1);
        let second = record("matmul", "simd", 4, 2);
        {
            let (store, _) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
            store.ingest(&first).unwrap();
            store.ingest(&second).unwrap();
        }
        // Tear the tail mid-way through the second record.
        let path = dir.join("seg-000001.log");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        let (store, stats) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
        assert_eq!(stats.truncated, 1);
        assert_eq!(store.fingerprints(), vec![first.fingerprint]);
        assert!(store.get(second.fingerprint).unwrap().is_none());
        // The torn record can be re-ingested now (crash-rerun path).
        assert!(store.ingest(&second).unwrap());
        assert_eq!(store.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crc_corrupt_record_is_skipped_and_counted() {
        let dir = tmpdir("crc");
        let first = record("matmul", "simd", 2, 1);
        let second = record("matmul", "simd", 4, 2);
        {
            let (store, _) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
            store.ingest(&first).unwrap();
            store.ingest(&second).unwrap();
        }
        // Flip a payload bit inside the *first* record.
        let path = dir.join("seg-000001.log");
        let mut bytes = fs::read(&path).unwrap();
        bytes[8 + 8 + 20] ^= 0x08;
        fs::write(&path, &bytes).unwrap();
        let (store, stats) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.replayed, 1);
        assert_eq!(store.fingerprints(), vec![second.fingerprint]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn intact_but_undecodable_record_counts_as_corrupt() {
        let dir = tmpdir("foreign");
        {
            // Write CRC-valid garbage straight through the framing layer.
            let (log, _) = SegmentLog::open(
                &dir,
                FsyncPolicy::Always,
                DEFAULT_SEGMENT_BYTES,
                None,
                |_, _| {},
            )
            .unwrap();
            log.append(b"{\"schema_version\":99,\"fp\":\"0000000000000000\"}")
                .unwrap();
            log.append(b"not json at all").unwrap();
        }
        let (store, stats) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
        assert_eq!(stats.corrupt, 2);
        assert_eq!(stats.replayed, 0);
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_bytes_under_an_index_entry_are_refused_not_served() {
        let dir = tmpdir("damage");
        let rec = record("matmul", "smimd", 2, 5);
        let (store, _) = SpanStore::open(&dir, FsyncPolicy::Always, None).unwrap();
        store.ingest(&rec).unwrap();
        // Corrupt the payload on disk *after* indexing.
        let path = dir.join("seg-000001.log");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 4;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(store.contains(rec.fingerprint), "still indexed");
        assert!(
            store.get(rec.fingerprint).unwrap().is_none(),
            "damaged record refused"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn list_filters_sorts_and_paginates() {
        let store = SpanStore::in_memory();
        for (mode, p, seed) in [
            ("simd", 4, 1),
            ("simd", 2, 1),
            ("mimd", 4, 1),
            ("simd", 4, 2),
        ] {
            store.ingest(&record("matmul", mode, p, seed)).unwrap();
        }
        store.ingest(&record("bitonic", "simd", 4, 1)).unwrap();

        let all = store.list(&ResultsQuery::default());
        assert_eq!(all.total, 5);
        assert_eq!(all.rows.len(), 5);
        // Sorted: workload, then mode, then p, then n/seed.
        assert_eq!(all.rows[0].summary.workload, "bitonic");
        assert_eq!(all.rows[1].summary.mode, "mimd");

        let simd = store.list(&ResultsQuery {
            workload: Some("matmul".into()),
            mode: Some("simd".into()),
            ..ResultsQuery::default()
        });
        assert_eq!(simd.total, 3);
        assert_eq!(simd.rows[0].summary.p, 2);

        let page = store.list(&ResultsQuery {
            workload: Some("matmul".into()),
            mode: Some("simd".into()),
            offset: 1,
            limit: Some(1),
            ..ResultsQuery::default()
        });
        assert_eq!(page.total, 3, "total counts matches, not the page");
        assert_eq!(page.rows.len(), 1);
        assert_eq!((page.rows[0].summary.p, page.rows[0].summary.seed), (4, 1));

        let p4 = store.list(&ResultsQuery {
            p: Some(4),
            ..ResultsQuery::default()
        });
        assert_eq!(p4.total, 4);
        fs::remove_dir_all(std::env::temp_dir().join("nonexistent")).ok();
    }

    #[test]
    fn phase_sweep_groups_by_mode_and_p_with_shares_summing_to_one() {
        let store = SpanStore::in_memory();
        for (mode, p, seed) in [
            ("simd", 2, 1),
            ("simd", 2, 2),
            ("simd", 4, 1),
            ("mimd", 2, 1),
        ] {
            store.ingest(&record("matmul", mode, p, seed)).unwrap();
        }
        // A faulted run must not pollute the sweep.
        let mut faulted = record("matmul", "simd", 2, 99);
        faulted.summary.fault = "box:1:0".into();
        store.ingest(&faulted).unwrap();
        // Another workload must not appear at all.
        store.ingest(&record("bitonic", "simd", 2, 1)).unwrap();

        let sweep = store.phase_sweep("matmul", None);
        assert_eq!(sweep.len(), 3);
        assert_eq!((sweep[0].mode.as_str(), sweep[0].p), ("mimd", 2));
        assert_eq!((sweep[1].mode.as_str(), sweep[1].p), ("simd", 2));
        assert_eq!((sweep[2].mode.as_str(), sweep[2].p), ("simd", 4));
        assert_eq!(sweep[1].runs, 2, "faulted run excluded");
        for group in &sweep {
            let share_sum: f64 = group.phases.iter().map(|ph| ph.share).sum();
            assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to 1");
            let cycle_sum: u64 = group.phases.iter().map(|ph| ph.cycles).sum();
            assert_eq!(cycle_sum, group.total_cycles);
        }

        let only_simd = store.phase_sweep("matmul", Some("simd"));
        assert_eq!(only_simd.len(), 2);
        assert!(only_simd.iter().all(|g| g.mode == "simd"));
    }

    #[test]
    fn memory_backing_serves_the_same_queries_without_disk() {
        let store = SpanStore::in_memory();
        assert!(!store.is_durable());
        let rec = record("matmul", "simd", 2, 7);
        assert!(store.ingest(&rec).unwrap());
        assert!(!store.ingest(&rec).unwrap());
        let got = store.get(rec.fingerprint).unwrap().expect("present");
        assert_eq!(got.to_json().dump(), rec.to_json().dump());
        assert_eq!(store.appends(), 0);
        store.sync().unwrap();
    }
}
