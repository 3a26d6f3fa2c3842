//! The **job journal**: a durable record of every job's lifecycle, so a
//! restart re-enqueues queued-but-unfinished work instead of losing it.
//!
//! Each lifecycle transition appends one JSON event to a [`SegmentLog`]:
//!
//! ```text
//! {"ev":"submitted","id":7,"body":"<raw submit body>"}
//! {"ev":"started","id":7}
//! {"ev":"completed","id":7}          // or failed / canceled / expired
//! ```
//!
//! Replay groups events by id: a job with a `submitted` event but no
//! terminal event is **pending** and gets re-enqueued (its raw submit body
//! is re-validated through `JobSpec::from_json`, so a journal written by an
//! older build can never smuggle an invalid job into the queue). A pending
//! job that also has a `started` event was interrupted mid-run; the
//! deterministic simulator makes re-running it safe, and if its result was
//! already persisted the worker's cache check dedupes it without
//! re-simulating.
//!
//! The journal shares its [`CrashFuse`] with the result store and the span
//! store, so crash injection cuts all three logs at one global byte offset —
//! including exactly between a result append and its `completed` record,
//! the ordering the recovery tests exercise hardest.

use crate::store::{CrashFuse, FsyncPolicy, ReplayStats, SegmentLog, DEFAULT_SEGMENT_BYTES};
use pasm_util::{json, Json};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Terminal event names (any of these closes a job's journal entry).
const TERMINAL_EVENTS: [&str; 4] = ["completed", "failed", "canceled", "expired"];

/// What one replay pass over the journal reconstructed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalReplay {
    /// Jobs with no terminal event, in submission order: `(id, raw body)`.
    /// These are re-enqueued on recovery.
    pub pending: Vec<(u64, String)>,
    /// First job id this process may assign (max journaled id + 1).
    pub next_id: u64,
    /// Pending jobs that had already `started` when the crash hit.
    pub interrupted: u64,
    /// CRC-intact records whose JSON didn't decode as a journal event —
    /// counted, skipped, never acted on.
    pub malformed: u64,
}

/// Append-only journal of job lifecycle events over a [`SegmentLog`].
pub struct JobJournal {
    log: SegmentLog,
}

impl JobJournal {
    /// Open (creating if needed) the journal under `dir`, replaying any
    /// existing events into a [`JournalReplay`].
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        fuse: Option<Arc<CrashFuse>>,
    ) -> io::Result<(JobJournal, JournalReplay, ReplayStats)> {
        struct Entry {
            body: String,
            started: bool,
            terminal: bool,
        }
        let mut jobs: BTreeMap<u64, Entry> = BTreeMap::new();
        let mut replay = JournalReplay::default();
        let (log, stats) =
            SegmentLog::open(dir, policy, DEFAULT_SEGMENT_BYTES, fuse, |payload, _loc| {
                let Some((ev, id, body)) = decode_event(payload) else {
                    replay.malformed += 1;
                    return;
                };
                match ev.as_str() {
                    "submitted" => {
                        jobs.entry(id).or_insert(Entry {
                            body: body.unwrap_or_default(),
                            started: false,
                            terminal: false,
                        });
                    }
                    "started" => {
                        if let Some(e) = jobs.get_mut(&id) {
                            e.started = true;
                        }
                    }
                    t if TERMINAL_EVENTS.contains(&t) => {
                        if let Some(e) = jobs.get_mut(&id) {
                            e.terminal = true;
                        }
                    }
                    _ => replay.malformed += 1,
                }
                replay.next_id = replay.next_id.max(id);
            })?;
        replay.next_id += 1; // ids start at 1; max journaled id + 1
        for (id, entry) in &jobs {
            if !entry.terminal {
                if entry.started {
                    replay.interrupted += 1;
                }
                replay.pending.push((*id, entry.body.clone()));
            }
        }
        Ok((JobJournal { log }, replay, stats))
    }

    /// Journal a submission, with the raw request body so recovery can
    /// re-validate and re-enqueue it.
    pub fn submitted(&self, id: u64, body: &str) -> io::Result<()> {
        self.append(Json::obj(vec![
            ("ev", Json::Str("submitted".to_string())),
            ("id", Json::Int(id as i64)),
            ("body", Json::Str(body.to_string())),
        ]))
    }

    /// Journal that a worker picked the job up.
    pub fn started(&self, id: u64) -> io::Result<()> {
        self.event("started", id)
    }

    /// Journal a terminal state; `status` must be one of
    /// `completed`/`failed`/`canceled`/`expired`.
    pub fn terminal(&self, status: &str, id: u64) -> io::Result<()> {
        debug_assert!(TERMINAL_EVENTS.contains(&status), "bad terminal {status}");
        self.event(status, id)
    }

    fn event(&self, ev: &str, id: u64) -> io::Result<()> {
        self.append(Json::obj(vec![
            ("ev", Json::Str(ev.to_string())),
            ("id", Json::Int(id as i64)),
        ]))
    }

    fn append(&self, event: Json) -> io::Result<()> {
        self.log.append(event.dump().as_bytes()).map(|_| ())
    }

    /// Flush and fsync pending events (graceful drain).
    pub fn sync(&self) -> io::Result<()> {
        self.log.sync()
    }

    /// Fsync pending events if the interval policy says they are due
    /// ([`SegmentLog::sync_due`]).
    pub fn sync_due(&self) -> io::Result<()> {
        self.log.sync_due()
    }

    /// Events appended by this process.
    pub fn appends(&self) -> u64 {
        self.log.appends()
    }

    /// Fsyncs issued by this process.
    pub fn fsyncs(&self) -> u64 {
        self.log.fsyncs()
    }
}

/// Decode one journal record into `(event, id, body)`. `None` means the
/// record is not a journal event (malformed — counted, never acted on).
fn decode_event(payload: &[u8]) -> Option<(String, u64, Option<String>)> {
    let text = std::str::from_utf8(payload).ok()?;
    let value = json::parse(text).ok()?;
    let ev = value.get("ev")?.as_str()?.to_string();
    let id = value.get("id")?.as_u64()?;
    let body = value.get("body").and_then(|b| b.as_str()).map(String::from);
    Some((ev, id, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pasm-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> (JobJournal, JournalReplay, ReplayStats) {
        JobJournal::open(dir, FsyncPolicy::Never, None).unwrap()
    }

    #[test]
    fn fresh_journal_starts_at_id_one() {
        let dir = tmpdir("fresh");
        let (_, replay, stats) = open(&dir);
        assert_eq!(replay.next_id, 1);
        assert!(replay.pending.is_empty());
        assert_eq!(stats.replayed, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pending_jobs_survive_and_terminal_jobs_do_not() {
        let dir = tmpdir("pending");
        {
            let (j, _, _) = open(&dir);
            j.submitted(1, "{\"a\":1}").unwrap();
            j.started(1).unwrap();
            j.terminal("completed", 1).unwrap();
            j.submitted(2, "{\"b\":2}").unwrap();
            j.started(2).unwrap(); // interrupted: started, never finished
            j.submitted(3, "{\"c\":3}").unwrap(); // never even started
            j.submitted(4, "{\"d\":4}").unwrap();
            j.terminal("canceled", 4).unwrap();
            j.sync().unwrap();
        }
        let (_, replay, stats) = open(&dir);
        assert_eq!(stats.replayed, 8);
        assert_eq!(
            replay.pending,
            vec![(2, "{\"b\":2}".to_string()), (3, "{\"c\":3}".to_string())]
        );
        assert_eq!(replay.interrupted, 1);
        assert_eq!(replay.next_id, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_terminal_event_closes_a_job() {
        let dir = tmpdir("terminals");
        {
            let (j, _, _) = open(&dir);
            for (id, status) in TERMINAL_EVENTS.iter().enumerate() {
                let id = id as u64 + 1;
                j.submitted(id, "{}").unwrap();
                j.terminal(status, id).unwrap();
            }
            j.sync().unwrap();
        }
        let (_, replay, _) = open(&dir);
        assert!(replay.pending.is_empty());
        assert_eq!(replay.next_id, 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_events_are_counted_not_obeyed() {
        let dir = tmpdir("malformed");
        {
            let (j, _, _) = open(&dir);
            j.submitted(1, "{}").unwrap();
            // CRC-intact garbage: not JSON, wrong shape, unknown event.
            j.log.append(b"not json at all").unwrap();
            j.log.append(b"{\"no\":\"ev\"}").unwrap();
            j.log.append(b"{\"ev\":\"vaporized\",\"id\":1}").unwrap();
            j.sync().unwrap();
        }
        let (_, replay, stats) = open(&dir);
        assert_eq!(stats.corrupt, 0, "records are CRC-intact");
        assert_eq!(replay.malformed, 3);
        assert_eq!(replay.pending.len(), 1, "job 1 still pending");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tail_loses_only_the_tail() {
        let dir = tmpdir("torn");
        {
            let (j, _, _) = open(&dir);
            j.submitted(1, "{}").unwrap();
            j.terminal("completed", 1).unwrap();
            j.submitted(2, "{}").unwrap();
            j.sync().unwrap();
        }
        // Chop into the last record: job 2's submission is lost (it was
        // never acknowledged durable), job 1 stays closed.
        let seg = dir.join("seg-000001.log");
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 4]).unwrap();
        let (_, replay, stats) = open(&dir);
        assert_eq!(stats.truncated, 1);
        assert!(replay.pending.is_empty());
        assert_eq!(replay.next_id, 2);
        fs::remove_dir_all(&dir).unwrap();
    }
}
