//! The append-only, checksummed **segment log** — the shared WAL framing of
//! every durable tier in the workspace (result store, job journal, span
//! store).
//!
//! ## Record format
//!
//! Each segment file starts with an 8-byte magic, followed by records:
//!
//! ```text
//! +--------- segment: seg-NNNNNN.log ----------+
//! | "PASMSEG1"                                 |  8-byte magic
//! | [len: u32 LE][crc32: u32 LE][payload: len] |  record 0
//! | [len: u32 LE][crc32: u32 LE][payload: len] |  record 1
//! | ...                                        |
//! +--------------------------------------------+
//! ```
//!
//! `crc32` ([`pasm_util::crc32`], IEEE) covers the payload only; `len` is
//! bounded by [`MAX_RECORD`]. Segments rotate once they exceed the
//! configured size threshold, so no single file grows without bound and old
//! segments become immutable (a future compactor can drop them wholesale).
//!
//! Appends return a [`RecordLoc`] — `(segment, byte offset)` of the framed
//! record — and replay delivers each payload together with its location, so
//! an index can remember *where* a record lives and re-read it later with
//! [`read_record_at`] instead of holding the payload in memory. That is what
//! turns the log from a recovery mechanism into an addressable store.
//!
//! ## Recovery semantics (never panic, never serve damage)
//!
//! Replay walks segments in name order and, per segment:
//!
//! * a **torn tail** — fewer bytes than a header, or a header whose `len`
//!   points past end-of-file — is counted as `truncated` and the rest of the
//!   segment is ignored (this is the normal shape of a crash mid-append);
//! * a **corrupt record** — CRC mismatch, or an absurd `len` that breaks
//!   framing — is counted as `corrupt`; with intact framing the record is
//!   skipped and replay continues, otherwise the rest of the segment is
//!   abandoned (later segments are still read: they were written later and
//!   are independently framed);
//! * an intact record is handed to the caller and counted as `replayed`.
//!
//! A corrupt or torn record is therefore *lost*, visibly (the counters land
//! in `/metrics`), but never *served*.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for append throughput: `always` fsyncs
//! every append (a completed job survives any crash), `interval` bounds the
//! loss window by wall-clock time (with a periodic [`SegmentLog::sync_due`]
//! for the appends a quiet period follows), `never` leaves flushing to the
//! OS. The `durabench` benchmark measures the cost of each policy.
//!
//! ## Crash injection (test-only)
//!
//! A [`CrashFuse`] models "the process died at byte offset N": once installed
//! it silently swallows every byte past a seeded budget — mid-header,
//! mid-payload, or between appends to *different* logs (all logs of one
//! server share one fuse, so the cut is a single global write offset,
//! exactly like a real crash instant). The recovery integration tests drive
//! crash→restart→verify loops across seeded budgets.

use pasm_util::crc32;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-segment file magic (version 1 of the record format).
pub const SEGMENT_MAGIC: &[u8; 8] = b"PASMSEG1";

/// Upper bound on one record's payload length. Real records are a few KiB to
/// a few hundred KiB of JSON; anything larger in a length prefix is framing
/// damage, not data.
pub const MAX_RECORD: u32 = 16 << 20;

/// Default segment rotation threshold.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// When to fsync appended records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every append: a record acknowledged is a record durable.
    Always,
    /// Fsync at most once per interval: an append fsyncs once the interval
    /// has passed since the last fsync, and [`SegmentLog::sync_due`], called
    /// periodically, catches appends followed by a quiet period. The loss
    /// window is then bounded in wall time by the interval plus the caller's
    /// period.
    Interval(Duration),
    /// Never fsync explicitly; the OS flushes when it pleases.
    Never,
}

impl FsyncPolicy {
    /// Default interval for `interval` without an explicit millisecond count.
    pub const DEFAULT_INTERVAL_MS: u64 = 100;

    /// Parse the CLI spelling: `always`, `never`, `interval`,
    /// or `interval:<ms>`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            "interval" => Some(FsyncPolicy::Interval(Duration::from_millis(
                Self::DEFAULT_INTERVAL_MS,
            ))),
            _ => {
                let ms: u64 = s.strip_prefix("interval:")?.parse().ok()?;
                Some(FsyncPolicy::Interval(Duration::from_millis(ms)))
            }
        }
    }

    /// The CLI spelling (inverse of [`FsyncPolicy::parse`]).
    pub fn label(&self) -> String {
        match self {
            FsyncPolicy::Always => "always".to_string(),
            FsyncPolicy::Interval(d) => format!("interval:{}", d.as_millis()),
            FsyncPolicy::Never => "never".to_string(),
        }
    }
}

/// Test-only crash injector: a global byte budget after which every write to
/// the logs silently vanishes, as if the process had died at that offset.
///
/// The fuse is shared by every durable log of one server, so one seeded
/// budget cuts the combined write stream at a single point — mid-record,
/// mid-header, or exactly between a span-store append, a result append, and
/// its journal record.
#[derive(Debug)]
pub struct CrashFuse {
    remaining: AtomicI64,
}

impl CrashFuse {
    /// A fuse that admits exactly `budget` more bytes to disk.
    pub fn new(budget: u64) -> Arc<CrashFuse> {
        Arc::new(CrashFuse {
            remaining: AtomicI64::new(budget.min(i64::MAX as u64) as i64),
        })
    }

    /// Consume up to `want` bytes of budget; returns how many may actually
    /// be written. Once exhausted it never admits another byte.
    fn consume(&self, want: usize) -> usize {
        let want_i = want.min(i64::MAX as usize) as i64;
        let before = self.remaining.fetch_sub(want_i, Ordering::SeqCst);
        before.clamp(0, want_i) as usize
    }

    /// True once at least one byte has been swallowed.
    pub fn tripped(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) <= 0
    }
}

/// Counters from one replay pass over a log directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Intact records delivered to the caller.
    pub replayed: u64,
    /// Torn tails dropped (crash mid-append; expected, not an error).
    pub truncated: u64,
    /// CRC-mismatch or unframeable records skipped — damage that was
    /// detected and *not* served.
    pub corrupt: u64,
    /// Segment files visited.
    pub segments: u64,
    /// Total bytes scanned.
    pub bytes: u64,
}

impl ReplayStats {
    /// Fold another replay pass into this one (multi-log recovery totals).
    pub fn absorb(&mut self, other: ReplayStats) {
        self.replayed += other.replayed;
        self.truncated += other.truncated;
        self.corrupt += other.corrupt;
        self.segments += other.segments;
        self.bytes += other.bytes;
    }
}

/// Address of one framed record inside a segment log: enough to re-read the
/// payload later without scanning ([`read_record_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordLoc {
    /// Segment file index (`seg-NNNNNN.log`).
    pub segment: u64,
    /// Byte offset of the record *header* within the segment file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

struct LogWriter {
    file: File,
    seg_index: u64,
    seg_len: u64,
    last_sync: Instant,
    dirty: bool,
}

/// An append-only log of checksummed records split across rotating segment
/// files. Thread-safe; appends serialize on an internal mutex (the record
/// build happens outside it).
pub struct SegmentLog {
    dir: PathBuf,
    segment_bytes: u64,
    policy: FsyncPolicy,
    fuse: Option<Arc<CrashFuse>>,
    writer: Mutex<LogWriter>,
    appends: AtomicU64,
    fsyncs: AtomicU64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.log"))
}

/// Sorted `(index, path)` list of the segment files in `dir`.
fn segment_files(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(index) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segments.push((index, entry.path()));
        }
    }
    segments.sort();
    Ok(segments)
}

/// Replay one segment's bytes, delivering intact payloads in order together
/// with their on-disk location. Returns the replay counters and the
/// **trusted prefix length**: the byte offset up to which the segment parsed
/// cleanly (equal to `bytes.len()` iff the whole segment is intact). Appends
/// may only resume after truncating to that prefix — records written past a
/// torn tail would be unreachable forever.
fn replay_segment(
    seg_index: u64,
    bytes: &[u8],
    mut deliver: impl FnMut(&[u8], RecordLoc),
) -> (ReplayStats, usize) {
    let mut stats = ReplayStats {
        segments: 1,
        bytes: bytes.len() as u64,
        ..ReplayStats::default()
    };
    if bytes.len() < SEGMENT_MAGIC.len() {
        // Crash while writing the magic of a fresh segment.
        stats.truncated += 1;
        return (stats, 0);
    }
    if &bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        // Not our format (or a corrupted header): nothing here is trustworthy.
        stats.corrupt += 1;
        return (stats, 0);
    }
    let mut pos = SEGMENT_MAGIC.len();
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            stats.truncated += 1; // torn mid-header
            return (stats, pos);
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD {
            // Framing is gone: a flipped length bit would make every later
            // "record" in this segment garbage too.
            stats.corrupt += 1;
            return (stats, pos);
        }
        let len = len as usize;
        if remaining - 8 < len {
            stats.truncated += 1; // torn mid-payload
            return (stats, pos);
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) == crc {
            stats.replayed += 1;
            deliver(
                payload,
                RecordLoc {
                    segment: seg_index,
                    offset: pos as u64,
                    len: len as u32,
                },
            );
        } else {
            // Framing intact (length was sane), payload damaged: skip it and
            // keep reading — later records are still addressable.
            stats.corrupt += 1;
        }
        pos += 8 + len;
    }
    (stats, bytes.len())
}

impl SegmentLog {
    /// Open a log directory for replay + append: creates `dir` if missing,
    /// replays every existing record through `deliver` (payload plus its
    /// [`RecordLoc`]), then positions the writer at the end of the newest
    /// segment.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        segment_bytes: u64,
        fuse: Option<Arc<CrashFuse>>,
        mut deliver: impl FnMut(&[u8], RecordLoc),
    ) -> io::Result<(SegmentLog, ReplayStats)> {
        fs::create_dir_all(dir)?;
        let mut stats = ReplayStats::default();
        let mut last: Option<(u64, usize, usize)> = None; // (index, valid_len, file_len)
        for (index, path) in segment_files(dir)? {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let (seg_stats, valid_len) = replay_segment(index, &bytes, &mut deliver);
            stats.absorb(seg_stats);
            last = Some((index, valid_len, bytes.len()));
        }

        // Position the writer. A fresh directory starts at segment 1. An
        // existing newest segment is reopened at its *trusted prefix*: a
        // torn or unframeable tail is truncated away first (classic WAL
        // recovery), because records appended after damaged bytes could
        // never be replayed. If even the magic is untrustworthy, the file
        // is left as evidence and a new segment begins.
        let (index, fresh) = match last {
            None => (1, true),
            Some((index, valid_len, file_len)) => {
                if valid_len >= SEGMENT_MAGIC.len() {
                    if valid_len < file_len {
                        let f = OpenOptions::new()
                            .write(true)
                            .open(segment_path(dir, index))?;
                        f.set_len(valid_len as u64)?;
                        f.sync_data()?;
                    }
                    (index, false)
                } else {
                    (index + 1, true)
                }
            }
        };
        let path = segment_path(dir, index);
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        let mut seg_len = file.metadata()?.len();
        if fresh {
            // Through the fuse like every other write: a crash budget of 0
            // means not even the magic lands.
            let allowed = match &fuse {
                Some(f) => f.consume(SEGMENT_MAGIC.len()),
                None => SEGMENT_MAGIC.len(),
            };
            if allowed > 0 {
                file.write_all(&SEGMENT_MAGIC[..allowed])?;
            }
            seg_len += SEGMENT_MAGIC.len() as u64;
        }
        Ok((
            SegmentLog {
                dir: dir.to_path_buf(),
                segment_bytes: segment_bytes.max(4096),
                policy,
                fuse,
                writer: Mutex::new(LogWriter {
                    file,
                    seg_index: index,
                    seg_len,
                    last_sync: Instant::now(),
                    dirty: false,
                }),
                appends: AtomicU64::new(0),
                fsyncs: AtomicU64::new(0),
            },
            stats,
        ))
    }

    /// Write bytes through the crash fuse: everything past the budget
    /// silently vanishes, like writes issued after the process died.
    fn fused_write(&self, w: &mut LogWriter, buf: &[u8]) -> io::Result<()> {
        let allowed = match &self.fuse {
            Some(fuse) => fuse.consume(buf.len()),
            None => buf.len(),
        };
        if allowed > 0 {
            w.file.write_all(&buf[..allowed])?;
        }
        Ok(())
    }

    /// Append one record and apply the fsync policy, returning where the
    /// framed record landed. The payload is framed with its length and
    /// CRC-32; rotation happens before the append once the current segment
    /// exceeds the size threshold.
    pub fn append(&self, payload: &[u8]) -> io::Result<RecordLoc> {
        assert!(payload.len() <= MAX_RECORD as usize, "record too large");
        let mut buf = Vec::with_capacity(8 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);

        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if w.seg_len >= self.segment_bytes {
            self.sync_locked(&mut w)?;
            w.seg_index += 1;
            let path = segment_path(&self.dir, w.seg_index);
            w.file = OpenOptions::new().create(true).append(true).open(path)?;
            w.seg_len = 0;
            self.fused_write(&mut w, SEGMENT_MAGIC)?;
            w.seg_len += SEGMENT_MAGIC.len() as u64;
        }
        let loc = RecordLoc {
            segment: w.seg_index,
            offset: w.seg_len,
            len: payload.len() as u32,
        };
        self.fused_write(&mut w, &buf)?;
        w.seg_len += buf.len() as u64;
        w.dirty = true;
        self.appends.fetch_add(1, Ordering::Relaxed);
        match self.policy {
            FsyncPolicy::Always => self.sync_locked(&mut w)?,
            FsyncPolicy::Interval(every) => self.sync_locked_if_due(&mut w, every)?,
            FsyncPolicy::Never => {}
        }
        Ok(loc)
    }

    /// Under [`FsyncPolicy::Interval`], fsync unsynced appends once the
    /// interval has passed since the last fsync; a no-op under the other
    /// policies (`always` leaves nothing unsynced). An append applies the
    /// same rule, but only when it happens: call this periodically so the
    /// last records before a quiet period reach the disk too.
    pub fn sync_due(&self) -> io::Result<()> {
        let FsyncPolicy::Interval(every) = self.policy else {
            return Ok(());
        };
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.sync_locked_if_due(&mut w, every)
    }

    fn sync_locked_if_due(&self, w: &mut LogWriter, every: Duration) -> io::Result<()> {
        if w.last_sync.elapsed() >= every {
            self.sync_locked(w)?;
        }
        Ok(())
    }

    fn sync_locked(&self, w: &mut LogWriter) -> io::Result<()> {
        if !w.dirty {
            return Ok(());
        }
        // A tripped fuse means "the process is dead": it neither writes nor
        // reaches the disk with an fsync.
        if !self.fuse.as_ref().is_some_and(|f| f.tripped()) {
            w.file.sync_data()?;
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        w.dirty = false;
        w.last_sync = Instant::now();
        Ok(())
    }

    /// Flush and fsync any unsynced appends (graceful drain).
    pub fn sync(&self) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.sync_locked(&mut w)
    }

    /// Records appended by this process.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// Fsyncs issued by this process.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Index of the segment currently being appended to.
    pub fn segment_index(&self) -> u64 {
        self.writer
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .seg_index
    }
}

/// Re-read one record at a known location, re-verifying its framing and
/// CRC. Returns `Ok(None)` when the bytes at the location no longer frame a
/// matching intact record (damage since indexing — detected, never served).
pub fn read_record_at(dir: &Path, loc: RecordLoc) -> io::Result<Option<Vec<u8>>> {
    let mut file = match File::open(segment_path(dir, loc.segment)) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    file.seek(SeekFrom::Start(loc.offset))?;
    let mut header = [0u8; 8];
    if file.read_exact(&mut header).is_err() {
        return Ok(None); // truncated since indexing
    }
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    if len != loc.len || len > MAX_RECORD {
        return Ok(None);
    }
    let mut payload = vec![0u8; len as usize];
    if file.read_exact(&mut payload).is_err() {
        return Ok(None);
    }
    if crc32(&payload) != crc {
        return Ok(None);
    }
    Ok(Some(payload))
}

/// Read every intact record payload under `dir` without opening the log for
/// append — the inspection path tests and tools use.
pub fn read_records(dir: &Path) -> io::Result<(Vec<Vec<u8>>, ReplayStats)> {
    let mut stats = ReplayStats::default();
    let mut records = Vec::new();
    if !dir.exists() {
        return Ok((records, stats));
    }
    for (index, path) in segment_files(dir)? {
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let (seg_stats, _) = replay_segment(index, &bytes, |p, _| records.push(p.to_vec()));
        stats.absorb(seg_stats);
    }
    Ok((records, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pasm-seglog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> (SegmentLog, Vec<Vec<u8>>, ReplayStats) {
        let mut seen = Vec::new();
        let (log, stats) = SegmentLog::open(
            dir,
            FsyncPolicy::Never,
            DEFAULT_SEGMENT_BYTES,
            None,
            |p, _| seen.push(p.to_vec()),
        )
        .unwrap();
        (log, seen, stats)
    }

    /// `interval` fsyncs the appends a quiet period follows once
    /// `sync_due` runs after the interval, and a clean log never fsyncs.
    #[test]
    fn interval_sync_due_covers_idle_periods() {
        let dir = tmpdir("interval");
        let every = Duration::from_millis(100);
        let (log, _) = SegmentLog::open(
            &dir,
            FsyncPolicy::Interval(every),
            DEFAULT_SEGMENT_BYTES,
            None,
            |_, _| {},
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(150));
        log.sync_due().unwrap();
        assert_eq!(log.fsyncs(), 0, "a clean log does not fsync");
        for i in 0..3u32 {
            log.append(format!("record-{i}").as_bytes()).unwrap();
        }
        // The first append was due and fsynced; the other two ride in OS
        // buffers until the interval passes again.
        assert_eq!(log.fsyncs(), 1);
        std::thread::sleep(Duration::from_millis(150));
        log.sync_due().unwrap();
        assert_eq!(log.fsyncs(), 2);
        log.sync_due().unwrap();
        assert_eq!(log.fsyncs(), 2, "nothing left to sync");
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_then_replay_round_trips_in_order() {
        let dir = tmpdir("roundtrip");
        {
            let (log, seen, stats) = open(&dir);
            assert!(seen.is_empty() && stats == ReplayStats::default());
            for i in 0..100u32 {
                log.append(format!("record-{i}").as_bytes()).unwrap();
            }
            log.sync().unwrap();
        }
        let (_, seen, stats) = open(&dir);
        assert_eq!(stats.replayed, 100);
        assert_eq!(stats.truncated + stats.corrupt, 0);
        assert_eq!(seen.len(), 100);
        assert_eq!(seen[7], b"record-7");
        assert_eq!(seen[99], b"record-99");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_locations_read_back_their_records() {
        let dir = tmpdir("locs");
        let (log, _, _) = open(&dir);
        let mut locs = Vec::new();
        for i in 0..32u32 {
            locs.push((i, log.append(format!("payload-{i}").as_bytes()).unwrap()));
        }
        log.sync().unwrap();
        for (i, loc) in &locs {
            let payload = read_record_at(&dir, *loc).unwrap().expect("intact");
            assert_eq!(payload, format!("payload-{i}").as_bytes());
        }
        // Replay delivers the same locations it returned at append time.
        drop(log);
        let mut replayed = Vec::new();
        let (_, stats) = SegmentLog::open(
            &dir,
            FsyncPolicy::Never,
            DEFAULT_SEGMENT_BYTES,
            None,
            |_, loc| replayed.push(loc),
        )
        .unwrap();
        assert_eq!(stats.replayed, 32);
        assert_eq!(
            replayed,
            locs.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            "replay locations match append locations"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn read_record_at_refuses_damaged_bytes() {
        let dir = tmpdir("reread");
        let (log, _, _) = open(&dir);
        let loc = log.append(b"precious-payload").unwrap();
        log.sync().unwrap();
        drop(log);
        // Flip one payload bit: the location still frames, the CRC refuses.
        let path = segment_path(&dir, loc.segment);
        let mut bytes = fs::read(&path).unwrap();
        bytes[(loc.offset + 8 + 2) as usize] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_record_at(&dir, loc).unwrap(), None);
        // Truncated mid-payload: refused, not partially served.
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert_eq!(read_record_at(&dir, loc).unwrap(), None);
        // Missing segment file: refused.
        fs::remove_file(&path).unwrap();
        assert_eq!(read_record_at(&dir, loc).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_replay_spans_them() {
        let dir = tmpdir("rotate");
        {
            let (log, _) =
                SegmentLog::open(&dir, FsyncPolicy::Never, 4096, None, |_, _| {}).unwrap();
            let payload = vec![0xA5u8; 512];
            for _ in 0..64 {
                log.append(&payload).unwrap();
            }
            assert!(log.segment_index() > 1, "rotation happened");
        }
        let (log, seen, stats) = open(&dir);
        assert_eq!(stats.replayed, 64);
        assert!(stats.segments > 1);
        assert_eq!(seen.len(), 64);
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_not_served() {
        let dir = tmpdir("torn");
        {
            let (log, _, _) = open(&dir);
            log.append(b"intact-one").unwrap();
            log.append(b"intact-two").unwrap();
            log.sync().unwrap();
        }
        // Chop bytes off the tail: mid-payload, mid-header, mid-magic.
        let path = segment_path(&dir, 1);
        let full = fs::read(&path).unwrap();
        for cut in [3, 7, full.len() - 3, full.len() - 12] {
            fs::write(&path, &full[..cut]).unwrap();
            let (records, stats) = read_records(&dir).unwrap();
            assert_eq!(stats.truncated, 1, "cut at {cut}");
            assert!(
                records
                    .iter()
                    .all(|r| r == b"intact-one" || r == b"intact-two"),
                "cut at {cut} surfaced a partial record: {records:?}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_is_skipped_and_later_records_survive() {
        let dir = tmpdir("flip");
        {
            let (log, _, _) = open(&dir);
            log.append(b"first-record").unwrap();
            log.append(b"second-record").unwrap();
            log.append(b"third-record").unwrap();
            log.sync().unwrap();
        }
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload bit of the *second* record (after magic + record 1).
        let offset = 8 + (8 + b"first-record".len()) + 8 + 3;
        bytes[offset] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let (records, stats) = read_records(&dir).unwrap();
        assert_eq!(stats.corrupt, 1);
        assert_eq!(stats.replayed, 2);
        assert_eq!(
            records,
            vec![b"first-record".to_vec(), b"third-record".to_vec()]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn insane_length_abandons_the_segment_but_not_later_ones() {
        let dir = tmpdir("frame");
        {
            let (log, _) =
                SegmentLog::open(&dir, FsyncPolicy::Never, 4096, None, |_, _| {}).unwrap();
            let payload = vec![1u8; 1024];
            for _ in 0..8 {
                log.append(&payload).unwrap(); // spans ≥ 2 segments
            }
        }
        // Smash the length field of segment 1's first record.
        let path = segment_path(&dir, 1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        let (records, stats) = read_records(&dir).unwrap();
        assert!(stats.corrupt >= 1);
        assert!(
            !records.is_empty(),
            "later segments replay past an unframeable one"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_fuse_models_a_torn_write_at_a_byte_offset() {
        for budget in [0u64, 5, 13, 21, 60] {
            let dir = tmpdir(&format!("fuse{budget}"));
            {
                // Budget is consumed by the fresh segment magic first (8
                // bytes), then the records.
                let fuse = CrashFuse::new(8 + budget);
                let (log, _) = SegmentLog::open(
                    &dir,
                    FsyncPolicy::Always,
                    DEFAULT_SEGMENT_BYTES,
                    Some(fuse),
                    |_, _| {},
                )
                .unwrap();
                for i in 0..4u32 {
                    log.append(format!("payload-{i}").as_bytes()).unwrap();
                }
                log.sync().unwrap();
            }
            let (records, stats) = read_records(&dir).unwrap();
            let expect_complete = (budget / (8 + b"payload-0".len() as u64)) as usize;
            assert_eq!(records.len(), expect_complete, "budget {budget}");
            assert!(stats.corrupt == 0, "a torn write never looks corrupt");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn reopening_after_a_tear_truncates_and_appends_reachably() {
        let dir = tmpdir("reopen");
        {
            let (log, _, _) = open(&dir);
            log.append(b"survivor").unwrap();
            log.append(b"casualty").unwrap();
            log.sync().unwrap();
        }
        // Tear the tail mid-record, then reopen and append more.
        let path = segment_path(&dir, 1);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        {
            let (log, seen, stats) = open(&dir);
            assert_eq!(seen, vec![b"survivor".to_vec()]);
            assert_eq!(stats.truncated, 1);
            log.append(b"afterlife").unwrap();
            log.sync().unwrap();
        }
        // The post-tear append replays: the tail was truncated before it.
        let (records, stats) = read_records(&dir).unwrap();
        assert_eq!(records, vec![b"survivor".to_vec(), b"afterlife".to_vec()]);
        assert_eq!(stats.truncated, 0, "the tear is gone from disk");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policies_parse_and_label() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Some(FsyncPolicy::Never));
        assert_eq!(
            FsyncPolicy::parse("interval"),
            Some(FsyncPolicy::Interval(Duration::from_millis(100)))
        );
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Some(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
        assert_eq!(FsyncPolicy::parse("interval:x"), None);
        for p in ["always", "never", "interval:250"] {
            assert_eq!(FsyncPolicy::parse(p).unwrap().label(), p);
        }
    }

    #[test]
    fn always_policy_fsyncs_every_append() {
        let dir = tmpdir("sync");
        let (log, _) = SegmentLog::open(
            &dir,
            FsyncPolicy::Always,
            DEFAULT_SEGMENT_BYTES,
            None,
            |_, _| {},
        )
        .unwrap();
        log.append(b"a").unwrap();
        log.append(b"b").unwrap();
        assert_eq!(log.fsyncs(), 2);
        assert_eq!(log.appends(), 2);
        drop(log);
        fs::remove_dir_all(&dir).unwrap();
    }
}
