//! The **durable result store**: `fingerprint → ExperimentResult` records on
//! the shared [`pasm_store`] segment log.
//!
//! The segment-log machinery (PASMSEG1 framing, CRC records, torn-tail
//! truncation, fsync policies, crash-fuse injection) lives in the
//! [`pasm_store`] crate so the span store and this result store share one
//! implementation; this module re-exports the framing types under their old
//! paths and keeps only the result-record encoding on top.
//!
//! The simulator is deterministic and results are content-addressed
//! ([`pasm::ExperimentKey::fingerprint`]), so durability is purely a storage
//! problem: append `fingerprint → result` records to disk as they are
//! computed, replay them into the in-memory cache on startup. A CRC-intact
//! record whose JSON fails to decode — e.g. written by a different format
//! version — is folded into the `corrupt` counter: detected, skipped, never
//! served.

pub use pasm_store::{
    read_records, CrashFuse, FsyncPolicy, RecordLoc, ReplayStats, SegmentLog,
    DEFAULT_SEGMENT_BYTES, MAX_RECORD, SEGMENT_MAGIC,
};

use pasm::ExperimentResult;
use pasm_util::{json, Json, ToJson};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Durable `fingerprint → ExperimentResult` store: JSON records
/// `{"fp":"<16 hex digits>","result":{…}}` on a [`SegmentLog`].
///
/// Replay hands `(fingerprint, result)` pairs to the caller (the in-memory
/// cache), last write wins.
pub struct ResultStore {
    log: SegmentLog,
}

impl ResultStore {
    /// Open (creating if needed) the result store under `dir`, replaying
    /// every decodable record through `deliver`.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        fuse: Option<Arc<CrashFuse>>,
        mut deliver: impl FnMut(u64, ExperimentResult),
    ) -> io::Result<(ResultStore, ReplayStats)> {
        let mut malformed = 0u64;
        let (log, mut stats) =
            SegmentLog::open(dir, policy, DEFAULT_SEGMENT_BYTES, fuse, |payload, _loc| {
                match decode_result(payload) {
                    Some((fp, result)) => deliver(fp, result),
                    None => malformed += 1,
                }
            })?;
        stats.replayed -= malformed;
        stats.corrupt += malformed;
        Ok((ResultStore { log }, stats))
    }

    /// Persist one computed result under its fingerprint.
    pub fn append(&self, fingerprint: u64, result: &ExperimentResult) -> io::Result<()> {
        let record = Json::obj(vec![
            ("fp", Json::Str(format!("{fingerprint:016x}"))),
            ("result", result.to_json()),
        ]);
        self.log.append(record.dump().as_bytes()).map(|_| ())
    }

    /// Flush and fsync pending appends (graceful drain).
    pub fn sync(&self) -> io::Result<()> {
        self.log.sync()
    }

    /// Fsync pending appends if the interval policy says they are due
    /// ([`SegmentLog::sync_due`]).
    pub fn sync_due(&self) -> io::Result<()> {
        self.log.sync_due()
    }

    /// Records appended by this process.
    pub fn appends(&self) -> u64 {
        self.log.appends()
    }

    /// Fsyncs issued by this process.
    pub fn fsyncs(&self) -> u64 {
        self.log.fsyncs()
    }
}

/// Decode one result record; `None` means undecodable (counted as corrupt).
fn decode_result(payload: &[u8]) -> Option<(u64, ExperimentResult)> {
    let text = std::str::from_utf8(payload).ok()?;
    let value = json::parse(text).ok()?;
    let fp = u64::from_str_radix(value.get("fp")?.as_str()?, 16).ok()?;
    let result = ExperimentResult::from_json(value.get("result")?).ok()?;
    Some((fp, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasm::ExperimentKey;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pasm-resultstore-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_result() -> (u64, ExperimentResult) {
        let key = ExperimentKey {
            config: pasm_machine::MachineConfig::prototype(),
            mode: pasm::Mode::Simd,
            params: pasm::Params::new(8, 4),
            seed: 7,
            fault: Default::default(),
            workload: pasm::MATMUL,
        };
        let result = pasm::run_keyed(&key).expect("tiny run succeeds");
        (key.fingerprint(), result)
    }

    #[test]
    fn results_replay_after_reopen() {
        let dir = tmpdir("replay");
        let (fp, result) = sample_result();
        {
            let (store, stats) =
                ResultStore::open(&dir, FsyncPolicy::Never, None, |_, _| {}).unwrap();
            assert_eq!(stats.replayed, 0);
            store.append(fp, &result).unwrap();
            store.sync().unwrap();
        }
        let mut seen = Vec::new();
        let (_, stats) = ResultStore::open(&dir, FsyncPolicy::Never, None, |f, r| {
            seen.push((f, r));
        })
        .unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, fp);
        assert_eq!(seen[0].1.cycles, result.cycles);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undecodable_records_count_as_corrupt() {
        let dir = tmpdir("undecodable");
        let (fp, result) = sample_result();
        {
            let (store, _) = ResultStore::open(&dir, FsyncPolicy::Never, None, |_, _| {}).unwrap();
            store.append(fp, &result).unwrap();
            // A CRC-intact record that is not a result record.
            store.log.append(b"{\"not\":\"a result\"}").unwrap();
            store.sync().unwrap();
        }
        let mut seen = 0;
        let (_, stats) =
            ResultStore::open(&dir, FsyncPolicy::Never, None, |_, _| seen += 1).unwrap();
        assert_eq!(seen, 1);
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.corrupt, 1, "intact-but-foreign counts as corrupt");
        fs::remove_dir_all(&dir).unwrap();
    }
}
