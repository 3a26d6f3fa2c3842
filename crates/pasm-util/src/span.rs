//! A lightweight span API for trace events on simulated timelines.
//!
//! Programs instrument phases (clear loop, MAC loop, recirculation transfer)
//! with begin/end markers; the simulator timestamps them in component-local
//! cycles, and this module turns them into named [`SpanEvent`]s collected in
//! a [`SpanLog`] that serializes to JSONL — one JSON object per line, each
//! stamped with [`SPAN_SCHEMA_VERSION`], the format documented in
//! `docs/OBSERVABILITY.md` and consumed by external trace tooling.
//!
//! ```
//! use pasm_util::span::SpanLog;
//!
//! let mut log = SpanLog::new();
//! log.record("pe0", "mac_loop", 120, 4500);
//! log.record("pe1", "mac_loop", 120, 4710);
//! let jsonl = log.to_jsonl();
//! assert_eq!(jsonl.lines().count(), 2);
//! assert!(jsonl.starts_with("{\"source\":\"pe0\""));
//! ```

use crate::json::Json;

/// Version stamped onto every JSONL line the writer emits, so trace tooling
/// can tell formats apart; lines with no version field predate the stamp
/// and have the same format as version 1.
pub const SPAN_SCHEMA_VERSION: i64 = 1;

/// One closed interval on a named component's cycle timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Component the span was measured on (e.g. `"pe3"`, `"mc0"`).
    pub source: String,
    /// Phase name (e.g. `"mac_loop"`, `"recirculation_transfer"`).
    pub name: String,
    /// First cycle of the interval (component-local clock).
    pub start: u64,
    /// Cycle the interval closed.
    pub end: u64,
}

impl SpanEvent {
    /// Length of the interval in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The event as a JSON object (the JSONL line's value).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("source", Json::Str(self.source.clone())),
            ("name", Json::Str(self.name.clone())),
            ("start", Json::Int(self.start as i64)),
            ("end", Json::Int(self.end as i64)),
            ("cycles", Json::Int(self.cycles() as i64)),
        ])
    }

    /// Parse the [`SpanEvent::to_json`] form back. `cycles` is derived, so
    /// the reader ignores it; `source`, `name`, `start`, `end` are required.
    pub fn from_json(v: &Json) -> Result<SpanEvent, String> {
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
        Ok(SpanEvent {
            source: str_field("source")?,
            name: str_field("name")?,
            start: u64_field("start")?,
            end: u64_field("end")?,
        })
    }
}

/// An append-only collection of [`SpanEvent`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanLog {
    /// The events, in record order.
    pub events: Vec<SpanEvent>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    /// Append one closed span.
    pub fn record(&mut self, source: &str, name: &str, start: u64, end: u64) {
        self.events.push(SpanEvent {
            source: source.to_string(),
            name: name.to_string(),
            start,
            end,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize as JSONL: one compact JSON object per line, each stamped
    /// with [`SPAN_SCHEMA_VERSION`], trailing newline after every line (an
    /// empty log is the empty string).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let Json::Obj(mut members) = e.to_json() else {
                unreachable!("span events serialize to objects")
            };
            members.push(("schema_version".to_string(), Json::Int(SPAN_SCHEMA_VERSION)));
            out.push_str(&Json::Obj(members).dump());
            out.push('\n');
        }
        out
    }

    /// Total cycles across all events with the given phase name.
    pub fn total_cycles(&self, name: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.name == name)
            .map(SpanEvent::cycles)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let mut log = SpanLog::new();
        log.record("pe0", "clear_loop", 0, 880);
        log.record("pe0", "mac_loop", 880, 5000);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = json::parse(lines[0]).expect("valid JSON line");
        assert_eq!(first.get("source").unwrap().as_str(), Some("pe0"));
        assert_eq!(first.get("name").unwrap().as_str(), Some("clear_loop"));
        assert_eq!(first.get("cycles").unwrap().as_u64(), Some(880));
    }

    #[test]
    fn totals_aggregate_by_name() {
        let mut log = SpanLog::new();
        log.record("pe0", "mac_loop", 0, 100);
        log.record("pe1", "mac_loop", 0, 150);
        log.record("pe0", "xfer", 100, 130);
        assert_eq!(log.total_cycles("mac_loop"), 250);
        assert_eq!(log.total_cycles("xfer"), 30);
        assert_eq!(log.total_cycles("nope"), 0);
        assert!(!log.is_empty());
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn empty_log_serializes_to_empty_string() {
        assert_eq!(SpanLog::new().to_jsonl(), "");
    }

    #[test]
    fn every_line_carries_the_schema_version() {
        let mut log = SpanLog::new();
        log.record("pe0", "mac_loop", 0, 10);
        log.record("mc0", "xfer", 10, 20);
        for line in log.to_jsonl().lines() {
            let v = json::parse(line).unwrap();
            assert_eq!(
                v.get("schema_version").unwrap().as_i64(),
                Some(SPAN_SCHEMA_VERSION)
            );
        }
    }

    #[test]
    fn span_event_from_json_requires_the_interval_fields() {
        let good = SpanEvent {
            source: "pe0".into(),
            name: "mac_loop".into(),
            start: 5,
            end: 17,
        };
        assert_eq!(SpanEvent::from_json(&good.to_json()).unwrap(), good);
        for field in ["source", "name", "start", "end"] {
            let Json::Obj(members) = good.to_json() else {
                unreachable!()
            };
            let pruned: Vec<_> = members.into_iter().filter(|(k, _)| k != field).collect();
            assert!(
                SpanEvent::from_json(&Json::Obj(pruned)).is_err(),
                "missing `{field}` must be rejected"
            );
        }
    }
}
