//! Outside-in tracing: spans recorded around the benchmark's calls into
//! each crate's public functions, kept in memory and written out when the
//! run ends.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. Time that no layer span claims shows up as the root spans' self
//! time: `trace.unattributed_share` is that share of all root time.

use crate::{Args, Report};
use pasm_util::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Operation the span belongs to (the root span's index).
    op: usize,
    start_ns: u64,
    end_ns: u64,
    /// Nanoseconds covered by direct children.
    child_ns: u64,
}

/// Self-time summary of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration in a unit of `ns_per_unit` nanoseconds (1e6 for ms,
    /// 1e3 for µs).
    pub fn mean(&self, ns_per_unit: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / ns_per_unit / self.count as f64
        }
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let parent = self.open.last().copied();
        let idx = self.spans.len();
        let op = parent.map_or(idx, |p| self.spans[p].op);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        if let Some(p) = parent {
            self.spans[p].child_ns += end_ns - start_ns;
        }
        out
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut map: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &self.spans {
            let t = map.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(s.child_ns);
        }
        map
    }

    pub fn get(&self, name: &str) -> SpanTotals {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Share of root-span time not covered by any child span.
    pub fn unattributed_share(&self) -> f64 {
        let (mut total, mut own) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.parent.is_none()) {
            let dur = s.end_ns - s.start_ns;
            total += dur;
            own += dur.saturating_sub(s.child_ns);
        }
        if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        }
    }

    /// The self-time table, one row per span name, largest self time first.
    pub fn table(&self, title: &str) -> String {
        let totals = self.totals();
        let all_self: u64 = totals.values().map(|t| t.self_ns).sum::<u64>().max(1);
        let mut rows: Vec<_> = totals.into_iter().collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        let mut out = format!(
            "self-time table: {title}\n{:<24} {:>8} {:>12} {:>12} {:>12} {:>7}\n",
            "span", "count", "total_ms", "self_ms", "mean_us", "self%"
        );
        for (name, t) in rows {
            out.push_str(&format!(
                "{:<24} {:>8} {:>12.3} {:>12.3} {:>12.2} {:>6.1}%\n",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.mean(1e3),
                100.0 * t.self_ns as f64 / all_self as f64
            ));
        }
        out
    }

    /// Write every span as one JSON line (name, op, parent, start, end).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::Int(i as i64)),
                ("name", Json::Str(s.name.into())),
                ("op", Json::Int(s.op as i64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("start_ns", Json::Int(s.start_ns as i64)),
                ("end_ns", Json::Int(s.end_ns as i64)),
            ]);
            writeln!(out, "{}", line.dump())?;
        }
        out.flush()
    }
}

/// Every per-layer metric with its unit, in report order. A traced run of
/// any workload reports all of them; a layer the workload does not reach
/// reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("machine.run_ms", "ms"),
    ("machine.run_ns_per_instr", "ns"),
    ("machine.fu_entries", "count"),
    ("machine.fu_barrier_stalls", "count"),
    ("machine.pe_instrs", "count"),
    ("machine.mc_instrs", "count"),
    ("machine.sim_cycles", "cycles"),
    ("net.bytes_sent", "bytes"),
    ("machine.new_ms", "ms"),
    ("machine.account_overhead", "ratio"),
    ("kernels.generate_ms", "ms"),
    ("kernels.load_ms", "ms"),
    ("kernels.read_output_ms", "ms"),
    ("experiment.summarize_ms", "ms"),
    ("http.healthz_ms_p50", "ms"),
    ("protocol.parse_us", "us"),
    ("cache.get_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("server.sim_ms", "ms"),
    ("server.polls_per_cold", "count"),
    ("server.sim_runs_per_cold", "count"),
    ("journal.append_us", "us"),
    ("result_store.append_us", "us"),
    ("span_store.ingest_us", "us"),
    ("store.fsyncs_per_cold", "count"),
    ("store.appends_per_cold", "count"),
    ("span_store.get_us", "us"),
    ("span_store.list_us", "us"),
    ("span_store.sweep_us", "us"),
    ("json.encode_us", "us"),
    ("json.decode_us", "us"),
    ("server.recovery_ms", "ms"),
    ("server.threads_peak", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Push every [`PER_LAYER`] metric, taking values from `values` (0 where a
/// workload does not reach the layer).
pub fn push_per_layer(report: &mut Report, values: &BTreeMap<&'static str, f64>) {
    for (name, unit) in PER_LAYER {
        report.metric(name, values.get(name).copied().unwrap_or(0.0), unit);
    }
    debug_assert!(values.keys().all(|k| PER_LAYER.iter().any(|(n, _)| n == k)));
}

/// Print the self-time table and write the spans next to the result
/// document.
pub fn finish(args: &Args, tracer: &Tracer, report: &mut Report) {
    eprint!(
        "{}",
        tracer.table(&format!("{} seed {}", args.workload.name(), args.seed))
    );
    let path = args.out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = tracer.write_jsonl(&path) {
        report
            .failures
            .push(format!("writing {}: {e}", path.display()));
    }
    for (name, t) in tracer.totals() {
        report
            .details
            .push((format!("self_ms.{name}"), t.self_ns as f64 / 1e6));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_roots_hold_the_remainder() {
        let mut t = Tracer::new();
        t.span("op", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let op = t.get("op");
        let child = t.get("child");
        assert_eq!((op.count, child.count), (1, 1));
        assert_eq!(op.self_ns, op.total_ns - child.total_ns);
        let share = t.unattributed_share();
        assert!(share > 0.0 && share < 0.5, "{share}");
        assert!(t.table("x").contains("child"));
    }
}
