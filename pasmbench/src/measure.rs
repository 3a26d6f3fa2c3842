//! Measurement helpers: percentiles, process figures, provenance, and the
//! two outputs of a run (the result line and the result document).

use crate::{Args, Report};
use pasm_util::Json;
use std::path::Path;
use std::time::Instant;

/// Latency samples of one operation class, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push_since(&mut self, t0: Instant) {
        self.0.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    pub fn push(&mut self, ms: f64) {
        self.0.push(ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank percentile, `q` in `(0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.0, q)
    }
}

/// Nearest-rank percentile of unsorted values, `q` in `(0, 1]`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean, over groups of samples, of each group's median: the
/// typical latency of a mix whose operations differ by orders of
/// magnitude. Unlike one median over the whole mix it does not jump when
/// the middle of the mix falls in a gap between two groups.
pub fn median_gmean<'a>(groups: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let logs: Vec<f64> = groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        (logs.iter().sum::<f64>() / logs.len() as f64).exp()
    }
}

/// Per-window sums of one quantity, for rates and means that report the
/// median window rather than the whole run: a burst of host contention
/// that covers a minority of the windows then leaves the figure as it is.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    /// `(seconds, count, summed quantity)` per window.
    rows: Vec<(f64, f64, f64)>,
}

impl Windows {
    /// Close a window that lasted `seconds`, held `count` operations and
    /// summed `quantity` over them.
    pub fn push(&mut self, seconds: f64, count: f64, quantity: f64) {
        self.rows.push((seconds, count, quantity));
    }

    /// Median over windows of `quantity / seconds`.
    pub fn rate(&self) -> f64 {
        median(&self.rows.iter().map(|r| r.2 / r.0).collect::<Vec<_>>())
    }

    /// Median over windows of `count / seconds`.
    pub fn count_rate(&self) -> f64 {
        median(&self.rows.iter().map(|r| r.1 / r.0).collect::<Vec<_>>())
    }
}

/// A numeric field of `/proc/self/status` (`VmHWM`, `Threads`, ...).
fn proc_status(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").unwrap_or(0) as f64 / 1024.0
}

pub fn threads_now() -> u64 {
    proc_status("Threads").unwrap_or(0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The checked-out git revision, read from `./.git` without running git
/// (the benchmark runs from the repository root); `unknown` elsewhere.
pub fn git_revision() -> String {
    fn read() -> Option<String> {
        let git = Path::new(".git");
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
            return Some(rev.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| {
            let (rev, name) = l.split_once(' ')?;
            (name == reference).then(|| rev.to_string())
        })
    }
    read().unwrap_or_else(|| "unknown".to_string())
}

/// The result line: one JSON object on one line. Values print
/// with every digit Rust's shortest round-trip form gives.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                Json::Str(m.name.to_string()).dump(),
                Json::Str(m.unit.to_string()).dump()
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// The result document: the metrics plus the provenance of the run that
/// produced them.
pub fn document(args: &Args, report: &Report) -> Json {
    let attempted = report.attempted.max(1) as f64;
    Json::obj(vec![
        ("benchmark", Json::Str("pasmbench".into())),
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Float(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        (
            "scale",
            Json::Str(format!("{:?}", args.scale).to_lowercase()),
        ),
        ("git_revision", Json::Str(git_revision())),
        ("nproc", Json::Int(nproc() as i64)),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("fail_frac", Json::Float(report.failed as f64 / attempted)),
        (
            "failures",
            Json::Arr(report.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "metrics",
            Json::Obj(
                report
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Float(m.value)),
                                ("unit", Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::Obj(
                report
                    .samples
                    .iter()
                    .map(|(n, c)| (n.clone(), Json::Int(*c as i64)))
                    .collect(),
            ),
        ),
        (
            "details",
            Json::Obj(
                report
                    .details
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::Float(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// A fixed piece of benchmark-owned, CPU-bound work — four independent
/// hash-and-branch streams over a 16 KiB table, busy on many execution
/// ports at once like the simulator's dispatch loops — timed between
/// simulations to follow how fast the shared host runs this process.
///
/// On a host whose other tenants come and go, simulation time drifts by up
/// to 1.5× over minutes, and so does this probe; latency-bound probes
/// hardly move. Scaling a simulation time by
/// `(REFERENCE_MS / probe)^SENSITIVITY` states it at a fixed host speed.
/// The probe's code belongs to the benchmark, so a change to the program
/// cannot move it.
pub struct HostProbe {
    table: Vec<u32>,
}

impl Default for HostProbe {
    fn default() -> Self {
        HostProbe::new()
    }
}

impl HostProbe {
    /// Reference probe time: normalized times read as times on a host
    /// where one probe takes this long (on the 2-vCPU KVM guest, Xeon
    /// Sapphire Rapids host, the benchmark was added on, 0.25–0.45 ms).
    pub const REFERENCE_MS: f64 = 0.35;

    /// How strongly simulation time follows probe time: over 35 runs of
    /// both simulation workloads on that host, simulation time moved as
    /// probe time to this power (the probe is the more contention-bound).
    pub const SENSITIVITY: f64 = 0.75;

    pub fn new() -> HostProbe {
        HostProbe {
            table: (0..4096u32)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
        }
    }

    /// Milliseconds one probe takes.
    pub fn probe(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut s: [u64; 4] = [
            0x9E37_79B9_7F4A_7C15,
            0xBF58_476D_1CE4_E5B9,
            0x94D0_49BB_1331_11EB,
            0x2545_F491_4F6C_DD1D,
        ];
        let mut acc = [0u32; 4];
        let mask = self.table.len() - 1;
        for _ in 0..50_000 {
            for k in 0..4 {
                let mut x = s[k];
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s[k] = x;
                let i = (x as usize) & mask;
                let v = self.table[i];
                if v & 1 == 0 {
                    acc[k] = acc[k].wrapping_add(v >> 1);
                } else {
                    acc[k] ^= v.wrapping_mul(3);
                    self.table[i] = v.wrapping_add(k as u32);
                }
            }
        }
        std::hint::black_box(acc);
        t0.elapsed().as_secs_f64() * 1e3
    }

    /// `(REFERENCE_MS / median(probes))^SENSITIVITY`: the factor that
    /// scales a time measured beside these probes to the reference host.
    pub fn factor(probes: &[f64]) -> f64 {
        (HostProbe::REFERENCE_MS / median(probes).max(1e-9)).powf(HostProbe::SENSITIVITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_gmean_is_the_geometric_mean_of_group_medians() {
        let a = [1.0, 2.0, 100.0];
        let b = [8.0, 8.0, 9.0];
        let g = median_gmean([&a[..], &b[..], &[][..]]);
        assert!((g - 4.0).abs() < 1e-12, "{g}");
    }

    #[test]
    fn window_figures_are_medians_over_windows() {
        let mut w = Windows::default();
        w.push(1.0, 10.0, 100.0);
        w.push(2.0, 10.0, 100.0);
        w.push(1.0, 10.0, 300.0);
        assert_eq!(w.rate(), 100.0);
        assert_eq!(w.count_rate(), 10.0);
    }

    #[test]
    fn result_line_is_json_with_exactly_the_four_result_keys() {
        let mut r = Report::default();
        r.op(Ok(()));
        r.metric("op_ms_p50", 1.25, "ms");
        let line = result_line(&r);
        let v = pasm_util::json::parse(&line).unwrap();
        let Json::Obj(members) = &v else { panic!() };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().get("op_ms_p50").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("ms"));
    }
}
