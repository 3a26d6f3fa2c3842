//! Tiny-size smoke runs of every workload, untraced and traced, through the
//! same entry point the command line uses.

use pasmbench::{measure, Args, Report, Scale, Workload};
use std::path::PathBuf;

const END_TO_END: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "sim_minstr_per_s",
    "ops_per_s",
    "op_ms_gmean",
    "op_ms_p90",
];

fn smoke(workload: Workload, trace: bool) -> Report {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "smoke-{}-{}",
        workload.name(),
        u8::from(trace)
    ));
    let args = Args {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
        out_dir,
    };
    let report = pasmbench::run(&args).expect("run completes");
    assert!(
        report.correct(),
        "{}: {:?}",
        workload.name(),
        report.failures
    );
    let line = measure::result_line(&report);
    pasm_util::json::parse(&line).expect("result line is JSON");
    report
}

fn names(report: &Report) -> Vec<&'static str> {
    report.metrics.iter().map(|m| m.name).collect()
}

#[test]
fn every_workload_passes_untraced_with_every_end_to_end_metric() {
    for w in Workload::ALL {
        let report = smoke(w, false);
        assert_eq!(names(&report), END_TO_END, "{}", w.name());
        for m in &report.metrics {
            assert!(m.value > 0.0, "{} {} = {}", w.name(), m.name, m.value);
        }
    }
}

#[test]
fn every_workload_passes_traced_with_every_layer_metric() {
    let layer: Vec<&str> = pasmbench::trace::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .collect();
    for w in Workload::ALL {
        let report = smoke(w, true);
        assert_eq!(names(&report), layer, "{}", w.name());
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert!(value("machine.run_ms") > 0.0);
        assert!(value("machine.pe_instrs") > 0.0);
        if w == Workload::ServeMixed {
            assert_eq!(value("server.sim_runs_per_cold"), 1.0);
            assert!(value("http.healthz_ms_p50") > 0.0);
            assert!(value("store.fsyncs_per_cold") > 0.0);
            assert!(value("span_store.get_us") > 0.0);
        } else {
            assert_eq!(value("http.healthz_ms_p50"), 0.0);
        }
    }
}
