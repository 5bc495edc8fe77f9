//! Smoke test of the benchmark: every workload at a tiny size, untraced and
//! traced. Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use ohmflow_perfbench::{run, Config, Report, Scale, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> Report {
    let cfg = Config {
        workload,
        seed: 3,
        seconds: 1,
        trace,
        scale: Scale::Tiny,
    };
    run(&cfg).unwrap_or_else(|e| panic!("{} set-up failed: {e}", workload.name()))
}

fn value(report: &Report, name: &str) -> (f64, usize) {
    let m = report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"));
    (m.value, m.samples)
}

fn names(report: &Report) -> Vec<(&str, &str)> {
    report.metrics.iter().map(|m| (m.name, m.unit)).collect()
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    for w in Workload::ALL {
        let r = tiny(w, false);
        assert!(r.attempted > 0, "{}", w.name());
        assert_eq!(names(&r), END_TO_END.to_vec(), "{}", w.name());
        for m in &r.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{} {}",
                w.name(),
                m.name
            );
        }
        for name in [
            "setup_s",
            "latency_p50_ms",
            "throughput_ops_s",
            "peak_rss_mb",
        ] {
            assert!(value(&r, name).0 > 0.0, "{} {name}", w.name());
        }
        // The answer check ran: one relative error per finite answer.
        let (_, checked) = value(&r, "rel_err_p50");
        assert_eq!(checked + r.failed, r.attempted, "{}", w.name());
        assert_eq!(value(&r, "rel_err_max").1, checked, "{}", w.name());
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    for w in Workload::ALL {
        let r = tiny(w, true);
        assert_eq!(names(&r), PER_LAYER.to_vec(), "{}", w.name());
        let (failed_frac, n) = value(&r, "ops.failed_frac");
        assert_eq!(n, r.attempted, "{}", w.name());
        assert!((failed_frac - r.failed as f64 / r.attempted as f64).abs() < 1e-12);
        let (coverage, ops) = value(&r, "trace.coverage");
        assert!(
            ops > 0 && coverage > 0.5 && coverage <= 1.0,
            "{} coverage {coverage}",
            w.name()
        );
        assert!(value(&r, "trace.overhead").0 > 0.0, "{}", w.name());
        assert!(!r.spans.is_empty(), "{}", w.name());
        assert!(value(&r, "linalg.factor_ns").1 > 0, "{}", w.name());
    }
}

#[test]
fn counters_repeat_exactly_for_a_seed() {
    for w in [Workload::Reprogram, Workload::DeltaStream] {
        let (a, b) = (tiny(w, true), tiny(w, true));
        for name in [
            "circuit.state_iters_sum",
            "circuit.cycling_ops",
            "circuit.state_iters_max",
        ] {
            assert_eq!(value(&a, name), value(&b, name), "{} {name}", w.name());
        }
        let (a, b) = (tiny(w, false), tiny(w, false));
        for name in ["rel_err_p50", "rel_err_max"] {
            assert_eq!(value(&a, name), value(&b, name), "{} {name}", w.name());
        }
    }
}

#[test]
fn tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
