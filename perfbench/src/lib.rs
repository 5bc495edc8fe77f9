//! The ohmflow benchmark: four seeded closed-loop workloads driven through
//! the public API, every answer checked against exact push-relabel.
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics of
//! [`END_TO_END`]; a traced run (`--trace 1`) reports the per-layer metrics
//! of [`PER_LAYER`], taken from spans around the benchmark's own calls into
//! each layer and from the counters the library exposes. `NOTES.md` beside
//! this crate says which end-to-end metric each layer metric should move.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

pub mod rng;
pub mod stats;
pub mod trace;

mod cold_ingest;
mod common;
mod delta_stream;
mod reprogram;
mod staged;
mod transient;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fixed rmat256 topology, new capacities every op (plan hit →
    /// instance → quasi-static solve).
    Reprogram,
    /// A topology the server has never seen on every op, over loopback.
    ColdIngest,
    /// An rmat256 graph edited in place through delta sessions.
    DeltaStream,
    /// New capacities every op, solved with the relaxation transient.
    Transient,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Reprogram,
        Workload::ColdIngest,
        Workload::DeltaStream,
        Workload::Transient,
    ];

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Reprogram => "reprogram",
            Workload::ColdIngest => "cold_ingest",
            Workload::DeltaStream => "delta_stream",
            Workload::Transient => "transient",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes: the benchmark's own, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small graphs and few ops, so every code path runs in seconds.
    Tiny,
}

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of the run's inputs.
    pub seed: u64,
    /// Nominal length of the measured phase.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Passes of an untraced run over its ops.
///
/// The host's speed drifts by up to a third, in spells of seconds to
/// minutes, so the time of a single run of an op says as much about the
/// spell it fell in as about the program. An untraced run therefore runs
/// every op once per pass, each pass on freshly set-up solvers (no run of
/// an op finds another run's plan or warm start), the passes one after the
/// other in the same order so that an op's runs lie a pass apart; an op's
/// latency is the fastest of its runs. A traced run makes one pass.
pub const PASSES: usize = 3;

impl Config {
    /// Distinct ops in one run: `per_s` op runs per nominal second, spread
    /// over [`PASSES`] passes, at least 4. The count is fixed before the
    /// run starts and does not depend on `trace`, so a seed names the same
    /// ops and the same counters on every run.
    pub(crate) fn ops(&self, per_s: f64) -> usize {
        ((per_s * self.seconds as f64 / PASSES as f64).round() as usize).max(4)
    }

    /// Passes over the ops in this run.
    pub fn passes(&self) -> usize {
        if self.trace {
            1
        } else {
            PASSES
        }
    }

    /// Wall-clock limit after which no new op starts (the ops left are not
    /// attempted), so a run ends within bounded time whatever happens.
    pub(crate) fn give_up_after(&self) -> std::time::Duration {
        std::time::Duration::from_secs(self.seconds.max(1) * 4 + 20)
    }
}

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_ops_s", "1/s"),
    ("rel_err_p50", "ratio"),
    ("rel_err_max", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A metric
/// that a workload does not exercise reads 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.parse_ns", "ns"),
    ("serve.overhead_ns", "ns"),
    ("serve.codec_ns", "ns"),
    ("plan_cache.lookup_ns", "ns"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.hits", "count"),
    ("plan_cache.misses", "count"),
    ("plan_cache.evictions", "count"),
    ("template.instantiate_ns", "ns"),
    ("builder.build_ns", "ns"),
    ("linalg.factor_ns", "ns"),
    ("linalg.factor_nnz", "count"),
    ("linalg.block_count", "count"),
    ("linalg.refactor_ns", "ns"),
    ("linalg.solve_ns", "ns"),
    ("solver.solve_ns", "ns"),
    ("circuit.self_ns", "ns"),
    ("circuit.state_iters_p50", "count"),
    ("circuit.state_iters_max", "count"),
    ("circuit.state_iters_sum", "count"),
    ("circuit.cycling_ops", "count"),
    ("circuit.state_iter_budget", "count"),
    ("circuit.refinements", "count"),
    ("circuit.settle_us_p50", "us"),
    ("delta.cut.apply_ns", "ns"),
    ("delta.slack.apply_ns", "ns"),
    ("delta.cut.state_iters", "count"),
    ("delta.slack.state_iters", "count"),
    ("delta.applies", "count"),
    ("delta.consolidations", "count"),
    ("delta.consolidated_ratio", "ratio"),
    ("delta.replans", "count"),
    ("session.stamp_ns", "ns"),
    ("session.refactor_ns", "ns"),
    ("session.solve_ns", "ns"),
    ("session.woodbury_ns", "ns"),
    ("session.solves", "count"),
    ("session.reused_solutions", "count"),
    ("session.reuse_ratio", "ratio"),
    ("session.rank1_updates", "count"),
    ("session.refactorizations", "count"),
    ("session.full_factorizations", "count"),
    ("ops.failed_frac", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// An answer further than this share from the exact flow counts as failed.
/// It sits far above the known depth-dependent error of the ideal
/// substrate (about 2e-2 on grid20), so that error shows in `rel_err_*`
/// and not as failures.
pub const GROSS_REL_ERR: f64 = 0.5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples behind the value (0: not exercised by this workload).
    pub samples: usize,
}

/// Per-layer values a workload measured, by name.
#[derive(Debug, Default)]
pub(crate) struct Layers(BTreeMap<&'static str, (f64, usize)>);

impl Layers {
    /// Records `name` (which must be listed in [`PER_LAYER`]).
    pub(crate) fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "layer metric {name} is not declared in PER_LAYER"
        );
        self.0.insert(name, (value, samples));
    }
}

/// Per-op outcomes of the measured phase.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    /// Per op: the fastest of its runs' latencies, ms, and whether it ran
    /// traced.
    fastest: BTreeMap<usize, (f64, bool)>,
    /// Op runs attempted, over every pass.
    runs: usize,
    /// Relative error of every run's finite answer.
    rel_err: Vec<f64>,
    failed: usize,
    /// The first few failure messages, for the log.
    errors: Vec<String>,
}

impl OpLog {
    /// Records one run of op `op`: its latency, whether it ran traced, and
    /// its answer against the exact max-flow value.
    pub(crate) fn record(
        &mut self,
        op: usize,
        latency_ns: u64,
        traced: bool,
        answer: Result<f64, String>,
        exact: i64,
    ) {
        self.runs += 1;
        let ms = latency_ns as f64 / 1e6;
        let best = self.fastest.entry(op).or_insert((ms, traced));
        best.0 = best.0.min(ms);
        let failure = match answer {
            Ok(value) if value.is_finite() => {
                let err = (value - exact as f64).abs() / (exact.max(1) as f64);
                self.rel_err.push(err);
                (err > GROSS_REL_ERR)
                    .then(|| format!("answer {value} misses exact {exact} by {err:.3}"))
            }
            Ok(value) => Some(format!("non-finite answer {value}")),
            Err(msg) => Some(msg),
        };
        if let Some(msg) = failure {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(msg);
            }
        }
    }

    /// Op runs attempted so far.
    pub(crate) fn attempted(&self) -> usize {
        self.runs
    }

    /// The fastest latency of each op, ms, that ran traced (`true`) or not.
    fn latencies(&self, traced: bool) -> Vec<f64> {
        self.fastest
            .values()
            .filter(|&&(_, t)| t == traced)
            .map(|&(ms, _)| ms)
            .collect()
    }
}

/// What a workload hands back after its measured phase.
#[derive(Debug)]
pub(crate) struct Outcome {
    /// Each set-up's duration.
    pub setup_s: Vec<f64>,
    /// Closed-loop callers that sent the ops at once.
    pub callers: usize,
    pub log: OpLog,
    pub layers: Layers,
    pub spans: Vec<trace::Span>,
    /// Ops that were never started because the run hit its time limit.
    pub skipped: usize,
}

/// A finished run: what the last output line reports, plus the record.
#[derive(Debug)]
pub struct Report {
    /// No op failed and none was skipped.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: usize,
    /// Ops failed.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Ops the run planned but never started (time limit).
    pub skipped: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The traced run's spans.
    pub spans: Vec<trace::Span>,
}

/// Runs one configured benchmark.
///
/// # Errors
///
/// A set-up failure (the run measured nothing).
pub fn run(cfg: &Config) -> Result<Report, String> {
    let outcome = match cfg.workload {
        Workload::Reprogram => reprogram::run(cfg),
        Workload::ColdIngest => cold_ingest::run(cfg),
        Workload::DeltaStream => delta_stream::run(cfg),
        Workload::Transient => transient::run(cfg),
    }?;
    Ok(report(cfg, outcome))
}

fn report(cfg: &Config, out: Outcome) -> Report {
    let log = &out.log;
    let attempted = log.attempted();
    let metrics = if cfg.trace {
        let mut layers = out.layers;
        let (coverage, ops) = trace::coverage(&out.spans);
        layers.set("trace.coverage", coverage, ops);
        let (on, off) = (log.latencies(true), log.latencies(false));
        let overhead = if off.is_empty() {
            0.0
        } else {
            stats::median(&on) / stats::median(&off)
        };
        layers.set("trace.overhead", overhead, on.len());
        layers.set(
            "ops.failed_frac",
            log.failed as f64 / attempted.max(1) as f64,
            attempted,
        );
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = layers.0.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    } else {
        let latency = log.latencies(false);
        let ops = latency.len();
        // Closed loop (Little's law): each caller completes one op per
        // latency. With several callers this leaves out the tail of a pass
        // in which one caller still waits on a slow op while the others have
        // run out of ops, which depends on the order of the ops.
        let busy_s = latency.iter().sum::<f64>() / 1e3;
        let values = [
            (stats::median(&out.setup_s), out.setup_s.len()),
            (stats::median(&latency), ops),
            (stats::quantile(&latency, 0.9), ops),
            (out.callers as f64 * ops as f64 / busy_s.max(1e-9), ops),
            (stats::median(&log.rel_err), log.rel_err.len()),
            (stats::max(&log.rel_err), log.rel_err.len()),
            (common::peak_rss_mb(), 1),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Metric {
                name,
                unit,
                value,
                samples,
            })
            .collect()
    };
    Report {
        correct: log.failed == 0 && out.skipped == 0 && attempted > 0,
        attempted,
        failed: log.failed,
        metrics,
        skipped: out.skipped,
        errors: log.errors.clone(),
        spans: out.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_are_counted_not_fatal() {
        let mut log = OpLog::default();
        log.record(0, 1_000_000, false, Ok(99.0), 100);
        log.record(1, 1_000_000, false, Err("singular MNA system".to_owned()), 100);
        log.record(2, 1_000_000, true, Ok(f64::NAN), 100);
        log.record(3, 1_000_000, true, Ok(40.0), 100);
        assert_eq!(log.attempted(), 4);
        assert_eq!(log.failed, 3);
        // Finite answers keep their error, the gross miss included.
        assert_eq!(log.rel_err, vec![0.01, 0.6]);
        assert_eq!(log.errors.len(), 3);
    }

    #[test]
    fn an_op_keeps_its_fastest_run() {
        let mut log = OpLog::default();
        for (op, ns) in [(0, 3_000_000), (1, 5_000_000), (0, 2_000_000), (1, 7_000_000)] {
            log.record(op, ns, false, Ok(100.0), 100);
        }
        assert_eq!(log.attempted(), 4);
        assert_eq!(log.latencies(false), vec![2.0, 5.0]);
    }
}
