//! Helpers the workloads share: inputs, exact answers, the linear-algebra
//! probe and the state-iteration counters.

use std::collections::BTreeMap;
use std::time::Instant;

use ohmflow::PlanCacheStats;
use ohmflow_circuit::{Circuit, DcSolver, FrozenDcPhases, LuOptions};
use ohmflow_graph::FlowNetwork;
use ohmflow_linalg::SparseLu;
use ohmflow_maxflow::{push_relabel, PushRelabelVariant};

use crate::rng::Rng;
use crate::trace::{self, Span, Tracer};
use crate::{stats, Config, Layers};

/// Set-ups per run, shared out over its passes; `setup_s` reports their
/// median.
pub(crate) const SETUP_REPS: usize = 9;

/// The set-ups of one pass: `set_up` runs a pass's share of
/// [`SETUP_REPS`], each timed into `setup_s`. The last one is returned for
/// the pass; `discard` disposes of the others.
pub(crate) fn pass_set_up<T>(
    cfg: &Config,
    setup_s: &mut Vec<f64>,
    mut set_up: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<T, String> {
    let mut last = None;
    for _ in 0..(SETUP_REPS / cfg.passes()).max(1) {
        let t0 = Instant::now();
        let made = set_up()?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some(earlier) = last.replace(made) {
            discard(earlier);
        }
    }
    Ok(last.expect("invariant: a pass sets up at least once"))
}

/// Capacities are drawn from `1..=MAX_CAPACITY`, as in the Fig. 10 sweep.
pub(crate) const MAX_CAPACITY: u64 = 100;

/// Display-to-string, for `map_err`.
pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `topology` with fresh capacities drawn from `rng`.
pub(crate) fn recapacitate(topology: &FlowNetwork, rng: &mut Rng) -> FlowNetwork {
    let mut g = FlowNetwork::new(topology.vertex_count(), topology.source(), topology.sink())
        .expect("invariant: endpoints copied from a valid network");
    for e in topology.edges() {
        g.add_edge(e.from, e.to, rng.range(1, MAX_CAPACITY) as i64)
            .expect("invariant: edges copied from a valid network");
    }
    g
}

/// The exact max-flow value.
pub(crate) fn exact_flow(g: &FlowNetwork) -> i64 {
    push_relabel(g, PushRelabelVariant::HighestLabel).value
}

/// The complementarity state-iteration budget of `circuit`: `200 + 4 ×
/// diodes`, the rule of `ohmflow_circuit::mna::max_state_iters`. An op
/// that spends more than half of it is counted as cycling.
pub(crate) fn state_iter_budget(circuit: &Circuit) -> usize {
    200 + 4 * circuit.diode_count()
}

/// Whether op `i` runs traced: in a traced run, ops alternate in blocks of
/// `period` (one full cycle of the workload's op kinds) between untraced
/// and traced, so `trace.overhead` compares like with like.
pub(crate) fn traced_op(cfg: &Config, i: usize, period: usize) -> bool {
    cfg.trace && (i / period) % 2 == 1
}

/// Peak resident memory of this process (`VmHWM`), MB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Complementarity state-iteration counters over every op of a run. An op
/// run more than once (once per pass) counts once.
#[derive(Debug, Default)]
pub(crate) struct Iters {
    /// Per op: iterations, whether they passed half the budget, and
    /// refinement steps.
    by_op: BTreeMap<u64, (usize, bool, usize)>,
    budget: usize,
}

impl Iters {
    /// Records op `op`'s iterations, against its circuit's budget when the
    /// count is a complementarity iteration count (`None` for the
    /// transient's frozen-state solves, which have no such budget).
    pub(crate) fn record(
        &mut self,
        op: u64,
        iterations: usize,
        budget: Option<usize>,
        refinements: usize,
    ) {
        let cycling = budget.is_some_and(|b| 2 * iterations > b);
        self.budget = self.budget.max(budget.unwrap_or(0));
        self.by_op.insert(op, (iterations, cycling, refinements));
    }

    /// Op `op`'s iterations.
    pub(crate) fn of(&self, op: u64) -> Option<usize> {
        self.by_op.get(&op).map(|r| r.0)
    }

    /// Sets the `circuit.state_iters_*`, `circuit.cycling_ops`,
    /// `circuit.state_iter_budget` and `circuit.refinements` metrics.
    pub(crate) fn report(&self, layers: &mut Layers) {
        let v: Vec<f64> = self.by_op.values().map(|r| r.0 as f64).collect();
        let n = v.len();
        let cycling = self.by_op.values().filter(|r| r.1).count();
        let refinements: usize = self.by_op.values().map(|r| r.2).sum();
        layers.set("circuit.state_iters_p50", stats::median(&v), n);
        layers.set("circuit.state_iters_max", stats::max(&v), n);
        layers.set("circuit.state_iters_sum", v.iter().sum(), n);
        layers.set("circuit.cycling_ops", cycling as f64, n);
        layers.set("circuit.state_iter_budget", self.budget as f64, n);
        layers.set("circuit.refinements", refinements as f64, n);
    }
}

/// Times `SparseLu::factor_with` (ordering + symbolic + numeric),
/// `SparseLu::refactor` and `SparseLu::solve_into` on the stamped
/// initial-state system of `circuit`, as spans `linalg.factor`,
/// `linalg.refactor` and `linalg.solve` of the current op. Returns the
/// fresh factor's `(nnz(L+U), BTF blocks)`.
pub(crate) fn probe_linalg(
    tr: &mut Tracer,
    circuit: &Circuit,
    lu: &LuOptions,
) -> Result<(usize, usize), String> {
    let (m, mut numeric) = DcSolver::new()
        .lu_options(*lu)
        .stamp(circuit)
        .map_err(err)?;
    let fresh = tr
        .time("linalg.factor", || SparseLu::factor_with(&m, lu))
        .map_err(err)?;
    tr.time("linalg.refactor", || numeric.refactor(&m))
        .map_err(err)?;
    let b = vec![1.0; m.cols()];
    let (mut work, mut x) = (Vec::new(), Vec::new());
    tr.time("linalg.solve", || numeric.solve_into(&b, &mut work, &mut x))
        .map_err(err)?;
    Ok((fresh.factor_nnz(), fresh.symbolic().block_count()))
}

/// Sets each `(span, metric)` pair's metric to the median over traced ops
/// of that span's per-op time.
pub(crate) fn span_medians(spans: &[Span], layers: &mut Layers, pairs: &[(&str, &'static str)]) {
    let per_op = trace::per_op(spans);
    for &(span, metric) in pairs {
        let (value, n) = trace::median_ns(&per_op, span);
        layers.set(metric, value, n);
    }
}

/// `circuit.self_ns`: per traced op, `solver.solve` time minus iterations
/// × (`linalg.refactor` + `linalg.solve`) of the same op; the median.
pub(crate) fn circuit_self_ns(spans: &[Span], iters: &Iters, layers: &mut Layers) {
    let per_op = trace::per_op(spans);
    let (Some(solve), Some(refactor), Some(tri)) = (
        per_op.get("solver.solve"),
        per_op.get("linalg.refactor"),
        per_op.get("linalg.solve"),
    ) else {
        return;
    };
    let own: Vec<f64> = solve
        .iter()
        .filter_map(|(op, &t)| {
            let linalg = refactor.get(op)? + tri.get(op)?;
            Some(t - iters.of(*op)? as f64 * linalg)
        })
        .collect();
    layers.set("circuit.self_ns", stats::median(&own), own.len());
}

/// `linalg.factor_nnz` / `linalg.block_count` from the probes' results.
pub(crate) fn factor_shape(layers: &mut Layers, shapes: &[(usize, usize)]) {
    let nnz: Vec<f64> = shapes.iter().map(|s| s.0 as f64).collect();
    let blocks: Vec<f64> = shapes.iter().map(|s| s.1 as f64).collect();
    layers.set("linalg.factor_nnz", stats::median(&nnz), shapes.len());
    layers.set("linalg.block_count", stats::median(&blocks), shapes.len());
}

/// The plan-cache counters accumulated between two snapshots, with the
/// hit ratio beside its base.
pub(crate) fn plan_cache_layers(
    layers: &mut Layers,
    before: PlanCacheStats,
    after: PlanCacheStats,
) {
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let lookups = (hits + misses) as usize;
    layers.set("plan_cache.hits", hits as f64, lookups);
    layers.set("plan_cache.misses", misses as f64, lookups);
    let evictions = after.evictions - before.evictions;
    layers.set("plan_cache.evictions", evictions as f64, lookups);
    let ratio = hits as f64 / lookups.max(1) as f64;
    layers.set("plan_cache.hit_ratio", ratio, lookups);
}

/// `session.{stamp,refactor,solve,woodbury}_ns`: per-op medians of a
/// session's phase clocks.
pub(crate) fn session_phase_layers(layers: &mut Layers, phases: &[(u64, FrozenDcPhases)]) {
    let n = phases.len();
    let median = |f: fn(&FrozenDcPhases) -> u64| {
        let v: Vec<f64> = phases.iter().map(|(_, p)| f(p) as f64).collect();
        stats::median(&v)
    };
    layers.set("session.stamp_ns", median(|p| p.stamp_ns), n);
    layers.set("session.refactor_ns", median(|p| p.refactor_ns), n);
    layers.set("session.solve_ns", median(|p| p.solve_ns), n);
    layers.set("session.woodbury_ns", median(|p| p.woodbury_ns), n);
}
