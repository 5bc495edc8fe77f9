//! The loop `reprogram` and `transient` share: each op sends one capacity
//! vector of a fixed corpus through `MaxFlowSolver::plan` (a cache hit),
//! `Plan::instance` and `Instance::solve`, with one caller. The topologies
//! are planned during set-up; corpus item `j` recapacitates topology
//! `j % topologies.len()`, and `--seed` sets the order of the items. Each
//! pass runs on a solver of its own, planned during set-up.

use std::time::Instant;

use ohmflow::{AnalogError, AnalogSolution, Instance, MaxFlowSolver, SolveMode, SolveOptions};
use ohmflow_graph::FlowNetwork;

use crate::common::{
    self, err, exact_flow, pass_set_up, probe_linalg, recapacitate, state_iter_budget, traced_op,
    Iters,
};
use crate::rng::Rng;
use crate::trace::{self, Tracer};
use crate::{stats, Config, Layers, OpLog, Outcome};

/// One staged-solve workload.
pub(crate) struct Staged {
    /// The fixed topologies, planned during set-up.
    pub topologies: Vec<FlowNetwork>,
    /// The solver configuration.
    pub opts: SolveOptions,
    /// Seed of the capacity-vector corpus.
    pub corpus_seed: u64,
    /// Corpus items per nominal second.
    pub ops_per_s: f64,
}

/// The staged solve of one op, each stage in its own span.
fn plan_instance_solve(
    solver: &MaxFlowSolver,
    g: &FlowNetwork,
    tr: &mut Tracer,
) -> Result<(Instance, AnalogSolution), AnalogError> {
    let plan = tr.time("plan_cache.lookup", || solver.plan(g))?;
    let instance = tr.time("template.instantiate", || plan.instance(g))?;
    let solution = tr.time("solver.solve", || instance.solve())?;
    Ok((instance, solution))
}

/// A solver with every topology planned and solved once.
fn set_up(opts: &SolveOptions, topologies: &[FlowNetwork]) -> Result<MaxFlowSolver, String> {
    let solver = MaxFlowSolver::new(opts.clone());
    for g in topologies {
        solver
            .plan(g)
            .and_then(|p| p.instance(g)?.solve())
            .map_err(err)?;
    }
    Ok(solver)
}

pub(crate) fn run(cfg: &Config, w: Staged) -> Result<Outcome, String> {
    let kinds = w.topologies.len();
    let n = cfg.ops(w.ops_per_s);
    let graphs: Vec<FlowNetwork> = (0..n)
        .map(|j| {
            recapacitate(
                &w.topologies[j % kinds],
                &mut Rng::keyed(w.corpus_seed, j as u64),
            )
        })
        .collect();
    let exact: Vec<i64> = graphs.iter().map(exact_flow).collect();
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(cfg.seed).shuffle(&mut order);

    let mut setup_s = Vec::new();
    let set_up_pass =
        |setup_s: &mut Vec<f64>| pass_set_up(cfg, setup_s, || set_up(&w.opts, &w.topologies), drop);
    let mut solver = set_up_pass(&mut setup_s)?;
    // Traced ops run on a twin solver with per-phase session timing on, so
    // untraced ops pay neither spans nor phase clocks.
    let timed = if cfg.trace {
        Some(set_up(
            &w.opts.clone().with_phase_timing(true),
            &w.topologies,
        )?)
    } else {
        None
    };
    // Quasi-static ops count complementarity iterations against the
    // circuit's budget; the transient counts frozen-state solves, which
    // have none.
    let quasi_static = w.opts.mode == SolveMode::QuasiStatic;
    let budgets: Vec<Option<usize>> = w
        .topologies
        .iter()
        .map(|g| {
            let instance = solver.plan(g).and_then(|p| p.instance(g)).map_err(err)?;
            Ok(quasi_static.then(|| state_iter_budget(instance.substrate().circuit())))
        })
        .collect::<Result<_, String>>()?;
    // The per-layer counters cover the first pass (a traced run's only one).
    let cache_before = solver.engine().plan_cache_stats();
    let mut cache_after = cache_before;

    let mut tr = Tracer::new(Instant::now());
    let (mut log, mut iters, mut shapes) = (OpLog::default(), Iters::default(), Vec::new());
    let (mut settle_us, mut phases) = (Vec::new(), Vec::new());
    let mut skipped = 0;
    let started = Instant::now();
    'passes: for pass in 0..cfg.passes() {
        if pass > 0 {
            solver = set_up_pass(&mut setup_s)?;
        }
        for (i, &j) in order.iter().enumerate() {
            if started.elapsed() > cfg.give_up_after() {
                skipped = (cfg.passes() - pass) * n - i;
                break 'passes;
            }
            let traced = traced_op(cfg, i, 1);
            let s = timed.as_ref().filter(|_| traced).unwrap_or(&solver);
            tr.begin_op(i as u64, traced);
            let t0 = Instant::now();
            let root = tr.enter(trace::OP);
            let result = plan_instance_solve(s, &graphs[j], &mut tr);
            tr.exit(root);
            let dt = t0.elapsed();
            if let Ok((instance, sol)) = &result {
                let r = &sol.report;
                iters.record(i as u64, r.iterations, budgets[j % kinds], r.refinements);
                if pass == 0 {
                    settle_us.extend(sol.convergence_time.map(|t| t * 1e6));
                }
                if traced {
                    phases.extend(r.phases.map(|p| (i as u64, p)));
                    let circuit = instance.substrate().circuit();
                    shapes.extend(probe_linalg(&mut tr, circuit, &w.opts.lu).ok());
                }
            }
            let answer = result.map(|(_, sol)| sol.value).map_err(err);
            log.record(i, dt.as_nanos() as u64, traced, answer, exact[j]);
        }
        if pass == 0 {
            cache_after = solver.engine().plan_cache_stats();
        }
    }

    let spans = tr.into_spans();
    let mut layers = Layers::default();
    common::span_medians(
        &spans,
        &mut layers,
        &[
            ("plan_cache.lookup", "plan_cache.lookup_ns"),
            ("template.instantiate", "template.instantiate_ns"),
            ("solver.solve", "solver.solve_ns"),
            ("linalg.factor", "linalg.factor_ns"),
            ("linalg.refactor", "linalg.refactor_ns"),
            ("linalg.solve", "linalg.solve_ns"),
        ],
    );
    common::factor_shape(&mut layers, &shapes);
    iters.report(&mut layers);
    layers.set(
        "circuit.settle_us_p50",
        stats::median(&settle_us),
        settle_us.len(),
    );
    common::session_phase_layers(&mut layers, &phases);
    if quasi_static {
        common::circuit_self_ns(&spans, &iters, &mut layers);
    } else {
        // The transient's frozen-state solves run inside a session, so the
        // part of `solver.solve` its phase clocks leave unexplained is the
        // circuit layer's own time.
        let solve = trace::per_op(&spans)
            .remove("solver.solve")
            .unwrap_or_default();
        let own: Vec<f64> = phases
            .iter()
            .filter_map(|(op, p)| Some(solve.get(op)? - p.total_ns() as f64))
            .collect();
        layers.set("circuit.self_ns", stats::median(&own), own.len());
    }
    common::plan_cache_layers(&mut layers, cache_before, cache_after);
    Ok(Outcome {
        setup_s,
        callers: 1,
        log,
        layers,
        spans,
        skipped,
    })
}
