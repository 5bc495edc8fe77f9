//! Criterion bench across the solver suite: the three CPU algorithms, the
//! analog substrate's quasi-static solve (the simulated-hardware cost, not
//! the hardware's own convergence time), the relaxation transient on the
//! incremental frozen-DC session (the headline hot path), and
//! batch-parallel throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use ohmflow::builder::CapacityMapping;
use ohmflow::{MaxFlowSolver, Problem, SolveOptions};
use ohmflow_bench::fig10_instance;
use ohmflow_graph::generators;
use ohmflow_maxflow::{dinic, edmonds_karp, push_relabel, PushRelabelVariant};

fn bench_solvers(c: &mut Criterion) {
    let g = fig10_instance(256, false, 256);
    let mut group = c.benchmark_group("solvers_rmat256_sparse");
    group.sample_size(10);
    group.bench_function("edmonds_karp", |b| b.iter(|| edmonds_karp(&g).value));
    group.bench_function("dinic", |b| b.iter(|| dinic(&g).value));
    group.bench_function("push_relabel_hl", |b| {
        b.iter(|| push_relabel(&g, PushRelabelVariant::HighestLabel).value)
    });
    let mut cfg = SolveOptions::ideal();
    cfg.params.v_flow = 800.0;
    let solver = MaxFlowSolver::new(cfg);
    group.bench_function("analog_quasi_static_sim", |b| {
        b.iter(|| solver.solve_fresh(&g).expect("solve").value)
    });
    group.finish();
}

/// The §5 hot path: the relaxation transient on the incremental
/// frozen-DC session.
fn bench_relaxation_transient(c: &mut Criterion) {
    let mut group = c.benchmark_group("relaxation_transient");
    group.sample_size(10);
    let mut cfg = SolveOptions::evaluation(10e9);
    cfg.build.capacity_mapping = CapacityMapping::Exact;
    let solver = MaxFlowSolver::new(cfg);
    for (graph_label, g) in [
        ("fig15a100", generators::fig15a(100)),
        ("fig5a", generators::fig5a()),
    ] {
        group.bench_function(format!("{graph_label}/incremental"), |b| {
            b.iter(|| solver.solve_fresh(&g).expect("solve").value)
        });
    }
    group.finish();
}

/// Batch-parallel throughput: independent instances across all cores.
/// Both sides solve through the plan cache (`solve_many` solves each
/// graph with `solve`), so they differ only in parallelism.
fn bench_solve_batch(c: &mut Criterion) {
    let graphs: Vec<_> = (0..8).map(|s| fig10_instance(96, false, s)).collect();
    let mut cfg = SolveOptions::ideal();
    cfg.params.v_flow = 800.0;
    let solver = MaxFlowSolver::new(cfg);
    let mut group = c.benchmark_group("batch_8x_rmat96");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            graphs
                .iter()
                .map(|g| solver.solve(g).expect("solve").value)
                .sum::<f64>()
        })
    });
    group.bench_function("solve_batch_parallel", |b| {
        b.iter(|| {
            solver
                .solve_many(graphs.iter().map(Problem::from))
                .into_iter()
                .map(|r| r.expect("solve").value)
                .sum::<f64>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solvers,
    bench_relaxation_transient,
    bench_solve_batch
);
criterion_main!(benches);
