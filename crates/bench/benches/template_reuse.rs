//! Criterion bench for the topology-keyed template machinery: how much of
//! the per-solve cost a Fig. 10-style same-topology sweep amortizes away.
//!
//! Three perspectives on the same substrate, all through the staged
//! facade:
//!
//! * `fig10_repeat_solves` — the headline claim: re-solving one R-MAT
//!   instance through `MaxFlowSolver::solve_fresh` (full cold path per
//!   solve) vs `MaxFlowSolver::solve` (value-only instantiation +
//!   numeric-only linear algebra against the cached plan). The acceptance
//!   bar is ≥ 3× for the planned path.
//! * `fig10_n_sweep` — the Fig. 10 quantization sweep: one topology
//!   re-instantiated per voltage-level count `N`, fresh build per `N` vs
//!   `Plan::instance_mapped`.
//! * `session_creation` — the circuit layer alone: cold
//!   `DcSolver::session` (structure + ordering + symbolic + numeric) vs
//!   the same call on a planned `DcSolver` (numeric-only refactorization).

use criterion::{criterion_group, criterion_main, Criterion};
use ohmflow::builder::CapacityMapping;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::fig10_instance;
use ohmflow_circuit::DcSolver;

fn sweep_config() -> SolveOptions {
    let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
    cfg.params.v_flow = 800.0;
    cfg
}

fn bench_repeat_solves(c: &mut Criterion) {
    let g = fig10_instance(128, false, 42);
    let solver = MaxFlowSolver::new(sweep_config());
    // Prime the cache so the planned path measures steady-state reuse.
    solver.solve(&g).expect("prime plan");
    let mut group = c.benchmark_group("fig10_repeat_solves_rmat128");
    group.sample_size(10);
    group.bench_function("from_scratch", |b| {
        b.iter(|| solver.solve_fresh(&g).expect("solve").value)
    });
    group.bench_function("cached_template", |b| {
        b.iter(|| solver.solve(&g).expect("solve").value)
    });
    group.finish();
}

fn bench_n_sweep(c: &mut Criterion) {
    let g = fig10_instance(96, false, 7);
    let solver = MaxFlowSolver::new(sweep_config());
    let levels: Vec<u32> = (1..=8).map(|i| 4 * i).collect();
    let mut group = c.benchmark_group("fig10_n_sweep_rmat96");
    group.sample_size(10);
    group.bench_function("from_scratch_per_level", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &n in &levels {
                let mut cfg = sweep_config();
                cfg.build.capacity_mapping = CapacityMapping::Quantized { levels: n };
                acc += MaxFlowSolver::new(cfg)
                    .solve_fresh(&g)
                    .expect("solve")
                    .value;
            }
            acc
        })
    });
    let plan = solver.plan(&g).expect("plan");
    group.bench_function("template_instantiate_per_level", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &n in &levels {
                let inst = plan
                    .instance_mapped(&g, CapacityMapping::Quantized { levels: n })
                    .expect("instance");
                acc += inst.solve().expect("solve").value;
            }
            acc
        })
    });
    group.finish();
}

fn bench_session_creation(c: &mut Criterion) {
    let g = fig10_instance(96, false, 3);
    let solver = MaxFlowSolver::new(sweep_config());
    let plan = solver.plan(&g).expect("plan");
    let sc = plan.instance(&g).expect("instance").substrate().clone();
    let dcs = DcSolver::new();
    let planned = dcs.plan(sc.circuit()).expect("dc plan");
    let mut group = c.benchmark_group("session_creation_rmat96");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| dcs.session(sc.circuit()).expect("session").stats())
    });
    group.bench_function("from_template", |b| {
        b.iter(|| planned.session(sc.circuit()).expect("session").stats())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_repeat_solves,
    bench_n_sweep,
    bench_session_creation
);
criterion_main!(benches);
