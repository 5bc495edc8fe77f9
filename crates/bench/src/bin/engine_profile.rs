//! Microprofile of the incremental frozen-DC engine: where a relaxation
//! time step spends its nanoseconds, the session's effort counters, and
//! the end-to-end transient solve it serves.
//!
//! Run with: `cargo run --release -p ohmflow-bench --bin engine_profile`

use std::time::Instant;

use ohmflow::builder::{build, BuildOptions, CapacityMapping, Drive, NegativeResistorImpl};
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow::{SubstrateParams, SubstrateTemplate};
use ohmflow_bench::median_ns;
use ohmflow_circuit::{DcSolver, LuOptions};
use ohmflow_graph::generators;

fn main() {
    let g = generators::fig15a(100);
    let mut params = SubstrateParams::with_gbw(10e9);
    params.v_flow = 50.0 * params.v_dd;
    let mut bo = BuildOptions::evaluation(&params);
    bo.capacity_mapping = CapacityMapping::Exact;
    bo.negative_resistor = NegativeResistorImpl::Ideal;
    bo.parasitics = false;
    bo.drive = Drive::Step;
    let sc = build(&g, &params, &bo).expect("build");
    let ckt = sc.circuit();
    println!(
        "fig15a(100): {} nodes, {} elements, {} diodes, {} unknowns-ish",
        ckt.node_count(),
        ckt.element_count(),
        ckt.diode_count(),
        ckt.node_count() - 1
    );

    // Cold-path phase breakdown. The cold session runs
    // structure + stamp + ordering + symbolic + numeric; the template
    // session reruns only stamp + numeric (shared symbolic plan), so the
    // difference is the amortizable ordering/symbolic share.
    let t_build = median_ns(9, || build(&g, &params, &bo).expect("build"));
    let dcs = DcSolver::new();
    let dc_plan = dcs.plan(ckt).expect("dc plan");
    let t_cold = median_ns(9, || dcs.session(ckt).expect("session"));
    let t_numeric = median_ns(9, || dc_plan.session(ckt).expect("session"));
    let t_tpl = median_ns(5, || {
        SubstrateTemplate::new(&g, &params, &bo, LuOptions::default()).expect("template")
    });
    let sub_tpl = SubstrateTemplate::new(&g, &params, &bo, LuOptions::default()).expect("template");
    let t_inst = median_ns(9, || sub_tpl.instantiate(&g).expect("instantiate"));
    println!("--- cold-path phases ---");
    println!("substrate build                 : {t_build:>10.0} ns");
    println!("session cold (sym+numeric)      : {t_cold:>10.0} ns");
    println!("session from template (numeric) : {t_numeric:>10.0} ns");
    println!(
        "  => ordering+symbolic share      : {:>10.0} ns",
        (t_cold - t_numeric).max(0.0)
    );
    println!("substrate template create       : {t_tpl:>10.0} ns");
    println!("template instantiate (values)   : {t_inst:>10.0} ns");

    // Raw session throughput: quiescent steps (skip path) and flip steps.
    let n_diodes = ckt.diode_count();
    let mut session = DcSolver::new()
        .phase_timing(true)
        .session(ckt)
        .expect("session");
    let off = vec![false; n_diodes];
    let steps = 20_000;
    let t0 = Instant::now();
    for k in 0..steps {
        session.solve(k as f64 * 1e-9, &off).expect("solve");
    }
    let quiescent_ns = t0.elapsed().as_nanos() as f64 / steps as f64;

    let phases_quiescent = session.phase_times();
    let mut on = vec![false; n_diodes];
    let t0 = Instant::now();
    for k in 0..steps {
        on[k % n_diodes] = !on[k % n_diodes];
        session.solve(k as f64 * 1e-9, &on).expect("solve");
    }
    let flip_ns = t0.elapsed().as_nanos() as f64 / steps as f64;
    println!("session quiescent step : {quiescent_ns:>8.0} ns");
    println!("session flip step      : {flip_ns:>8.0} ns");
    println!("session stats          : {:?}", session.stats());

    // Per-phase attribution of the flip loop (quiescent share subtracted),
    // so a transient regression names its culprit: stamping, the numeric
    // refactorization, the triangular solves or the Woodbury bookkeeping.
    let all = session.phase_times();
    let flips = [
        ("stamp", all.stamp_ns - phases_quiescent.stamp_ns),
        ("refactor", all.refactor_ns - phases_quiescent.refactor_ns),
        ("triangular-solve", all.solve_ns - phases_quiescent.solve_ns),
        (
            "woodbury-apply",
            all.woodbury_ns - phases_quiescent.woodbury_ns,
        ),
    ];
    let accounted: u64 = flips.iter().map(|(_, ns)| ns).sum();
    println!("--- flip-loop phase breakdown ({steps} steps) ---");
    for (label, ns) in flips {
        println!(
            "{label:<17}: {:>9.1} ns/step ({:>4.1}%)",
            ns as f64 / steps as f64,
            100.0 * ns as f64 / accounted.max(1) as f64
        );
    }
    println!(
        "accounted          : {:>9.1} of {flip_ns:.1} ns/step",
        accounted as f64 / steps as f64
    );

    // Factorization structure under the production (AMD+BTF) ordering: the
    // fill the flip loop replays every rebase, and the block decomposition
    // that bounds it (the largest block is the irreducible core).
    let sym = dc_plan.template().symbolic();
    println!(
        "factor structure   : nnz(L+U) {}  blocks {}  largest block {} of {}",
        sym.pattern_nnz(),
        sym.block_count(),
        sym.largest_block(),
        sym.dim(),
    );

    // End-to-end transient solve.
    let mut cfg = SolveOptions::evaluation(10e9);
    cfg.build.capacity_mapping = CapacityMapping::Exact;
    let solver = MaxFlowSolver::new(cfg);
    let reps = 50;
    let t0 = Instant::now();
    let mut value = 0.0;
    for _ in 0..reps {
        value = solver.solve_fresh(&g).expect("solve").value;
    }
    let per = t0.elapsed().as_micros() as f64 / reps as f64;
    println!("transient solve : {per:>8.1} µs/solve  (value {value:.3})");
}
