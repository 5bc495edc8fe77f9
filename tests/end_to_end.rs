//! End-to-end integration: graph generation → analog substrate solve →
//! validation against the exact CPU baselines, across workload families and
//! solver modes. These are the cross-crate paths a user of the library
//! exercises.

use ohmflow::builder::CapacityMapping;
use ohmflow::solver::SolveMode;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::generators;
use ohmflow_graph::rmat::RmatConfig;
use ohmflow_maxflow::{dinic, edmonds_karp, push_relabel, PushRelabelVariant};

fn ideal_with_drive(v_flow: f64) -> MaxFlowSolver {
    let mut cfg = SolveOptions::ideal();
    cfg.params.v_flow = v_flow;
    MaxFlowSolver::new(cfg)
}

#[test]
fn analog_matches_oracle_on_workload_families() {
    let cases = vec![
        ("fig5a", generators::fig5a()),
        ("fig15a", generators::fig15a(10)),
        ("path", generators::path(&[6, 2, 8, 4]).unwrap()),
        ("parallel", generators::parallel_paths(5, 3).unwrap()),
        ("layered", generators::layered(3, 3, 7, 9).unwrap()),
        ("grid", generators::grid(4, 5, 6, 2).unwrap()),
        ("bipartite", generators::bipartite(6, 6, 2, 5).unwrap()),
    ];
    let solver = ideal_with_drive(400.0);
    for (name, g) in cases {
        let exact = edmonds_karp(&g).value as f64;
        let sol = solver.solve(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rel = (sol.value - exact).abs() / exact.max(1.0);
        assert!(rel < 0.01, "{name}: analog {} vs exact {exact}", sol.value);
        assert!(
            g.validate_flow(&sol.edge_flows, 0.05).is_some(),
            "{name}: infeasible analog flows"
        );
    }
}

#[test]
fn analog_matches_oracle_on_rmat_sweep() {
    let solver = ideal_with_drive(800.0);
    for seed in 0..6 {
        let g = RmatConfig::sparse(32, 50 + seed).generate().unwrap();
        let exact = edmonds_karp(&g).value as f64;
        let sol = solver.solve(&g).unwrap();
        let rel = (sol.value - exact).abs() / exact.max(1.0);
        assert!(rel < 0.01, "seed {seed}: {} vs {exact}", sol.value);
    }
}

#[test]
fn cycling_rmat_instance_breaks_its_cycle_early() {
    // Under `ideal()` this instance's clamp-state iteration revisits an
    // assignment at iteration 12. Before first-repeat detection it cycled
    // until half its budget and took 563 iterations.
    let g = RmatConfig::sparse(32, 10).generate().unwrap();
    let sol = MaxFlowSolver::new(SolveOptions::ideal()).solve(&g).unwrap();
    assert!(sol.report.cycle_break.is_some(), "{:?}", sol.report);
    assert!(sol.report.iterations <= 100, "{:?}", sol.report);
    let exact = push_relabel(&g, PushRelabelVariant::HighestLabel).value as f64;
    let rel = (sol.value - exact).abs() / exact.max(1.0);
    assert!(rel < 0.01, "{} vs {exact}", sol.value);
}

#[test]
fn quantized_error_stays_within_paper_envelope() {
    // §5.1 reports ≤ 8 % relative error with N = 20 levels.
    let mut worst = 0.0f64;
    for seed in 0..6 {
        let g = RmatConfig::sparse(28, 70 + seed).generate().unwrap();
        let mut cfg = SolveOptions::ideal();
        cfg.params.v_flow = 800.0;
        cfg.build.capacity_mapping = CapacityMapping::Quantized { levels: 20 };
        let sol = MaxFlowSolver::new(cfg).solve_fresh(&g).unwrap();
        let exact = edmonds_karp(&g).value as f64;
        let rel = (sol.value - exact).abs() / exact.max(1.0);
        worst = worst.max(rel);
    }
    assert!(worst < 0.08, "worst quantized error {worst} exceeds 8%");
}

#[test]
fn transient_and_quasi_static_agree() {
    let g = generators::fig5a();
    let mut qcfg = SolveOptions::ideal();
    qcfg.params.v_flow = 10.0;
    let q = MaxFlowSolver::new(qcfg).solve_fresh(&g).unwrap();

    let mut tcfg = SolveOptions::evaluation(10e9);
    tcfg.build.capacity_mapping = CapacityMapping::Exact;
    tcfg.params.v_flow = 10.0;
    let t = MaxFlowSolver::new(tcfg).solve_fresh(&g).unwrap();

    assert!(
        (q.value - t.value).abs() < 0.05,
        "quasi-static {} vs transient {}",
        q.value,
        t.value
    );
    assert!(t.convergence_time.is_some());
}

#[test]
fn gbw_scaling_matches_fig10_trend() {
    // The §5.1 claim: 50 GHz GBW converges ~5x faster than 10 GHz.
    let g = generators::fig5a();
    let run = |gbw: f64| {
        let mut cfg = SolveOptions::evaluation(gbw);
        cfg.build.capacity_mapping = CapacityMapping::Exact;
        MaxFlowSolver::new(cfg)
            .solve(&g)
            .unwrap()
            .convergence_time
            .unwrap()
    };
    let t10 = run(10e9);
    let t50 = run(50e9);
    let ratio = t10 / t50;
    assert!(
        (3.0..8.0).contains(&ratio),
        "10G/50G convergence ratio {ratio} should be ~5"
    );
}

#[test]
fn all_cpu_baselines_agree_with_each_other() {
    for seed in 0..5 {
        let g = RmatConfig::dense(40, seed).generate().unwrap();
        let a = edmonds_karp(&g).value;
        let b = dinic(&g).value;
        let c = push_relabel(&g, PushRelabelVariant::Fifo).value;
        let d = push_relabel(&g, PushRelabelVariant::HighestLabel).value;
        assert!(a == b && b == c && c == d, "seed {seed}: {a} {b} {c} {d}");
    }
}

#[test]
fn explicit_mode_overrides_work() {
    let g = generators::fig5a();
    let mut cfg = SolveOptions::ideal();
    cfg.params.v_flow = 10.0;
    let tau = cfg.params.opamp.time_constant();
    cfg.mode = SolveMode::Transient {
        window: Some(40.0 * tau),
        dt: Some(tau / 30.0),
    };
    let sol = MaxFlowSolver::new(cfg).solve_fresh(&g).unwrap();
    assert!((sol.value - 2.0).abs() < 0.05);
}
