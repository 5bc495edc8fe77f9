//! Dense-core structure guard: the bench substrates must keep the dense
//! trailing cores that carry almost all of their numeric-replay work
//! (rmat1024: 349 steps, 99.7% of the replay FMAs; rmat2048: 677 steps,
//! 99.9%; the 40×40 DIMACS grid: 52 steps).
//!
//! An ordering or pivoting change that breaks the nesting of the last `L`
//! columns shrinks the core and silently sends the replay and the solves
//! back through the per-entry sparse kernels; no correctness test notices,
//! this one does. It reads the public [`SymbolicLu::largest_core`] stat and
//! runs in every profile. Two timing halves are release-only: the
//! pivoting factorization, which runs the replay's kernels, costs at most
//! three full replays here; and the dense core kernel replays no slower
//! than the scalar oracle — the linalg unit test
//! `core_replay_not_slower_than_scalar_oracle`, which needs the
//! crate-private oracle.
//!
//! A dense core has at least two steps: the templated `transient`
//! substrates are mostly 1-step BTF blocks (a level-source node or branch
//! current each), which must stay sparse steps that solve as one divide.
//!
//! [`SymbolicLu::largest_core`]: ohmflow_linalg::SymbolicLu::largest_core

use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::{
    bench_substrate, dimacs_grid_instance, fig10_instance, full_replay_ns, median_ns,
};
use ohmflow_circuit::DcSolver;
use ohmflow_linalg::{LuWorkspace, SparseLu, SparseLuOptions};

#[test]
fn substrates_keep_their_dense_core() {
    for (name, g, floor) in [
        ("rmat2048", fig10_instance(2048, false, 1), 600),
        ("rmat1024", fig10_instance(1024, false, 1), 300),
        ("dimacs_grid40", dimacs_grid_instance(40, 64, 7), 32),
    ] {
        let sc = bench_substrate(&g);
        let (_, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let core = lu.symbolic().largest_core();
        assert!(
            core >= floor,
            "{name}: largest dense core {core} steps, expected at least {floor}"
        );
    }
}

/// The templated rmat256 factor of the `transient` workload's evaluation
/// substrate: thousands of 1-step BTF blocks, none of them a core.
#[test]
fn templated_rmat256_has_no_one_step_core() {
    let g = fig10_instance(256, false, 2);
    let plan = MaxFlowSolver::new(SolveOptions::evaluation(10e9))
        .plan(&g)
        .expect("plan");
    let sym = plan.template().dc_template().factor().symbolic();
    let blocks = 0..sym.block_count();
    let one_step = blocks.clone().filter(|&t| sym.block_range(t).len() == 1);
    assert!(one_step.count() >= 1000, "{} blocks", sym.block_count());
    for t in blocks {
        assert_ne!(sym.core_range(t).len(), 1, "block {t} has a 1-step core");
    }
    assert!(sym.largest_core() >= 2);
}

/// The pivoting factorization (ordering included) eliminates the dense
/// core with the replay's kernel, so it costs at most three full replays
/// of the same matrix. Through sparse Gilbert–Peierls it cost 11–14×.
/// Each round times one factorization next to a few replays, so both see
/// the same host speed; the guard reads the median round.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: the kernels need optimized code — run with --release"
)]
fn pivoting_factor_costs_at_most_three_full_replays() {
    for (name, vertices) in [("rmat1024", 1024), ("rmat2048", 2048)] {
        let sc = bench_substrate(&fig10_instance(vertices, false, 1));
        let (m, mut lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        let (opts, mut ws) = (SparseLuOptions::default(), LuWorkspace::new());
        let mut ratios: Vec<f64> = (0..5)
            .map(|_| {
                let factor = median_ns(1, || SparseLu::factor_with(&m, &opts).expect("factor"));
                factor / full_replay_ns(3, &mut lu, &m, &mut ws)
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        assert!(
            ratios[2] <= 3.0,
            "{name}: factor_with costs {:.2}x a full replay (rounds {ratios:.2?})",
            ratios[2]
        );
    }
}
