//! Regression: the incremental frozen-DC session the relaxation
//! transient runs on (persistent factorization, rank-1 clamp updates,
//! periodic refactorization) must reproduce a reference that factors
//! every step from scratch — a cold `DcSolver::session` opened per step,
//! with no rank budget, so any clamp change restamps and refactors — on
//! the circuits of the paper's worked examples, over a long clamp-toggle
//! walk.

use std::sync::Arc;

use ohmflow::builder::CapacityMapping;
use ohmflow::{MaxFlowSolver, Problem, SolveOptions};
use ohmflow_circuit::DcSolver;
use ohmflow_graph::FlowNetwork;

/// Toggle-walk length; every step is one frozen solve on both paths.
const WALK_STEPS: usize = 256;

fn assert_session_matches_reference(g: &FlowNetwork, name: &str) {
    // The circuit the transient actually runs: `evaluation` options with
    // exact capacities, through plan → instance (ideal negative
    // resistors and a step drive, as the relaxation model builds it).
    let mut opts = SolveOptions::evaluation(10e9);
    opts.build.capacity_mapping = CapacityMapping::Exact;
    let solver = MaxFlowSolver::new(opts);
    let plan = solver.plan(g).expect("plan");
    let instance = plan.instance(g).expect("instance");
    let ckt = instance.substrate().circuit();
    let n_diodes = ckt.diode_count();
    assert!(n_diodes > 0, "{name}: substrate carries clamp diodes");

    let mut session = DcSolver::new()
        .with_template(Arc::clone(plan.template().dc_template()))
        .session(ckt)
        .expect("plan session");
    assert!(session.report().templated, "{name}: session rides the plan");

    let mut on = vec![false; n_diodes];
    let mut lcg: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut compared = 0;
    for step in 0..WALK_STEPS {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let flip = (lcg >> 33) as usize % (n_diodes + 1);
        if flip < n_diodes {
            on[flip] = !on[flip];
        }
        let t = step as f64 * 1e-10;
        // Some clamp configurations are legitimately singular; both
        // paths must then agree on failing.
        let mut reference = DcSolver::new()
            .session(ckt)
            .expect("cold session")
            .with_max_rank(0);
        let solved = reference.solve(t, &on);
        let incremental = session.solve(t, &on);
        assert_eq!(
            solved.is_ok(),
            incremental.is_ok(),
            "{name}: step {step} solvability"
        );
        if solved.is_ok() {
            for (u, (a, b)) in session.values().iter().zip(reference.values()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-9 * b.abs().max(1.0),
                    "{name}: step {step} unknown {u}: {a} vs reference {b}"
                );
            }
            compared += 1;
        }
    }
    assert!(
        compared >= 200,
        "{name}: only {compared} of {WALK_STEPS} steps were solvable"
    );
}

#[test]
fn incremental_engine_matches_reference_on_fig5a() {
    assert_session_matches_reference(&ohmflow_graph::generators::fig5a(), "fig5a");
}

#[test]
fn incremental_engine_matches_reference_on_fig15a_100() {
    assert_session_matches_reference(&ohmflow_graph::generators::fig15a(100), "fig15a(100)");
}

#[test]
fn batch_solve_matches_sequential() {
    let graphs = [
        ohmflow_graph::generators::fig5a(),
        ohmflow_graph::generators::fig15a(100),
        ohmflow_graph::generators::parallel_paths(3, 4).unwrap(),
    ];
    let mut cfg = SolveOptions::ideal();
    cfg.params.v_flow = 400.0;
    let solver = MaxFlowSolver::new(cfg);
    let batch = solver.solve_many(graphs.iter().map(Problem::from));
    assert_eq!(batch.len(), graphs.len());
    for (g, b) in graphs.iter().zip(batch) {
        let b = b.expect("batch solve");
        let s = solver.solve(g).expect("sequential solve");
        // Same-topology batch members (fig5a and fig15a share the diamond
        // topology) ride the shared-template fast path, whose per-edge
        // capacity-source layout is electrically equivalent but not
        // bit-identical to the deduplicated cold-path netlist — agreement
        // is to solver precision, not to the last ulp.
        assert!(
            (b.value - s.value).abs() < 1e-9 * s.value.abs().max(1.0),
            "batch {} vs sequential {}",
            b.value,
            s.value
        );
    }
}
