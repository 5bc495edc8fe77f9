//! Template correctness: a `SubstrateTemplate::instantiate` + solve must
//! agree with a fresh `build()` + solve to solver precision across random
//! graphs, capacity draws and `BuildOptions`; and one `Arc<SymbolicLu>`
//! must serve concurrent numeric factorizations across rayon workers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ohmflow::builder::{self, BuildOptions, CapacityMapping, NegativeResistorImpl};
use ohmflow::{AnalogError, MaxFlowSolver, SolveOptions};
use ohmflow_circuit::{DcSolver, DeviceState};
use ohmflow_graph::FlowNetwork;

/// A random small flow network with a guaranteed source→sink spine (so the
/// substrate always has live edges) plus random chords — including edges
/// into the source and out of the sink, which exercise the grounded
/// circulation-edge handling.
fn random_graph(rng: &mut StdRng) -> FlowNetwork {
    let n = rng.gen_range(4..9);
    let mut g = FlowNetwork::new(n, 0, n - 1).expect("endpoints");
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, rng.gen_range(1..=20)).expect("spine");
    }
    for _ in 0..rng.gen_range(0..2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = g.add_edge(a, b, rng.gen_range(1..=20));
        }
    }
    g
}

/// The same topology with freshly drawn capacities.
fn redraw_capacities(g: &FlowNetwork, rng: &mut StdRng) -> FlowNetwork {
    let mut g2 = FlowNetwork::new(g.vertex_count(), g.source(), g.sink()).expect("endpoints");
    for e in g.edges() {
        g2.add_edge(e.from, e.to, rng.gen_range(1..=20))
            .expect("edge");
    }
    g2
}

/// Random build options over the value-compatible axes: capacity mapping
/// (exact or quantized at random `N`), negative-resistor realization, and
/// the finite-gain margin formula.
fn random_build_options(rng: &mut StdRng) -> BuildOptions {
    let mut opts = BuildOptions::ideal();
    opts.capacity_mapping = if rng.gen_bool(0.5) {
        CapacityMapping::Exact
    } else {
        CapacityMapping::Quantized {
            levels: rng.gen_range(5..=30),
        }
    };
    opts.negative_resistor = if rng.gen_bool(0.5) {
        NegativeResistorImpl::Ideal
    } else {
        NegativeResistorImpl::Dynamic
    };
    opts.nic_margin = if rng.gen_bool(0.5) { Some(0.0) } else { None };
    opts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn template_instantiate_agrees_with_fresh_build(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = random_graph(&mut rng);
        let g2 = redraw_capacities(&g1, &mut rng);
        let mut cfg = SolveOptions::ideal();
        cfg.build = random_build_options(&mut rng);
        let solver = MaxFlowSolver::new(cfg);

        // Prime the plan with the first capacity draw, then solve the
        // second through it: the plan path sees only a value restamp.
        let cold1 = solver.solve_fresh(&g1).expect("cold solve g1");
        let warm1 = solver.solve(&g1).expect("planned solve g1");
        let cold2 = solver.solve_fresh(&g2).expect("cold solve g2");
        let warm2 = solver.solve(&g2).expect("planned solve g2");

        let tol = |r: f64| 1e-12 * r.abs().max(1.0);
        for (cold, warm, label) in [(&cold1, &warm1, "g1"), (&cold2, &warm2, "g2")] {
            prop_assert!(
                (warm.value - cold.value).abs() < tol(cold.value),
                "{label}: templated value {} vs fresh {}",
                warm.value,
                cold.value
            );
            for (e, (a, b)) in warm.edge_flows.iter().zip(&cold.edge_flows).enumerate() {
                prop_assert!(
                    (a - b).abs() < tol(*b),
                    "{label}: edge {e} flow {a} vs fresh {b}"
                );
            }
        }
    }

    #[test]
    fn instantiate_direct_agrees_with_fresh_build(seed in any::<u64>()) {
        // The explicit staged path: one plan, a redrawn capacity vector
        // instantiated through it, solved as a built circuit.
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = random_graph(&mut rng);
        let g2 = redraw_capacities(&g1, &mut rng);
        let mut cfg = SolveOptions::ideal();
        cfg.build = random_build_options(&mut rng);
        let solver = MaxFlowSolver::new(cfg);

        // The staged path: plan g1's topology once, then instantiate the
        // redrawn capacities through it — value-only work.
        let plan = solver.plan(&g1).expect("plan");
        let warm = plan
            .instance(&g2)
            .expect("instance")
            .solve()
            .expect("instance solve");
        let cold = solver.solve_fresh(&g2).expect("cold solve");

        let tol = |r: f64| 1e-12 * r.abs().max(1.0);
        prop_assert!(
            (warm.value - cold.value).abs() < tol(cold.value),
            "value {} vs fresh {}",
            warm.value,
            cold.value
        );
        for (e, (a, b)) in warm.edge_flows.iter().zip(&cold.edge_flows).enumerate() {
            prop_assert!((a - b).abs() < tol(*b), "edge {e} flow {a} vs fresh {b}");
        }
    }
}

#[test]
fn shared_symbolic_serves_concurrent_numeric_factorizations() {
    use ohmflow_linalg::{SparseLu, SymbolicLu, TripletMatrix};
    use rayon::prelude::*;
    use std::sync::Arc;

    // One sparsity pattern (a 2-D grid Laplacian + identity), many value
    // assignments: every rayon worker derives its own numeric factor from
    // the one shared symbolic plan and must reproduce a fresh pivoting
    // factorization's solution.
    let side = 12;
    let n = side * side;
    let grid = |scale_of: &dyn Fn(usize) -> f64| {
        let mut t = TripletMatrix::new(n, n);
        let id = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                let me = id(r, c);
                let mut deg = 1.0;
                for (nr, nc) in [
                    (r.wrapping_sub(1), c),
                    (r + 1, c),
                    (r, c.wrapping_sub(1)),
                    (r, c + 1),
                ] {
                    if nr < side && nc < side {
                        let w = scale_of(me * n + id(nr, nc));
                        t.push(me, id(nr, nc), -w);
                        deg += w;
                    }
                }
                t.push(me, me, deg);
            }
        }
        t.to_csc()
    };

    let base = grid(&|_| 1.0);
    let lu0 = SparseLu::factor(&base).expect("base factor");
    let sym = Arc::clone(lu0.symbolic());

    let seeds: Vec<u64> = (1..=8).collect();
    let results: Vec<f64> = seeds
        .par_iter()
        .map(|&s| {
            let a = grid(&|k| 1.0 + 0.3 * (((k as u64).wrapping_mul(s) % 7) as f64) / 7.0);
            let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.13).sin()).collect();
            let lu = SymbolicLu::numeric(&sym, &a).expect("numeric factor");
            assert!(Arc::ptr_eq(lu.symbolic(), &sym), "symbolic not shared");
            let x = lu.solve(&b).expect("solve");
            let x_ref = SparseLu::factor(&a)
                .expect("fresh")
                .solve(&b)
                .expect("solve");
            let mut max_err = 0.0f64;
            for (xi, ri) in x.iter().zip(&x_ref) {
                max_err = max_err.max((xi - ri).abs());
            }
            max_err
        })
        .collect();
    for (s, err) in seeds.iter().zip(&results) {
        assert!(*err < 1e-10, "seed {s}: max deviation {err}");
    }
}

/// The variant of an error, down to the circuit error a simulation
/// failure wraps.
fn error_kind(e: &AnalogError) -> String {
    match e {
        AnalogError::Circuit(c) => format!("Circuit({:?})", std::mem::discriminant(c)),
        other => format!("{:?}", std::mem::discriminant(other)),
    }
}

/// A fixed sweep of 3,000 seeds: on every substrate the planned path
/// (`plan(g1).instance(g2).solve()`) and `solve_fresh(g2)` reach the same
/// outcome — both answer within the proptests' tolerance, or both fail
/// with the same error variant. The failing seeds are counted, not
/// filtered out. Release only: a debug build takes minutes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only sweep: cargo test --release --test template_agreement"
)]
fn planned_and_fresh_solves_reach_the_same_outcome_on_3000_seeds() {
    let tol = |r: f64| 1e-12 * r.abs().max(1.0);
    let mut errors = 0;
    for seed in 0..3000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = random_graph(&mut rng);
        let g2 = redraw_capacities(&g1, &mut rng);
        let mut cfg = SolveOptions::ideal();
        cfg.build = random_build_options(&mut rng);
        let solver = MaxFlowSolver::new(cfg);
        let planned = solver
            .plan(&g1)
            .and_then(|p| p.instance(&g2))
            .and_then(|i| i.solve());
        match (planned, solver.solve_fresh(&g2)) {
            (Ok(warm), Ok(cold)) => {
                assert!(
                    (warm.value - cold.value).abs() < tol(cold.value),
                    "seed {seed}: planned value {} vs fresh {}",
                    warm.value,
                    cold.value
                );
                for (e, (a, b)) in warm.edge_flows.iter().zip(&cold.edge_flows).enumerate() {
                    assert!(
                        (a - b).abs() < tol(*b),
                        "seed {seed}: edge {e} flow {a} vs fresh {b}"
                    );
                }
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    error_kind(&a),
                    error_kind(&b),
                    "seed {seed}: planned error {a} vs fresh error {b}"
                );
                errors += 1;
            }
            (planned, fresh) => panic!(
                "seed {seed}: planned {:?} vs fresh {:?}",
                planned.map(|s| s.value),
                fresh.map(|s| s.value)
            ),
        }
    }
    println!("{errors} of 3000 seeds fail on both paths");
}

/// At the end of its budget the state iteration may accept the last
/// solved assignment plus its last flip. The first capacity draw of these
/// seeds (and the second of seed 47) ends there, after 117–121 solves
/// with the cycle broken at iteration 5: the accepted assignment must be
/// solved once more, so the answer is refined and a frozen re-solve of
/// `device_states()` reproduces `values()`.
#[test]
fn budget_end_acceptance_solves_the_accepted_assignment() {
    for seed in [22u64, 39, 47] {
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = random_graph(&mut rng);
        let g2 = redraw_capacities(&g1, &mut rng);
        let mut cfg = SolveOptions::ideal();
        cfg.build = random_build_options(&mut rng);
        for g in [&g1, &g2] {
            check_budget_end_answer(seed, g, &cfg);
        }
    }
}

fn check_budget_end_answer(seed: u64, g: &FlowNetwork, cfg: &SolveOptions) {
    let sc = builder::build(g, &cfg.params, &cfg.build).expect("substrate build");
    let ckt = sc.circuit();
    let (sol, report) = DcSolver::new().solve(ckt).expect("dc solve");
    assert!(
        report.refinements >= 1,
        "seed {seed}: {} refinements after {} iterations",
        report.refinements,
        report.iterations
    );
    let states = sol.device_states();
    let diode_on: Vec<bool> = ckt
        .diode_ids()
        .iter()
        .map(|d| states[d.index()] == DeviceState::On)
        .collect();
    let mut frozen = DcSolver::new().session(ckt).expect("session");
    frozen.solve(0.0, &diode_on).expect("frozen solve");
    for (u, (a, b)) in frozen.values().iter().zip(sol.values()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "seed {seed}: unknown {u}: frozen re-solve {a} vs answer {b}"
        );
    }
}
