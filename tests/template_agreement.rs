//! Template correctness: a `SubstrateTemplate::instantiate` + solve must
//! agree with a fresh `build()` + solve to solver precision across random
//! graphs, capacity draws and `BuildOptions`; and one `Arc<SymbolicLu>`
//! must serve concurrent numeric factorizations across rayon workers.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ohmflow::builder::{self, BuildOptions, CapacityMapping};
use ohmflow::quantize::Quantizer;
use ohmflow::{AnalogSolution, MaxFlowSolver, SolveOptions};
use ohmflow_circuit::{DcSolver, DeviceState, Element, ElementId};
use ohmflow_graph::FlowNetwork;
use ohmflow_maxflow::{push_relabel, PushRelabelVariant};

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

/// The same topology with each capacity `c` replaced by `cap(c)`, in
/// edge order.
fn map_capacities(g: &FlowNetwork, mut cap: impl FnMut(i64) -> i64) -> FlowNetwork {
    let mut g2 = FlowNetwork::new(g.vertex_count(), g.source(), g.sink()).expect("endpoints");
    for e in g.edges() {
        g2.add_edge(e.from, e.to, cap(e.capacity)).expect("edge");
    }
    g2
}

/// The same topology with freshly drawn capacities.
fn redraw_capacities(g: &FlowNetwork, rng: &mut StdRng) -> FlowNetwork {
    map_capacities(g, |_| rng.gen_range(1..=20))
}

/// Random build options over the value-compatible axis: capacity mapping
/// (exact or quantized at random `N`).
fn random_build_options(rng: &mut StdRng) -> BuildOptions {
    let mut opts = BuildOptions::ideal();
    opts.capacity_mapping = if rng.gen_bool(0.5) {
        CapacityMapping::Exact
    } else {
        CapacityMapping::Quantized {
            levels: rng.gen_range(5..=30),
        }
    };
    opts
}

/// One seed's inputs: a random graph, the same topology with redrawn
/// capacities, and `ideal()` solve options with random build options.
fn draw(seed: u64) -> (FlowNetwork, FlowNetwork, SolveOptions) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g1 = random_graph(&mut rng);
    let g2 = redraw_capacities(&g1, &mut rng);
    let mut cfg = SolveOptions::ideal();
    cfg.build = random_build_options(&mut rng);
    (g1, g2, cfg)
}

/// Asserts that a planned answer agrees with the fresh one to 1e-12.
fn assert_agree(warm: &AnalogSolution, cold: &AnalogSolution, label: &str) {
    let tol = |r: f64| 1e-12 * r.abs().max(1.0);
    assert!(
        (warm.value - cold.value).abs() < tol(cold.value),
        "{label}: planned value {} vs fresh {}",
        warm.value,
        cold.value
    );
    for (e, (a, b)) in warm.edge_flows.iter().zip(&cold.edge_flows).enumerate() {
        assert!(
            (a - b).abs() < tol(*b),
            "{label}: edge {e} flow {a} vs fresh {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn template_instantiate_agrees_with_fresh_build(seed in any::<u64>()) {
        let (g1, g2, cfg) = draw(seed);
        let solver = MaxFlowSolver::new(cfg);

        // Prime the plan with the first capacity draw, then solve the
        // second through it: the plan path sees only a value restamp.
        let cold1 = solver.solve_fresh(&g1).expect("cold solve g1");
        let warm1 = solver.solve(&g1).expect("planned solve g1");
        let cold2 = solver.solve_fresh(&g2).expect("cold solve g2");
        let warm2 = solver.solve(&g2).expect("planned solve g2");

        assert_agree(&warm1, &cold1, "g1");
        assert_agree(&warm2, &cold2, "g2");
    }

    #[test]
    fn instantiate_direct_agrees_with_fresh_build(seed in any::<u64>()) {
        // The explicit staged path: one plan, a redrawn capacity vector
        // instantiated through it, solved as a built circuit.
        let (g1, g2, cfg) = draw(seed);
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

        assert_agree(&warm, &cold, "g2");
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

/// The exact max-flow value of `g` on the capacities the build maps it
/// to: `g` itself under `Exact`; under `Quantized { levels }`, each
/// capacity's level index times the level width `c_max/levels`.
fn mapped_max_flow(g: &FlowNetwork, cfg: &SolveOptions) -> f64 {
    let exact = |g: &FlowNetwork| push_relabel(g, PushRelabelVariant::HighestLabel).value as f64;
    match cfg.build.capacity_mapping {
        CapacityMapping::Exact => exact(g),
        CapacityMapping::Quantized { levels } => {
            let c_max = g.max_capacity() as f64;
            let q = Quantizer::new(levels, cfg.params.v_dd, c_max);
            let indices = map_capacities(g, |c| i64::from(q.level_index(c as f64)));
            exact(&indices) * c_max / f64::from(levels)
        }
    }
}

/// A fixed sweep of 3,000 seeds: on every substrate the planned path
/// (`plan(g1).instance(g2).solve()`) and `solve_fresh(g2)` both answer,
/// agree within the proptests' tolerance, and land within 1e-3 relative
/// (or 1e-3·`c_max` absolute) of push-relabel on the mapped capacities.
/// Release only: a debug build takes minutes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only sweep: cargo test --release --test template_agreement"
)]
fn planned_and_fresh_solves_match_push_relabel_on_3000_seeds() {
    let mut worst_rel = 0.0f64;
    for seed in 0..3000u64 {
        let (g1, g2, cfg) = draw(seed);
        let solver = MaxFlowSolver::new(cfg.clone());
        let warm = solver
            .plan(&g1)
            .and_then(|p| p.instance(&g2))
            .and_then(|i| i.solve())
            .unwrap_or_else(|e| panic!("seed {seed}: planned solve failed: {e}"));
        let cold = solver
            .solve_fresh(&g2)
            .unwrap_or_else(|e| panic!("seed {seed}: fresh solve failed: {e}"));
        assert_agree(&warm, &cold, &format!("seed {seed}"));
        let exact = mapped_max_flow(&g2, &cfg);
        let miss = (cold.value - exact).abs();
        assert!(
            miss <= 1e-3 * exact || miss <= 1e-3 * g2.max_capacity() as f64,
            "seed {seed}: analog value {} vs push-relabel {exact}",
            cold.value
        );
        worst_rel = worst_rel.max(miss / exact);
    }
    println!("worst relative error against push-relabel: {worst_rel:.2e}");
}

/// At the end of its budget the state iteration accepts the last solved
/// assignment plus its last flip; the accepted assignment must then be
/// solved once more, so the answer is refined and a frozen re-solve of
/// `device_states()` reproduces `values()`.
///
/// No build option reaches the budget end on these graphs, so the inputs
/// rescale an ideal build's negative resistors `−m` to the §4.2
/// finite-gain value `−(m·(1 + r/(A·m)))`. On these seeds and capacity
/// draws (`0` is `g1`, `1` is `g2`) the iteration then breaks a cycle
/// early and runs to the end of its budget.
#[test]
fn budget_end_acceptance_solves_the_accepted_assignment() {
    for (seed, draws) in [(39u64, &[0][..]), (47, &[0, 1]), (77, &[0, 1])] {
        let (g1, g2, cfg) = draw(seed);
        for &k in draws {
            check_budget_end_answer(seed, [&g1, &g2][k], &cfg);
        }
    }
}

fn check_budget_end_answer(seed: u64, g: &FlowNetwork, cfg: &SolveOptions) {
    let sc = builder::build(g, &cfg.params, &cfg.build).expect("substrate build");
    let mut ckt = sc.circuit().clone();
    let (r, gain) = (cfg.params.r_unit, cfg.params.opamp.gain);
    let negative: Vec<(ElementId, f64)> = ckt
        .element_ids()
        .filter_map(|id| match *ckt.element(id) {
            Element::Resistor { resistance, .. } if resistance < 0.0 => Some((id, -resistance)),
            _ => None,
        })
        .collect();
    for (id, m) in negative {
        ckt.set_resistance(id, -(m * (1.0 + r / (gain * m))))
            .expect("negative resistor");
    }
    let (sol, report) = DcSolver::new().solve(&ckt).expect("dc solve");
    // The state iteration's budget, `200 + 4·diodes`.
    let budget = 200 + 4 * ckt.diode_count();
    assert!(
        report
            .cycle_break
            .is_some_and(|c| report.iterations >= c + budget / 2),
        "seed {seed}: budget {budget} not reached: {report:?}"
    );
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
    let mut frozen = DcSolver::new().session(&ckt).expect("session");
    frozen.solve(0.0, &diode_on).expect("frozen solve");
    for (u, (a, b)) in frozen.values().iter().zip(sol.values()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "seed {seed}: unknown {u}: frozen re-solve {a} vs answer {b}"
        );
    }
}
