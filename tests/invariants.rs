//! Property-based invariants across the workspace (proptest).

use proptest::prelude::*;

use ohmflow::quantize::{Quantizer, Rounding};
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::{dimacs, FlowNetwork};
use ohmflow_linalg::{SparseLu, TripletMatrix};
use ohmflow_maxflow::{dinic, edmonds_karp, min_cut, push_relabel, PushRelabelVariant};

/// Strategy: a random solvable flow network with `n` vertices.
fn arb_network(max_n: usize, max_extra_edges: usize) -> impl Strategy<Value = FlowNetwork> {
    (3..max_n, 0..max_extra_edges, any::<u64>()).prop_map(|(n, extra, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = FlowNetwork::new(n, 0, n - 1).expect("n >= 2");
        // A guaranteed s-t path.
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, rng.gen_range(1..=9))
                .expect("path edge");
        }
        for _ in 0..extra {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                let _ = g.add_edge(a, b, rng.gen_range(1..=9));
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_maxflow_algorithms_agree(g in arb_network(14, 20)) {
        let a = edmonds_karp(&g);
        let b = dinic(&g);
        let c = push_relabel(&g, PushRelabelVariant::Fifo);
        let d = push_relabel(&g, PushRelabelVariant::HighestLabel);
        prop_assert_eq!(a.value, b.value);
        prop_assert_eq!(a.value, c.value);
        prop_assert_eq!(a.value, d.value);
        prop_assert!(a.is_valid_for(&g));
        prop_assert!(b.is_valid_for(&g));
        prop_assert!(c.is_valid_for(&g));
        prop_assert!(d.is_valid_for(&g));
    }

    #[test]
    fn min_cut_equals_max_flow(g in arb_network(12, 16)) {
        prop_assert_eq!(min_cut(&g).capacity, edmonds_karp(&g).value);
    }

    #[test]
    fn analog_solver_is_optimal_and_feasible(g in arb_network(10, 10)) {
        let exact = edmonds_karp(&g).value as f64;
        let mut cfg = SolveOptions::ideal();
        cfg.params.v_flow = 800.0;
        let sol = MaxFlowSolver::new(cfg).solve_fresh(&g).unwrap();
        // Clamp overshoot scales with the drive current through the
        // conducting diodes (~r_on/r · V_flow), so allow a small absolute
        // floor on top of the relative band.
        let err = (sol.value - exact).abs();
        prop_assert!(
            err < 0.02 * exact + 0.05,
            "analog {} vs exact {}",
            sol.value,
            exact
        );
        prop_assert!(g.validate_flow(&sol.edge_flows, 0.1).is_some());
    }

    #[test]
    fn dimacs_roundtrip(g in arb_network(12, 16)) {
        let text = dimacs::write(&g);
        let back = dimacs::parse(&text).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn quantizer_error_is_bounded(
        c in 1i64..1000,
        c_max in 1i64..1000,
        levels in 2u32..64,
        nearest in any::<bool>(),
    ) {
        let c = c.min(c_max);
        let rounding = if nearest { Rounding::Nearest } else { Rounding::Floor };
        let q = Quantizer::with_rounding(levels, 1.0, c_max as f64, rounding);
        let round_trip = q.dequantize(q.quantize(c as f64));
        let err = (round_trip - c as f64).abs();
        // The positive-capacity clamp (capacities never quantize to zero)
        // can exceed the plain step bound for tiny capacities.
        let bound = q.worst_case_error().max(c_max as f64 / levels as f64);
        prop_assert!(err <= bound + 1e-9, "c={c} err={err} bound={bound}");
        prop_assert!(q.quantize(c as f64) > 0.0);
    }

    #[test]
    fn sparse_lu_solves_diagonally_dominant_systems(
        n in 2usize..12,
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, rng.gen_range(4.0..8.0));
            let j = rng.gen_range(0..n);
            if j != i {
                t.push(i, j, rng.gen_range(-1.0..1.0));
            }
        }
        let csc = t.to_csc();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let lu = SparseLu::factor(&csc).unwrap();
        let x = lu.solve(&b).unwrap();
        let ax = csc.mul_vec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            prop_assert!((ai - bi).abs() < 1e-8);
        }
    }
}
