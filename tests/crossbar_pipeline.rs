//! Integration of the reconfigurable-substrate pipeline: crossbar
//! programming (§3.1), tuning (§4.3.2), the §6 extensions (min-cut dual,
//! dual decomposition, clustered architectures), and the §5.2 power model
//! — everything a deployment of the substrate chains together.

use ohmflow::clustered::ClusteredArchitecture;
use ohmflow::crossbar::Crossbar;
use ohmflow::decompose::{DecomposeOptions, DualDecomposition};
use ohmflow::mincut::{cut_from_analog, DualMeshArchitecture};
use ohmflow::power::{EnergyComparison, PowerModel};
use ohmflow::tuning::TuningCircuit;
use ohmflow::SubstrateParams;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::generators;
use ohmflow_graph::rmat::RmatConfig;
use ohmflow_graph::FlowNetwork;
use ohmflow_maxflow::min_cut;

#[test]
fn program_solve_reprogram_cycle() {
    let params = SubstrateParams::table1();
    let mut xbar = Crossbar::new(&params, 48).unwrap();
    let mut cfg = SolveOptions::ideal();
    cfg.params.v_flow = 600.0;
    let solver = MaxFlowSolver::new(cfg);

    let mut last_value = None;
    for seed in 0..3u64 {
        let g = RmatConfig::sparse(40, seed).generate().unwrap();
        let rep = xbar.program(&g).unwrap();
        assert_eq!(rep.cycles, 48);
        assert!(xbar.encodes(&g));
        let sol = solver.solve(&g).unwrap();
        let exact = ohmflow_maxflow::edmonds_karp(&g).value as f64;
        assert!(
            (sol.value - exact).abs() / exact.max(1.0) < 0.02,
            "seed {seed}"
        );
        last_value = Some(sol.value);
    }
    assert!(last_value.is_some());
}

#[test]
fn tuning_then_solve_recovers_accuracy() {
    // Tune a parasitic-skewed negation widget, then verify the residual is
    // small enough for the substrate's error budget.
    let mut tc = TuningCircuit::new(10.2e3, 10e3, 5.3e3);
    let before = tc.negation_error().unwrap();
    let result = tc.tune(1e-3, 16).unwrap();
    assert!(result.residual < before, "tuning must improve the widget");
    assert!(result.residual < 1e-3);
}

#[test]
fn dual_readouts_are_consistent() {
    // Max-flow value (primal) == analog-extracted cut (dual certificate)
    // == exact min-cut, end to end.
    let g = generators::grid(4, 4, 5, 8).unwrap();
    let mut cfg = SolveOptions::ideal();
    cfg.params.v_flow = 600.0;
    let sol = MaxFlowSolver::new(cfg).solve_fresh(&g).unwrap();
    let cut = cut_from_analog(&g, &sol.edge_flows, 0.25);
    let exact = min_cut(&g);
    assert_eq!(cut.capacity, exact.capacity);
    assert!((sol.value - exact.capacity as f64).abs() < 0.05);
}

#[test]
fn dual_mesh_and_primal_substrate_agree() {
    let g = generators::fig5a();
    let mesh = DualMeshArchitecture::new(8).unwrap();
    let dual = mesh.solve(&g, 2_000).unwrap();
    let sol = MaxFlowSolver::new(SolveOptions::ideal())
        .solve_fresh(&g)
        .unwrap();
    assert_eq!(dual.rounded_capacity as f64, sol.value.round());
}

#[test]
fn decomposition_handles_a_graph_bigger_than_one_substrate() {
    // Two well-separated communities joined by a thin bridge — the shape
    // §6.4 targets. A substrate too small for the whole 62-vertex graph
    // still fits each ~33-vertex half.
    let mut g = FlowNetwork::new(62, 0, 61).unwrap();
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(7);
    for base in [0usize, 31] {
        for i in 0..31 {
            for _ in 0..3 {
                let j = rng.gen_range(0..31);
                if i != j {
                    let _ = g.add_edge(base + i, base + j, rng.gen_range(1..=9));
                }
            }
        }
    }
    g.add_edge(5, 40, 4).unwrap();
    g.add_edge(12, 52, 3).unwrap();
    // Anchor s and t into their communities so the instance is solvable
    // regardless of the random intra-community wiring direction.
    g.add_edge(0, 5, 9).unwrap();
    g.add_edge(0, 12, 9).unwrap();
    g.add_edge(40, 61, 9).unwrap();
    g.add_edge(52, 61, 9).unwrap();
    assert!(g.sink_reachable());

    let mut params = SubstrateParams::table1();
    params.crossbar_dim = 45; // too small for 62 vertices, fits each half
    let d = DualDecomposition::new(DecomposeOptions::default());
    let r = d.solve(&g, &params).unwrap();
    let opt = min_cut(&g).capacity;
    assert!(r.cut_value >= opt);
    assert!(r.cut_value <= 2 * opt.max(1), "{} vs {opt}", r.cut_value);
    assert!(r.programming_cycles > 0, "reconfiguration cost is tracked");
}

#[test]
fn clustered_mapping_beats_monolithic_area_on_sparse_graphs() {
    let g = RmatConfig::sparse(120, 5).generate().unwrap();
    let arch = ClusteredArchitecture::two_dimensional(3, 3, 20, 4_000);
    let m = arch.map_graph(&g).unwrap();
    assert!(arch.area_advantage(&g, &m) > 1.5);
}

#[test]
fn power_budget_limits_match_section_5_2() {
    let model = PowerModel::paper();
    assert_eq!(model.max_edges(5.0), 10_000);
    assert_eq!(model.max_edges(150.0), 300_000);

    // Energy story: a substrate solving in 1 µs at graph scale vs a CPU
    // spending 1 ms at 100 W is ~4 orders of magnitude more efficient.
    let g = RmatConfig::sparse(100, 1).generate().unwrap();
    let cmp = EnergyComparison::new(&model, &g, 1e-6, 1e-3, 100.0);
    assert!(cmp.efficiency_factor > 1e3);
}
