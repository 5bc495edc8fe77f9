//! Ablation studies for the design choices called out in DESIGN.md:
//! quantization-level sweep (§4.1), finite op-amp gain (§4.2), matched vs
//! unmatched variation (§4.3.1) and tuning on/off (§4.3.2).

use ohmflow::builder::{build, BuildOptions, CapacityMapping, Drive};
use ohmflow::nonideal::{finite_gain_reff, VariationModel};
use ohmflow::solver::SolveMode;
use ohmflow::tuning::TuningCircuit;
use ohmflow::SubstrateParams;
use ohmflow::{MaxFlowSolver, Problem, SolveOptions};
use ohmflow_graph::generators::fig5a;
use ohmflow_graph::rmat::RmatConfig;
use ohmflow_maxflow::edmonds_karp;

fn main() {
    let g = RmatConfig::sparse(32, 9).generate().expect("instance");
    let exact = edmonds_karp(&g).value as f64;

    println!("# Ablation 1 — quantization levels (§4.1), rmat32, exact |f| = {exact}");
    println!("levels,value,rel_error_pct,worst_case_bound_pct");
    for levels in [4u32, 8, 16, 20, 32, 64, 128] {
        let mut cfg = SolveOptions::ideal();
        cfg.params.v_flow = 800.0;
        cfg.build.capacity_mapping = CapacityMapping::Quantized { levels };
        let sol = MaxFlowSolver::new(cfg).solve(&g).expect("solve");
        let rel = (sol.value - exact).abs() / exact * 100.0;
        let bound = 100.0 / (2.0 * levels as f64) * g.max_capacity() as f64
            / (exact / g.edge_count() as f64).max(1.0);
        println!("{levels},{:.2},{rel:.2},{bound:.1}", sol.value);
    }

    println!("\n# Ablation 2 — finite op-amp gain (§4.2): negative-resistor precision");
    println!("gain,reff_error_pct");
    for gain in [1e2, 1e3, 1e4, 1e5] {
        let r = finite_gain_reff(5e3, 10e3, gain);
        println!("{gain:.0e},{:.4}", ((-r - 5e3) / 5e3 * 100.0).abs());
    }

    println!("\n# Ablation 3 — matched vs unmatched variation (§4.3.1), fig5a, 6 seeds");
    let fig = fig5a();
    let fig_exact = 2.0;
    for (label, model) in [
        (
            "matched (0.1% ratio)",
            VariationModel::matched as fn(u64) -> VariationModel,
        ),
        ("unmatched (3% each)", VariationModel::unmatched),
    ] {
        let mut cfg = SolveOptions::ideal();
        cfg.params.v_flow = 8.0;
        let tau = cfg.params.opamp.time_constant();
        cfg.mode = SolveMode::Transient {
            window: Some(60.0 * tau),
            dt: None,
        };
        let mut bo = BuildOptions::ideal();
        bo.drive = Drive::Step;
        let mut params = SubstrateParams::table1();
        params.v_flow = 8.0;
        // Build the six perturbed realizations, then solve them on all
        // cores through the batch API.
        let scs: Vec<_> = (0..6)
            .map(|seed| {
                let mut sc = build(&fig, &params, &bo).expect("build");
                model(seed).apply(&mut sc);
                sc
            })
            .collect();
        let worst = MaxFlowSolver::new(cfg)
            .solve_many(scs.iter().map(|sc| Problem::Built {
                circuit: sc,
                graph: &fig,
            }))
            .into_iter()
            .map(|r| (r.expect("solve").value - fig_exact).abs() / fig_exact)
            .fold(0.0f64, f64::max);
        println!("{label}: worst rel error {:.2} %", worst * 100.0);
    }

    println!("\n# Ablation 4 — §4.3.2 tuning repairs a skewed negation widget");
    let mut tc = TuningCircuit::new(10.3e3, 10e3, 5.4e3);
    let before = tc.negation_error().expect("measure");
    let after = tc.tune(1e-3, 16).expect("tune").residual;
    println!(
        "negation error before {:.3e} V, after tuning {:.3e} V",
        before, after
    );
}
