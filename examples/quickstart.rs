//! Quickstart: solve the paper's Fig. 5a example on the analog substrate
//! through the staged `MaxFlowSolver → Plan → Instance → solve` API and
//! compare against the exact push-relabel baseline.
//!
//! Run with: `cargo run --example quickstart`

use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::generators::fig5a;
use ohmflow_maxflow::{push_relabel, PushRelabelVariant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = fig5a();
    println!(
        "Fig. 5a instance: {} vertices, {} edges, capacities up to {}",
        g.vertex_count(),
        g.edge_count(),
        g.max_capacity()
    );

    // Exact CPU baseline (the paper's §5.1 comparator).
    let exact = push_relabel(&g, PushRelabelVariant::HighestLabel);
    println!("push-relabel max flow      : {}", exact.value);

    // Ideal analog substrate, staged: `plan` runs the topology-dependent
    // cold path (substrate build, MNA structure, AMD+BTF ordering,
    // symbolic LU) once; `instance` stamps the capacity values; `solve`
    // reads the steady state — whose node voltages ARE the solution.
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let plan = solver.plan(&g)?;
    let report = plan.report();
    println!(
        "plan: nnz(L+U) {} in {} BTF blocks (cache hit: {})",
        report.factor_nnz, report.block_count, report.cache_hit
    );
    let sol = plan.instance(&g)?.solve()?;
    println!("analog substrate max flow  : {:.4}", sol.value);
    println!("Eq. (7a) current readout   : {:.4}", sol.value_from_current);
    println!("per-edge flows (x1..x5)    : {:?}", sol.edge_flows);

    // Re-instantiating the *same plan* with scaled capacities is value-only
    // work — no new ordering, no new symbolic analysis.
    let g2 = g.scaled_capacities(2)?;
    let sol2 = plan.instance(&g2)?.solve()?;
    println!("2x capacities, same plan   : {:.4}", sol2.value);

    // §5.1 evaluation mode: quantized capacities, GBW-limited transient.
    // `solve` is the one-call convenience over the same stages.
    let eval = MaxFlowSolver::new(SolveOptions::evaluation(10e9));
    let tsol = eval.solve(&g)?;
    println!(
        "evaluation mode (N=20, 10 GHz GBW): value {:.4}, converged in {:.3e} s \
         ({} frozen-DC solves)",
        tsol.value,
        tsol.convergence_time.unwrap_or(f64::NAN),
        tsol.report.iterations
    );
    Ok(())
}
