//! Reproduces the Fig. 5c experiment: step V_flow and watch the edge-node
//! voltages converge — V(x1) overshoots toward 3 V, the capacity clamps
//! engage, and the conservation network settles everything at the optimum.
//!
//! Run with: `cargo run --example transient_waveform`

use ohmflow::builder::CapacityMapping;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::generators::fig5a;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let g = fig5a();
    let mut cfg = SolveOptions::evaluation(10e9);
    cfg.build.capacity_mapping = CapacityMapping::Exact; // volts = flows / 3
    let sol = MaxFlowSolver::new(cfg).solve(&g)?;
    let waves = sol.waveforms.as_ref().expect("transient records waveforms");

    println!("convergence time: {:.3e} s", sol.convergence_time.unwrap());
    println!(
        "{:>12} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "t (s)", "x1", "x2", "x3", "x4", "x5"
    );
    let times = waves.times();
    let n = times.len();
    let mut nodes: Vec<_> = waves.probed_nodes().collect();
    nodes.sort_by_key(|n| n.index());
    let columns: Vec<_> = nodes
        .iter()
        .take(5)
        .map(|&node| waves.voltage(node).expect("probed"))
        .collect();
    for i in (0..n).step_by((n / 24).max(1)) {
        print!("{:>12.3e}", times[i]);
        for w in &columns {
            print!(" {:>8.3}", w.value(i) * 3.0); // flow units
        }
        println!();
    }
    println!("final flows: {:?}", sol.edge_flows);
    Ok(())
}
