//! Regenerates Fig. 5c: the waveform of the five edge-node voltages after
//! the rising edge of V_flow on the Fig. 5a example. Output is a CSV
//! (time, V(x1)..V(x5)) suitable for plotting.

use ohmflow::builder::CapacityMapping;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::generators::fig5a;

fn main() {
    let g = fig5a();
    let mut cfg = SolveOptions::evaluation(10e9);
    cfg.build.capacity_mapping = CapacityMapping::Exact;
    let sol = MaxFlowSolver::new(cfg).solve(&g).expect("fig5a solve");
    let waves = sol.waveforms.as_ref().expect("waveforms recorded");

    println!("# Fig. 5c: node-voltage waveforms, Fig. 5a example");
    println!(
        "# convergence time: {:.4e} s (paper plots ~1e-8 s scale)",
        sol.convergence_time.unwrap()
    );
    println!("time_s,Vx1,Vx2,Vx3,Vx4,Vx5");
    let mut nodes: Vec<_> = waves.probed_nodes().collect();
    nodes.sort_by_key(|n| n.index());
    let columns: Vec<_> = nodes
        .iter()
        .take(5)
        .map(|&n| waves.voltage(n).expect("probed"))
        .collect();
    let times = waves.times();
    for i in (0..times.len()).step_by((times.len() / 60).max(1)) {
        print!("{:.6e}", times[i]);
        for w in &columns {
            // Volts; multiply by C=3 for flow units.
            print!(",{:.5}", w.value(i));
        }
        println!();
    }
    println!("# final flows (flow units): {:?}", sol.edge_flows);
    println!("# paper narrative check: x1 overshoots toward 3, settles at 2");
}
