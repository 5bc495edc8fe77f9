//! Regenerates Fig. 10 (a: dense, b: sparse): convergence time of the
//! substrate at 10 and 50 GHz GBW, push-relabel CPU time, and relative
//! error, versus the number of vertices.
//!
//! Usage: `cargo run --release -p ohmflow-bench --bin fig10 -- [dense|sparse]`
//! Set `OHMFLOW_FULL=1` for the paper's full 256..960 sweep.

use ohmflow::builder::CapacityMapping;
use ohmflow::solver::SolveMode;
use ohmflow::{MaxFlowSolver, Problem, SolveOptions};
use ohmflow_bench::{active_sizes, fig10_instance, time_push_relabel};
use ohmflow_graph::FlowNetwork;
use ohmflow_maxflow::edmonds_karp;

fn main() {
    let dense = std::env::args()
        .nth(1)
        .map(|a| a == "dense")
        .unwrap_or(false);
    let label = if dense {
        "dense (|E| ∝ |V|²)"
    } else {
        "sparse (|E| ∝ |V|)"
    };
    println!(
        "# Fig. 10{}: {label} R-MAT graphs",
        if dense { "a" } else { "b" }
    );
    println!("vertices,edges,conv_10GHz_s,conv_50GHz_s,push_relabel_s,rel_error_pct,speedup_10GHz");

    for n in active_sizes() {
        let g = fig10_instance(n, dense, n as u64);
        let exact = edmonds_karp(&g).value as f64;
        let (cpu_s, _) = time_push_relabel(&g, 3);

        let mut conv = [0.0f64; 2];
        let mut value = 0.0;
        for (i, gbw) in [10e9, 50e9].iter().enumerate() {
            let mut cfg = SolveOptions::evaluation(*gbw);
            cfg.params.v_flow = 50.0; // paper-style fixed drive headroom
            let tau = cfg.params.opamp.time_constant();
            cfg.mode = SolveMode::Transient {
                window: Some(tau * (30.0 + 0.1 * n as f64)),
                dt: None,
            };
            cfg.build.capacity_mapping = CapacityMapping::Quantized { levels: 20 };
            let sol = MaxFlowSolver::new(cfg).solve(&g).expect("analog solve");
            conv[i] = sol.convergence_time.unwrap_or(f64::NAN);
            value = sol.value;
        }
        let rel_err = (value - exact).abs() / exact.max(1.0) * 100.0;
        println!(
            "{},{},{:.4e},{:.4e},{:.4e},{:.2},{:.0}",
            n,
            g.edge_count(),
            conv[0],
            conv[1],
            cpu_s,
            rel_err,
            cpu_s / conv[0]
        );
    }
    println!(
        "# paper shape: substrate 150-1500x faster than CPU at 10 GHz; 50 GHz ~5x faster still;"
    );
    println!("# relative error <= 8% (avg 3.7% dense / 5.4% sparse)");

    // Seed-averaged error statistics (the paper reports per-size averages
    // over instances): independent instances, solved batch-parallel on all
    // cores through solve_many.
    println!("\n# error sweep: quantization error averaged over 4 seeds per size");
    println!("vertices,avg_rel_error_pct,max_rel_error_pct,seeds_ok,seeds_total");
    let solver = MaxFlowSolver::new(SolveOptions::evaluation_quasi_static(10e9));
    for n in active_sizes() {
        let graphs: Vec<FlowNetwork> = (0..4)
            .map(|s| fig10_instance(n, dense, n as u64 ^ (s * 7919)))
            .collect();
        let sols = solver.solve_many(graphs.iter().map(Problem::from));
        // The quasi-static complementarity iteration can fail on the odd
        // random instance (spurious all-clamped states, see
        // `SolveMode::QuasiStatic`); a sweep reports over the seeds
        // that solve.
        let errs: Vec<f64> = graphs
            .iter()
            .zip(sols)
            .filter_map(|(g, sol)| {
                let exact = edmonds_karp(g).value as f64;
                sol.ok()
                    .map(|s| (s.value - exact).abs() / exact.max(1.0) * 100.0)
            })
            .collect();
        if errs.is_empty() {
            println!("{n},nan,nan,0,{}", graphs.len());
            continue;
        }
        let avg = errs.iter().sum::<f64>() / errs.len() as f64;
        let max = errs.iter().fold(0.0f64, |a, &b| a.max(b));
        println!("{n},{avg:.2},{max:.2},{},{}", errs.len(), graphs.len());
    }
}
