//! §6.5 circuit dynamic behaviour: the quasi-static trajectory of the node
//! voltages as `V_flow` ramps slowly (Fig. 15).
//!
//! The drive is slow enough that the circuit tracks its constrained
//! equilibrium at every instant; the solution point moves through the
//! *interior* of the feasible region (the paper conjectures a connection
//! with interior-point methods), with piecewise-linear segments separated
//! by *breakpoints* where a capacity clamp engages.

use ohmflow_circuit::DcSolver;
use ohmflow_graph::FlowNetwork;
use rayon::prelude::*;

use crate::builder::{self, BuildOptions, Drive};
use crate::params::SubstrateParams;
use crate::AnalogError;

/// A quasi-static trajectory: per-step `V_flow` and the edge flows.
#[derive(Debug, Clone)]
pub struct Trajectory {
    /// The `V_flow` ramp samples (volts).
    pub vflow: Vec<f64>,
    /// Edge flows (flow units) per sample, edge-id indexed inner vectors.
    pub flows: Vec<Vec<f64>>,
    /// Breakpoints: `(vflow, edge)` where the edge first reached its
    /// capacity clamp (within tolerance).
    pub breakpoints: Vec<(f64, usize)>,
}

impl Trajectory {
    /// The final flow value (net out of the source is not tracked here;
    /// this is simply the last sampled per-edge assignment).
    pub fn final_flows(&self) -> &[f64] {
        self.flows
            .last()
            .expect("invariant: trajectories record at least one sample")
    }

    /// `true` if every sampled point is strictly feasible (capacity +
    /// conservation within `tol`) — the "moves through the interior"
    /// property of Fig. 15c.
    pub fn all_points_feasible(&self, g: &FlowNetwork, tol: f64) -> bool {
        self.flows.iter().all(|f| g.validate_flow(f, tol).is_some())
    }
}

/// Traces the quasi-static trajectory of `g`: `steps + 1` DC solves with
/// `V_flow` ramped linearly from 0 to `v_flow_max`.
///
/// # Errors
///
/// Propagates construction and DC-solve failures.
pub fn trace_quasi_static(
    g: &FlowNetwork,
    params: &SubstrateParams,
    v_flow_max: f64,
    steps: usize,
) -> Result<Trajectory, AnalogError> {
    let mut params = params.clone();
    params.v_flow = v_flow_max;
    let mut opts = BuildOptions::ideal();
    opts.drive = Drive::Ramp { duration: 1.0 };
    let sc = builder::build(g, &params, &opts)?;

    // Every ramp sample is an independent quasi-static solve, so the sweep
    // fans out across all cores (the vendored rayon parallelizes slices,
    // hence the materialized sample list); the breakpoint scan below needs
    // the samples in order and stays sequential. All samples solve the same
    // circuit at different drive levels, so the cold path (structure +
    // ordering + symbolic analysis) runs once here and each worker derives
    // a thread-local numeric factor from the shared symbolic plan.
    let dcs = DcSolver::new().plan(sc.circuit()).unwrap_or_default();
    let samples: Vec<usize> = (0..=steps).collect();
    let flows = samples
        .par_iter()
        .map(|&k| {
            let t = k as f64 / steps as f64; // ramp position in [0, 1]
            dcs.solve_at(sc.circuit(), t)
                .map(|(sol, _)| sc.edge_flows(|n| sol.voltage(n)))
                .map_err(AnalogError::from)
        })
        .collect::<Vec<Result<Vec<f64>, AnalogError>>>()
        .into_iter()
        .collect::<Result<Vec<Vec<f64>>, AnalogError>>()?;

    let vflow: Vec<f64> = (0..=steps)
        .map(|k| v_flow_max * k as f64 / steps as f64)
        .collect();
    let mut breakpoints = Vec::new();
    let mut at_clamp = vec![false; g.edge_count()];
    for (f, &v_now) in flows.iter().zip(&vflow) {
        for (e, &fe) in f.iter().enumerate() {
            let cap = g.edge(ohmflow_graph::EdgeId(e)).capacity as f64;
            let clamped = fe >= cap * (1.0 - 1e-4);
            if clamped && !at_clamp[e] {
                at_clamp[e] = true;
                breakpoints.push((v_now, e));
            }
        }
    }
    Ok(Trajectory {
        vflow,
        flows,
        breakpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohmflow_graph::generators;

    #[test]
    fn fig15_trajectory_shape() {
        // Eq. (8): max x1 s.t. x1 = x2 + x3, x1 ≤ 4, x2 ≤ 1, x3 ≤ 4.
        let g = generators::fig15a(10);
        let params = SubstrateParams::table1();
        let traj = trace_quasi_static(&g, &params, 60.0, 120).unwrap();

        // Terminal point is the optimum B(4, 1, 3) of Fig. 15c.
        let f = traj.final_flows();
        assert!((f[0] - 4.0).abs() < 0.05, "x1 = {}", f[0]);
        assert!((f[1] - 1.0).abs() < 0.05, "x2 = {}", f[1]);
        assert!((f[2] - 3.0).abs() < 0.05, "x3 = {}", f[2]);

        // x2 (edge 1) clamps strictly before x1 (edge 0) — the D-then-B
        // breakpoint ordering of Fig. 15c.
        let bp_x2 = traj.breakpoints.iter().find(|&&(_, e)| e == 1);
        let bp_x1 = traj.breakpoints.iter().find(|&&(_, e)| e == 0);
        let (v2, _) = bp_x2.expect("x2 must clamp");
        let (v1, _) = bp_x1.expect("x1 must clamp");
        assert!(v2 < v1, "x2 clamps at {v2} V, before x1 at {v1} V");
    }

    #[test]
    fn trajectory_stays_feasible() {
        let g = generators::fig15a(10);
        let params = SubstrateParams::table1();
        let traj = trace_quasi_static(&g, &params, 60.0, 60).unwrap();
        assert!(traj.all_points_feasible(&g, 0.02));
    }

    #[test]
    fn flows_grow_monotonically_along_the_ramp() {
        // §2.3 proves the solution increases with V_flow; x1's trajectory
        // must be (weakly) monotone.
        let g = generators::fig15a(10);
        let params = SubstrateParams::table1();
        let traj = trace_quasi_static(&g, &params, 60.0, 60).unwrap();
        let x1: Vec<f64> = traj.flows.iter().map(|f| f[0]).collect();
        for w in x1.windows(2) {
            assert!(w[1] >= w[0] - 1e-6, "x1 not monotone: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn fig5a_breakpoint_cascade() {
        let g = generators::fig5a();
        let params = SubstrateParams::table1();
        let traj = trace_quasi_static(&g, &params, 60.0, 120).unwrap();
        // Optimum: x1 = 2, branch flows 1 each; x3 (cap 1) and x4 (cap 1)
        // both end at their clamps.
        let f = traj.final_flows();
        assert!((f[0] - 2.0).abs() < 0.05);
        assert!(traj.breakpoints.iter().any(|&(_, e)| e == 2));
        assert!(traj.breakpoints.iter().any(|&(_, e)| e == 3));
    }
}
