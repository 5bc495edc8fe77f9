//! Shared helpers for the benchmark harness: workload sweeps and wall-clock
//! timing of the CPU baseline. Each paper table/figure has a dedicated
//! binary (see `src/bin/`), indexed in `DESIGN.md`.

#![forbid(unsafe_code)]

use std::time::Instant;

use ohmflow::builder::{build, BuildOptions, CapacityMapping, Drive, SubstrateCircuit};
use ohmflow::SubstrateParams;
use ohmflow_graph::rmat::RmatConfig;
use ohmflow_graph::{dimacs, generators, FlowNetwork};
use ohmflow_linalg::{CscMatrix, LuWorkspace, SparseLu};
use ohmflow_maxflow::{push_relabel, PushRelabelVariant};

/// The paper's Fig. 10 vertex sweep: 256 to 960 in steps of 64.
pub fn fig10_sizes() -> Vec<usize> {
    (0..12).map(|i| 256 + 64 * i).collect()
}

/// A reduced sweep for quick runs (`OHMFLOW_FULL=1` enables the full one).
pub fn active_sizes() -> Vec<usize> {
    if std::env::var("OHMFLOW_FULL").is_ok() {
        fig10_sizes()
    } else {
        vec![256, 320, 384, 448]
    }
}

/// Generates the dense or sparse R-MAT instance of Fig. 10.
///
/// Capacities are drawn from `1..=100` (the paper does not state its
/// range; with capacities `<= N = 20` the quantization would be exact and
/// the error series degenerate).
pub fn fig10_instance(vertices: usize, dense: bool, seed: u64) -> FlowNetwork {
    let mut cfg = if dense {
        RmatConfig::dense(vertices, seed)
    } else {
        RmatConfig::sparse(vertices, seed)
    };
    cfg.max_capacity = 100;
    cfg.generate().expect("rmat instance")
}

/// The evaluation-shaped substrate build (ideal negative resistors, exact
/// capacity mapping, step drive) shared by the profile and
/// report bins, so every large-graph scaling number refers to the same
/// circuit configuration.
pub fn bench_substrate(g: &FlowNetwork) -> SubstrateCircuit {
    let mut params = SubstrateParams::with_gbw(10e9);
    params.v_flow = 50.0 * params.v_dd;
    let mut bo = BuildOptions::evaluation(&params);
    bo.capacity_mapping = CapacityMapping::Exact;
    bo.drive = Drive::Step;
    build(g, &params, &bo).expect("substrate build")
}

/// A DIMACS-roundtripped grid instance: generated, serialized to the
/// DIMACS max-flow text format and parsed back, so the benchmark exercises
/// the external-format ingestion path on a mesh-shaped (good-separator)
/// workload — the structural opposite of the R-MAT expanders.
pub fn dimacs_grid_instance(side: usize, max_cap: i64, seed: u64) -> FlowNetwork {
    let g = generators::grid(side, side, max_cap, seed).expect("grid instance");
    let text = dimacs::write(&g);
    dimacs::parse(&text).expect("dimacs roundtrip")
}

/// The `(anode, cathode)` MNA unknown pairs of every diode in `sc` whose
/// terminals are both non-ground — the real rank-1 Woodbury right-hand
/// sides a clamp flip produces, used by the sparse-vs-dense solve benches.
pub fn diode_unknown_pairs(sc: &SubstrateCircuit) -> Vec<(usize, usize)> {
    sc.circuit()
        .elements()
        .iter()
        .filter_map(|e| match e {
            ohmflow_circuit::Element::Diode { anode, cathode, .. }
                if !anode.is_ground() && !cathode.is_ground() =>
            {
                Some((anode.index() - 1, cathode.index() - 1))
            }
            _ => None,
        })
        .collect()
}

/// Median wall-clock nanoseconds of `f` over `reps` runs, with one warmup
/// run discarded — the shared timing primitive of the profile/report bins.
pub fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let _ = f();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let _ = f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Median wall-clock nanoseconds of one *full* numeric replay of `lu`
/// against `m` over `reps` runs. A replay rewrites only the steps whose
/// inputs changed since the previous one, so repeated calls on unchanged
/// values would time nothing; the calls alternate between `m` and `2·m`
/// instead. Scaling by 2 is exact: every value changes and no pivot ratio
/// moves, so each timed call replays every step.
pub fn full_replay_ns(reps: usize, lu: &mut SparseLu, m: &CscMatrix, ws: &mut LuWorkspace) -> f64 {
    let mut doubled = m.clone();
    for v in doubled.pattern_values_mut().2 {
        *v *= 2.0;
    }
    let mut flip = false;
    median_ns(reps, || {
        flip = !flip;
        let a = if flip { &doubled } else { m };
        lu.refactor_with(a, ws).expect("refactor")
    })
}

/// Times the push-relabel CPU baseline (median of `reps` runs), returning
/// `(seconds, flow value)`.
pub fn time_push_relabel(g: &FlowNetwork, reps: usize) -> (f64, i64) {
    let mut times = Vec::with_capacity(reps);
    let mut value = 0;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = push_relabel(g, PushRelabelVariant::HighestLabel);
        times.push(t0.elapsed().as_secs_f64());
        value = r.value;
    }
    times.sort_by(|a, b| a.total_cmp(b));
    (times[times.len() / 2], value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper_axis() {
        let sizes = fig10_sizes();
        assert_eq!(sizes.first(), Some(&256));
        assert_eq!(sizes.last(), Some(&960));
        assert_eq!(sizes.len(), 12);
    }

    #[test]
    fn timing_returns_positive_duration() {
        let g = fig10_instance(64, false, 1);
        let (secs, value) = time_push_relabel(&g, 3);
        assert!(secs > 0.0);
        assert!(value > 0);
    }
}
