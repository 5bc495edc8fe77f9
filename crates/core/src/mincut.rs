//! §6.3 the dual formulation: minimum cut.
//!
//! Two artifacts are reproduced:
//!
//! * [`cut_from_analog`] — extracting a minimum cut *certificate* from the
//!   analog max-flow solution (saturated-edge reachability, the dual
//!   readout that max-flow/min-cut duality licenses),
//! * [`DualMeshArchitecture`] — the Fig. 14 mesh that encodes the min-cut
//!   LP with one elementary cell per adjacency-matrix entry (`O(n²)`
//!   cells), with a behavioural solver for the LP itself: a projected
//!   subgradient flow integrating the Fig. 13 circuit's dynamics
//!   (objective pulls `d_ij` down through conductances `∝ c_ij`, the
//!   constraint widgets pull `d_ij ≥ p_i − p_j` up, `p_s − p_t ≥ 1` pins
//!   the potentials). Documented substitution: we integrate the gradient
//!   flow directly instead of building the mesh netlist, since the paper
//!   itself only sketches the circuit.

use ohmflow_graph::{EdgeId, FlowNetwork};

use crate::AnalogError;

/// A cut produced from an analog solution.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogCut {
    /// `true` for vertices on the source side.
    pub source_side: Vec<bool>,
    /// Edges crossing the cut, source side → sink side.
    pub cut_edges: Vec<EdgeId>,
    /// Total capacity of the extracted cut.
    pub capacity: i64,
}

/// Extracts a minimum-cut certificate from (approximate, real-valued)
/// analog edge flows: BFS from the source across edges with residual
/// capacity above `slack` and backwards across edges carrying at least
/// `slack` of flow.
///
/// With exact flows this is the textbook residual-reachability argument;
/// `slack` absorbs the substrate's quantization and non-ideality error
/// (use ~half the quantization step).
pub fn cut_from_analog(g: &FlowNetwork, flows: &[f64], slack: f64) -> AnalogCut {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut stack = vec![g.source()];
    seen[g.source()] = true;
    while let Some(v) = stack.pop() {
        for e in g.out_edges(v) {
            let edge = g.edge(e);
            let residual = edge.capacity as f64 - flows.get(e.0).copied().unwrap_or(0.0);
            if residual > slack && !seen[edge.to] {
                seen[edge.to] = true;
                stack.push(edge.to);
            }
        }
        for e in g.in_edges(v) {
            let edge = g.edge(e);
            if flows.get(e.0).copied().unwrap_or(0.0) > slack && !seen[edge.from] {
                seen[edge.from] = true;
                stack.push(edge.from);
            }
        }
    }
    let mut cut_edges = Vec::new();
    let mut capacity = 0i64;
    for (k, e) in g.edges().iter().enumerate() {
        if seen[e.from] && !seen[e.to] {
            cut_edges.push(EdgeId(k));
            capacity += e.capacity;
        }
    }
    AnalogCut {
        source_side: seen,
        cut_edges,
        capacity,
    }
}

/// The Fig. 14 mesh-based dual architecture: structural model plus a
/// behavioural LP solver for the min-cut program of Fig. 12.
#[derive(Debug, Clone)]
pub struct DualMeshArchitecture {
    n: usize,
}

/// Result of a behavioural dual-circuit solve.
#[derive(Debug, Clone)]
pub struct DualSolution {
    /// Vertex potentials `p_i ∈ [0, 1]`.
    pub potentials: Vec<f64>,
    /// Cut indicators `d_ij ≥ 0` per edge.
    pub indicators: Vec<f64>,
    /// The LP objective `Σ c_ij d_ij` at the final iterate.
    pub objective: f64,
    /// The *rounded* cut capacity obtained by thresholding `p` at 1/2 —
    /// this is the integral certificate the architecture would read out.
    pub rounded_capacity: i64,
    /// Gradient-flow iterations used.
    pub iterations: usize,
}

impl DualMeshArchitecture {
    /// A mesh supporting up to `n` vertices.
    ///
    /// # Errors
    ///
    /// [`AnalogError::InvalidConfig`] for `n == 0`.
    pub fn new(n: usize) -> Result<Self, AnalogError> {
        if n == 0 {
            return Err(AnalogError::InvalidConfig {
                what: "mesh dimension 0".to_owned(),
            });
        }
        Ok(DualMeshArchitecture { n })
    }

    /// Number of elementary cells — `O(n²)` per §6.3's closing remark.
    pub fn cell_count(&self) -> usize {
        self.n * self.n
    }

    /// Cells actually used by a graph (one per present edge).
    pub fn used_cells(&self, g: &FlowNetwork) -> usize {
        g.edge_count()
    }

    /// Solves the min-cut LP of Fig. 12 with the behavioural gradient flow
    /// of the Fig. 13 circuits: `d_ij = max(0, p_i − p_j)` (the constraint
    /// widget's steady state), `p_s = 1`, `p_t = 0` (source/sink widget),
    /// and the potentials descend the objective
    /// `Σ c_ij · max(0, p_i − p_j)` by projected subgradient steps (the
    /// "objective drives down the node voltages" mechanism of Fig. 13a).
    ///
    /// # Errors
    ///
    /// [`AnalogError::CrossbarTooSmall`] if the graph exceeds the mesh.
    pub fn solve(&self, g: &FlowNetwork, iterations: usize) -> Result<DualSolution, AnalogError> {
        if g.vertex_count() > self.n {
            return Err(AnalogError::CrossbarTooSmall {
                required: g.vertex_count(),
                available: self.n,
            });
        }
        let n = g.vertex_count();
        let (s, t) = (g.source(), g.sink());
        // Initialize potentials on a BFS-ish gradient from s to t.
        let mut p = vec![0.5f64; n];
        p[s] = 1.0;
        p[t] = 0.0;

        let c_max = g.max_capacity() as f64;
        let mut step = 0.5 / c_max.max(1.0);
        let mut iters_used = 0;
        for it in 0..iterations {
            iters_used = it + 1;
            // Subgradient of Σ c_ij max(0, p_i − p_j) w.r.t. p.
            let mut grad = vec![0.0f64; n];
            for e in g.edges() {
                if p[e.from] > p[e.to] {
                    grad[e.from] += e.capacity as f64;
                    grad[e.to] -= e.capacity as f64;
                }
            }
            let mut moved = 0.0f64;
            for v in 0..n {
                if v == s || v == t {
                    continue;
                }
                let new = (p[v] - step * grad[v]).clamp(0.0, 1.0);
                moved += (new - p[v]).abs();
                p[v] = new;
            }
            // Diminishing steps give subgradient convergence.
            if it % 50 == 49 {
                step *= 0.7;
            }
            if moved < 1e-12 {
                break;
            }
        }

        let indicators: Vec<f64> = g
            .edges()
            .iter()
            .map(|e| (p[e.from] - p[e.to]).max(0.0))
            .collect();
        let objective = g
            .edges()
            .iter()
            .zip(&indicators)
            .map(|(e, d)| e.capacity as f64 * d)
            .sum();

        // Round: source side = { v : p_v > 1/2 }.
        let rounded_capacity = g
            .edges()
            .iter()
            .filter(|e| p[e.from] > 0.5 && p[e.to] <= 0.5)
            .map(|e| e.capacity)
            .sum();

        Ok(DualSolution {
            potentials: p,
            indicators,
            objective,
            rounded_capacity,
            iterations: iters_used,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{MaxFlowSolver, SolveOptions};
    use ohmflow_graph::generators;
    use ohmflow_graph::rmat::RmatConfig;
    use ohmflow_maxflow::min_cut;

    #[test]
    fn analog_cut_matches_exact_on_fig5a() {
        let g = generators::fig5a();
        let sol = MaxFlowSolver::new(SolveOptions::ideal())
            .solve_fresh(&g)
            .unwrap();
        let cut = cut_from_analog(&g, &sol.edge_flows, 0.05);
        assert_eq!(cut.capacity, min_cut(&g).capacity);
        assert!(cut.source_side[g.source()]);
        assert!(!cut.source_side[g.sink()]);
    }

    #[test]
    fn analog_cut_matches_exact_on_rmat() {
        for seed in 0..5 {
            let g = RmatConfig::sparse(24, seed).generate().unwrap();
            // Larger graphs need more drive headroom before every binding
            // constraint saturates (§2.3 monotonicity).
            let mut cfg = SolveOptions::ideal();
            cfg.params.v_flow = 400.0;
            let sol = MaxFlowSolver::new(cfg).solve_fresh(&g).unwrap();
            let cut = cut_from_analog(&g, &sol.edge_flows, 0.25);
            assert_eq!(cut.capacity, min_cut(&g).capacity, "seed {seed}");
        }
    }

    #[test]
    fn dual_mesh_solves_small_cuts() {
        let mesh = DualMeshArchitecture::new(16).unwrap();
        for g in [
            generators::fig5a(),
            generators::path(&[9, 1, 9]).unwrap(),
            generators::parallel_paths(3, 2).unwrap(),
        ] {
            let exact = min_cut(&g).capacity;
            let d = mesh.solve(&g, 2_000).unwrap();
            assert_eq!(d.rounded_capacity, exact, "rounded cut vs exact");
            assert!(
                d.objective <= exact as f64 + 0.05,
                "LP objective {} vs exact {exact}",
                d.objective
            );
        }
    }

    #[test]
    fn mesh_area_is_quadratic() {
        let mesh = DualMeshArchitecture::new(100).unwrap();
        assert_eq!(mesh.cell_count(), 10_000);
        let g = generators::fig5a();
        assert_eq!(mesh.used_cells(&g), 5);
    }

    #[test]
    fn mesh_rejects_oversized_graphs() {
        let mesh = DualMeshArchitecture::new(3).unwrap();
        assert!(matches!(
            mesh.solve(&generators::fig5a(), 10),
            Err(AnalogError::CrossbarTooSmall { .. })
        ));
    }
}
