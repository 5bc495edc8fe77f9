//! §6.2 clustered island-style architectures.
//!
//! A monolithic `n × n` crossbar wastes area on sparse graphs (`O(n²)`
//! cells for `O(n)` edges). The clustered alternative groups mesh-based
//! *processing islands* behind a routing network, FPGA-style: highly
//! connected subgraphs map into islands, sparse inter-cluster edges use
//! the routing fabric. Two topologies are modelled — the 1-D bus of
//! Fig. 11a (cheap, routing-limited) and the 2-D switch-box grid of
//! Fig. 11b (flexible, costlier).

use ohmflow_graph::partition::partition_bfs;
use ohmflow_graph::FlowNetwork;

use crate::AnalogError;

/// Routing topology of the clustered architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingTopology {
    /// Fig. 11a: islands on a shared 1-D channel; every inter-island edge
    /// consumes one track of the single channel.
    OneDimensional {
        /// Total tracks in the channel.
        channel_tracks: usize,
    },
    /// Fig. 11b: islands on a `rows × cols` grid with switch boxes;
    /// inter-island edges are Manhattan-routed and consume one track per
    /// channel segment they traverse.
    TwoDimensional {
        /// Island-grid rows.
        rows: usize,
        /// Island-grid columns.
        cols: usize,
        /// Tracks per channel segment.
        tracks_per_segment: usize,
    },
}

/// A clustered substrate: `islands` mesh-based islands, each able to host
/// up to `island_vertices` graph vertices, plus a routing fabric.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteredArchitecture {
    /// Number of islands.
    pub islands: usize,
    /// Per-island mesh side (vertices an island can host).
    pub island_vertices: usize,
    /// Routing topology.
    pub topology: RoutingTopology,
}

/// Result of mapping a graph onto a clustered architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Mapping {
    /// Island assignment per vertex.
    pub island_of: Vec<usize>,
    /// Inter-island edges (graph edge indices).
    pub routed_edges: Vec<usize>,
    /// Peak channel-track usage (1-D: total; 2-D: worst segment).
    pub peak_track_usage: usize,
    /// Crossbar cells used inside islands (Σ per-island `k²` for `k`
    /// hosted vertices).
    pub island_cells_used: usize,
    /// Utilization of island cells by intra-island edges.
    pub island_utilization: f64,
}

impl ClusteredArchitecture {
    /// A 1-D architecture (Fig. 11a).
    pub fn one_dimensional(islands: usize, island_vertices: usize, channel_tracks: usize) -> Self {
        ClusteredArchitecture {
            islands,
            island_vertices,
            topology: RoutingTopology::OneDimensional { channel_tracks },
        }
    }

    /// A 2-D architecture (Fig. 11b) with `rows × cols` islands.
    pub fn two_dimensional(
        rows: usize,
        cols: usize,
        island_vertices: usize,
        tracks_per_segment: usize,
    ) -> Self {
        ClusteredArchitecture {
            islands: rows * cols,
            island_vertices,
            topology: RoutingTopology::TwoDimensional {
                rows,
                cols,
                tracks_per_segment,
            },
        }
    }

    /// Total vertex capacity.
    pub fn vertex_capacity(&self) -> usize {
        self.islands * self.island_vertices
    }

    /// Maps `g` onto the architecture: partitions the vertices into
    /// islands (BFS + refinement, §6.2's "highly connected subgraphs map
    /// to separate islands"), checks island capacity, and routes
    /// inter-island edges through the fabric.
    ///
    /// # Errors
    ///
    /// [`AnalogError::CrossbarTooSmall`] when the graph exceeds the total
    /// vertex capacity, an island overflows, or routing runs out of
    /// tracks.
    pub fn map_graph(&self, g: &FlowNetwork) -> Result<Mapping, AnalogError> {
        if g.vertex_count() > self.vertex_capacity() {
            return Err(AnalogError::CrossbarTooSmall {
                required: g.vertex_count(),
                available: self.vertex_capacity(),
            });
        }
        let part = partition_bfs(g, self.islands.min(g.vertex_count()).max(1));
        let sizes = part.part_sizes();
        if let Some((island, &size)) = sizes
            .iter()
            .enumerate()
            .find(|&(_, &s)| s > self.island_vertices)
        {
            let _ = island;
            return Err(AnalogError::CrossbarTooSmall {
                required: size,
                available: self.island_vertices,
            });
        }

        // Routing.
        let mut routed_edges = Vec::new();
        let mut intra_per_island = vec![0usize; self.islands];
        for (k, e) in g.edges().iter().enumerate() {
            let (pa, pb) = (part.assignment[e.from], part.assignment[e.to]);
            if pa == pb {
                intra_per_island[pa] += 1;
            } else {
                routed_edges.push(k);
            }
        }
        let peak_track_usage = match self.topology {
            RoutingTopology::OneDimensional { channel_tracks } => {
                let used = routed_edges.len();
                if used > channel_tracks {
                    return Err(AnalogError::CrossbarTooSmall {
                        required: used,
                        available: channel_tracks,
                    });
                }
                used
            }
            RoutingTopology::TwoDimensional {
                rows,
                cols,
                tracks_per_segment,
            } => {
                // Manhattan routing: count per horizontal/vertical segment.
                let pos = |island: usize| (island / cols, island % cols);
                let mut h_seg = vec![vec![0usize; cols.saturating_sub(1)]; rows];
                let mut v_seg = vec![vec![0usize; cols]; rows.saturating_sub(1)];
                for &k in &routed_edges {
                    let e = g.edges()[k];
                    let (ra, ca) = pos(part.assignment[e.from]);
                    let (rb, cb) = pos(part.assignment[e.to]);
                    // Route horizontally at row ra, then vertically at col cb.
                    let (c0, c1) = (ca.min(cb), ca.max(cb));
                    for seg in &mut h_seg[ra][c0..c1] {
                        *seg += 1;
                    }
                    let (r0, r1) = (ra.min(rb), ra.max(rb));
                    for row in &mut v_seg[r0..r1] {
                        row[cb] += 1;
                    }
                }
                let peak = h_seg
                    .iter()
                    .flatten()
                    .chain(v_seg.iter().flatten())
                    .copied()
                    .max()
                    .unwrap_or(0);
                if peak > tracks_per_segment {
                    return Err(AnalogError::CrossbarTooSmall {
                        required: peak,
                        available: tracks_per_segment,
                    });
                }
                peak
            }
        };

        let island_cells_used: usize = sizes.iter().map(|&s| s * s).sum();
        let intra_edges: usize = intra_per_island.iter().sum();
        Ok(Mapping {
            island_of: part.assignment,
            routed_edges,
            peak_track_usage,
            island_cells_used,
            island_utilization: if island_cells_used == 0 {
                0.0
            } else {
                intra_edges as f64 / island_cells_used as f64
            },
        })
    }

    /// Area advantage over a monolithic crossbar hosting the same graph:
    /// `n² / (island cells + routing tracks)` — the §6.2 scalability
    /// argument, > 1 when clustering wins.
    pub fn area_advantage(&self, g: &FlowNetwork, mapping: &Mapping) -> f64 {
        let mono = g.vertex_count() * g.vertex_count();
        let clustered = mapping.island_cells_used + mapping.routed_edges.len();
        mono as f64 / clustered.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohmflow_graph::generators;
    use ohmflow_graph::rmat::RmatConfig;

    #[test]
    fn sparse_graph_maps_with_area_advantage() {
        let g = RmatConfig::sparse(96, 4).generate().unwrap();
        let arch = ClusteredArchitecture::one_dimensional(8, 24, 2_000);
        let m = arch.map_graph(&g).unwrap();
        assert_eq!(m.island_of.len(), 96);
        let adv = arch.area_advantage(&g, &m);
        assert!(adv > 1.0, "clustering should beat monolithic: {adv}");
    }

    #[test]
    fn capacity_overflow_detected() {
        let g = RmatConfig::sparse(96, 4).generate().unwrap();
        let arch = ClusteredArchitecture::one_dimensional(2, 10, 1_000);
        assert!(matches!(
            arch.map_graph(&g),
            Err(AnalogError::CrossbarTooSmall { .. })
        ));
    }

    #[test]
    fn routing_overflow_detected_on_1d() {
        let g = RmatConfig::dense(48, 7).generate().unwrap();
        // Plenty of vertex room but almost no routing tracks.
        let arch = ClusteredArchitecture::one_dimensional(6, 48, 1);
        assert!(matches!(
            arch.map_graph(&g),
            Err(AnalogError::CrossbarTooSmall { .. })
        ));
    }

    #[test]
    fn two_dimensional_routing_counts_segments() {
        let g = RmatConfig::sparse(64, 9).generate().unwrap();
        let arch = ClusteredArchitecture::two_dimensional(2, 2, 32, 10_000);
        let m = arch.map_graph(&g).unwrap();
        // Peak usage must be bounded by total routed edges.
        assert!(m.peak_track_usage <= m.routed_edges.len());
    }

    #[test]
    fn one_d_is_easier_to_map_but_less_scalable() {
        // §6.2's hypothesis, made measurable: with equal track budgets,
        // the 2-D fabric sustains denser inter-island traffic because its
        // peak per-segment load is lower than the 1-D total.
        let g = RmatConfig::dense(64, 11).generate().unwrap();
        let d1 = ClusteredArchitecture::one_dimensional(4, 32, usize::MAX);
        let d2 = ClusteredArchitecture::two_dimensional(2, 2, 32, usize::MAX);
        let m1 = d1.map_graph(&g).unwrap();
        let m2 = d2.map_graph(&g).unwrap();
        assert!(
            m2.peak_track_usage <= m1.peak_track_usage,
            "2-D peak {} vs 1-D total {}",
            m2.peak_track_usage,
            m1.peak_track_usage
        );
    }

    #[test]
    fn fig5a_fits_one_island() {
        let g = generators::fig5a();
        let arch = ClusteredArchitecture::one_dimensional(1, 8, 0);
        let m = arch.map_graph(&g).unwrap();
        assert!(m.routed_edges.is_empty());
        assert_eq!(m.peak_track_usage, 0);
        assert!(m.island_utilization > 0.0);
    }
}
