//! Solver-side structural invariant audits.
//!
//! The linalg crate audits the factorization structures
//! ([`ohmflow_linalg::AuditError`] documents the scheme); this module
//! audits the solver-layer structures stacked on top of them:
//!
//! * [`DeltaMetadata`](crate::builder) — the value-only surgery handles a
//!   delta session toggles. A wrong handle silently edits the *wrong
//!   resistor*, which corrupts flows without any solver error, so the
//!   audit pins element-id uniqueness and the closure between edge
//!   surgery handles and the per-vertex star handles.
//! * The sharded plan cache (audited in `plan_cache.rs`, surfaced through
//!   [`MaxFlowSolver::audit_plan_cache`](crate::MaxFlowSolver::audit_plan_cache))
//!   — LRU byte accounting and fingerprint→shard placement.
//!
//! Public entry points: [`Plan::audit`](crate::Plan::audit),
//! [`DeltaSession::audit`](crate::solver::delta::DeltaSession::audit) and
//! [`MaxFlowSolver::audit_plan_cache`](crate::MaxFlowSolver::audit_plan_cache);
//! the `ohmflow-audit` binary drives all of them across the bench
//! substrates.

use ohmflow_linalg::AuditError;

use crate::builder::DeltaMetadata;

/// Audits a [`DeltaMetadata`] table against the edge list of the graph
/// the substrate was built from (`edges[k] = (from, to)` in build order).
///
/// Invariants:
///
/// * `element-id-unique` — every surgery handle (tail/head couplings,
///   ghost anchors, star elements) names a distinct circuit element; a
///   duplicated id would make one surgery clobber another's resistor.
/// * `star-membership-closure` — per-vertex star handles agree with edge
///   membership: circulation edges (into the source / out of the sink)
///   carry no handles, a head coupling exists exactly when the head owns
///   a conservation widget, and each star's `n_base` equals the number of
///   non-circulation edges incident to its vertex.
///
/// # Errors
///
/// The first violated invariant, as a structured [`AuditError`].
pub(crate) fn audit_delta_metadata(
    meta: &DeltaMetadata,
    edges: &[(usize, usize)],
    vertex_count: usize,
    source: usize,
    sink: usize,
) -> Result<(), AuditError> {
    const S: &str = "DeltaMetadata";
    let fail = |invariant: &'static str, location: String| -> AuditError {
        AuditError::new(S, invariant, location)
    };

    if meta.edges.len() != edges.len() || meta.stars.len() != vertex_count {
        return Err(fail(
            "star-membership-closure",
            format!(
                "{} edge / {} star handles vs {} edges / {vertex_count} vertices",
                meta.edges.len(),
                meta.stars.len(),
                edges.len()
            ),
        ));
    }

    // Element-id uniqueness across every handle kind.
    let mut ids: Vec<(usize, String)> = Vec::new();
    for (k, surgery) in meta.edges.iter().enumerate() {
        if let Some(s) = surgery {
            ids.push((s.u_coupling.index(), format!("edge {k} tail coupling")));
            if let Some(v) = s.v_coupling {
                ids.push((v.index(), format!("edge {k} head coupling")));
            }
            ids.push((s.anchor.index(), format!("edge {k} anchor")));
        }
    }
    for (v, star) in meta.stars.iter().enumerate() {
        if let Some(s) = star {
            ids.push((s.element.index(), format!("vertex {v} star")));
        }
    }
    ids.sort_by_key(|&(id, _)| id);
    for w in ids.windows(2) {
        if w[0].0 == w[1].0 {
            return Err(fail(
                "element-id-unique",
                format!("{} and {} share element {}", w[0].1, w[1].1, w[0].0),
            ));
        }
    }

    // Membership closure between edge handles and star handles.
    let mut incident = vec![0usize; vertex_count];
    for (k, (&(from, to), surgery)) in edges.iter().zip(&meta.edges).enumerate() {
        let circulation = to == source || from == sink;
        if circulation != surgery.is_none() {
            return Err(fail(
                "star-membership-closure",
                format!("edge {k} ({from} -> {to}): circulation {circulation} but handles present"),
            ));
        }
        let Some(s) = surgery else { continue };
        let head_widget = to != sink && to != source;
        if s.v_coupling.is_some() != head_widget {
            return Err(fail(
                "star-membership-closure",
                format!("edge {k} ({from} -> {to}): head coupling vs widget mismatch"),
            ));
        }
        if from >= vertex_count || to >= vertex_count {
            return Err(fail(
                "star-membership-closure",
                format!("edge {k}: endpoint out of range"),
            ));
        }
        incident[from] += 1;
        incident[to] += 1;
    }
    for (v, star) in meta.stars.iter().enumerate() {
        let interior = v != source && v != sink;
        match star {
            Some(_) if !interior => {
                return Err(fail(
                    "star-membership-closure",
                    format!("terminal vertex {v} owns a star handle"),
                ));
            }
            Some(s) if s.n_base != incident[v] => {
                return Err(fail(
                    "star-membership-closure",
                    format!(
                        "vertex {v}: star stamped for {} edges, {} incident",
                        s.n_base, incident[v]
                    ),
                ));
            }
            None if interior && incident[v] > 0 => {
                return Err(fail(
                    "star-membership-closure",
                    format!(
                        "vertex {v}: {} incident edges but no star handle",
                        incident[v]
                    ),
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Mutation-kill suite for the metadata audit: corrupt a freshly built
/// surgery table and assert the right invariant is blamed.
#[cfg(test)]
mod tests {
    use ohmflow_graph::FlowNetwork;

    use super::*;
    use crate::builder::{build, BuildOptions};
    use crate::params::SubstrateParams;

    /// A 4-vertex diamond with every edge non-circulation, plus its audit
    /// inputs.
    fn built_meta() -> (DeltaMetadata, Vec<(usize, usize)>, usize) {
        let mut g = FlowNetwork::new(4, 0, 3).expect("graph");
        g.add_edge(0, 1, 3).expect("edge");
        g.add_edge(0, 2, 2).expect("edge");
        g.add_edge(1, 2, 1).expect("edge");
        g.add_edge(1, 3, 2).expect("edge");
        g.add_edge(2, 3, 3).expect("edge");
        let sc = build(&g, &SubstrateParams::table1(), &BuildOptions::ideal()).expect("build");
        let edges = g.edges().iter().map(|e| (e.from, e.to)).collect();
        (sc.delta_meta().clone(), edges, g.vertex_count())
    }

    #[test]
    fn pristine_metadata_audits_clean() {
        let (meta, edges, n) = built_meta();
        audit_delta_metadata(&meta, &edges, n, 0, 3).expect("valid metadata audits clean");
    }

    #[test]
    fn mutation_duplicated_surgery_handle() {
        let (mut meta, edges, n) = built_meta();
        let stolen = meta.edges[0].as_ref().expect("non-circulation").u_coupling;
        meta.edges[1].as_mut().expect("non-circulation").anchor = stolen;
        let err = audit_delta_metadata(&meta, &edges, n, 0, 3).expect_err("caught");
        assert_eq!(err.invariant, "element-id-unique");
    }

    #[test]
    fn mutation_dropped_star_handle() {
        let (mut meta, edges, n) = built_meta();
        meta.stars[1] = None;
        let err = audit_delta_metadata(&meta, &edges, n, 0, 3).expect_err("caught");
        assert_eq!(err.invariant, "star-membership-closure");
    }

    #[test]
    fn mutation_star_count_desync() {
        let (mut meta, edges, n) = built_meta();
        meta.stars[2].as_mut().expect("interior star").n_base += 1;
        let err = audit_delta_metadata(&meta, &edges, n, 0, 3).expect_err("caught");
        assert_eq!(err.invariant, "star-membership-closure");
    }
}
