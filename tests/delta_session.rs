//! Delta-session equivalence under random streaming walks: every batch
//! of graph deltas — capacity drift, edge removals, in-place revivals,
//! novel insertions — applied through `DeltaSession::apply_deltas` must
//! leave the session agreeing with a cold fresh solve of its own live
//! graph at 1e-9 on the flow value, no matter which mechanism the batch
//! rode (value-only restamp, rank-k excision surgery, re-key against the
//! plan cache, or a numeric consolidation). The walks are generated so
//! they cross those mechanism boundaries at random; the deterministic
//! per-mechanism cases live next to the implementation in
//! `crates/core/src/solver/delta.rs`.
//!
//! The shadow model here tracks only the session's *id space* (which ids
//! are live and what the endpoints are), fed from `DeltaReport::
//! new_edge_ids` — the graph the session claims to represent is read
//! back through `live_graph()` and re-solved from scratch, so a
//! bookkeeping bug and a numeric bug are both caught by the same
//! comparison.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ohmflow::{DeltaBatch, DeltaSession, GraphDelta};
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::FlowNetwork;

/// A random small flow network with a guaranteed source→sink spine plus
/// random chords (the family the facade-equivalence suite uses). The
/// spine edges are ids `0..n-1`; the walk never removes them, so the
/// live graph always keeps a source→sink path.
fn random_base(rng: &mut StdRng) -> FlowNetwork {
    let n = rng.gen_range(5..9);
    let mut g = FlowNetwork::new(n, 0, n - 1).expect("endpoints");
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, rng.gen_range(1..=20)).expect("spine");
    }
    for _ in 0..rng.gen_range(2..2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = g.add_edge(a, b, rng.gen_range(1..=20));
        }
    }
    g
}

/// Test-side mirror of the session's edge-id space.
#[derive(Clone)]
struct ShadowEdge {
    from: usize,
    to: usize,
    live: bool,
}

/// Session flow value vs a cold fresh solve of the session's live graph,
/// plus conservation/capacity feasibility of the live flows.
fn assert_tracks_fresh(
    session: &DeltaSession,
    solver: &MaxFlowSolver,
    shadow: &[ShadowEdge],
    tag: &str,
) {
    let live = session.live_graph().expect("live graph");
    prop_assert_eq!(
        live.edge_count(),
        shadow.iter().filter(|e| e.live).count(),
        "{}: live graph disagrees with the shadow id space",
        tag
    );
    let fresh = solver.solve_fresh(&live).expect("fresh solve");
    let v = session.flow_value();
    prop_assert!(
        (v - fresh.value).abs() < 1e-9 * fresh.value.abs().max(1.0),
        "{}: session value {} vs fresh {}",
        tag,
        v,
        fresh.value
    );
    // Analog solutions overshoot capacity by the clamp knee (~1e-4
    // relative) — the repo-wide feasibility tolerance is 0.05; value
    // agreement above is the tight check.
    let all = session.edge_flows();
    let live_flows: Vec<f64> = shadow
        .iter()
        .zip(&all)
        .filter(|(e, _)| e.live)
        .map(|(_, f)| *f)
        .collect();
    prop_assert!(
        live.validate_flow(&live_flows, 0.05).is_some(),
        "{}: session flows infeasible on the live graph",
        tag
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Capacity-only drift: a stream of `SetCapacity` batches (including
    /// ones that move the global maximum and force a full level-source
    /// rescale) never re-keys and always tracks the fresh solve.
    #[test]
    fn capacity_walk_tracks_fresh_solves(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_base(&mut rng);
        let solver = MaxFlowSolver::new(SolveOptions::ideal());
        let mut session = solver.delta_session(&g).expect("session");
        session.apply_deltas(&DeltaBatch::new()).expect("opening");
        let shadow: Vec<ShadowEdge> = g
            .edges()
            .iter()
            .map(|e| ShadowEdge { from: e.from, to: e.to, live: true })
            .collect();
        for round in 0..5 {
            let mut batch = DeltaBatch::new();
            for _ in 0..rng.gen_range(1..=3) {
                let edge = rng.gen_range(0..shadow.len());
                batch = batch.set_capacity(edge, rng.gen_range(1..=30));
            }
            let report = session.apply_deltas(&batch).expect("capacity batch");
            prop_assert!(!report.replanned, "round {}: capacity drift re-keyed", round);
            assert_tracks_fresh(&session, &solver, &shadow, &format!("capacity round {round}"));
        }
        prop_assert_eq!(session.replans(), 0, "value-only stream must never re-key");
    }

    /// The full mixed walk (see [`mixed_delta_walk`]) on random seeds.
    #[test]
    fn mixed_delta_walk_tracks_fresh_solves(seed in any::<u64>()) {
        mixed_delta_walk(seed);
    }
}

/// The full mixed walk: capacity drift, chord removals, revivals and
/// novel insertions in random proportions, so individual walks land on
/// every routing — pure restamps, excision surgery on the standing
/// factor, plan-cache re-keys for novel structure, and consolidation
/// crossings as the Woodbury rank accumulates. Panics on the first
/// disagreement with a fresh solve, naming the seed.
fn mixed_delta_walk(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_base(&mut rng);
    let n = g.vertex_count();
    let spine = n - 1; // ids `0..spine` are never removed
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let mut session = solver
        .delta_session(&g)
        .unwrap_or_else(|e| panic!("seed {seed}: session: {e}"));
    session
        .apply_deltas(&DeltaBatch::new())
        .unwrap_or_else(|e| panic!("seed {seed}: opening: {e}"));
    let mut shadow: Vec<ShadowEdge> = g
        .edges()
        .iter()
        .map(|e| ShadowEdge {
            from: e.from,
            to: e.to,
            live: true,
        })
        .collect();

    for round in 0..6 {
        let mut batch = DeltaBatch::new();
        let mut staged = shadow.clone();
        for _ in 0..rng.gen_range(1..=3) {
            match rng.gen_range(0..4) {
                0 => {
                    // Ids this batch inserts are not addressable: the
                    // session, not the walk, decides between a revival
                    // and a novel id.
                    let live: Vec<usize> = (0..shadow.len()).filter(|&i| staged[i].live).collect();
                    let edge = live[rng.gen_range(0..live.len())];
                    batch = batch.set_capacity(edge, rng.gen_range(1..=30));
                }
                1 => {
                    // Remove a live chord (spine stays, so the live
                    // graph keeps a source→sink path) that this batch
                    // did not insert.
                    let chords: Vec<usize> =
                        (spine..shadow.len()).filter(|&i| staged[i].live).collect();
                    if let Some(&edge) = chords.get(rng.gen_range(0..chords.len().max(1))) {
                        batch = batch.remove_edge(edge);
                        staged[edge].live = false;
                    }
                }
                2 => {
                    // Revive a removed edge in place (value restamp).
                    let dead: Vec<usize> = (0..staged.len()).filter(|&i| !staged[i].live).collect();
                    if let Some(&edge) = dead.get(rng.gen_range(0..dead.len().max(1))) {
                        let (from, to) = (staged[edge].from, staged[edge].to);
                        batch = batch.insert_edge(from, to, rng.gen_range(1..=30));
                        staged[edge].live = true;
                    }
                }
                _ => {
                    // Insert a pair no *live* edge carries: either a
                    // revival of a dead id or genuinely novel
                    // structure (the session decides — the shadow
                    // follows `new_edge_ids` below either way).
                    for _ in 0..8 {
                        let a = rng.gen_range(0..n);
                        let b = rng.gen_range(0..n);
                        let dup =
                            a == b || staged.iter().any(|e| e.live && e.from == a && e.to == b);
                        if !dup {
                            batch = batch.insert_edge(a, b, rng.gen_range(1..=30));
                            staged.push(ShadowEdge {
                                from: a,
                                to: b,
                                live: true,
                            });
                            break;
                        }
                    }
                }
            }
        }
        if batch.is_empty() {
            continue;
        }
        let report = session
            .apply_deltas(&batch)
            .unwrap_or_else(|e| panic!("seed {seed}, round {round}: mixed batch: {e}"));

        // Fold the batch into the shadow in batch order (a revival then a
        // removal of one edge leaves it removed), using the session's own
        // id assignments for the insertions.
        let inserts = batch
            .deltas()
            .iter()
            .filter(|d| matches!(d, GraphDelta::InsertEdge { .. }))
            .count();
        prop_assert_eq!(report.new_edge_ids.len(), inserts, "seed {}", seed);
        let mut new_ids = report.new_edge_ids.iter();
        for d in batch.deltas() {
            match *d {
                GraphDelta::SetCapacity { .. } => {}
                GraphDelta::RemoveEdge { edge } => shadow[edge].live = false,
                GraphDelta::InsertEdge { from, to, .. } => {
                    let id = *new_ids.next().expect("one id per insert");
                    if id < shadow.len() {
                        prop_assert_eq!(
                            (shadow[id].from, shadow[id].to),
                            (from, to),
                            "seed {}: revived id must keep its endpoints",
                            seed
                        );
                        shadow[id].live = true;
                    } else {
                        prop_assert_eq!(
                            id,
                            shadow.len(),
                            "seed {}: novel ids are assigned densely",
                            seed
                        );
                        shadow.push(ShadowEdge {
                            from,
                            to,
                            live: true,
                        });
                    }
                }
            }
        }

        assert_tracks_fresh(
            &session,
            &solver,
            &shadow,
            &format!("seed {seed}, mixed round {round}"),
        );
    }
}

/// The mixed walk over `StdRng` seeds `0..500`, naming every failing
/// seed. Release only: a debug build takes minutes.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only sweep: cargo test --release --test delta_session"
)]
fn mixed_delta_walk_tracks_fresh_solves_on_500_seeds() {
    let failing: Vec<u64> = (0..500u64)
        .filter(|&seed| std::panic::catch_unwind(|| mixed_delta_walk(seed)).is_err())
        .collect();
    assert!(failing.is_empty(), "failing seeds: {failing:?}");
}
