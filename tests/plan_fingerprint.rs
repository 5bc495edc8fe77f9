//! Fingerprint-probe safety: the plan cache serves on a fingerprint match
//! *verified* by a full key comparison, so near-identical topologies —
//! one edge added, removed or reversed — must never be served each
//! other's plans, and the streaming fingerprint itself must discriminate
//! them (the verify step exists for the astronomically-unlikely collision,
//! not as a routine crutch).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ohmflow::TemplateKey;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_graph::FlowNetwork;

/// A random connected flow network: source→sink spine plus random chords.
fn random_graph(rng: &mut StdRng) -> FlowNetwork {
    let n = rng.gen_range(4..10);
    let mut g = FlowNetwork::new(n, 0, n - 1).expect("endpoints");
    for v in 0..n - 1 {
        g.add_edge(v, v + 1, rng.gen_range(1..=20)).expect("spine");
    }
    for _ in 0..rng.gen_range(1..2 * n) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = g.add_edge(a, b, rng.gen_range(1..=20));
        }
    }
    g
}

/// Rebuilds `g` with exactly one structural mutation: edge `i` dropped,
/// reversed, or an extra edge appended. Returns `None` when the mutation
/// is not applicable (e.g. the reversed edge already exists as a
/// self-loop guard failure).
fn mutate(g: &FlowNetwork, which: usize, i: usize) -> Option<FlowNetwork> {
    let edges = g.edges();
    let i = i % edges.len();
    let mut out = FlowNetwork::new(g.vertex_count(), g.source(), g.sink()).ok()?;
    match which % 3 {
        // Drop edge i.
        0 => {
            for (k, e) in edges.iter().enumerate() {
                if k != i {
                    out.add_edge(e.from, e.to, e.capacity).ok()?;
                }
            }
        }
        // Reverse edge i.
        1 => {
            for (k, e) in edges.iter().enumerate() {
                if k == i {
                    out.add_edge(e.to, e.from, e.capacity).ok()?;
                } else {
                    out.add_edge(e.from, e.to, e.capacity).ok()?;
                }
            }
        }
        // Append one extra edge between the first non-adjacent pair.
        _ => {
            for e in edges {
                out.add_edge(e.from, e.to, e.capacity).ok()?;
            }
            let n = g.vertex_count();
            let (a, b) = ((i % n), ((i + 1) % n));
            if a == b {
                return None;
            }
            out.add_edge(a, b, 7).ok()?;
        }
    }
    (out.edges() != g.edges()).then_some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming fingerprint and the full key both separate a graph
    /// from every single-edge mutation of it, and key verification
    /// refuses the mutated graph outright.
    #[test]
    fn fingerprint_and_key_separate_single_edge_mutations(
        seed in any::<u64>(),
        which in any::<u64>(),
        i in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        if let Some(m) = mutate(&g, which as usize, i as usize) {
            let fp_g = TemplateKey::fingerprint(&g);
            let fp_m = TemplateKey::fingerprint(&m);
            prop_assert_ne!(
                fp_g, fp_m,
                "single-edge mutation collided the streaming fingerprint"
            );

            let key = TemplateKey::new(&g);
            prop_assert_eq!(key.fingerprint_value(), fp_g, "key hash IS the fingerprint");
            prop_assert!(key.verifies(&g));
            prop_assert!(!key.verifies(&m), "verification must refuse the mutation");
        }
    }

    /// Through the real cache: solving a graph and a single-edge mutation
    /// of it from one solver produces two distinct plans, each of whose
    /// keys verifies against its own graph only — the
    /// fingerprint-probe + key-verify pipeline never serves a wrong plan.
    #[test]
    fn cache_never_serves_a_mutated_topology_the_original_plan(
        seed in any::<u64>(),
        which in any::<u64>(),
        i in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_graph(&mut rng);
        if let Some(m) = mutate(&g, which as usize, i as usize) {
            let solver = MaxFlowSolver::new(SolveOptions::ideal());
            let plan_g = solver.plan(&g).expect("plan g");
            // The mutated topology may be legitimately unsolvable (e.g. the
            // spine edge into the sink was dropped); what must never happen
            // is its request being answered by g's plan.
            if let Ok(plan_m) = solver.plan(&m) {
                prop_assert!(!plan_m.cache_hit(), "mutation cannot hit g's plan");
                prop_assert!(plan_m.key().verifies(&m));
                prop_assert!(!plan_m.key().verifies(&g));
            }
            prop_assert!(plan_g.key().verifies(&g));
            prop_assert!(!plan_g.key().verifies(&m));

            // And g itself still hits its own (correct) plan.
            let again = solver.plan(&g).expect("replan g");
            prop_assert!(again.cache_hit());
            prop_assert!(again.key().verifies(&g));
        }
    }
}
