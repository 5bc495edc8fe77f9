//! Delta-session regression guard: on the rmat2048 substrate fixture a
//! k=8 mixed delta batch (capacity restamps + exact removals + in-place
//! revivals) absorbed by a standing `DeltaSession` must stay at least
//! 10x under the cold plan+build+solve the same change would cost
//! without one, and the rank-k batched Woodbury push must beat k
//! sequential rank-1 pushes on the multi-block production factor.
//!
//! This is the cheap CI tripwire for the PR 9 graph-delta fast path: a
//! change that quietly reroutes delta batches through a rebuild (or
//! degrades the batched push back to per-term capacitance refreshes)
//! shows up here long before anyone reads `BENCH_PR9.json`. The 10x bar
//! is the acceptance number, deliberately far under the measured
//! amortization, so timer noise on loaded CI machines cannot trip it
//! while a real fast-path loss still does. Timing only runs under
//! `--release`; the correctness tripwire at the bottom runs everywhere.

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use ohmflow::DeltaBatch;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::{bench_substrate, diode_unknown_pairs, fig10_instance, median_ns};
use ohmflow_circuit::DcSolver;
use ohmflow_graph::FlowNetwork;
use ohmflow_linalg::{LowRankUpdate, RankOneTermRef};

/// The timing tests share one core on small CI machines; serialize them
/// so neither pollutes the other's clock. A guard that panics poisons the
/// lock; the other still takes it, so each reports only its own result.
static SERIAL: Mutex<()> = Mutex::new(());

/// The ideal build: plain-resistor conservation stars, so topology deltas
/// ride the value-only surgery + rank-k Woodbury fast path this guard
/// protects. Op-amp builds fall back to structural re-keys by design.
fn session_solver() -> MaxFlowSolver {
    MaxFlowSolver::new(SolveOptions::ideal())
}

/// A k=8 mixed batch over the interior-edge pool: two removals, the two
/// revivals undoing the previous round's removals, four capacity
/// restamps — the periodic walk the PR 9 bench records.
fn mixed_batch(g: &FlowNetwork, pool: &[(usize, i64)], round: usize) -> DeltaBatch {
    let l = pool.len();
    let (r0, r1) = (pool[(2 * round) % l], pool[(2 * round + 1) % l]);
    let (p0, p1) = (pool[(2 * round + l - 2) % l], pool[(2 * round + l - 1) % l]);
    let mut b = DeltaBatch::new()
        .remove_edge(r0.0)
        .remove_edge(r1.0)
        .insert_edge(g.edges()[p0.0].from, g.edges()[p0.0].to, p0.1)
        .insert_edge(g.edges()[p1.0].from, g.edges()[p1.0].to, p1.1);
    for i in 0..4 {
        let (k, cap) = pool[(4 * round + i + 7) % l];
        b = b.set_capacity(k, 1 + (cap + round as i64) % 99);
    }
    b
}

/// Non-circulation edges (the removable pool) with their capacities.
fn interior_edges(g: &FlowNetwork) -> Vec<(usize, i64)> {
    g.edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.to != g.source() && e.from != g.sink())
        .map(|(k, e)| (k, e.capacity))
        .collect()
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: the 10x delta-vs-cold amortization bar only holds in \
              optimized builds — run with --release"
)]
fn mixed_delta_batch_amortizes_10x_over_cold_solve_on_rmat2048() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = fig10_instance(2048, false, 1);
    let solver = session_solver();

    // Cold baseline, single shot: without a session every batch pays a
    // full plan+build+solve of the mutated graph (a single sample keeps
    // the guard cheap; the 10x margin absorbs the noise).
    let t0 = Instant::now();
    solver.solve_fresh(&g).expect("cold solve");
    let cold_ns = t0.elapsed().as_nanos() as f64;

    let mut session = solver.delta_session(&g).expect("delta session");
    session.apply_deltas(&DeltaBatch::new()).expect("opening");
    let pool = interior_edges(&g);
    session
        .apply_deltas(
            &DeltaBatch::new()
                .remove_edge(pool[pool.len() - 2].0)
                .remove_edge(pool[pool.len() - 1].0),
        )
        .expect("prime removals");

    let rounds = 4;
    let t0 = Instant::now();
    for r in 0..rounds {
        let report = session
            .apply_deltas(&mixed_batch(&g, &pool, r))
            .expect("mixed batch");
        assert!(!report.replanned, "periodic mixed walk must not re-key");
    }
    let delta_ns = t0.elapsed().as_nanos() as f64 / rounds as f64;

    assert!(
        10.0 * delta_ns <= cold_ns,
        "k=8 mixed delta batch ({delta_ns:.0} ns) is not >= 10x cheaper than the \
         cold plan+build+solve ({cold_ns:.0} ns) it replaces"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: the batched-push advantage only shows in optimized \
              builds — run with --release"
)]
fn batched_rank8_push_beats_sequential_rank1_pushes() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let g = fig10_instance(1024, false, 1);
    let sc = bench_substrate(&g);
    // The factor production builds: AMD on the diagonal blocks of the
    // block-triangular form. The batch carries its z-columns through
    // multi-lane traversals of every block; each sequential push runs one
    // single-lane dense solve.
    let (m, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
    assert!(
        lu.symbolic().block_count() > 1,
        "guard must time the multi-block production factor"
    );

    let pairs = diode_unknown_pairs(&sc);
    let k = 8;
    #[allow(clippy::type_complexity)]
    let terms: Vec<(Vec<(usize, f64)>, Vec<(usize, f64)>)> = pairs
        .iter()
        .step_by((pairs.len() / k).max(1))
        .take(k)
        .map(|&(a, c)| (vec![(a, 1e-4), (c, -1e-4)], vec![(a, 1.0), (c, -1.0)]))
        .collect();
    let term_refs: Vec<RankOneTermRef<'_>> = terms
        .iter()
        .map(|(u, v)| (u.as_slice(), v.as_slice()))
        .collect();

    let n = m.cols();
    let seq = median_ns(5, || {
        let mut up = LowRankUpdate::new(n);
        for (u, v) in &term_refs {
            up.push(&lu, u, v).expect("rank-1 push");
        }
    });
    let bat = median_ns(5, || {
        let mut up = LowRankUpdate::new(n);
        up.push_batch(&lu, &term_refs).expect("rank-8 batch push");
    });
    assert!(
        bat <= 0.9 * seq,
        "rank-8 batched push ({bat:.0} ns) is not measurably faster than 8 \
         sequential rank-1 pushes ({seq:.0} ns)"
    );
}

/// The push-or-replay rule sizes each session's rank budget from its own
/// factor. A replay costs ~12 solves on rmat256 and ~50 on rmat2048
/// (measured on a 2-core host), and so does the budget's reach: on
/// `delta_stream`'s rmat256 a cut batch ran fastest at budgets 0-8 (3.6-3.8
/// ms, against 6.6 ms at a fixed 64), while rmat2048's mixed batch wants
/// 32 or more (93 ms at 32, 141 ms at 8).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "opens an rmat2048 session, which takes minutes unoptimized — run with --release"
)]
fn rank_budget_follows_the_factor() {
    let _guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let solver = session_solver();
    let budget = |v: usize| {
        solver
            .delta_session(&fig10_instance(v, false, 1))
            .expect("delta session")
            .rank_budget()
    };
    let (small, large) = (budget(256), budget(2048));
    assert!(small <= 8, "rmat256 budget {small} above 8");
    assert!(large >= 32, "rmat2048 budget {large} below 32");
}

/// Correctness tripwire (runs in debug too): a mixed batch through the
/// public delta-session API must track a cold fresh solve of the live
/// graph at 1e-9 — the cheap end of the agreement suite, here so a perf
/// refactor cannot trade exactness away without failing the guard file
/// it is editing.
#[test]
fn mixed_delta_batch_stays_exact_on_grid() {
    let g = {
        let text = ohmflow_graph::dimacs::write(
            &ohmflow_graph::generators::grid(6, 6, 50, 7).expect("grid"),
        );
        ohmflow_graph::dimacs::parse(&text).expect("roundtrip")
    };
    let solver = MaxFlowSolver::new(SolveOptions::ideal());
    let mut session = solver.delta_session(&g).expect("delta session");
    session.apply_deltas(&DeltaBatch::new()).expect("opening");
    let pool = interior_edges(&g);
    session
        .apply_deltas(
            &DeltaBatch::new()
                .remove_edge(pool[pool.len() - 2].0)
                .remove_edge(pool[pool.len() - 1].0),
        )
        .expect("prime removals");
    for r in 0..3 {
        session
            .apply_deltas(&mixed_batch(&g, &pool, r))
            .expect("mixed batch");
        let live = session.live_graph().expect("live graph");
        let fresh = solver.solve_fresh(&live).expect("fresh solve");
        let v = session.flow_value();
        assert!(
            (v - fresh.value).abs() < 1e-9 * fresh.value.abs().max(1.0),
            "round {r}: session {v} vs fresh {}",
            fresh.value
        );
    }
}
