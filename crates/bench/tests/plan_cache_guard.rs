//! Plan-cache regression guard: the fingerprint-first hit path on the
//! rmat1024 substrate fixture must stay decisively cheaper than the
//! full-rehash lookup it replaced, and hammering one shared cache from
//! eight threads must not collapse its aggregate throughput.
//!
//! This is the cheap CI tripwire for the PR 8 concurrent sharded plan
//! cache: a change that quietly reintroduces per-lookup key
//! reconstruction (or per-edge `Hash` dispatch) on the hit path, or that
//! funnels every shard through one lock, shows up here long before
//! anyone reads `BENCH_PR8.json`. The bounds are deliberately generous —
//! the measured hit is ~5× under the rehash baseline and the striped
//! shards hold aggregate throughput flat, so a 2× floor and a 1.5×
//! contention ceiling leave room for timer noise on loaded CI machines
//! while a real regression still trips. Timing only runs under
//! `--release` (the mixer loop stays unoptimized scalar code in debug
//! builds); the multi-core CI bench runner is the runner of record for
//! the contention half.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;

use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::{fig10_instance, median_ns};

/// The harness runs both tests as concurrent threads; the contention
/// test's eight workers would pollute the latency loop on a small
/// machine, so the tests serialize through this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn warm_solver(g: &ohmflow_graph::FlowNetwork) -> MaxFlowSolver {
    let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
    cfg.params.v_flow = 800.0;
    let solver = MaxFlowSolver::new(cfg);
    solver.solve(g).expect("prime plan");
    solver
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: the streaming-fingerprint hit path only beats the \
              rehash baseline in optimized builds — run with --release"
)]
fn fingerprint_hit_stays_cheaper_than_full_rehash_on_rmat1024() {
    let _guard = SERIAL.lock().unwrap();
    let g = fig10_instance(1024, false, 1);
    let solver = warm_solver(&g);

    // The pre-PR-8 lookup cost, reconstructed: every hit rebuilt the
    // lookup key by dispatching each edge through the `Hash` trait into
    // SipHash. The replacement must stay at least 2× under it.
    let rehash = median_ns(9, || {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        g.vertex_count().hash(&mut h);
        g.source().hash(&mut h);
        g.sink().hash(&mut h);
        for e in std::hint::black_box(&g).edges() {
            (e.from, e.to).hash(&mut h);
        }
        std::hint::black_box(h.finish())
    });
    let hit = median_ns(9, || {
        assert!(solver.plan(&g).expect("plan").cache_hit());
    });
    assert!(
        2.0 * hit <= rehash,
        "fingerprint-probed plan hit ({hit:.0} ns) is not >= 2x cheaper than the \
         full-rehash baseline ({rehash:.0} ns) it replaced"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "timing guard: shard-contention bounds only hold in optimized \
              builds — run with --release"
)]
fn eight_thread_hits_stay_within_contention_budget() {
    let _guard = SERIAL.lock().unwrap();
    let g = fig10_instance(1024, false, 1);
    let solver = warm_solver(&g);

    // Aggregate warm-hit cost (total ns across all lookups / lookups):
    // on the lock-striped shards this is workload, not contention, so
    // eight threads must land within 1.5x of the uncontended loop even
    // on a single hardware core (the lookups serialize either way; only
    // lock convoys or a single hot shard mutex could break the bound).
    const OPS: usize = 256;
    let agg_ns_per_op = |threads: usize| {
        median_ns(3, || {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let worker = solver.clone();
                    let g = &g;
                    scope.spawn(move || {
                        for _ in 0..OPS {
                            assert!(worker.plan(g).expect("plan").cache_hit());
                        }
                    });
                }
            });
        }) / (threads * OPS) as f64
    };
    let uncontended = agg_ns_per_op(1);
    let contended = agg_ns_per_op(8);
    assert!(
        contended <= 1.5 * uncontended,
        "8-thread aggregate hit cost ({contended:.0} ns/op) exceeds 1.5x the \
         uncontended cost ({uncontended:.0} ns/op) — shard striping regressed"
    );
}
