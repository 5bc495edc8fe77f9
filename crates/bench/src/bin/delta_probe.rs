//! Scratch probe for the PR 9 delta-session timings (not wired into CI).
//!
//! Prints per-phase wall times and per-round state iterations for the
//! mixed delta walk the bench records, so a pathological apply can be
//! localized without waiting out the full `bench_report pr9` run.

use std::time::Instant;

use ohmflow::DeltaBatch;
use ohmflow::{MaxFlowSolver, SolveOptions};
use ohmflow_bench::{bench_substrate, diode_unknown_pairs, fig10_instance};

fn probe_push(n: usize) {
    use ohmflow_circuit::DcSolver;
    use ohmflow_linalg::{LowRankUpdate, RankOneTermRef, SparseSolveWorkspace};

    let g = fig10_instance(n, false, 1);
    let sc = bench_substrate(&g);
    let (m, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
    let dim = m.cols();
    println!(
        "substrate n={dim} nnz={} blocks={}",
        m.nnz(),
        lu.symbolic().block_count()
    );
    let pairs = diode_unknown_pairs(&sc);
    let (a, c) = pairs[pairs.len() / 2];
    let u: Vec<(usize, f64)> = vec![(a, 1e-4), (c, -1e-4)];
    let b1 = vec![1.0; dim];
    let (mut work, mut out) = (Vec::new(), Vec::new());

    let t0 = Instant::now();
    for _ in 0..10 {
        lu.solve_into(&b1, &mut work, &mut out).expect("solve");
    }
    println!("dense solve: {:.3}ms", t0.elapsed().as_secs_f64() * 100.0);

    let mut ws = SparseSolveWorkspace::default();
    let mut z = Vec::new();
    let t0 = Instant::now();
    for _ in 0..10 {
        z.clear();
        lu.solve_sparse_into(&u, &mut ws, &mut z).expect("sparse");
    }
    println!("sparse solve: {:.3}ms", t0.elapsed().as_secs_f64() * 100.0);

    #[allow(clippy::type_complexity)]
    let terms: Vec<(Vec<(usize, f64)>, Vec<(usize, f64)>)> = pairs
        .iter()
        .step_by((pairs.len() / 8).max(1))
        .take(8)
        .map(|&(a, c)| (vec![(a, 1e-4), (c, -1e-4)], vec![(a, 1.0), (c, -1.0)]))
        .collect();
    let refs: Vec<RankOneTermRef<'_>> = terms
        .iter()
        .map(|(u, v)| (u.as_slice(), v.as_slice()))
        .collect();
    let t0 = Instant::now();
    let mut up = LowRankUpdate::new(dim);
    up.push_batch(&lu, &refs).expect("batch");
    println!(
        "push_batch k=8 (rank 0->8): {:.3}ms",
        t0.elapsed().as_secs_f64() * 1000.0
    );
    let t0 = Instant::now();
    up.push_batch(&lu, &refs).expect("batch");
    println!(
        "push_batch k=8 (rank 8->16): {:.3}ms",
        t0.elapsed().as_secs_f64() * 1000.0
    );
    for _ in 0..5 {
        up.push_batch(&lu, &refs).expect("batch");
    }
    let t0 = Instant::now();
    up.push_batch(&lu, &refs).expect("batch");
    println!(
        "push_batch k=8 (rank 56->64): {:.3}ms",
        t0.elapsed().as_secs_f64() * 1000.0
    );
}

fn main() {
    if std::env::var("PROBE_PUSH").is_ok() {
        let n: usize = std::env::args()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(1024);
        probe_push(n);
        return;
    }
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1024);
    let rounds: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let g = fig10_instance(n, false, 1);
    let mut cfg = if std::env::var("PROBE_IDEAL").is_ok() {
        SolveOptions::ideal()
    } else {
        let mut cfg = SolveOptions::evaluation_quasi_static(10e9);
        cfg.params.v_flow = 800.0;
        cfg
    };
    cfg.phase_timing = true;
    let solver = MaxFlowSolver::new(cfg);

    let t0 = Instant::now();
    let flow = solver.solve_fresh(&g).expect("cold solve");
    println!(
        "cold solve: {:.3}s value {}",
        t0.elapsed().as_secs_f64(),
        flow.value
    );

    let t0 = Instant::now();
    let mut session = solver.delta_session(&g).expect("delta session");
    println!("session open: {:.3}s", t0.elapsed().as_secs_f64());

    let t0 = Instant::now();
    let r = session.apply_deltas(&DeltaBatch::new()).expect("opening");
    let rep = session.report();
    println!(
        "empty apply: {:.3}s iters {} value {} [factor nnz {} blocks {} templated {}]",
        t0.elapsed().as_secs_f64(),
        r.state_iterations,
        r.value,
        rep.factor_nnz,
        rep.block_count,
        rep.templated,
    );

    let removable: Vec<(usize, i64)> = g
        .edges()
        .iter()
        .enumerate()
        .filter(|(_, e)| e.to != g.source() && e.from != g.sink())
        .map(|(k, e)| (k, e.capacity))
        .collect();
    let l = removable.len();

    let t0 = Instant::now();
    let r = session
        .apply_deltas(
            &DeltaBatch::new()
                .remove_edge(removable[l - 2].0)
                .remove_edge(removable[l - 1].0),
        )
        .expect("prime removals");
    println!(
        "prime removals: {:.3}s iters {} rank {}",
        t0.elapsed().as_secs_f64(),
        r.state_iterations,
        session.outstanding_rank()
    );

    for round in 0..rounds {
        let (r0, r1) = (removable[(2 * round) % l], removable[(2 * round + 1) % l]);
        let (p0, p1) = (
            removable[(2 * round + l - 2) % l],
            removable[(2 * round + l - 1) % l],
        );
        let mut b = DeltaBatch::new()
            .remove_edge(r0.0)
            .remove_edge(r1.0)
            .insert_edge(g.edges()[p0.0].from, g.edges()[p0.0].to, p0.1)
            .insert_edge(g.edges()[p1.0].from, g.edges()[p1.0].to, p1.1);
        for i in 0..4 {
            let (k, cap) = removable[(4 * round + i + 7) % l];
            b = b.set_capacity(k, 1 + (cap + round as i64) % 99);
        }
        let p0 = session.report().phases.unwrap_or_default();
        let s0 = session.stats();
        let t0 = Instant::now();
        let r = session.apply_deltas(&b).expect("mixed batch");
        let p1 = session.report().phases.unwrap_or_default();
        let s1 = session.stats();
        println!(
            "mixed round {round}: {:.3}s iters {} rank {} consolidated {} replanned {} \
             [stamp {:.0}ms refactor {:.0}ms solve {:.0}ms woodbury {:.0}ms] \
             [solves {} rank1 {} refac {} full {}]",
            t0.elapsed().as_secs_f64(),
            r.state_iterations,
            session.outstanding_rank(),
            r.consolidated,
            r.replanned,
            (p1.stamp_ns - p0.stamp_ns) as f64 / 1e6,
            (p1.refactor_ns - p0.refactor_ns) as f64 / 1e6,
            (p1.solve_ns - p0.solve_ns) as f64 / 1e6,
            (p1.woodbury_ns - p0.woodbury_ns) as f64 / 1e6,
            s1.solves - s0.solves,
            s1.rank1_updates - s0.rank1_updates,
            s1.refactorizations - s0.refactorizations,
            s1.full_factorizations - s0.full_factorizations,
        );
    }

    // Heal the walk: revive the final mixed round's two removals so the
    // capacity rounds never touch a dead id.
    let (d0, d1) = (
        removable[(2 * (rounds - 1)) % l],
        removable[(2 * (rounds - 1) + 1) % l],
    );
    session
        .apply_deltas(
            &DeltaBatch::new()
                .insert_edge(g.edges()[d0.0].from, g.edges()[d0.0].to, d0.1)
                .insert_edge(g.edges()[d1.0].from, g.edges()[d1.0].to, d1.1),
        )
        .expect("heal removals");

    for round in 0..rounds {
        let mut b = DeltaBatch::new();
        for i in 0..8 {
            let (k, cap) = removable[(8 * round + i) % l];
            b = b.set_capacity(k, 1 + (cap + round as i64) % 99);
        }
        let t0 = Instant::now();
        let r = session.apply_deltas(&b).expect("capacity batch");
        println!(
            "cap round {round}: {:.3}s iters {} rank {}",
            t0.elapsed().as_secs_f64(),
            r.state_iterations,
            session.outstanding_rank()
        );
    }
}
