//! Ordering-quality regression guard: AMD fill on the rmat1024 substrate
//! fixture must stay below a recorded ceiling, and must never fall behind
//! the plain min-degree oracle it replaced.
//!
//! This is the cheap CI tripwire for the PR4 ordering subsystem: a change
//! that silently degrades the quotient-graph degree approximation, the
//! supervariable merging or the BTF block decomposition shows up here as a
//! fill jump long before anyone reads `BENCH_PR4.json`.
//!
//! Two more tripwires ride along: the exact `AmdBtf` fill of the small
//! ideal-build substrates a cold request builds (grid, bipartite, layered
//! and R-MAT shapes), and an rmat128 numeric-replay check that the
//! KLU-style solve-time `A_off` layout really removed the ~15–20 %
//! off-diagonal-U closure tax multi-block refactorization used to pay
//! relative to a single-block AMD factor.

use ohmflow::builder;
use ohmflow::SolveOptions;
use ohmflow_bench::{bench_substrate, fig10_instance, full_replay_ns};
use ohmflow_circuit::DcSolver;
use ohmflow_graph::generators;
use ohmflow_linalg::verify::min_degree_ordering;
use ohmflow_linalg::{
    amd_btf_ordering, amd_ordering, BlockOrdering, LuWorkspace, SparseLu, SparseLuOptions,
};

/// A single-block reference factor of `m` under the column permutation
/// `perm` (diagonal pivots preferred).
fn single_block_factor(m: &ohmflow_linalg::CscMatrix, perm: Vec<usize>) -> SparseLu {
    SparseLu::factor_ordered(
        m,
        BlockOrdering::single_block(perm),
        &SparseLuOptions::default(),
    )
    .expect("single-block factor")
}

/// Recorded AMD fill on this fixture: 267,318 (plain AMD) / 212,458
/// (AMD+BTF, off-diagonal block entries held raw since PR 6 instead of
/// factored into U); min-degree produces 272,920 and natural order
/// 10,549,475. The ceiling leaves ~20 % headroom over the recorded AMD
/// value — enough for tie-break drift, far below a real quality
/// regression.
const AMD_FILL_CEILING: usize = 320_000;

#[test]
fn amd_fill_on_rmat1024_stays_below_recorded_ceiling() {
    let g = fig10_instance(1024, false, 1);
    let sc = bench_substrate(&g);
    // Default options are the production AMD+BTF path.
    let (m, lu_btf) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
    let amd = single_block_factor(&m, amd_ordering(&m));
    let min_degree = single_block_factor(&m, min_degree_ordering(&m));

    // The old min-degree is the fill oracle: AMD (and the block-composed
    // AMD) must not lose to it on the expander fixture it was built for.
    assert!(
        amd.factor_nnz() <= min_degree.factor_nnz(),
        "AMD fill {} exceeds min-degree fill {}",
        amd.factor_nnz(),
        min_degree.factor_nnz()
    );
    assert!(
        lu_btf.factor_nnz() <= min_degree.factor_nnz(),
        "AMD+BTF fill {} exceeds min-degree fill {}",
        lu_btf.factor_nnz(),
        min_degree.factor_nnz()
    );

    assert!(
        amd.factor_nnz() < AMD_FILL_CEILING,
        "AMD fill {} blew the recorded ceiling {AMD_FILL_CEILING}",
        amd.factor_nnz()
    );
    assert!(
        lu_btf.factor_nnz() < AMD_FILL_CEILING,
        "AMD+BTF fill {} blew the recorded ceiling {AMD_FILL_CEILING}",
        lu_btf.factor_nnz()
    );

    // The R-MAT substrate decomposes: the BTF stage must actually find
    // blocks (203 recorded), not degenerate to one.
    assert!(
        lu_btf.symbolic().block_count() > 1,
        "BTF found no decomposition: {} block(s)",
        lu_btf.symbolic().block_count()
    );
    assert!(lu_btf.symbolic().largest_block() < lu_btf.symbolic().dim());
}

/// Exact `AmdBtf` fill (`nnz(L+U+A_off)`) of the ideal-build substrates
/// of the cold-request shapes: a 16×16 grid, a 96×96 degree-3 bipartite
/// graph, an 8×8 layered graph and an rmat256 instance. AMD and the BTF
/// decomposition are deterministic, so any change to either moves these
/// counts; an intended change re-records them here.
#[test]
fn amd_btf_fill_on_cold_ingest_shapes_is_pinned() {
    const PINNED: [(&str, usize); 4] = [
        ("grid16", 20_721),
        ("bipartite96", 8_518),
        ("layered8", 9_356),
        ("rmat256", 28_608),
    ];
    let opts = SolveOptions::ideal();
    let graphs = [
        generators::grid(16, 16, 100, 1).expect("grid"),
        generators::bipartite(96, 96, 3, 1).expect("bipartite"),
        generators::layered(8, 8, 100, 1).expect("layered"),
        fig10_instance(256, false, 1),
    ];
    for ((name, pinned), g) in PINNED.into_iter().zip(graphs) {
        let sc = builder::build(&g, &opts.params, &opts.build).expect("ideal substrate");
        let (m, lu) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
        assert_eq!(
            lu.symbolic().col_order(),
            SparseLu::factor_ordered(&m, amd_btf_ordering(&m), &SparseLuOptions::default())
                .expect("amd+btf factor")
                .symbolic()
                .col_order(),
            "{name}: the production ordering is AmdBtf"
        );
        assert_eq!(
            lu.factor_nnz(),
            pinned,
            "{name}: AmdBtf fill moved from the pinned count"
        );
    }
}

/// PR 6 numeric-replay check: multi-block refactorization must no longer
/// pay the off-diagonal-U closure tax.
///
/// Before PR 6, factoring a column of a later BTF block dragged the
/// `L⁻¹·A_off` closure of every cross-block entry into U, so numeric
/// replay on the multi-block default ran ~15–20 % slower than a
/// single-block AMD factor of the same matrix. With off-diagonal entries
/// stored raw and applied at solve time, the multi-block replay does
/// strictly fewer floating-point operations than the single-block one
/// (same within-block work, no closure, smaller fill); it must therefore
/// land within noise of — not persistently above — the AMD replay. The
/// 1.15 band is pure timing-noise headroom: reintroducing the closure
/// puts the ratio back above it.
#[test]
fn multiblock_replay_on_rmat128_has_no_closure_tax() {
    let g = fig10_instance(128, false, 1);
    let sc = bench_substrate(&g);
    let (m, lu_blk) = DcSolver::new().stamp(sc.circuit()).expect("dc system");
    assert!(
        lu_blk.symbolic().block_count() > 1,
        "fixture must decompose for the replay comparison to mean anything"
    );
    assert!(
        lu_blk.symbolic().off_nnz() > 0,
        "fixture must have cross-block entries"
    );

    let lu_amd = single_block_factor(&m, amd_ordering(&m));
    assert_eq!(lu_amd.symbolic().block_count(), 1);

    // Both replays agree with each other on a real RHS before any timing:
    // the raw-off path must be a performance change, not a numerics one.
    let nrhs = m.cols();
    let b: Vec<f64> = (0..nrhs).map(|i| (i % 13) as f64 - 6.0).collect();
    let (mut work, mut x_blk, mut x_amd) = (Vec::new(), Vec::new(), Vec::new());
    lu_blk
        .solve_into(&b, &mut work, &mut x_blk)
        .expect("multi-block solve");
    lu_amd
        .solve_into(&b, &mut work, &mut x_amd)
        .expect("single-block solve");
    for (i, (a, c)) in x_blk.iter().zip(&x_amd).enumerate() {
        assert!(
            (a - c).abs() <= 1e-9 * (1.0 + a.abs().max(c.abs())),
            "solution mismatch at {i}: {a} vs {c}"
        );
    }

    let mut ws = LuWorkspace::new();
    let mut lu_blk = lu_blk;
    let mut lu_amd = lu_amd;
    let mut replay = |lu: &mut SparseLu| full_replay_ns(15, lu, &m, &mut ws);
    replay(&mut lu_blk); // warm caches + workspace before either timing
    replay(&mut lu_amd);
    let t_blk = replay(&mut lu_blk);
    let t_amd = replay(&mut lu_amd);
    assert!(
        t_blk <= t_amd * 1.15,
        "multi-block replay {t_blk:.0} ns vs single-block AMD {t_amd:.0} ns: \
         the off-diagonal closure tax is back"
    );
}
