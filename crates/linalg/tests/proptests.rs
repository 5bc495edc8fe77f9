//! Property-based tests for the linear-algebra kernels.

use proptest::prelude::*;

use ohmflow_linalg::verify::min_degree_ordering;
use ohmflow_linalg::{
    amd_ordering, BlockOrdering, CscMatrix, DenseMatrix, LowRankUpdate, RankOneTermRef, SparseLu,
    SparseLuOptions, SymbolicLu, TripletMatrix,
};

/// The identity (natural-order) single-block ordering of an `n × n` system.
fn identity(n: usize) -> BlockOrdering {
    BlockOrdering::single_block((0..n).collect())
}

/// A uniformly random permutation of `0..n` from `seed` (Fisher–Yates),
/// as a single-block ordering: the arbitrary-permutation reference.
fn shuffled(n: usize, seed: u64) -> BlockOrdering {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    BlockOrdering::single_block(perm)
}

/// Factors `a` under a single-block reference ordering with default
/// options.
fn factor_ordered(a: &CscMatrix, ordering: BlockOrdering) -> SparseLu {
    SparseLu::factor_ordered(a, ordering, &SparseLuOptions::default()).unwrap()
}

/// A random diagonally-dominant sparse system (always solvable).
fn arb_system(max_n: usize) -> impl Strategy<Value = (TripletMatrix, Vec<f64>)> {
    (2..max_n, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            let mut row_sum = 0.0;
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    t.push(i, j, v);
                    row_sum += v.abs();
                }
            }
            // Indefinite but dominant diagonal (negative-resistor style).
            let sign = if rng.gen_bool(0.25) { -1.0 } else { 1.0 };
            t.push(i, i, sign * (row_sum + rng.gen_range(1.0..3.0)));
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        (t, b)
    })
}

fn dense_reference(t: &TripletMatrix, b: &[f64]) -> Vec<f64> {
    let csr = t.to_csr();
    let mut d = DenseMatrix::zeros(csr.rows(), csr.cols());
    for r in 0..csr.rows() {
        for (c, v) in csr.row(r) {
            d[(r, c)] += v;
        }
    }
    d.solve(b).expect("reference solve")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_lu_matches_dense_reference((t, b) in arb_system(24)) {
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        let x = lu.solve(&b).unwrap();
        let xref = dense_reference(&t, &b);
        for (a, r) in x.iter().zip(&xref) {
            prop_assert!((a - r).abs() < 1e-7, "{a} vs {r}");
        }
    }

    #[test]
    fn every_ordering_solves_the_same_system(
        (t, b) in arb_system(16),
        perm_seed in any::<u64>(),
    ) {
        let csc = t.to_csc();
        let n = csc.cols();
        let xref = dense_reference(&t, &b);
        for (name, ordering) in [
            ("identity", identity(n)),
            ("min-degree", BlockOrdering::single_block(min_degree_ordering(&csc))),
            ("shuffled", shuffled(n, perm_seed)),
        ] {
            let x = factor_ordered(&csc, ordering).solve(&b).unwrap();
            for (a, r) in x.iter().zip(&xref) {
                prop_assert!((a - r).abs() < 1e-7, "{name}: {a} vs {r}");
            }
        }
    }

    #[test]
    fn orderings_are_permutations((t, _b) in arb_system(24)) {
        let csc = t.to_csc();
        let perm = min_degree_ordering(&csc);
        let n = csc.cols();
        let mut seen = vec![false; n];
        prop_assert_eq!(perm.len(), n);
        for &p in &perm {
            prop_assert!(p < n && !seen[p]);
            seen[p] = true;
        }
    }

    #[test]
    fn csr_csc_matvec_agree((t, b) in arb_system(24)) {
        let y1 = t.to_csr().mul_vec(&b);
        let y2 = t.to_csc().mul_vec(&b);
        for (a, c) in y1.iter().zip(&y2) {
            prop_assert!((a - c).abs() < 1e-12);
        }
    }

    /// Rank-1 Woodbury updates must agree with a from-scratch
    /// factorization of the updated matrix to 1e-9 — including on the
    /// indefinite systems (negative diagonal entries) the substrate's
    /// negative resistors produce. This is the correctness contract the
    /// incremental frozen-DC engine relies on for clamp-diode toggles.
    #[test]
    fn rank1_update_matches_full_refactorization(
        (t, b) in arb_system(24),
        pick in any::<u64>(),
        dg in 0.5..50.0f64,
    ) {
        let n = b.len();
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();

        // A conductance-style symmetric rank-1 change between two unknowns
        // (or one unknown and "ground"), like a clamp diode toggling.
        let a = (pick % n as u64) as usize;
        let bnode = ((pick >> 32) % n as u64) as usize;
        let d: Vec<(usize, f64)> = if a == bnode {
            vec![(a, 1.0)]
        } else {
            vec![(a, 1.0), (bnode, -1.0)]
        };
        let u: Vec<(usize, f64)> = d.iter().map(|&(i, s)| (i, dg * s)).collect();

        let mut up = LowRankUpdate::new(n);
        up.push(&base, &u, &d).unwrap();

        // Reference: stamp the same change into the matrix and refactor.
        let mut t2 = t;
        for &(i, si) in &d {
            for &(j, sj) in &d {
                t2.push(i, j, dg * si * sj);
            }
        }
        let refactored = SparseLu::factor(&t2.to_csc()).unwrap();

        let x_up = up.solve(&base, &b).unwrap();
        let x_ref = refactored.solve(&b).unwrap();
        for (xu, xr) in x_up.iter().zip(&x_ref) {
            prop_assert!((xu - xr).abs() < 1e-9, "update {xu} vs refactor {xr}");
        }
    }

    /// Numeric-only refactorization (same pattern, new values) must agree
    /// with a fresh pivoting factorization on solvable systems.
    #[test]
    fn numeric_refactor_matches_fresh_factor((t, b) in arb_system(20), scale in 0.5..2.0f64) {
        let csc = t.to_csc();
        let mut lu = SparseLu::factor(&csc).unwrap();
        // Same pattern, uniformly scaled values (stays diagonally dominant).
        let mut t2 = TripletMatrix::new(csc.rows(), csc.cols());
        for c in 0..csc.cols() {
            for (r, v) in csc.col(c) {
                t2.push(r, c, v * scale);
            }
        }
        let csc2 = t2.to_csc();
        lu.refactor(&csc2).unwrap();
        let x = lu.solve(&b).unwrap();
        let x_ref = SparseLu::factor(&csc2).unwrap().solve(&b).unwrap();
        for (a, r) in x.iter().zip(&x_ref) {
            prop_assert!((a - r).abs() < 1e-9, "{a} vs {r}");
        }
    }
}

/// A same-pattern second value assignment for `csc`: the diagonal is
/// inflated and off-diagonals get a position-dependent rescale in
/// `[0.5, 1.5)`, so diagonal dominance (hence solvability and pivot
/// stability) is preserved while every entry actually changes.
fn same_pattern_variant(csc: &ohmflow_linalg::CscMatrix) -> ohmflow_linalg::CscMatrix {
    let mut t2 = TripletMatrix::new(csc.rows(), csc.cols());
    for c in 0..csc.cols() {
        for (r, v) in csc.col(c) {
            let f = if r == c {
                1.7
            } else {
                0.5 + ((r * 31 + c * 17) % 100) as f64 / 100.0
            };
            t2.push(r, c, v * f);
        }
    }
    t2.to_csc()
}

/// An arbitrary sparse *pattern* (square, possibly disconnected, possibly
/// structurally singular — empty rows/columns included): ordering
/// construction must produce a valid permutation on anything.
fn arb_pattern(max_n: usize) -> impl Strategy<Value = TripletMatrix> {
    (1..max_n, any::<u64>(), 0..4usize).prop_map(|(n, seed, shape)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(n, n);
        match shape {
            // Fully random, no diagonal guarantee (often singular).
            0 => {
                for _ in 0..rng.gen_range(0..3 * n + 1) {
                    t.push(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
                }
            }
            // Disconnected islands: pairs plus isolated vertices.
            1 => {
                for i in (0..n.saturating_sub(1)).step_by(3) {
                    t.push(i, i, 1.0);
                    t.push(i + 1, i + 1, 1.0);
                    t.push(i, i + 1, 1.0);
                    t.push(i + 1, i, 1.0);
                }
            }
            // Diagonal-free permutation-ish pattern.
            2 => {
                for i in 0..n {
                    t.push((i + 1) % n, i, 1.0);
                }
            }
            // Diagonal plus random coupling (the well-posed case).
            _ => {
                for i in 0..n {
                    t.push(i, i, 1.0);
                }
                for _ in 0..rng.gen_range(0..2 * n + 1) {
                    t.push(rng.gen_range(0..n), rng.gen_range(0..n), 1.0);
                }
            }
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// AMD and AMD+BTF must produce valid permutations on arbitrary patterns — random,
    /// disconnected, structurally singular — and the BTF block pointers
    /// must partition the steps.
    #[test]
    fn amd_and_btf_orderings_are_valid_permutations(t in arb_pattern(40)) {
        use ohmflow_linalg::{amd_btf_ordering, amd_ordering};
        let csc = t.to_csc();
        let n = csc.cols();

        let is_perm = |perm: &[usize]| {
            let mut seen = vec![false; n];
            perm.len() == n
                && perm.iter().all(|&p| {
                    let fresh = p < n && !seen[p];
                    if fresh {
                        seen[p] = true;
                    }
                    fresh
                })
        };
        let amd = amd_ordering(&csc);
        prop_assert!(is_perm(&amd), "AMD not a permutation: {:?}", amd);

        let block = amd_btf_ordering(&csc);
        prop_assert!(is_perm(&block.perm), "block ordering not a permutation: {:?}", block.perm);
        prop_assert_eq!(block.diag_rows.len(), n);
        prop_assert_eq!(*block.block_ptr.first().unwrap(), 0);
        prop_assert_eq!(*block.block_ptr.last().unwrap(), n);
        prop_assert!(block.block_ptr.windows(2).all(|w| w[0] < w[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Factors under every reference ordering and the production AMD+BTF
    /// must agree with the natural-order factorization to 1e-12: the
    /// permutation changes the elimination sequence, never the solution.
    #[test]
    fn all_orderings_agree_with_natural_to_1e12(
        (t, b) in arb_system(24),
        perm_seed in any::<u64>(),
    ) {
        let csc = t.to_csc();
        let n = csc.cols();
        let natural = factor_ordered(&csc, identity(n)).solve(&b).unwrap();
        for (name, lu) in [
            ("min-degree", factor_ordered(&csc, BlockOrdering::single_block(min_degree_ordering(&csc)))),
            ("shuffled", factor_ordered(&csc, shuffled(n, perm_seed))),
            ("amd", factor_ordered(&csc, BlockOrdering::single_block(amd_ordering(&csc)))),
            ("amd-btf", SparseLu::factor(&csc).unwrap()),
        ] {
            let x = lu.solve(&b).unwrap();
            for (a, r) in x.iter().zip(&natural) {
                prop_assert!(
                    (a - r).abs() < 1e-12 * r.abs().max(1.0),
                    "{}: {} vs natural {}", name, a, r
                );
            }
        }
    }

    /// Under the block ordering each diagonal block factors
    /// independently: **neither** `L` nor `U` may cross its diagonal
    /// block, and every raw cross-block (`A_off`) entry must target a row
    /// pivoted in a strictly earlier block. Refactoring with new
    /// same-pattern values preserves it.
    #[test]
    fn btf_factor_never_crosses_block_boundaries((t, _b) in arb_system(28)) {
        let csc = t.to_csc();
        let mut lu = SparseLu::factor(&csc).unwrap();
        lu.refactor(&same_pattern_variant(&csc)).unwrap();
        let sym = lu.symbolic();
        let n = sym.dim();

        // Step -> block index.
        let mut block_of = vec![0usize; n];
        for t_blk in 0..sym.block_count() {
            for s in sym.block_range(t_blk) {
                block_of[s] = t_blk;
            }
        }
        for k in 0..n {
            for &row in sym.l_column_rows(k) {
                let step = sym.pivot_step_of_row(row);
                prop_assert_eq!(
                    block_of[step], block_of[k],
                    "L entry of step {} (row {}, step {}) crosses blocks", k, row, step
                );
            }
            for s in sym.u_column_steps(k) {
                prop_assert_eq!(
                    block_of[s], block_of[k],
                    "U entry of step {} escapes to block {}", k, block_of[s]
                );
            }
            for &row in sym.off_column_rows(k) {
                let step = sym.pivot_step_of_row(row);
                prop_assert!(
                    block_of[step] < block_of[k],
                    "off entry of step {} (row {}) not in an earlier block", k, row
                );
            }
        }
    }
}

/// A random system whose trailing `tail` columns are fully dense: the
/// dense tail plants exactly-nested L-column patterns, so every case runs
/// a multi-step dense core (a purely random sparse pattern often has only
/// single-step cores).
fn arb_dense_tail_system() -> impl Strategy<Value = (TripletMatrix, Vec<f64>)> {
    (10..36usize, 4..9usize, any::<u64>()).prop_map(|(n, tail, seed)| {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let tail = tail.min(n - 2);
        let mut t = TripletMatrix::new(n, n);
        let mut row_sum = vec![0.0f64; n];
        // Sparse diagonally-dominant front.
        for (i, rs) in row_sum.iter_mut().enumerate() {
            for _ in 0..3 {
                let j = rng.gen_range(0..n);
                if j != i {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    t.push(i, j, v);
                    *rs += v.abs();
                }
            }
        }
        // Fully dense trailing block (rows and columns `n - tail ..`).
        for (i, rs) in row_sum.iter_mut().enumerate().skip(n - tail) {
            for j in n - tail..n {
                if i != j {
                    let v: f64 = rng.gen_range(-1.0..1.0);
                    t.push(i, j, v);
                    *rs += v.abs();
                }
            }
        }
        for (i, rs) in row_sum.iter().enumerate() {
            t.push(i, i, rs + rng.gen_range(1.0..3.0));
        }
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect();
        (t, b)
    })
}

/// `a` with every column whose bit is set in `mask` (column `c` reads bit
/// `c % 64`) perturbed: off-diagonal entries shrink by `shrink` in
/// `[0.5, 1)` and the diagonal grows by a quarter, which keeps the
/// generators' diagonal dominance (hence the frozen pivots) intact.
fn perturb_columns(a: &CscMatrix, mask: u64, shrink: f64) -> CscMatrix {
    let mut out = a.clone();
    let (cp, ri, vals) = out.pattern_values_mut();
    for c in 0..cp.len() - 1 {
        if mask >> (c % 64) & 1 == 1 {
            for i in cp[c]..cp[c + 1] {
                vals[i] *= if ri[i] == c { 1.25 } else { shrink };
            }
        }
    }
    out
}

/// Every bit of a factor's values. `SparseLu`'s `Debug` prints the `L`,
/// `U`, off-diagonal and dense core arrays with shortest round-trip floats, so
/// two factors over one symbolic plan print alike exactly when their
/// values are bitwise equal.
fn factor_bits(lu: &SparseLu) -> String {
    format!("{lu:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A replay after a replay rewrites only the dirty closure of the
    /// columns that changed. It must equal a full replay of a fresh clone
    /// bit for bit: `L`, `U`, off-diagonal values, dense cores and solves.
    #[test]
    fn dirty_replay_matches_full_replay_bitwise(
        (t, b) in arb_dense_tail_system(),
        mask in any::<u64>(),
        shrink in 0.5..1.0f64,
    ) {
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();
        let a1 = same_pattern_variant(&csc);
        let a2 = perturb_columns(&a1, mask, shrink);
        let mut dirty = base.clone();
        dirty.refactor(&a1).unwrap();
        dirty.refactor(&a2).unwrap();
        let mut fresh = base.clone();
        fresh.refactor(&a2).unwrap();
        prop_assert_eq!(factor_bits(&dirty), factor_bits(&fresh));
        let bits = |x: Vec<f64>| x.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(bits(dirty.solve(&b).unwrap()), bits(fresh.solve(&b).unwrap()));
    }

    /// A pivoting factorization records its input, so the first replay
    /// after `factor_with` rewrites only the dirty closure of the columns
    /// that differ from that input: none for the very matrix just
    /// factored. Either way it must equal a full replay of zeroed values
    /// bit for bit.
    #[test]
    fn first_replay_after_factor_is_a_dirty_closure(
        (t, _b) in arb_dense_tail_system(),
        mask in any::<u64>(),
        shrink in 0.5..1.0f64,
    ) {
        let csc = t.to_csc();
        let lu = SparseLu::factor(&csc).unwrap();
        for a in [csc.clone(), perturb_columns(&csc, mask, shrink)] {
            let mut dirty = lu.clone();
            dirty.refactor(&a).unwrap();
            let fresh = SymbolicLu::numeric(lu.symbolic(), &a).unwrap();
            prop_assert_eq!(factor_bits(&dirty), factor_bits(&fresh));
        }
    }
}

/// Lane-interleaves `k` dense right-hand sides: `out[row * k + lane]`.
fn interleave(columns: &[Vec<f64>]) -> Vec<f64> {
    let (n, k) = (columns[0].len(), columns.len());
    let mut out = vec![0.0; n * k];
    for (lane, col) in columns.iter().enumerate() {
        for (r, &v) in col.iter().enumerate() {
            out[r * k + lane] = v;
        }
    }
    out
}

/// Asserts `solve_multi_into` against `k` single-RHS solves at 1e-12 —
/// the scalar path is the oracle for every lane count.
fn assert_multi_matches_single(lu: &SparseLu, columns: &[Vec<f64>]) {
    let (n, k) = (columns[0].len(), columns.len());
    let rhs = interleave(columns);
    let (mut work, mut out) = (Vec::new(), Vec::new());
    lu.solve_multi_into(&rhs, k, &mut work, &mut out).unwrap();
    for (lane, col) in columns.iter().enumerate() {
        let x = lu.solve(col).unwrap();
        for r in 0..n {
            let (a, e) = (out[r * k + lane], x[r]);
            assert!(
                (a - e).abs() < 1e-12 * e.abs().max(1.0),
                "lane {lane} row {r}: {a} vs {e}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Multi-RHS solves must reproduce the single-RHS scalar path to
    /// 1e-12 for every lane count 1..=8 — this is the oracle contract
    /// the rank-k batched Woodbury push builds on.
    #[test]
    fn multi_rhs_solve_matches_single_rhs(
        (t, b) in arb_system(24),
        seed in any::<u64>(),
        k in 1usize..9,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = b.len();
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cols = vec![b];
        // Later lanes include a sparse one (mostly zeros), the Woodbury
        // push's actual lane shape.
        for lane in 1..k {
            cols.push(
                (0..n)
                    .map(|_| {
                        if lane % 2 == 1 && rng.gen_bool(0.8) {
                            0.0
                        } else {
                            rng.gen_range(-4.0..4.0)
                        }
                    })
                    .collect(),
            );
        }
        let rhs = interleave(&cols);
        let (mut work, mut out) = (Vec::new(), Vec::new());
        lu.solve_multi_into(&rhs, k, &mut work, &mut out).unwrap();
        for (lane, col) in cols.iter().enumerate() {
            let x = lu.solve(col).unwrap();
            for r in 0..n {
                let (a, e) = (out[r * k + lane], x[r]);
                prop_assert!(
                    (a - e).abs() < 1e-12 * e.abs().max(1.0),
                    "lane {} row {}: {} vs {}", lane, r, a, e
                );
            }
        }
    }

    /// A rank-k batch push must accumulate exactly the same update as the
    /// same terms pushed one at a time.
    #[test]
    fn push_batch_matches_sequential_pushes(
        (t, b) in arb_system(24),
        seed in any::<u64>(),
        k in 2usize..11,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let n = b.len();
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        #[allow(clippy::type_complexity)]
        let mut terms: Vec<(Vec<(usize, f64)>, Vec<(usize, f64)>)> = Vec::new();
        for _ in 0..k {
            let a = rng.gen_range(0..n);
            let bn = rng.gen_range(0..n);
            let dg: f64 = rng.gen_range(0.1..2.0);
            let d: Vec<(usize, f64)> = if a == bn {
                vec![(a, 1.0)]
            } else {
                vec![(a, 1.0), (bn, -1.0)]
            };
            let u: Vec<(usize, f64)> = d.iter().map(|&(i, s)| (i, dg * s)).collect();
            terms.push((u, d));
        }

        let mut seq = LowRankUpdate::new(n);
        for (u, v) in &terms {
            seq.push(&base, u, v).unwrap();
        }
        let mut bat = LowRankUpdate::new(n);
        let refs: Vec<RankOneTermRef<'_>> =
            terms.iter().map(|(u, v)| (u.as_slice(), v.as_slice())).collect();
        bat.push_batch(&base, &refs).unwrap();
        prop_assert_eq!(bat.rank(), seq.rank());

        let x_seq = seq.solve(&base, &b).unwrap();
        let x_bat = bat.solve(&base, &b).unwrap();
        for (a, r) in x_bat.iter().zip(&x_seq) {
            prop_assert!((a - r).abs() < 1e-12 * r.abs().max(1.0), "{} vs {}", a, r);
        }
    }
}

/// Pushes a diagonally-dominant dense-tail block into `t` at row/column
/// offset `off`: a sparse front and a dense core per composed block.
fn push_dense_tail_block(t: &mut TripletMatrix, off: usize, n: usize, tail: usize, seed: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut row_sum = vec![0.0f64; n];
    for (i, rs) in row_sum.iter_mut().enumerate() {
        for _ in 0..3 {
            let j = rng.gen_range(0..n);
            if j != i {
                let v: f64 = rng.gen_range(-1.0..1.0);
                t.push(off + i, off + j, v);
                *rs += v.abs();
            }
        }
    }
    for (i, rs) in row_sum.iter_mut().enumerate().skip(n - tail) {
        for j in n - tail..n {
            if i != j {
                let v: f64 = rng.gen_range(-1.0..1.0);
                t.push(off + i, off + j, v);
                *rs += v.abs();
            }
        }
    }
    for (i, rs) in row_sum.iter().enumerate() {
        t.push(off + i, off + i, rs + rng.gen_range(1.0..3.0));
    }
}

/// Multi-RHS solves across a multi-block (BTF) factorization: two
/// decoupled dense-tail systems with one-way coupling split into
/// separate blocks, exercising the per-lane cross-block `A_off` apply.
#[test]
fn multi_rhs_multiblock_btf_matches_single() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let half = 300;
    let n = 2 * half;
    let mut t = TripletMatrix::new(n, n);
    push_dense_tail_block(&mut t, 0, half, 32, 11);
    push_dense_tail_block(&mut t, half, half, 32, 12);
    // One-way coupling (block 0 reads block 1) keeps the BTF split.
    let mut rng = StdRng::seed_from_u64(13);
    for _ in 0..24 {
        let r = rng.gen_range(0..half);
        let c = half + rng.gen_range(0..half);
        t.push(r, c, rng.gen_range(-0.5..0.5));
    }
    let lu = SparseLu::factor(&t.to_csc()).unwrap();
    assert!(
        lu.symbolic().block_count() > 1,
        "coupling must stay one-way"
    );
    let cols: Vec<Vec<f64>> = (0..8)
        .map(|lane| {
            (0..n)
                .map(|r| ((r * (lane + 3)) as f64 * 0.37).sin())
                .collect()
        })
        .collect();
    assert_multi_matches_single(&lu, &cols);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `to_csc` sums duplicates in push order, bit for bit: in-place
    /// restampers that replay the pushes onto the compressed pattern rely
    /// on it. Few distinct positions and many pushes put long runs of
    /// duplicates in each column, past any small-slice sorting shortcut.
    #[test]
    fn to_csc_sums_duplicates_in_push_order(
        n in 1usize..6,
        pushes in proptest::collection::vec((0usize..6, 0usize..6, -1e3..1e3f64), 1..200),
    ) {
        let mut t = TripletMatrix::new(n, n);
        // Column-major running sums, accumulated in push order.
        let mut expected: Vec<Vec<Option<f64>>> = vec![vec![None; n]; n];
        for &(r, c, v) in &pushes {
            let (r, c) = (r % n, c % n);
            t.push(r, c, v);
            let e = &mut expected[c][r];
            *e = Some(e.map_or(v, |s| s + v));
        }
        let csc = t.to_csc();
        for (c, col) in expected.iter().enumerate() {
            let stored: Vec<(usize, f64)> = csc.col(c).collect();
            let want: Vec<(usize, f64)> = col
                .iter()
                .enumerate()
                .filter_map(|(r, e)| e.map(|v| (r, v)))
                .collect();
            prop_assert_eq!(stored.len(), want.len());
            for ((ri, vi), (rj, vj)) in stored.into_iter().zip(want) {
                prop_assert_eq!(ri, rj);
                prop_assert_eq!(vi.to_bits(), vj.to_bits(), "column {} row {}", c, ri);
            }
        }
    }
}
