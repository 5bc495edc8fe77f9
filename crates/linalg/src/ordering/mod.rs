//! Fill-reducing orderings and block-triangular permutations for sparse
//! factorization.
//!
//! Circuit MNA matrices are unsymmetric in values but nearly symmetric in
//! structure, so the fill-reducing orderings work on the symmetrized
//! pattern `A + Aᵀ` — the standard practice in SPICE-class solvers. The
//! subsystem has three layers:
//!
//! * [`classic`] — the original greedy minimum-degree ordering, kept as
//!   the *fill-count oracle* the AMD implementation is tested against
//!   (public only as [`verify::min_degree_ordering`](crate::verify::min_degree_ordering)).
//! * [`amd`] — a true approximate-minimum-degree ordering on a quotient
//!   graph: supervariables (hash-based indistinguishable-node detection),
//!   element absorption and approximate external degrees. This is the
//!   production ordering; on expander-shaped patterns (R-MAT substrates)
//!   it cuts fill dramatically versus the plain minimum degree, whose
//!   clique-merge degree updates both over-count and dominate runtime.
//! * [`btf`] — block-triangular form: a maximum transversal
//!   (augmenting-path matching) makes the diagonal structurally nonzero,
//!   Tarjan's SCC algorithm on the matched graph yields the diagonal
//!   blocks, and each block is then ordered independently by AMD
//!   ([`amd_btf_ordering`]). The factorization of a block-triangular
//!   permutation never fills below a diagonal block, so every block
//!   factors as if it were its own (much smaller) matrix. This is the
//!   only production ordering; the others reach the factorization only as
//!   single-block references through
//!   [`SparseLu::factor_ordered`](crate::SparseLu::factor_ordered).
//!
//! All three layers share one flat-CSR symmetrized adjacency
//! ([`AdjacencyCsr`]): offsets plus a single index buffer, built with two
//! counting passes and a stamp-array dedup — no per-row allocation, so
//! ordering construction stays a small fraction of factorization time.

mod amd;
mod btf;
mod classic;

pub use amd::amd_ordering;
pub use btf::{block_triangular_form, maximum_transversal, BtfStructure};
pub use classic::min_degree_ordering;

use crate::CscMatrix;

/// The symmetrized pattern `A + Aᵀ` (self-loops removed, duplicates
/// removed) in flat CSR form: `targets[offsets[v]..offsets[v + 1]]` are the
/// neighbors of vertex `v`, in first-occurrence order of the column walk.
///
/// One offsets array and one index buffer replace the historical
/// `Vec<Vec<usize>>`: the build allocates exactly three vectors regardless
/// of `n`, and every ordering (minimum degree, AMD) reads the same
/// structure.
#[derive(Debug, Clone)]
pub(crate) struct AdjacencyCsr {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl AdjacencyCsr {
    /// Builds the symmetrized adjacency of `a`.
    pub(crate) fn build(a: &CscMatrix) -> Self {
        let n = a.cols();
        // Pass 1: per-vertex counts with duplicates (upper bounds).
        let mut counts = vec![0usize; n];
        for c in 0..n {
            for (r, _) in a.col(c) {
                if r != c && r < n {
                    counts[c] += 1;
                    counts[r] += 1;
                }
            }
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + counts[v];
        }
        // Pass 2: scatter both directions of every off-diagonal entry.
        let mut cursor = offsets.clone();
        let mut targets = vec![0usize; offsets[n]];
        for c in 0..n {
            for (r, _) in a.col(c) {
                if r != c && r < n {
                    targets[cursor[c]] = r;
                    cursor[c] += 1;
                    targets[cursor[r]] = c;
                    cursor[r] += 1;
                }
            }
        }
        // Pass 3: dedup each row in place with a stamp array, compacting
        // left — the write cursor never passes the read cursor, so no
        // second buffer is needed. Offsets are rewritten as rows shrink.
        let mut stamp = vec![usize::MAX; n];
        let mut write = 0usize;
        let mut row_start = 0usize;
        for v in 0..n {
            let row_end = offsets[v + 1];
            offsets[v] = write;
            for read in row_start..row_end {
                let w = targets[read];
                if stamp[w] != v {
                    stamp[w] = v;
                    targets[write] = w;
                    write += 1;
                }
            }
            row_start = row_end;
        }
        offsets[n] = write;
        targets.truncate(write);
        AdjacencyCsr { offsets, targets }
    }

    /// Vertex count.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Neighbors of `v` (no self-loop, no duplicates).
    pub(crate) fn neighbors(&self, v: usize) -> &[usize] {
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Degree of `v`.
    pub(crate) fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Total stored directed edges (each undirected edge counts twice).
    pub(crate) fn edge_count(&self) -> usize {
        self.targets.len()
    }
}

/// A block-aware column ordering, the input of
/// [`SparseLu::factor_ordered`](crate::SparseLu::factor_ordered): in
/// production the composition of a block-triangular permutation with an
/// independent AMD ordering of every diagonal block
/// ([`amd_btf_ordering`]), in tests also a plain permutation wrapped as
/// one block ([`BlockOrdering::single_block`]).
#[derive(Debug, Clone)]
pub struct BlockOrdering {
    /// Column ordering: column `perm[k]` is eliminated at pivot step `k`.
    pub perm: Vec<usize>,
    /// Block boundaries in pivot-step space: block `t` owns steps
    /// `block_ptr[t]..block_ptr[t + 1]`. Always covers `0..n`.
    pub block_ptr: Vec<usize>,
    /// Structurally matched row of the column at each step — the preferred
    /// pivot: the maximum transversal guarantees it is nonzero in the
    /// block's submatrix, so threshold pivoting keeps a structural anchor
    /// even for zero-diagonal columns (branch-current equations).
    pub diag_rows: Vec<usize>,
}

impl BlockOrdering {
    /// The trivial single-block ordering wrapping a plain column
    /// permutation (diagonal rows preferred, as before).
    pub fn single_block(perm: Vec<usize>) -> Self {
        let n = perm.len();
        let block_ptr = if n == 0 { vec![0] } else { vec![0, n] };
        BlockOrdering {
            diag_rows: perm.clone(),
            perm,
            block_ptr,
        }
    }
}

/// Block-triangular form with per-block AMD.
///
/// A maximum transversal matches every column to a structurally nonzero
/// row; Tarjan's algorithm on the matched graph splits the matrix into
/// strongly connected diagonal blocks (numbered so the permuted matrix is
/// block *upper* triangular — entries below a diagonal block are
/// structurally zero); each block's submatrix is then ordered by AMD on
/// its own symmetrized pattern, independent of every other block.
///
/// Structurally singular matrices (no perfect matching) have no
/// block-triangular form; they fall back to a single block ordered by
/// plain AMD, and the factorization reports the singularity numerically
/// exactly as before.
pub fn amd_btf_ordering(a: &CscMatrix) -> BlockOrdering {
    let n = a.cols();
    if n == 0 {
        return BlockOrdering::single_block(Vec::new());
    }
    let Some(btf) = block_triangular_form(a) else {
        return BlockOrdering::single_block(amd_ordering(a));
    };
    let mut perm = Vec::with_capacity(n);
    let mut diag_rows = Vec::with_capacity(n);
    // Column -> block, for the per-block row restriction below.
    let mut block_of_col = vec![0usize; n];
    for t in 0..btf.block_count() {
        for &c in btf.block_cols(t) {
            block_of_col[c] = t;
        }
    }
    let col_ptr = a.col_ptr();
    let row_idx = a.row_idx();
    // One shared column→local-index scratch across blocks: entries are
    // (re)written for every column of the current block before any read,
    // and reads are gated on `block_of_col[rc] == t`, so stale values from
    // previous blocks are never observed — no per-block O(n) reset.
    let mut local_of = vec![usize::MAX; n];
    for t in 0..btf.block_count() {
        let cols = btf.block_cols(t);
        if cols.len() <= 2 {
            // AMD on a 1x1 or 2x2 block cannot improve anything.
            perm.extend_from_slice(cols);
        } else {
            // Local submatrix pattern A(R_t, C_t): rows are renamed to the
            // local index of their matched column. Values are irrelevant.
            for (lc, &c) in cols.iter().enumerate() {
                local_of[c] = lc;
            }
            let mut t_local = crate::TripletMatrix::new(cols.len(), cols.len());
            for (lc, &c) in cols.iter().enumerate() {
                for &r in &row_idx[col_ptr[c]..col_ptr[c + 1]] {
                    let rc = btf.col_of_row[r];
                    if block_of_col[rc] == t {
                        t_local.push(local_of[rc], lc, 1.0);
                    }
                }
            }
            let local_perm = amd_ordering(&t_local.to_csc());
            perm.extend(local_perm.iter().map(|&lc| cols[lc]));
        }
    }
    for &c in &perm {
        diag_rows.push(btf.row_of_col[c]);
    }
    BlockOrdering {
        perm,
        block_ptr: btf.block_ptr,
        diag_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn is_permutation(p: &[usize], n: usize) -> bool {
        let mut seen = vec![false; n];
        p.iter().all(|&i| {
            if i < n && !seen[i] {
                seen[i] = true;
                true
            } else {
                false
            }
        }) && p.len() == n
    }

    #[test]
    fn adjacency_csr_matches_naive_symmetrization() {
        let mut lcg = 0x9E3779B97F4A7C15u64;
        let mut next = |m: usize| {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((lcg >> 33) as usize) % m
        };
        for trial in 0..40 {
            let n = 1 + next(30);
            let mut t = TripletMatrix::new(n, n);
            for _ in 0..next(4 * n + 1) {
                t.push(next(n), next(n), 1.0);
            }
            let a = t.to_csc();
            let csr = AdjacencyCsr::build(&a);
            // Naive reference: sets of neighbors.
            let mut sets: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
            for c in 0..n {
                for (r, _) in a.col(c) {
                    if r != c {
                        sets[c].insert(r);
                        sets[r].insert(c);
                    }
                }
            }
            for (v, set) in sets.iter().enumerate() {
                let mut got: Vec<usize> = csr.neighbors(v).to_vec();
                got.sort_unstable();
                let want: Vec<usize> = set.iter().copied().collect();
                assert_eq!(got, want, "trial {trial}, vertex {v}");
                assert_eq!(csr.degree(v), want.len());
            }
            assert_eq!(csr.len(), n);
        }
    }

    #[test]
    fn adjacency_csr_dedup_keeps_first_occurrence_order() {
        // 0-1 stamped twice, 0-2 once: neighbor order of 0 must be [1, 2].
        let mut t = TripletMatrix::new(3, 3);
        t.push(1, 0, 1.0);
        t.push(2, 0, 1.0);
        t.push(1, 0, 1.0);
        t.push(0, 1, 1.0);
        let csr = AdjacencyCsr::build(&t.to_csc());
        assert_eq!(csr.neighbors(0), &[1, 2]);
        assert_eq!(csr.edge_count(), 4);
    }

    #[test]
    fn amd_btf_handles_empty_and_singleton() {
        let empty = TripletMatrix::new(0, 0).to_csc();
        let b = amd_btf_ordering(&empty);
        assert!(b.perm.is_empty());
        assert_eq!(b.block_ptr, vec![0]);

        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, 2.0);
        let b = amd_btf_ordering(&t.to_csc());
        assert_eq!(b.perm, vec![0]);
        assert_eq!(b.block_ptr, vec![0, 1]);
        assert_eq!(b.diag_rows, vec![0]);
    }

    #[test]
    fn amd_btf_on_diagonal_matrix_gives_unit_blocks() {
        let n = 7;
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        let b = amd_btf_ordering(&t.to_csc());
        assert!(is_permutation(&b.perm, n));
        assert_eq!(b.block_ptr.len(), n + 1);
        for (k, &c) in b.perm.iter().enumerate() {
            assert_eq!(b.diag_rows[k], c);
        }
    }

    #[test]
    fn amd_btf_structurally_singular_falls_back_to_single_block() {
        // Empty column 1: no perfect matching exists.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 2, 1.0);
        t.push(1, 0, 1.0);
        let b = amd_btf_ordering(&t.to_csc());
        assert!(is_permutation(&b.perm, 3));
        assert_eq!(b.block_ptr, vec![0, 3]);
        // Fallback prefers the diagonal, as the plain orderings do.
        assert_eq!(b.diag_rows, b.perm);
    }

    #[test]
    fn amd_btf_block_ptr_partitions_steps() {
        let mut t = TripletMatrix::new(6, 6);
        for i in 0..6 {
            t.push(i, i, 1.0);
        }
        // Two 3-cycles: blocks {0,1,2} and {3,4,5}, coupled one way.
        for (r, c) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)] {
            t.push(r, c, 1.0);
        }
        let b = amd_btf_ordering(&t.to_csc());
        assert!(is_permutation(&b.perm, 6));
        assert_eq!(*b.block_ptr.first().unwrap(), 0);
        assert_eq!(*b.block_ptr.last().unwrap(), 6);
        assert!(b.block_ptr.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(b.block_ptr.len() - 1, 2, "two SCCs expected");
    }
}
