//! Structural invariant auditor for the factorization stack.
//!
//! Nine PRs of ordering, dense-core and low-rank machinery have stacked up
//! implicit structural invariants — block confinement of `L`/`U`,
//! cross-block entries, the dense trailing cores — that, until this
//! module, were only enforced indirectly by end-to-end proptests. KLU-style
//! sparse-LU practice treats factor-structure validation as a first-class
//! debugging tool: ordering and refactorization bugs corrupt *silently*
//! and surface as slow convergence or subtly wrong flows, not crashes.
//!
//! Every audit returns a structured [`AuditError`] naming the violated
//! invariant, the structure it belongs to and where in the structure it
//! was observed. Audits run in three modes:
//!
//! 1. **Auto-audit** under `debug_assertions` at the construction /
//!    refactor / push seams (`SparseLu::factor_ordered`, `SparseLu::refactor*`,
//!    `LowRankUpdate::push*`) — compiled out of release builds entirely.
//! 2. **Public API**: [`SymbolicLu::audit`](crate::SymbolicLu::audit),
//!    [`SparseLu::audit`](crate::SparseLu::audit) and
//!    [`LowRankUpdate::audit`](crate::LowRankUpdate::audit) for callers
//!    (e.g. the serving tier) that want an explicit check.
//! 3. The `ohmflow-audit` CLI binary, which builds plans for the bench
//!    substrates and audits every structure end-to-end.
//!
//! The mutation-kill tests at the bottom of this module seed deliberate
//! corruptions — swapped permutation entries, an `L` row moved across a
//! block boundary, a cross-block entry inside its own block, a core that
//! leaves its block — and assert each is caught under the *right*
//! invariant name. An auditor that passes corrupt structures is worse than
//! none.
//!
//! [`min_degree_ordering`], the exact-degree fill oracle the tests hold
//! AMD against, lives here too: no production factorization uses it.

use std::error::Error;
use std::fmt;

use crate::lowrank::LowRankUpdate;
use crate::sparse_lu::SymbolicLu;

pub use crate::ordering::min_degree_ordering;

/// A violated structural invariant: which structure, which named
/// invariant, and where inside the structure it was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// The audited structure (`"SymbolicLu"`, `"LowRankUpdate"`,
    /// `"SparseLu"`, `"PlanCache"`, `"DeltaMetadata"`).
    pub structure: &'static str,
    /// Stable name of the violated invariant (e.g.
    /// `"l-block-confinement"`); the mutation-kill suite pins these.
    pub invariant: &'static str,
    /// Human-readable location of the violation (step / index / shard).
    pub location: String,
}

impl AuditError {
    /// Constructs an audit failure (exposed so sibling crates can report
    /// their own structures through the same type).
    pub fn new(structure: &'static str, invariant: &'static str, location: String) -> Self {
        AuditError {
            structure,
            invariant,
            location,
        }
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit failed: {} invariant `{}` violated at {}",
            self.structure, self.invariant, self.location
        )
    }
}

impl Error for AuditError {}

/// Runs `$e` (an expression returning `Result<(), AuditError>`) in debug
/// builds and panics with the structured error on violation; compiled to
/// nothing in release builds. The seam hook of auto-audit mode.
macro_rules! debug_auto_audit {
    ($e:expr) => {
        if cfg!(debug_assertions) {
            if let Err(err) = $e {
                panic!("{err}");
            }
        }
    };
}
pub(crate) use debug_auto_audit;

fn fail(structure: &'static str, invariant: &'static str, location: String) -> AuditError {
    AuditError::new(structure, invariant, location)
}

/// `true` iff `xs` is a permutation of `0..n` (uses a scratch seen-vector).
fn is_permutation(xs: &[usize], n: usize) -> Result<(), usize> {
    if xs.len() != n {
        return Err(xs.len().min(n));
    }
    let mut seen = vec![false; n];
    for (i, &x) in xs.iter().enumerate() {
        if x >= n || seen[x] {
            return Err(i);
        }
        seen[x] = true;
    }
    Ok(())
}

/// `ptr` must start at 0, be monotone non-decreasing, and end at `len`.
fn check_csr_ptr(
    structure: &'static str,
    ptr: &[usize],
    len: usize,
    name: &str,
) -> Result<(), AuditError> {
    if ptr.first() != Some(&0) || ptr.last() != Some(&len) {
        return Err(fail(
            structure,
            "csr-monotone",
            format!(
                "{name}: bounds {:?}..{:?} vs len {len}",
                ptr.first(),
                ptr.last()
            ),
        ));
    }
    for w in ptr.windows(2) {
        if w[0] > w[1] {
            return Err(fail(
                structure,
                "csr-monotone",
                format!("{name}: decreasing offsets {} > {}", w[0], w[1]),
            ));
        }
    }
    Ok(())
}

impl SymbolicLu {
    /// Audits every structural invariant of the elimination plan: the
    /// permutations, the CSR layout, BTF block confinement of `L`/`U`,
    /// cross-block entries reaching only earlier blocks, and the dense
    /// trailing cores: each a suffix of its block, with no sparse `L` of
    /// its own (its `L` spans all later core rows), `c²` dense values, and
    /// in-core `U` columns that start at or above their diagonal.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured [`AuditError`].
    pub fn audit(&self) -> Result<(), AuditError> {
        const S: &str = "SymbolicLu";
        let n = self.n;

        // Permutation bijectivity — column order, pivot rows, and the
        // stored inverse must agree.
        if let Err(i) = is_permutation(&self.q, n) {
            return Err(fail(S, "col-perm-bijective", format!("q[{i}]")));
        }
        if let Err(i) = is_permutation(&self.row_perm, n) {
            return Err(fail(S, "row-perm-bijective", format!("row_perm[{i}]")));
        }
        for (k, &r) in self.row_perm.iter().enumerate() {
            if self.pinv.get(r) != Some(&k) {
                return Err(fail(S, "pinv-inverse", format!("step {k} row {r}")));
            }
        }

        // Block pointers: a strictly increasing partition of step space.
        if self.block_ptr.first() != Some(&0)
            || self.block_ptr.last() != Some(&n)
            || self.block_ptr.windows(2).any(|w| w[0] >= w[1]) && n > 0
        {
            return Err(fail(
                S,
                "block-ptr-monotone",
                format!("block_ptr {:?}", &self.block_ptr),
            ));
        }

        // CSR offset arrays.
        check_csr_ptr(S, &self.l_ptr, self.l_rows.len(), "l_ptr")?;
        check_csr_ptr(S, &self.u_ptr, self.u_rows.len(), "u_ptr")?;
        check_csr_ptr(S, &self.off_ptr, self.off_rows.len(), "off_ptr")?;
        if self.l_ptr.len() != n + 1 || self.u_ptr.len() != n + 1 || self.off_ptr.len() != n + 1 {
            return Err(fail(S, "csr-monotone", "ptr length != n + 1".to_owned()));
        }

        // Dense cores: one per block, each a suffix of its block owning
        // `c²` dense values.
        let cores = &self.cores;
        let blocks = self.block_ptr.len() - 1;
        if cores.start.len() != blocks || cores.val_ptr.len() != blocks + 1 || cores.head.len() != n
        {
            return Err(fail(
                S,
                "core-suffix",
                "core arrays vs block count".to_owned(),
            ));
        }
        for t in 0..blocks {
            let (lo, hi, c0) = (self.block_ptr[t], self.block_ptr[t + 1], cores.start[t]);
            if c0 < lo || c0 > hi {
                return Err(fail(
                    S,
                    "core-suffix",
                    format!("block {t}: core starts at {c0}, outside {lo}..{hi}"),
                ));
            }
            let c = hi - c0;
            if cores.val_ptr[t] + c * c != cores.val_ptr[t + 1] {
                return Err(fail(
                    S,
                    "core-dense-size",
                    format!(
                        "block {t}: {c}-step core spans values {}..{}",
                        cores.val_ptr[t],
                        cores.val_ptr[t + 1]
                    ),
                ));
            }
        }

        let mut block_idx = 0usize;
        for k in 0..n {
            while k >= self.block_ptr[block_idx + 1] {
                block_idx += 1;
            }
            let (blk_lo, blk_hi) = (self.block_ptr[block_idx], self.block_ptr[block_idx + 1]);
            let c0 = cores.start[block_idx];

            // U column: stored steps strictly ascending, all inside this
            // block and strictly before k. A sparse step stores its pivot
            // last; a core step stores only its pre-core entries, and its
            // in-core column starts at or above its diagonal.
            let (ulo, mut uhi) = (self.u_ptr[k], self.u_ptr[k + 1]);
            let mut hi_step = k;
            if k < c0 {
                if uhi <= ulo || self.u_rows[uhi - 1] != k {
                    return Err(fail(S, "u-column-sorted", format!("step {k}: pivot slot")));
                }
                uhi -= 1;
            } else {
                hi_step = c0;
                if cores.head[k] as usize > k - c0 {
                    return Err(fail(
                        S,
                        "core-u-head",
                        format!(
                            "step {k}: in-core U starts at core position {}",
                            cores.head[k]
                        ),
                    ));
                }
                // L: a core step's column is exactly the core rows after
                // it, none stored sparse.
                if self.l_ptr[k + 1] != self.l_ptr[k] {
                    return Err(fail(
                        S,
                        "core-l-dense",
                        format!("core step {k} stores sparse L entries"),
                    ));
                }
            }
            let mut prev = None;
            for &s in &self.u_rows[ulo..uhi] {
                if prev.is_some_and(|p| p >= s) {
                    return Err(fail(S, "u-column-sorted", format!("step {k}: U step {s}")));
                }
                prev = Some(s);
                if s >= hi_step || s < blk_lo {
                    return Err(fail(
                        S,
                        "u-block-confinement",
                        format!("step {k}: U reaches step {s} outside block {blk_lo}..{blk_hi}"),
                    ));
                }
            }

            // L column: every row pivoted strictly later than k, inside
            // the same diagonal block.
            for &r in &self.l_rows[self.l_ptr[k]..self.l_ptr[k + 1]] {
                if r >= n {
                    return Err(fail(S, "l-block-confinement", format!("step {k}: row {r}")));
                }
                let s = self.pinv[r];
                if s <= k || s >= blk_hi {
                    return Err(fail(
                        S,
                        "l-block-confinement",
                        format!("step {k}: L row {r} pivots at step {s}, block {blk_lo}..{blk_hi}"),
                    ));
                }
            }

            // Cross-block entries: original rows pivoted in a strictly
            // earlier diagonal block.
            for &r in &self.off_rows[self.off_ptr[k]..self.off_ptr[k + 1]] {
                if r >= n || self.pinv[r] >= blk_lo {
                    return Err(fail(
                        S,
                        "off-earlier-block",
                        format!("step {k}: off row {r} not pivoted before block {blk_lo}"),
                    ));
                }
            }
        }

        Ok(())
    }
}

impl LowRankUpdate {
    /// Audits the accumulated update: term-count consistency across the
    /// `u`/`v`/`z` arrays, index ranges, solve-image dimensions and the
    /// capacitance matrix's shape/presence.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured [`AuditError`].
    pub fn audit(&self) -> Result<(), AuditError> {
        const S: &str = "LowRankUpdate";
        let k = self.us.len();
        if self.vs.len() != k || self.zs.len() != k {
            return Err(fail(
                S,
                "rank-consistent",
                format!(
                    "{k} u terms vs {} v terms vs {} z images",
                    self.vs.len(),
                    self.zs.len()
                ),
            ));
        }
        for (i, z) in self.zs.iter().enumerate() {
            if z.len() != self.n {
                return Err(fail(
                    S,
                    "z-dimension",
                    format!("term {i}: z has {} entries, system is {}", z.len(), self.n),
                ));
            }
        }
        for (i, term) in self.us.iter().chain(self.vs.iter()).enumerate() {
            for &(idx, _) in term {
                if idx >= self.n {
                    return Err(fail(
                        S,
                        "term-index-range",
                        format!("term {i}: index {idx} >= {}", self.n),
                    ));
                }
            }
        }
        match (&self.cap, k) {
            (None, 0) => Ok(()),
            (Some(cap), k) if k > 0 && cap.dim() == k => Ok(()),
            (cap, k) => Err(fail(
                S,
                "capacitance-shape",
                format!(
                    "rank {k} vs capacitance {:?}",
                    cap.as_ref().map(|c| c.dim())
                ),
            )),
        }
    }
}

/// Mutation-kill suite: seed a deliberate corruption into an otherwise
/// valid structure and assert the audit reports it under the *right*
/// invariant name. Each test is one corruption; an audit that misses it,
/// or blames a different invariant, fails the test.
#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::sparse::{CscMatrix, TripletMatrix};
    use crate::sparse_lu::SparseLu;

    /// A dense SPD-ish matrix: full symbolic closure, so every column has
    /// predictable L/U patterns and the whole block is one dense core.
    fn dense_matrix(n: usize) -> CscMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let v = if i == j {
                    n as f64 + 1.0
                } else {
                    1.0 / (1.0 + (i as f64 - j as f64).abs())
                };
                t.push(i, j, v);
            }
        }
        t.to_csc()
    }

    /// Hands the sole-owner symbolic plan of `lu` to `corrupt` and returns
    /// the audit error the corruption must cause.
    fn corrupted(lu: SparseLu, corrupt: impl FnOnce(&mut SymbolicLu)) -> AuditError {
        let mut sym = lu.symbolic().clone();
        drop(lu);
        let sym_mut = Arc::get_mut(&mut sym).expect("sole owner after dropping the factor");
        corrupt(sym_mut);
        sym.audit().expect_err("corruption must be caught")
    }

    /// Corrupts the sparse pattern of `dense_matrix(n)` factored with
    /// every core empty, so every step is stored sparse.
    fn corrupted_sym(n: usize, corrupt: impl FnOnce(&mut SymbolicLu)) -> AuditError {
        let lu = SparseLu::factor_scalar_oracle(&dense_matrix(n)).expect("factor");
        corrupted(lu, corrupt)
    }

    /// Corrupts the production plan of `dense_matrix(n)`: one block, all
    /// of it a dense core.
    fn corrupted_core(n: usize, corrupt: impl FnOnce(&mut SymbolicLu)) -> AuditError {
        let lu = SparseLu::factor(&dense_matrix(n)).expect("factor");
        assert_eq!(lu.symbolic().largest_core(), n, "dense matrix is one core");
        corrupted(lu, corrupt)
    }

    #[test]
    fn pristine_factor_audits_clean() {
        let lu = SparseLu::factor(&dense_matrix(8)).expect("factor");
        lu.audit().expect("valid factor audits clean");
        let oracle = SparseLu::factor_scalar_oracle(&dense_matrix(8)).expect("factor");
        oracle.audit().expect("valid factor audits clean");
    }

    #[test]
    fn mutation_duplicate_column_order() {
        let err = corrupted_sym(8, |sym| sym.q[0] = sym.q[1]);
        assert_eq!(err.invariant, "col-perm-bijective");
    }

    #[test]
    fn mutation_duplicate_pivot_row() {
        let err = corrupted_sym(8, |sym| sym.row_perm[0] = sym.row_perm[1]);
        assert_eq!(err.invariant, "row-perm-bijective");
    }

    #[test]
    fn mutation_swapped_pivot_rows_desync_pinv() {
        let err = corrupted_sym(8, |sym| sym.row_perm.swap(0, 1));
        assert_eq!(err.invariant, "pinv-inverse");
    }

    #[test]
    fn mutation_degenerate_block_boundary() {
        let err = corrupted_sym(8, |sym| {
            let last = *sym.block_ptr.last().expect("nonempty");
            sym.block_ptr.insert(sym.block_ptr.len() - 1, last);
        });
        assert_eq!(err.invariant, "block-ptr-monotone");
    }

    #[test]
    fn mutation_decreasing_column_offsets() {
        let err = corrupted_sym(8, |sym| sym.l_ptr.swap(1, 2));
        assert_eq!(err.invariant, "csr-monotone");
    }

    #[test]
    fn mutation_unsorted_u_column() {
        let err = corrupted_sym(8, |sym| {
            let lo = sym.u_ptr[sym.n - 1];
            sym.u_rows.swap(lo, lo + 1);
        });
        assert_eq!(err.invariant, "u-column-sorted");
    }

    #[test]
    fn mutation_u_reaches_own_step() {
        let err = corrupted_sym(8, |sym| {
            let lo = sym.u_ptr[sym.n - 1];
            sym.u_rows[lo] = sym.n - 1;
        });
        assert_eq!(err.invariant, "u-block-confinement");
    }

    #[test]
    fn mutation_l_row_pivoted_earlier() {
        let err = corrupted_sym(8, |sym| {
            let early = sym.row_perm[0];
            let lo = sym.l_ptr[1];
            sym.l_rows[lo] = early;
        });
        assert_eq!(err.invariant, "l-block-confinement");
    }

    #[test]
    fn mutation_off_entry_inside_own_block() {
        let err = corrupted_sym(8, |sym| {
            // Inject a cross-block entry whose row pivots inside the (one
            // and only) diagonal block.
            let n = sym.n;
            sym.off_ptr[n] = 1;
            sym.off_rows.push(sym.row_perm[0]);
        });
        assert_eq!(err.invariant, "off-earlier-block");
    }

    #[test]
    fn mutation_core_outside_its_block() {
        let err = corrupted_core(8, |sym| sym.cores.start[0] = sym.n + 1);
        assert_eq!(err.invariant, "core-suffix");
    }

    #[test]
    fn mutation_core_step_with_sparse_l() {
        let err = corrupted_core(8, |sym| {
            // A core step whose L is more than the core rows after it.
            let n = sym.n;
            sym.l_rows.push(sym.row_perm[n - 1]);
            sym.l_ptr[n - 1] = 0;
            sym.l_ptr[n] = 1;
        });
        assert_eq!(err.invariant, "core-l-dense");
    }

    #[test]
    fn mutation_core_dense_size_desync() {
        let err = corrupted_core(8, |sym| {
            *sym.cores.val_ptr.last_mut().expect("nonempty") += 1;
        });
        assert_eq!(err.invariant, "core-dense-size");
    }

    #[test]
    fn mutation_core_u_head_past_diagonal() {
        let err = corrupted_core(8, |sym| sym.cores.head[0] = 1);
        assert_eq!(err.invariant, "core-u-head");
    }

    #[test]
    fn mutation_core_values_truncated() {
        let mut lu = SparseLu::factor(&dense_matrix(8)).expect("factor");
        lu.vals.core.pop();
        assert_eq!(
            lu.audit_values().expect_err("caught").invariant,
            "core-dense-size"
        );
    }

    /// A base factor plus one accumulated rank-1 term, ready to corrupt.
    fn pushed_update() -> LowRankUpdate {
        let lu = SparseLu::factor(&dense_matrix(6)).expect("factor");
        let mut up = LowRankUpdate::new(6);
        up.push(&lu, &[(0, 1.0)], &[(1, 0.5)]).expect("push");
        up.audit().expect("valid update audits clean");
        up
    }

    #[test]
    fn mutation_lowrank_term_arrays_desync() {
        let mut up = pushed_update();
        up.us.push(Vec::new());
        assert_eq!(up.audit().expect_err("caught").invariant, "rank-consistent");
    }

    #[test]
    fn mutation_lowrank_truncated_solve_image() {
        let mut up = pushed_update();
        up.zs[0].pop();
        assert_eq!(up.audit().expect_err("caught").invariant, "z-dimension");
    }

    #[test]
    fn mutation_lowrank_term_index_out_of_range() {
        let mut up = pushed_update();
        up.us[0][0].0 = up.n;
        assert_eq!(
            up.audit().expect_err("caught").invariant,
            "term-index-range"
        );
    }

    #[test]
    fn mutation_lowrank_dropped_capacitance() {
        let mut up = pushed_update();
        up.cap = None;
        assert_eq!(
            up.audit().expect_err("caught").invariant,
            "capacitance-shape"
        );
    }
}
