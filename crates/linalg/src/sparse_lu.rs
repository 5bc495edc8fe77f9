//! Left-looking (Gilbert–Peierls) sparse LU with threshold partial pivoting,
//! split into a shareable symbolic analysis and per-thread numeric factors.
//!
//! This is the solver behind every DC operating point and every transient
//! time step of the circuit simulator. It factors `A(:, q) = Pᵀ L U` where
//! `q` is a fill-reducing column ordering and `P` is the row permutation
//! chosen by pivoting. The algorithm follows Gilbert & Peierls (1988): for
//! each column, a depth-first search over the structure of the already
//! computed part of `L` predicts the nonzero pattern, and the numeric
//! update is applied in topological order.
//!
//! The factorization is stored in two pieces, KLU-style:
//!
//! * [`SymbolicLu`] — the column ordering, the `L`/`U` nonzero pattern and
//!   the pivot/elimination plan. It depends only on the matrix *sparsity
//!   pattern* (plus the pivot choices of the matrix it was derived from),
//!   is immutable, and is shared behind an [`Arc`] — many threads can
//!   factor same-pattern matrices against one symbolic analysis.
//! * [`SparseLu`] (alias [`NumericLu`]) — the numeric `L`/`U` values over a
//!   shared symbolic plan. Cloning one copies only the value arrays and
//!   bumps the symbolic refcount, which is what makes per-thread numeric
//!   scratch factors cheap.

use std::sync::Arc;

use crate::dense::{dot_lanes, panel_rank_update, trsv_unit_lower};
use crate::ordering::{amd_btf_ordering, BlockOrdering};
use crate::supernode::{SupernodePlan, SupernodeStats, SymbolicView, MAX_SN_WIDTH, NO_SLOT};
use crate::{CscMatrix, LinalgError};

pub(crate) const NO_PIVOT: usize = usize::MAX;

/// Smallest system whose dense solves ([`SparseLu::solve_into`],
/// [`SparseLu::solve_multi_into`]) run through the supernode panels.
/// Smaller systems keep the scalar per-entry substitution: a panel gather
/// would not pay for itself there.
const SN_SOLVE_MIN_DIM: usize = 512;

/// Sorts `keys` ascending, applying the same permutation to `vals`: an
/// index permutation is `sort_unstable`d by key, then applied to both
/// slices in place by walking its cycles. `perm` is caller-provided scratch
/// so the factorization loop allocates nothing. Keys are distinct (one `U`
/// entry per pivot step), so the unstable sort is deterministic.
///
/// This replaced an insertion sort: fill-heavy columns of large substrate
/// matrices reach hundreds of entries, where the insertion sort's O(len²)
/// dominated the whole symbolic phase (see `sort_paired_insertion`, kept as
/// the test oracle, and the symbolic-factor entries in `BENCH_PR3.json`).
fn sort_paired(keys: &mut [usize], vals: &mut [f64], perm: &mut Vec<usize>) {
    let len = keys.len();
    if len < 2 {
        return;
    }
    perm.clear();
    perm.extend(0..len);
    perm.sort_unstable_by_key(|&i| keys[i]);
    // Apply in place: position `dst` receives the element at `perm[dst]`.
    // Consumed positions are marked so each cycle rotates exactly once.
    const DONE: usize = usize::MAX;
    for start in 0..len {
        let mut src = perm[start];
        if src == DONE || src == start {
            perm[start] = DONE;
            continue;
        }
        let (k0, v0) = (keys[start], vals[start]);
        let mut dst = start;
        while src != start {
            keys[dst] = keys[src];
            vals[dst] = vals[src];
            let next = perm[src];
            perm[src] = DONE;
            dst = src;
            src = next;
        }
        keys[dst] = k0;
        vals[dst] = v0;
        perm[start] = DONE;
    }
}

/// The pre-rewrite insertion-sort version of [`sort_paired`], kept as the
/// agreement oracle for the permutation-based implementation.
#[cfg(test)]
fn sort_paired_insertion(keys: &mut [usize], vals: &mut [f64]) {
    for i in 1..keys.len() {
        let (k, v) = (keys[i], vals[i]);
        let mut j = i;
        while j > 0 && keys[j - 1] > k {
            keys[j] = keys[j - 1];
            vals[j] = vals[j - 1];
            j -= 1;
        }
        keys[j] = k;
        vals[j] = v;
    }
}

/// [`LinalgError::NotSquare`] unless `a` is square.
fn ensure_square(a: &CscMatrix) -> Result<(), LinalgError> {
    if a.rows() == a.cols() {
        Ok(())
    } else {
        Err(LinalgError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        })
    }
}

/// Rejects a [`BlockOrdering`] that would index out of bounds in the
/// factorization: `perm` must be a permutation of `0..n`, `block_ptr` must
/// run strictly increasing from 0 to `n` (just `[0]` when `n == 0`), and
/// `diag_rows` must hold one row `< n` per step. Each failure reports the
/// expected bound and the offending value or length.
fn validate_ordering(ord: &BlockOrdering, n: usize) -> Result<(), LinalgError> {
    let mismatch = |expected, found| Err(LinalgError::DimensionMismatch { expected, found });
    if ord.perm.len() != n {
        return mismatch(n, ord.perm.len());
    }
    let mut seen = vec![false; n];
    for &c in &ord.perm {
        if c >= n || seen[c] {
            return mismatch(n, c);
        }
        seen[c] = true;
    }
    if ord.block_ptr.first() != Some(&0) {
        return mismatch(0, ord.block_ptr.first().copied().unwrap_or(usize::MAX));
    }
    if let Some(w) = ord.block_ptr.windows(2).find(|w| w[0] >= w[1]) {
        return mismatch(w[0] + 1, w[1]);
    }
    if ord.block_ptr.last() != Some(&n) {
        return mismatch(n, ord.block_ptr.last().copied().unwrap_or(0));
    }
    if ord.diag_rows.len() != n {
        return mismatch(n, ord.diag_rows.len());
    }
    if let Some(&r) = ord.diag_rows.iter().find(|&&r| r >= n) {
        return mismatch(n, r);
    }
    Ok(())
}

/// Shared prologue of the scalar and blocked replay steps: zeroes the
/// workspace over step `k`'s factorized pattern (and its off-diagonal
/// slots) and scatters `a`'s column into it.
fn scatter_step_column(
    sym: &SymbolicLu,
    a: &CscMatrix,
    k: usize,
    ws: &mut LuWorkspace,
    va: &mut ValueArrays,
) -> Result<(), LinalgError> {
    let col = sym.q[k];
    let LuWorkspace {
        x,
        stamp,
        off_stamp,
        off_slot,
        ..
    } = ws;

    // Zero the workspace over the column's factorized pattern.
    for &s in sym.u_column_steps(k) {
        let r = sym.row_perm[s];
        stamp[r] = k;
        x[r] = 0.0;
    }
    let pivot_row = sym.row_perm[k];
    stamp[pivot_row] = k;
    x[pivot_row] = 0.0;
    for &r in sym.l_column_rows(k) {
        stamp[r] = k;
        x[r] = 0.0;
    }
    // Zero the step's off-diagonal slots (rows of earlier blocks, kept as
    // raw values applied at solve time — disjoint from the in-pattern
    // rows, which all live in this step's own block).
    for idx in sym.off_ptr[k]..sym.off_ptr[k + 1] {
        let r = sym.off_rows[idx];
        off_stamp[r] = k;
        off_slot[r] = idx;
        va.off[idx] = 0.0;
    }

    // Scatter the new values; anything outside the pattern means the
    // symbolic factorization no longer applies.
    for (r, v) in a.col(col) {
        if stamp[r] == k {
            x[r] += v;
        } else if off_stamp[r] == k {
            va.off[off_slot[r]] += v;
        } else {
            return Err(LinalgError::PatternChanged {
                column: col,
                row: r,
            });
        }
    }
    Ok(())
}

/// Applies stored `U` entry `idx` of step `k` as one scalar update:
/// finalizes `U(s, k)` from the workspace and subtracts `U(s, k) · L(:, s)`
/// from it. `L(:, s)` must already be final.
#[inline]
fn scalar_update(
    sym: &SymbolicLu,
    idx: usize,
    k: usize,
    ws: &mut LuWorkspace,
    va: &mut ValueArrays,
) {
    let s = sym.u_rows[idx];
    // Stamp-generation freshness: the dependency's pivot row was stamped
    // for *this* step by the scatter prologue — a stale stamp means the
    // stored closure is not closed under the updates and the subtraction
    // below would corrupt a neighbouring column.
    debug_assert_eq!(ws.stamp[sym.row_perm[s]], k);
    let xval = ws.x[sym.row_perm[s]];
    va.u[idx] = xval;
    if xval != 0.0 {
        let (lo, hi) = (sym.l_ptr[s], sym.l_ptr[s + 1]);
        for (&r, &lv) in sym.l_rows[lo..hi].iter().zip(&va.l[lo..hi]) {
            debug_assert_eq!(ws.stamp[r], k);
            ws.x[r] -= xval * lv;
        }
    }
}

/// Shared epilogue of the replay steps: frozen-pivot check and the step's
/// final `U`-pivot / `L` writes.
fn finish_step_column(
    sym: &SymbolicLu,
    k: usize,
    x: &[f64],
    va: &mut ValueArrays,
) -> Result<(), LinalgError> {
    let (llo, lhi) = (sym.l_ptr[k], sym.l_ptr[k + 1]);
    let pivot_val = x[sym.row_perm[k]];
    let mut col_max = pivot_val.abs();
    for &r in &sym.l_rows[llo..lhi] {
        col_max = col_max.max(x[r].abs());
    }
    if !pivot_val.is_finite() || pivot_val == 0.0 || pivot_val.abs() < 1e-10 * col_max {
        return Err(LinalgError::Singular { column: sym.q[k] });
    }
    va.u[sym.u_ptr[k + 1] - 1] = pivot_val;
    for (lv, &r) in va.l[llo..lhi].iter_mut().zip(&sym.l_rows[llo..lhi]) {
        *lv = x[r] / pivot_val;
    }
    Ok(())
}

/// Replays the numeric elimination of pivot step `k` against the values of
/// `a`: scatters `a`'s column into the workspace (in-pattern rows) and the
/// step's off-diagonal slots (rows pivoted in earlier blocks), applies the
/// updates of every off-diagonal step in `U(:, k)` in ascending
/// (topological) order, checks the frozen pivot and writes this step's `U`
/// and `L` value segments. Every dependency step must be replayed already.
fn refactor_step(
    sym: &SymbolicLu,
    a: &CscMatrix,
    k: usize,
    ws: &mut LuWorkspace,
    va: &mut ValueArrays,
) -> Result<(), LinalgError> {
    scatter_step_column(sym, a, k, ws, va)?;
    // U entries are stored in ascending pivot-step order, which is a
    // topological order of the dependencies (L column `s` only touches
    // rows pivoted after `s`), so x[row_perm[s]] is final when step `s` is
    // applied.
    for idx in sym.u_ptr[k]..sym.u_ptr[k + 1] - 1 {
        scalar_update(sym, idx, k, ws, va);
    }
    finish_step_column(sym, k, &ws.x, va)
}

/// Blocked replay of pivot step `k`, a member of a multi-column supernode:
/// same pivot sequence as [`refactor_step`], but the external updates are
/// grouped by *source supernode* and applied through the dense panel
/// kernels — one local `U`-coefficient finalize ([`trsv_unit_lower`]) plus
/// one rank-`w` body update ([`panel_rank_update`]) per source supernode,
/// instead of one indexed scatter per stored entry. Within-supernode
/// sources (earlier members of `k`'s own supernode) replay scalar — they
/// are at most `w - 1` entries and keeping them scalar sidesteps
/// partial-panel bookkeeping. The column's final values are mirrored into
/// its supernode panel slots, so after the supernode's last member the
/// panel region is complete.
///
/// The only arithmetic difference to the scalar step is the body update's
/// lane-reassociated dot products, which is why the supernodal replay
/// agrees with the scalar oracle to roundoff (≤1e-12 relative, proptested)
/// rather than bit-for-bit.
///
/// The supernode's panel region must be zeroed before its first member,
/// and the panel regions of every source supernode must be complete.
fn refactor_step_blocked(
    sym: &SymbolicLu,
    plan: &SupernodePlan,
    a: &CscMatrix,
    k: usize,
    ws: &mut LuWorkspace,
    va: &mut ValueArrays,
) -> Result<(), LinalgError> {
    let (ulo, uhi) = (sym.u_ptr[k], sym.u_ptr[k + 1]);
    let own_sn = plan.sn_of_step[k];
    scatter_step_column(sym, a, k, ws, va)?;

    // External updates grouped by source supernode. Entries of one source
    // supernode are consecutive (steps ascending) and — because the stored
    // pattern is the full symbolic closure and a supernode's L columns
    // chain through each other's pivot rows — cover a contiguous *tail*
    // `t0..w` of the supernode: U(s, k) ≠ 0 implies U(s', k) ≠ 0 for every
    // later member s' of s's supernode.
    let mut idx = ulo;
    while idx < uhi - 1 {
        let s = sym.u_rows[idx];
        let sn = plan.sn_of_step[s];
        let (s0, s1) = (plan.sn_ptr[sn], plan.sn_ptr[sn + 1]);
        let w = s1 - s0;
        if w == 1 || sn == own_sn {
            // Scalar path: singleton source, or an earlier member of this
            // column's own supernode (its L column is already final — the
            // members replay in order).
            scalar_update(sym, idx, k, ws, va);
            idx += 1;
            continue;
        }
        let t0 = s - s0;
        let run = w - t0;
        debug_assert!(idx + run < uhi && sym.u_rows[idx + run - 1] == s1 - 1);
        let pbase = plan.panel_ptr[sn];
        let r_cnt = plan.row_ptr[sn + 1] - plan.row_ptr[sn];
        let ldiag = &va.panels[pbase + r_cnt * w..pbase + (r_cnt + w) * w];
        // Local U coefficients: pre-finalization values gathered from the
        // workspace, then the within-supernode unit-lower solve applied
        // densely. Absent leading entries stay exactly zero and contribute
        // nothing.
        let mut coef = [0.0f64; MAX_SN_WIDTH];
        for (c, &r) in coef[t0..w].iter_mut().zip(&sym.row_perm[s..s1]) {
            *c = ws.x[r];
        }
        trsv_unit_lower(ldiag, w, t0, &mut coef[..w]);
        va.u[idx..idx + run].copy_from_slice(&coef[t0..w]);
        // Rank-`run` dense body update: every body row of the source
        // supernode gets one fused dot-product subtraction. Rows outside
        // this column's pattern only ever receive exact-zero products
        // (padding is stored as 0.0), leaving their stale workspace
        // entries untouched.
        let body = &va.panels[pbase..pbase + r_cnt * w];
        panel_rank_update(body, w, t0, plan.body_rows(sn), &coef[..w], &mut ws.x);
        idx += run;
    }

    finish_step_column(sym, k, &ws.x, va)?;

    // Mirror the column's final values into its supernode panel slots
    // (body + ldiag from L, udiag incl. pivot from U).
    for i in sym.l_ptr[k]..sym.l_ptr[k + 1] {
        let slot = plan.l_slot[i];
        debug_assert!(slot != NO_SLOT && slot < plan.panel_len);
        va.panels[slot] = va.l[i];
    }
    for i in ulo..uhi {
        let slot = plan.u_slot[i];
        if slot != NO_SLOT {
            va.panels[slot] = va.u[i];
        }
    }
    Ok(())
}

/// Options controlling [`SparseLu::factor_with`]. The column ordering is
/// not an option: every production factor is ordered by
/// [`amd_btf_ordering`](crate::amd_btf_ordering); reference factors under
/// another ordering go through [`SparseLu::factor_ordered`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseLuOptions {
    /// Threshold in `(0, 1]` for diagonal-preferring partial pivoting: the
    /// diagonal entry is accepted as pivot when its magnitude is at least
    /// `pivot_threshold` times the column maximum. `1.0` forces strict
    /// partial pivoting.
    pub pivot_threshold: f64,
    /// Detect supernodes after the symbolic analysis and run the blocked
    /// numeric kernels (dense panel updates, supernode-aware triangular
    /// solves) wherever multi-column supernodes exist. Disabling this keeps
    /// the scalar per-column replay everywhere — the correctness oracle the
    /// blocked path is proptested against.
    pub supernodal: bool,
    /// Relaxed-amalgamation knob: the maximum number of explicit-zero cells
    /// a merged column may store in its supernode panel column. `0` admits
    /// only exactly-nested column chains; a few cells of padding lets
    /// nearly-equal columns merge, trading a handful of multiplies by zero
    /// for wider panels (fewer, larger dense updates).
    pub amalgamation: usize,
}

impl Default for SparseLuOptions {
    fn default() -> Self {
        SparseLuOptions {
            pivot_threshold: 0.1,
            supernodal: true,
            amalgamation: 4,
        }
    }
}

/// Reusable scratch for the numeric factorization replay
/// ([`SparseLu::refactor_with`]) and the refined solves
/// ([`SparseLu::solve_refined_with`]). Hot loops (a template fanning out
/// numeric refactorizations per batch member, a session refactoring every
/// few hundred time steps) keep one per thread so the replay allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct LuWorkspace {
    /// Dense column workspace of the replay, indexed by original row.
    x: Vec<f64>,
    /// Per-row step stamp marking the replayed column's pattern.
    stamp: Vec<usize>,
    /// Stamp/slot pair routing scattered matrix entries into the step's
    /// off-diagonal (cross-block) value slots; see `scatter_step_column`.
    off_stamp: Vec<usize>,
    off_slot: Vec<usize>,
    /// Per step, whether the replay rewrites it (its dirty closure, see
    /// [`SparseLu::refactor_with`]).
    dirty: Vec<bool>,
    /// Pooled buffers of [`SparseLu::solve_refined_with`] (solve scratch,
    /// residual, correction), so refined hot-loop solves allocate nothing.
    rwork: Vec<f64>,
    resid: Vec<f64>,
    corr: Vec<f64>,
}

impl LuWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.x.clear();
        self.x.resize(n, 0.0);
        self.stamp.clear();
        self.stamp.resize(n, usize::MAX);
        self.off_stamp.clear();
        self.off_stamp.resize(n, usize::MAX);
        self.off_slot.clear();
        self.off_slot.resize(n, 0);
        self.dirty.clear();
        self.dirty.resize(n, false);
    }
}

/// The immutable, shareable half of a sparse LU factorization: column
/// ordering `q`, pivot sequence, and the full symbolic `L`/`U` nonzero
/// structure (the elimination plan).
///
/// A `SymbolicLu` is produced by a full pivoting factorization
/// ([`SparseLu::factor`]) and then reused — across value-only
/// refactorizations ([`SparseLu::refactor`]) and across *threads*: it is
/// always held behind an [`Arc`], so concurrent workers on same-topology
/// systems share one symbolic analysis and carry only per-thread numeric
/// values ([`SymbolicLu::numeric`]).
#[derive(Debug)]
pub struct SymbolicLu {
    pub(crate) n: usize,
    /// Column ordering: column `q[k]` of `A` is eliminated at step `k`.
    pub(crate) q: Vec<usize>,
    /// `row_perm[k]` = original row chosen as pivot at step `k`.
    pub(crate) row_perm: Vec<usize>,
    /// Inverse pivot permutation: `pinv[row_perm[k]] == k` for every step.
    pub(crate) pinv: Vec<usize>,
    /// L stored by columns (unit diagonal implicit); row indices are
    /// *original* row ids.
    pub(crate) l_ptr: Vec<usize>,
    pub(crate) l_rows: Vec<usize>,
    /// U stored by columns; row indices are pivot *steps* (`0..k`), sorted
    /// ascending within each column segment with the diagonal (pivot)
    /// stored last.
    pub(crate) u_ptr: Vec<usize>,
    pub(crate) u_rows: Vec<usize>,
    /// Diagonal-block boundaries in pivot-step space: block `t` owns steps
    /// `block_ptr[t]..block_ptr[t + 1]`. Under the production ordering
    /// ([`amd_btf_ordering`](crate::amd_btf_ordering)) these are the
    /// strongly connected components of the matched pattern (block upper
    /// triangular: entries below a diagonal block are structurally zero);
    /// a [`BlockOrdering::single_block`] reference records one block. Each
    /// block factors **independently** — neither `L` nor `U` crosses a
    /// boundary; the cross-block entries of the permuted matrix live in
    /// `off_ptr`/`off_rows` instead.
    pub(crate) block_ptr: Vec<usize>,
    /// Cross-block (off-diagonal-block) entries of the permuted matrix,
    /// KLU-style: raw `A` positions applied during substitution rather
    /// than factored into `U` as their `L⁻¹`-closure. Per pivot step `k`,
    /// `off_rows[off_ptr[k]..off_ptr[k + 1]]` are the *original* row
    /// indices (always pivoted in an earlier block) of column `q[k]`'s
    /// entries above its own diagonal block. Empty for single-block
    /// factorizations.
    pub(crate) off_ptr: Vec<usize>,
    pub(crate) off_rows: Vec<usize>,
    /// Whether supernode detection is enabled (carried from the options).
    pub(crate) supernodal: bool,
    /// Relaxed-amalgamation knob (carried from the options).
    pub(crate) relax: usize,
    /// Supernode partition + panel layout, built lazily on first numeric
    /// construction (the panels' value storage is sized from it).
    pub(crate) sn_plan: std::sync::OnceLock<Option<SupernodePlan>>,
    /// Dependents and column steps for dirty-closure replays, built on
    /// the first one (`None` if an index would not fit in 32 bits).
    pub(crate) replay_index: std::sync::OnceLock<Option<ReplayIndex>>,
}

/// What a dirty-closure replay ([`SparseLu::refactor_with`]) walks: the
/// transpose of the off-diagonal `U` pattern and the inverse column order.
/// Indices are 32-bit: a plan cache keeps one per resident template.
#[derive(Debug)]
pub(crate) struct ReplayIndex {
    /// Steps `k` with `U(s, k) ≠ 0`, ascending:
    /// `dep_steps[dep_ptr[s]..dep_ptr[s + 1]]`.
    dep_ptr: Vec<u32>,
    dep_steps: Vec<u32>,
    /// The step that eliminates each column: the inverse of `q`.
    step_of_col: Vec<u32>,
}

impl ReplayIndex {
    /// `None` when an index would not fit in 32 bits.
    fn build(sym: &SymbolicLu) -> Option<Self> {
        let n = sym.n;
        u32::try_from(sym.u_rows.len()).ok()?;
        // Every step and count below fits once the `U` length does.
        let mut dep_ptr = vec![0u32; n + 1];
        for k in 0..n {
            for &s in sym.u_column_steps(k) {
                dep_ptr[s + 1] += 1;
            }
        }
        for s in 0..n {
            dep_ptr[s + 1] += dep_ptr[s];
        }
        let mut next = dep_ptr.clone();
        let mut dep_steps = vec![0u32; dep_ptr[n] as usize];
        for k in 0..n {
            for &s in sym.u_column_steps(k) {
                dep_steps[next[s] as usize] = k as u32;
                next[s] += 1;
            }
        }
        let mut step_of_col = vec![0u32; n];
        for (k, &c) in sym.q.iter().enumerate() {
            step_of_col[c] = k as u32;
        }
        Some(ReplayIndex {
            dep_ptr,
            dep_steps,
            step_of_col,
        })
    }

    /// The steps whose `U` column holds step `s`.
    fn dependents(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        let span = self.dep_ptr[s] as usize..self.dep_ptr[s + 1] as usize;
        self.dep_steps[span].iter().map(|&k| k as usize)
    }
}

impl SymbolicLu {
    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Total stored entries of the factorization: the `L` and `U` patterns
    /// plus the raw cross-block entries applied at solve time (a fill-in
    /// metric — off entries are storage too, so block and single-block
    /// orderings compare honestly).
    pub fn pattern_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.off_rows.len()
    }

    /// Number of cross-block entries stored raw (zero for single-block
    /// factorizations; these are original matrix entries, not fill).
    pub fn off_nnz(&self) -> usize {
        self.off_rows.len()
    }

    /// The original row indices of pivot step `step`'s cross-block entries
    /// (each pivoted in an earlier diagonal block; applied at solve time).
    /// Exposed for structural checks alongside
    /// [`SymbolicLu::l_column_rows`] / [`SymbolicLu::u_column_steps`].
    pub fn off_column_rows(&self, step: usize) -> &[usize] {
        &self.off_rows[self.off_ptr[step]..self.off_ptr[step + 1]]
    }

    /// The column ordering: column `col_order()[k]` of `A` is eliminated at
    /// pivot step `k`.
    pub fn col_order(&self) -> &[usize] {
        &self.q
    }

    /// The pivot row sequence: `pivot_rows()[k]` is the original row chosen
    /// as the pivot of step `k`.
    pub fn pivot_rows(&self) -> &[usize] {
        &self.row_perm
    }

    /// Diagonal-block boundaries in pivot-step space (see
    /// [`SymbolicLu::block_count`]). Always starts at 0 and ends at
    /// [`SymbolicLu::dim`].
    pub fn block_ptr(&self) -> &[usize] {
        &self.block_ptr
    }

    /// Number of diagonal blocks of the block-triangular permutation this
    /// factorization was built under (1 for a single-block reference
    /// ordering or an irreducible matrix).
    pub fn block_count(&self) -> usize {
        self.block_ptr.len().saturating_sub(1)
    }

    /// The pivot steps of diagonal block `t`.
    pub fn block_range(&self, t: usize) -> std::ops::Range<usize> {
        self.block_ptr[t]..self.block_ptr[t + 1]
    }

    /// Size of the largest diagonal block — the irreducible core the
    /// factorization cannot decompose further (0 for an empty system).
    pub fn largest_block(&self) -> usize {
        self.block_ptr
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// The original row indices of the `L` column of pivot step `step`
    /// (strictly-below-diagonal pattern; the unit diagonal is implicit).
    /// Exposed for structural checks — e.g. that no `L` entry crosses
    /// below a diagonal block.
    pub fn l_column_rows(&self, step: usize) -> &[usize] {
        &self.l_rows[self.l_ptr[step]..self.l_ptr[step + 1]]
    }

    /// The pivot-step indices of the off-diagonal `U` column of `step`
    /// (ascending; the diagonal itself is excluded). Exposed for
    /// structural checks alongside [`SymbolicLu::l_column_rows`].
    pub fn u_column_steps(&self, step: usize) -> &[usize] {
        &self.u_rows[self.u_ptr[step]..self.u_ptr[step + 1] - 1]
    }

    /// Inverse pivot permutation: the elimination step at which original
    /// row `row` was chosen as pivot.
    pub fn pivot_step_of_row(&self, row: usize) -> usize {
        self.pinv[row]
    }

    /// Supernode statistics of this plan, or `None` when supernode
    /// detection is disabled ([`SparseLuOptions::supernodal`] = false).
    /// Built lazily with the plan itself.
    pub fn supernode_stats(&self) -> Option<SupernodeStats> {
        self.supernode_plan_raw().map(|p| p.stats)
    }

    /// The supernode plan when detection is enabled, regardless of whether
    /// any multi-column supernodes exist.
    pub(crate) fn supernode_plan_raw(&self) -> Option<&SupernodePlan> {
        if !self.supernodal {
            return None;
        }
        self.sn_plan
            .get_or_init(|| {
                Some(SupernodePlan::build(
                    &SymbolicView {
                        n: self.n,
                        l_ptr: &self.l_ptr,
                        l_rows: &self.l_rows,
                        u_ptr: &self.u_ptr,
                        u_rows: &self.u_rows,
                        row_perm: &self.row_perm,
                        pinv: &self.pinv,
                        block_ptr: &self.block_ptr,
                    },
                    self.relax,
                ))
            })
            .as_ref()
    }

    /// The dirty-closure replay index, built on first use.
    fn replay_index(&self) -> Option<&ReplayIndex> {
        self.replay_index
            .get_or_init(|| ReplayIndex::build(self))
            .as_ref()
    }

    /// The supernode plan the blocked kernels run on: present only when
    /// detection is enabled *and* the pattern actually amalgamates (a plan
    /// of pure singletons would route every column through the scalar path
    /// anyway, so callers skip the supernodal machinery entirely).
    pub(crate) fn blocked_plan(&self) -> Option<&SupernodePlan> {
        self.supernode_plan_raw().filter(|p| p.stats.multi > 0)
    }

    /// Builds a fresh numeric factor of `a` over this shared symbolic plan
    /// — the template fan-out primitive: one symbolic analysis, many
    /// per-thread numeric factorizations. Equivalent to cloning an existing
    /// factor and [`SparseLu::refactor`]ing it, without copying stale
    /// values.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::refactor`]: shape mismatches,
    /// [`LinalgError::PatternChanged`] if `a` has an entry outside this
    /// pattern, [`LinalgError::Singular`] if a frozen pivot is unusable for
    /// the new values.
    pub fn numeric(sym: &Arc<SymbolicLu>, a: &CscMatrix) -> Result<SparseLu, LinalgError> {
        let panel_len = sym.blocked_plan().map_or(0, |p| p.panel_len);
        let mut lu = SparseLu {
            sym: Arc::clone(sym),
            vals: ValueArrays::zeroed(sym, panel_len),
            replayed_from: None,
        };
        lu.refactor(a)?;
        Ok(lu)
    }
}

/// Numeric value storage of a factor: the `L` / `U` / cross-block arrays
/// mirroring the symbolic pattern, plus the dense supernode panel storage
/// of the blocked kernels.
#[derive(Debug, Clone)]
struct ValueArrays {
    l: Vec<f64>,
    u: Vec<f64>,
    off: Vec<f64>,
    /// Dense supernode panels, `[body | ldiag | udiag]` per multi-column
    /// supernode (see [`SupernodePlan`]); empty when no plan is active.
    panels: Vec<f64>,
    /// Whether `panels` currently mirrors `l`/`u` — set by the panel-aware
    /// paths (factor fill, supernodal replay), cleared while a replay is
    /// rewriting the factor, so the supernode-aware solves never read
    /// stale panels.
    panels_valid: bool,
}

impl ValueArrays {
    fn zeroed(sym: &SymbolicLu, panel_len: usize) -> Self {
        ValueArrays {
            l: vec![0.0; sym.l_rows.len()],
            u: vec![0.0; sym.u_rows.len()],
            off: vec![0.0; sym.off_rows.len()],
            panels: vec![0.0; panel_len],
            panels_valid: false,
        }
    }

    /// Gathers the current `l`/`u` values into the supernode panels
    /// through the plan's precomputed slot maps (padding cells are zeroed
    /// by the initial fill). Used after a full pivoting factorization; the
    /// supernodal replay maintains panels incrementally instead.
    fn fill_panels(&mut self, plan: &SupernodePlan) {
        self.panels.clear();
        self.panels.resize(plan.panel_len, 0.0);
        for (idx, &slot) in plan.l_slot.iter().enumerate() {
            if slot != NO_SLOT {
                self.panels[slot] = self.l[idx];
            }
        }
        for (idx, &slot) in plan.u_slot.iter().enumerate() {
            if slot != NO_SLOT {
                self.panels[slot] = self.u[idx];
            }
        }
        self.panels_valid = true;
    }
}

/// Per-thread numeric half of the factorization: the `L`/`U` values over a
/// shared [`SymbolicLu`]. See [`SparseLu`].
pub type NumericLu = SparseLu;

/// Sparse LU factorization `A(:, q) = Pᵀ L U`.
///
/// Internally this is a *numeric* factor (value arrays) over an
/// [`Arc<SymbolicLu>`] elimination plan; [`SparseLu::symbolic`] exposes the
/// shared half and [`SymbolicLu::numeric`] builds sibling factors for other
/// matrices with the same pattern.
///
/// # Example
///
/// ```
/// use ohmflow_linalg::{SparseLu, TripletMatrix};
///
/// # fn main() -> Result<(), ohmflow_linalg::LinalgError> {
/// let mut t = TripletMatrix::new(3, 3);
/// t.push(0, 0, 2.0);
/// t.push(1, 1, -3.0); // indefinite is fine: the substrate has negative resistors
/// t.push(2, 2, 4.0);
/// t.push(0, 2, 1.0);
/// let lu = SparseLu::factor(&t.to_csc())?;
/// let x = lu.solve(&[5.0, -3.0, 4.0])?;
/// assert!((x[1] - 1.0).abs() < 1e-12 && (x[2] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    sym: Arc<SymbolicLu>,
    /// Numeric values (`L`, `U`, raw cross-block entries, supernode
    /// panels).
    vals: ValueArrays,
    /// The matrix `vals` were last replayed from, when they come from a
    /// successful [`SparseLu::refactor_with`]; `None` after a pivoting
    /// factorization or a failed replay. The next replay against the same
    /// pattern rewrites only the steps this record proves stale.
    replayed_from: Option<ReplayRecord>,
}

/// The matrix a factor's values were last replayed from: its pattern
/// (`col_ptr`, `row_idx` as 32-bit indices, shared by clones of the
/// factor) and values.
#[derive(Debug, Clone)]
struct ReplayRecord {
    pattern: Arc<(Vec<u32>, Vec<u32>)>,
    values: Vec<f64>,
}

impl ReplayRecord {
    /// A record of `a`, or `None` if an index does not fit in 32 bits.
    fn of(a: &CscMatrix) -> Option<Self> {
        // Both index arrays are bounded by their last entry's range:
        // `row_idx` by the row count, `col_ptr` by its last value.
        let narrow = |v: &[usize], bound: usize| -> Option<Vec<u32>> {
            u32::try_from(bound).ok()?;
            Some(v.iter().map(|&i| i as u32).collect())
        };
        Some(ReplayRecord {
            pattern: Arc::new((
                narrow(a.col_ptr(), a.nnz())?,
                narrow(a.row_idx(), a.rows())?,
            )),
            values: a.values().to_vec(),
        })
    }

    /// Whether `a` has the recorded pattern.
    fn fits(&self, a: &CscMatrix) -> bool {
        let same = |narrow: &[u32], v: &[usize]| {
            narrow.len() == v.len() && narrow.iter().zip(v).all(|(&x, &y)| x as usize == y)
        };
        same(&self.pattern.0, a.col_ptr()) && same(&self.pattern.1, a.row_idx())
    }
}

impl SparseLu {
    /// Maximum number of right-hand-side lanes a single
    /// [`SparseLu::solve_multi_into`] traversal carries. Eight doubles per
    /// row keep the lane block inside one cache line, and the supernode
    /// scratch (`MAX_SN_WIDTH × 8` doubles) on the stack.
    pub const MAX_SOLVE_LANES: usize = 8;

    /// Factors `a` with default options.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] if `a` is not square;
    /// [`LinalgError::Singular`] if a column has no usable pivot.
    pub fn factor(a: &CscMatrix) -> Result<Self, LinalgError> {
        Self::factor_with(a, &SparseLuOptions::default())
    }

    /// Factors `a` with explicit [`SparseLuOptions`] under the production
    /// ordering, [`amd_btf_ordering`](crate::amd_btf_ordering).
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::factor`].
    pub fn factor_with(a: &CscMatrix, opts: &SparseLuOptions) -> Result<Self, LinalgError> {
        ensure_square(a)?;
        Self::factor_ordered(a, amd_btf_ordering(a), opts)
    }

    /// Factors `a` under a caller-supplied [`BlockOrdering`]: the column
    /// order, the diagonal-block boundaries in step space and the
    /// preferred pivot row per step. [`SparseLu::factor_with`] passes
    /// [`amd_btf_ordering`](crate::amd_btf_ordering), which prefers the
    /// matched row of each column (its structural anchor — for
    /// zero-diagonal columns a diagonal preference would never fire).
    /// Reference factors wrap a plain permutation in
    /// [`BlockOrdering::single_block`], which prefers the diagonal.
    ///
    /// The blocks must be block upper triangular for `a` (as
    /// `amd_btf_ordering` guarantees); a single block always is.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] if `a` is not square;
    /// [`LinalgError::DimensionMismatch`] if `ordering.perm` is not a
    /// permutation of `0..n`, `ordering.block_ptr` does not run strictly
    /// increasing from 0 to `n`, or `ordering.diag_rows` does not hold one
    /// in-range row per step; [`LinalgError::Singular`] if a column has no
    /// usable pivot.
    pub fn factor_ordered(
        a: &CscMatrix,
        ordering: BlockOrdering,
        opts: &SparseLuOptions,
    ) -> Result<Self, LinalgError> {
        ensure_square(a)?;
        let n = a.cols();
        validate_ordering(&ordering, n)?;
        let BlockOrdering {
            perm: q,
            block_ptr,
            diag_rows,
        } = ordering;

        let mut pinv = vec![NO_PIVOT; n]; // original row -> pivot step
        let mut row_perm = vec![NO_PIVOT; n]; // pivot step -> original row
        let mut l_ptr = vec![0usize];
        let mut l_rows: Vec<usize> = Vec::with_capacity(4 * a.nnz() + n);
        let mut l_vals: Vec<f64> = Vec::with_capacity(4 * a.nnz() + n);
        let mut u_ptr = vec![0usize];
        let mut u_rows: Vec<usize> = Vec::with_capacity(4 * a.nnz() + n);
        let mut u_vals: Vec<f64> = Vec::with_capacity(4 * a.nnz() + n);
        let mut off_ptr = vec![0usize];
        let mut off_rows: Vec<usize> = Vec::new();
        let mut off_vals: Vec<f64> = Vec::new();

        // Workspaces reused across columns; `stamp` arrays avoid O(n) clears.
        let mut x = vec![0.0f64; n];
        let mut pattern: Vec<usize> = Vec::with_capacity(64);
        let mut row_stamp = vec![usize::MAX; n]; // row in pattern this column?
        let mut step_stamp = vec![usize::MAX; n]; // step visited by DFS this column?
        let mut off_stamp = vec![usize::MAX; n]; // row in off list this column?
        let mut off_slot = vec![0usize; n]; // off-list slot of a stamped row
        let mut topo: Vec<usize> = Vec::with_capacity(64); // post-order of pivot steps
        let mut dfs: Vec<(usize, usize)> = Vec::with_capacity(64);
        let mut sort_perm: Vec<usize> = Vec::with_capacity(64); // sort_paired scratch

        let mut block_idx = 0usize;
        for k in 0..n {
            while k >= block_ptr[block_idx + 1] {
                block_idx += 1;
            }
            let block_lo = block_ptr[block_idx];
            let col = q[k];
            pattern.clear();
            topo.clear();

            for (r, v) in a.col(col) {
                // Rows already pivoted in an *earlier* diagonal block are
                // cross-block entries of the block-upper-triangular
                // permutation: stored raw and applied at solve time,
                // KLU-style, never eliminated through. Excluding them here
                // changes nothing inside this block — earlier-block `L`
                // columns only touch rows of their own block, so the
                // in-block values, pivots and fill are identical to the
                // old closure-into-`U` scheme.
                if pinv[r] < block_lo {
                    if off_stamp[r] != k {
                        off_stamp[r] = k;
                        off_slot[r] = off_rows.len();
                        off_rows.push(r);
                        off_vals.push(v);
                    } else {
                        off_vals[off_slot[r]] += v;
                    }
                    continue;
                }
                if row_stamp[r] != k {
                    row_stamp[r] = k;
                    pattern.push(r);
                    x[r] = v;
                } else {
                    x[r] += v;
                }
                let step = pinv[r];
                if step != NO_PIVOT && step_stamp[step] != k {
                    // DFS over L's structure starting at `step`.
                    step_stamp[step] = k;
                    dfs.push((step, l_ptr[step]));
                    while let Some(&mut (s, ref mut ptr)) = dfs.last_mut() {
                        let hi = l_ptr[s + 1];
                        let mut descended = false;
                        while *ptr < hi {
                            let child_row = l_rows[*ptr];
                            *ptr += 1;
                            if row_stamp[child_row] != k {
                                row_stamp[child_row] = k;
                                pattern.push(child_row);
                                x[child_row] = 0.0;
                            }
                            let child_step = pinv[child_row];
                            if child_step != NO_PIVOT && step_stamp[child_step] != k {
                                step_stamp[child_step] = k;
                                dfs.push((child_step, l_ptr[child_step]));
                                descended = true;
                                break;
                            }
                        }
                        if !descended && {
                            let (s2, p2) = *dfs
                                .last()
                                .expect("invariant: the DFS stack is nonempty inside the walk");
                            p2 >= l_ptr[s2 + 1]
                        } {
                            let (s2, _) = dfs
                                .pop()
                                .expect("invariant: the DFS stack is nonempty inside the walk");
                            topo.push(s2);
                        }
                    }
                }
            }

            // Numeric update in topological order (reverse post-order).
            for &s in topo.iter().rev() {
                let xval = x[row_perm[s]];
                if xval != 0.0 {
                    for idx in l_ptr[s]..l_ptr[s + 1] {
                        x[l_rows[idx]] -= xval * l_vals[idx];
                    }
                }
            }

            // Pivot selection with threshold preference for the step's
            // preferred row — the diagonal for plain orderings, the
            // structurally matched row under BTF — which keeps MNA
            // factorizations stable without destroying sparsity. Under a
            // block-triangular ordering the unpivoted pattern rows are
            // always confined to the current diagonal block (rows of later
            // blocks are structurally absent, earlier blocks are fully
            // pivoted), so pivoting can never break the block structure.
            let pref_row = diag_rows[k];
            let mut max_mag = 0.0f64;
            let mut max_row = NO_PIVOT;
            let mut diag_mag = -1.0f64;
            for &r in &pattern {
                if pinv[r] == NO_PIVOT {
                    let mag = x[r].abs();
                    if mag > max_mag {
                        max_mag = mag;
                        max_row = r;
                    }
                    if r == pref_row {
                        diag_mag = mag;
                    }
                }
            }
            if max_row == NO_PIVOT || max_mag == 0.0 {
                for &r in &pattern {
                    x[r] = 0.0;
                }
                return Err(LinalgError::Singular { column: col });
            }
            let pivot_row = if diag_mag >= opts.pivot_threshold * max_mag && diag_mag > 0.0 {
                pref_row
            } else {
                max_row
            };
            let pivot_val = x[pivot_row];
            pinv[pivot_row] = k;
            row_perm[k] = pivot_row;

            // Emit U column (entries at pivotal rows, ascending step order,
            // pivot last) and L column (non-pivotal rows scaled by the
            // pivot). The ascending order is a topological order of the
            // column's update dependencies, which is what lets `refactor`
            // replay the numeric phase without redoing the symbolic DFS.
            //
            // Entries that cancelled to exactly 0.0 are stored anyway: the
            // stored structure must be the *full* symbolic closure, or a
            // later `refactor` (same pattern, different values) would
            // silently skip the update paths through the cancelled
            // positions and produce a wrong factorization.
            let u_col_start = u_rows.len();
            for &r in &pattern {
                let step = pinv[r];
                if step != NO_PIVOT && step != k {
                    u_rows.push(step);
                    u_vals.push(x[r]);
                }
            }
            sort_paired(
                &mut u_rows[u_col_start..],
                &mut u_vals[u_col_start..],
                &mut sort_perm,
            );
            u_rows.push(k);
            u_vals.push(pivot_val);
            u_ptr.push(u_rows.len());

            for &r in &pattern {
                if pinv[r] == NO_PIVOT {
                    l_rows.push(r);
                    l_vals.push(x[r] / pivot_val);
                }
            }
            l_ptr.push(l_rows.len());

            for &r in &pattern {
                x[r] = 0.0;
            }

            off_ptr.push(off_rows.len());
        }

        let sym = Arc::new(SymbolicLu {
            n,
            q,
            row_perm,
            pinv,
            l_ptr,
            l_rows,
            u_ptr,
            u_rows,
            block_ptr,
            off_ptr,
            off_rows,
            supernodal: opts.supernodal,
            relax: opts.amalgamation,
            sn_plan: std::sync::OnceLock::new(),
            replay_index: std::sync::OnceLock::new(),
        });
        let mut va = ValueArrays {
            l: l_vals,
            u: u_vals,
            off: off_vals,
            panels: Vec::new(),
            panels_valid: false,
        };
        if let Some(plan) = sym.blocked_plan() {
            va.fill_panels(plan);
        }
        let lu = SparseLu {
            sym,
            vals: va,
            replayed_from: None,
        };
        crate::verify::debug_auto_audit!(lu.audit());
        Ok(lu)
    }

    /// The shared symbolic half (ordering, pattern, pivot plan). Clone the
    /// `Arc` to hand the elimination plan to other threads; pair it with
    /// [`SymbolicLu::numeric`] to build sibling factors.
    pub fn symbolic(&self) -> &Arc<SymbolicLu> {
        &self.sym
    }

    /// Audits the full factorization: the shared symbolic plan (see
    /// [`SymbolicLu::audit`]), the supernode plan if one is active, and
    /// the numeric value arrays ([`SparseLu::audit_values`]). Runs
    /// automatically at construction in debug builds.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`crate::AuditError`].
    pub fn audit(&self) -> Result<(), crate::AuditError> {
        self.sym.audit()?;
        self.sym.audit_supernodes()?;
        self.audit_values()
    }

    /// The cheap numeric half of [`SparseLu::audit`]: every value array
    /// must mirror its symbolic pattern length, and valid supernode
    /// panels must match the active plan's layout. Runs automatically
    /// after every refactorization in debug builds.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`crate::AuditError`].
    pub fn audit_values(&self) -> Result<(), crate::AuditError> {
        let sym = &self.sym;
        let va = &self.vals;
        let (l_len, u_len, off_len) = (va.l.len(), va.u.len(), va.off.len());
        if l_len != sym.l_rows.len() || u_len != sym.u_rows.len() || off_len != sym.off_rows.len() {
            return Err(crate::AuditError::new(
                "SparseLu",
                "value-shape",
                format!(
                    "values {l_len}/{u_len}/{off_len} vs pattern {}/{}/{}",
                    sym.l_rows.len(),
                    sym.u_rows.len(),
                    sym.off_rows.len()
                ),
            ));
        }
        let plan_len = sym.blocked_plan().map_or(0, |p| p.panel_len);
        if va.panels_valid && va.panels.len() != plan_len {
            return Err(crate::AuditError::new(
                "SparseLu",
                "panels-coherent",
                format!(
                    "valid panels hold {} cells, plan expects {plan_len}",
                    va.panels.len()
                ),
            ));
        }
        Ok(())
    }

    /// Recomputes the numeric factorization for a matrix with the **same**
    /// (or a subset of the) sparsity pattern as the one originally
    /// factored, reusing the column ordering, the symbolic `L`/`U`
    /// structure and the pivot sequence — the KLU-style fast path for
    /// value-only matrix changes (a circuit re-stamped with different
    /// conductances).
    ///
    /// This skips the symbolic DFS and the pivot search entirely, so it is
    /// several times cheaper than [`SparseLu::factor`]; the cost is that
    /// the frozen pivot sequence may be less numerically favourable for
    /// the new values. A pivot that collapses below `10⁻¹⁰` of its
    /// column's magnitude is rejected as [`LinalgError::Singular`] so the
    /// caller can fall back to a fresh pivoting factorization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] / [`LinalgError::DimensionMismatch`] for
    /// shape mismatches, [`LinalgError::PatternChanged`] if `a` has an
    /// entry outside the factorized pattern, and [`LinalgError::Singular`]
    /// if a frozen pivot becomes numerically unusable.
    ///
    /// On error the factor values are partially overwritten: the
    /// factorization **must not** be used for further solves and should be
    /// replaced via [`SparseLu::factor`].
    pub fn refactor(&mut self, a: &CscMatrix) -> Result<(), LinalgError> {
        let mut ws = LuWorkspace::new();
        self.refactor_with(a, &mut ws)
    }

    /// [`SparseLu::refactor`] with caller-provided scratch, so repeated
    /// numeric replays (per-step rebases, template fan-outs) allocate
    /// nothing. Columns replay serially in pivot-step order — supernode by
    /// supernode through the blocked kernels when the plan amalgamates,
    /// column by column otherwise.
    ///
    /// A replay pays only for what changed since the previous one. A
    /// successful replay records the matrix it ran on; the next replay
    /// against the same pattern rewrites only the *dirty closure*: step
    /// `k` is dirty when column `q[k]` of `a` differs bitwise from the
    /// recorded column, or when any step in its stored `U` column is
    /// dirty. A multi-column supernode replays whole when any member is
    /// dirty, so its panel stays coherent. Every other step keeps values a
    /// full replay would reproduce bit for bit: its inputs are unchanged.
    /// The first replay after a pivoting factorization, after a failed
    /// replay or against a different pattern is full. The factor compares
    /// its own input, so the result never depends on what the caller
    /// believes changed.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::refactor`].
    pub fn refactor_with(
        &mut self,
        a: &CscMatrix,
        ws: &mut LuWorkspace,
    ) -> Result<(), LinalgError> {
        self.replay(a, ws).map(|_| ())
    }

    /// The body of [`SparseLu::refactor_with`]; returns the number of
    /// pivot steps it replayed.
    fn replay(&mut self, a: &CscMatrix, ws: &mut LuWorkspace) -> Result<usize, LinalgError> {
        ensure_square(a)?;
        let sym = &self.sym;
        if a.cols() != sym.n {
            return Err(LinalgError::DimensionMismatch {
                expected: sym.n,
                found: a.cols(),
            });
        }
        // Taken out for the whole replay: an error leaves no record, so
        // the replay after a failed one is full.
        let prev = self.replayed_from.take().filter(|p| p.fits(a));
        let va = &mut self.vals;
        let plan = sym.blocked_plan();
        ws.reset(sym.n);
        // The steps that replay together with step `k`: its whole
        // supernode, so the panel stays coherent.
        let unit = |k: usize| match plan {
            Some(p) => p.sn_ptr[p.sn_of_step[k]]..p.sn_ptr[p.sn_of_step[k] + 1],
            None => k..k + 1,
        };
        // Seed the dirty set with the steps whose column moved since the
        // recorded replay (one streaming compare; only a moved value pays
        // for finding its column); without a record every step is dirty.
        let index = prev.as_ref().and_then(|p| Some((p, sym.replay_index()?)));
        match index {
            Some((p, index)) => {
                let cp = a.col_ptr();
                for (i, (x, y)) in a.values().iter().zip(&p.values).enumerate() {
                    if x.to_bits() != y.to_bits() {
                        let col = cp.partition_point(|&start| start <= i) - 1;
                        ws.dirty[unit(index.step_of_col[col] as usize)].fill(true);
                    }
                }
            }
            None => ws.dirty.fill(true),
        }
        // One pass in step order: a dirty unit marks the units of its
        // dependents (all later), then replays.
        let mut replayed = 0;
        let mut visit = |k0: usize, k1: usize, ws: &mut LuWorkspace| {
            if !ws.dirty[k0] {
                return false;
            }
            if let Some((_, index)) = index {
                for s in k0..k1 {
                    for k in index.dependents(s) {
                        if !ws.dirty[k] {
                            ws.dirty[unit(k)].fill(true);
                        }
                    }
                }
            }
            replayed += k1 - k0;
            true
        };
        match plan {
            Some(plan) => {
                // Panels go stale the moment replay starts writing; only a
                // fully successful supernodal pass leaves them coherent with
                // the column arrays again.
                va.panels_valid = false;
                for sn in 0..plan.count() {
                    let (k0, k1) = (plan.sn_ptr[sn], plan.sn_ptr[sn + 1]);
                    if !visit(k0, k1, ws) {
                        continue;
                    }
                    if k1 - k0 == 1 {
                        refactor_step(sym, a, k0, ws, va)?;
                        continue;
                    }
                    // Padded panel cells must read as exact zeros.
                    va.panels[plan.panel_ptr[sn]..plan.panel_ptr[sn + 1]].fill(0.0);
                    for k in k0..k1 {
                        refactor_step_blocked(sym, plan, a, k, ws, va)?;
                    }
                }
                va.panels_valid = true;
            }
            None => {
                for k in 0..sym.n {
                    if visit(k, k + 1, ws) {
                        refactor_step(sym, a, k, ws, va)?;
                    }
                }
            }
        }
        self.replayed_from = match prev {
            Some(mut p) => {
                p.values.copy_from_slice(a.values());
                Some(p)
            }
            None => ReplayRecord::of(a),
        };
        crate::verify::debug_auto_audit!(self.audit_values());
        Ok(replayed)
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `b.len()` differs from the
    /// system dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut work = Vec::new();
        let mut out = Vec::new();
        self.solve_into(b, &mut work, &mut out)?;
        Ok(out)
    }

    /// Solves `A x = b` into caller-provided buffers: on success `out`
    /// holds the solution. Both buffers are resized as needed, so hot loops
    /// (a transient simulation solving thousands of time steps) reuse their
    /// allocations. The forward/backward substitutions run through the
    /// dense supernode panels when a blocked plan is active, the panels
    /// mirror the factor, and the system is large enough to pay for it.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::solve`].
    pub fn solve_into(
        &self,
        b: &[f64],
        work: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        let va = &self.vals;
        let sym = &self.sym;
        if b.len() != sym.n {
            return Err(LinalgError::DimensionMismatch {
                expected: sym.n,
                found: b.len(),
            });
        }
        let plan = if va.panels_valid && sym.n >= SN_SOLVE_MIN_DIM {
            sym.blocked_plan()
        } else {
            None
        };
        // Blocks are solved last-to-first: the block-upper-triangular
        // permutation only couples a block to *earlier* ones, so each
        // block runs its own forward (L) and backward (U) substitution
        // and then scatters its raw cross-block `A_off` entries into the
        // still-pending right-hand side rows of earlier blocks.
        work.clear();
        work.extend_from_slice(b);
        out.clear();
        out.resize(sym.n, 0.0);
        let bp = &sym.block_ptr;
        for t in (0..bp.len() - 1).rev() {
            let (lo, hi) = (bp[t], bp[t + 1]);
            match plan {
                Some(plan) => {
                    self.block_forward_sn(va, plan, lo, hi, work, out);
                    self.block_backward_sn(va, plan, lo, hi, out);
                }
                None => {
                    // Forward solve L z = P b within the block; z (in
                    // `out`) indexed by pivot step.
                    for step in lo..hi {
                        let zk = work[sym.row_perm[step]];
                        out[step] = zk;
                        if zk != 0.0 {
                            for idx in sym.l_ptr[step]..sym.l_ptr[step + 1] {
                                work[sym.l_rows[idx]] -= zk * va.l[idx];
                            }
                        }
                    }
                    // Backward solve U y = z in place; U columns hold
                    // steps, diagonal last.
                    for step in (lo..hi).rev() {
                        let (ulo, uhi) = (sym.u_ptr[step], sym.u_ptr[step + 1]);
                        let yk = out[step] / va.u[uhi - 1];
                        out[step] = yk;
                        if yk != 0.0 {
                            for idx in ulo..(uhi - 1) {
                                out[sym.u_rows[idx]] -= yk * va.u[idx];
                            }
                        }
                    }
                }
            }
            // Apply the cross-block coupling: b' -= A_off · x_block, all
            // targets in earlier (not yet solved) blocks.
            for (step, &yk) in out.iter().enumerate().take(hi).skip(lo) {
                if yk != 0.0 {
                    for idx in sym.off_ptr[step]..sym.off_ptr[step + 1] {
                        work[sym.off_rows[idx]] -= va.off[idx] * yk;
                    }
                }
            }
        }
        // Undo the column permutation: x[q[k]] = y[k].
        for k in 0..sym.n {
            work[sym.q[k]] = out[k];
        }
        std::mem::swap(work, out);
        Ok(())
    }

    /// Supernode-aware forward substitution over one BTF block: singleton
    /// supernodes run the scalar per-entry update, multi-column supernodes
    /// solve their `w × w` unit-lower diagonal into a local dense vector
    /// and push it through the body panel with lane dot products — one
    /// contiguous read per body row instead of `w` strided scatters.
    fn block_forward_sn(
        &self,
        va: &ValueArrays,
        plan: &SupernodePlan,
        lo: usize,
        hi: usize,
        work: &mut [f64],
        out: &mut [f64],
    ) {
        let sym = &self.sym;
        let (s0, s1) = (plan.sn_of_step[lo], plan.sn_of_step[hi - 1] + 1);
        for sn in s0..s1 {
            let (k0, k1) = (plan.sn_ptr[sn], plan.sn_ptr[sn + 1]);
            let w = k1 - k0;
            if w == 1 {
                let zk = work[sym.row_perm[k0]];
                out[k0] = zk;
                if zk != 0.0 {
                    for idx in sym.l_ptr[k0]..sym.l_ptr[k0 + 1] {
                        work[sym.l_rows[idx]] -= zk * va.l[idx];
                    }
                }
                continue;
            }
            let pbase = plan.panel_ptr[sn];
            let rows = plan.body_rows(sn);
            let r_cnt = rows.len();
            let body = &va.panels[pbase..pbase + r_cnt * w];
            let ldiag = &va.panels[pbase + r_cnt * w..pbase + (r_cnt + w) * w];
            // Dense unit-lower solve of the supernode diagonal: member t
            // reads the pivot rows of b already updated by members < t
            // through the ldiag columns (padding cells are exact zeros).
            let mut z = [0.0f64; MAX_SN_WIDTH];
            for t in 0..w {
                let mut zk = work[sym.row_perm[k0 + t]];
                for (j, &zj) in z.iter().enumerate().take(t) {
                    zk -= zj * ldiag[j * w + t];
                }
                z[t] = zk;
                out[k0 + t] = zk;
            }
            for (i, &r) in rows.iter().enumerate() {
                work[r] -= dot_lanes(&body[i * w..(i + 1) * w], &z[..w]);
            }
        }
    }

    /// Supernode-aware backward substitution over one BTF block:
    /// multi-column supernodes resolve their within-supernode coupling
    /// through the dense `udiag` panel (descending members, contiguous
    /// column reads) and fire only the external prefix of each stored `U`
    /// column per entry.
    fn block_backward_sn(
        &self,
        va: &ValueArrays,
        plan: &SupernodePlan,
        lo: usize,
        hi: usize,
        out: &mut [f64],
    ) {
        let sym = &self.sym;
        let (s0, s1) = (plan.sn_of_step[lo], plan.sn_of_step[hi - 1] + 1);
        for sn in (s0..s1).rev() {
            let (k0, k1) = (plan.sn_ptr[sn], plan.sn_ptr[sn + 1]);
            let w = k1 - k0;
            if w == 1 {
                let (ulo, uhi) = (sym.u_ptr[k0], sym.u_ptr[k0 + 1]);
                let yk = out[k0] / va.u[uhi - 1];
                out[k0] = yk;
                if yk != 0.0 {
                    for idx in ulo..(uhi - 1) {
                        out[sym.u_rows[idx]] -= yk * va.u[idx];
                    }
                }
                continue;
            }
            let pbase = plan.panel_ptr[sn];
            let r_cnt = plan.body_rows(sn).len();
            let udiag = &va.panels[pbase + (r_cnt + w) * w..pbase + (r_cnt + 2 * w) * w];
            for t in (0..w).rev() {
                let k = k0 + t;
                let yk = out[k] / udiag[t * w + t];
                out[k] = yk;
                if yk != 0.0 {
                    // Within-supernode targets through the dense panel
                    // column (absent entries are exact zeros) ...
                    for i in 0..t {
                        out[k0 + i] -= yk * udiag[t * w + i];
                    }
                    // ... and the external prefix of the stored column
                    // (entries ascending; the own-supernode tail sits just
                    // before the diagonal).
                    let (ulo, uhi) = (sym.u_ptr[k], sym.u_ptr[k + 1]);
                    let mut ehi = uhi - 1;
                    while ehi > ulo && sym.u_rows[ehi - 1] >= k0 {
                        ehi -= 1;
                    }
                    for idx in ulo..ehi {
                        out[sym.u_rows[idx]] -= yk * va.u[idx];
                    }
                }
            }
        }
    }

    /// Solves `A X = B` for up to [`SparseLu::MAX_SOLVE_LANES`] right-hand
    /// sides in one L/U traversal. `b` is lane-interleaved — entry
    /// `b[row * k + lane]` is row `row` of right-hand side `lane` — and
    /// `out` receives the solutions in the same layout. One traversal
    /// loads every factor value exactly once and applies it to all `k`
    /// lanes, where `k` sequential [`SparseLu::solve_into`] calls would
    /// re-stream the factor `k` times; rank-k Woodbury pushes
    /// ([`crate::LowRankUpdate`]) are the primary caller.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `k` is zero or exceeds
    /// [`SparseLu::MAX_SOLVE_LANES`], or if `b.len() != n * k`.
    pub fn solve_multi_into(
        &self,
        b: &[f64],
        k: usize,
        work: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        match k {
            // A single lane is exactly the single-RHS layout.
            1 => self.solve_into(b, work, out),
            2 => self.solve_lanes::<2>(b, work, out),
            3 => self.solve_lanes::<3>(b, work, out),
            4 => self.solve_lanes::<4>(b, work, out),
            5 => self.solve_lanes::<5>(b, work, out),
            6 => self.solve_lanes::<6>(b, work, out),
            7 => self.solve_lanes::<7>(b, work, out),
            8 => self.solve_lanes::<8>(b, work, out),
            _ => Err(LinalgError::DimensionMismatch {
                expected: Self::MAX_SOLVE_LANES,
                found: k,
            }),
        }
    }

    /// Lane-count-monomorphized body of [`SparseLu::solve_multi_into`]:
    /// the exact structure of [`SparseLu::solve_into`] with every
    /// scalar replaced by a `[f64; K]` lane block, so each factor value is
    /// loaded once and broadcast across the lanes. Monomorphizing over `K`
    /// lets the compiler fully unroll the lane loops.
    fn solve_lanes<const K: usize>(
        &self,
        b: &[f64],
        work: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        let va = &self.vals;
        let sym = &self.sym;
        if b.len() != sym.n * K {
            return Err(LinalgError::DimensionMismatch {
                expected: sym.n * K,
                found: b.len(),
            });
        }
        let plan = if va.panels_valid && sym.n >= SN_SOLVE_MIN_DIM {
            sym.blocked_plan()
        } else {
            None
        };
        work.clear();
        work.extend_from_slice(b);
        out.clear();
        out.resize(sym.n * K, 0.0);
        let bp = &sym.block_ptr;
        for t in (0..bp.len() - 1).rev() {
            let (lo, hi) = (bp[t], bp[t + 1]);
            match plan {
                Some(plan) => {
                    self.block_forward_sn_multi::<K>(va, plan, lo, hi, work, out);
                    self.block_backward_sn_multi::<K>(va, plan, lo, hi, out);
                }
                None => {
                    for step in lo..hi {
                        let rp = sym.row_perm[step] * K;
                        let mut zk = [0.0f64; K];
                        zk.copy_from_slice(&work[rp..rp + K]);
                        out[step * K..step * K + K].copy_from_slice(&zk);
                        if zk.iter().any(|&z| z != 0.0) {
                            for idx in sym.l_ptr[step]..sym.l_ptr[step + 1] {
                                let lv = va.l[idx];
                                let r = sym.l_rows[idx] * K;
                                for (l, &z) in zk.iter().enumerate() {
                                    work[r + l] -= z * lv;
                                }
                            }
                        }
                    }
                    for step in (lo..hi).rev() {
                        let (ulo, uhi) = (sym.u_ptr[step], sym.u_ptr[step + 1]);
                        let d = va.u[uhi - 1];
                        let mut yk = [0.0f64; K];
                        for (l, y) in yk.iter_mut().enumerate() {
                            *y = out[step * K + l] / d;
                        }
                        out[step * K..step * K + K].copy_from_slice(&yk);
                        if yk.iter().any(|&y| y != 0.0) {
                            for idx in ulo..(uhi - 1) {
                                let uv = va.u[idx];
                                let r = sym.u_rows[idx] * K;
                                for (l, &y) in yk.iter().enumerate() {
                                    out[r + l] -= y * uv;
                                }
                            }
                        }
                    }
                }
            }
            // Cross-block coupling, per lane.
            for step in lo..hi {
                let mut yk = [0.0f64; K];
                yk.copy_from_slice(&out[step * K..step * K + K]);
                if yk.iter().any(|&v| v != 0.0) {
                    for idx in sym.off_ptr[step]..sym.off_ptr[step + 1] {
                        let ov = va.off[idx];
                        let r = sym.off_rows[idx] * K;
                        for (l, &y) in yk.iter().enumerate() {
                            work[r + l] -= ov * y;
                        }
                    }
                }
            }
        }
        // Undo the column permutation lane-block-wise: x[q[k]] = y[k].
        for kk in 0..sym.n {
            let (src, dst) = (kk * K, sym.q[kk] * K);
            work[dst..dst + K].copy_from_slice(&out[src..src + K]);
        }
        std::mem::swap(work, out);
        Ok(())
    }

    /// Multi-lane twin of [`SparseLu::block_forward_sn`]: the supernode
    /// diagonal solve and the body-panel push each read a panel cell once
    /// and apply it to all `K` lanes of the local `z` block.
    fn block_forward_sn_multi<const K: usize>(
        &self,
        va: &ValueArrays,
        plan: &SupernodePlan,
        lo: usize,
        hi: usize,
        work: &mut [f64],
        out: &mut [f64],
    ) {
        let sym = &self.sym;
        let (s0, s1) = (plan.sn_of_step[lo], plan.sn_of_step[hi - 1] + 1);
        for sn in s0..s1 {
            let (k0, k1) = (plan.sn_ptr[sn], plan.sn_ptr[sn + 1]);
            let w = k1 - k0;
            if w == 1 {
                let rp = sym.row_perm[k0] * K;
                let mut zk = [0.0f64; K];
                zk.copy_from_slice(&work[rp..rp + K]);
                out[k0 * K..k0 * K + K].copy_from_slice(&zk);
                if zk.iter().any(|&z| z != 0.0) {
                    for idx in sym.l_ptr[k0]..sym.l_ptr[k0 + 1] {
                        let lv = va.l[idx];
                        let r = sym.l_rows[idx] * K;
                        for (l, &z) in zk.iter().enumerate() {
                            work[r + l] -= z * lv;
                        }
                    }
                }
                continue;
            }
            let pbase = plan.panel_ptr[sn];
            let rows = plan.body_rows(sn);
            let r_cnt = rows.len();
            let body = &va.panels[pbase..pbase + r_cnt * w];
            let ldiag = &va.panels[pbase + r_cnt * w..pbase + (r_cnt + w) * w];
            let mut z = [[0.0f64; K]; MAX_SN_WIDTH];
            for t in 0..w {
                let rp = sym.row_perm[k0 + t] * K;
                let mut zk = [0.0f64; K];
                zk.copy_from_slice(&work[rp..rp + K]);
                for (j, zj) in z.iter().enumerate().take(t) {
                    let c = ldiag[j * w + t];
                    if c != 0.0 {
                        for (l, &zv) in zj.iter().enumerate() {
                            zk[l] -= zv * c;
                        }
                    }
                }
                z[t] = zk;
                out[(k0 + t) * K..(k0 + t) * K + K].copy_from_slice(&zk);
            }
            for (i, &r) in rows.iter().enumerate() {
                let arow = &body[i * w..(i + 1) * w];
                let mut acc = [0.0f64; K];
                for (j, aj) in arow.iter().enumerate() {
                    let av = aj;
                    for (l, a) in acc.iter_mut().enumerate() {
                        *a += av * z[j][l];
                    }
                }
                let rb = r * K;
                for (l, &a) in acc.iter().enumerate() {
                    work[rb + l] -= a;
                }
            }
        }
    }

    /// Multi-lane twin of [`SparseLu::block_backward_sn`]: descending
    /// members resolve within-supernode coupling through the dense `udiag`
    /// panel, firing each external `U` entry once across all `K` lanes.
    fn block_backward_sn_multi<const K: usize>(
        &self,
        va: &ValueArrays,
        plan: &SupernodePlan,
        lo: usize,
        hi: usize,
        out: &mut [f64],
    ) {
        let sym = &self.sym;
        let (s0, s1) = (plan.sn_of_step[lo], plan.sn_of_step[hi - 1] + 1);
        for sn in (s0..s1).rev() {
            let (k0, k1) = (plan.sn_ptr[sn], plan.sn_ptr[sn + 1]);
            let w = k1 - k0;
            if w == 1 {
                let (ulo, uhi) = (sym.u_ptr[k0], sym.u_ptr[k0 + 1]);
                let d = va.u[uhi - 1];
                let mut yk = [0.0f64; K];
                for (l, y) in yk.iter_mut().enumerate() {
                    *y = out[k0 * K + l] / d;
                }
                out[k0 * K..k0 * K + K].copy_from_slice(&yk);
                if yk.iter().any(|&y| y != 0.0) {
                    for idx in ulo..(uhi - 1) {
                        let uv = va.u[idx];
                        let r = sym.u_rows[idx] * K;
                        for (l, &y) in yk.iter().enumerate() {
                            out[r + l] -= y * uv;
                        }
                    }
                }
                continue;
            }
            let pbase = plan.panel_ptr[sn];
            let r_cnt = plan.body_rows(sn).len();
            let udiag = &va.panels[pbase + (r_cnt + w) * w..pbase + (r_cnt + 2 * w) * w];
            for t in (0..w).rev() {
                let k = k0 + t;
                let d = udiag[t * w + t];
                let mut yk = [0.0f64; K];
                for (l, y) in yk.iter_mut().enumerate() {
                    *y = out[k * K + l] / d;
                }
                out[k * K..k * K + K].copy_from_slice(&yk);
                if yk.iter().any(|&y| y != 0.0) {
                    for i in 0..t {
                        let c = udiag[t * w + i];
                        if c != 0.0 {
                            let rb = (k0 + i) * K;
                            for (l, &y) in yk.iter().enumerate() {
                                out[rb + l] -= y * c;
                            }
                        }
                    }
                    let (ulo, uhi) = (sym.u_ptr[k], sym.u_ptr[k + 1]);
                    let mut ehi = uhi - 1;
                    while ehi > ulo && sym.u_rows[ehi - 1] >= k0 {
                        ehi -= 1;
                    }
                    for idx in ulo..ehi {
                        let uv = va.u[idx];
                        let r = sym.u_rows[idx] * K;
                        for (l, &y) in yk.iter().enumerate() {
                            out[r + l] -= y * uv;
                        }
                    }
                }
            }
        }
    }

    /// Solves `A x = b`, then applies one step of iterative refinement
    /// against the original matrix `a`: the residual `b - A x` is solved
    /// through the factor and the correction added to `x`.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::solve`].
    pub fn solve_refined(&self, a: &CscMatrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut ws = LuWorkspace::new();
        let mut x = Vec::new();
        self.solve_refined_with(a, b, &mut ws, &mut x)?;
        Ok(x)
    }

    /// [`SparseLu::solve_refined`] into caller-provided buffers: the
    /// residual and correction scratch live in `ws` (pooled across calls)
    /// and `out` receives the refined solution, so refined hot-loop solves
    /// stay allocation-free.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::solve`].
    pub fn solve_refined_with(
        &self,
        a: &CscMatrix,
        b: &[f64],
        ws: &mut LuWorkspace,
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        self.solve_into(b, &mut ws.rwork, out)?;
        a.mul_vec_into(out, &mut ws.resid);
        for (ri, bi) in ws.resid.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        self.solve_into(&ws.resid, &mut ws.rwork, &mut ws.corr)?;
        crate::vecops::axpy(1.0, &ws.corr, out);
        Ok(())
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Total stored entries in `L`, `U` and the raw cross-block
    /// off-diagonal values (a fill-in / storage metric comparable across
    /// orderings).
    pub fn factor_nnz(&self) -> usize {
        self.vals.l.len() + self.vals.u.len() + self.vals.off.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn solve_dense_reference(t: &TripletMatrix, b: &[f64]) -> Vec<f64> {
        use crate::DenseMatrix;
        let csr = t.to_csr();
        let mut d = DenseMatrix::zeros(csr.rows(), csr.cols());
        for r in 0..csr.rows() {
            for (c, v) in csr.row(r) {
                d[(r, c)] += v;
            }
        }
        d.solve(b).expect("reference solve")
    }

    #[test]
    fn diagonal_system() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 1, 4.0);
        t.push(2, 2, -8.0);
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        let x = lu.solve(&[2.0, 4.0, 8.0]).unwrap();
        assert_eq!(x, vec![1.0, 1.0, -1.0]);
    }

    #[test]
    fn matches_dense_reference_on_random_systems() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..25 {
            let n = 2 + (trial % 12);
            let mut t = TripletMatrix::new(n, n);
            for i in 0..n {
                t.push(
                    i,
                    i,
                    rng.gen_range(1.0..4.0) * if rng.gen_bool(0.3) { -1.0 } else { 1.0 },
                );
            }
            for _ in 0..(2 * n) {
                let i = rng.gen_range(0..n);
                let j = rng.gen_range(0..n);
                t.push(i, j, rng.gen_range(-1.0..1.0) * 0.4);
            }
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let lu = SparseLu::factor(&t.to_csc()).unwrap();
            let x = lu.solve(&b).unwrap();
            let xref = solve_dense_reference(&t, &b);
            for (a, r) in x.iter().zip(&xref) {
                assert!((a - r).abs() < 1e-8, "trial {trial}: {a} vs {r}");
            }
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 2.0);
        t.push(1, 1, 4.0);
        assert!(matches!(
            SparseLu::factor(&t.to_csc()),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn structurally_singular_detected() {
        // Empty column.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        assert!(SparseLu::factor(&t.to_csc()).is_err());
    }

    #[test]
    fn needs_row_pivoting() {
        // Zero diagonal forces off-diagonal pivot.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        let x = lu.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    /// The single-block reference orderings the tests factor under: the
    /// identity, exact minimum degree, AMD and a fixed scramble (the last
    /// column first, then the rest in order).
    fn reference_orderings(a: &CscMatrix) -> Vec<(&'static str, BlockOrdering)> {
        let n = a.cols();
        let scramble = (0..n).map(|k| (k + n - 1) % n).collect();
        vec![
            ("identity", BlockOrdering::single_block((0..n).collect())),
            (
                "min-degree",
                BlockOrdering::single_block(crate::min_degree_ordering(a)),
            ),
            ("amd", BlockOrdering::single_block(crate::amd_ordering(a))),
            ("scramble", BlockOrdering::single_block(scramble)),
        ]
    }

    #[test]
    fn all_orderings_agree() {
        let mut t = TripletMatrix::new(5, 5);
        for i in 0..5 {
            t.push(i, i, 3.0);
        }
        for i in 0..4 {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
        let b = [1.0, 2.0, 3.0, 4.0, 5.0];
        let csc = t.to_csc();
        let xref = solve_dense_reference(&t, &b);
        for (name, ord) in reference_orderings(&csc) {
            let x = SparseLu::factor_ordered(&csc, ord, &SparseLuOptions::default())
                .unwrap()
                .solve(&b)
                .unwrap();
            for (a, r) in x.iter().zip(&xref) {
                assert!((a - r).abs() < 1e-10, "{name}");
            }
        }
    }

    #[test]
    fn refinement_reduces_residual() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1.0000001);
        let csc = t.to_csc();
        let lu = SparseLu::factor(&csc).unwrap();
        let b = [2.0, 2.0000001];
        let x = lu.solve_refined(&csc, &b).unwrap();
        let ax = csc.mul_vec(&x);
        assert!((ax[0] - b[0]).abs() < 1e-9 && (ax[1] - b[1]).abs() < 1e-9);
    }

    #[test]
    fn large_grid_system() {
        // 2-D resistor-grid Laplacian + identity: well-conditioned, sparse.
        let side = 20;
        let n = side * side;
        let mut t = TripletMatrix::new(n, n);
        let id = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                let me = id(r, c);
                let mut deg = 1.0; // +1 keeps it nonsingular
                let mut nbrs = Vec::new();
                if r > 0 {
                    nbrs.push(id(r - 1, c));
                }
                if r + 1 < side {
                    nbrs.push(id(r + 1, c));
                }
                if c > 0 {
                    nbrs.push(id(r, c - 1));
                }
                if c + 1 < side {
                    nbrs.push(id(r, c + 1));
                }
                for &nb in &nbrs {
                    t.push(me, nb, -1.0);
                    deg += 1.0;
                }
                t.push(me, me, deg);
            }
        }
        let csc = t.to_csc();
        let b = vec![1.0; n];
        let lu = SparseLu::factor(&csc).unwrap();
        let x = lu.solve(&b).unwrap();
        let ax = csc.mul_vec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-9);
        }
        // Fill-in should stay modest relative to the dense n^2.
        assert!(lu.factor_nnz() < n * n / 4);
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..20 {
            let n = 3 + (trial % 10);
            // Fixed pattern, two value assignments.
            let mut pos: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
            for _ in 0..(2 * n) {
                pos.push((rng.gen_range(0..n), rng.gen_range(0..n)));
            }
            let fill = |rng: &mut StdRng| {
                let mut t = TripletMatrix::new(n, n);
                for (k, &(i, j)) in pos.iter().enumerate() {
                    let v = if k < n {
                        rng.gen_range(2.0..5.0) * if rng.gen_bool(0.3) { -1.0 } else { 1.0 }
                    } else {
                        rng.gen_range(-0.5..0.5)
                    };
                    t.push(i, j, v);
                }
                t
            };
            let a1 = fill(&mut rng).to_csc();
            let a2 = fill(&mut rng).to_csc();
            let mut lu = SparseLu::factor(&a1).unwrap();
            lu.refactor(&a2).unwrap();
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let x = lu.solve(&b).unwrap();
            let ax = a2.mul_vec(&x);
            for (ai, bi) in ax.iter().zip(&b) {
                assert!(
                    (ai - bi).abs() < 1e-8,
                    "trial {trial}: residual {}",
                    ai - bi
                );
            }
        }
    }

    #[test]
    fn symbolic_numeric_matches_fresh_factorization() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let n = 12;
        let mut pos: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
        for _ in 0..(3 * n) {
            pos.push((rng.gen_range(0..n), rng.gen_range(0..n)));
        }
        let fill = |rng: &mut StdRng| {
            let mut t = TripletMatrix::new(n, n);
            for (k, &(i, j)) in pos.iter().enumerate() {
                let v = if k < n {
                    rng.gen_range(2.0..5.0)
                } else {
                    rng.gen_range(-0.4..0.4)
                };
                t.push(i, j, v);
            }
            t.to_csc()
        };
        let a1 = fill(&mut rng);
        let base = SparseLu::factor(&a1).unwrap();
        let sym = Arc::clone(base.symbolic());
        for _ in 0..5 {
            let a2 = fill(&mut rng);
            let lu = SymbolicLu::numeric(&sym, &a2).unwrap();
            // Sibling factors share the symbolic plan by pointer.
            assert!(Arc::ptr_eq(lu.symbolic(), &sym));
            let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let x = lu.solve(&b).unwrap();
            let x_ref = SparseLu::factor(&a2).unwrap().solve(&b).unwrap();
            for (a, r) in x.iter().zip(&x_ref) {
                assert!((a - r).abs() < 1e-9, "{a} vs {r}");
            }
        }
    }

    #[test]
    fn refactor_survives_exact_cancellation_in_original_factor() {
        // Elimination of this matrix cancels a fill entry to exactly 0.0.
        // The stored structure must still contain that position, or a
        // refactorization with different values silently skips the update
        // path through it and yields a wrong (but non-erroring) factor.
        let entries = [
            (0, 0, 3.0),
            (0, 3, -1.0),
            (1, 1, 3.0),
            (1, 3, 1.0),
            (2, 0, -1.0),
            (2, 1, -1.0),
            (2, 2, 2.0),
            (3, 3, 3.0),
        ];
        let fill = |scale: &dyn Fn(usize) -> f64| {
            let mut t = TripletMatrix::new(4, 4);
            for (i, &(r, c, v)) in entries.iter().enumerate() {
                t.push(r, c, v * scale(i));
            }
            t.to_csc()
        };
        let a1 = fill(&|_| 1.0);
        // Perturb every entry differently so any skipped update shows up.
        let a2 = fill(&|i| 1.0 + 0.1 * (i as f64 + 1.0));
        let opts = SparseLuOptions::default();
        for (name, ordering) in reference_orderings(&a1) {
            let mut lu = SparseLu::factor_ordered(&a1, ordering.clone(), &opts).unwrap();
            lu.refactor(&a2).unwrap();
            let b = [1.0, -2.0, 3.0, -4.0];
            let x = lu.solve(&b).unwrap();
            let x_ref = SparseLu::factor_ordered(&a2, ordering, &opts)
                .unwrap()
                .solve(&b)
                .unwrap();
            for (a, r) in x.iter().zip(&x_ref) {
                assert!((a - r).abs() < 1e-12, "{name}: {a} vs {r}");
            }
        }
    }

    #[test]
    fn refactor_rejects_new_pattern() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 2, 4.0);
        let mut lu = SparseLu::factor(&t.to_csc()).unwrap();
        t.push(0, 2, 1.0); // outside the factorized pattern
        assert!(matches!(
            lu.refactor(&t.to_csc()),
            Err(LinalgError::PatternChanged { .. })
        ));
    }

    #[test]
    fn refactor_subset_pattern_is_allowed() {
        // Dropping an entry (structural zero) keeps the factorization valid.
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 2, 4.0);
        t.push(0, 2, 1.0);
        t.push(2, 0, 0.5);
        let csc = t.to_csc();
        let mut lu = SparseLu::factor(&csc).unwrap();
        let mut t2 = TripletMatrix::new(3, 3);
        t2.push(0, 0, 5.0);
        t2.push(1, 1, 6.0);
        t2.push(2, 2, 7.0);
        let csc2 = t2.to_csc();
        lu.refactor(&csc2).unwrap();
        let x = lu.solve(&[5.0, 12.0, 21.0]).unwrap();
        for (xi, e) in x.iter().zip(&[1.0, 2.0, 3.0]) {
            assert!((xi - e).abs() < 1e-12);
        }
    }

    #[test]
    fn refactor_detects_collapsed_pivot() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let mut lu = SparseLu::factor(&t.to_csc()).unwrap();
        let mut t2 = TripletMatrix::new(2, 2);
        t2.push(0, 0, 0.0);
        t2.push(1, 1, 1.0);
        assert!(matches!(
            lu.refactor(&t2.to_csc()),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn refactor_with_reuses_workspace() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 2, 4.0);
        t.push(0, 2, 1.0);
        let csc = t.to_csc();
        let mut lu = SparseLu::factor(&csc).unwrap();
        let mut ws = LuWorkspace::new();
        for scale in [1.5, 2.0, 3.0] {
            let mut t2 = TripletMatrix::new(3, 3);
            t2.push(0, 0, 2.0 * scale);
            t2.push(1, 1, 3.0 * scale);
            t2.push(2, 2, 4.0 * scale);
            t2.push(0, 2, scale);
            let a = t2.to_csc();
            lu.refactor_with(&a, &mut ws).unwrap();
            let x = lu.solve(&[2.0 * scale, 3.0 * scale, 4.0 * scale]).unwrap();
            let ax = a.mul_vec(&x);
            for (ai, bi) in ax.iter().zip(&[2.0 * scale, 3.0 * scale, 4.0 * scale]) {
                assert!((ai - bi).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn solve_into_reuses_buffers() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 4.0);
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        let (mut work, mut out) = (Vec::new(), Vec::new());
        lu.solve_into(&[2.0, 4.0], &mut work, &mut out).unwrap();
        assert_eq!(out, vec![1.0, 1.0]);
        lu.solve_into(&[4.0, 8.0], &mut work, &mut out).unwrap();
        assert_eq!(out, vec![2.0, 2.0]);
    }

    #[test]
    fn sort_paired_matches_insertion_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let mut perm = Vec::new();
        for len in [0usize, 1, 2, 3, 7, 30, 200] {
            // Distinct keys, as in a U column segment.
            let mut keys: Vec<usize> = (0..len).map(|i| i * 3 + 1).collect();
            for i in (1..len).rev() {
                let j = rng.gen_range(0..=i);
                keys.swap(i, j);
            }
            let vals: Vec<f64> = (0..len).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let (mut k1, mut v1) = (keys.clone(), vals.clone());
            let (mut k2, mut v2) = (keys, vals);
            sort_paired(&mut k1, &mut v1, &mut perm);
            sort_paired_insertion(&mut k2, &mut v2);
            assert_eq!(k1, k2, "len {len}");
            assert_eq!(v1, v2, "len {len}");
        }
    }

    #[test]
    fn dimension_mismatch_on_solve() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let lu = SparseLu::factor(&t.to_csc()).unwrap();
        assert!(matches!(
            lu.solve(&[1.0]),
            Err(LinalgError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    /// Three coupled 3-cycles: strongly connected components {0,1,2},
    /// {3,4,5}, {6,7,8} with one-way coupling later → earlier, so the BTF
    /// ordering yields three diagonal blocks with nonempty `A_off`.
    /// Values scale with `scale` so refactor tests can reuse the pattern.
    fn three_block_system(scale: f64) -> TripletMatrix {
        let mut t = TripletMatrix::new(9, 9);
        for blk in 0..3usize {
            let base = 3 * blk;
            for i in 0..3 {
                t.push(
                    base + i,
                    base + i,
                    (4.0 + blk as f64 + i as f64 * 0.5) * scale,
                );
                t.push(
                    base + i,
                    base + (i + 1) % 3,
                    (-1.0 - i as f64 * 0.25) * scale,
                );
            }
        }
        // Cross-block entries (rows of earlier SCCs, columns of later).
        t.push(0, 3, 0.7 * scale);
        t.push(1, 4, -0.3 * scale);
        t.push(2, 6, 1.1 * scale);
        t.push(4, 7, 0.9 * scale);
        t.push(5, 8, -0.6 * scale);
        // A duplicate coordinate: off storage must accumulate, not dupe.
        t.push(0, 3, 0.05 * scale);
        t
    }

    #[test]
    fn multiblock_factor_stores_raw_off_values_and_solves() {
        let t = three_block_system(1.0);
        let a = t.to_csc();
        let lu = SparseLu::factor(&a).unwrap();
        let sym = lu.symbolic();
        assert!(sym.block_count() > 1, "expected a multi-block BTF");
        assert!(sym.off_nnz() > 0, "expected cross-block entries");
        // Off entries always target rows pivoted in earlier blocks.
        for s in 0..lu.dim() {
            let t_blk = sym.block_ptr().partition_point(|&p| p <= s) - 1;
            for &r in sym.off_column_rows(s) {
                assert!(
                    sym.pinv[r] < sym.block_ptr()[t_blk],
                    "off row inside own block"
                );
            }
        }
        let b: Vec<f64> = (0..9).map(|i| (i as f64 * 1.3).cos()).collect();
        let x = lu.solve(&b).unwrap();
        let x_ref = solve_dense_reference(&t, &b);
        for (xi, ri) in x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-12, "{xi} vs {ri}");
        }
    }

    #[test]
    fn multiblock_refactor_replays_off_values() {
        let t = three_block_system(1.0);
        let a = t.to_csc();
        let base = SparseLu::factor(&a).unwrap();
        assert!(base.symbolic().block_count() > 1);
        // Same pattern, different values (off entries included).
        let t2 = three_block_system(1.5);
        let a2 = t2.to_csc();
        let mut ws = LuWorkspace::new();
        let mut lu = base.clone();
        lu.refactor_with(&a2, &mut ws).unwrap();
        let b: Vec<f64> = (0..9).map(|i| 1.0 + i as f64).collect();
        let x = lu.solve(&b).unwrap();
        let x_ref = solve_dense_reference(&t2, &b);
        for (xi, ri) in x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-12, "{xi} vs {ri}");
        }
    }

    /// Every value bit of a factor: `L`, `U`, off-diagonal, panels.
    fn value_bits(lu: &SparseLu) -> Vec<u64> {
        let va = &lu.vals;
        [&va.l, &va.u, &va.off, &va.panels]
            .into_iter()
            .flatten()
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn replay_rewrites_only_the_dirty_closure() {
        let a = three_block_system(1.0).to_csc();
        let base = SparseLu::factor(&a).unwrap();
        let sym = Arc::clone(base.symbolic());
        let n = base.dim();
        let mut ws = LuWorkspace::new();
        let mut lu = base.clone();
        // The first replay after a pivoting factorization is full; an
        // unchanged matrix then replays nothing.
        assert_eq!(lu.replay(&a, &mut ws).unwrap(), n);
        assert_eq!(lu.replay(&a, &mut ws).unwrap(), 0);
        for col in 0..n {
            let mut a2 = a.clone();
            let (cp, _, vals) = a2.pattern_values_mut();
            vals[cp[col]] *= 1.25;
            let mut dirty = lu.clone();
            let replayed = dirty.replay(&a2, &mut ws).unwrap();
            let mut full = base.clone();
            assert_eq!(full.replay(&a2, &mut ws).unwrap(), n);
            assert_eq!(value_bits(&dirty), value_bits(&full), "column {col}");
            // `U` never crosses a diagonal block, so the closure of one
            // column (with whole supernodes) stays inside its block.
            let step = sym.q.iter().position(|&c| c == col).unwrap();
            let t = sym.block_ptr.partition_point(|&p| p <= step) - 1;
            assert!(
                (1..=sym.block_range(t).len()).contains(&replayed),
                "column {col}: {replayed} steps replayed"
            );
        }
    }

    #[test]
    fn replay_after_failure_or_pattern_change_is_full() {
        let diag = |d0: f64| {
            let mut t = TripletMatrix::new(2, 2);
            t.push(0, 0, d0);
            t.push(1, 1, 1.0);
            t.push(0, 1, 0.5);
            t.to_csc()
        };
        let a = diag(2.0);
        let mut lu = SparseLu::factor(&a).unwrap();
        let mut ws = LuWorkspace::new();
        assert_eq!(lu.replay(&a, &mut ws).unwrap(), 2);
        // A collapsed pivot fails partway and leaves no record: the values
        // are part-overwritten, so the next replay must rewrite them all.
        assert!(lu.replay(&diag(0.0), &mut ws).is_err());
        assert_eq!(lu.replay(&a, &mut ws).unwrap(), 2);
        let x = lu.solve(&[2.5, 1.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15 && (x[1] - 1.0).abs() < 1e-15);
        // A subset pattern is a different pattern: full again.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 2.0);
        t.push(1, 1, 1.0);
        assert_eq!(lu.replay(&t.to_csc(), &mut ws).unwrap(), 2);
    }

    #[test]
    fn factor_ordered_rejects_malformed_orderings() {
        let a = three_block_system(1.0).to_csc();
        let opts = SparseLuOptions::default();
        let good = BlockOrdering::single_block((0..9).collect());
        SparseLu::factor_ordered(&a, good.clone(), &opts).expect("well-formed ordering");
        let with = |edit: &dyn Fn(&mut BlockOrdering)| {
            let mut ord = good.clone();
            edit(&mut ord);
            ord
        };
        let cases = [
            ("perm too short", with(&|o| o.perm.truncate(8))),
            ("perm out of range", with(&|o| o.perm[4] = 9)),
            ("perm duplicate", with(&|o| o.perm[4] = 3)),
            ("block_ptr empty", with(&|o| o.block_ptr.clear())),
            ("block_ptr not from 0", with(&|o| o.block_ptr[0] = 1)),
            ("block_ptr not to n", with(&|o| o.block_ptr[1] = 8)),
            ("block_ptr past n", with(&|o| o.block_ptr[1] = 10)),
            ("block_ptr repeat", with(&|o| o.block_ptr.insert(1, 0))),
            (
                "block_ptr decreasing",
                with(&|o| o.block_ptr = vec![0, 5, 3, 9]),
            ),
            ("diag_rows too long", with(&|o| o.diag_rows.push(0))),
            ("diag_rows out of range", with(&|o| o.diag_rows[2] = 9)),
        ];
        for (name, ord) in cases {
            assert!(
                matches!(
                    SparseLu::factor_ordered(&a, ord, &opts),
                    Err(LinalgError::DimensionMismatch { .. })
                ),
                "{name}"
            );
        }
        // Non-square input is reported before the ordering is looked at.
        let mut t = TripletMatrix::new(2, 3);
        t.push(0, 0, 1.0);
        assert!(matches!(
            SparseLu::factor_ordered(&t.to_csc(), good, &opts),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
