//! Left-looking (Gilbert–Peierls) sparse LU with threshold partial pivoting,
//! split into a shareable symbolic analysis and per-thread numeric factors.
//!
//! This is the solver behind every DC operating point and every transient
//! time step of the circuit simulator. It factors `A(:, q) = Pᵀ L U` where
//! `q` is a fill-reducing column ordering and `P` is the row permutation
//! chosen by pivoting. The algorithm follows Gilbert & Peierls (1988): for
//! each column, a depth-first search over the structure of the already
//! computed part of `L` predicts the nonzero pattern; the updates are
//! applied in ascending step order, the numeric replay's order, so a
//! factor's values are bitwise a replay of its own input.
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
//!
//! A diagonal block may end in a *dense trailing core* ([`DenseCores`]) of
//! two steps or more: the nested tail where the fill concentrates. Its
//! values live in one dense array, and the pivoting factorization, the
//! replay and the solves run it as a dense LU with the per-entry kernels'
//! arithmetic, so results are bitwise those of a purely sparse factor. A
//! 1-step block stays a sparse step and solves as one divide.

use std::sync::Arc;

use crate::dense::{core_backward, core_column_update, core_forward};
use crate::ordering::{amd_btf_ordering, BlockOrdering};
use crate::{CscMatrix, LinalgError};

pub(crate) const NO_PIVOT: usize = usize::MAX;

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

/// Shared prologue of the sparse and core replay steps: zeroes the
/// workspace over step `k`'s factorized pattern — the rows of the pivot
/// steps `u_steps`, the pivot row and `rows` — and the step's off-diagonal
/// slots, then scatters `a`'s column into them.
fn scatter_step_column(
    sym: &SymbolicLu,
    a: &CscMatrix,
    k: usize,
    (u_steps, rows): (&[usize], &[usize]),
    ws: &mut LuWorkspace,
    off: &mut [f64],
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
    let pivot_row = sym.row_perm[k];
    let pattern = u_steps.iter().map(|&s| sym.row_perm[s]);
    for r in pattern.chain([pivot_row]).chain(rows.iter().copied()) {
        stamp[r] = k;
        x[r] = 0.0;
    }
    // Zero the step's off-diagonal slots (rows of earlier blocks, kept as
    // raw values applied at solve time — disjoint from the in-pattern
    // rows, which all live in this step's own block).
    let span = sym.off_ptr[k]..sym.off_ptr[k + 1];
    for (idx, &r) in span.clone().zip(&sym.off_rows[span.clone()]) {
        off_stamp[r] = k;
        off_slot[r] = idx;
    }
    off[span].fill(0.0);

    // Scatter the new values; anything outside the pattern means the
    // symbolic factorization no longer applies.
    for (r, v) in a.col(col) {
        if stamp[r] == k {
            x[r] += v;
        } else if off_stamp[r] == k {
            off[off_slot[r]] += v;
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
/// from it. `L(:, s)` must already be final and stored sparse.
#[inline]
fn scalar_update(
    sym: &SymbolicLu,
    idx: usize,
    k: usize,
    ws: &mut LuWorkspace,
    (l, u): (&[f64], &mut [f64]),
) {
    let s = sym.u_rows[idx];
    // Stamp-generation freshness: the dependency's pivot row was stamped
    // for *this* step by the scatter prologue — a stale stamp means the
    // stored closure is not closed under the updates and the subtraction
    // below would corrupt a neighbouring column.
    debug_assert_eq!(ws.stamp[sym.row_perm[s]], k);
    let xval = ws.x[sym.row_perm[s]];
    u[idx] = xval;
    if xval != 0.0 {
        let (lo, hi) = (sym.l_ptr[s], sym.l_ptr[s + 1]);
        for (&r, &lv) in sym.l_rows[lo..hi].iter().zip(&l[lo..hi]) {
            debug_assert_eq!(ws.stamp[r], k);
            ws.x[r] -= xval * lv;
        }
    }
}

/// The frozen-pivot test shared by every replay step: the pivot of step
/// `k` must be finite, nonzero and at least `1e-10` of its column's
/// largest magnitude `col_max` (the pivot's own included).
fn check_pivot(sym: &SymbolicLu, k: usize, pivot: f64, col_max: f64) -> Result<(), LinalgError> {
    if !pivot.is_finite() || pivot == 0.0 || pivot.abs() < 1e-10 * col_max {
        return Err(LinalgError::Singular { column: sym.q[k] });
    }
    Ok(())
}

/// Replays the numeric elimination of sparse pivot step `k` against the
/// values of `a`: scatters `a`'s column into the workspace (in-pattern
/// rows) and the step's off-diagonal slots (rows pivoted in earlier
/// blocks), applies the updates of every off-diagonal step in `U(:, k)`
/// in ascending (topological) order, checks the frozen pivot and writes
/// this step's `U` and `L` value segments. Every dependency step must be
/// replayed already.
fn refactor_step(
    sym: &SymbolicLu,
    a: &CscMatrix,
    k: usize,
    ws: &mut LuWorkspace,
    va: &mut ValueArrays,
) -> Result<(), LinalgError> {
    let (ulo, uhi) = (sym.u_ptr[k], sym.u_ptr[k + 1]);
    let (llo, lhi) = (sym.l_ptr[k], sym.l_ptr[k + 1]);
    let pattern = (&sym.u_rows[ulo..uhi - 1], &sym.l_rows[llo..lhi]);
    scatter_step_column(sym, a, k, pattern, ws, &mut va.off)?;
    // U entries are stored in ascending pivot-step order, which is a
    // topological order of the dependencies (L column `s` only touches
    // rows pivoted after `s`), so x[row_perm[s]] is final when step `s` is
    // applied.
    for idx in ulo..uhi - 1 {
        scalar_update(sym, idx, k, ws, (&va.l, &mut va.u));
    }
    let x = &ws.x;
    let pivot = x[sym.row_perm[k]];
    let col_max = sym.l_rows[llo..lhi]
        .iter()
        .fold(pivot.abs(), |m, &r| m.max(x[r].abs()));
    check_pivot(sym, k, pivot, col_max)?;
    va.u[uhi - 1] = pivot;
    for (lv, &r) in va.l[llo..lhi].iter_mut().zip(&sym.l_rows[llo..lhi]) {
        *lv = x[r] / pivot;
    }
    Ok(())
}

/// Replays the dense core of block `t`, left-looking, column by column.
/// Each column scatters `a`, applies its sparse pre-core updates in
/// ascending source order through the workspace, gathers its in-pattern
/// core rows into its dense column, applies the in-core updates in
/// ascending source order ([`core_column_update`]), then runs the
/// frozen-pivot test and divides. Per entry this is the operation
/// sequence of [`refactor_step`] on the same column, so the values are
/// bitwise those of the sparse replay.
fn refactor_core(
    sym: &SymbolicLu,
    t: usize,
    a: &CscMatrix,
    ws: &mut LuWorkspace,
    va: &mut ValueArrays,
) -> Result<(), LinalgError> {
    let ValueArrays { l, u, off, core } = va;
    let (c0, hi) = (sym.cores.start[t], sym.block_ptr[t + 1]);
    let c = hi - c0;
    let rows = &sym.row_perm[c0..hi];
    let dense = &mut core[sym.cores.val_ptr[t]..sym.cores.val_ptr[t + 1]];
    for j in 0..c {
        let k = c0 + j;
        let head = sym.cores.head[k] as usize;
        let (ulo, uhi) = (sym.u_ptr[k], sym.u_ptr[k + 1]);
        scatter_step_column(sym, a, k, (&sym.u_rows[ulo..uhi], &rows[head..]), ws, off)?;
        for idx in ulo..uhi {
            scalar_update(sym, idx, k, ws, (l, u));
        }
        let (done, rest) = dense.split_at_mut(j * c);
        let col = &mut rest[..c];
        for (v, &r) in col[head..].iter_mut().zip(&rows[head..]) {
            *v = ws.x[r];
        }
        core_column_update(done, col, j, head);
        let pivot = col[j];
        let col_max = col[j + 1..].iter().fold(pivot.abs(), |m, v| m.max(v.abs()));
        check_pivot(sym, k, pivot, col_max)?;
        for v in &mut col[j + 1..] {
            *v /= pivot;
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
}

impl Default for SparseLuOptions {
    fn default() -> Self {
        SparseLuOptions {
            pivot_threshold: 0.1,
        }
    }
}

/// Reusable scratch for the numeric factorization replay
/// ([`SparseLu::refactor_with`]). Hot loops (a template fanning out
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
    /// The sparse part of `L`, by columns (unit diagonal implicit); row
    /// indices are *original* row ids. Steps of a dense core store no
    /// entries here: their `L` lives in [`SymbolicLu::cores`].
    pub(crate) l_ptr: Vec<usize>,
    pub(crate) l_rows: Vec<usize>,
    /// The sparse part of `U`, by columns; row indices are pivot *steps*
    /// (`0..k`), sorted ascending within each column segment. A sparse
    /// step stores its diagonal (pivot) last; a core step stores only its
    /// entries from steps before the core.
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
    /// The dense trailing core of every diagonal block.
    pub(crate) cores: DenseCores,
    /// Dependents and column steps for dirty-closure replays, built on
    /// the first one (`None` if an index would not fit in 32 bits).
    pub(crate) replay_index: std::sync::OnceLock<Option<ReplayIndex>>,
}

/// The dense trailing core of each diagonal block: the maximal run of
/// pivot steps at the end of the block whose `L` columns each span every
/// row of the block still to pivot, so the core's `L` is fully dense
/// lower — empty unless that run has at least two steps. Its in-core `U`
/// columns are contiguous tails too: `U(s, k) ≠ 0` for a core step `s`
/// brings `L(:, s)`, every core row after `s`, so column `k`'s in-core
/// entries are exactly the core positions `head..k`.
/// The pivoting factorization finds the core as it goes (see
/// `SparseLu::factor_cores`). The values of a core live in one dense
/// column-major `c × c` array (unit `L` below the diagonal, `U` on and
/// above); the `U(s, k)` entries from pre-core steps `s` stay sparse.
#[derive(Debug, Default)]
pub(crate) struct DenseCores {
    /// Block `t`'s core owns steps `start[t]..block_ptr[t + 1]`.
    pub(crate) start: Vec<usize>,
    /// Block `t`'s core values are `val_ptr[t]..val_ptr[t + 1]` of the
    /// dense value array: `c²` entries for a core of `c` steps.
    pub(crate) val_ptr: Vec<usize>,
    /// Per step of a core, the core position where its in-core `U`
    /// column starts (`head..j` stored above the pivot at position `j`);
    /// 0 for sparse steps.
    pub(crate) head: Vec<u32>,
    /// Symbolic `L` and `U` entries inside the cores (pivots included).
    pub(crate) nnz: usize,
}

/// Threshold partial pivoting over `(key, value)` candidates: `pref` when
/// its magnitude is at least `threshold` of the largest, else the first
/// largest. Returns the key and the largest magnitude; `None` when every
/// candidate is zero.
fn choose_pivot(
    cands: impl Iterator<Item = (usize, f64)>,
    pref: usize,
    threshold: f64,
) -> Option<(usize, f64)> {
    let (mut max_mag, mut max_at, mut pref_mag) = (0.0f64, None, -1.0f64);
    for (key, v) in cands {
        let mag = v.abs();
        if mag > max_mag {
            (max_mag, max_at) = (mag, Some(key));
        }
        if key == pref {
            pref_mag = mag;
        }
    }
    let keep_pref = pref_mag >= threshold * max_mag && pref_mag > 0.0;
    max_at.map(|at| (if keep_pref { pref } else { at }, max_mag))
}

/// One triangle (or the cross-block entries) of a factorization being
/// built, by step: indices `idx[ptr[k]..ptr[k + 1]]` and their values.
#[derive(Default)]
struct Tri {
    ptr: Vec<usize>,
    idx: Vec<usize>,
    vals: Vec<f64>,
}

impl Tri {
    fn new() -> Self {
        let ptr = vec![0];
        Tri {
            ptr,
            ..Self::default()
        }
    }

    fn push(&mut self, i: usize, v: f64) {
        self.idx.push(i);
        self.vals.push(v);
    }

    /// Back to its first `steps` steps.
    fn rewind(&mut self, steps: usize) {
        self.ptr.truncate(steps + 1);
        self.idx.truncate(self.ptr[steps]);
        self.vals.truncate(self.ptr[steps]);
    }
}

/// A pivoting factorization being built (`SparseLu::factor_cores`):
/// the pivot permutation, the sparse `L`, `U` and cross-block entries,
/// the dense cores, and the per-column scratch.
#[derive(Default)]
struct Elimination {
    pinv: Vec<usize>,
    row_perm: Vec<usize>,
    l: Tri,
    u: Tri,
    off: Tri,
    cores: DenseCores,
    core_vals: Vec<f64>,
    /// The open core's rows by position: its pivots, then the rows still
    /// to pivot.
    core_rows: Vec<usize>,
    /// Per pre-core step of the open core: where the core rows of its `L`
    /// column start, and their first pivot step once one is pivoted.
    l_split: Vec<usize>,
    l_first: Vec<usize>,
    /// Dense column by original row (zero between columns), the column's
    /// pattern rows and reached steps, the search stack (step, next and
    /// end of its searched `L` rows), and per-row and per-step marks of
    /// the current column `gen` (with a cross-block row's slot).
    x: Vec<f64>,
    pattern: Vec<usize>,
    reach: Vec<usize>,
    dfs: Vec<(usize, usize, usize)>,
    row_mark: Vec<usize>,
    step_mark: Vec<usize>,
    off_slot: Vec<usize>,
    gen: usize,
    /// Whether every pivot passes the replay's frozen-pivot test, so that
    /// a replay of the input reproduces these values.
    replayable: bool,
}

impl Elimination {
    fn new(n: usize) -> Self {
        Elimination {
            pinv: vec![NO_PIVOT; n],
            row_perm: vec![NO_PIVOT; n],
            l: Tri::new(),
            u: Tri::new(),
            off: Tri::new(),
            cores: DenseCores {
                val_ptr: vec![0],
                head: vec![0; n],
                ..DenseCores::default()
            },
            l_split: vec![0; n],
            l_first: vec![NO_PIVOT; n],
            x: vec![0.0; n],
            row_mark: vec![0; n],
            step_mark: vec![0; n],
            off_slot: vec![0; n],
            replayable: true,
            ..Self::default()
        }
    }

    /// Scatters column `col` of `a` as the replay does (`0.0` plus each
    /// entry; rows pivoted before `block_lo` into the step's cross-block
    /// slots), finds the steps before `core_lo` it reaches through the
    /// sparse `L` and applies their updates in ascending step order, the
    /// replay's order, storing each as a `U` entry. Returns the first step
    /// from `core_lo` on whose pivot row the pattern holds (`NO_PIVOT` if
    /// none). With a core open the search walks only the pre-core rows of
    /// each `L` column; its core rows are read for their first pivot.
    fn eliminate(&mut self, a: &CscMatrix, col: usize, block_lo: usize, core_lo: usize) -> usize {
        self.gen += 1;
        let g = self.gen;
        self.pattern.clear();
        self.reach.clear();
        let mut first = NO_PIVOT;
        for (r, v) in a.col(col) {
            let step = self.pinv[r];
            if self.row_mark[r] != g {
                self.row_mark[r] = g;
                if step < block_lo {
                    self.off_slot[r] = self.off.idx.len();
                    self.off.push(r, 0.0);
                } else {
                    self.pattern.push(r);
                    self.x[r] = 0.0;
                }
            }
            if step < block_lo {
                self.off.vals[self.off_slot[r]] += v;
                continue;
            }
            self.x[r] += v;
            if step >= core_lo {
                first = first.min(step);
            } else if self.step_mark[step] != g {
                self.push_step(step, core_lo);
            }
        }
        self.reach.sort_unstable();
        for i in 0..self.reach.len() {
            let s = self.reach[i];
            let xv = self.x[self.row_perm[s]];
            self.u.push(s, xv);
            if xv != 0.0 {
                for idx in self.l.ptr[s]..self.l.ptr[s + 1] {
                    self.x[self.l.idx[idx]] -= xv * self.l.vals[idx];
                }
            }
            if core_lo != NO_PIVOT {
                if self.l_first[s] == NO_PIVOT {
                    let rows = &self.l.idx[self.l_split[s]..self.l.ptr[s + 1]];
                    self.l_first[s] = rows.iter().map(|&r| self.pinv[r]).min().unwrap_or(NO_PIVOT);
                }
                first = first.min(self.l_first[s]);
            }
        }
        first
    }

    /// Marks step `s` and searches `L` from it depth-first (over the
    /// pre-core rows of each column when a core is open): every row met
    /// joins the pattern, every step met joins `reach`.
    fn push_step(&mut self, s: usize, core_lo: usize) {
        let g = self.gen;
        let end = |e: &Self, s: usize| {
            if core_lo == NO_PIVOT {
                e.l.ptr[s + 1]
            } else {
                e.l_split[s]
            }
        };
        self.step_mark[s] = g;
        self.dfs.push((s, self.l.ptr[s], end(self, s)));
        while let Some(&mut (s, ref mut ptr, end_s)) = self.dfs.last_mut() {
            if *ptr == end_s {
                self.reach.push(s);
                self.dfs.pop();
                continue;
            }
            let r = self.l.idx[*ptr];
            *ptr += 1;
            if self.row_mark[r] != g {
                self.row_mark[r] = g;
                self.pattern.push(r);
                self.x[r] = 0.0;
            }
            let step = self.pinv[r];
            if step != NO_PIVOT && self.step_mark[step] != g {
                self.step_mark[step] = g;
                self.dfs.push((step, self.l.ptr[step], end(self, step)));
            }
        }
    }

    /// Records `prow` as the pivot of step `k` and whether the replay's
    /// frozen-pivot test accepts `pivot` against the column's largest
    /// magnitude; closes the step.
    fn pivot(&mut self, k: usize, prow: usize, pivot: f64, max_mag: f64) {
        self.replayable &= pivot.is_finite() && pivot != 0.0 && pivot.abs() >= 1e-10 * max_mag;
        self.pinv[prow] = k;
        self.row_perm[k] = prow;
        for t in [&mut self.l, &mut self.u, &mut self.off] {
            t.ptr.push(t.idx.len());
        }
    }

    /// Eliminates sparse step `k` (column `col`): pivots among the
    /// pattern's rows still to pivot and stores the `U` and `L` columns.
    fn sparse_step(
        &mut self,
        a: &CscMatrix,
        (k, col, block_lo): (usize, usize, usize),
        pref: usize,
        threshold: f64,
    ) -> Result<(), LinalgError> {
        self.eliminate(a, col, block_lo, NO_PIVOT);
        let (x, pinv) = (&self.x, &self.pinv);
        let open = self.pattern.iter().filter(|&&r| pinv[r] == NO_PIVOT);
        let (prow, max_mag) = choose_pivot(open.map(|&r| (r, x[r])), pref, threshold)
            .ok_or(LinalgError::Singular { column: col })?;
        let pivot = x[prow];
        self.u.push(k, pivot);
        for &r in &self.pattern {
            if self.pinv[r] == NO_PIVOT && r != prow {
                self.l.push(r, self.x[r] / pivot);
            }
            self.x[r] = 0.0;
        }
        self.pivot(k, prow, pivot, max_mag);
        Ok(())
    }

    /// Opens a dense core at sparse step `k`, whose `L` column spans every
    /// row of block `lo..hi` still to pivot: moves its pivot and `L`
    /// values into column 0 of a zeroed `c × c` array, and puts the rows
    /// pivoted before `k` first in each earlier `L` column of the block
    /// (the order of a column's rows changes no value).
    fn open_core(&mut self, lo: usize, k: usize, hi: usize) {
        for s in lo..k {
            let (mut i, mut end) = (self.l.ptr[s], self.l.ptr[s + 1]);
            while i < end {
                if self.pinv[self.l.idx[i]] < k {
                    i += 1;
                } else {
                    end -= 1;
                    self.l.idx.swap(i, end);
                    self.l.vals.swap(i, end);
                }
            }
            (self.l_split[s], self.l_first[s]) = (end, NO_PIVOT);
        }
        let (c, base, lo_l) = (hi - k, self.core_vals.len(), self.l.ptr[k]);
        self.core_vals.resize(base + c * c, 0.0);
        self.core_rows.clear();
        self.core_rows.push(self.row_perm[k]);
        self.core_rows.extend(self.l.idx.drain(lo_l..));
        self.core_vals[base + 1..base + c].copy_from_slice(&self.l.vals[lo_l..]);
        self.core_vals[base] = self.u.vals[self.u.vals.len() - 1];
        self.l.rewind(k);
        self.l.ptr.push(lo_l);
        self.u.idx.pop();
        self.u.vals.pop();
        self.u.ptr[k + 1] -= 1;
    }

    /// Eliminates step `k` as column `j = k − c0` of the open core `c0..hi`
    /// with the replay's kernel: the pre-core updates through the
    /// workspace, the in-core ones by [`core_column_update`], then
    /// threshold pivoting among the rows still to pivot, swapped into
    /// position in every finished column. Returns `false`, storing
    /// nothing, when the column does not span every row still to pivot.
    fn core_step(
        &mut self,
        a: &CscMatrix,
        (k, col, block_lo): (usize, usize, usize),
        (c0, hi): (usize, usize),
        pref: usize,
        threshold: f64,
    ) -> Result<bool, LinalgError> {
        let (c, j) = (hi - c0, k - c0);
        // An in-core `U` entry at `s` brings `L(:, s)`: every core row
        // from `s` on. Without one, the column must hold them all itself.
        let first = self.eliminate(a, col, block_lo, c0);
        let head = if first != NO_PIVOT {
            first - c0
        } else if self.open_rows_reached() == c - j {
            j
        } else {
            for &r in self.pattern.iter().chain(&self.core_rows) {
                self.x[r] = 0.0;
            }
            return Ok(false);
        };
        let base = self.core_vals.len() - c * c;
        let (done, rest) = self.core_vals[base..].split_at_mut(j * c);
        let v = &mut rest[..c];
        for (vi, &r) in v[head..].iter_mut().zip(&self.core_rows[head..]) {
            *vi = std::mem::take(&mut self.x[r]);
        }
        for &r in &self.pattern {
            self.x[r] = 0.0;
        }
        core_column_update(done, v, j, head);
        let rows = &mut self.core_rows;
        let pref = rows[j..]
            .iter()
            .position(|&r| r == pref)
            .map_or(NO_PIVOT, |p| p + j);
        let (p, max_mag) = choose_pivot((j..c).map(|i| (i, v[i])), pref, threshold)
            .ok_or(LinalgError::Singular { column: col })?;
        v.swap(j, p);
        rows.swap(j, p);
        for s in 0..j {
            done.swap(s * c + j, s * c + p);
        }
        let pivot = v[j];
        for vi in &mut v[j + 1..] {
            *vi /= pivot;
        }
        let prow = rows[j];
        self.cores.head[k] = head as u32;
        self.pivot(k, prow, pivot, max_mag);
        Ok(true)
    }

    /// The rows still to pivot in the current column's pattern: its own
    /// and those of the core part of each reached pre-core `L` column.
    fn open_rows_reached(&mut self) -> usize {
        for &s in &self.reach {
            for &r in &self.l.idx[self.l_split[s]..self.l.ptr[s + 1]] {
                if self.row_mark[r] != self.gen {
                    self.row_mark[r] = self.gen;
                    self.pattern.push(r);
                }
            }
        }
        let pinv = &self.pinv;
        self.pattern
            .iter()
            .filter(|&&r| pinv[r] == NO_PIVOT)
            .count()
    }

    /// Drops steps `c0..k`: a core opened at `c0` whose column `k` did not
    /// span the rows still to pivot.
    fn rewind(&mut self, c0: usize, k: usize) {
        for t in [&mut self.l, &mut self.u, &mut self.off] {
            t.rewind(c0);
        }
        self.core_vals
            .truncate(self.cores.val_ptr[self.cores.val_ptr.len() - 1]);
        for s in c0..k {
            self.pinv[self.row_perm[s]] = NO_PIVOT;
            self.row_perm[s] = NO_PIVOT;
            self.cores.head[s] = 0;
        }
    }

    /// Closes block `..hi` with its core `c0..hi` (empty when `c0 == hi`),
    /// counting the core's symbolic entries.
    fn close_block(&mut self, c0: usize, hi: usize) {
        let heads = &self.cores.head[c0..hi];
        let upper: usize = heads
            .iter()
            .enumerate()
            .map(|(j, &h)| j + 1 - h as usize)
            .sum();
        self.cores.nnz += (hi - c0) * (hi - c0).saturating_sub(1) / 2 + upper;
        self.cores.start.push(c0);
        self.cores.val_ptr.push(self.core_vals.len());
    }
}

/// What a dirty-closure replay ([`SparseLu::refactor_with`]) walks: the
/// transpose of the stored off-diagonal `U` pattern (a core replays
/// whole, so its in-core entries need no index) and the inverse column
/// order.
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
            for &s in sym.u_stored(k) {
                dep_ptr[s + 1] += 1;
            }
        }
        for s in 0..n {
            dep_ptr[s + 1] += dep_ptr[s];
        }
        let mut next = dep_ptr.clone();
        let mut dep_steps = vec![0u32; dep_ptr[n] as usize];
        for k in 0..n {
            for &s in sym.u_stored(k) {
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

    /// Total stored entries of the factorization: the symbolic `L` and
    /// `U` patterns, dense cores included, plus the raw cross-block
    /// entries applied at solve time (a fill-in metric — off entries are
    /// storage too, so block and single-block orderings compare honestly).
    pub fn pattern_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.cores.nnz + self.off_rows.len()
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

    /// The pivot steps of block `t`'s dense trailing core: the maximal
    /// run of steps at the end of the block whose `L` patterns nest, so
    /// its `L` is fully dense lower; empty when that run is shorter than
    /// two steps. The numeric replay and the triangular solves run it as
    /// one dense LU.
    pub fn core_range(&self, t: usize) -> std::ops::Range<usize> {
        self.cores.start[t]..self.block_ptr[t + 1]
    }

    /// Size of the largest dense trailing core (0 for an empty system).
    pub fn largest_core(&self) -> usize {
        (0..self.block_count())
            .map(|t| self.core_range(t).len())
            .max()
            .unwrap_or(0)
    }

    /// The dense core holding `step`, if any.
    fn core_of(&self, step: usize) -> Option<std::ops::Range<usize>> {
        let t = self.block_ptr.partition_point(|&b| b <= step) - 1;
        Some(self.core_range(t)).filter(|r| r.contains(&step))
    }

    /// The original row indices of the `L` column of pivot step `step`
    /// (strictly-below-diagonal pattern; the unit diagonal is implicit).
    /// Exposed for structural checks — e.g. that no `L` entry crosses
    /// below a diagonal block.
    pub fn l_column_rows(&self, step: usize) -> &[usize] {
        match self.core_of(step) {
            Some(core) => &self.row_perm[step + 1..core.end],
            None => &self.l_rows[self.l_ptr[step]..self.l_ptr[step + 1]],
        }
    }

    /// The pivot-step indices of the off-diagonal `U` column of `step`
    /// (ascending; the diagonal itself is excluded). Exposed for
    /// structural checks alongside [`SymbolicLu::l_column_rows`].
    pub fn u_column_steps(&self, step: usize) -> impl Iterator<Item = usize> + '_ {
        let in_core = match self.core_of(step) {
            Some(core) => core.start + self.cores.head[step] as usize..step,
            None => step..step,
        };
        self.u_stored(step).iter().copied().chain(in_core)
    }

    /// The stored (sparse) off-diagonal `U` steps of column `k`: all of
    /// them for a sparse step, the pre-core ones for a core step.
    pub(crate) fn u_stored(&self, k: usize) -> &[usize] {
        let seg = &self.u_rows[self.u_ptr[k]..self.u_ptr[k + 1]];
        match seg.split_last() {
            Some((&last, rest)) if last == k => rest,
            _ => seg,
        }
    }

    /// Inverse pivot permutation: the elimination step at which original
    /// row `row` was chosen as pivot.
    pub fn pivot_step_of_row(&self, row: usize) -> usize {
        self.pinv[row]
    }

    /// The dirty-closure replay index, built on first use.
    fn replay_index(&self) -> Option<&ReplayIndex> {
        self.replay_index
            .get_or_init(|| ReplayIndex::build(self))
            .as_ref()
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
        let mut lu = SparseLu {
            sym: Arc::clone(sym),
            vals: ValueArrays::zeroed(sym),
            replayed_from: None,
        };
        lu.refactor(a)?;
        Ok(lu)
    }
}

/// Numeric value storage of a factor: the sparse `L` / `U` / cross-block
/// arrays mirroring the symbolic pattern, and the dense core values (see
/// [`DenseCores`]). Every value is stored once.
#[derive(Debug, Clone)]
pub(crate) struct ValueArrays {
    pub(crate) l: Vec<f64>,
    pub(crate) u: Vec<f64>,
    pub(crate) off: Vec<f64>,
    pub(crate) core: Vec<f64>,
}

impl ValueArrays {
    fn zeroed(sym: &SymbolicLu) -> Self {
        ValueArrays {
            l: vec![0.0; sym.l_rows.len()],
            u: vec![0.0; sym.u_rows.len()],
            off: vec![0.0; sym.off_rows.len()],
            core: vec![0.0; sym.cores.val_ptr.last().copied().unwrap_or(0)],
        }
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
    /// Numeric values (sparse `L`, `U`, raw cross-block entries, dense
    /// cores).
    pub(crate) vals: ValueArrays,
    /// The matrix `vals` equal a full replay of: the input of a
    /// successful [`SparseLu::refactor_with`] or of the pivoting
    /// factorization (`None` after a failed replay, or when a factor pivot
    /// would fail the replay's test). The next replay against the same
    /// pattern rewrites only the steps this record proves stale.
    replayed_from: Option<ReplayRecord>,
}

/// The matrix a factor's values are a replay of: its pattern
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
    /// row keep the lane block inside one cache line.
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
        Self::factor_cores(a, ordering, opts, true)
    }

    /// The scalar oracle: [`SparseLu::factor_with`] with every dense core
    /// empty, so its replay and solves run the sparse per-entry kernels on
    /// every step — the reference the core kernels must match bit for bit.
    #[cfg(test)]
    pub(crate) fn factor_scalar_oracle(a: &CscMatrix) -> Result<Self, LinalgError> {
        let opts = SparseLuOptions::default();
        Self::factor_cores(a, amd_btf_ordering(a), &opts, false)
    }

    /// [`SparseLu::factor_ordered`], opening the dense cores only when
    /// `detect_cores` is set.
    ///
    /// Every step applies its updates in ascending step order, the
    /// replay's order, so the values are bitwise those of a replay of
    /// `a`. A block's dense core opens at its first step, short of its
    /// last, whose `L` column spans every row of the block still to pivot
    /// (so a core has at least two steps and a 1-step block stays
    /// sparse); from there on each
    /// column runs the replay's dense kernel. A later column that does
    /// not span them (possible, though not met on the bench substrates)
    /// ends the attempt: the steps from the core's start are eliminated
    /// sparse again and the search resumes past that column, so the core
    /// is always the block's maximal nested tail.
    fn factor_cores(
        a: &CscMatrix,
        ordering: BlockOrdering,
        opts: &SparseLuOptions,
        detect_cores: bool,
    ) -> Result<Self, LinalgError> {
        ensure_square(a)?;
        let n = a.cols();
        validate_ordering(&ordering, n)?;
        let BlockOrdering {
            perm: q,
            block_ptr,
            diag_rows,
        } = ordering;
        let thr = opts.pivot_threshold;
        let mut e = Elimination::new(n);
        for w in block_ptr.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            // The core opens at the first step from `open_from` on, short
            // of the block's last, whose `L` column spans the rest of the
            // block.
            let mut open_from = if detect_cores { lo } else { hi };
            let mut c0 = hi;
            let mut k = lo;
            while k < hi {
                let step = (k, q[k], lo);
                if c0 < k {
                    if !e.core_step(a, step, (c0, hi), diag_rows[k], thr)? {
                        e.rewind(c0, k);
                        (open_from, k, c0) = (k + 1, c0, hi);
                        continue;
                    }
                } else {
                    e.sparse_step(a, step, diag_rows[k], thr)?;
                    if k >= open_from && k + 1 < hi && e.l.ptr[k + 1] - e.l.ptr[k] == hi - k - 1 {
                        e.open_core(lo, k, hi);
                        c0 = k;
                    }
                }
                k += 1;
            }
            e.close_block(c0, hi);
        }
        let sym = Arc::new(SymbolicLu {
            n,
            q,
            row_perm: e.row_perm,
            pinv: e.pinv,
            l_ptr: e.l.ptr,
            l_rows: e.l.idx,
            u_ptr: e.u.ptr,
            u_rows: e.u.idx,
            block_ptr,
            off_ptr: e.off.ptr,
            off_rows: e.off.idx,
            cores: e.cores,
            replay_index: std::sync::OnceLock::new(),
        });
        let lu = SparseLu {
            sym,
            vals: ValueArrays {
                l: e.l.vals,
                u: e.u.vals,
                off: e.off.vals,
                core: e.core_vals,
            },
            replayed_from: if e.replayable {
                ReplayRecord::of(a)
            } else {
                None
            },
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
    /// [`SymbolicLu::audit`], dense cores included) and the numeric value
    /// arrays ([`SparseLu::audit_values`]). Runs automatically at
    /// construction in debug builds.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a structured
    /// [`crate::AuditError`].
    pub fn audit(&self) -> Result<(), crate::AuditError> {
        self.sym.audit()?;
        self.audit_values()
    }

    /// The cheap numeric half of [`SparseLu::audit`]: every value array
    /// must mirror its symbolic pattern length, and the dense core array
    /// must hold the `c²` values of every core. Runs automatically after
    /// every refactorization in debug builds.
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
        let core_len = sym.cores.val_ptr.last().copied().unwrap_or(0);
        if va.core.len() != core_len {
            return Err(crate::AuditError::new(
                "SparseLu",
                "core-dense-size",
                format!("{} core values, cores span {core_len}", va.core.len()),
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
    /// nothing. Columns replay serially in pivot-step order: the sparse
    /// steps of each block one by one, then its dense core as one dense LU
    /// (the same arithmetic in the same order, so the values are bitwise
    /// those of a per-entry replay).
    ///
    /// A replay pays only for what changed since the previous one. A
    /// successful replay, like a pivoting factorization (whose values are
    /// a replay of its input), records the matrix it ran on; the next
    /// replay against the same pattern rewrites only the *dirty closure*:
    /// step `k` is dirty when column `q[k]` of `a` differs bitwise from the
    /// recorded column, or when any step in its stored `U` column is
    /// dirty. A dense core replays whole when any member is dirty. Every
    /// other step keeps values a full replay would reproduce bit for bit:
    /// its inputs are unchanged. A replay after a failed one or against a
    /// different pattern is full. The factor compares its own input, so
    /// the result never depends on what the caller believes changed.
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
        ws.reset(sym.n);
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
                        ws.dirty[index.step_of_col[col] as usize] = true;
                    }
                }
            }
            None => ws.dirty.fill(true),
        }
        // One pass in step order: a dirty sparse step marks its dependents
        // (all later) and replays; a core replays whole if any member is
        // dirty (its dependents are core members too).
        let mut replayed = 0;
        for t in 0..sym.block_count() {
            let core = sym.core_range(t);
            for k in sym.block_ptr[t]..core.start {
                if !ws.dirty[k] {
                    continue;
                }
                if let Some((_, index)) = index {
                    for d in index.dependents(k) {
                        ws.dirty[d] = true;
                    }
                }
                refactor_step(sym, a, k, ws, va)?;
                replayed += 1;
            }
            if ws.dirty[core.clone()].contains(&true) {
                refactor_core(sym, t, a, ws, va)?;
                replayed += core.len();
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
    /// allocations. This is the one-lane case of
    /// [`SparseLu::solve_multi_into`].
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
        self.solve_lanes::<1>(b, work, out)
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
            1 => self.solve_lanes::<1>(b, work, out),
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
    /// every scalar of the substitution is a `[f64; K]` lane block, so
    /// each factor value is loaded once and broadcast across the lanes.
    /// Monomorphizing over `K` lets the compiler fully unroll the lane
    /// loops.
    ///
    /// Blocks are solved last-to-first: the block-upper-triangular
    /// permutation only couples a block to *earlier* ones, so each block
    /// runs its own forward (`L`) and backward (`U`) substitution — the
    /// sparse steps per entry, the dense core through [`core_forward`] /
    /// [`core_backward`] — and then scatters its raw cross-block `A_off`
    /// entries into the still-pending right-hand side rows of earlier
    /// blocks.
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
        work.clear();
        work.extend_from_slice(b);
        out.clear();
        out.resize(sym.n * K, 0.0);
        // The cross-block coupling of a solved step: b' -= A_off · y, all
        // targets in earlier (not yet solved) blocks.
        let couple = |step: usize, yk: &[f64; K], work: &mut [f64]| {
            if yk.iter().any(|&v| v != 0.0) {
                for idx in sym.off_ptr[step]..sym.off_ptr[step + 1] {
                    let ov = va.off[idx];
                    let r = sym.off_rows[idx] * K;
                    for (w, &y) in work[r..r + K].iter_mut().zip(yk) {
                        *w -= ov * y;
                    }
                }
            }
        };
        for t in (0..sym.block_count()).rev() {
            let (lo, core) = (sym.block_ptr[t], sym.core_range(t));
            if core.end - lo == 1 {
                // A 1-step block is one sparse step with no `L` and no
                // off-diagonal `U`: a divide, then its coupling.
                debug_assert!(core.is_empty(), "a core has two steps or more");
                let (rp, d) = (sym.row_perm[lo] * K, va.u[sym.u_ptr[lo]]);
                let yk: [f64; K] = std::array::from_fn(|l| work[rp + l] / d);
                out[lo * K..lo * K + K].copy_from_slice(&yk);
                couple(lo, &yk, work);
                continue;
            }
            // Forward solve L z = P b over the sparse steps; z (in `out`)
            // indexed by pivot step.
            for step in lo..core.start {
                let rp = sym.row_perm[step] * K;
                let mut zk = [0.0f64; K];
                zk.copy_from_slice(&work[rp..rp + K]);
                out[step * K..step * K + K].copy_from_slice(&zk);
                if zk.iter().any(|&z| z != 0.0) {
                    for idx in sym.l_ptr[step]..sym.l_ptr[step + 1] {
                        let lv = va.l[idx];
                        let r = sym.l_rows[idx] * K;
                        for (w, &z) in work[r..r + K].iter_mut().zip(&zk) {
                            *w -= z * lv;
                        }
                    }
                }
            }
            // The dense core: gather its pivot rows, then forward and
            // backward substitution in place; its columns' pre-core `U`
            // entries fire afterwards, last column first (nothing in the
            // core reads the pre-core rows they update).
            let (pre, rest) = out.split_at_mut(core.start * K);
            let x = &mut rest[..core.len() * K];
            for (xi, &r) in x.chunks_exact_mut(K).zip(&sym.row_perm[core.clone()]) {
                xi.copy_from_slice(&work[r * K..r * K + K]);
            }
            let lu = &va.core[sym.cores.val_ptr[t]..sym.cores.val_ptr[t + 1]];
            core_forward::<K>(lu, x);
            core_backward::<K>(lu, &sym.cores.head[core.clone()], x);
            for (step, yk) in core.clone().zip(x.chunks_exact(K)).rev() {
                if yk.iter().any(|&y| y != 0.0) {
                    for idx in sym.u_ptr[step]..sym.u_ptr[step + 1] {
                        let uv = va.u[idx];
                        let r = sym.u_rows[idx] * K;
                        for (p, &y) in pre[r..r + K].iter_mut().zip(yk) {
                            *p -= y * uv;
                        }
                    }
                }
            }
            // Backward solve U y = z in place over the sparse steps; U
            // columns hold steps, diagonal last.
            for step in (lo..core.start).rev() {
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
                        for (o, &y) in out[r..r + K].iter_mut().zip(&yk) {
                            *o -= y * uv;
                        }
                    }
                }
            }
            for step in lo..core.end {
                let mut yk = [0.0f64; K];
                yk.copy_from_slice(&out[step * K..step * K + K]);
                couple(step, &yk, work);
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

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// Total entries of the symbolic `L` and `U` patterns (dense cores
    /// included) and the raw cross-block off-diagonal values (a fill-in /
    /// storage metric comparable across orderings; see
    /// [`SymbolicLu::pattern_nnz`]).
    pub fn factor_nnz(&self) -> usize {
        self.sym.pattern_nnz()
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
                BlockOrdering::single_block(crate::verify::min_degree_ordering(a)),
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

    /// Every value bit of a factor: `L`, `U`, off-diagonal, dense cores.
    fn value_bits(lu: &SparseLu) -> Vec<u64> {
        let va = &lu.vals;
        [&va.l, &va.u, &va.off, &va.core]
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
        // A pivoting factorization records its input: replaying the same
        // matrix replays nothing.
        assert_eq!(lu.replay(&a, &mut ws).unwrap(), 0);
        for col in 0..n {
            let mut a2 = a.clone();
            let (cp, _, vals) = a2.pattern_values_mut();
            vals[cp[col]] *= 1.25;
            let mut dirty = lu.clone();
            let replayed = dirty.replay(&a2, &mut ws).unwrap();
            let full = SymbolicLu::numeric(&sym, &a2).unwrap();
            assert_eq!(value_bits(&dirty), value_bits(&full), "column {col}");
            // `U` never crosses a diagonal block, so the closure of one
            // column (with whole cores) stays inside its block.
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
        assert_eq!(lu.replay(&a, &mut ws).unwrap(), 0);
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

    /// Step 0's `L` spans every later row, so a core opens there, but
    /// column 1 reaches no core pivot and misses row 3: the attempt is
    /// rewound and the core is the nested tail `2..4`, with the oracle's
    /// values.
    #[test]
    fn core_that_stops_nesting_falls_back_to_sparse() {
        let mut t = TripletMatrix::new(4, 4);
        for (r, c) in [
            (1, 0),
            (2, 0),
            (3, 0),
            (2, 1),
            (0, 2),
            (1, 2),
            (3, 2),
            (0, 3),
        ] {
            t.push(r, c, 1.0);
        }
        for i in 0..4 {
            t.push(i, i, 4.0);
        }
        let a = t.to_csc();
        let (opts, order) = (SparseLuOptions::default(), BlockOrdering::single_block);
        let lu = SparseLu::factor_ordered(&a, order((0..4).collect()), &opts).unwrap();
        let oracle = SparseLu::factor_cores(&a, order((0..4).collect()), &opts, false).unwrap();
        assert_eq!(lu.sym.core_range(0), 2..4);
        assert_eq!(entry_bits(&lu), entry_bits(&oracle));
        let replay = SymbolicLu::numeric(&lu.sym, &a).unwrap();
        assert_eq!(value_bits(&lu), value_bits(&replay));
    }

    /// A diagonally dominant system with a sparse random front and a
    /// fully dense trailing `tail × tail` block: the dense tail plants a
    /// dense core (AMD mixes a few front columns into it and may order a
    /// few tail columns before it).
    fn dense_tail_system(n: usize, tail: usize, seed: u64) -> CscMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = TripletMatrix::new(n, n);
        let mut row_sum = vec![0.0f64; n];
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
            let sign = if rng.gen_bool(0.2) { -1.0 } else { 1.0 };
            t.push(i, i, sign * (rs + rng.gen_range(1.0..3.0)));
        }
        t.to_csc()
    }

    /// The substrate's shape in miniature: `singles` unknowns that are
    /// each a 1-step BTF block, coupled one way into a dense `tail × tail`
    /// block (unknowns `0..tail`). A "feeding" single's column
    /// reaches tail rows (the tail reads it); a "reading" single's row
    /// reaches tail columns (it reads the tail). Singles also couple among
    /// themselves — to later singles of their kind, and reading to feeding
    /// — so every dependency runs one way and no single joins the tail's
    /// strongly connected block.
    fn one_step_blocks_system(singles: usize, tail: usize, seed: u64) -> CscMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = singles + tail;
        let mut t = TripletMatrix::new(n, n);
        let mut row_sum = vec![0.0f64; n];
        let mut push = |t: &mut TripletMatrix, r: usize, c: usize, rng: &mut StdRng| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            t.push(r, c, v);
            row_sum[r] += v.abs();
        };
        for r in 0..tail {
            for c in 0..tail {
                if r != c {
                    push(&mut t, r, c, &mut rng);
                }
            }
        }
        let feeds: Vec<bool> = (0..singles).map(|_| rng.gen_bool(0.5)).collect();
        for j in 0..singles {
            let x = tail + j;
            for _ in 0..rng.gen_range(1..3) {
                let k = rng.gen_range(0..tail);
                if feeds[j] {
                    push(&mut t, k, x, &mut rng);
                } else {
                    push(&mut t, x, k, &mut rng);
                }
            }
            // `x` reads single `y` (row `x`, column `y`).
            let y = tail + rng.gen_range(0..singles);
            if y > x && feeds[y - tail] == feeds[j] || !feeds[j] && feeds[y - tail] {
                push(&mut t, x, y, &mut rng);
            }
        }
        for (i, rs) in row_sum.iter().enumerate() {
            let sign = if rng.gen_bool(0.2) { -1.0 } else { 1.0 };
            t.push(i, i, sign * (rs + rng.gen_range(1.0..3.0)));
        }
        t.to_csc()
    }

    /// `a` with each column `c` whose bit `c % 64` is set in `mask` and
    /// that `pick` accepts scaled: off-diagonal entries by `shrink`, the
    /// diagonal by 1.25.
    fn perturbed(a: &CscMatrix, mask: u64, shrink: f64, pick: impl Fn(usize) -> bool) -> CscMatrix {
        let mut out = a.clone();
        let (cp, ri, vals) = out.pattern_values_mut();
        for c in 0..cp.len() - 1 {
            if mask >> (c % 64) & 1 == 1 && pick(c) {
                for i in cp[c]..cp[c + 1] {
                    vals[i] *= if ri[i] == c { 1.25 } else { shrink };
                }
            }
        }
        out
    }

    /// Every factor value of `lu` as `(row step, column step, bits)`,
    /// sorted — `L` below the diagonal, `U` on and above it, dense cores
    /// expanded — then the raw cross-block value bits.
    fn entry_bits(lu: &SparseLu) -> (Vec<(usize, usize, u64)>, Vec<u64>) {
        let (sym, va) = (&*lu.sym, &lu.vals);
        let mut e = Vec::new();
        for k in 0..sym.n {
            for i in sym.l_ptr[k]..sym.l_ptr[k + 1] {
                e.push((sym.pinv[sym.l_rows[i]], k, va.l[i].to_bits()));
            }
            for i in sym.u_ptr[k]..sym.u_ptr[k + 1] {
                e.push((sym.u_rows[i], k, va.u[i].to_bits()));
            }
        }
        for t in 0..sym.block_count() {
            let core = sym.core_range(t);
            let c = core.len();
            let d = &va.core[sym.cores.val_ptr[t]..sym.cores.val_ptr[t + 1]];
            for (j, k) in core.clone().enumerate() {
                for i in sym.cores.head[k] as usize..c {
                    e.push((core.start + i, k, d[j * c + i].to_bits()));
                }
            }
        }
        e.sort_unstable();
        (e, va.off.iter().map(|v| v.to_bits()).collect())
    }

    /// The production factor and the scalar oracle of `a`: same pivots,
    /// and production holds a core of at least `min_core` steps.
    fn factor_pair(a: &CscMatrix, min_core: usize) -> (SparseLu, SparseLu) {
        let lu = SparseLu::factor(a).unwrap();
        let oracle = SparseLu::factor_scalar_oracle(a).unwrap();
        assert_eq!(lu.sym.pivot_rows(), oracle.sym.pivot_rows());
        assert_eq!(oracle.sym.largest_core(), 0);
        let core = lu.sym.largest_core();
        assert!(core >= min_core, "core {core} < {min_core}");
        assert_eq!(lu.factor_nnz(), oracle.factor_nnz());
        (lu, oracle)
    }

    /// A 1-lane block-triangular substitution over an all-sparse factor
    /// (the oracle's), written out per entry in the solve's operation
    /// order with no 1-step-block shortcut: the independent reference for
    /// the shortcut, which the oracle's own solve runs too.
    fn per_entry_solve(lu: &SparseLu, b: &[f64]) -> Vec<f64> {
        let (sym, va) = (&*lu.sym, &lu.vals);
        assert_eq!(sym.largest_core(), 0, "an all-sparse factor");
        let (mut work, mut y) = (b.to_vec(), vec![0.0; sym.n]);
        for t in (0..sym.block_count()).rev() {
            let steps = sym.block_range(t);
            for k in steps.clone() {
                y[k] = work[sym.row_perm[k]];
                if y[k] != 0.0 {
                    for idx in sym.l_ptr[k]..sym.l_ptr[k + 1] {
                        work[sym.l_rows[idx]] -= y[k] * va.l[idx];
                    }
                }
            }
            for k in steps.clone().rev() {
                let diag = sym.u_ptr[k + 1] - 1;
                y[k] /= va.u[diag];
                if y[k] != 0.0 {
                    for idx in sym.u_ptr[k]..diag {
                        y[sym.u_rows[idx]] -= y[k] * va.u[idx];
                    }
                }
            }
            for k in steps {
                if y[k] != 0.0 {
                    for idx in sym.off_ptr[k]..sym.off_ptr[k + 1] {
                        work[sym.off_rows[idx]] -= va.off[idx] * y[k];
                    }
                }
            }
        }
        let mut x = vec![0.0; sym.n];
        for (k, &c) in sym.q.iter().enumerate() {
            x[c] = y[k];
        }
        x
    }

    /// `x`'s bits, for bitwise comparisons.
    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The core kernel runs the scalar oracle's arithmetic in its
        /// order, and a pivoting factorization the replay's, so a fresh
        /// factor (production or oracle: sparse, core and off-diagonal
        /// values) is bitwise a full replay of its own matrix, and each
        /// full replay is bitwise the oracle's; on a dense-tail system and
        /// on a three-block one.
        #[test]
        fn core_replay_matches_oracle_bitwise(
            n in 12..60usize,
            tail in 4..12usize,
            seed in proptest::prelude::any::<u64>(),
            shrink in 0.5..1.0f64,
        ) {
            for a in [dense_tail_system(n, tail, seed), three_block_system(shrink).to_csc()] {
                let (mut lu, mut oracle) = factor_pair(&a, 2);
                proptest::prop_assert_eq!(entry_bits(&lu), entry_bits(&oracle));
                for f in [&lu, &oracle] {
                    let replay = SymbolicLu::numeric(f.symbolic(), &a).unwrap();
                    proptest::prop_assert_eq!(value_bits(f), value_bits(&replay));
                }
                let a1 = perturbed(&a, u64::MAX, shrink, |_| true);
                lu.refactor(&a1).unwrap();
                oracle.refactor(&a1).unwrap();
                proptest::prop_assert_eq!(entry_bits(&lu), entry_bits(&oracle));
            }
        }

        /// A dirty replay after perturbing random columns — any columns,
        /// then pre-core columns only — stays bitwise equal to the
        /// oracle's.
        #[test]
        fn core_dirty_replay_matches_oracle_bitwise(
            n in 12..60usize,
            tail in 4..12usize,
            seed in proptest::prelude::any::<u64>(),
            mask in proptest::prelude::any::<u64>(),
            shrink in 0.5..1.0f64,
        ) {
            let a = dense_tail_system(n, tail, seed);
            let (mut lu, mut oracle) = factor_pair(&a, 2);
            let sym = Arc::clone(&lu.sym);
            let pre_core = |col: usize| {
                let k = sym.q.iter().position(|&c| c == col).unwrap();
                sym.core_of(k).is_none()
            };
            let a1 = perturbed(&a, u64::MAX, shrink, |_| true);
            let a2 = perturbed(&a1, mask, shrink, |_| true);
            let a3 = perturbed(&a2, mask.rotate_left(17), shrink, pre_core);
            for m in [&a1, &a2, &a3] {
                lu.refactor(m).unwrap();
                oracle.refactor(m).unwrap();
                proptest::prop_assert_eq!(entry_bits(&lu), entry_bits(&oracle));
            }
        }

        /// `solve_into` and `solve_multi_into` for K = 1..8 run the dense
        /// core with the scalar path's operation order: bitwise equal to
        /// the oracle, lane by lane.
        #[test]
        fn core_solves_match_oracle_bitwise(
            n in 12..60usize,
            tail in 4..12usize,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let a = dense_tail_system(n, tail, seed);
            let (mut lu, mut oracle) = factor_pair(&a, 2);
            let a1 = perturbed(&a, u64::MAX, 0.75, |_| true);
            lu.refactor(&a1).unwrap();
            oracle.refactor(&a1).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let (mut w, mut x, mut xo) = (Vec::new(), Vec::new(), Vec::new());
            for k in 1..=SparseLu::MAX_SOLVE_LANES {
                // Sparse lanes (mostly zeros), the Woodbury push's shape.
                let b: Vec<f64> = (0..n * k)
                    .map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-4.0..4.0) })
                    .collect();
                if k == 1 {
                    lu.solve_into(&b, &mut w, &mut x).unwrap();
                    oracle.solve_into(&b, &mut w, &mut xo).unwrap();
                    proptest::prop_assert_eq!(bits(&x), bits(&xo));
                }
                lu.solve_multi_into(&b, k, &mut w, &mut x).unwrap();
                oracle.solve_multi_into(&b, k, &mut w, &mut xo).unwrap();
                proptest::prop_assert_eq!(bits(&x), bits(&xo), "k = {}", k);
            }
        }

        /// Many 1-step blocks coupled into a dense-tail block: none becomes
        /// a core, and the factor, full and dirty replays, `solve_into` and
        /// `solve_multi_into` for K = 1..8 (whose 1-step blocks solve as a
        /// divide) are bitwise the oracle's.
        #[test]
        fn one_step_blocks_match_oracle_bitwise(
            singles in 8..80usize,
            tail in 2..12usize,
            seed in proptest::prelude::any::<u64>(),
            mask in proptest::prelude::any::<u64>(),
            shrink in 0.5..1.0f64,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let a = one_step_blocks_system(singles, tail, seed);
            let n = singles + tail;
            let (mut lu, mut oracle) = factor_pair(&a, 2);
            let sym = Arc::clone(&lu.sym);
            let blocks = 0..sym.block_count();
            let ones = blocks.clone().filter(|&t| sym.block_range(t).len() == 1).count();
            proptest::prop_assert_eq!(ones, singles);
            proptest::prop_assert!(blocks.clone().all(|t| sym.core_range(t).len() != 1));
            proptest::prop_assert_eq!(entry_bits(&lu), entry_bits(&oracle));
            let replay = SymbolicLu::numeric(&sym, &a).unwrap();
            proptest::prop_assert_eq!(value_bits(&lu), value_bits(&replay));
            let a1 = perturbed(&a, mask, shrink, |_| true);
            let a2 = perturbed(&a1, mask.rotate_left(23), shrink, |_| true);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let (mut w, mut x, mut xo) = (Vec::new(), Vec::new(), Vec::new());
            for m in [&a1, &a2] {
                lu.refactor(m).unwrap();
                oracle.refactor(m).unwrap();
                proptest::prop_assert_eq!(entry_bits(&lu), entry_bits(&oracle));
                for k in 1..=SparseLu::MAX_SOLVE_LANES {
                    let b: Vec<f64> = (0..n * k)
                        .map(|_| if rng.gen_bool(0.5) { 0.0 } else { rng.gen_range(-4.0..4.0) })
                        .collect();
                    if k == 1 {
                        lu.solve_into(&b, &mut w, &mut x).unwrap();
                        oracle.solve_into(&b, &mut w, &mut xo).unwrap();
                        proptest::prop_assert_eq!(bits(&x), bits(&xo));
                        proptest::prop_assert_eq!(bits(&xo), bits(&per_entry_solve(&oracle, &b)));
                    }
                    lu.solve_multi_into(&b, k, &mut w, &mut x).unwrap();
                    oracle.solve_multi_into(&b, k, &mut w, &mut xo).unwrap();
                    proptest::prop_assert_eq!(bits(&x), bits(&xo), "k = {}", k);
                }
            }
        }

        /// A collapsed core pivot reports the oracle's `Singular` column,
        /// and an entry outside the pattern of a core column reports
        /// `PatternChanged`.
        #[test]
        fn core_replay_errors_match_oracle(
            n in 12..60usize,
            tail in 4..12usize,
            seed in proptest::prelude::any::<u64>(),
            pick in 0..1024usize,
        ) {
            let a = dense_tail_system(n, tail, seed);
            let (lu, oracle) = factor_pair(&a, 2);
            let sym = Arc::clone(&lu.sym);
            let t = (0..sym.block_count()).max_by_key(|&t| sym.core_range(t).len()).unwrap();
            let core = sym.core_range(t);
            let k = core.start + pick % core.len();
            let col = sym.q[k];
            // Zero the column: its pivot collapses to exactly zero.
            let mut zeroed = a.clone();
            let (cp, _, vals) = zeroed.pattern_values_mut();
            vals[cp[col]..cp[col + 1]].fill(0.0);
            let got = lu.clone().refactor(&zeroed);
            proptest::prop_assert_eq!(&got, &oracle.clone().refactor(&zeroed));
            proptest::prop_assert_eq!(got, Err(LinalgError::Singular { column: col }));
            // A row outside the column's symbolic pattern.
            let mut pattern: Vec<usize> = sym.u_column_steps(k).map(|s| sym.row_perm[s]).collect();
            pattern.push(sym.row_perm[k]);
            pattern.extend_from_slice(sym.l_column_rows(k));
            pattern.extend_from_slice(sym.off_column_rows(k));
            if let Some(row) = (0..n).find(|r| !pattern.contains(r)) {
                let mut t2 = TripletMatrix::new(n, n);
                for c in 0..n {
                    for (r, v) in a.col(c) {
                        t2.push(r, c, v);
                    }
                }
                t2.push(row, col, 1.0);
                let grown = t2.to_csc();
                let want = Err(LinalgError::PatternChanged { column: col, row });
                proptest::prop_assert_eq!(&lu.clone().refactor(&grown), &want);
                proptest::prop_assert_eq!(&oracle.clone().refactor(&grown), &want);
            }
        }
    }

    /// The dense core kernel must replay a planted core of ~350 steps (the
    /// size of rmat1024's) no slower than 1.15× the scalar oracle — in
    /// practice it is several times faster; the margin only absorbs timer
    /// noise. Optimized builds only: debug builds keep the lane loops
    /// scalar.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "timing guard: the dense kernel needs optimized code — run with --release"
    )]
    fn core_replay_not_slower_than_scalar_oracle() {
        // A banded front (tridiagonal, every fifth row also coupled both
        // ways to a tail column) stays cheap to eliminate, so the dense
        // tail is ordered last as one core.
        let (n, tail) = (900, 350);
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - tail {
            let j = if i % 5 == 0 {
                n - tail + (i * 7) % tail
            } else {
                i + 1
            };
            t.push(i, j, -0.5);
            t.push(j, i, -0.5);
        }
        for i in n - tail..n {
            for j in n - tail..n {
                if i != j {
                    t.push(i, j, 1.0 / (1.0 + i.abs_diff(j) as f64));
                }
            }
        }
        for i in 0..n {
            t.push(i, i, 2.0 * tail as f64);
        }
        let a = t.to_csc();
        let (mut lu, mut oracle) = factor_pair(&a, 300);
        let doubled = perturbed(&a, u64::MAX, 2.0, |_| true);
        let mut ws = LuWorkspace::new();
        // Alternate two matrices: a replay on unchanged values replays
        // nothing.
        let mut time = |lu: &mut SparseLu| {
            let mut ns: Vec<u128> = (0..7)
                .map(|rep| {
                    let m = if rep % 2 == 0 { &doubled } else { &a };
                    let t0 = std::time::Instant::now();
                    lu.refactor_with(m, &mut ws).unwrap();
                    t0.elapsed().as_nanos()
                })
                .collect();
            ns.sort_unstable();
            ns[ns.len() / 2] as f64
        };
        let (t_core, t_oracle) = (time(&mut lu), time(&mut oracle));
        assert!(
            t_core <= 1.15 * t_oracle,
            "dense core replay ({t_core:.0} ns) slower than the scalar oracle ({t_oracle:.0} ns)"
        );
    }
}
