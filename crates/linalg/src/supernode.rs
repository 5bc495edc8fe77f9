//! Supernode detection and dense-panel layout over a frozen symbolic LU
//! pattern.
//!
//! A *supernode* is a maximal run of consecutive pivot steps whose `L`
//! columns share one nonzero structure: each member's pattern is contained
//! in its predecessor's (minus the predecessor's pivot row), and the
//! member's pivot row lies in the predecessor's pattern (elimination-tree
//! adjacency). Such runs are what the trailing, nearly-dense columns of an
//! irreducible substrate core produce, and they let the numeric replay and
//! the triangular solves work on small dense blocks — contiguous loads,
//! fixed-trip inner loops, one `U`-coefficient finalize per supernode
//! instead of one scatter per entry — rather than per-entry indexed
//! scatters (see the kernels in [`crate::dense`]).
//!
//! Detection runs once per symbolic analysis, after the pivot order is
//! frozen, in `O(nnz(L) + nnz(U))`:
//!
//! * step `k` joins the supernode started at `k0` iff the current width is
//!   below [`MAX_SN_WIDTH`], `k` stays inside `k0`'s BTF diagonal block,
//!   `row_perm[k] ∈ L(:, k-1)`, `L(:, k) ⊆ L(:, k-1)` (checked with a
//!   stamp array), and the *relaxed amalgamation* bound holds: merging may
//!   store at most `relax` explicit-zero cells in column `k`'s panel
//!   column (`relax = 0` admits only exactly-nested chains).
//!
//! Each multi-column supernode owns one contiguous region of the panel
//! value array, laid out as `[ body r×w row-major | ldiag w×w | udiag w×w ]`:
//! the body holds the `L` rows below the supernode (one row per original
//! row id in `rows`), `ldiag` the within-supernode strictly-lower `L`
//! (column-major by source step), `udiag` the within-supernode `U`
//! including the pivots (column-major by target step). Absent (padded)
//! positions hold exact `0.0`, which is what makes the dense kernels
//! correct: a padded cell contributes `x - 0.0` to any update it touches.
//! The plan precomputes, per stored `L`/`U` index, the absolute panel slot
//! it mirrors into ([`SupernodePlan::l_slot`] / [`SupernodePlan::u_slot`]),
//! so the numeric replay fills panels with a straight gather.

/// Maximum supernode width. Bounds the blocked kernels' local coefficient
/// buffers (stack arrays of this size) and keeps one panel column within
/// L1-friendly reach; 32 matches the width at which the rank-update's
/// O(w²) dense triangular finalize stops being negligible against the
/// O(r·w) body update it amortizes.
pub(crate) const MAX_SN_WIDTH: usize = 32;

/// Sentinel slot for stored entries outside any multi-column supernode.
pub(crate) const NO_SLOT: usize = usize::MAX;

/// Aggregate supernode statistics of a symbolic plan — see
/// [`SymbolicLu::supernode_stats`](crate::SymbolicLu::supernode_stats).
/// Exposed so perf guards and benches can assert that a substrate actually
/// amalgamates (a plan with `multi == 0` runs the scalar kernels).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SupernodeStats {
    /// Total supernodes (width-1 singletons included).
    pub supernodes: usize,
    /// Supernodes of width ≥ 2 — the ones the blocked kernels act on.
    pub multi: usize,
    /// Pivot steps covered by multi-column supernodes.
    pub covered_steps: usize,
    /// Width of the widest supernode.
    pub max_width: usize,
    /// Mean width of the multi-column supernodes (0 when there are none).
    pub mean_width: f64,
    /// Explicit-zero cells admitted by relaxed amalgamation (panel padding
    /// below the diagonal; the dense `ldiag`/`udiag` triangles' structural
    /// zeros are not counted).
    pub padding: usize,
}

/// Borrowed view of the symbolic-pattern slices the plan builder needs —
/// passed explicitly so this module does not reach into
/// [`SymbolicLu`](crate::SymbolicLu)'s private fields.
pub(crate) struct SymbolicView<'a> {
    pub(crate) n: usize,
    /// `L` pattern by column; row ids are *original* rows.
    pub(crate) l_ptr: &'a [usize],
    pub(crate) l_rows: &'a [usize],
    /// `U` pattern by column; entries are pivot steps ascending, pivot last.
    pub(crate) u_ptr: &'a [usize],
    pub(crate) u_rows: &'a [usize],
    /// Pivot step → original row.
    pub(crate) row_perm: &'a [usize],
    /// Original row → pivot step.
    pub(crate) pinv: &'a [usize],
    /// BTF diagonal-block boundaries in step space.
    pub(crate) block_ptr: &'a [usize],
}

/// The supernode partition of a symbolic plan plus everything the blocked
/// numeric kernels need precomputed: panel regions, body-row lists and the
/// `L`/`U`-index → panel-slot gather maps.
#[derive(Debug)]
pub(crate) struct SupernodePlan {
    /// Supernode `s` owns pivot steps `sn_ptr[s]..sn_ptr[s + 1]`.
    pub(crate) sn_ptr: Vec<usize>,
    /// Pivot step → owning supernode.
    pub(crate) sn_of_step: Vec<usize>,
    /// Panel region of supernode `s`: `panel_ptr[s]..panel_ptr[s + 1]`
    /// (empty for singletons). Layout `[body r×w | ldiag w×w | udiag w×w]`.
    pub(crate) panel_ptr: Vec<usize>,
    /// Body rows of supernode `s`: `rows[row_ptr[s]..row_ptr[s + 1]]` —
    /// the original row ids below the supernode, in first-column pattern
    /// order (the body block's row order).
    pub(crate) row_ptr: Vec<usize>,
    pub(crate) rows: Vec<usize>,
    /// Per stored `L` index: the panel slot mirroring it, or [`NO_SLOT`]
    /// for entries of singleton supernodes.
    pub(crate) l_slot: Vec<usize>,
    /// Per stored `U` index: the `udiag` slot for within-supernode entries
    /// (pivots included), [`NO_SLOT`] for entries crossing supernodes.
    pub(crate) u_slot: Vec<usize>,
    /// Total panel storage (value-array length).
    pub(crate) panel_len: usize,
    pub(crate) stats: SupernodeStats,
}

impl SupernodePlan {
    /// Detects the supernode partition and builds the panel layout.
    /// `relax` is the relaxed-amalgamation knob: the maximum number of
    /// explicit-zero cells a merged column may store in its panel column.
    pub(crate) fn build(sym: &SymbolicView<'_>, relax: usize) -> SupernodePlan {
        let n = sym.n;
        let mut sn_ptr = vec![0usize];
        // Detection: one stamped-containment pass per column against its
        // immediate predecessor.
        let mut stamp = vec![usize::MAX; n];
        for b in sym.block_ptr.windows(2) {
            let (lo, hi) = (b[0], b[1]);
            if lo >= hi {
                continue;
            }
            if sn_ptr.last() != Some(&lo) {
                sn_ptr.push(lo);
            }
            let mut start = lo;
            for k in lo + 1..hi {
                for &r in &sym.l_rows[sym.l_ptr[k - 1]..sym.l_ptr[k]] {
                    stamp[r] = k - 1;
                }
                let w = k - start;
                let len0 = sym.l_ptr[start + 1] - sym.l_ptr[start];
                let lenk = sym.l_ptr[k + 1] - sym.l_ptr[k];
                let ok = w < MAX_SN_WIDTH
                    && stamp[sym.row_perm[k]] == k - 1
                    && len0 >= w + lenk
                    && len0 - (w + lenk) <= relax
                    && sym.l_rows[sym.l_ptr[k]..sym.l_ptr[k + 1]]
                        .iter()
                        .all(|&r| stamp[r] == k - 1);
                if !ok {
                    sn_ptr.push(k);
                    start = k;
                }
            }
        }
        if sn_ptr.last() != Some(&n) && n > 0 {
            sn_ptr.push(n);
        }
        let n_sn = sn_ptr.len() - 1;

        // Panel layout, gather maps, stats.
        let mut sn_of_step = vec![0usize; n];
        let mut panel_ptr = vec![0usize; n_sn + 1];
        let mut row_ptr = vec![0usize; n_sn + 1];
        let mut rows: Vec<usize> = Vec::new();
        let mut l_slot = vec![NO_SLOT; sym.l_rows.len()];
        let mut u_slot = vec![NO_SLOT; sym.u_rows.len()];
        // Body-row position scratch: only read for rows just written (every
        // member column's body pattern nests inside the first column's).
        let mut rowpos = vec![0usize; n];
        let mut panel_len = 0usize;
        let mut stats = SupernodeStats {
            supernodes: n_sn,
            ..SupernodeStats::default()
        };
        for s in 0..n_sn {
            let (k0, k1) = (sn_ptr[s], sn_ptr[s + 1]);
            let w = k1 - k0;
            sn_of_step[k0..k1].fill(s);
            if w == 1 {
                panel_ptr[s + 1] = panel_len;
                row_ptr[s + 1] = rows.len();
                continue;
            }
            stats.multi += 1;
            stats.covered_steps += w;
            stats.max_width = stats.max_width.max(w);
            let mut r_cnt = 0usize;
            for &r in &sym.l_rows[sym.l_ptr[k0]..sym.l_ptr[k0 + 1]] {
                if sym.pinv[r] >= k1 {
                    rowpos[r] = r_cnt;
                    rows.push(r);
                    r_cnt += 1;
                }
            }
            let base = panel_len;
            let ldiag_base = base + r_cnt * w;
            let udiag_base = ldiag_base + w * w;
            panel_len = udiag_base + w * w;
            for t in 0..w {
                let k = k0 + t;
                let lenk = sym.l_ptr[k + 1] - sym.l_ptr[k];
                stats.padding += r_cnt + (w - 1 - t) - lenk;
                let lr = sym.l_ptr[k]..sym.l_ptr[k + 1];
                for (slot, &r) in l_slot[lr.clone()].iter_mut().zip(&sym.l_rows[lr]) {
                    let p = sym.pinv[r];
                    *slot = if p < k1 {
                        ldiag_base + t * w + (p - k0)
                    } else {
                        base + rowpos[r] * w + t
                    };
                }
                let ur = sym.u_ptr[k]..sym.u_ptr[k + 1];
                for (slot, &step) in u_slot[ur.clone()].iter_mut().zip(&sym.u_rows[ur]) {
                    if step >= k0 {
                        *slot = udiag_base + t * w + (step - k0);
                    }
                }
            }
            panel_ptr[s + 1] = panel_len;
            row_ptr[s + 1] = rows.len();
        }
        if stats.multi > 0 {
            stats.mean_width = stats.covered_steps as f64 / stats.multi as f64;
        }

        SupernodePlan {
            sn_ptr,
            sn_of_step,
            panel_ptr,
            row_ptr,
            rows,
            l_slot,
            u_slot,
            panel_len,
            stats,
        }
    }

    /// Number of supernodes.
    pub(crate) fn count(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Body rows of supernode `s` (original row ids).
    pub(crate) fn body_rows(&self, s: usize) -> &[usize] {
        &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]]
    }
}
