//! Sherman–Morrison–Woodbury low-rank solve updates.
//!
//! Given a factored base matrix `A` and an accumulated low-rank change
//! `ΔA = Σᵢ uᵢ vᵢᵀ`, the Woodbury identity solves `(A + ΔA) x = b` using
//! only the **existing** factorization of `A`:
//!
//! ```text
//! (A + U Vᵀ)⁻¹ b = A⁻¹ b − A⁻¹ U (I + Vᵀ A⁻¹ U)⁻¹ Vᵀ A⁻¹ b
//! ```
//!
//! Each pushed rank-1 term costs one solve of `zᵢ = A⁻¹ uᵢ`: `uᵢ` is
//! scattered into a dense right-hand side and solved in one traversal of
//! the factor ([`SparseLu::solve_into`]; a batch of terms shares lane
//! blocks of [`SparseLu::solve_multi_into`]). The production factor is
//! block triangular with thousands of diagonal blocks, where `zᵢ` is
//! structurally dense anyway and a dense traversal beats chaining
//! per-block reaches by an order of magnitude.
//! The capacitance matrix `C = I + Vᵀ Z` is rebuilt from the sparse `vᵢ`
//! against the dense `zⱼ`, and each solve's correction stays the cheap
//! streaming form `out -= Σⱼ yⱼ zⱼ` (the solution is dense, so a dense
//! axpy per term is optimal). This is the circuit simulator's
//! clamp-diode fast path: a diode
//! toggling between its on/off conductance is a symmetric 1–2 node
//! conductance change — exactly a rank-1 `ΔA` — so the transient engine
//! can track long switching cascades without ever refactoring the MNA
//! matrix (see `DESIGN.md`).

use crate::{DenseLu, DenseMatrix, LinalgError, SparseLu};

/// One rank-1 term `u vᵀ` as borrowed sparse vectors — the per-term
/// argument shape of [`LowRankUpdate::push_batch`].
pub type RankOneTermRef<'a> = (&'a [(usize, f64)], &'a [(usize, f64)]);

/// An accumulated rank-`k` update `ΔA = Σᵢ uᵢ vᵢᵀ` over a factored base
/// matrix, with Woodbury solves against `A + ΔA`.
///
/// # Example
///
/// ```
/// use ohmflow_linalg::{LowRankUpdate, SparseLu, TripletMatrix};
///
/// # fn main() -> Result<(), ohmflow_linalg::LinalgError> {
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 2.0);
/// t.push(1, 1, 4.0);
/// let base = SparseLu::factor(&t.to_csc())?;
/// // Add +2.0 at (0, 0): the updated matrix is diag(4, 4).
/// let mut up = LowRankUpdate::new(2);
/// up.push(&base, &[(0, 2.0)], &[(0, 1.0)])?;
/// let x = up.solve(&base, &[8.0, 8.0])?;
/// assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct LowRankUpdate {
    pub(crate) n: usize,
    /// Sparse `uᵢ` vectors (kept so `ΔA·x` products stay cheap).
    pub(crate) us: Vec<Vec<(usize, f64)>>,
    /// Sparse `vᵢ` vectors.
    pub(crate) vs: Vec<Vec<(usize, f64)>>,
    /// Dense `zᵢ = A⁻¹ uᵢ`, materialized at push by one dense solve.
    pub(crate) zs: Vec<Vec<f64>>,
    /// Factored capacitance matrix `C = I + Vᵀ Z`, rebuilt on every push.
    pub(crate) cap: Option<DenseLu>,
    /// Scratch for `Vᵀ x` and `C⁻¹ (Vᵀ x)` (length `k`), reused across
    /// solves so the per-time-step hot loop stays allocation-free.
    wbuf: Vec<f64>,
    ybuf: Vec<f64>,
    /// Dense right-hand-side scratch of a push (lane-interleaved for a
    /// batch).
    back_buf: Vec<f64>,
    /// Work buffer of the push solves.
    work_buf: Vec<f64>,
}

impl LowRankUpdate {
    /// An empty (identity) update over `n`-dimensional systems.
    pub fn new(n: usize) -> Self {
        LowRankUpdate {
            n,
            ..Self::default()
        }
    }

    /// Number of accumulated rank-1 terms.
    pub fn rank(&self) -> usize {
        self.us.len()
    }

    /// `true` if no terms have been pushed (solves reduce to the base).
    pub fn is_empty(&self) -> bool {
        self.us.is_empty()
    }

    /// Drops every accumulated term (used after the caller refactors its
    /// base matrix with the updates baked in).
    pub fn clear(&mut self) {
        self.us.clear();
        self.vs.clear();
        self.zs.clear();
        self.cap = None;
    }

    /// Appends the rank-1 term `u vᵀ`, where `u` and `v` are sparse
    /// `(index, value)` vectors. A symmetric conductance change `Δg`
    /// between unknowns `a` and `b` is pushed as
    /// `u = Δg·(eₐ − e_b), v = eₐ − e_b`.
    ///
    /// Costs one dense solve against `base` plus the `O(k³)` capacitance
    /// refresh.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] for an out-of-range index, and
    /// [`LinalgError::Singular`] if the updated matrix is singular (the
    /// capacitance matrix fails to factor) — the term is rolled back, and
    /// the caller should fall back to refactoring the full matrix.
    pub fn push(
        &mut self,
        base: &SparseLu,
        u: &[(usize, f64)],
        v: &[(usize, f64)],
    ) -> Result<(), LinalgError> {
        for &(i, _) in u.iter().chain(v) {
            if i >= self.n {
                return Err(LinalgError::DimensionMismatch {
                    expected: self.n,
                    found: i + 1,
                });
            }
        }
        let mut z = Vec::new();
        self.back_buf.clear();
        self.back_buf.resize(self.n, 0.0);
        for &(i, val) in u {
            self.back_buf[i] += val;
        }
        base.solve_into(&self.back_buf, &mut self.work_buf, &mut z)?;
        self.us.push(u.to_vec());
        self.vs.push(v.to_vec());
        self.zs.push(z);

        let res = match self.refresh_capacitance() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.us.pop();
                self.vs.pop();
                self.zs.pop();
                self.refresh_capacitance()
                    .expect("invariant: capacitance-shape — previous capacitance factored before");
                Err(e)
            }
        };
        crate::verify::debug_auto_audit!(self.audit());
        res
    }

    /// Appends `k = terms.len()` rank-1 terms `uᵢ vᵢᵀ` in one batch.
    /// Each term is a `(u, v)` pair of sparse `(index, value)` vectors,
    /// exactly as in [`LowRankUpdate::push`].
    ///
    /// All `k` columns of `Z = A⁻¹ U` are driven through shared factor
    /// traversals — [`SparseLu::solve_multi_into`] carries up to
    /// [`SparseLu::MAX_SOLVE_LANES`] right-hand sides per pass over the
    /// diagonal blocks, so every factor value is loaded once per
    /// lane-chunk instead of once per term — and the capacitance matrix
    /// is refreshed **once**, where `k` sequential pushes stream the
    /// factor `k` times and pay `k` incremental `O(rank³)` refactors.
    ///
    /// Equivalent to pushing the terms one by one: term order is
    /// preserved and the accumulated update is identical up to roundoff.
    ///
    /// # Errors
    ///
    /// As [`LowRankUpdate::push`]; on any error the whole batch is rolled
    /// back — no partial application.
    pub fn push_batch(
        &mut self,
        base: &SparseLu,
        terms: &[RankOneTermRef<'_>],
    ) -> Result<(), LinalgError> {
        if terms.is_empty() {
            return Ok(());
        }
        if terms.len() == 1 {
            return self.push(base, terms[0].0, terms[0].1);
        }
        for (u, v) in terms {
            for &(i, _) in u.iter().chain(v.iter()) {
                if i >= self.n {
                    return Err(LinalgError::DimensionMismatch {
                        expected: self.n,
                        found: i + 1,
                    });
                }
            }
        }
        let k0 = self.us.len();
        if let Err(e) = self.compute_z_batch(base, terms) {
            self.zs.truncate(k0);
            return Err(e);
        }
        for (u, v) in terms {
            self.us.push(u.to_vec());
            self.vs.push(v.to_vec());
        }
        let res = match self.refresh_capacitance() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.us.truncate(k0);
                self.vs.truncate(k0);
                self.zs.truncate(k0);
                self.refresh_capacitance()
                    .expect("invariant: capacitance-shape — previous capacitance factored before");
                Err(e)
            }
        };
        crate::verify::debug_auto_audit!(self.audit());
        res
    }

    /// Batch half of [`LowRankUpdate::push_batch`]: appends one
    /// `zᵢ = A⁻¹ uᵢ` per term to `self.zs`. On error some columns may
    /// already be appended — the caller truncates back to its saved rank.
    fn compute_z_batch(
        &mut self,
        base: &SparseLu,
        terms: &[RankOneTermRef<'_>],
    ) -> Result<(), LinalgError> {
        let mut i = 0;
        while i < terms.len() {
            let k = (terms.len() - i).min(SparseLu::MAX_SOLVE_LANES);
            self.back_buf.clear();
            self.back_buf.resize(self.n * k, 0.0);
            for (lane, (u, _)) in terms[i..i + k].iter().enumerate() {
                for &(r, val) in u.iter() {
                    self.back_buf[r * k + lane] += val;
                }
            }
            let mut zflat = Vec::new();
            base.solve_multi_into(&self.back_buf, k, &mut self.work_buf, &mut zflat)?;
            for lane in 0..k {
                self.zs
                    .push((0..self.n).map(|r| zflat[r * k + lane]).collect());
            }
            i += k;
        }
        Ok(())
    }

    /// Rebuilds and refactors `C = I + Vᵀ Z`. `k` is small (the caller
    /// refactors its base long before the rank grows large), so the dense
    /// `O(k³)` cost is negligible next to one sparse solve.
    fn refresh_capacitance(&mut self) -> Result<(), LinalgError> {
        let k = self.us.len();
        if k == 0 {
            self.cap = None;
            return Ok(());
        }
        let mut c = DenseMatrix::zeros(k, k);
        for i in 0..k {
            c[(i, i)] = 1.0;
            for j in 0..k {
                let dot: f64 = self.vs[i].iter().map(|&(r, val)| val * self.zs[j][r]).sum();
                c[(i, j)] += dot;
            }
        }
        self.cap = Some(DenseLu::factor(&c)?);
        Ok(())
    }

    /// Solves `(A + ΔA) x = b`.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::solve`].
    pub fn solve(&mut self, base: &SparseLu, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut work = Vec::new();
        let mut out = Vec::new();
        self.solve_into(base, b, &mut work, &mut out)?;
        Ok(out)
    }

    /// [`LowRankUpdate::solve`] into caller-provided buffers (see
    /// [`SparseLu::solve_into`]).
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::solve`].
    pub fn solve_into(
        &mut self,
        base: &SparseLu,
        b: &[f64],
        work: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        base.solve_into(b, work, out)?;
        self.correct(base, out)
    }

    /// Applies the Woodbury correction to `out`, a base solution
    /// `A⁻¹ b`, turning it into `(A + ΔA)⁻¹ b`:
    /// `out -= Σⱼ yⱼ zⱼ` with `y = C⁻¹ Vᵀ out` — one capacitance solve
    /// plus one dense axpy per active term (the solution is dense, so the
    /// streaming axpy is the optimal application).
    ///
    /// A no-op while no terms are pushed. Split from
    /// [`LowRankUpdate::solve_into`] so callers can time / account the
    /// base triangular solve and the Woodbury application separately.
    ///
    /// # Errors
    ///
    /// Same as [`SparseLu::solve`].
    pub fn correct(&mut self, _base: &SparseLu, out: &mut [f64]) -> Result<(), LinalgError> {
        let Some(cap) = &self.cap else {
            return Ok(());
        };
        let k = self.us.len();
        self.wbuf.clear();
        self.wbuf.resize(k, 0.0);
        for (w, vi) in self.wbuf.iter_mut().zip(&self.vs) {
            *w = vi.iter().map(|&(r, val)| val * out[r]).sum();
        }
        cap.solve_into(&self.wbuf, &mut self.ybuf)?;
        for (yi, zi) in self.ybuf.iter().zip(&self.zs) {
            if *yi != 0.0 {
                // Dense correction per term through the lane-chunked axpy.
                crate::vecops::axpy(-yi, zi, out);
            }
        }
        Ok(())
    }

    /// Accumulates `ΔA · x` into `y` (used for residual checks without
    /// assembling the updated matrix).
    ///
    /// # Panics
    ///
    /// Panics if `x` and `y` are shorter than the system dimension.
    pub fn accumulate_matvec(&self, x: &[f64], y: &mut [f64]) {
        for (ui, vi) in self.us.iter().zip(&self.vs) {
            let dot: f64 = vi.iter().map(|&(r, val)| val * x[r]).sum();
            if dot != 0.0 {
                for &(r, val) in ui {
                    y[r] += val * dot;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    fn grid_system(side: usize) -> TripletMatrix {
        let n = side * side;
        let mut t = TripletMatrix::new(n, n);
        let id = |r: usize, c: usize| r * side + c;
        for r in 0..side {
            for c in 0..side {
                let me = id(r, c);
                let mut deg = 1.0;
                for (nr, nc) in [
                    (r.wrapping_sub(1), c),
                    (r + 1, c),
                    (r, c.wrapping_sub(1)),
                    (r, c + 1),
                ] {
                    if nr < side && nc < side {
                        t.push(me, id(nr, nc), -1.0);
                        deg += 1.0;
                    }
                }
                t.push(me, me, deg);
            }
        }
        t
    }

    #[test]
    fn rank1_update_matches_refactored_matrix() {
        let side = 6;
        let t = grid_system(side);
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();

        // Conductance-style update between unknowns 3 and 11: Δg = 5.
        let dg = 5.0;
        let d = [(3usize, 1.0), (11usize, -1.0)];
        let u: Vec<(usize, f64)> = d.iter().map(|&(i, s)| (i, dg * s)).collect();
        let mut up = LowRankUpdate::new(csc.cols());
        up.push(&base, &u, &d).unwrap();

        let mut t2 = grid_system(side);
        t2.push(3, 3, dg);
        t2.push(11, 11, dg);
        t2.push(3, 11, -dg);
        t2.push(11, 3, -dg);
        let exact = SparseLu::factor(&t2.to_csc()).unwrap();

        let b: Vec<f64> = (0..csc.cols()).map(|i| (i as f64 * 0.37).sin()).collect();
        let x_up = up.solve(&base, &b).unwrap();
        let x_ref = exact.solve(&b).unwrap();
        for (a, r) in x_up.iter().zip(&x_ref) {
            assert!((a - r).abs() < 1e-10, "{a} vs {r}");
        }
    }

    #[test]
    fn stacked_updates_compose() {
        let t = grid_system(5);
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();
        let mut up = LowRankUpdate::new(csc.cols());
        let mut t2 = grid_system(5);
        for (step, &(a, b, dg)) in [(0usize, 7usize, 3.0), (12, 20, -0.5), (3, 3, 2.0)]
            .iter()
            .enumerate()
        {
            let d: Vec<(usize, f64)> = if a == b {
                vec![(a, 1.0)]
            } else {
                vec![(a, 1.0), (b, -1.0)]
            };
            let u: Vec<(usize, f64)> = d.iter().map(|&(i, s)| (i, dg * s)).collect();
            up.push(&base, &u, &d).unwrap();
            assert_eq!(up.rank(), step + 1);
            t2.push(a, a, dg);
            if a != b {
                t2.push(b, b, dg);
                t2.push(a, b, -dg);
                t2.push(b, a, -dg);
            }
        }
        let exact = SparseLu::factor(&t2.to_csc()).unwrap();
        let b: Vec<f64> = (0..csc.cols()).map(|i| 1.0 + i as f64).collect();
        let x_up = up.solve(&base, &b).unwrap();
        let x_ref = exact.solve(&b).unwrap();
        for (a, r) in x_up.iter().zip(&x_ref) {
            assert!((a - r).abs() < 1e-9, "{a} vs {r}");
        }
    }

    #[test]
    fn singular_update_rolls_back() {
        // A = I (2x2); pushing -1 at (0,0) makes it singular.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let base = SparseLu::factor(&t.to_csc()).unwrap();
        let mut up = LowRankUpdate::new(2);
        assert!(up.push(&base, &[(0, -1.0)], &[(0, 1.0)]).is_err());
        assert_eq!(up.rank(), 0);
        // Still usable as a pass-through after the rollback.
        let x = up.solve(&base, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![2.0, 3.0]);
    }

    #[test]
    fn push_batch_matches_sequential_on_grid() {
        let t = grid_system(6);
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();
        let pairs = [
            (0usize, 7usize, 3.0),
            (12, 20, -0.5),
            (3, 3, 2.0),
            (30, 5, 1.25),
        ];
        #[allow(clippy::type_complexity)]
        let terms: Vec<(Vec<(usize, f64)>, Vec<(usize, f64)>)> = pairs
            .iter()
            .map(|&(a, b, dg)| {
                let d: Vec<(usize, f64)> = if a == b {
                    vec![(a, 1.0)]
                } else {
                    vec![(a, 1.0), (b, -1.0)]
                };
                let u: Vec<(usize, f64)> = d.iter().map(|&(i, s)| (i, dg * s)).collect();
                (u, d)
            })
            .collect();
        let mut seq = LowRankUpdate::new(csc.cols());
        for (u, v) in &terms {
            seq.push(&base, u, v).unwrap();
        }
        let mut bat = LowRankUpdate::new(csc.cols());
        let refs: Vec<RankOneTermRef<'_>> = terms
            .iter()
            .map(|(u, v)| (u.as_slice(), v.as_slice()))
            .collect();
        bat.push_batch(&base, &refs).unwrap();
        assert_eq!(bat.rank(), 4);
        let b: Vec<f64> = (0..csc.cols()).map(|i| (i as f64 * 0.61).cos()).collect();
        let x_seq = seq.solve(&base, &b).unwrap();
        let x_bat = bat.solve(&base, &b).unwrap();
        for (a, r) in x_bat.iter().zip(&x_seq) {
            assert!((a - r).abs() < 1e-12 * r.abs().max(1.0), "{a} vs {r}");
        }
    }

    #[test]
    fn push_batch_rolls_back_whole_batch_on_singularity() {
        // A = I (2x2); the second term (-1 at (1,1)) makes it singular —
        // the *entire* batch must roll back, including the valid first term.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        let base = SparseLu::factor(&t.to_csc()).unwrap();
        let mut up = LowRankUpdate::new(2);
        let good: RankOneTermRef<'_> = (&[(0, 2.0)], &[(0, 1.0)]);
        let bad: RankOneTermRef<'_> = (&[(1, -1.0)], &[(1, 1.0)]);
        assert!(up.push_batch(&base, &[good, bad]).is_err());
        assert_eq!(up.rank(), 0);
        let x = up.solve(&base, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![2.0, 3.0]);
    }

    #[test]
    fn matvec_accumulation_matches_update() {
        let t = grid_system(4);
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();
        let mut up = LowRankUpdate::new(csc.cols());
        up.push(&base, &[(2, 4.0), (9, -4.0)], &[(2, 1.0), (9, -1.0)])
            .unwrap();
        let x: Vec<f64> = (0..csc.cols()).map(|i| i as f64 * 0.1).collect();
        // (A + ΔA) x computed two ways.
        let mut y = csc.mul_vec(&x);
        up.accumulate_matvec(&x, &mut y);
        let x_back = up.solve(&base, &y).unwrap();
        for (a, r) in x_back.iter().zip(&x) {
            assert!((a - r).abs() < 1e-10);
        }
    }

    #[test]
    fn correct_is_equivalent_to_solve_into() {
        // The split correction path (base solve, then `correct`) must be
        // the same computation as `solve_into`.
        let t = grid_system(6);
        let csc = t.to_csc();
        let base = SparseLu::factor(&csc).unwrap();
        let mut up = LowRankUpdate::new(csc.cols());
        up.push(&base, &[(4, 2.0), (17, -2.0)], &[(4, 1.0), (17, -1.0)])
            .unwrap();
        let b: Vec<f64> = (0..csc.cols()).map(|i| (i as f64).cos()).collect();
        let x_joint = up.solve(&base, &b).unwrap();
        let (mut work, mut x_split) = (Vec::new(), Vec::new());
        base.solve_into(&b, &mut work, &mut x_split).unwrap();
        up.correct(&base, &mut x_split).unwrap();
        assert_eq!(x_joint, x_split);
    }
}
