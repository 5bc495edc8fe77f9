use std::fmt;
use std::ops::{Index, IndexMut};

use crate::LinalgError;

/// Left-looking in-core update of column `j` of a dense core during the
/// numeric replay: for each in-core source `s` in `head..j`, ascending,
/// `col[s + 1..] -= col[s] · L(s + 1.., s)`. `done` holds the finished
/// columns `0..j` of the `c × c` column-major core (`c = col.len()`, unit
/// `L` below the diagonal). Zero coefficients are skipped, as the
/// per-entry replay skips them, so every entry sees the same operations
/// in the same order.
///
/// Sources go in groups of four: the group's own rows are updated source
/// by source, which finalizes its four coefficients, then each row below
/// the group takes all four subtractions in source order in one pass —
/// one load and store of the row per four updates instead of per update.
#[inline]
pub(crate) fn core_column_update(done: &[f64], col: &mut [f64], j: usize, head: usize) {
    let c = col.len();
    let lcol = |s: usize| &done[s * c..s * c + c];
    let single = |col: &mut [f64], s: usize, rows: std::ops::Range<usize>| {
        let u = col[s];
        if u != 0.0 {
            for (v, &lv) in col[rows.clone()].iter_mut().zip(&lcol(s)[rows]) {
                *v -= u * lv;
            }
        }
    };
    let mut s = head;
    while s + 4 <= j {
        for t in s..s + 3 {
            single(col, t, t + 1..s + 4);
        }
        let u = [col[s], col[s + 1], col[s + 2], col[s + 3]];
        let below = s + 4..c;
        if u.iter().all(|&v| v != 0.0) {
            let [l0, l1, l2, l3] = [s, s + 1, s + 2, s + 3].map(|t| &lcol(t)[below.clone()]);
            let rows = col[below].iter_mut().zip(l0).zip(l1).zip(l2).zip(l3);
            for ((((v, &a0), &a1), &a2), &a3) in rows {
                *v = (((*v - u[0] * a0) - u[1] * a1) - u[2] * a2) - u[3] * a3;
            }
        } else {
            for t in s..s + 4 {
                single(col, t, below.clone());
            }
        }
        s += 4;
    }
    for t in s..j {
        single(col, t, t + 1..c);
    }
}

/// Forward substitution `L z = b` with the unit-lower part of a `c × c`
/// column-major dense core, in place on `K` interleaved lanes
/// (`x[i * K + lane]`): column by column, skipping a column whose lanes
/// are all zero, exactly as the per-entry forward substitution does.
#[inline]
pub(crate) fn core_forward<const K: usize>(lu: &[f64], x: &mut [f64]) {
    let c = x.len() / K;
    for j in 0..c {
        let (upto, below) = x.split_at_mut((j + 1) * K);
        let z = &upto[j * K..];
        if z.iter().any(|&v| v != 0.0) {
            for (xi, &lv) in below.chunks_exact_mut(K).zip(&lu[j * c + j + 1..j * c + c]) {
                for (xv, &zv) in xi.iter_mut().zip(z) {
                    *xv -= zv * lv;
                }
            }
        }
    }
}

/// Backward substitution `U y = z` with the upper part of a `c × c`
/// column-major dense core, in place on `K` interleaved lanes: column
/// `j`, last first, divides by its pivot and updates its stored in-core
/// rows `head[j]..j` (the rows above `head[j]` are structurally zero).
#[inline]
pub(crate) fn core_backward<const K: usize>(lu: &[f64], head: &[u32], x: &mut [f64]) {
    let c = x.len() / K;
    for j in (0..c).rev() {
        let d = lu[j * c + j];
        let (above, rest) = x.split_at_mut(j * K);
        let y = &mut rest[..K];
        for v in y.iter_mut() {
            *v /= d;
        }
        if y.iter().any(|&v| v != 0.0) {
            let h = head[j] as usize;
            for (xi, &uv) in above[h * K..]
                .chunks_exact_mut(K)
                .zip(&lu[j * c + h..j * c + j])
            {
                for (xv, &yv) in xi.iter_mut().zip(&*y) {
                    *xv -= yv * uv;
                }
            }
        }
    }
}

/// A dense, row-major, `f64` matrix.
///
/// Used for small systems (the worked examples of the paper have a handful of
/// circuit nodes), for reference solutions in tests, and as the fallback when
/// sparsity does not pay off.
///
/// # Example
///
/// ```
/// use ohmflow_linalg::DenseMatrix;
///
/// let mut m = DenseMatrix::zeros(2, 2);
/// m[(0, 0)] = 1.0;
/// m[(1, 1)] = 2.0;
/// assert_eq!(m.mul_vec(&[3.0, 4.0]), vec![3.0, 8.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major nested slice.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        DenseMatrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// Transposed matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Factors the matrix and solves `A x = b` in one call.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square matrices,
    /// [`LinalgError::DimensionMismatch`] for a wrong-size `b`, and
    /// [`LinalgError::Singular`] when elimination encounters a zero pivot.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        DenseLu::factor(self)?.solve(b)
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// Partial-pivoting LU factorization of a [`DenseMatrix`].
///
/// # Example
///
/// ```
/// use ohmflow_linalg::{DenseLu, DenseMatrix};
///
/// # fn main() -> Result<(), ohmflow_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = DenseLu::factor(&a)?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    lu: DenseMatrix,
    perm: Vec<usize>,
    /// Parity of the permutation; `determinant` needs it.
    sign: f64,
}

impl DenseLu {
    /// Dimension of the factored system (the auditor checks it against
    /// the rank of the owning low-rank update).
    pub(crate) fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Factors `a` as `P A = L U` with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square, or
    /// [`LinalgError::Singular`] if a pivot column is entirely zero.
    pub fn factor(a: &DenseMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                rows: a.rows,
                cols: a.cols,
            });
        }
        let n = a.rows;
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;

        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 {
                return Err(LinalgError::Singular { column: k });
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let upd = factor * lu[(k, j)];
                        lu[(i, j)] -= upd;
                    }
                }
            }
        }
        Ok(DenseLu { lu, perm, sign })
    }

    /// Solves `A x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut out = Vec::new();
        self.solve_into(b, &mut out)?;
        Ok(out)
    }

    /// [`DenseLu::solve`] into a caller-provided buffer, reusing its
    /// allocation.
    ///
    /// # Errors
    ///
    /// Same as [`DenseLu::solve`].
    pub fn solve_into(&self, b: &[f64], out: &mut Vec<f64>) -> Result<(), LinalgError> {
        let n = self.lu.rows;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Apply permutation, then forward- and back-substitute.
        out.clear();
        out.extend(self.perm.iter().map(|&p| b[p]));
        let x = out;
        for i in 1..n {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(i) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for (j, xj) in x.iter().enumerate().take(n).skip(i + 1) {
                s -= self.lu[(i, j)] * xj;
            }
            x[i] = s / self.lu[(i, i)];
        }
        Ok(())
    }

    /// Determinant of the factored matrix.
    pub fn determinant(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.lu.rows {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let a = DenseMatrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.0];
        let x = a.solve(&b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn solve_3x3_known() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_reports_column() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match DenseLu::factor(&a) {
            Err(LinalgError::Singular { column }) => assert_eq!(column, 1),
            other => panic!("expected singular, got {other:?}"),
        }
    }

    #[test]
    fn not_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(LinalgError::NotSquare { rows: 2, cols: 3 })
        ));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn determinant_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = DenseLu::factor(&a).unwrap();
        assert!((lu.determinant() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn negative_conductance_indefinite_system() {
        // MNA systems with negative resistors are indefinite but solvable.
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, -1.0]]);
        let x = a.solve(&[3.0, 1.0]).unwrap();
        let r = a.mul_vec(&x);
        assert!((r[0] - 3.0).abs() < 1e-12 && (r[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn wrong_rhs_length() {
        let a = DenseMatrix::identity(2);
        assert!(matches!(
            a.solve(&[1.0]),
            Err(LinalgError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
    }
}
