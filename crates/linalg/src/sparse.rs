use std::fmt;

/// Coordinate-format (COO / "triplet") sparse-matrix builder.
///
/// This is the assembly format: MNA stamping pushes `(row, col, value)`
/// triplets, duplicates are *summed* on conversion — exactly the semantics a
/// circuit stamper wants (two resistors between the same nodes simply add
/// conductance).
///
/// # Example
///
/// ```
/// use ohmflow_linalg::TripletMatrix;
///
/// let mut t = TripletMatrix::new(2, 2);
/// t.push(0, 0, 1.0);
/// t.push(0, 0, 2.0); // duplicate: summed
/// let csr = t.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `rows x cols` builder.
    pub fn new(rows: usize, cols: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with reserved capacity for `nnz` entries.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        TripletMatrix {
            rows,
            cols,
            entries: Vec::with_capacity(nnz),
        }
    }

    /// Appends `value` at `(row, col)`. Duplicates are summed on conversion.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "triplet ({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of raw (possibly duplicate) entries pushed so far.
    pub fn raw_len(&self) -> usize {
        self.entries.len()
    }

    /// Removes all entries, keeping the dimensions.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Compresses into row-major [`CsrMatrix`], summing duplicates and
    /// dropping exact zeros produced by cancellation only when `prune` asks
    /// for it (structural zeros are kept so factorization patterns stay
    /// stable between Newton iterations).
    pub fn to_csr(&self) -> CsrMatrix {
        compress(self.rows, self.cols, &self.entries, /*by_row=*/ true).into_csr()
    }

    /// Compresses into column-major [`CscMatrix`]. Duplicates are summed
    /// in push order: `((v1 + v2) + v3) + ...`.
    pub fn to_csc(&self) -> CscMatrix {
        compress(self.cols, self.rows, &self.entries, /*by_row=*/ false).into_csc()
    }
}

/// Intermediate compressed form shared by the CSR/CSC conversions.
struct Compressed {
    /// Outer dimension (rows for CSR, cols for CSC).
    outer: usize,
    /// Inner dimension.
    inner: usize,
    ptr: Vec<usize>,
    idx: Vec<usize>,
    val: Vec<f64>,
}

fn compress(
    outer_n: usize,
    inner_n: usize,
    entries: &[(usize, usize, f64)],
    by_row: bool,
) -> Compressed {
    // Counting sort by outer index, then sort each segment by inner index and
    // merge duplicates.
    let key = |e: &(usize, usize, f64)| if by_row { e.0 } else { e.1 };
    let sub = |e: &(usize, usize, f64)| if by_row { e.1 } else { e.0 };

    let mut counts = vec![0usize; outer_n + 1];
    for e in entries {
        counts[key(e) + 1] += 1;
    }
    for i in 0..outer_n {
        counts[i + 1] += counts[i];
    }
    let mut slot = counts.clone();
    let mut tmp_idx = vec![0usize; entries.len()];
    let mut tmp_val = vec![0.0f64; entries.len()];
    for e in entries {
        let k = key(e);
        let s = slot[k];
        tmp_idx[s] = sub(e);
        tmp_val[s] = e.2;
        slot[k] += 1;
    }

    let mut ptr = Vec::with_capacity(outer_n + 1);
    let mut idx = Vec::with_capacity(entries.len());
    let mut val = Vec::with_capacity(entries.len());
    ptr.push(0);
    let mut seg: Vec<(usize, f64)> = Vec::new();
    for o in 0..outer_n {
        seg.clear();
        seg.extend(
            tmp_idx[counts[o]..counts[o + 1]]
                .iter()
                .copied()
                .zip(tmp_val[counts[o]..counts[o + 1]].iter().copied()),
        );
        // Stable: the counting sort kept push order, so duplicates merge
        // in the order they were pushed (in-place restampers replay it).
        seg.sort_by_key(|&(i, _)| i);
        let mut last: Option<usize> = None;
        for &(i, v) in seg.iter() {
            if last == Some(i) {
                *val.last_mut()
                    .expect("invariant: a duplicate entry was just pushed") += v;
            } else {
                idx.push(i);
                val.push(v);
                last = Some(i);
            }
        }
        ptr.push(idx.len());
    }
    Compressed {
        outer: outer_n,
        inner: inner_n,
        ptr,
        idx,
        val,
    }
}

impl Compressed {
    fn into_csr(self) -> CsrMatrix {
        CsrMatrix {
            rows: self.outer,
            cols: self.inner,
            row_ptr: self.ptr,
            col_idx: self.idx,
            values: self.val,
        }
    }

    fn into_csc(self) -> CscMatrix {
        CscMatrix {
            cols: self.outer,
            rows: self.inner,
            col_ptr: self.ptr,
            row_idx: self.idx,
            values: self.val,
        }
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Value at `(row, col)`, `0.0` if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        match self.col_idx[lo..hi].binary_search(&col) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(col, value)` pairs of one row.
    pub fn row(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[row], self.row_ptr[row + 1]);
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut s = 0.0;
            for (c, v) in self.row(r) {
                s += v * x[c];
            }
            *yr = s;
        }
        y
    }
}

/// Compressed-sparse-column matrix — the input format of [`crate::SparseLu`].
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row indices, column-segment by column-segment.
    pub fn row_idx(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values aligned with [`CscMatrix::row_idx`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// `(col_ptr, row_idx, values)` with the values mutable: rewrite a
    /// matrix's numbers in place while its pattern stays fixed.
    pub fn pattern_values_mut(&mut self) -> (&[usize], &[usize], &mut [f64]) {
        (&self.col_ptr, &self.row_idx, &mut self.values)
    }

    /// Iterator over `(row, value)` pairs of one column.
    pub fn col(&self, col: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.col_ptr[col], self.col_ptr[col + 1]);
        self.row_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(row, col)`, `0.0` if not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (lo, hi) = (self.col_ptr[col], self.col_ptr[col + 1]);
        match self.row_idx[lo..hi].binary_search(&row) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Matrix-vector product `A * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.mul_vec_into(x, &mut y);
        y
    }

    /// [`CscMatrix::mul_vec`] into a caller-provided buffer, reusing its
    /// allocation (hot loops computing residuals every time step).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec_into(&self, x: &[f64], y: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        y.clear();
        y.resize(self.rows, 0.0);
        for (c, &xc) in x.iter().enumerate() {
            if xc != 0.0 {
                for (r, v) in self.col(c) {
                    y[r] += v * xc;
                }
            }
        }
    }
}

impl fmt::Display for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CscMatrix {}x{} nnz={}",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> TripletMatrix {
        // [ 1 0 2 ]
        // [ 0 3 0 ]
        // [ 4 0 5 ]
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 2.0);
        t.push(1, 1, 3.0);
        t.push(2, 0, 4.0);
        t.push(2, 2, 5.0);
        t
    }

    #[test]
    fn csr_roundtrip_values() {
        let csr = example().to_csr();
        assert_eq!(csr.nnz(), 5);
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(0, 1), 0.0);
        assert_eq!(csr.get(2, 2), 5.0);
    }

    #[test]
    fn csc_roundtrip_values() {
        let csc = example().to_csc();
        assert_eq!(csc.nnz(), 5);
        assert_eq!(csc.get(0, 2), 2.0);
        assert_eq!(csc.get(1, 1), 3.0);
        assert_eq!(csc.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(0, 0, 1.5);
        t.push(0, 0, 2.5);
        assert_eq!(t.to_csr().get(0, 0), 4.0);
        assert_eq!(t.to_csc().get(0, 0), 4.0);
    }

    #[test]
    fn mul_vec_agrees_between_formats() {
        let t = example();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(t.to_csr().mul_vec(&x), t.to_csc().mul_vec(&x));
        assert_eq!(t.to_csr().mul_vec(&x), vec![7.0, 6.0, 19.0]);
    }

    #[test]
    fn empty_matrix() {
        let t = TripletMatrix::new(2, 2);
        let csr = t.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.mul_vec(&[1.0, 1.0]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_push_panics() {
        let mut t = TripletMatrix::new(1, 1);
        t.push(1, 0, 1.0);
    }

    #[test]
    fn clear_resets_entries_not_shape() {
        let mut t = example();
        t.clear();
        assert_eq!(t.raw_len(), 0);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.to_csr().nnz(), 0);
    }
}
