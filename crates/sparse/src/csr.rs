//! Compressed sparse row format.
//!
//! The dual solvers walk training examples, i.e. rows ā_n of the data matrix,
//! so the paper stores the matrix in CSR when solving the dual formulation.

use crate::{CscMatrix, SparseError, SparseVecView};
use std::ops::Range;

/// An immutable sparse matrix in compressed sparse row format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `offsets[r]..offsets[r+1]` is the slice of row r; len = rows + 1.
    offsets: Vec<usize>,
    /// Column indices, strictly increasing within each row.
    indices: Vec<u32>,
    /// Values aligned with `indices`.
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from raw arrays after validating the structure.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        validate_compressed(rows, cols, &offsets, &indices, &values)?;
        Ok(Self::from_raw_unchecked(rows, cols, offsets, indices, values))
    }

    /// Build from raw arrays that are already known to be valid (e.g. the
    /// output of [`crate::CooMatrix::to_csr`]).
    pub(crate) fn from_raw_unchecked(
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert!(validate_compressed(rows, cols, &offsets, &indices, &values).is_ok());
        CsrMatrix {
            rows,
            cols,
            offsets,
            indices,
            values,
        }
    }

    /// Number of rows (training examples, N).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features, M).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row offset array (length `rows + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Column index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Borrow row `n` (the dual coordinate ā_n).
    ///
    /// # Panics
    /// Panics if `n >= self.rows()`.
    #[inline]
    pub fn row(&self, n: usize) -> SparseVecView<'_> {
        let lo = self.offsets[n];
        let hi = self.offsets[n + 1];
        SparseVecView {
            indices: &self.indices[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Iterate over all rows in order.
    pub fn iter_rows(&self) -> impl Iterator<Item = SparseVecView<'_>> + '_ {
        (0..self.rows).map(move |n| self.row(n))
    }

    /// ‖ā_n‖² for every row — the denominators of the dual update rule (4).
    pub fn row_squared_norms(&self) -> Vec<f64> {
        self.iter_rows().map(|r| r.squared_norm()).collect()
    }

    /// Dense product `out = A x` (x has length `cols`, out length `rows`).
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>, SparseError> {
        if x.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                expected: self.cols,
                got: x.len(),
            });
        }
        let mut out = vec![0.0f32; self.rows];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// [`Self::matvec`] into a caller-owned buffer of length `rows` —
    /// bit-identical output, no allocation. `out` is overwritten.
    pub fn matvec_into(&self, x: &[f32], out: &mut [f32]) -> Result<(), SparseError> {
        if x.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                expected: self.cols,
                got: x.len(),
            });
        }
        if out.len() != self.rows {
            return Err(SparseError::DimensionMismatch {
                expected: self.rows,
                got: out.len(),
            });
        }
        for (row, slot) in self.iter_rows().zip(out.iter_mut()) {
            *slot = row.dot_dense(x) as f32;
        }
        Ok(())
    }

    /// Dense product `out = Aᵀ y` (y has length `rows`, out length `cols`).
    ///
    /// This is the dual shared vector w̄ = Aᵀα.
    pub fn matvec_t(&self, y: &[f32]) -> Result<Vec<f32>, SparseError> {
        let mut out = vec![0.0f32; self.cols];
        self.matvec_t_into(y, &mut out)?;
        Ok(out)
    }

    /// [`Self::matvec_t`] into a caller-owned buffer of length `cols` —
    /// bit-identical output, no allocation. `out` is overwritten.
    pub fn matvec_t_into(&self, y: &[f32], out: &mut [f32]) -> Result<(), SparseError> {
        if y.len() != self.rows {
            return Err(SparseError::DimensionMismatch {
                expected: self.rows,
                got: y.len(),
            });
        }
        if out.len() != self.cols {
            return Err(SparseError::DimensionMismatch {
                expected: self.cols,
                got: out.len(),
            });
        }
        out.fill(0.0);
        for (n, row) in self.iter_rows().enumerate() {
            row.axpy_into(y[n], out);
        }
        Ok(())
    }

    /// Extract the submatrix formed by the given rows, in the given order.
    /// Column indices are preserved (the feature space is global) — this is
    /// the "partition by training example" operation of the distributed dual
    /// solver.
    ///
    /// # Panics
    /// Panics if any row index is out of bounds.
    pub fn select_rows(&self, rows: &[usize]) -> CsrMatrix {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0usize);
        let nnz: usize = rows
            .iter()
            .map(|&r| self.offsets[r + 1] - self.offsets[r])
            .sum();
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &r in rows {
            let lo = self.offsets[r];
            let hi = self.offsets[r + 1];
            indices.extend_from_slice(&self.indices[lo..hi]);
            values.extend_from_slice(&self.values[lo..hi]);
            offsets.push(indices.len());
        }
        CsrMatrix::from_raw_unchecked(rows.len(), self.cols, offsets, indices, values)
    }

    /// Rows `rows` of `A x` with the arithmetic of [`CscMatrix::matvec`],
    /// written to `out` (length `rows.len()`).
    ///
    /// `CscMatrix::matvec` scatters: for each column m in increasing order
    /// with `x[m] != 0`, it adds `x[m] · a_im` into `out[i]` in `f32`. Row i
    /// of this matrix lists the same entries in the same increasing m, so
    /// accumulating them here from `0.0` in `f32`, skipping the same zero
    /// `x[m]`, performs the identical sequence of additions: the output is
    /// bit-identical to the matching slots of `self.to_csc().matvec(x)`.
    /// Each output depends only on its own row, so disjoint row ranges may
    /// be computed concurrently.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`, `out.len() != rows.len()`, or the range
    /// is out of bounds.
    pub fn gather_matvec_into(&self, x: &[f32], rows: Range<usize>, out: &mut [f32]) {
        assert_eq!(x.len(), self.cols, "x length must equal the column count");
        assert_eq!(out.len(), rows.len(), "out length must equal the row range");
        for (n, slot) in rows.zip(out.iter_mut()) {
            let row = self.row(n);
            let mut acc = 0.0f32;
            for (&m, &v) in row.indices.iter().zip(row.values) {
                let xm = x[m as usize];
                if xm != 0.0 {
                    acc += xm * v;
                }
            }
            *slot = acc;
        }
    }

    /// The column offsets of [`Self::to_csc`]: a counting pass over the
    /// column indices, O(nnz + cols).
    pub fn transpose_offsets(&self) -> Vec<usize> {
        let mut offsets = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            offsets[c + 1] += offsets[c];
        }
        offsets
    }

    /// Columns `cols` of [`Self::to_csc`]: fills the CSC row indices and
    /// values of exactly those columns, i.e. the slots
    /// `offsets[cols.start]..offsets[cols.end]` of the CSC arrays, where
    /// `offsets` is [`Self::transpose_offsets`].
    ///
    /// Rows are walked in increasing order and each row's entries in the
    /// column range are found by binary search (rows are sorted), so every
    /// column receives its row indices in increasing order and only this
    /// range's output is written: disjoint column ranges may be filled
    /// concurrently. Extra work is two searches per row and one cursor per
    /// column of the range.
    ///
    /// # Panics
    /// Panics if the output slices do not have the range's entry count.
    pub fn transpose_cols_into(
        &self,
        cols: Range<usize>,
        offsets: &[usize],
        indices: &mut [u32],
        values: &mut [f32],
    ) {
        let base = offsets[cols.start];
        assert_eq!(indices.len(), offsets[cols.end] - base, "indices slice length");
        assert_eq!(values.len(), indices.len(), "values slice length");
        let mut cursor: Vec<usize> = offsets[cols.clone()].iter().map(|&o| o - base).collect();
        let (lo_col, hi_col) = (cols.start as u32, cols.end as u32);
        for r in 0..self.rows {
            let row = self.row(r);
            let lo = row.indices.partition_point(|&c| c < lo_col);
            let hi = lo + row.indices[lo..].partition_point(|&c| c < hi_col);
            for (&c, &v) in row.indices[lo..hi].iter().zip(&row.values[lo..hi]) {
                let slot = &mut cursor[(c - lo_col) as usize];
                indices[*slot] = r as u32;
                values[*slot] = v;
                *slot += 1;
            }
        }
    }

    /// Convert to compressed sparse column format (a counting sort by
    /// column, O(nnz + rows + cols)).
    pub fn to_csc(&self) -> CscMatrix {
        let offsets = self.transpose_offsets();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        self.transpose_cols_into(0..self.cols, &offsets, &mut indices, &mut values);
        CscMatrix::from_raw_unchecked(self.rows, self.cols, offsets, indices, values)
    }

    /// Bytes consumed by the index and value arrays with 32-bit values and
    /// 32-bit minor indices plus the offset array — the quantity the paper
    /// compares against GPU memory capacity (webspam ≈ 7.3 GB, criteo ≈ 40 GB).
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * 4 + self.indices.len() * 4 + self.offsets.len() * 8
    }
}

/// Shared structural validation for CSR/CSC raw arrays. `major_dim` rows for
/// CSR, columns for CSC; `minor_dim` the other.
pub(crate) fn validate_compressed(
    major_dim: usize,
    minor_dim: usize,
    offsets: &[usize],
    indices: &[u32],
    values: &[f32],
) -> Result<(), SparseError> {
    if offsets.len() != major_dim + 1 {
        return Err(SparseError::InvalidStructure(format!(
            "offsets length {} != major_dim + 1 = {}",
            offsets.len(),
            major_dim + 1
        )));
    }
    if offsets[0] != 0 {
        return Err(SparseError::InvalidStructure(
            "offsets must start at 0".into(),
        ));
    }
    if *offsets.last().unwrap() != indices.len() {
        return Err(SparseError::InvalidStructure(format!(
            "final offset {} != nnz {}",
            offsets.last().unwrap(),
            indices.len()
        )));
    }
    if indices.len() != values.len() {
        return Err(SparseError::InvalidStructure(format!(
            "indices length {} != values length {}",
            indices.len(),
            values.len()
        )));
    }
    for w in offsets.windows(2) {
        if w[1] < w[0] {
            return Err(SparseError::InvalidStructure(
                "offsets must be non-decreasing".into(),
            ));
        }
    }
    for (slot, w) in offsets.windows(2).enumerate() {
        let slice = &indices[w[0]..w[1]];
        for pair in slice.windows(2) {
            if pair[1] <= pair[0] {
                return Err(SparseError::InvalidStructure(format!(
                    "minor indices not strictly increasing in major slot {slot}"
                )));
            }
        }
        if let Some(&last) = slice.last() {
            if last as usize >= minor_dim {
                return Err(SparseError::InvalidStructure(format!(
                    "minor index {last} out of bounds ({minor_dim}) in major slot {slot}"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample() -> CsrMatrix {
        // [1 0 2 0]
        // [0 3 0 0]
        // [4 0 0 5]
        let mut m = CooMatrix::new(3, 4);
        for &(r, c, v) in &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 3, 5.0)] {
            m.push(r, c, v).unwrap();
        }
        m.to_csr()
    }

    #[test]
    fn row_views() {
        let m = sample();
        let r0 = m.row(0);
        assert_eq!(r0.indices, &[0, 2]);
        assert_eq!(r0.values, &[1.0, 2.0]);
        assert_eq!(m.row(1).nnz(), 1);
        assert_eq!(m.iter_rows().count(), 3);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let out = m.matvec(&x).unwrap();
        assert_eq!(out, vec![7.0, 6.0, 24.0]);
    }

    #[test]
    fn matvec_t_matches_dense() {
        let m = sample();
        let y = [1.0f32, 2.0, 3.0];
        let out = m.matvec_t(&y).unwrap();
        // A^T y: col0: 1*1 + 4*3 = 13; col1: 3*2 = 6; col2: 2*1 = 2; col3: 5*3 = 15
        assert_eq!(out, vec![13.0, 6.0, 2.0, 15.0]);
    }

    #[test]
    fn matvec_dimension_checked() {
        let m = sample();
        assert!(m.matvec(&[1.0; 3]).is_err());
        assert!(m.matvec_t(&[1.0; 4]).is_err());
    }

    #[test]
    fn row_norms() {
        let m = sample();
        let norms = m.row_squared_norms();
        assert_eq!(norms, vec![5.0, 9.0, 41.0]);
    }

    #[test]
    fn select_rows_reorders() {
        let m = sample();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.row(0).indices, &[0, 3]);
        assert_eq!(s.row(1).indices, &[0, 2]);
    }

    #[test]
    fn csr_to_csc_roundtrip() {
        let m = sample();
        let csc = m.to_csc();
        assert_eq!(csc.nnz(), m.nnz());
        let x = [1.0f32, -1.0, 0.5, 2.0];
        assert_eq!(m.matvec(&x).unwrap(), csc.matvec(&x).unwrap());
    }

    #[test]
    fn from_raw_validates() {
        // offsets wrong length
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // final offset != nnz
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
        // non-increasing minor indices
        assert!(
            CsrMatrix::from_raw(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err()
        );
        // out-of-bounds index
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // valid
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![1], vec![1.0]).is_ok());
    }

    #[test]
    fn memory_bytes_counts_arrays() {
        let m = sample();
        assert_eq!(m.memory_bytes(), 5 * 4 + 5 * 4 + 4 * 8);
    }
}
