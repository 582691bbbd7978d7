//! Compressed sparse column format.
//!
//! The primal solvers walk features, i.e. columns a_m of the data matrix, so
//! the paper stores the matrix in CSC when solving the primal formulation.

use crate::csr::validate_compressed;
use crate::{CsrMatrix, SparseError, SparseVecView};
use std::ops::Range;

/// An immutable sparse matrix in compressed sparse column format.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    /// `offsets[c]..offsets[c+1]` is the slice of column c; len = cols + 1.
    offsets: Vec<usize>,
    /// Row indices, strictly increasing within each column.
    indices: Vec<u32>,
    /// Values aligned with `indices`.
    values: Vec<f32>,
}

impl CscMatrix {
    /// Build from raw arrays after validating the structure.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        validate_compressed(cols, rows, &offsets, &indices, &values)?;
        Ok(Self::from_raw_unchecked(rows, cols, offsets, indices, values))
    }

    pub(crate) fn from_raw_unchecked(
        rows: usize,
        cols: usize,
        offsets: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        debug_assert!(validate_compressed(cols, rows, &offsets, &indices, &values).is_ok());
        CscMatrix {
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

    /// Column offset array (length `cols + 1`).
    #[inline]
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Row index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Borrow column `m` (the primal coordinate a_m).
    ///
    /// # Panics
    /// Panics if `m >= self.cols()`.
    #[inline]
    pub fn col(&self, m: usize) -> SparseVecView<'_> {
        let lo = self.offsets[m];
        let hi = self.offsets[m + 1];
        SparseVecView {
            indices: &self.indices[lo..hi],
            values: &self.values[lo..hi],
        }
    }

    /// Iterate over all columns in order.
    pub fn iter_cols(&self) -> impl Iterator<Item = SparseVecView<'_>> + '_ {
        (0..self.cols).map(move |m| self.col(m))
    }

    /// ‖a_m‖² for every column — the denominators of the primal update rule (2).
    pub fn col_squared_norms(&self) -> Vec<f64> {
        self.iter_cols().map(|c| c.squared_norm()).collect()
    }

    /// Dense product `out = A x` computed column-wise: Σ_m x_m · a_m.
    ///
    /// This is the primal shared vector w = Aβ.
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
        out.fill(0.0);
        for (m, col) in self.iter_cols().enumerate() {
            if x[m] != 0.0 {
                col.axpy_into(x[m], out);
            }
        }
        Ok(())
    }

    /// Dense product `out = Aᵀ y`.
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
        for (col, slot) in self.iter_cols().zip(out.iter_mut()) {
            *slot = col.dot_dense(y) as f32;
        }
        Ok(())
    }

    /// Columns `cols` of `Aᵀ y` with the arithmetic of
    /// [`CsrMatrix::matvec_t`], written to `out` (length `cols.len()`).
    ///
    /// `CsrMatrix::matvec_t` scatters: for each row n in increasing order it
    /// adds `y[n] · a_nm` into `out[m]` in `f32`, with no zero skip. Column
    /// m of this matrix lists the same entries in the same increasing n, so
    /// accumulating them from `0.0` in `f32` performs the identical sequence
    /// of additions: bit-identical to the matching slots of
    /// `self.to_csr().matvec_t(y)`, and independent per column.
    ///
    /// # Panics
    /// Panics if `y.len() != rows`, `out.len() != cols.len()`, or the range
    /// is out of bounds.
    pub fn gather_matvec_t_into(&self, y: &[f32], cols: Range<usize>, out: &mut [f32]) {
        assert_eq!(y.len(), self.rows, "y length must equal the row count");
        assert_eq!(out.len(), cols.len(), "out length must equal the column range");
        for (m, slot) in cols.zip(out.iter_mut()) {
            let col = self.col(m);
            let mut acc = 0.0f32;
            for (&n, &v) in col.indices.iter().zip(col.values) {
                acc += y[n as usize] * v;
            }
            *slot = acc;
        }
    }

    /// Extract the submatrix formed by the given columns, in the given order.
    /// Row indices are preserved (the example space is global) — this is the
    /// "partition by feature" operation of the distributed primal solver.
    ///
    /// # Panics
    /// Panics if any column index is out of bounds.
    pub fn select_cols(&self, cols: &[usize]) -> CscMatrix {
        let mut offsets = Vec::with_capacity(cols.len() + 1);
        offsets.push(0usize);
        let nnz: usize = cols
            .iter()
            .map(|&c| self.offsets[c + 1] - self.offsets[c])
            .sum();
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for &c in cols {
            let lo = self.offsets[c];
            let hi = self.offsets[c + 1];
            indices.extend_from_slice(&self.indices[lo..hi]);
            values.extend_from_slice(&self.values[lo..hi]);
            offsets.push(indices.len());
        }
        CscMatrix::from_raw_unchecked(self.rows, cols.len(), offsets, indices, values)
    }

    /// Convert to compressed sparse row format.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.rows + 1];
        for &r in &self.indices {
            counts[r as usize + 1] += 1;
        }
        for r in 0..self.rows {
            counts[r + 1] += counts[r];
        }
        let offsets = counts.clone();
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        let mut cursor = counts;
        for c in 0..self.cols {
            let lo = self.offsets[c];
            let hi = self.offsets[c + 1];
            for k in lo..hi {
                let r = self.indices[k] as usize;
                let dst = cursor[r];
                indices[dst] = c as u32;
                values[dst] = self.values[k];
                cursor[r] += 1;
            }
        }
        CsrMatrix::from_raw_unchecked(self.rows, self.cols, offsets, indices, values)
    }

    /// Bytes consumed by the stored arrays (see [`CsrMatrix::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.values.len() * 4 + self.indices.len() * 4 + self.offsets.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn sample() -> CscMatrix {
        // [1 0 2 0]
        // [0 3 0 0]
        // [4 0 0 5]
        let mut m = CooMatrix::new(3, 4);
        for &(r, c, v) in &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 3, 5.0)] {
            m.push(r, c, v).unwrap();
        }
        m.to_csc()
    }

    #[test]
    fn col_views() {
        let m = sample();
        let c0 = m.col(0);
        assert_eq!(c0.indices, &[0, 2]);
        assert_eq!(c0.values, &[1.0, 4.0]);
        assert_eq!(m.col(3).values, &[5.0]);
        assert_eq!(m.iter_cols().count(), 4);
    }

    #[test]
    fn matvec_matches_csr() {
        let m = sample();
        let x = [1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(m.matvec(&x).unwrap(), vec![7.0, 6.0, 24.0]);
        let y = [1.0f32, 2.0, 3.0];
        assert_eq!(m.matvec_t(&y).unwrap(), vec![13.0, 6.0, 2.0, 15.0]);
    }

    #[test]
    fn col_norms() {
        let m = sample();
        assert_eq!(m.col_squared_norms(), vec![17.0, 9.0, 4.0, 25.0]);
    }

    #[test]
    fn select_cols_reorders() {
        let m = sample();
        let s = m.select_cols(&[3, 0]);
        assert_eq!(s.cols(), 2);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.col(0).indices, &[2]);
        assert_eq!(s.col(1).indices, &[0, 2]);
    }

    #[test]
    fn csc_to_csr_roundtrip() {
        let m = sample();
        let csr = m.to_csr();
        let back = csr.to_csc();
        assert_eq!(m, back);
    }

    #[test]
    fn matvec_skips_zero_coefficients() {
        let m = sample();
        let x = [0.0f32, 0.0, 0.0, 0.0];
        assert_eq!(m.matvec(&x).unwrap(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn from_raw_validates() {
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 1], vec![0], vec![1.0]).is_ok());
        assert!(CscMatrix::from_raw(2, 2, vec![0, 1, 1], vec![3], vec![1.0]).is_err());
    }
}
