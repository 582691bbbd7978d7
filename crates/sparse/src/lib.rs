//! Sparse linear algebra substrate for the TPA-SCD reproduction.
//!
//! The paper (Parnell et al., IPPS 2017) stores the training-data matrix in
//! **compressed sparse column** format when solving the primal form of ridge
//! regression (coordinate descent walks columns / features) and in
//! **compressed sparse row** format when solving the dual (coordinate ascent
//! walks rows / examples). This crate provides those formats, a COO builder,
//! conversions, the matrix–vector products needed by the objectives and the
//! duality gap, per-column/row squared norms (the denominators of the update
//! rules), row/column slicing for distributed partitioning, and LIBSVM text
//! I/O.
//!
//! All matrix values are `f32`, matching the paper's 32-bit floating point
//! representation; reductions that feed convergence metrics accumulate in
//! `f64` to keep the duality gap trustworthy at the 1e-7 level the paper
//! plots.

pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod densemat;
pub mod ell;
pub mod io;
pub mod kernels;
pub mod perm;
pub mod split;
pub mod structure;

pub use coo::CooMatrix;
pub use densemat::DenseMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use ell::EllMatrix;
pub use split::balanced_ranges;
pub use structure::{NnzDistribution, StructureProfile};

/// Errors produced while building or manipulating sparse matrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// An entry's row index was out of bounds for the declared shape.
    RowOutOfBounds { row: usize, rows: usize },
    /// An entry's column index was out of bounds for the declared shape.
    ColOutOfBounds { col: usize, cols: usize },
    /// A dense operand had the wrong length for the matrix shape.
    DimensionMismatch { expected: usize, got: usize },
    /// Raw CSR/CSC arrays were structurally invalid (bad offsets, indices).
    InvalidStructure(String),
    /// A text record could not be parsed (LIBSVM I/O).
    Parse { line: usize, message: String },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::RowOutOfBounds { row, rows } => {
                write!(f, "row index {row} out of bounds for {rows} rows")
            }
            SparseError::ColOutOfBounds { col, cols } => {
                write!(f, "column index {col} out of bounds for {cols} columns")
            }
            SparseError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for SparseError {}

/// A borrowed view of one sparse column (primal coordinate) or sparse row
/// (dual coordinate): parallel slices of indices into the dense dimension and
/// the corresponding values.
#[derive(Debug, Clone, Copy)]
pub struct SparseVecView<'a> {
    /// Indices into the dense companion vector (rows for a column view,
    /// columns for a row view). Strictly increasing within a view.
    pub indices: &'a [u32],
    /// Values aligned with `indices`.
    pub values: &'a [f32],
}

impl<'a> SparseVecView<'a> {
    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Squared L2 norm, accumulated in `f64`.
    #[inline]
    pub fn squared_norm(&self) -> f64 {
        self.values.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// Inner product with a dense vector, accumulated in `f64`.
    ///
    /// `dense` must be at least as long as the largest stored index.
    ///
    /// **Accumulation contract.** This is the *reference* reduction: every
    /// product is formed exactly in `f64` (f32 × f32 is exact at 53-bit
    /// precision) and added strictly left to right. Convergence metrics —
    /// objectives, the duality gap, matvecs feeding them — go through this
    /// method, so golden figure series are pinned to this exact order. The
    /// solver hot loops use the unrolled kernels in [`mod@kernels`]
    /// instead, which sum the same exact products in a different (but
    /// equally deterministic) lane order; [`mod@kernels`] documents the
    /// divergence bound between the two.
    #[inline]
    pub fn dot_dense(&self, dense: &[f32]) -> f64 {
        let mut acc = 0.0f64;
        for (&i, &v) in self.indices.iter().zip(self.values) {
            acc += (dense[i as usize] as f64) * (v as f64);
        }
        acc
    }

    /// `dense[i] += scale * value_i` for every stored entry.
    ///
    /// Delegates to the unrolled [`kernels::axpy`]; because the stored
    /// indices are distinct, the unrolled form performs the identical
    /// sequence of independent adds and the result is bit-identical to a
    /// scalar loop.
    #[inline]
    pub fn axpy_into(&self, scale: f32, dense: &mut [f32]) {
        kernels::axpy(self.indices, self.values, scale, dense);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_vec_view_basics() {
        let indices = [1u32, 3, 4];
        let values = [2.0f32, -1.0, 0.5];
        let v = SparseVecView {
            indices: &indices,
            values: &values,
        };
        assert_eq!(v.nnz(), 3);
        assert!((v.squared_norm() - (4.0 + 1.0 + 0.25)).abs() < 1e-12);
        let dense = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        // 2*2 + (-1)*4 + 0.5*5 = 4 - 4 + 2.5
        assert!((v.dot_dense(&dense) - 2.5).abs() < 1e-12);
        let mut out = [0.0f32; 5];
        v.axpy_into(2.0, &mut out);
        assert_eq!(out, [0.0, 4.0, 0.0, -2.0, 1.0]);
    }

    #[test]
    fn error_display() {
        let e = SparseError::RowOutOfBounds { row: 7, rows: 3 };
        assert!(e.to_string().contains("row index 7"));
        let e = SparseError::DimensionMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("expected 4"));
    }
}
