//! Data-parallel passes over the problem matrix on `scd-sched`: the two
//! shared-vector products the objectives and the duality gap read
//! (w = Aβ, w̄ = Aᵀα), per-example margins, squared norms, and the
//! CSR→CSC transpose.
//!
//! Every pass writes one output per major slot (or, for the transpose, one
//! contiguous slab per column range), so the outputs are split into
//! nnz-balanced ranges ([`scd_sparse::balanced_ranges`]) and each range is
//! one scoped task over its own `split_at_mut` slice. No output depends on
//! how the ranges fall, so every result is bit-identical at any pool width
//! — and to the serial scatter each product replaces (see
//! [`CsrMatrix::gather_matvec_into`] for the argument).

use scd_sched::Scheduler;
use scd_sparse::{balanced_ranges, CscMatrix, CsrMatrix, SparseVecView};
use std::ops::Range;

/// Run `f(range, &mut out[range])` over nnz-balanced ranges of the major
/// slots described by `offsets`, one task per range on `sched`.
fn for_each_range<T: Send>(
    sched: &Scheduler,
    offsets: &[usize],
    out: &mut [T],
    f: &(dyn Fn(Range<usize>, &mut [T]) + Sync),
) {
    assert_eq!(out.len() + 1, offsets.len(), "one output per major slot");
    let ranges = balanced_ranges(offsets, sched.threads());
    sched.scope(|s| {
        let mut rest = out;
        for range in ranges {
            let (head, tail) = rest.split_at_mut(range.len());
            rest = tail;
            s.spawn(move || f(range, head));
        }
    });
}

/// w = A x, bit-identical to `csr.to_csc().matvec(x)` at any width.
///
/// # Panics
/// Panics if `x.len() != csr.cols()`.
pub fn matvec(sched: &Scheduler, csr: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; csr.rows()];
    for_each_range(sched, csr.offsets(), &mut out, &|rows, out| {
        csr.gather_matvec_into(x, rows, out)
    });
    out
}

/// w̄ = Aᵀ y, bit-identical to `csc.to_csr().matvec_t(y)` at any width.
///
/// # Panics
/// Panics if `y.len() != csc.rows()`.
pub fn matvec_t(sched: &Scheduler, csc: &CscMatrix, y: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0f32; csc.cols()];
    for_each_range(sched, csc.offsets(), &mut out, &|cols, out| {
        csc.gather_matvec_t_into(y, cols, out)
    });
    out
}

/// ⟨āₙ, x⟩ for every row, accumulated in `f64`: slot n is exactly
/// `csr.row(n).dot_dense(x)` — the margins the classification losses read.
pub fn row_dots(sched: &Scheduler, csr: &CsrMatrix, x: &[f32]) -> Vec<f64> {
    assert_eq!(x.len(), csr.cols(), "x length must equal the column count");
    let mut out = vec![0.0f64; csr.rows()];
    for_each_range(sched, csr.offsets(), &mut out, &|rows, out| {
        for (n, slot) in rows.zip(out) {
            *slot = csr.row(n).dot_dense(x);
        }
    });
    out
}

/// ‖view(i)‖² for every major slot of a matrix with `offsets`: the row
/// norms of a CSR matrix with `|n| csr.row(n)`, the column norms of a CSC
/// matrix with `|m| csc.col(m)`.
pub fn squared_norms<'a>(
    sched: &Scheduler,
    offsets: &[usize],
    view: impl Fn(usize) -> SparseVecView<'a> + Sync,
) -> Vec<f64> {
    let mut out = vec![0.0f64; offsets.len() - 1];
    for_each_range(sched, offsets, &mut out, &|slots, out| {
        for (i, slot) in slots.zip(out) {
            *slot = view(i).squared_norm();
        }
    });
    out
}

/// The CSC copy of `csr`, equal to [`CsrMatrix::to_csc`] at any width.
/// Each task owns an nnz-balanced column range and fills only that range's
/// contiguous slab of the output arrays
/// ([`CsrMatrix::transpose_cols_into`]).
pub fn to_csc(sched: &Scheduler, csr: &CsrMatrix) -> CscMatrix {
    let offsets = csr.transpose_offsets();
    let mut indices = vec![0u32; csr.nnz()];
    let mut values = vec![0.0f32; csr.nnz()];
    let ranges = balanced_ranges(&offsets, sched.threads());
    sched.scope(|s| {
        let offsets = &offsets;
        let (mut idx_rest, mut val_rest) = (&mut indices[..], &mut values[..]);
        for cols in ranges {
            let len = offsets[cols.end] - offsets[cols.start];
            let (idx, idx_tail) = idx_rest.split_at_mut(len);
            let (val, val_tail) = val_rest.split_at_mut(len);
            (idx_rest, val_rest) = (idx_tail, val_tail);
            s.spawn(move || csr.transpose_cols_into(cols, offsets, idx, val));
        }
    });
    CscMatrix::from_raw(csr.rows(), csr.cols(), offsets, indices, values)
        .expect("the transpose of a valid CSR matrix is a valid CSC matrix")
}
