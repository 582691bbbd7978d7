//! Property-based tests of the sparse substrate: format conversions are
//! lossless, matrix products agree across formats and with a dense
//! reference, and permutations behave like group elements.

use proptest::prelude::*;
use scd_sparse::perm::Permutation;
use scd_sparse::{kernels, CooMatrix, EllMatrix, SparseError};

/// Strategy: a random small COO matrix with unique (row, col) slots.
fn arb_coo() -> impl Strategy<Value = CooMatrix> {
    (1usize..12, 1usize..12).prop_flat_map(|(rows, cols)| {
        let entry = (0..rows, 0..cols, -100i32..100);
        proptest::collection::vec(entry, 0..40).prop_map(move |entries| {
            let mut coo = CooMatrix::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v as f32 / 10.0).unwrap();
            }
            coo
        })
    })
}

/// Dense reference mat-vec.
fn dense_matvec(dense: &[Vec<f32>], x: &[f32]) -> Vec<f32> {
    dense
        .iter()
        .map(|row| row.iter().zip(x).map(|(&a, &b)| a * b).sum())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csr_csc_roundtrip_is_lossless(coo in arb_coo()) {
        let csr = coo.to_csr();
        let back = csr.to_csc().to_csr();
        prop_assert_eq!(&csr, &back);
        let csc = coo.to_csc();
        let back = csc.to_csr().to_csc();
        prop_assert_eq!(&csc, &back);
    }

    #[test]
    fn matvec_agrees_across_formats_and_with_dense(coo in arb_coo()) {
        let dense = coo.to_dense();
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let x: Vec<f32> = (0..coo.cols()).map(|i| (i as f32 * 0.7) - 1.0).collect();
        let want = dense_matvec(&dense, &x);
        let via_csr = csr.matvec(&x).unwrap();
        let via_csc = csc.matvec(&x).unwrap();
        for ((a, b), c) in want.iter().zip(&via_csr).zip(&via_csc) {
            prop_assert!((a - b).abs() < 1e-4);
            prop_assert!((b - c).abs() < 1e-4);
        }
    }

    #[test]
    fn matvec_t_is_the_transpose(coo in arb_coo()) {
        // ⟨A x, y⟩ = ⟨x, Aᵀ y⟩ for all x, y.
        let csr = coo.to_csr();
        let x: Vec<f32> = (0..coo.cols()).map(|i| ((i * 3 % 7) as f32) - 3.0).collect();
        let y: Vec<f32> = (0..coo.rows()).map(|i| ((i * 5 % 11) as f32) - 5.0).collect();
        let ax = csr.matvec(&x).unwrap();
        let aty = csr.matvec_t(&y).unwrap();
        let lhs: f64 = ax.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(&a, &b)| a as f64 * b as f64).sum();
        prop_assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }

    #[test]
    fn matvec_into_bit_identical_to_allocating_forms(coo in arb_coo()) {
        // The workspace variants must be drop-in replacements: same bits,
        // even with garbage in the output buffer, and across matrices
        // with empty rows/cols (arb_coo leaves many slots unfilled).
        let csr = coo.to_csr();
        let csc = coo.to_csc();
        let x: Vec<f32> = (0..coo.cols()).map(|i| (i as f32 * 0.7) - 1.0).collect();
        let y: Vec<f32> = (0..coo.rows()).map(|i| ((i * 5 % 11) as f32) - 5.0).collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut out_r = vec![f32::NAN; coo.rows()];
        csr.matvec_into(&x, &mut out_r).unwrap();
        prop_assert_eq!(bits(&out_r), bits(&csr.matvec(&x).unwrap()));
        let mut out_c = vec![f32::NAN; coo.rows()];
        csc.matvec_into(&x, &mut out_c).unwrap();
        prop_assert_eq!(bits(&out_c), bits(&csc.matvec(&x).unwrap()));
        let mut out_rt = vec![f32::NAN; coo.cols()];
        csr.matvec_t_into(&y, &mut out_rt).unwrap();
        prop_assert_eq!(bits(&out_rt), bits(&csr.matvec_t(&y).unwrap()));
        let mut out_ct = vec![f32::NAN; coo.cols()];
        csc.matvec_t_into(&y, &mut out_ct).unwrap();
        prop_assert_eq!(bits(&out_ct), bits(&csc.matvec_t(&y).unwrap()));
    }

    #[test]
    fn in_place_merge_bit_identical_including_ell_replicas(coo in arb_coo(), workers in 1usize..5) {
        // Replicas perturbed through the ELL fast-path writes (the layout
        // the SySCD workers actually use), then merged both ways: the
        // in-place fold over the shared vector must match the out-of-place
        // kernel against the pre-merge snapshot, bit for bit.
        let csr = coo.to_csr();
        let ell = EllMatrix::from_csr(&csr);
        let base: Vec<f32> = (0..coo.cols()).map(|i| ((i * 3 % 7) as f32) * 0.3 - 0.9).collect();
        let replicas: Vec<Vec<f32>> = (0..workers)
            .map(|w| {
                let mut r = base.clone();
                for row in (w..csr.rows()).step_by(workers.max(1)) {
                    ell.row_axpy(row, 0.25 + w as f32 * 0.5, &mut r);
                }
                r
            })
            .collect();
        let views: Vec<&[f32]> = replicas.iter().map(Vec::as_slice).collect();
        let scale = 1.0 / workers as f32;
        let mut out = vec![f32::NAN; base.len()];
        kernels::merge_replicas(&base, &views, scale, &mut out);
        let mut shared = base.clone();
        kernels::merge_replicas_in_place(&views, scale, &mut shared);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&out), bits(&shared));
    }

    #[test]
    fn norms_match_values(coo in arb_coo()) {
        let csr = coo.to_csr();
        let total_from_rows: f64 = csr.row_squared_norms().iter().sum();
        let total_from_cols: f64 = coo.to_csc().col_squared_norms().iter().sum();
        prop_assert!((total_from_rows - total_from_cols).abs() < 1e-6 * total_from_rows.max(1.0));
    }

    #[test]
    fn select_rows_preserves_content(coo in arb_coo(), stride in 1usize..4) {
        let csr = coo.to_csr();
        let rows: Vec<usize> = (0..csr.rows()).step_by(stride).collect();
        let sub = csr.select_rows(&rows);
        prop_assert_eq!(sub.rows(), rows.len());
        for (local, &global) in rows.iter().enumerate() {
            prop_assert_eq!(sub.row(local).indices, csr.row(global).indices);
            prop_assert_eq!(sub.row(local).values, csr.row(global).values);
        }
    }

    #[test]
    fn validation_catches_corrupted_offsets(coo in arb_coo()) {
        let csr = coo.to_csr();
        prop_assume!(csr.nnz() > 0);
        let mut offsets = csr.offsets().to_vec();
        // Corrupt: final offset no longer equals nnz.
        *offsets.last_mut().unwrap() += 1;
        let result = scd_sparse::CsrMatrix::from_raw(
            csr.rows(), csr.cols(), offsets, csr.indices().to_vec(), csr.values().to_vec());
        prop_assert!(matches!(result, Err(SparseError::InvalidStructure(_))));
    }

    #[test]
    fn permutation_inverse_roundtrips(len in 1usize..200, seed in 0u64..1000) {
        let p = Permutation::random(len, seed);
        let inv = p.inverse();
        for i in 0..len {
            prop_assert_eq!(inv.apply(p.apply(i)), i);
        }
        // gather(inverse) undoes gather.
        let data: Vec<u32> = (0..len as u32).collect();
        let shuffled = p.gather(&data);
        let restored = inv.gather(&shuffled);
        prop_assert_eq!(restored, data);
    }

    #[test]
    fn unrolled_dot_diverges_from_reference_within_reassociation_bound(coo in arb_coo()) {
        // The kernels module's accumulation contract: unrolled lanes and the
        // left-to-right reference sum the same *exact* f64 products, so the
        // divergence is pure reassociation error, bounded by 2(n−1)·ε·Σ|pₖ|.
        // This is what keeps the golden figure series (pinned to the
        // reference order) stable while the solver hot loops use the lanes.
        let csr = coo.to_csr();
        let x: Vec<f32> = (0..csr.cols()).map(|i| (i as f32 * 0.37) - 1.5).collect();
        for r in 0..csr.rows() {
            let row = csr.row(r);
            let reference = row.dot_dense(&x);
            let unrolled = kernels::dot_dense(row.indices, row.values, &x);
            let abs_sum: f64 = row.indices.iter().zip(row.values)
                .map(|(&i, &v)| (x[i as usize] as f64 * v as f64).abs())
                .sum();
            let n = row.nnz() as f64;
            let bound = 2.0 * n * f64::EPSILON * abs_sum;
            prop_assert!(
                (unrolled - reference).abs() <= bound,
                "row {}: unrolled {} vs reference {} exceeds bound {}",
                r, unrolled, reference, bound
            );
        }
    }

    #[test]
    fn ell_row_kernels_bit_identical_to_csr(coo in arb_coo()) {
        // Layout choice (CSR stream vs strided ELL block) must never perturb
        // a solver trajectory: same products, same lane order, same
        // reduction tree ⇒ identical bits.
        let csr = coo.to_csr();
        let ell = EllMatrix::from_csr(&csr);
        let x: Vec<f32> = (0..csr.cols()).map(|i| ((i * 7 % 13) as f32) / 3.0 - 1.0).collect();
        let mut dense_csr = vec![0.25f32; csr.cols()];
        let mut dense_ell = dense_csr.clone();
        for r in 0..csr.rows() {
            let row = csr.row(r);
            let a = kernels::dot_dense(row.indices, row.values, &x);
            let b = ell.row_dot(r, &x);
            prop_assert_eq!(a.to_bits(), b.to_bits());
            row.axpy_into(0.5, &mut dense_csr);
            ell.row_axpy(r, 0.5, &mut dense_ell);
        }
        let bits_csr: Vec<u32> = dense_csr.iter().map(|v| v.to_bits()).collect();
        let bits_ell: Vec<u32> = dense_ell.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits_csr, bits_ell);
    }

    #[test]
    fn gather_dot_matches_slice_dot_bitwise(coo in arb_coo()) {
        let csr = coo.to_csr();
        let x: Vec<f32> = (0..csr.cols()).map(|i| (i as f32).sin()).collect();
        for r in 0..csr.rows() {
            let row = csr.row(r);
            let a = kernels::dot_dense(row.indices, row.values, &x);
            let b = kernels::dot_gather(row.indices, row.values, |i| x[i]);
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn libsvm_roundtrip_preserves_data(coo in arb_coo(), labels_seed in 0u64..100) {
        use scd_sparse::io::{read_libsvm, write_libsvm, LabelledData};
        let labels: Vec<f32> = (0..coo.rows())
            .map(|i| if (i as u64 + labels_seed).is_multiple_of(2) { 1.0 } else { -1.0 })
            .collect();
        let cols = coo.cols();
        let data = LabelledData { matrix: coo, labels };
        let mut buf = Vec::new();
        write_libsvm(&data, &mut buf).unwrap();
        let back = read_libsvm(buf.as_slice(), Some(cols)).unwrap();
        prop_assert_eq!(back.labels, data.labels);
        prop_assert_eq!(back.matrix.to_dense(), data.matrix.to_dense());
    }
}
