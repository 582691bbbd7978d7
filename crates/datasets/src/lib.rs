//! Synthetic dataset generators for the TPA-SCD reproduction.
//!
//! The paper evaluates on two real datasets that cannot ship with this
//! repository (webspam: 262,938 examples × 680,715 distinct features,
//! ≈7.3 GB; criteo 1-day sample: ≈200 M examples × 75 M features, ≈40 GB).
//! These generators produce scaled-down matrices with the same *salient
//! statistics* — the properties SCD convergence actually depends on:
//!
//! * [`webspam_like`] — many more features than examples, power-law feature
//!   popularity (a few dense columns, a long sparse tail), positive
//!   tf-idf-style values, ±1 labels from a sparse ground-truth model.
//! * [`criteo_like`] — one-hot categorical rows whose nonzero values are all
//!   exactly 1.0 (the paper's footnote 2), fixed nonzeros per row (one per
//!   categorical field), heavily skewed feature frequencies, ±1 labels.
//! * [`dense_gaussian`] — a small dense design matrix for unit tests and
//!   closed-form cross-checks.
//! * [`dense_random`] — a dense design matrix with ±1 labels, valid for
//!   every objective (ridge, logistic, SVM, lasso); the shared fixture of
//!   the cross-objective convergence tests.
//!
//! All generators are deterministic in their seed. Real datasets in LIBSVM
//! format can be loaded instead via [`scd_sparse::io::read_libsvm`].

pub mod rowgen;
pub mod split;
pub mod stats;

pub use rowgen::{CriteoSpec, WebspamStreamSpec, ZipfTable};
pub use split::train_test_split;
pub use stats::DatasetStats;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scd_sparse::io::LabelledData;
use scd_sparse::CooMatrix;

/// Draw one standard normal deviate via Box–Muller (keeps `rand_distr` out
/// of the dependency tree).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw from a [`ZipfTable`] with a sequential RNG. Routes through the
/// same [`ZipfTable::locate`] interval arithmetic as the hash-derived
/// generators in [`rowgen`], and consumes exactly one `gen_range` call —
/// preserving the frozen byte stream of [`webspam_like`].
fn zipf_sample(zipf: &ZipfTable, rng: &mut StdRng) -> usize {
    zipf.locate(rng.gen_range(0.0..zipf.total()))
}

/// Generate a webspam-shaped problem: `n` examples, `m` features
/// (`m` should exceed `n` to match webspam's geometry), an average of
/// `avg_nnz_per_row` nonzeros per example.
///
/// Feature popularity follows a Zipf(1.1) law, values are |N(0,1)| + 0.1
/// (positive, tf-idf-like), and labels are the sign of a sparse
/// ground-truth linear model's response plus 10% label noise — so ridge
/// regression on the output is a well-posed classification surrogate, like
/// the paper's webspam task.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn webspam_like(n: usize, m: usize, avg_nnz_per_row: usize, seed: u64) -> LabelledData {
    webspam_like_custom(n, m, avg_nnz_per_row, 1.1, seed)
}

/// [`webspam_like`] with an explicit Zipf exponent for the feature
/// popularity law. Larger exponents concentrate mass on a few head
/// features (denser columns, more cross-worker contention in the
/// distributed experiments); the default 1.1 mimics webspam's trigram
/// skew.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn webspam_like_custom(
    n: usize,
    m: usize,
    avg_nnz_per_row: usize,
    zipf_exponent: f64,
    seed: u64,
) -> LabelledData {
    assert!(n > 0 && m > 0 && avg_nnz_per_row > 0, "empty dataset requested");
    let mut rng = StdRng::seed_from_u64(seed);
    let zipf = ZipfTable::new(m, zipf_exponent);

    // Sparse ground truth over the popular features.
    let truth_support = (m / 10).max(1);
    let mut truth = vec![0.0f64; m];
    for slot in truth.iter_mut().take(truth_support) {
        *slot = normal(&mut rng);
    }

    let mut matrix = CooMatrix::with_capacity(n, m, n * avg_nnz_per_row);
    let mut labels = Vec::with_capacity(n);
    let mut cols_scratch: Vec<usize> = Vec::new();
    for row in 0..n {
        // Row lengths vary geometrically around the mean (webspam's document
        // lengths are broad-tailed).
        let len_factor = 0.5 + rng.gen::<f64>() * 1.5;
        let row_nnz = ((avg_nnz_per_row as f64 * len_factor) as usize).clamp(1, m);
        cols_scratch.clear();
        for _ in 0..row_nnz {
            cols_scratch.push(zipf_sample(&zipf, &mut rng));
        }
        cols_scratch.sort_unstable();
        cols_scratch.dedup();
        let mut response = 0.0f64;
        for &c in &cols_scratch {
            let v = (normal(&mut rng).abs() + 0.1) as f32;
            matrix.push(row, c, v).expect("indices in range by construction");
            response += v as f64 * truth[c];
        }
        let noisy = response + 0.1 * normal(&mut rng);
        labels.push(if noisy >= 0.0 { 1.0 } else { -1.0 });
    }
    LabelledData { matrix, labels }
}

/// Generate a criteo-shaped problem: `n` examples over `fields` categorical
/// fields with `cardinality` possible values each (so `m = fields ×
/// cardinality` features). Every row has exactly one active feature per
/// field and **every stored value is exactly 1.0**, matching the paper's
/// note that "the values in the training data matrix are always 1".
/// Field-value frequencies follow Zipf(1.05), reproducing criteo's heavy
/// head/tail skew. Labels are ±1 from a dense-on-support ground truth.
///
/// Rows come from the hash-derived [`CriteoSpec`] — the identical routine
/// the out-of-core streaming writer in `scd-store` uses, so a shard
/// directory written with the same parameters loads back **bit-identical**
/// to this in-memory dataset.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn criteo_like(n: usize, fields: usize, cardinality: usize, seed: u64) -> LabelledData {
    let spec = CriteoSpec::new(n, fields, cardinality, seed);
    let m = spec.cols();
    let mut matrix = CooMatrix::with_capacity(n, m, n * fields);
    let mut labels = Vec::with_capacity(n);
    let mut indices = Vec::with_capacity(fields);
    let mut values = Vec::with_capacity(fields);
    for row in 0..n {
        labels.push(spec.row(row, &mut indices, &mut values));
        for (&c, &v) in indices.iter().zip(&values) {
            matrix.push(row, c as usize, v).expect("indices in range by construction");
        }
    }
    LabelledData { matrix, labels }
}

/// Scale every stored matrix value by `factor` in place (labels are left
/// untouched). Used by the figure harness to tune the effective
/// regularization ratio Nλ/‖a‖² of scaled-down stand-ins to the paper's
/// regime.
pub fn scale_values(data: &LabelledData, factor: f32) -> LabelledData {
    let mut matrix = CooMatrix::with_capacity(data.matrix.rows(), data.matrix.cols(), data.matrix.nnz());
    for (r, c, v) in data.matrix.iter() {
        matrix.push(r, c, v * factor).expect("same shape");
    }
    LabelledData {
        matrix,
        labels: data.labels.clone(),
    }
}

/// Generate a small dense Gaussian regression problem: A ~ N(0,1)^{n×m},
/// y = Aβ* + 0.01·noise with β* ~ N(0,1). Used by unit tests that compare
/// SCD against the closed-form ridge solution.
///
/// # Panics
/// Panics if any dimension is zero.
pub fn dense_gaussian(n: usize, m: usize, seed: u64) -> LabelledData {
    assert!(n > 0 && m > 0, "empty dataset requested");
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<f64> = (0..m).map(|_| normal(&mut rng)).collect();
    let mut matrix = CooMatrix::with_capacity(n, m, n * m);
    let mut labels = Vec::with_capacity(n);
    for row in 0..n {
        let mut response = 0.0f64;
        for (col, &t) in truth.iter().enumerate() {
            let v = normal(&mut rng) as f32;
            matrix.push(row, col, v).expect("in range");
            response += v as f64 * t;
        }
        labels.push((response + 0.01 * normal(&mut rng)) as f32);
    }
    LabelledData { matrix, labels }
}

/// Generate a dense random *classification* problem: A ~ N(0,1)^{n×m},
/// labels y = sign(Aβ* + 0.3·noise) ∈ {−1, +1} with β* ~ N(0,1). The
/// ±1 labels make it valid for every objective (ridge treats them as a
/// regression target, SVM/logistic as classes), so it is the shared
/// fixture for the cross-objective convergence tests.
///
/// # Panics
/// Panics if any dimension is zero or `n < 2` (both classes must be
/// representable).
pub fn dense_random(n: usize, m: usize, seed: u64) -> LabelledData {
    assert!(n >= 2 && m > 0, "dense_random needs n ≥ 2 and m ≥ 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let truth: Vec<f64> = (0..m).map(|_| normal(&mut rng)).collect();
    let mut matrix = CooMatrix::with_capacity(n, m, n * m);
    let mut labels = Vec::with_capacity(n);
    for row in 0..n {
        let mut response = 0.0f64;
        for (col, &t) in truth.iter().enumerate() {
            let v = normal(&mut rng) as f32;
            matrix.push(row, col, v).expect("in range");
            response += v as f64 * t;
        }
        let noisy = response + 0.3 * normal(&mut rng);
        labels.push(if noisy >= 0.0 { 1.0 } else { -1.0 });
    }
    // Guarantee both classes so classification duals are never degenerate:
    // flip the last rows if one class is missing.
    if labels.iter().all(|&y| y == 1.0) {
        labels[n - 1] = -1.0;
    } else if labels.iter().all(|&y| y == -1.0) {
        labels[n - 1] = 1.0;
    }
    LabelledData { matrix, labels }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn webspam_like_is_deterministic() {
        let a = webspam_like(50, 200, 10, 7);
        let b = webspam_like(50, 200, 10, 7);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.matrix.to_dense(), b.matrix.to_dense());
        let c = webspam_like(50, 200, 10, 8);
        assert_ne!(a.matrix.to_dense(), c.matrix.to_dense());
    }

    #[test]
    fn webspam_like_shape_and_labels() {
        let d = webspam_like(100, 400, 12, 1);
        assert_eq!(d.matrix.rows(), 100);
        assert_eq!(d.matrix.cols(), 400);
        assert_eq!(d.labels.len(), 100);
        assert!(d.labels.iter().all(|&y| y == 1.0 || y == -1.0));
        // Both classes present.
        assert!(d.labels.contains(&1.0));
        assert!(d.labels.contains(&-1.0));
        // Mean nnz per row near requested (dedup trims a little).
        let per_row = d.matrix.nnz() as f64 / 100.0;
        assert!((6.0..16.0).contains(&per_row), "got {per_row}");
    }

    #[test]
    fn webspam_values_positive() {
        let d = webspam_like(30, 100, 8, 3);
        for (_, _, v) in d.matrix.iter() {
            assert!(v > 0.0);
        }
    }

    #[test]
    fn webspam_popularity_is_skewed() {
        let d = webspam_like(200, 300, 20, 5);
        let csc = d.matrix.to_csc();
        let mut col_counts: Vec<usize> =
            (0..300).map(|c| csc.col(c).nnz()).collect();
        col_counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = col_counts[..30].iter().sum();
        let total: usize = col_counts.iter().sum();
        // Zipf(1.1): top-10% of features should carry a large share.
        assert!(
            head as f64 > 0.4 * total as f64,
            "head share {} of {total}",
            head
        );
    }

    #[test]
    fn criteo_like_values_are_all_one() {
        let d = criteo_like(100, 5, 50, 11);
        assert_eq!(d.matrix.cols(), 250);
        for (_, _, v) in d.matrix.iter() {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn criteo_like_one_feature_per_field() {
        let d = criteo_like(80, 4, 25, 2);
        let csr = d.matrix.to_csr();
        for row in csr.iter_rows() {
            assert_eq!(row.nnz(), 4, "exactly one nonzero per field");
            for (k, &c) in row.indices.iter().enumerate() {
                let field = c as usize / 25;
                assert_eq!(field, k, "field order preserved");
            }
        }
    }

    #[test]
    fn criteo_like_deterministic() {
        let a = criteo_like(40, 3, 10, 9);
        let b = criteo_like(40, 3, 10, 9);
        assert_eq!(a.matrix.to_dense(), b.matrix.to_dense());
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn dense_gaussian_is_fully_dense() {
        let d = dense_gaussian(10, 6, 4);
        assert_eq!(d.matrix.nnz(), 60);
        assert_eq!(d.labels.len(), 10);
        // Labels are real-valued responses, not ±1.
        assert!(d.labels.iter().any(|&y| y != 1.0 && y != -1.0));
    }

    #[test]
    fn dense_random_has_binary_labels_and_both_classes() {
        let d = dense_random(40, 8, 13);
        assert_eq!(d.matrix.nnz(), 320);
        assert!(d.labels.iter().all(|&y| y == 1.0 || y == -1.0));
        assert!(d.labels.contains(&1.0));
        assert!(d.labels.contains(&-1.0));
        let e = dense_random(40, 8, 13);
        assert_eq!(d.labels, e.labels);
        assert_eq!(d.matrix.to_dense(), e.matrix.to_dense());
    }

    #[test]
    fn normal_moments_sane() {
        let mut rng = StdRng::seed_from_u64(123);
        let draws: Vec<f64> = (0..20_000).map(|_| normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / draws.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn scale_values_scales_only_matrix() {
        let d = webspam_like(20, 30, 5, 1);
        let s = scale_values(&d, 0.5);
        assert_eq!(s.labels, d.labels);
        let (orig, scaled) = (d.matrix.to_dense(), s.matrix.to_dense());
        for (ro, rs) in orig.iter().zip(&scaled) {
            for (a, b) in ro.iter().zip(rs) {
                assert!((a * 0.5 - b).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn zipf_head_is_heaviest() {
        let z = ZipfTable::new(100, 1.1);
        let mut rng = StdRng::seed_from_u64(55);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf_sample(&z, &mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[99] * 5);
    }
}
