//! Bit-identity of the data-parallel matrix passes in `scd_core::products`
//! and of every objective's duality gap built on them.
//!
//! The parallel products are row/column *gathers* standing in for the
//! serial *scatters* `CscMatrix::matvec` and `CsrMatrix::matvec_t`; the
//! parallel transpose fills nnz-balanced column ranges. All of them must
//! reproduce the serial results bit for bit at every pool width, on
//! matrices built to stress the argument: empty rows and columns, explicit
//! zeros, Zipf-skewed column use, `±0.0` in the dense operand, and (for
//! the products) infinite entries — the only values for which skipping a
//! zero coefficient changes a bit, since `0 · ∞` is NaN. The gaps
//! must equal the pre-parallel three-matvec formulas, kept below as the
//! oracle.

use proptest::prelude::*;
use scd_core::{products, Form, ObjectiveKind, RidgeProblem};
use scd_sched::Scheduler;
use scd_sparse::{dense, CooMatrix, CscMatrix, CsrMatrix};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// One pool per width 1..=4, shared by every case.
fn pools() -> &'static [Arc<Scheduler>] {
    static POOLS: OnceLock<Vec<Arc<Scheduler>>> = OnceLock::new();
    POOLS.get_or_init(|| (1..=4).map(Scheduler::new).collect())
}

/// splitmix64: the case generator's stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A dense operand entry: a quarter `+0.0`, an eighth `-0.0`.
    fn dense_value(&mut self) -> f32 {
        match self.below(8) {
            0 | 1 => 0.0,
            2 => -0.0,
            _ => (self.unit() * 4.0 - 2.0) as f32,
        }
    }
}

/// A random matrix and dense operands for both product directions.
struct Case {
    coo: CooMatrix,
    csr: CsrMatrix,
    /// Length `cols`: the operand of A·x.
    x: Vec<f32>,
    /// Length `rows`: the operand of Aᵀ·y.
    y: Vec<f32>,
    /// ±1 labels, one per row.
    labels: Vec<f32>,
}

/// `infinite`: whether a few stored values are ±∞.
fn build(rows: usize, cols: usize, seed: u64, infinite: bool) -> Case {
    let mut rng = Rng(seed);
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        // A fifth of the rows stay empty.
        if rng.below(5) == 0 {
            continue;
        }
        let want = 1 + rng.below(cols as u64) as usize;
        let mut used = BTreeSet::new();
        for _ in 0..want {
            // u³ piles the picks onto the low columns (Zipf-like head);
            // high columns are often left empty.
            let u = rng.unit();
            used.insert(((u * u * u) * cols as f64) as usize);
        }
        for c in used {
            let v = match rng.below(if infinite { 12 } else { 10 }) {
                0 => 0.0, // an explicit stored zero
                1 => -0.0,
                10 => f32::INFINITY,
                11 => f32::NEG_INFINITY,
                2 => (rng.unit() * 2e3 - 1e3) as f32,
                _ => (rng.unit() * 6.0 - 3.0) as f32,
            };
            coo.push(r, c, v).unwrap();
        }
    }
    let csr = coo.to_csr();
    let x = (0..cols).map(|_| rng.dense_value()).collect();
    let y = (0..rows).map(|_| rng.dense_value()).collect();
    let labels = (0..rows)
        .map(|_| if rng.below(2) == 0 { 1.0 } else { -1.0 })
        .collect();
    Case {
        coo,
        csr,
        x,
        y,
        labels,
    }
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits64(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_csc(a: &CscMatrix, b: &CscMatrix) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.offsets() == b.offsets()
        && a.indices() == b.indices()
        && bits32(a.values()) == bits32(b.values())
}

fn arb_case(infinite: bool) -> impl Strategy<Value = Case> {
    (1usize..40, 1usize..40, 0u64..u64::MAX).prop_map(move |(r, c, s)| build(r, c, s, infinite))
}

// ---- the pre-parallel gap formulas: three serial matvecs each ----------

fn old_ridge_gap(p: &RidgeProblem, form: Form, w: &[f32]) -> f64 {
    match form {
        Form::Primal => {
            let n = p.n() as f32;
            let alpha: Vec<f32> = p
                .labels()
                .iter()
                .zip(&p.csc().matvec(w).unwrap())
                .map(|(&yi, &wi)| (yi - wi) / n)
                .collect();
            let primal = p.primal_objective_given_shared(w, &p.csc().matvec(w).unwrap());
            let dual = p.dual_objective_given_shared(&alpha, &p.csr().matvec_t(&alpha).unwrap());
            (primal - dual).abs()
        }
        Form::Dual => {
            let mut beta = p.csr().matvec_t(w).unwrap();
            dense::scale((1.0 / p.lambda()) as f32, &mut beta);
            let primal = p.primal_objective_given_shared(&beta, &p.csc().matvec(&beta).unwrap());
            let dual = p.dual_objective_given_shared(w, &p.csr().matvec_t(w).unwrap());
            (primal - dual).abs()
        }
    }
}

fn xlogx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.ln()
    }
}

fn old_sdca_gap(p: &RidgeProblem, kind: ObjectiveKind, alpha: &[f32]) -> f64 {
    let phi = |a: f64| match kind {
        ObjectiveKind::Logistic => -xlogx(a) - xlogx(1.0 - a),
        _ => a,
    };
    let induced = || {
        let mut beta = p.csr().matvec_t(alpha).unwrap();
        dense::scale((1.0 / p.n_lambda()) as f32, &mut beta);
        beta
    };
    let reg = |beta: &[f32]| -> f64 { beta.iter().map(|&b| (b as f64) * (b as f64)).sum() };
    let n = p.n() as f64;
    let beta = induced();
    let mut loss = 0.0f64;
    for (i, row) in p.csr().iter_rows().enumerate() {
        loss += kind.margin_loss(p.labels()[i] as f64 * row.dot_dense(&beta));
    }
    let primal = loss / n + p.lambda() / 2.0 * reg(&beta);
    let sum: f64 = alpha
        .iter()
        .zip(p.labels())
        .map(|(&al, &y)| phi((y * al) as f64))
        .sum();
    let dual = sum / n - p.lambda() / 2.0 * reg(&induced());
    (primal - dual).max(0.0)
}

fn soft_threshold(z: f64, t: f64) -> f64 {
    if z > t {
        z - t
    } else if z < -t {
        z + t
    } else {
        0.0
    }
}

fn old_elastic_net_gap(p: &RidgeProblem, l1_ratio: f64, beta: &[f32]) -> f64 {
    let n = p.n() as f64;
    let l1 = p.lambda() * l1_ratio;
    let l2 = p.lambda() * (1.0 - l1_ratio);
    let w = p.csc().matvec(beta).unwrap();
    let theta: Vec<f32> = p
        .labels()
        .iter()
        .zip(&w)
        .map(|(&y, &wi)| ((y as f64 - wi as f64) / n) as f32)
        .collect();
    let corr = p.csr().matvec_t(&theta).unwrap();
    let dot_y = dense::dot(&theta, p.labels());
    let sq = dense::squared_norm(&theta);
    let dual = if l2 > 0.0 {
        let conj: f64 = corr
            .iter()
            .map(|&v| soft_threshold((v as f64).abs(), l1).powi(2))
            .sum();
        dot_y - n / 2.0 * sq - conj / (2.0 * l2)
    } else {
        let inf_norm = corr
            .iter()
            .fold(0.0f64, |acc, &v| acc.max((v as f64).abs()));
        let s = if inf_norm > l1 { l1 / inf_norm } else { 1.0 };
        s * dot_y - s * s * n / 2.0 * sq
    };
    let w = p.csc().matvec(beta).unwrap();
    let fit = dense::squared_distance(&w, p.labels());
    let l1_norm: f64 = beta.iter().map(|&b| (b as f64).abs()).sum();
    let primal = fit / (2.0 * n)
        + p.lambda() * (l1_ratio * l1_norm + (1.0 - l1_ratio) / 2.0 * dense::squared_norm(beta));
    (primal - dual).max(0.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Both products, the margins and the norms equal their serial
    /// counterparts bit for bit at widths 1–4.
    #[test]
    fn products_match_the_serial_scatters_at_every_width(case in arb_case(true)) {
        let csc = case.coo.to_csc();
        let want_w = bits32(&csc.matvec(&case.x).unwrap());
        let want_w_bar = bits32(&case.csr.matvec_t(&case.y).unwrap());
        let want_dots: Vec<f64> = case.csr.iter_rows().map(|r| r.dot_dense(&case.x)).collect();
        for sched in pools() {
            prop_assert_eq!(&bits32(&products::matvec(sched, &case.csr, &case.x)), &want_w);
            prop_assert_eq!(&bits32(&products::matvec_t(sched, &csc, &case.y)), &want_w_bar);
            prop_assert_eq!(
                bits64(&products::row_dots(sched, &case.csr, &case.x)),
                bits64(&want_dots)
            );
            prop_assert_eq!(
                bits64(&products::squared_norms(sched, case.csr.offsets(), |n| case.csr.row(n))),
                bits64(&case.csr.row_squared_norms())
            );
            prop_assert_eq!(
                bits64(&products::squared_norms(sched, csc.offsets(), |m| csc.col(m))),
                bits64(&csc.col_squared_norms())
            );
        }
    }

    /// The parallel transpose equals the COO-built CSC and the serial
    /// transpose, row order within every column included.
    #[test]
    fn transpose_matches_the_serial_one_at_every_width(case in arb_case(true)) {
        let want = case.coo.to_csc();
        prop_assert!(same_csc(&case.csr.to_csc(), &want));
        for sched in pools() {
            prop_assert!(same_csc(&products::to_csc(sched, &case.csr), &want));
        }
    }

    /// Every objective's gap equals its three-matvec formula bit for bit.
    #[test]
    fn every_gap_equals_the_three_matvec_formula(case in arb_case(false), lam in 0usize..3) {
        let lambda = [1e-3, 0.1, 2.0][lam];
        let p = RidgeProblem::new(case.csr.clone(), case.labels.clone(), lambda).unwrap();
        let beta = &case.x;
        let alpha = &case.y;
        let ridge = ObjectiveKind::Ridge;
        prop_assert_eq!(
            ridge.duality_gap(&p, Form::Primal, beta).to_bits(),
            old_ridge_gap(&p, Form::Primal, beta).to_bits()
        );
        prop_assert_eq!(
            ridge.duality_gap(&p, Form::Dual, alpha).to_bits(),
            old_ridge_gap(&p, Form::Dual, alpha).to_bits()
        );
        // Signed SDCA iterates: αₙ = yₙ·aₙ with aₙ ∈ [0, 1].
        let signed: Vec<f32> = alpha
            .iter()
            .zip(&case.labels)
            .map(|(&a, &y)| y * (a.abs() / 2.0))
            .collect();
        for kind in [ObjectiveKind::Logistic, ObjectiveKind::Svm] {
            prop_assert_eq!(
                kind.duality_gap(&p, Form::Dual, &signed).to_bits(),
                old_sdca_gap(&p, kind, &signed).to_bits()
            );
        }
        for (kind, l1_ratio) in [
            (ObjectiveKind::Lasso, 1.0),
            (ObjectiveKind::ElasticNet { l1_ratio: 0.5 }, 0.5),
        ] {
            prop_assert_eq!(
                kind.duality_gap(&p, Form::Primal, beta).to_bits(),
                old_elastic_net_gap(&p, l1_ratio, beta).to_bits()
            );
        }
    }
}
