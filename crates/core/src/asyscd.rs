//! AsySCD (Liu, Wright, Ré, Bittorf & Sridhar [15]) — the third
//! asynchronous baseline §III-B discusses, reimplemented to reproduce the
//! paper's criticism of it.
//!
//! AsySCD differs from Algorithm 1 "in two important respects. Firstly,
//! instead of optimizing for each coordinate exactly, a small gradient
//! descent step is taken thus introducing an additional step size parameter
//! that must be tuned. Secondly, the algorithm is implemented without the
//! use of a shared vector. Instead, the computation of a Hessian matrix is
//! required. This takes a considerable amount of time and significantly
//! increases the memory requirements" — and, per [14]'s reproduction, ends
//! up "slower than even a single threaded implementation of Algorithm 1".
//!
//! This engine is the faithful sequential core of that scheme for ridge
//! regression:
//!
//! * Precompute the Hessian H = AᵀA + NλI (dense M×M — the memory blow-up;
//!   [`AsyScd::hessian_bytes`] reports it, and construction fails above a
//!   configurable cap so nobody accidentally materializes a 680,715²
//!   matrix).
//! * Maintain the full gradient g = Aᵀ(Aβ − y) + Nλβ incrementally: each
//!   coordinate step β_m ← β_m − η·g_m/H_mm costs a dense length-M gradient
//!   refresh through H's m-th row — the "considerable amount of time".
//! * The step size η must be tuned: η = 1 recovers exact coordinate
//!   minimization (per-coordinate Newton), η > 2 diverges.
//!
//! Simulated time charges M dense ops per update versus Algorithm 1's
//! nnz-per-column, which is how the reproduction exhibits the paper's
//! "slower than sequential SCD" conclusion (see the `asyscd` bench group
//! and the ablation binary).

use crate::objective::ObjectiveKind;
use crate::problem::{Form, RidgeProblem};
use crate::solver::{EpochStats, Solver, TimeBreakdown};
use scd_perf_model::CpuProfile;
use scd_sparse::perm::Permutation;
use scd_sparse::DenseMatrix;

/// Errors raised when setting up AsySCD.
#[derive(Debug, Clone, PartialEq)]
pub enum AsyScdError {
    /// The dense Hessian would exceed the configured memory cap — the
    /// scalability wall the paper points at.
    HessianTooLarge {
        /// Features in the problem.
        features: usize,
        /// Bytes the dense Hessian would need.
        required_bytes: usize,
        /// The configured cap.
        cap_bytes: usize,
    },
    /// AsySCD's Hessian-based primal iteration only generalizes to
    /// objectives with a (possibly prox-composed) quadratic primal —
    /// ridge and lasso. The classification duals have no primal
    /// coordinate form to run it on, and the elastic net's mixed penalty
    /// is not wired into the Hessian diagonal.
    UnsupportedObjective {
        /// The rejected objective's label.
        objective: &'static str,
    },
}

impl std::fmt::Display for AsyScdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsyScdError::HessianTooLarge {
                features,
                required_bytes,
                cap_bytes,
            } => write!(
                f,
                "AsySCD needs a dense {features}x{features} Hessian \
                 ({required_bytes} B) exceeding the {cap_bytes} B cap"
            ),
            AsyScdError::UnsupportedObjective { objective } => write!(
                f,
                "AsySCD supports only the ridge and lasso objectives, not {objective}"
            ),
        }
    }
}

impl std::error::Error for AsyScdError {}

/// Default Hessian memory cap: 256 MB (an 8,192-feature problem).
pub const DEFAULT_HESSIAN_CAP_BYTES: usize = 256 << 20;

/// The AsySCD engine (primal form only; the dual variant is symmetric and
/// suffers the same N×N blow-up).
#[derive(Debug, Clone)]
pub struct AsyScd {
    /// Dense Hessian H = AᵀA + NλI (f64 for the incremental gradient's
    /// stability).
    hessian: DenseMatrix,
    /// Gradient g = Aᵀ(Aβ − y) + Nλβ, maintained incrementally.
    gradient: Vec<f64>,
    beta: Vec<f32>,
    step: f64,
    m: usize,
    /// Ridge (H = AᵀA + NλI, plain gradient step) or lasso (H = AᵀA,
    /// prox-gradient step); the classification duals are rejected at
    /// construction.
    objective: ObjectiveKind,
    cpu: CpuProfile,
    seed: u64,
    epoch_index: u64,
}

impl AsyScd {
    /// Build the engine, materializing the Hessian. Fails when the dense
    /// Hessian exceeds `DEFAULT_HESSIAN_CAP_BYTES`.
    pub fn new(problem: &RidgeProblem, step: f64, seed: u64) -> Result<Self, AsyScdError> {
        Self::with_hessian_cap(problem, step, seed, DEFAULT_HESSIAN_CAP_BYTES)
    }

    /// [`Self::new`] with an explicit Hessian memory cap.
    pub fn with_hessian_cap(
        problem: &RidgeProblem,
        step: f64,
        seed: u64,
        cap_bytes: usize,
    ) -> Result<Self, AsyScdError> {
        assert!(step > 0.0, "step size must be positive");
        let m = problem.m();
        let required = m * m * 8;
        if required > cap_bytes {
            return Err(AsyScdError::HessianTooLarge {
                features: m,
                required_bytes: required,
                cap_bytes,
            });
        }
        // H = AᵀA + NλI.
        let mut hessian = DenseMatrix::gram_from_csc(problem.csc());
        hessian.add_diagonal(problem.n_lambda());
        // g(0) = −Aᵀy.
        let gradient: Vec<f64> = (0..m)
            .map(|c| -problem.csc().col(c).dot_dense(problem.labels()))
            .collect();
        Ok(AsyScd {
            hessian,
            gradient,
            beta: vec![0.0; m],
            step,
            m,
            objective: ObjectiveKind::Ridge,
            cpu: CpuProfile::xeon_e5_2640(),
            seed,
            epoch_index: 0,
        })
    }

    /// Retarget the engine at a non-ridge objective. Only ridge and lasso
    /// are representable (the Hessian-row iteration is primal); lasso
    /// drops the NλI diagonal (its regularizer is the ℓ1 prox, not a
    /// quadratic) and switches the step to a prox-gradient step. Call
    /// before the first epoch — the Hessian diagonal is rebuilt here.
    pub fn with_objective(
        mut self,
        problem: &RidgeProblem,
        objective: ObjectiveKind,
    ) -> Result<Self, AsyScdError> {
        assert_eq!(self.epoch_index, 0, "set the objective before training");
        match objective {
            ObjectiveKind::Ridge => {
                if self.objective == ObjectiveKind::Lasso {
                    self.hessian.add_diagonal(problem.n_lambda());
                }
            }
            ObjectiveKind::Lasso => {
                if self.objective == ObjectiveKind::Ridge {
                    // Undo `new`'s ridge diagonal: lasso's H is plain AᵀA.
                    self.hessian.add_diagonal(-problem.n_lambda());
                }
            }
            ObjectiveKind::Logistic | ObjectiveKind::Svm | ObjectiveKind::ElasticNet { .. } => {
                return Err(AsyScdError::UnsupportedObjective {
                    objective: objective.label(),
                });
            }
        }
        self.objective = objective;
        Ok(self)
    }

    /// Bytes consumed by the dense Hessian — the paper's memory complaint,
    /// quantified. (Webspam's 680,715 features would need ≈3.7 PB.)
    pub fn hessian_bytes(&self) -> usize {
        self.m * self.m * 8
    }

    /// The tuned step size η.
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Override the CPU profile used for simulated timing.
    pub fn with_cpu(mut self, cpu: CpuProfile) -> Self {
        self.cpu = cpu;
        self
    }
}

impl Solver for AsyScd {
    fn form(&self) -> Form {
        Form::Primal
    }

    fn objective(&self) -> ObjectiveKind {
        self.objective
    }

    fn name(&self) -> String {
        match self.objective {
            ObjectiveKind::Ridge => format!("AsySCD (step {})", self.step),
            other => format!("AsySCD (step {}, {})", self.step, other.label()),
        }
    }

    fn epoch(&mut self, problem: &RidgeProblem) -> EpochStats {
        let m = self.m;
        assert_eq!(problem.m(), m, "problem changed under the solver");
        let perm = Permutation::random(m, self.seed ^ (self.epoch_index.wrapping_mul(0x9E37)));
        self.epoch_index += 1;
        let n_lambda = problem.n_lambda();
        for j in 0..m {
            let c = perm.apply(j);
            let h_cc = self.hessian.get(c, c);
            let delta = match self.objective {
                ObjectiveKind::Lasso => {
                    let beta_c = self.beta[c] as f64;
                    if h_cc == 0.0 {
                        // Empty column: the ℓ1 prox pins the weight at 0.
                        -self.step * beta_c
                    } else {
                        // Prox-gradient step on the N-scaled objective
                        // (1/2)βᵀHβ − yᵀAβ + Nλ‖β‖₁, H = AᵀA: the 1-d
                        // coordinate minimizer is the soft threshold.
                        let target = crate::objective::soft_threshold(
                            h_cc * beta_c - self.gradient[c],
                            n_lambda,
                        ) / h_cc;
                        self.step * (target - beta_c)
                    }
                }
                // Ridge: scaled gradient step (η = 1 ⇒ exact coordinate
                // Newton). `with_objective` rejects everything else.
                _ => {
                    if h_cc == 0.0 {
                        continue;
                    }
                    -self.step * self.gradient[c] / h_cc
                }
            };
            self.beta[c] += delta as f32;
            // Dense gradient refresh through H's row — the O(M) cost.
            for (g, &h) in self.gradient.iter_mut().zip(self.hessian.row(c)) {
                *g += delta * h;
            }
        }
        EpochStats {
            updates: m,
            breakdown: TimeBreakdown {
                // Each update streams a dense length-M Hessian row — charged
                // like M nonzeros — versus Algorithm 1's sparse column.
                host: self.cpu.sequential_epoch_seconds(m * m / 2, m),
                ..TimeBreakdown::default()
            },
        }
    }

    fn weights(&self) -> Vec<f32> {
        self.beta.clone()
    }

    fn shared_vector(&self) -> Vec<f32> {
        // AsySCD maintains no shared vector (the paper's point); reconstruct
        // w = Aβ for interface compatibility.
        problem_free_shared(&self.beta)
    }
}

/// AsySCD has no shared vector; the trait requires one, so return an empty
/// marker (callers needing w = Aβ should compute it from `weights()` and
/// the problem).
fn problem_free_shared(_beta: &[f32]) -> Vec<f32> {
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_primal;
    use crate::seq::SequentialScd;
    use scd_datasets::{dense_gaussian, scale_values, webspam_like};
    use scd_sparse::dense;

    fn problem() -> RidgeProblem {
        RidgeProblem::from_labelled(&scale_values(&webspam_like(120, 80, 10, 3), 0.4), 1e-2)
            .unwrap()
    }

    #[test]
    fn converges_with_unit_step_to_exact_optimum() {
        let p = problem();
        let mut s = AsyScd::new(&p, 1.0, 1).unwrap();
        for _ in 0..120 {
            s.epoch(&p);
        }
        let exact = exact_primal(&p);
        let diff = dense::max_abs_diff(&s.weights(), &exact);
        assert!(diff < 1e-3, "AsySCD must reach the optimum, diff {diff}");
        assert!(s.duality_gap(&p) < 1e-5);
    }

    #[test]
    fn small_steps_converge_slower_per_epoch() {
        let p = problem();
        let gap_after = |step: f64| {
            let mut s = AsyScd::new(&p, step, 2).unwrap();
            for _ in 0..20 {
                s.epoch(&p);
            }
            s.duality_gap(&p)
        };
        let full = gap_after(1.0);
        let half = gap_after(0.5);
        assert!(
            full < half,
            "η=1 ({full}) should converge faster than η=0.5 ({half})"
        );
    }

    #[test]
    fn oversized_steps_diverge() {
        // The step-size tuning burden the paper mentions.
        let p = problem();
        let mut s = AsyScd::new(&p, 2.5, 3).unwrap();
        for _ in 0..30 {
            s.epoch(&p);
        }
        let gap = s.duality_gap(&p);
        assert!(
            gap.is_nan() || gap > 1.0,
            "η=2.5 should destabilize the iteration, gap {gap}"
        );
    }

    #[test]
    fn simulated_epoch_slower_than_sequential_scd() {
        // [14]'s finding, quoted by the paper: AsySCD "is slower than even a
        // single threaded implementation of Algorithm 1".
        let p = problem();
        let mut asy = AsyScd::new(&p, 1.0, 4).unwrap();
        let mut seq = SequentialScd::primal(&p, 4);
        let t_asy = asy.epoch(&p).seconds();
        let t_seq = seq.epoch(&p).seconds();
        assert!(
            t_asy > t_seq,
            "AsySCD epoch ({t_asy}s) must cost more than Algorithm 1 ({t_seq}s)"
        );
    }

    #[test]
    fn hessian_cap_rejects_large_problems() {
        let p = problem();
        let err = AsyScd::with_hessian_cap(&p, 1.0, 1, 1024).unwrap_err();
        match err {
            AsyScdError::HessianTooLarge {
                features,
                required_bytes,
                cap_bytes,
            } => {
                assert_eq!(features, 80);
                assert_eq!(required_bytes, 80 * 80 * 8);
                assert_eq!(cap_bytes, 1024);
            }
            other => panic!("expected HessianTooLarge, got {other:?}"),
        }
        assert!(err.to_string().contains("Hessian"));
    }

    #[test]
    fn hessian_bytes_reported() {
        let p = RidgeProblem::from_labelled(&dense_gaussian(10, 6, 1), 0.1).unwrap();
        let s = AsyScd::new(&p, 1.0, 1).unwrap();
        assert_eq!(s.hessian_bytes(), 6 * 6 * 8);
        assert_eq!(s.step(), 1.0);
        assert!(s.name().contains("AsySCD"));
    }

    #[test]
    fn lasso_objective_converges_and_sparsifies() {
        use crate::objective::ObjectiveKind;
        let p = problem();
        let mut s = AsyScd::new(&p, 1.0, 6)
            .unwrap()
            .with_objective(&p, ObjectiveKind::Lasso)
            .unwrap();
        let g0 = s.duality_gap(&p);
        for _ in 0..80 {
            s.epoch(&p);
        }
        let gap = s.duality_gap(&p);
        assert!(gap < g0 * 1e-2, "lasso gap {g0} -> {gap}");
        assert!(s.name().contains("lasso"));
        // Cross-check against the sequential trait path: same optimum.
        let mut seq = SequentialScd::primal(&p, 6).with_objective(ObjectiveKind::Lasso);
        for _ in 0..200 {
            seq.epoch(&p);
        }
        assert!(
            dense::max_abs_diff(&s.weights(), &seq.weights()) < 1e-3,
            "AsySCD-lasso and sequential lasso must agree"
        );
    }

    #[test]
    fn dual_objectives_are_rejected() {
        use crate::objective::ObjectiveKind;
        let p = problem();
        let err = AsyScd::new(&p, 1.0, 1)
            .unwrap()
            .with_objective(&p, ObjectiveKind::Svm)
            .unwrap_err();
        assert!(matches!(
            err,
            AsyScdError::UnsupportedObjective { objective: "svm" }
        ));
        assert!(err.to_string().contains("svm"));
    }

    #[test]
    fn incremental_gradient_stays_consistent() {
        // After a few epochs the maintained gradient must equal the true
        // gradient Aᵀ(Aβ − y) + Nλβ recomputed from scratch.
        let p = problem();
        let mut s = AsyScd::new(&p, 0.7, 5).unwrap();
        for _ in 0..3 {
            s.epoch(&p);
        }
        let beta = s.weights();
        let w = p.csc().matvec(&beta).unwrap();
        let residual: Vec<f32> = w
            .iter()
            .zip(p.labels())
            .map(|(&wi, &yi)| wi - yi)
            .collect();
        let mut true_grad = p.csc().matvec_t(&residual).unwrap();
        for (g, &b) in true_grad.iter_mut().zip(&beta) {
            *g += (p.n_lambda() as f32) * b;
        }
        for (maintained, truth) in s.gradient.iter().zip(&true_grad) {
            assert!(
                (maintained - *truth as f64).abs() < 1e-2,
                "{maintained} vs {truth}"
            );
        }
    }
}
