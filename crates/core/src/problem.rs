//! The ridge regression problem (§II of the paper): primal and dual
//! objectives, the coordinate update rules' ingredients, optimality
//! mappings, and the duality gap.
//!
//! Primal (Eq. 1):  P(β) = 1/(2N)‖Aβ − y‖² + (λ/2)‖β‖²
//! Dual   (Eq. 3):  D(α) = −(N/2)‖α‖² − 1/(2λ)‖Aᵀα‖² + αᵀy
//!
//! Fenchel–Rockafellar (Eqs. 5–6): β* = (1/λ)Aᵀα*, α* = (1/N)(y − Aβ*),
//! and P(β*) = D(α*). The duality gap GP/GD of §II-C is the convergence
//! metric every figure in the paper plots.

use crate::products;
use scd_sparse::dense;
use scd_sparse::io::LabelledData;
use scd_sparse::{CscMatrix, CsrMatrix};

/// Which formulation a solver optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    /// Minimize P(β); coordinates are features (columns), the shared vector
    /// is w = Aβ ∈ ℝᴺ.
    Primal,
    /// Maximize D(α); coordinates are examples (rows), the shared vector is
    /// w̄ = Aᵀα ∈ ℝᴹ.
    Dual,
}

impl Form {
    /// Short lowercase name for reports.
    pub fn label(self) -> &'static str {
        match self {
            Form::Primal => "primal",
            Form::Dual => "dual",
        }
    }
}

/// Errors raised when assembling a [`RidgeProblem`].
#[derive(Debug, Clone, PartialEq)]
pub enum ProblemError {
    /// Label vector length differs from the number of examples.
    LabelMismatch { rows: usize, labels: usize },
    /// λ must be strictly positive for strong convexity.
    NonPositiveLambda(f64),
    /// The data matrix has no rows or no columns.
    EmptyProblem,
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::LabelMismatch { rows, labels } => {
                write!(f, "{labels} labels for {rows} examples")
            }
            ProblemError::NonPositiveLambda(l) => write!(f, "lambda must be > 0, got {l}"),
            ProblemError::EmptyProblem => write!(f, "data matrix has no rows or no columns"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// An immutable ridge regression training problem.
///
/// Holds the data in **both** CSR and CSC (the paper keeps CSC on the GPU
/// for the primal and CSR for the dual; we keep both so any solver can run
/// on the same problem object), the labels, λ, and the precomputed
/// per-coordinate squared norms that appear in the update-rule denominators.
#[derive(Debug, Clone)]
pub struct RidgeProblem {
    csr: CsrMatrix,
    csc: CscMatrix,
    y: Vec<f32>,
    lambda: f64,
    /// N used in the regularization constant Nλ. Equals `rows` for a full
    /// problem; a by-example partition overrides it with the *global*
    /// example count so every worker optimizes the same global objective.
    regularization_examples: usize,
    col_sq_norms: Vec<f64>,
    row_sq_norms: Vec<f64>,
}

impl RidgeProblem {
    /// Build a problem from a CSR matrix, labels, and regularizer λ.
    pub fn new(csr: CsrMatrix, labels: Vec<f32>, lambda: f64) -> Result<Self, ProblemError> {
        if csr.rows() == 0 || csr.cols() == 0 {
            return Err(ProblemError::EmptyProblem);
        }
        if labels.len() != csr.rows() {
            return Err(ProblemError::LabelMismatch {
                rows: csr.rows(),
                labels: labels.len(),
            });
        }
        if lambda.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ProblemError::NonPositiveLambda(lambda));
        }
        let sched = scd_sched::global();
        let csc = products::to_csc(&sched, &csr);
        let col_sq_norms = products::squared_norms(&sched, csc.offsets(), |m| csc.col(m));
        let row_sq_norms = products::squared_norms(&sched, csr.offsets(), |n| csr.row(n));
        Ok(RidgeProblem {
            regularization_examples: csr.rows(),
            csr,
            csc,
            y: labels,
            lambda,
            col_sq_norms,
            row_sq_norms,
        })
    }

    /// Convenience constructor from a labelled COO dataset.
    pub fn from_labelled(data: &LabelledData, lambda: f64) -> Result<Self, ProblemError> {
        Self::new(data.matrix.to_csr(), data.labels.clone(), lambda)
    }

    /// Number of training examples N.
    #[inline]
    pub fn n(&self) -> usize {
        self.csr.rows()
    }

    /// Number of features M.
    #[inline]
    pub fn m(&self) -> usize {
        self.csr.cols()
    }

    /// The regularization parameter λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// N·λ — the constant in both update-rule denominators, with N the
    /// regularization example count (global N on partitioned problems).
    #[inline]
    pub fn n_lambda(&self) -> f64 {
        self.regularization_examples as f64 * self.lambda
    }

    /// Override the example count used in Nλ. The distributed driver sets
    /// this to the *global* N on each worker's by-example partition so that
    /// local dual updates optimize the global objective (local rows ≠ N).
    pub fn with_regularization_examples(mut self, n: usize) -> Self {
        assert!(n > 0, "regularization example count must be positive");
        self.regularization_examples = n;
        self
    }

    /// The labels y.
    #[inline]
    pub fn labels(&self) -> &[f32] {
        &self.y
    }

    /// Row-major view of the data (dual coordinates ā_n).
    #[inline]
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// Column-major view of the data (primal coordinates a_m).
    #[inline]
    pub fn csc(&self) -> &CscMatrix {
        &self.csc
    }

    /// ‖a_m‖² per feature.
    #[inline]
    pub fn col_sq_norms(&self) -> &[f64] {
        &self.col_sq_norms
    }

    /// ‖ā_n‖² per example.
    #[inline]
    pub fn row_sq_norms(&self) -> &[f64] {
        &self.row_sq_norms
    }

    /// Coordinate count for a form: M for the primal, N for the dual. One
    /// epoch is one permuted pass over this many coordinates.
    #[inline]
    pub fn coords(&self, form: Form) -> usize {
        match form {
            Form::Primal => self.m(),
            Form::Dual => self.n(),
        }
    }

    /// Shared-vector length for a form: N for the primal (w = Aβ), M for
    /// the dual (w̄ = Aᵀα).
    #[inline]
    pub fn shared_len(&self, form: Form) -> usize {
        match form {
            Form::Primal => self.n(),
            Form::Dual => self.m(),
        }
    }

    /// The primal shared vector w = Aβ, computed on the shared host pool.
    /// Bit-identical to `self.csc().matvec(beta)` at any pool width.
    ///
    /// # Panics
    /// Panics if `beta.len() != M`.
    pub fn primal_shared(&self, beta: &[f32]) -> Vec<f32> {
        products::matvec(&scd_sched::global(), &self.csr, beta)
    }

    /// The dual shared vector w̄ = Aᵀα, computed on the shared host pool.
    /// Bit-identical to `self.csr().matvec_t(alpha)` at any pool width.
    ///
    /// # Panics
    /// Panics if `alpha.len() != N`.
    pub fn dual_shared(&self, alpha: &[f32]) -> Vec<f32> {
        products::matvec_t(&scd_sched::global(), &self.csc, alpha)
    }

    /// The primal objective P(β), computing w = Aβ from scratch.
    pub fn primal_objective(&self, beta: &[f32]) -> f64 {
        self.primal_objective_given_shared(beta, &self.primal_shared(beta))
    }

    /// P(β) when the shared vector w = Aβ is already available.
    pub fn primal_objective_given_shared(&self, beta: &[f32], w: &[f32]) -> f64 {
        let fit = dense::squared_distance(w, &self.y);
        let reg = dense::squared_norm(beta);
        fit / (2.0 * self.n() as f64) + self.lambda / 2.0 * reg
    }

    /// The dual objective D(α), computing w̄ = Aᵀα from scratch.
    pub fn dual_objective(&self, alpha: &[f32]) -> f64 {
        self.dual_objective_given_shared(alpha, &self.dual_shared(alpha))
    }

    /// D(α) when the shared vector w̄ = Aᵀα is already available.
    pub fn dual_objective_given_shared(&self, alpha: &[f32], w_bar: &[f32]) -> f64 {
        let n = self.n() as f64;
        -n / 2.0 * dense::squared_norm(alpha) - dense::squared_norm(w_bar) / (2.0 * self.lambda)
            + dense::dot(alpha, &self.y)
    }

    /// The dual point induced by a primal iterate (Eq. 6): α = (y − Aβ)/N.
    pub fn induced_dual(&self, beta: &[f32]) -> Vec<f32> {
        self.induced_dual_given_shared(&self.primal_shared(beta))
    }

    /// α = (y − w)/N for w = Aβ.
    fn induced_dual_given_shared(&self, w: &[f32]) -> Vec<f32> {
        let n = self.n() as f32;
        self.y
            .iter()
            .zip(w)
            .map(|(&yi, &wi)| (yi - wi) / n)
            .collect()
    }

    /// The primal point induced by a dual iterate (Eq. 5): β = Aᵀα/λ.
    pub fn induced_primal(&self, alpha: &[f32]) -> Vec<f32> {
        let mut w_bar = self.dual_shared(alpha);
        dense::scale((1.0 / self.lambda) as f32, &mut w_bar);
        w_bar
    }

    /// GP(β) = |P(β) − D((y − Aβ)/N)| — the primal algorithms' convergence
    /// metric. One pass per product: w = Aβ feeds both P(β) and α, and
    /// w̄ = Aᵀα feeds D(α).
    pub fn primal_duality_gap(&self, beta: &[f32]) -> f64 {
        let w = self.primal_shared(beta);
        let alpha = self.induced_dual_given_shared(&w);
        let w_bar = self.dual_shared(&alpha);
        (self.primal_objective_given_shared(beta, &w)
            - self.dual_objective_given_shared(&alpha, &w_bar))
        .abs()
    }

    /// GD(α) = |P(Aᵀα/λ) − D(α)| — the dual algorithms' convergence metric.
    /// One pass per product: the unscaled w̄ = Aᵀα feeds D(α), a scaled copy
    /// is β, and w = Aβ feeds P(β).
    pub fn dual_duality_gap(&self, alpha: &[f32]) -> f64 {
        let w_bar = self.dual_shared(alpha);
        let mut beta = w_bar.clone();
        dense::scale((1.0 / self.lambda) as f32, &mut beta);
        let w = self.primal_shared(&beta);
        (self.primal_objective_given_shared(&beta, &w)
            - self.dual_objective_given_shared(alpha, &w_bar))
        .abs()
    }

    /// Duality gap for weights of either form.
    pub fn duality_gap(&self, form: Form, weights: &[f32]) -> f64 {
        match form {
            Form::Primal => self.primal_duality_gap(weights),
            Form::Dual => self.dual_duality_gap(weights),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sparse::CooMatrix;

    /// 1×1 problem with a=2, y=3, λ=0.5 — fully solvable by hand.
    fn tiny() -> RidgeProblem {
        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 2.0).unwrap();
        RidgeProblem::new(coo.to_csr(), vec![3.0], 0.5).unwrap()
    }

    #[test]
    fn construction_validates() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        let csr = coo.to_csr();
        assert!(matches!(
            RidgeProblem::new(csr.clone(), vec![1.0], 0.1),
            Err(ProblemError::LabelMismatch { rows: 2, labels: 1 })
        ));
        assert!(matches!(
            RidgeProblem::new(csr.clone(), vec![1.0, 2.0], 0.0),
            Err(ProblemError::NonPositiveLambda(_))
        ));
        assert!(matches!(
            RidgeProblem::new(csr.clone(), vec![1.0, 2.0], -1.0),
            Err(ProblemError::NonPositiveLambda(_))
        ));
        assert!(RidgeProblem::new(csr, vec![1.0, 2.0], 0.1).is_ok());
    }

    #[test]
    fn tiny_problem_closed_form() {
        // β* = a y / (a² + λN) with N=1: 6/4.5 = 4/3.
        let p = tiny();
        let beta_star = [(2.0f32 * 3.0) / (4.0 + 0.5)];
        // P(β*) = λy²/(2(a²+λ)) = 0.5·9/(2·4.5) = 0.5
        assert!((p.primal_objective(&beta_star) - 0.5).abs() < 1e-6);
        // α* = λy/(a²+λ) = 1.5/4.5 = 1/3; D(α*) = P(β*).
        let alpha_star = [1.0f32 / 3.0];
        assert!((p.dual_objective(&alpha_star) - 0.5).abs() < 1e-6);
        // Gaps vanish at the optimum.
        assert!(p.primal_duality_gap(&beta_star) < 1e-6);
        assert!(p.dual_duality_gap(&alpha_star) < 1e-6);
    }

    #[test]
    fn optimality_mappings_are_mutually_consistent() {
        let p = tiny();
        let beta_star = vec![4.0f32 / 3.0];
        let alpha = p.induced_dual(&beta_star);
        assert!((alpha[0] - 1.0 / 3.0).abs() < 1e-6);
        let beta_back = p.induced_primal(&alpha);
        assert!((beta_back[0] - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn gap_positive_away_from_optimum() {
        let p = tiny();
        assert!(p.primal_duality_gap(&[0.0]) > 0.1);
        assert!(p.dual_duality_gap(&[0.0]) > 0.1);
    }

    #[test]
    fn weak_duality_holds() {
        // P(β) ≥ D(α) for arbitrary iterates.
        let p = tiny();
        for (b, a) in [(0.0f32, 0.0f32), (1.0, 0.2), (2.0, -0.5), (-1.0, 1.0)] {
            assert!(p.primal_objective(&[b]) >= p.dual_objective(&[a]) - 1e-9);
        }
    }

    #[test]
    fn objective_given_shared_matches_fresh() {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 1, 2.0).unwrap();
        coo.push(2, 0, -1.0).unwrap();
        let p = RidgeProblem::new(coo.to_csr(), vec![1.0, -1.0, 0.5], 0.01).unwrap();
        let beta = [0.3f32, -0.7];
        let w = p.csc().matvec(&beta).unwrap();
        assert!(
            (p.primal_objective(&beta) - p.primal_objective_given_shared(&beta, &w)).abs()
                < 1e-12
        );
        let alpha = [0.1f32, 0.2, -0.3];
        let wb = p.csr().matvec_t(&alpha).unwrap();
        assert!(
            (p.dual_objective(&alpha) - p.dual_objective_given_shared(&alpha, &wb)).abs() < 1e-12
        );
    }

    #[test]
    fn coords_and_shared_len_by_form() {
        let mut coo = CooMatrix::new(3, 5);
        coo.push(2, 4, 1.0).unwrap();
        let p = RidgeProblem::new(coo.to_csr(), vec![0.0; 3], 1.0).unwrap();
        assert_eq!(p.coords(Form::Primal), 5);
        assert_eq!(p.coords(Form::Dual), 3);
        assert_eq!(p.shared_len(Form::Primal), 3);
        assert_eq!(p.shared_len(Form::Dual), 5);
        assert_eq!(Form::Primal.label(), "primal");
        assert_eq!(Form::Dual.label(), "dual");
    }

    #[test]
    fn empty_problem_rejected() {
        let coo = CooMatrix::new(0, 0);
        assert!(matches!(
            RidgeProblem::new(coo.to_csr(), vec![], 1.0),
            Err(ProblemError::EmptyProblem)
        ));
    }
}
