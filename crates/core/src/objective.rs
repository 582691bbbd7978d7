//! The pluggable objective layer: every solver in the repo runs the same
//! data flow — sparse dot → scalar coordinate update → axpy into the
//! shared vector — so the *objective* is exactly the scalar step plus the
//! value/gap oracles. This module factors those behind the [`Objective`]
//! trait with four implementations serving five objectives:
//!
//! * **Ridge** (Eqs. 1–7 of the paper): the existing closed forms from
//!   [`crate::updates`], delegated verbatim so every ridge path stays
//!   bit-identical to the pre-trait code.
//! * **Logistic** (dual, PASSCoDe / SDCA): no closed form; the coordinate
//!   subproblem is solved by 40-iteration bisection on the optimality
//!   condition `ln((1−a)/a) = margin + (a − a_old)·‖ā‖²/λN`.
//! * **Hinge/SVM** (dual, PASSCoDe / SDCA): box-clipped closed form
//!   `a ← clip(a + (1 − margin)·λN/‖ā‖², 0, 1)`.
//! * **Elastic net** (primal; Friedman, Hastie & Tibshirani [4]):
//!   F(β) = 1/(2N)‖Aβ − y‖² + λ(ρ‖β‖₁ + (1−ρ)/2·‖β‖²), soft-threshold
//!   closed form β_m ← S(⟨r, a_m⟩/N, λρ) / (‖a_m‖²/N + λ(1−ρ)). **Lasso**
//!   is its ρ = 1 corner and runs the same code.
//!
//! **Signed-α convention.** The ridge dual engines store α and maintain
//! w̄ = Aᵀα. The SDCA classification duals use a box variable
//! aₙ ∈ [0, 1] with β(α) = (1/λN)Σ aₙyₙāₙ. To flow through the existing
//! engines unchanged, SVM/logistic store the *signed* variable
//! αₙ = yₙ·aₙ, so the engine-maintained shared vector is still w̄ = Aᵀα
//! and the induced primal iterate is β = w̄/λN (ridge's is w̄/λ — the
//! objective owns that scaling via [`Objective::induced_primal`]).
//!
//! Engines hold a [`ObjectiveKind`] (a `Copy` enum defaulting to ridge)
//! and dispatch through its inherent methods, so no `Arc<dyn …>` plumbing
//! reaches the hot loops or the GPU kernel structs.

use crate::problem::{Form, RidgeProblem};
use crate::products;
use crate::updates;
use scd_sparse::dense;

/// Bisection iterations for the logistic coordinate subproblem (2⁻⁴⁰
/// interval width — below f32 weight resolution).
const LOGISTIC_BISECTION_ITERS: usize = 40;

/// Soft-threshold operator S(z, t) = sign(z)·max(|z| − t, 0).
#[inline]
pub(crate) fn soft_threshold(z: f64, t: f64) -> f64 {
    if z > t {
        z - t
    } else if z < -t {
        z + t
    } else {
        0.0
    }
}

/// Errors from validating an objective against a problem/form.
#[derive(Debug, Clone, PartialEq)]
pub enum ObjectiveError {
    /// The objective has no coordinate update for this form (e.g. lasso
    /// has no dual, SVM no primal).
    UnsupportedForm {
        /// The objective's label.
        objective: &'static str,
        /// The rejected form.
        form: Form,
    },
    /// Classification objectives need ±1 labels.
    NonBinaryLabels {
        /// The objective's label.
        objective: &'static str,
    },
    /// The elastic-net mix ρ is outside [0, 1] or not finite.
    InvalidL1Ratio {
        /// The rejected ρ.
        l1_ratio: f64,
    },
}

impl std::fmt::Display for ObjectiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectiveError::UnsupportedForm { objective, form } => write!(
                f,
                "objective {objective} does not support the {} form",
                form.label()
            ),
            ObjectiveError::NonBinaryLabels { objective } => {
                write!(f, "objective {objective} requires ±1 labels")
            }
            ObjectiveError::InvalidL1Ratio { l1_ratio } => {
                write!(f, "elastic-net l1-ratio must be in [0, 1], got {l1_ratio}")
            }
        }
    }
}

impl std::error::Error for ObjectiveError {}

/// A per-coordinate objective: the scalar update rules (closed-form prox
/// or 1-d Newton/bisection), the primal/dual value oracles, the
/// optimality mapping from a dual iterate, and the duality gap.
///
/// Contract notes shared by all methods:
/// * `dot_y_minus_w_a` is ⟨y − w, a_m⟩ with w the primal shared vector;
///   `dot_wbar_a` is ⟨w̄, ā_n⟩ with w̄ = Aᵀα the dual shared vector.
/// * `*_sq_norm` is the coordinate's squared norm, **already multiplied
///   by σ′** when the caller runs a CoCoA+-safe local solve — objectives
///   must use it wherever the curvature appears so σ′ damping flows
///   through naturally.
/// * `n_lambda` is the problem's `N·λ` (global N on partitions) passed
///   through unchanged so ridge stays bit-identical.
pub trait Objective {
    /// Whether this objective has a coordinate update for `form`.
    fn supports(&self, form: Form) -> bool;

    /// Whether labels must be ±1 (classification objectives).
    fn requires_binary_labels(&self) -> bool {
        false
    }

    /// Primal coordinate update Δβ_m given ⟨y − w, a_m⟩, the current
    /// weight, ‖a_m‖² (σ′-scaled by the caller if applicable), N, λ and Nλ.
    fn primal_delta(
        &self,
        dot_y_minus_w_a: f64,
        beta_m: f64,
        col_sq_norm: f64,
        n: usize,
        lambda: f64,
        n_lambda: f64,
    ) -> f64;

    /// Dual coordinate update Δα_n given ⟨w̄, ā_n⟩, the label, the current
    /// (signed) weight, ‖ā_n‖² (σ′-scaled if applicable), λ and Nλ.
    fn dual_delta(
        &self,
        dot_wbar_a: f64,
        y_n: f64,
        alpha_n: f64,
        row_sq_norm: f64,
        lambda: f64,
        n_lambda: f64,
    ) -> f64;

    /// The primal objective value P(β), recomputing Aβ from scratch.
    fn primal_value(&self, problem: &RidgeProblem, beta: &[f32]) -> f64;

    /// The dual objective value D(α) for objectives with a dual form.
    ///
    /// # Panics
    /// Panics for primal-only objectives (elastic net, lasso).
    fn dual_value(&self, problem: &RidgeProblem, alpha: &[f32]) -> f64;

    /// The primal iterate induced by a dual iterate (the optimality
    /// mapping): β = w̄/λ for ridge, β = w̄/λN for the SDCA duals.
    ///
    /// # Panics
    /// Panics for primal-only objectives (elastic net, lasso).
    fn induced_primal(&self, problem: &RidgeProblem, alpha: &[f32]) -> Vec<f32>;

    /// Per-example loss ℓ(margin) with margin = yₙ⟨āₙ, β⟩ — the value
    /// oracle the distributed line-search fallback evaluates. Only the
    /// classification duals provide it.
    ///
    /// # Panics
    /// Panics for objectives whose loss is not a margin function.
    fn margin_loss(&self, margin: f64) -> f64 {
        let _ = margin;
        panic!("this objective has no margin-loss oracle")
    }

    /// Duality gap of the iterate, recomputed honestly from the weights
    /// alone (never from a possibly-inconsistent shared vector).
    /// Non-negative by weak duality for the non-ridge objectives; ridge
    /// keeps its historical |P − D| definition bit-identical.
    fn duality_gap(&self, problem: &RidgeProblem, form: Form, weights: &[f32]) -> f64;
}

/// Ridge regression — the paper's objective, delegating to the Eq. 2/4
/// closed forms in [`crate::updates`] and the gap in
/// [`RidgeProblem::duality_gap`], so it is bit-identical to the
/// pre-trait code paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct RidgeObjective;

impl Objective for RidgeObjective {
    fn supports(&self, _form: Form) -> bool {
        true
    }

    #[inline]
    fn primal_delta(
        &self,
        dot_y_minus_w_a: f64,
        beta_m: f64,
        col_sq_norm: f64,
        _n: usize,
        _lambda: f64,
        n_lambda: f64,
    ) -> f64 {
        updates::primal_delta(dot_y_minus_w_a, beta_m, col_sq_norm, n_lambda)
    }

    #[inline]
    fn dual_delta(
        &self,
        dot_wbar_a: f64,
        y_n: f64,
        alpha_n: f64,
        row_sq_norm: f64,
        lambda: f64,
        n_lambda: f64,
    ) -> f64 {
        updates::dual_delta(dot_wbar_a, y_n, alpha_n, row_sq_norm, lambda, n_lambda)
    }

    fn primal_value(&self, problem: &RidgeProblem, beta: &[f32]) -> f64 {
        problem.primal_objective(beta)
    }

    fn dual_value(&self, problem: &RidgeProblem, alpha: &[f32]) -> f64 {
        problem.dual_objective(alpha)
    }

    fn induced_primal(&self, problem: &RidgeProblem, alpha: &[f32]) -> Vec<f32> {
        problem.induced_primal(alpha)
    }

    fn duality_gap(&self, problem: &RidgeProblem, form: Form, weights: &[f32]) -> f64 {
        problem.duality_gap(form, weights)
    }
}

/// x·log(x) with the 0·log 0 = 0 convention (entropy terms).
#[inline]
fn xlogx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.ln()
    }
}

/// ln(1 + e^{−m}) computed stably for either sign of m.
#[inline]
fn log1p_exp_neg(margin: f64) -> f64 {
    if margin > 0.0 {
        (-margin).exp().ln_1p()
    } else {
        -margin + margin.exp().ln_1p()
    }
}

/// Shared helpers for the SDCA classification duals (signed-α storage).
fn sdca_induced_primal(problem: &RidgeProblem, alpha: &[f32]) -> Vec<f32> {
    let mut w_bar = problem.dual_shared(alpha);
    dense::scale((1.0 / problem.n_lambda()) as f32, &mut w_bar);
    w_bar
}

/// (1/N)Σ ℓ(yₙ⟨āₙ, β⟩) + (λ/2)‖β‖² — the SDCA duals' primal value, with
/// the margins computed on the shared host pool and the losses summed in
/// example order.
fn sdca_primal_value(obj: &impl Objective, problem: &RidgeProblem, beta: &[f32]) -> f64 {
    let mut loss = 0.0f64;
    let margins = products::row_dots(&scd_sched::global(), problem.csr(), beta);
    for (&dot, &y) in margins.iter().zip(problem.labels()) {
        loss += obj.margin_loss(y as f64 * dot);
    }
    let reg: f64 = beta.iter().map(|&b| (b as f64) * (b as f64)).sum();
    loss / problem.n() as f64 + problem.lambda() / 2.0 * reg
}

/// (1/N)Σ φ(yₙαₙ) − (λ/2)‖β‖² — the SDCA duals' value given the induced
/// β, for the per-example conjugate term `phi`.
fn sdca_dual_value(
    problem: &RidgeProblem,
    alpha: &[f32],
    beta: &[f32],
    phi: impl Fn(f64) -> f64,
) -> f64 {
    let sum: f64 = alpha
        .iter()
        .zip(problem.labels())
        .map(|(&al, &y)| phi((y * al) as f64))
        .sum();
    let reg: f64 = beta.iter().map(|&b| (b as f64) * (b as f64)).sum();
    sum / problem.n() as f64 - problem.lambda() / 2.0 * reg
}

/// P(β(α)) − D(α) clamped at 0, with β(α) = Aᵀα/λN computed once.
fn sdca_duality_gap(
    obj: &impl Objective,
    problem: &RidgeProblem,
    alpha: &[f32],
    phi: impl Fn(f64) -> f64,
) -> f64 {
    let beta = sdca_induced_primal(problem, alpha);
    (sdca_primal_value(obj, problem, &beta) - sdca_dual_value(problem, alpha, &beta, phi)).max(0.0)
}

/// The logistic dual's per-example conjugate term: the entropy of (a, 1 − a).
fn logistic_phi(a: f64) -> f64 {
    -xlogx(a) - xlogx(1.0 - a)
}

/// The hinge dual's per-example conjugate term.
fn svm_phi(a: f64) -> f64 {
    a
}

/// L2-regularized logistic regression, trained on the dual via SDCA with
/// per-coordinate bisection (no closed form exists).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogisticObjective;

impl Objective for LogisticObjective {
    fn supports(&self, form: Form) -> bool {
        form == Form::Dual
    }

    fn requires_binary_labels(&self) -> bool {
        true
    }

    fn primal_delta(&self, _d: f64, _b: f64, _s: f64, _n: usize, _l: f64, _nl: f64) -> f64 {
        panic!("logistic regression has no primal coordinate form")
    }

    fn dual_delta(
        &self,
        dot_wbar_a: f64,
        y_n: f64,
        alpha_n: f64,
        row_sq_norm: f64,
        _lambda: f64,
        n_lambda: f64,
    ) -> f64 {
        if row_sq_norm == 0.0 {
            return 0.0;
        }
        let a_old = y_n * alpha_n;
        let margin = y_n * dot_wbar_a / n_lambda;
        let coupling = row_sq_norm / n_lambda;
        // Root of f(a) = ln((1−a)/a) − margin − (a − a_old)·coupling,
        // strictly decreasing from +∞ (a→0) to −∞ (a→1): unique in (0, 1).
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..LOGISTIC_BISECTION_ITERS {
            let mid = (lo + hi) / 2.0;
            let f = ((1.0 - mid) / mid).ln() - margin - (mid - a_old) * coupling;
            if f > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        y_n * ((lo + hi) / 2.0 - a_old)
    }

    fn primal_value(&self, problem: &RidgeProblem, beta: &[f32]) -> f64 {
        sdca_primal_value(self, problem, beta)
    }

    fn dual_value(&self, problem: &RidgeProblem, alpha: &[f32]) -> f64 {
        let beta = self.induced_primal(problem, alpha);
        sdca_dual_value(problem, alpha, &beta, logistic_phi)
    }

    fn induced_primal(&self, problem: &RidgeProblem, alpha: &[f32]) -> Vec<f32> {
        sdca_induced_primal(problem, alpha)
    }

    fn margin_loss(&self, margin: f64) -> f64 {
        log1p_exp_neg(margin)
    }

    fn duality_gap(&self, problem: &RidgeProblem, _form: Form, weights: &[f32]) -> f64 {
        sdca_duality_gap(self, problem, weights, logistic_phi)
    }
}

/// Hinge-loss SVM, trained on the dual via the SDCA box-clipped closed
/// form (PASSCoDe's update).
#[derive(Debug, Clone, Copy, Default)]
pub struct SvmObjective;

impl Objective for SvmObjective {
    fn supports(&self, form: Form) -> bool {
        form == Form::Dual
    }

    fn requires_binary_labels(&self) -> bool {
        true
    }

    fn primal_delta(&self, _d: f64, _b: f64, _s: f64, _n: usize, _l: f64, _nl: f64) -> f64 {
        panic!("the hinge-loss SVM has no primal coordinate form")
    }

    #[inline]
    fn dual_delta(
        &self,
        dot_wbar_a: f64,
        y_n: f64,
        alpha_n: f64,
        row_sq_norm: f64,
        _lambda: f64,
        n_lambda: f64,
    ) -> f64 {
        if row_sq_norm == 0.0 {
            return 0.0;
        }
        let a_old = y_n * alpha_n;
        let margin = y_n * dot_wbar_a / n_lambda;
        let new = (a_old + (1.0 - margin) * n_lambda / row_sq_norm).clamp(0.0, 1.0);
        y_n * (new - a_old)
    }

    fn primal_value(&self, problem: &RidgeProblem, beta: &[f32]) -> f64 {
        sdca_primal_value(self, problem, beta)
    }

    fn dual_value(&self, problem: &RidgeProblem, alpha: &[f32]) -> f64 {
        let beta = self.induced_primal(problem, alpha);
        sdca_dual_value(problem, alpha, &beta, svm_phi)
    }

    fn induced_primal(&self, problem: &RidgeProblem, alpha: &[f32]) -> Vec<f32> {
        sdca_induced_primal(problem, alpha)
    }

    fn margin_loss(&self, margin: f64) -> f64 {
        (1.0 - margin).max(0.0)
    }

    fn duality_gap(&self, problem: &RidgeProblem, _form: Form, weights: &[f32]) -> f64 {
        sdca_duality_gap(self, problem, weights, svm_phi)
    }
}

/// Elastic net — least squares under λ(ρ‖β‖₁ + (1−ρ)/2·‖β‖²), trained on
/// the primal with the soft-threshold closed form. ρ = 1 is the lasso and
/// every expression below reduces to the pure-ℓ1 one bit for bit there
/// (`x + λ·0` and `λ·1` are exact); ρ = 0 is ridge's Eq. 2.
#[derive(Debug, Clone, Copy)]
pub struct ElasticNetObjective {
    /// ρ ∈ [0, 1]: the ℓ1 share of the penalty.
    pub l1_ratio: f64,
}

impl Objective for ElasticNetObjective {
    fn supports(&self, form: Form) -> bool {
        form == Form::Primal
    }

    #[inline]
    fn primal_delta(
        &self,
        dot_y_minus_w_a: f64,
        beta_m: f64,
        col_sq_norm: f64,
        n: usize,
        lambda: f64,
        _n_lambda: f64,
    ) -> f64 {
        let n = n as f64;
        let curvature = col_sq_norm / n;
        let denom = curvature + lambda * (1.0 - self.l1_ratio);
        if denom == 0.0 {
            // Empty column under a pure ℓ1 penalty: it alone fixes the
            // weight at 0.
            return -beta_m;
        }
        let rho_dot = dot_y_minus_w_a / n + curvature * beta_m;
        soft_threshold(rho_dot, lambda * self.l1_ratio) / denom - beta_m
    }

    fn dual_delta(&self, _d: f64, _y: f64, _a: f64, _s: f64, _l: f64, _nl: f64) -> f64 {
        panic!("the elastic net has no dual coordinate form")
    }

    fn primal_value(&self, problem: &RidgeProblem, beta: &[f32]) -> f64 {
        self.primal_value_given_shared(problem, beta, &problem.primal_shared(beta))
    }

    fn dual_value(&self, _problem: &RidgeProblem, _alpha: &[f32]) -> f64 {
        panic!("the elastic net maintains no dual iterate")
    }

    fn induced_primal(&self, _problem: &RidgeProblem, _alpha: &[f32]) -> Vec<f32> {
        panic!("the elastic net maintains no dual iterate")
    }

    fn duality_gap(&self, problem: &RidgeProblem, _form: Form, weights: &[f32]) -> f64 {
        // Fenchel dual of min (1/2N)‖Aβ − y‖² + g(β) at the scaled
        // residual θ = (y − Aβ)/N: D(θ) = ⟨θ, y⟩ − (N/2)‖θ‖² − g*(Aᵀθ).
        let n = problem.n() as f64;
        let l1 = problem.lambda() * self.l1_ratio;
        let l2 = problem.lambda() * (1.0 - self.l1_ratio);
        let w = problem.primal_shared(weights);
        let theta: Vec<f32> = problem
            .labels()
            .iter()
            .zip(&w)
            .map(|(&y, &wi)| ((y as f64 - wi as f64) / n) as f32)
            .collect();
        let corr = problem.dual_shared(&theta);
        let dot_y = dense::dot(&theta, problem.labels());
        let sq = dense::squared_norm(&theta);
        let dual = if l2 > 0.0 {
            // g* is finite everywhere: Σ S(|aₘᵀθ|, λρ)² / (2λ(1−ρ)).
            let conj: f64 = corr
                .iter()
                .map(|&v| soft_threshold((v as f64).abs(), l1).powi(2))
                .sum();
            dot_y - n / 2.0 * sq - conj / (2.0 * l2)
        } else {
            // Pure ℓ1: g* is the indicator of ‖Aᵀθ‖∞ ≤ λ. Scale the
            // residual point into the feasible set
            // (s = min(1, λ/‖Aᵀθ‖∞)) so weak duality makes the gap ≥ 0.
            let inf_norm = corr
                .iter()
                .fold(0.0f64, |acc, &v| acc.max((v as f64).abs()));
            let s = if inf_norm > l1 { l1 / inf_norm } else { 1.0 };
            s * dot_y - s * s * n / 2.0 * sq
        };
        (self.primal_value_given_shared(problem, weights, &w) - dual).max(0.0)
    }
}

impl ElasticNetObjective {
    /// F(β) when the shared vector w = Aβ is already available.
    fn primal_value_given_shared(&self, problem: &RidgeProblem, beta: &[f32], w: &[f32]) -> f64 {
        let fit = dense::squared_distance(w, problem.labels());
        let l1: f64 = beta.iter().map(|&b| (b as f64).abs()).sum();
        let l2 = dense::squared_norm(beta);
        let rho = self.l1_ratio;
        fit / (2.0 * problem.n() as f64) + problem.lambda() * (rho * l1 + (1.0 - rho) / 2.0 * l2)
    }
}

/// The objective registry: a `Copy` tag engines store and dispatch on.
/// Defaults to [`ObjectiveKind::Ridge`], so every existing constructor
/// keeps its exact pre-trait behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ObjectiveKind {
    /// Ridge regression (the paper's objective; primal and dual forms).
    #[default]
    Ridge,
    /// L2-regularized logistic regression (dual form).
    Logistic,
    /// Hinge-loss SVM (dual form).
    Svm,
    /// Lasso (primal form): the elastic net at ρ = 1.
    Lasso,
    /// Elastic net (primal form).
    ElasticNet {
        /// ρ ∈ [0, 1]: the ℓ1 share of the penalty
        /// ([`ObjectiveKind::validate`] rejects anything else).
        l1_ratio: f64,
    },
}

impl ObjectiveKind {
    /// Every registered objective, in CLI listing order; the elastic net
    /// is listed at the mix [`ObjectiveKind::parse`] gives it.
    pub const ALL: [ObjectiveKind; 5] = [
        ObjectiveKind::Ridge,
        ObjectiveKind::Logistic,
        ObjectiveKind::Svm,
        ObjectiveKind::Lasso,
        ObjectiveKind::ElasticNet { l1_ratio: 0.5 },
    ];

    /// Parse a CLI value; `elastic-net` gets the even mix ρ = 0.5.
    pub fn parse(s: &str) -> Result<ObjectiveKind, String> {
        ObjectiveKind::ALL
            .into_iter()
            .find(|kind| kind.label() == s)
            .ok_or_else(|| {
                format!("unknown objective {s:?} (ridge|logistic|svm|lasso|elastic-net)")
            })
    }

    /// Run `f` on the trait implementation behind this tag.
    fn with<R>(self, f: impl FnOnce(&dyn Objective) -> R) -> R {
        match self {
            ObjectiveKind::Ridge => f(&RidgeObjective),
            ObjectiveKind::Logistic => f(&LogisticObjective),
            ObjectiveKind::Svm => f(&SvmObjective),
            ObjectiveKind::Lasso => f(&ElasticNetObjective { l1_ratio: 1.0 }),
            ObjectiveKind::ElasticNet { l1_ratio } => f(&ElasticNetObjective { l1_ratio }),
        }
    }

    /// Short lowercase name (CLI value, model header, figure legends).
    pub fn label(self) -> &'static str {
        match self {
            ObjectiveKind::Ridge => "ridge",
            ObjectiveKind::Logistic => "logistic",
            ObjectiveKind::Svm => "svm",
            ObjectiveKind::Lasso => "lasso",
            ObjectiveKind::ElasticNet { .. } => "elastic-net",
        }
    }

    /// Whether this objective has a coordinate update for `form`.
    pub fn supports(self, form: Form) -> bool {
        self.with(|obj| obj.supports(form))
    }

    /// Whether labels must be ±1 (the classification duals).
    pub fn requires_binary_labels(self) -> bool {
        self.with(|obj| obj.requires_binary_labels())
    }

    /// The form a solver should default to for this objective.
    pub fn default_form(self) -> Form {
        match self {
            ObjectiveKind::Ridge | ObjectiveKind::Lasso | ObjectiveKind::ElasticNet { .. } => {
                Form::Primal
            }
            ObjectiveKind::Logistic | ObjectiveKind::Svm => Form::Dual,
        }
    }

    /// Check the objective against a problem and form: the elastic-net
    /// mix, form support, and the ±1-label requirement of the
    /// classification duals.
    pub fn validate(self, problem: &RidgeProblem, form: Form) -> Result<(), ObjectiveError> {
        if let ObjectiveKind::ElasticNet { l1_ratio } = self {
            if !(0.0..=1.0).contains(&l1_ratio) {
                return Err(ObjectiveError::InvalidL1Ratio { l1_ratio });
            }
        }
        if !self.supports(form) {
            return Err(ObjectiveError::UnsupportedForm {
                objective: self.label(),
                form,
            });
        }
        if self.requires_binary_labels()
            && !problem.labels().iter().all(|&y| y == 1.0 || y == -1.0)
        {
            return Err(ObjectiveError::NonBinaryLabels {
                objective: self.label(),
            });
        }
        Ok(())
    }

    /// Statically-dispatched [`Objective::primal_delta`] (the hot path).
    #[inline]
    pub fn primal_delta(
        self,
        dot_y_minus_w_a: f64,
        beta_m: f64,
        col_sq_norm: f64,
        n: usize,
        lambda: f64,
        n_lambda: f64,
    ) -> f64 {
        match self {
            ObjectiveKind::Ridge => RidgeObjective.primal_delta(
                dot_y_minus_w_a,
                beta_m,
                col_sq_norm,
                n,
                lambda,
                n_lambda,
            ),
            ObjectiveKind::Lasso => ElasticNetObjective { l1_ratio: 1.0 }.primal_delta(
                dot_y_minus_w_a,
                beta_m,
                col_sq_norm,
                n,
                lambda,
                n_lambda,
            ),
            ObjectiveKind::ElasticNet { l1_ratio } => ElasticNetObjective { l1_ratio }
                .primal_delta(dot_y_minus_w_a, beta_m, col_sq_norm, n, lambda, n_lambda),
            other => other.with(|obj| {
                obj.primal_delta(dot_y_minus_w_a, beta_m, col_sq_norm, n, lambda, n_lambda)
            }),
        }
    }

    /// Statically-dispatched [`Objective::dual_delta`] (the hot path).
    #[inline]
    pub fn dual_delta(
        self,
        dot_wbar_a: f64,
        y_n: f64,
        alpha_n: f64,
        row_sq_norm: f64,
        lambda: f64,
        n_lambda: f64,
    ) -> f64 {
        match self {
            ObjectiveKind::Ridge => {
                RidgeObjective.dual_delta(dot_wbar_a, y_n, alpha_n, row_sq_norm, lambda, n_lambda)
            }
            ObjectiveKind::Svm => {
                SvmObjective.dual_delta(dot_wbar_a, y_n, alpha_n, row_sq_norm, lambda, n_lambda)
            }
            other => other.with(|obj| {
                obj.dual_delta(dot_wbar_a, y_n, alpha_n, row_sq_norm, lambda, n_lambda)
            }),
        }
    }

    /// [`Objective::primal_value`].
    pub fn primal_value(self, problem: &RidgeProblem, beta: &[f32]) -> f64 {
        self.with(|obj| obj.primal_value(problem, beta))
    }

    /// [`Objective::dual_value`].
    pub fn dual_value(self, problem: &RidgeProblem, alpha: &[f32]) -> f64 {
        self.with(|obj| obj.dual_value(problem, alpha))
    }

    /// [`Objective::induced_primal`].
    pub fn induced_primal(self, problem: &RidgeProblem, alpha: &[f32]) -> Vec<f32> {
        self.with(|obj| obj.induced_primal(problem, alpha))
    }

    /// [`Objective::margin_loss`].
    pub fn margin_loss(self, margin: f64) -> f64 {
        self.with(|obj| obj.margin_loss(margin))
    }

    /// [`Objective::duality_gap`].
    pub fn duality_gap(self, problem: &RidgeProblem, form: Form, weights: &[f32]) -> f64 {
        self.with(|obj| obj.duality_gap(problem, form, weights))
    }
}

impl std::fmt::Display for ObjectiveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::updates;
    use scd_datasets::webspam_like;

    #[test]
    fn parse_label_roundtrip() {
        for kind in ObjectiveKind::ALL {
            assert_eq!(ObjectiveKind::parse(kind.label()), Ok(kind));
        }
        assert!(ObjectiveKind::parse("huber").unwrap_err().contains("lasso|elastic-net"));
        assert_eq!(ObjectiveKind::default(), ObjectiveKind::Ridge);
        assert_eq!(format!("{}", ObjectiveKind::Svm), "svm");
    }

    #[test]
    fn form_support_matrix() {
        use Form::*;
        assert!(ObjectiveKind::Ridge.supports(Primal) && ObjectiveKind::Ridge.supports(Dual));
        assert!(!ObjectiveKind::Logistic.supports(Primal) && ObjectiveKind::Logistic.supports(Dual));
        assert!(!ObjectiveKind::Svm.supports(Primal) && ObjectiveKind::Svm.supports(Dual));
        assert!(ObjectiveKind::Lasso.supports(Primal) && !ObjectiveKind::Lasso.supports(Dual));
        let en = ObjectiveKind::ElasticNet { l1_ratio: 0.3 };
        assert!(en.supports(Primal) && !en.supports(Dual));
        assert_eq!(en.default_form(), Primal);
        assert_eq!(ObjectiveKind::Ridge.default_form(), Primal);
        assert_eq!(ObjectiveKind::Svm.default_form(), Dual);
        assert_eq!(ObjectiveKind::Logistic.default_form(), Dual);
        assert_eq!(ObjectiveKind::Lasso.default_form(), Primal);
    }

    #[test]
    fn ridge_deltas_are_bitwise_the_legacy_closed_forms() {
        let cases = [
            (6.0, 0.0, 4.0, 0.5),
            (2.0 / 3.0, 4.0 / 3.0, 4.0, 0.5),
            (1e30, -1e20, 1e-30, 1e-6),
            (-3.75, 0.125, 17.0, 3e-4),
        ];
        for (dot, b, sq, nl) in cases {
            assert_eq!(
                ObjectiveKind::Ridge
                    .primal_delta(dot, b, sq, 123, nl / 123.0, nl)
                    .to_bits(),
                updates::primal_delta(dot, b, sq, nl).to_bits()
            );
            assert_eq!(
                ObjectiveKind::Ridge
                    .dual_delta(dot, 1.0, b, sq, 1e-3, nl)
                    .to_bits(),
                updates::dual_delta(dot, 1.0, b, sq, 1e-3, nl).to_bits()
            );
        }
    }

    #[test]
    fn validation_catches_bad_pairings() {
        let p = RidgeProblem::from_labelled(&webspam_like(30, 20, 4, 1), 1e-2).unwrap();
        assert!(ObjectiveKind::Svm.validate(&p, Form::Dual).is_ok());
        assert!(matches!(
            ObjectiveKind::Svm.validate(&p, Form::Primal),
            Err(ObjectiveError::UnsupportedForm { .. })
        ));
        for primal_only in [ObjectiveKind::Lasso, ObjectiveKind::ElasticNet { l1_ratio: 0.5 }] {
            assert!(matches!(
                primal_only.validate(&p, Form::Dual),
                Err(ObjectiveError::UnsupportedForm { .. })
            ));
        }
        for l1_ratio in [0.0, 1.0] {
            assert!(ObjectiveKind::ElasticNet { l1_ratio }.validate(&p, Form::Primal).is_ok());
        }
        for l1_ratio in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = ObjectiveKind::ElasticNet { l1_ratio }
                .validate(&p, Form::Primal)
                .unwrap_err();
            assert!(matches!(err, ObjectiveError::InvalidL1Ratio { .. }));
            assert!(err.to_string().contains("[0, 1]"), "{err}");
        }
        let reg =
            RidgeProblem::from_labelled(&scd_datasets::dense_gaussian(10, 4, 1), 0.1).unwrap();
        assert!(matches!(
            ObjectiveKind::Logistic.validate(&reg, Form::Dual),
            Err(ObjectiveError::NonBinaryLabels { .. })
        ));
        assert!(ObjectiveKind::Lasso.validate(&reg, Form::Primal).is_ok());
        let err = ObjectiveKind::Svm.validate(&reg, Form::Dual).unwrap_err();
        assert!(err.to_string().contains("±1"));
    }

    #[test]
    fn svm_update_is_boxed_and_stationary_at_optimum() {
        // From a=0 with margin < 1 the update moves in; re-applying at the
        // unconstrained optimum is a fixed point.
        let (y, sq, nl) = (1.0, 4.0, 0.5);
        let d = ObjectiveKind::Svm.dual_delta(0.0, y, 0.0, sq, 1e-3, nl);
        assert!(d > 0.0 && d <= 1.0);
        // margin = 1 exactly: no movement.
        let d = ObjectiveKind::Svm.dual_delta(nl, y, 0.5, sq, 1e-3, nl);
        assert!(d.abs() < 1e-15);
        // Huge positive margin: clamps to the 0 box edge from a = 0.3.
        let d = ObjectiveKind::Svm.dual_delta(100.0 * nl, y, 0.3, sq, 1e-3, nl);
        assert!((d + 0.3).abs() < 1e-12);
        // Empty row is skipped.
        assert_eq!(ObjectiveKind::Svm.dual_delta(1.0, y, 0.3, 0.0, 1e-3, nl), 0.0);
    }

    #[test]
    fn logistic_update_satisfies_the_optimality_condition() {
        let (y, sq, nl) = (-1.0f64, 2.5, 0.8);
        let alpha = -0.25; // a_old = y·α = 0.25
        let dot = 0.6;
        let d = ObjectiveKind::Logistic.dual_delta(dot, y, alpha, sq, 1e-3, nl);
        let a_new = y * (alpha + d);
        assert!(a_new > 0.0 && a_new < 1.0, "interior iterate");
        let margin = y * dot / nl;
        let f = ((1.0 - a_new) / a_new).ln() - margin - (a_new - 0.25) * sq / nl;
        assert!(f.abs() < 1e-9, "optimality residual {f}");
    }

    #[test]
    fn soft_threshold_cases() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(1.0, 1.0), 0.0);
    }

    #[test]
    fn lasso_update_soft_thresholds() {
        // Strong correlation: moves toward the thresholded target.
        let d = ObjectiveKind::Lasso.primal_delta(6.0, 0.0, 4.0, 1, 0.5, 0.5);
        // rho_dot = 6, S(6, 0.5)/4 = 5.5/4.
        assert!((d - 5.5 / 4.0).abs() < 1e-12);
        // Weak correlation below the threshold: zeroes the weight.
        let d = ObjectiveKind::Lasso.primal_delta(0.3, 0.2, 1.0, 1, 0.6, 0.6);
        assert!((d + 0.2).abs() < 1e-12, "rho_dot 0.5 < λ ⇒ β → 0, got {d}");
        // Empty column zeroes in one step.
        assert_eq!(ObjectiveKind::Lasso.primal_delta(0.0, 5.0, 0.0, 7, 0.1, 0.7), -5.0);
    }

    #[test]
    fn lasso_gap_zero_at_zero_iterate_when_lambda_dominates() {
        // λ ≥ ‖Aᵀy‖∞/N makes β = 0 optimal: the gap must be exactly 0.
        let p = RidgeProblem::from_labelled(&webspam_like(25, 15, 4, 3), 1e6).unwrap();
        let gap = ObjectiveKind::Lasso.duality_gap(&p, Form::Primal, &vec![0.0; p.m()]);
        assert!(gap.abs() < 1e-9, "gap {gap}");
        // Small λ: zero is suboptimal, the gap is strictly positive.
        let p = RidgeProblem::from_labelled(&webspam_like(25, 15, 4, 3), 1e-3).unwrap();
        let gap = ObjectiveKind::Lasso.duality_gap(&p, Form::Primal, &vec![0.0; p.m()]);
        assert!(gap > 1e-6, "gap {gap}");
    }

    #[test]
    fn margin_losses() {
        assert_eq!(ObjectiveKind::Svm.margin_loss(2.0), 0.0);
        assert_eq!(ObjectiveKind::Svm.margin_loss(-1.0), 2.0);
        let l = ObjectiveKind::Logistic.margin_loss(0.0);
        assert!((l - 2f64.ln()).abs() < 1e-15);
        // Stable for large |margin|.
        assert!(ObjectiveKind::Logistic.margin_loss(800.0).abs() < 1e-12);
        assert!((ObjectiveKind::Logistic.margin_loss(-800.0) - 800.0).abs() < 1e-9);
        // 0·log 0 = 0 in the logistic dual's entropy.
        assert_eq!(xlogx(0.0), 0.0);
        assert!((xlogx(0.5) - 0.5 * 0.5f64.ln()).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "no dual coordinate form")]
    fn lasso_dual_delta_panics() {
        let _ = ObjectiveKind::Lasso.dual_delta(0.0, 1.0, 0.0, 1.0, 0.1, 0.1);
    }

    #[test]
    #[should_panic(expected = "no primal coordinate form")]
    fn svm_primal_delta_panics() {
        let _ = ObjectiveKind::Svm.primal_delta(0.0, 0.0, 1.0, 1, 0.1, 0.1);
    }
}
