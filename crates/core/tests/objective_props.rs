//! Property tests of the Objective layer: every coordinate update is the
//! exact optimizer of its 1-d subproblem, weak duality holds for random
//! feasible dual iterates, ridge through the trait stays bit-identical to
//! the legacy closed forms, every objective actually converges under the
//! sequential and SySCD engines, and the classification duals and the
//! elastic net behave as their standalone solvers did over whole epochs.

use proptest::prelude::*;
use scd_core::{
    exact_primal, Form, ObjectiveKind, RidgeProblem, SequentialScd, Solver, SyscdScd, TrainedModel,
};
use scd_datasets::{dense_gaussian, dense_random, webspam_like};
use scd_sparse::dense;

/// The SVM coordinate subproblem (signed-α convention, a = y·α ∈ [0, 1]):
/// ψ(a) = a(1 − margin) − (a − a_old)²·coupling/2, maximized by the
/// box-clipped closed form.
fn svm_psi(a: f64, a_old: f64, margin: f64, coupling: f64) -> f64 {
    a * (1.0 - margin) - (a - a_old) * (a - a_old) * coupling / 2.0
}

/// The logistic coordinate subproblem adds the entropy of (a, 1 − a).
fn logistic_psi(a: f64, a_old: f64, margin: f64, coupling: f64) -> f64 {
    let xlogx = |x: f64| if x <= 0.0 { 0.0 } else { x * x.ln() };
    -xlogx(a) - xlogx(1.0 - a) - a * margin - (a - a_old) * (a - a_old) * coupling / 2.0
}

/// The lasso coordinate subproblem: f(v) = denom·v²/2 − ρ·v + λ|v|,
/// minimized by the soft threshold.
fn lasso_f(v: f64, denom: f64, rho_dot: f64, lambda: f64) -> f64 {
    denom * v * v / 2.0 - rho_dot * v + lambda * v.abs()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The box-clipped SVM update beats every candidate in [0, 1] on its
    /// own subproblem.
    #[test]
    fn svm_delta_maximizes_the_coordinate_subproblem(
        margin in -3.0f64..3.0,
        a_old in 0.0f64..1.0,
        sq in 0.01f64..10.0,
        nl in 0.1f64..5.0,
        y_sel in 0usize..2,
    ) {
        let y = if y_sel == 0 { 1.0 } else { -1.0 };
        let alpha = y * a_old;
        let dot = y * margin * nl; // margin = y·⟨w̄, ā⟩/Nλ inverted
        let d = ObjectiveKind::Svm.dual_delta(dot, y, alpha, sq, 1e-3, nl);
        let a_new = y * (alpha + d);
        prop_assert!((-1e-12..=1.0 + 1e-12).contains(&a_new), "a_new {a_new} outside the box");
        let coupling = sq / nl;
        let best = svm_psi(a_new, a_old, margin, coupling);
        for i in 0..=64 {
            let c = i as f64 / 64.0;
            prop_assert!(
                best >= svm_psi(c, a_old, margin, coupling) - 1e-9,
                "candidate a = {c} beats the update a = {a_new}"
            );
        }
    }

    /// The logistic bisection lands on the unique interior maximizer of
    /// the entropy-regularized subproblem.
    #[test]
    fn logistic_delta_maximizes_the_coordinate_subproblem(
        margin in -3.0f64..3.0,
        a_old in 0.0f64..1.0,
        sq in 0.01f64..10.0,
        nl in 0.1f64..5.0,
        y_sel in 0usize..2,
    ) {
        let y = if y_sel == 0 { 1.0 } else { -1.0 };
        let alpha = y * a_old;
        let dot = y * margin * nl;
        let d = ObjectiveKind::Logistic.dual_delta(dot, y, alpha, sq, 1e-3, nl);
        let a_new = y * (alpha + d);
        prop_assert!(a_new > 0.0 && a_new < 1.0, "logistic iterate must stay interior");
        let coupling = sq / nl;
        let best = logistic_psi(a_new, a_old, margin, coupling);
        for i in 1..64 {
            let c = i as f64 / 64.0;
            prop_assert!(
                best >= logistic_psi(c, a_old, margin, coupling) - 1e-9,
                "candidate a = {c} beats the update a = {a_new}"
            );
        }
    }

    /// The lasso soft-threshold update beats every candidate on the
    /// ℓ1-composite subproblem, including v = 0 (the kink).
    #[test]
    fn lasso_delta_minimizes_the_coordinate_subproblem(
        dot in -5.0f64..5.0,
        beta in -2.0f64..2.0,
        sq in 0.01f64..10.0,
        n in 1usize..50,
        lambda in 0.001f64..1.0,
    ) {
        let d = ObjectiveKind::Lasso.primal_delta(dot, beta, sq, n, lambda, lambda * n as f64);
        let v_new = beta + d;
        let denom = sq / n as f64;
        let rho_dot = dot / n as f64 + denom * beta;
        let best = lasso_f(v_new, denom, rho_dot, lambda);
        let span = v_new.abs() + 3.0;
        for i in 0..=128 {
            let c = -span + 2.0 * span * i as f64 / 128.0;
            prop_assert!(
                best <= lasso_f(c, denom, rho_dot, lambda) + 1e-9,
                "candidate v = {c} beats the update v = {v_new}"
            );
        }
        prop_assert!(best <= lasso_f(0.0, denom, rho_dot, lambda) + 1e-12);
    }

    /// Weak duality: D(α) ≤ P(β(α)) for any feasible dual point of the
    /// classification objectives, so their gap is honestly non-negative
    /// (not just clamped to zero).
    #[test]
    fn weak_duality_holds_for_random_feasible_duals(seed in 0u64..500) {
        let problem = RidgeProblem::from_labelled(&dense_random(30, 6, seed), 1e-2).unwrap();
        // a ∈ [0, 1] per example, stored signed as α = y·a.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let alpha: Vec<f32> = problem
            .labels()
            .iter()
            .map(|&y| y * next() as f32)
            .collect();
        for kind in [ObjectiveKind::Svm, ObjectiveKind::Logistic] {
            let beta = kind.induced_primal(&problem, &alpha);
            let p = kind.primal_value(&problem, &beta);
            let d = kind.dual_value(&problem, &alpha);
            prop_assert!(d <= p + 1e-9, "{kind}: D = {d} exceeds P = {p}");
            prop_assert!(kind.duality_gap(&problem, Form::Dual, &alpha) >= 0.0);
        }
    }
}

/// Ridge routed through the Objective trait must replay the legacy
/// engines bit for bit, on both forms and both engines.
#[test]
fn ridge_through_the_trait_is_bit_identical() {
    let problem = RidgeProblem::from_labelled(&dense_random(60, 10, 11), 1e-3).unwrap();
    for form in [Form::Primal, Form::Dual] {
        let mut legacy = match form {
            Form::Primal => SequentialScd::primal(&problem, 7),
            Form::Dual => SequentialScd::dual(&problem, 7),
        };
        let mut traited = match form {
            Form::Primal => SequentialScd::primal(&problem, 7),
            Form::Dual => SequentialScd::dual(&problem, 7),
        }
        .with_objective(ObjectiveKind::Ridge);
        let mut legacy_sys = SyscdScd::new(&problem, form, 4, 7);
        let mut traited_sys =
            SyscdScd::new(&problem, form, 4, 7).with_objective(ObjectiveKind::Ridge);
        for _ in 0..5 {
            legacy.epoch(&problem);
            traited.epoch(&problem);
            legacy_sys.epoch(&problem);
            traited_sys.epoch(&problem);
        }
        assert_eq!(legacy.weights(), traited.weights(), "{form:?} sequential");
        assert_eq!(legacy_sys.weights(), traited_sys.weights(), "{form:?} syscd");
    }
}

/// Every objective makes real progress on its natural form under
/// both the sequential engine and the SySCD CPU backend: the gap never
/// increases, shrinks strictly while above the float floor, and at least
/// halves over ten epochs.
#[test]
fn every_objective_converges_on_seq_and_syscd() {
    // λ = 5e-2 keeps the problem well-conditioned enough that every
    // objective's gap decreases strictly per epoch (the hinge duals
    // bounce under weaker regularization — the dual ascends monotonically
    // but the induced primal need not).
    let problem = RidgeProblem::from_labelled(&dense_random(200, 40, 7), 5e-2).unwrap();
    for kind in ObjectiveKind::ALL {
        let form = kind.default_form();
        let gaps_of = |mut s: Box<dyn Solver>| -> Vec<f64> {
            let mut gaps = vec![s.duality_gap(&problem)];
            for _ in 0..10 {
                s.epoch(&problem);
                gaps.push(s.duality_gap(&problem));
            }
            gaps
        };
        let seq: Box<dyn Solver> = Box::new(
            match form {
                Form::Primal => SequentialScd::primal(&problem, 3),
                Form::Dual => SequentialScd::dual(&problem, 3),
            }
            .with_objective(kind),
        );
        let sys: Box<dyn Solver> =
            Box::new(SyscdScd::new(&problem, form, 4, 3).with_objective(kind));
        for (engine, gaps) in [("seq", gaps_of(seq)), ("syscd", gaps_of(sys))] {
            assert!(
                gaps[0].is_finite() && gaps[0] > 0.0,
                "{kind}/{engine}: bad initial gap {}",
                gaps[0]
            );
            for w in gaps.windows(2) {
                assert!(w[1] >= 0.0, "{kind}/{engine}: negative gap {}", w[1]);
                assert!(
                    w[1] < w[0] || w[1] <= 1e-10,
                    "{kind}/{engine}: gap stalled above the floor: {} -> {}",
                    w[0],
                    w[1]
                );
            }
            let last = gaps[gaps.len() - 1];
            assert!(
                last < 0.5 * gaps[0],
                "{kind}/{engine}: gap {last} did not halve from {}",
                gaps[0]
            );
        }
    }
}

/// The SDCA classification duals over whole epochs: a = y·α never leaves
/// the box (SVM) or its strict interior (logistic), the engine's shared
/// vector is Aᵀα, successive epochs move the iterate less, and the
/// induced model classifies its training data.
#[test]
fn classification_duals_stay_feasible_and_learn_to_classify() {
    for (kind, seed) in [(ObjectiveKind::Svm, 21), (ObjectiveKind::Logistic, 31)] {
        let p = RidgeProblem::from_labelled(&webspam_like(150, 100, 10, seed), 1e-2).unwrap();
        let mut solver = SequentialScd::dual(&p, 1).with_objective(kind);
        let mut moves = Vec::new();
        for _ in 0..50 {
            let before = solver.weights();
            solver.epoch(&p);
            let alpha = solver.weights();
            for (&al, &y) in alpha.iter().zip(p.labels()) {
                let a = y * al;
                match kind {
                    ObjectiveKind::Svm => assert!((0.0..=1.0).contains(&a), "svm a = {a}"),
                    _ => assert!(a > 0.0 && a < 1.0, "logistic a = {a}"),
                }
            }
            moves.push(dense::max_abs_diff(&alpha, &before));
        }
        let from_scratch = p.csr().matvec_t(&solver.weights()).unwrap();
        assert!(dense::max_abs_diff(&solver.shared_vector(), &from_scratch) < 1e-3, "{kind}");
        assert!(moves[2] < moves[1], "{kind}: updates must contract: {moves:?}");
        let model = TrainedModel::from_weights(&p, kind, Form::Dual, solver.weights());
        let acc = model.accuracy(p.csr(), p.labels());
        assert!(acc > 0.9, "{kind}: train accuracy {acc}");
    }
}

fn elastic_net_weights(p: &RidgeProblem, l1_ratio: f64, seed: u64, epochs: usize) -> Vec<f32> {
    let mut s =
        SequentialScd::primal(p, seed).with_objective(ObjectiveKind::ElasticNet { l1_ratio });
    for _ in 0..epochs {
        s.epoch(p);
    }
    s.weights()
}

fn zeros(weights: &[f32]) -> usize {
    weights.iter().filter(|&&b| b == 0.0).count()
}

/// Exact coordinate descent never increases the elastic-net objective.
#[test]
fn elastic_net_objective_decreases_monotonically() {
    let p = RidgeProblem::from_labelled(&dense_gaussian(40, 12, 9), 0.02).unwrap();
    let kind = ObjectiveKind::ElasticNet { l1_ratio: 0.5 };
    let mut s = SequentialScd::primal(&p, 1).with_objective(kind);
    let mut prev = kind.primal_value(&p, &s.weights());
    for _ in 0..30 {
        s.epoch(&p);
        let cur = kind.primal_value(&p, &s.weights());
        // Allow f32 shared-vector rounding noise.
        assert!(cur <= prev + 1e-6 * prev.abs().max(1e-9), "{prev} -> {cur}");
        prev = cur;
    }
}

/// ρ = 1 is the lasso, bit for bit: iterates on both CPU engines and the
/// duality gap.
#[test]
fn elastic_net_at_rho_one_is_lasso_bitwise() {
    let p = RidgeProblem::from_labelled(&dense_random(60, 10, 11), 1e-2).unwrap();
    let corner = ObjectiveKind::ElasticNet { l1_ratio: 1.0 };
    let mut lasso = SequentialScd::primal(&p, 7).with_objective(ObjectiveKind::Lasso);
    let mut en = SequentialScd::primal(&p, 7).with_objective(corner);
    let mut lasso_sys =
        SyscdScd::new(&p, Form::Primal, 4, 7).with_objective(ObjectiveKind::Lasso);
    let mut en_sys = SyscdScd::new(&p, Form::Primal, 4, 7).with_objective(corner);
    for _ in 0..5 {
        lasso.epoch(&p);
        en.epoch(&p);
        lasso_sys.epoch(&p);
        en_sys.epoch(&p);
        assert_eq!(lasso.weights(), en.weights());
        assert_eq!(lasso_sys.weights(), en_sys.weights());
        assert_eq!(lasso.duality_gap(&p).to_bits(), en.duality_gap(&p).to_bits());
    }
}

/// ρ = 0 is ridge: the iterate converges to the closed-form solution.
#[test]
fn elastic_net_at_rho_zero_solves_ridge() {
    let p = RidgeProblem::from_labelled(&dense_gaussian(40, 12, 9), 0.05).unwrap();
    let beta = elastic_net_weights(&p, 0.0, 3, 200);
    assert!(dense::max_abs_diff(&beta, &exact_primal(&p)) < 1e-3);
}

/// The ℓ1 term buys exact zeros: more of them than ridge leaves, and all
/// of them once λρ exceeds max|⟨y, aₘ⟩|/N.
#[test]
fn elastic_net_l1_term_sparsifies() {
    let p = RidgeProblem::from_labelled(&dense_gaussian(40, 12, 9), 0.5).unwrap();
    let ridge_zeros = zeros(&elastic_net_weights(&p, 0.0, 2, 100));
    let lasso_zeros = zeros(&elastic_net_weights(&p, 1.0, 2, 100));
    assert!(lasso_zeros > ridge_zeros, "lasso {lasso_zeros} vs ridge {ridge_zeros} zeros");

    let heavy = RidgeProblem::from_labelled(&dense_gaussian(40, 12, 9), 1e6).unwrap();
    assert_eq!(zeros(&elastic_net_weights(&heavy, 1.0, 4, 5)), heavy.m());
}
