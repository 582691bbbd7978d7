//! The Objective layer through the distributed drivers — the acceptance
//! surface of the pluggable-objective change:
//!
//! * every objective converges (strictly decreasing duality gap over
//!   ten epochs) under the synchronous driver with K=4 workers shipping
//!   topk-ef:64 deltas;
//! * τ=0 bounded-staleness rounds stay bit-identical to the synchronous
//!   barrier for the non-ridge objectives too;
//! * ridge through an objective-aware config replays the legacy driver
//!   bit for bit.

use scd_core::{Form, ObjectiveKind, RidgeProblem, Solver};
use scd_datasets::dense_random;
use scd_distributed::{
    Aggregation, AsyncScd, DistributedConfig, DistributedScd, Staleness, WireFormat,
};

/// Well-conditioned two-class problem: λ large enough that every
/// objective's gap shrinks strictly per epoch (the hinge duals bounce
/// under weak regularization).
fn full_problem() -> RidgeProblem {
    RidgeProblem::from_labelled(&dense_random(200, 40, 7), 5e-2).unwrap()
}

fn config_for(kind: ObjectiveKind) -> DistributedConfig {
    DistributedConfig::new(4, kind.default_form())
        .with_objective(kind)
        .with_wire(WireFormat::TopKEf(64))
        .with_seed(5)
}

#[test]
fn every_objective_converges_distributed_k4_topk_ef() {
    let full = full_problem();
    for kind in ObjectiveKind::ALL {
        let mut dist = DistributedScd::new(&full, &config_for(kind)).unwrap();
        let mut gaps = vec![dist.duality_gap(&full)];
        for _ in 0..10 {
            dist.epoch(&full);
            gaps.push(dist.duality_gap(&full));
        }
        assert!(
            gaps[0].is_finite() && gaps[0] > 0.0,
            "{kind}: bad initial gap {}",
            gaps[0]
        );
        for w in gaps.windows(2) {
            assert!(w[1] >= 0.0, "{kind}: negative gap {}", w[1]);
            assert!(
                w[1] < w[0] || w[1] <= 1e-10,
                "{kind}: gap stalled above the floor: {} -> {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
fn adaptive_gamma_stays_safe_for_the_margin_duals() {
    // Adaptive aggregation on svm/logistic routes through the value-oracle
    // line search (Eq. 7 is ridge-only); whatever it returns must be a
    // positive finite step and the run must still make progress.
    let full = full_problem();
    for kind in [ObjectiveKind::Svm, ObjectiveKind::Logistic] {
        let config = config_for(kind).with_aggregation(Aggregation::Adaptive);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        let initial = dist.duality_gap(&full);
        for _ in 0..10 {
            dist.epoch(&full);
            let gamma = dist.last_gamma();
            assert!(
                gamma.is_finite() && gamma > 0.0 && gamma <= 1.0,
                "{kind}: adaptive γ = {gamma}"
            );
        }
        let last = dist.duality_gap(&full);
        assert!(last < 0.5 * initial, "{kind}: gap {initial} -> {last}");
    }
}

#[test]
fn tau0_async_rounds_are_bit_identical_for_svm() {
    let full = full_problem();
    let config = config_for(ObjectiveKind::Svm);
    let mut sync = DistributedScd::new(&full, &config).unwrap();
    let mut asynch = AsyncScd::new(&full, &config, Staleness::Bounded(0)).unwrap();
    for e in 0..10 {
        sync.epoch(&full);
        asynch.epoch(&full);
        assert_eq!(
            sync.last_gamma(),
            asynch.last_gamma(),
            "gamma diverged at epoch {e}"
        );
        assert_eq!(
            sync.shared_vector(),
            asynch.shared_vector(),
            "shared vector diverged at epoch {e}"
        );
    }
    assert_eq!(sync.weights(), asynch.weights());
}

#[test]
fn ridge_objective_config_replays_the_legacy_driver() {
    // A config that names ridge explicitly must be bit-identical to one
    // that never mentions objectives at all.
    let full = full_problem();
    for form in [Form::Primal, Form::Dual] {
        let legacy = DistributedConfig::new(4, form).with_seed(5);
        let tagged = DistributedConfig::new(4, form)
            .with_objective(ObjectiveKind::Ridge)
            .with_seed(5);
        let mut a = DistributedScd::new(&full, &legacy).unwrap();
        let mut b = DistributedScd::new(&full, &tagged).unwrap();
        for _ in 0..10 {
            a.epoch(&full);
            b.epoch(&full);
        }
        assert_eq!(a.weights(), b.weights(), "{form:?}");
        assert_eq!(a.shared_vector(), b.shared_vector(), "{form:?}");
    }
}
