//! Integration tests for the concurrent round runtime and the fault layer:
//! bit-identity of concurrent vs sequential execution, determinism of
//! fault-injected runs, γ-rule agreement, and degraded-aggregation
//! convergence with rounds lost every epoch.

use scd_core::{Form, RidgeProblem, Solver};
use scd_datasets::webspam_like;
use scd_distributed::{
    Aggregation, DistributedConfig, DistributedScd, FaultPlan, RoundRuntime,
};
use scd_sparse::dense;

fn full_problem() -> RidgeProblem {
    RidgeProblem::from_labelled(&webspam_like(240, 180, 10, 77), 1e-3).unwrap()
}

/// Run `epochs` rounds, returning the γ series.
fn gamma_series(dist: &mut DistributedScd, full: &RidgeProblem, epochs: usize) -> Vec<f64> {
    (0..epochs)
        .map(|_| {
            dist.epoch(full);
            dist.last_gamma()
        })
        .collect()
}

#[test]
fn concurrent_rounds_bit_identical_to_sequential() {
    let full = full_problem();
    for aggregation in [Aggregation::Averaging, Aggregation::Adaptive] {
        let config = DistributedConfig::new(4, Form::Primal)
            .with_aggregation(aggregation)
            .with_seed(7);
        let sequential_cfg = config.clone().with_runtime(RoundRuntime::Concurrent { threads: 1 });
        let concurrent_cfg = config.with_runtime(RoundRuntime::Concurrent { threads: 4 });
        let mut sequential = DistributedScd::new(&full, &sequential_cfg).unwrap();
        let mut concurrent = DistributedScd::new(&full, &concurrent_cfg).unwrap();
        assert_eq!(concurrent.round_threads(), 4);
        assert_eq!(sequential.round_threads(), 1);

        let gs = gamma_series(&mut sequential, &full, 10);
        let gc = gamma_series(&mut concurrent, &full, 10);
        // Bit-identical: f64 γ series, f32 shared vector and weights all
        // compare with exact equality.
        assert_eq!(gs, gc, "{} γ series must match", aggregation.label());
        assert_eq!(sequential.shared_vector(), concurrent.shared_vector());
        assert_eq!(sequential.weights(), concurrent.weights());
    }
}

#[test]
fn concurrent_dual_form_bit_identical_to_sequential() {
    let full = full_problem();
    let config = DistributedConfig::new(3, Form::Dual)
        .with_aggregation(Aggregation::Adaptive)
        .with_seed(19);
    let mut sequential = DistributedScd::new(
        &full,
        &config.clone().with_runtime(RoundRuntime::Concurrent { threads: 1 }),
    )
    .unwrap();
    let mut concurrent = DistributedScd::new(
        &full,
        &config.with_runtime(RoundRuntime::Concurrent { threads: 3 }),
    )
    .unwrap();
    let gs = gamma_series(&mut sequential, &full, 10);
    let gc = gamma_series(&mut concurrent, &full, 10);
    assert_eq!(gs, gc);
    assert_eq!(sequential.shared_vector(), concurrent.shared_vector());
    assert_eq!(sequential.weights(), concurrent.weights());
}

#[test]
fn fault_injected_runs_are_deterministic_given_a_seed() {
    let full = full_problem();
    let plan = FaultPlan {
        drop_probability: 0.15,
        delay_probability: 0.25,
        delay_factor: 3.0,
        max_retries: 2,
        seed: 1234,
        ..FaultPlan::none()
    };
    let run = |runtime: RoundRuntime| {
        let config = DistributedConfig::new(4, Form::Primal)
            .with_aggregation(Aggregation::Adaptive)
            .with_seed(7)
            .with_fault(plan)
            .with_runtime(runtime);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        let gammas = gamma_series(&mut dist, &full, 15);
        (gammas, dist.weights(), dist.round_metrics().to_vec())
    };
    let a = run(RoundRuntime::Concurrent { threads: 4 });
    let b = run(RoundRuntime::Concurrent { threads: 2 });
    let c = run(RoundRuntime::Concurrent { threads: 1 });
    // Same seed → same fault schedule, same trajectory, same telemetry —
    // regardless of how many host threads execute the rounds.
    assert_eq!(a, b);
    assert_eq!(a, c);
    // The plan actually injected something.
    let retries: usize = a.2.iter().map(|m| m.retries).sum();
    let drops: usize = a.2.iter().map(|m| m.dropped_workers.len()).sum();
    assert!(retries > 0, "plan should have caused retries");
    assert!(retries >= drops, "every drop was retried first");
}

#[test]
fn adaptive_and_line_search_gamma_agree_over_ten_epochs() {
    let full = full_problem();
    for form in [Form::Primal, Form::Dual] {
        let adaptive_cfg = DistributedConfig::new(4, form)
            .with_aggregation(Aggregation::Adaptive)
            .with_seed(15);
        let search_cfg = DistributedConfig::new(4, form)
            .with_aggregation(Aggregation::LineSearch)
            .with_seed(15);
        let mut adaptive = DistributedScd::new(&full, &adaptive_cfg).unwrap();
        let mut search = DistributedScd::new(&full, &search_cfg).unwrap();
        for e in 0..10 {
            adaptive.epoch(&full);
            search.epoch(&full);
            let (ga, gs) = (adaptive.last_gamma(), search.last_gamma());
            assert!(
                (ga - gs).abs() < 1e-3,
                "{} epoch {e}: closed form {ga} vs line search {gs}",
                form.label()
            );
        }
    }
}

#[test]
fn one_worker_dropped_per_round_still_converges() {
    let full = full_problem();
    let plan = FaultPlan {
        rotating_drop: true,
        max_retries: 1,
        ..FaultPlan::none()
    };
    let config = DistributedConfig::new(4, Form::Primal)
        .with_seed(3)
        .with_fault(plan);
    let mut dist = DistributedScd::new(&full, &config).unwrap();
    let gaps: Vec<f64> = (0..20)
        .map(|_| {
            dist.epoch(&full);
            dist.duality_gap(&full)
        })
        .collect();

    // Suboptimality decreases over the 20 epochs despite losing one
    // worker's round every epoch.
    assert!(
        gaps[19] < 0.2 * gaps[0],
        "gap must shrink: first {} last {}",
        gaps[0],
        gaps[19]
    );
    let decreasing = gaps.windows(2).filter(|w| w[1] < w[0]).count();
    assert!(decreasing >= 15, "gap should fall in most rounds, fell in {decreasing}/19");

    // Telemetry: every round reports the drop, the retry, and γ rescaled
    // to the K′ = 3 survivors (averaging: 1/3, not 1/4).
    let metrics = dist.round_metrics();
    assert_eq!(metrics.len(), 20);
    for (e, m) in metrics.iter().enumerate() {
        assert_eq!(m.epoch, e);
        assert_eq!(m.dropped_workers, vec![e % 4]);
        assert_eq!(m.retries, 1, "the lost round is re-requested once");
        assert_eq!(m.survivors, 3);
        assert_eq!(m.gamma, 1.0 / 3.0);
        assert_eq!(m.worker_round_seconds.len(), 4);
        // Only the 3 surviving Δ-vectors were reduced, all at staleness 0,
        // and the byte accounting covers 3 uploads + 1 retry + 4 broadcasts.
        assert_eq!(m.staleness_hist, vec![3]);
        assert_eq!(m.bytes_raw, 4 * full.shared_len(Form::Primal) * (3 + 1 + 4));
        assert!(m.barrier_seconds > 0.0);
        let json = m.to_json();
        assert!(json.contains(&format!("\"dropped_workers\": [{}]", e % 4)));
        assert!(json.contains("\"retries\": 1"));
    }

    // The master's shared vector still tracks the assembled weights: the
    // invariant w = A·β survives discarded rounds.
    let w_true = full.csc().matvec(&dist.weights()).unwrap();
    let drift = dense::max_abs_diff(&dist.shared_vector(), &w_true);
    assert!(drift < 1e-3, "shared must track Aβ under faults, drift {drift}");
    assert!(dist.metrics_json().starts_with("[\n"));
}

#[test]
fn timeout_drops_a_straggler_that_exceeds_it() {
    let full = full_problem();
    // Probe a fault-free round to learn the nominal per-worker times.
    let probe_cfg = DistributedConfig::new(4, Form::Primal).with_seed(5);
    let mut probe = DistributedScd::new(&full, &probe_cfg).unwrap();
    probe.epoch(&full);
    let nominal = probe.round_metrics()[0]
        .worker_round_seconds
        .iter()
        .cloned()
        .fold(0.0, f64::max);

    // A 6× straggler on worker 2 blows through a 3×-nominal timeout; the
    // other workers stay inside it.
    let plan = FaultPlan {
        timeout_seconds: Some(3.0 * nominal),
        ..FaultPlan::none()
    };
    let config = DistributedConfig::new(4, Form::Primal)
        .with_seed(5)
        .with_worker_slowdowns(vec![1.0, 1.0, 6.0, 1.0])
        .with_fault(plan);
    let mut dist = DistributedScd::new(&full, &config).unwrap();
    dist.epoch(&full);
    let first_gap = dist.duality_gap(&full);
    for _ in 1..5 {
        dist.epoch(&full);
    }
    for m in dist.round_metrics() {
        assert_eq!(m.dropped_workers, vec![2], "the straggler misses the barrier");
        assert_eq!(m.survivors, 3);
        assert_eq!(m.retries, 0, "no retries configured");
        // The barrier now costs the timeout wait, not the straggler's
        // full 6× round.
        assert!(m.barrier_seconds <= 3.0 * nominal * 1.5);
    }
    // And the run still makes progress on the three live workers.
    let gap = dist.duality_gap(&full);
    assert!(gap < first_gap, "gap must fall: {first_gap} -> {gap}");
}

#[test]
fn seed_changes_partition_unless_strategy_is_explicit() {
    let full = full_problem();
    let weights_after = |config: &DistributedConfig| {
        let mut dist = DistributedScd::new(&full, config).unwrap();
        for _ in 0..3 {
            dist.epoch(&full);
        }
        dist.weights()
    };
    // Different seeds must see different partitions (and thus different
    // trajectories) under the default strategy…
    let a = weights_after(&DistributedConfig::new(4, Form::Primal).with_seed(1));
    let b = weights_after(&DistributedConfig::new(4, Form::Primal).with_seed(2));
    assert_ne!(a, b, "with_seed must re-roll the default partition");
    // …and identical explicit strategies must pin the partition while the
    // seed still drives the worker RNG.
    use scd_distributed::PartitionStrategy;
    let c = weights_after(
        &DistributedConfig::new(4, Form::Primal)
            .with_seed(1)
            .with_strategy(PartitionStrategy::Random(99)),
    );
    let d = weights_after(
        &DistributedConfig::new(4, Form::Primal)
            .with_seed(1)
            .with_strategy(PartitionStrategy::Random(99)),
    );
    assert_eq!(c, d);
}

#[test]
fn round_observer_sees_every_round_boundary() {
    use std::sync::{Arc, Mutex};
    let full = full_problem();
    let config = DistributedConfig::new(3, Form::Primal).with_seed(21);
    let mut dist = DistributedScd::new(&full, &config).unwrap();
    let log = Arc::new(Mutex::new(Vec::<(u64, Vec<f32>)>::new()));
    let sink = Arc::clone(&log);
    dist.set_round_observer(Box::new(move |round, weights| {
        sink.lock().unwrap().push((round, weights.to_vec()));
    }));
    for _ in 0..3 {
        dist.epoch(&full);
    }
    let log = log.lock().unwrap();
    assert_eq!(log.iter().map(|(r, _)| *r).collect::<Vec<_>>(), vec![1, 2, 3]);
    // The published vector is exactly the driver's assembled model at
    // that boundary — the last one must match the current weights.
    assert_eq!(log[2].1, dist.weights());
    assert!(
        dense::max_abs_diff(&log[0].1, &log[2].1) > 0.0,
        "training progressed between publishes"
    );
}
