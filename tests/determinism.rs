//! Reproducibility: every engine, generator, and experiment path in this
//! repository is deterministic in its seeds — two constructions with the
//! same inputs produce bit-identical trajectories. This is what makes the
//! figure CSVs stable artifacts rather than single samples.

use std::sync::Arc;
use tpa_scd::core::{
    AsyncSimScd, Form, ObjectiveKind, RidgeProblem, SequentialScd, Solver, TpaScd,
};
use tpa_scd::datasets::{criteo_like, scale_values, webspam_like};
use tpa_scd::distributed::{
    Aggregation, AsyncScd, DistributedConfig, DistributedScd, Staleness,
};
use tpa_scd::gpu::{Gpu, GpuProfile};

fn problem() -> RidgeProblem {
    let data = scale_values(&webspam_like(150, 120, 10, 55), 0.3);
    RidgeProblem::from_labelled(&data, 1e-3).unwrap()
}

fn run_twice<S: Solver>(mut build: impl FnMut() -> S, p: &RidgeProblem, epochs: usize) {
    let mut a = build();
    let mut b = build();
    for _ in 0..epochs {
        a.epoch(p);
        b.epoch(p);
    }
    assert_eq!(a.weights(), b.weights(), "{} not deterministic", a.name());
}

#[test]
fn generators_are_deterministic() {
    assert_eq!(
        webspam_like(60, 50, 6, 9).matrix.to_dense(),
        webspam_like(60, 50, 6, 9).matrix.to_dense()
    );
    assert_eq!(
        criteo_like(40, 4, 12, 9).matrix.to_dense(),
        criteo_like(40, 4, 12, 9).matrix.to_dense()
    );
}

#[test]
fn single_node_engines_are_deterministic() {
    let p = problem();
    run_twice(|| SequentialScd::primal(&p, 3), &p, 4);
    run_twice(|| SequentialScd::dual(&p, 3), &p, 4);
    run_twice(|| AsyncSimScd::a_scd(&p, Form::Primal, 3), &p, 4);
    run_twice(|| AsyncSimScd::wild(&p, Form::Dual, 3), &p, 4);
}

#[test]
fn tpa_scd_is_deterministic_with_one_host_thread() {
    let p = problem();
    run_twice(
        || {
            let gpu = Arc::new(Gpu::new(GpuProfile::quadro_m4000()).with_host_threads(1));
            TpaScd::new(&p, Form::Dual, gpu, 3).unwrap()
        },
        &p,
        4,
    );
}

#[test]
fn distributed_cluster_is_deterministic() {
    let p = problem();
    run_twice(
        || {
            let config = DistributedConfig::new(4, Form::Primal)
                .with_aggregation(Aggregation::Adaptive)
                .with_seed(8);
            DistributedScd::new(&p, &config).unwrap()
        },
        &p,
        5,
    );
    // The event engine's parameter server: no staleness bound.
    run_twice(
        || {
            let config = DistributedConfig::new(3, Form::Primal).with_seed(8);
            AsyncScd::new(&p, &config, Staleness::Unbounded).unwrap()
        },
        &p,
        5,
    );
}

#[test]
fn every_objective_is_deterministic() {
    let p = RidgeProblem::from_labelled(&webspam_like(100, 80, 8, 21), 1e-2).unwrap();
    for kind in ObjectiveKind::ALL {
        run_twice(
            || {
                match kind.default_form() {
                    Form::Primal => SequentialScd::primal(&p, 4),
                    Form::Dual => SequentialScd::dual(&p, 4),
                }
                .with_objective(kind)
            },
            &p,
            4,
        );
    }
}

#[test]
fn different_seeds_change_the_trajectory_but_not_the_destination() {
    let p = problem();
    let run = |seed: u64| {
        let mut s = SequentialScd::primal(&p, seed);
        let early = {
            s.epoch(&p);
            s.weights()
        };
        for _ in 0..99 {
            s.epoch(&p);
        }
        (early, s.weights())
    };
    let (early_a, final_a) = run(1);
    let (early_b, final_b) = run(2);
    assert_ne!(early_a, early_b, "different seeds must differ early");
    let max_diff = final_a
        .iter()
        .zip(&final_b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max);
    assert!(max_diff < 1e-3, "both must converge to β*, diff {max_diff}");
}
