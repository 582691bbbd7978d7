//! Shared-scheduler integration tests: distributed worker rounds that
//! themselves launch TPA-SCD kernel grids onto the *same* host scheduler
//! (the nesting case the work-stealing design exists for), plus the
//! bit-identity oracles re-run with an explicitly wide scheduler so real
//! concurrency is exercised even on a 1-core CI host.

use gpu_sim::{Gpu, GpuProfile};
use scd_core::{Form, RidgeProblem, Solver, TpaScd};
use scd_datasets::webspam_like;
use scd_distributed::{
    Aggregation, AsyncScd, DistributedConfig, DistributedScd, LocalSolverKind, RoundPool,
    RoundRuntime, Staleness,
};
use scd_sched::Scheduler;
use std::sync::{Arc, Mutex};

fn full_problem() -> RidgeProblem {
    RidgeProblem::from_labelled(&webspam_like(240, 180, 10, 77), 1e-3).unwrap()
}

/// K worker rounds run as a task group, and every round launches GPU
/// kernel grids as nested groups on the same scheduler. Must complete
/// without deadlock (the submitting thread drains its own group inline)
/// and must never exceed the configured host-thread count.
#[test]
fn nested_tpa_launches_share_one_scheduler_without_deadlock() {
    let sched = Scheduler::new(4);
    sched.reset_peak();
    let k = 3;
    let problems: Vec<RidgeProblem> = (0..k)
        .map(|i| {
            RidgeProblem::from_labelled(&webspam_like(80, 60, 6, 10 + i as u64), 1e-3).unwrap()
        })
        .collect();
    let solvers: Vec<Mutex<TpaScd>> = problems
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // host_threads = 2 forces the pooled (nested-group) launch
            // path rather than the deterministic inline one.
            let gpu = Gpu::new(GpuProfile::quadro_m4000())
                .with_scheduler(Arc::clone(&sched))
                .with_host_threads(2);
            Mutex::new(TpaScd::new(p, Form::Primal, Arc::new(gpu), i as u64 + 1).unwrap())
        })
        .collect();
    let initial: Vec<f64> = solvers
        .iter()
        .zip(&problems)
        .map(|(s, p)| s.lock().unwrap().duality_gap(p))
        .collect();
    let pool = RoundPool::on(Arc::clone(&sched), k);
    for _ in 0..5 {
        pool.run(k, &|i| {
            solvers[i].lock().unwrap().epoch(&problems[i]);
        });
    }
    let peak = sched.peak_parallelism();
    assert!(
        peak <= sched.threads(),
        "peak host parallelism {peak} exceeded the configured {} threads",
        sched.threads()
    );
    for ((solver, problem), start) in solvers.iter().zip(&problems).zip(&initial) {
        let gap = solver.lock().unwrap().duality_gap(problem);
        assert!(
            gap.is_finite() && gap < *start,
            "gap {gap} did not shrink from {start}"
        );
    }
}

/// The sequential-vs-concurrent oracle, re-run with an injected 4-thread
/// scheduler: rounds genuinely overlap, yet the worker-id-order reduce
/// keeps every γ, the shared vector, and the weights bit-identical.
#[test]
fn wide_scheduler_rounds_bit_identical_to_sequential() {
    let full = full_problem();
    for solver in [
        LocalSolverKind::Sequential,
        LocalSolverKind::Tpa {
            profile: GpuProfile::quadro_m4000(),
            lanes: 64,
            deterministic: true,
        },
    ] {
        let base = DistributedConfig::new(4, Form::Primal)
            .with_aggregation(Aggregation::Adaptive)
            .with_solver(solver)
            .with_seed(7);
        let mut sequential = DistributedScd::new(
            &full,
            &base.clone().with_runtime(RoundRuntime::Concurrent { threads: 1 }),
        )
        .unwrap();
        let concurrent_cfg = base
            .with_scheduler(Scheduler::new(4))
            .with_runtime(RoundRuntime::Concurrent { threads: 4 });
        let mut concurrent = DistributedScd::new(&full, &concurrent_cfg).unwrap();
        assert_eq!(concurrent.round_threads(), 4);
        for _ in 0..6 {
            sequential.epoch(&full);
            concurrent.epoch(&full);
            assert_eq!(sequential.last_gamma(), concurrent.last_gamma());
        }
        assert_eq!(sequential.shared_vector(), concurrent.shared_vector());
        assert_eq!(sequential.weights(), concurrent.weights());
    }
}

/// τ = 0 bounded staleness replays the synchronous barrier exactly, and
/// that replay must not depend on how many host threads the scheduler
/// has: both drivers on a shared 4-thread scheduler, compared epoch by
/// epoch against each other.
#[test]
fn tau_zero_replay_unchanged_under_wide_shared_scheduler() {
    let full = full_problem();
    let config = DistributedConfig::new(3, Form::Primal)
        .with_aggregation(Aggregation::Averaging)
        .with_seed(23)
        .with_scheduler(Scheduler::new(4))
        .with_runtime(RoundRuntime::Concurrent { threads: 3 });
    let mut sync = DistributedScd::new(&full, &config).unwrap();
    let mut asynch = AsyncScd::new(&full, &config, Staleness::Bounded(0)).unwrap();
    for e in 0..8 {
        sync.epoch(&full);
        asynch.epoch(&full);
        assert_eq!(
            sync.shared_vector(),
            asynch.shared_vector(),
            "shared vector diverged at epoch {e}"
        );
    }
    assert_eq!(sync.weights(), asynch.weights());
}
