//! Distributed stochastic learning (§IV–V of the paper): synchronous
//! CoCoA-style distribution of SCD across K workers with averaging
//! (Algorithm 3) or adaptive (Algorithm 4) aggregation, over an in-process
//! cluster whose communication costs follow the calibrated link models.
//!
//! * [`partition`] — by-feature / by-example data partitioning.
//! * [`local`] — the [`local::LocalSolver`] contract any engine
//!   (sequential, async CPU, TPA-SCD on a GPU) must meet to act as a
//!   worker's solver.
//! * [`worker`] — one worker node: local epoch, Δ computation, γ rescale.
//! * [`runtime`] — the [`runtime::RoundPool`]: persistent host threads
//!   that execute worker rounds concurrently within one epoch.
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]):
//!   delayed and dropped rounds, keyed by (epoch, worker, attempt).
//! * [`metrics`] — per-round telemetry ([`metrics::RoundMetrics`]) with
//!   JSON export for the bench harness.
//! * [`driver`] — the master loop: reduce, choose γ, broadcast, survive
//!   lost rounds by degraded aggregation; implements [`scd_core::Solver`]
//!   so the figure harness drives distributed and single-node runs
//!   identically.
//! * [`async_scd`] — bounded-staleness asynchronous rounds on the
//!   deterministic event engine ([`scd_events`]): τ=0 reproduces the
//!   synchronous barrier bit-identically, τ=∞ is the event-driven
//!   parameter server [6] the paper's introduction contrasts the
//!   synchronous design against, anything between is SSP-style bounded
//!   staleness.
//!
//! Delta traffic between workers and master goes through a pluggable wire
//! format ([`scd_wire::WireFormat`], re-exported here): raw f32 (the
//! default, bit-identical to direct exchange), fp16, top-k sparsification,
//! or top-k with error-feedback residuals. The network model charges the
//! *encoded* byte counts, and [`metrics::RoundMetrics`] records raw vs
//! encoded traffic per round.

pub mod async_scd;
pub mod driver;
pub mod fault;
pub mod local;
pub mod metrics;
pub mod partition;
pub mod runtime;
pub mod source;
pub mod worker;

pub use async_scd::{AsyncScd, Staleness};
pub use driver::{
    Aggregation, BuildError, DistributedConfig, DistributedScd, LocalSolverKind, RoundObserver,
};
pub use source::{PartitionSource, SetupCost};
pub use fault::{FaultPlan, RoundFate};
pub use metrics::RoundMetrics;
pub use local::LocalSolver;
pub use partition::{partition_coords, partition_problem, LocalPartition, PartitionStrategy};
pub use runtime::{RoundPool, RoundRuntime};
pub use worker::{Worker, WorkerRound};
pub use scd_wire::{DeltaCodec, WireFormat};

#[cfg(test)]
mod tests {
    use super::*;
    use scd_core::{Form, RidgeProblem, SequentialScd, Solver};
    use scd_datasets::webspam_like;
    use scd_sparse::dense;

    fn full_problem() -> RidgeProblem {
        RidgeProblem::from_labelled(&webspam_like(240, 180, 10, 77), 1e-3).unwrap()
    }

    /// A better-conditioned problem (larger λ) for the slow dual-form tests.
    fn dual_problem() -> RidgeProblem {
        RidgeProblem::from_labelled(&webspam_like(240, 180, 10, 77), 1e-2).unwrap()
    }

    #[test]
    fn distributed_k1_averaging_matches_single_node() {
        // One worker with γ = 1/1 = 1 is exactly Algorithm 1 run locally.
        let full = full_problem();
        let config = DistributedConfig::new(1, Form::Primal)
            .with_strategy(PartitionStrategy::Contiguous)
            .with_seed(5);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        let mut single = SequentialScd::primal(&full, 5 ^ 0x5DEECE66D);
        for _ in 0..3 {
            dist.epoch(&full);
            single.epoch(&full);
        }
        // Master applies w ← w + (w' − w), which differs from w' by f32
        // rounding once w ≠ 0; trajectories agree to ULP-level.
        assert!(dense::max_abs_diff(&dist.weights(), &single.weights()) < 1e-5);
        assert!(
            dense::max_abs_diff(&dist.shared_vector(), &single.shared_vector()) < 1e-4
        );
        assert_eq!(dist.last_gamma(), 1.0);
    }

    #[test]
    fn distributed_primal_converges() {
        let full = full_problem();
        let config = DistributedConfig::new(4, Form::Primal);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        for _ in 0..150 {
            dist.epoch(&full);
        }
        let gap = dist.duality_gap(&full);
        assert!(gap < 1e-3, "gap {gap}");
    }

    #[test]
    fn distributed_dual_converges() {
        let full = dual_problem();
        let config = DistributedConfig::new(4, Form::Dual);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        for _ in 0..150 {
            dist.epoch(&full);
        }
        let gap = dist.duality_gap(&full);
        assert!(gap < 1e-3, "gap {gap}");
    }

    #[test]
    fn zero_delta_round_clamps_gamma_positive() {
        // Regression: a round whose surviving workers produced an all-zero
        // delta left the γ rules with a flat (or purely linear) objective —
        // the dual line search wandered to the −4 boundary and poisoned the
        // shared vector with a negative step. Every rule must now come back
        // finite and positive.
        use crate::driver::choose_gamma;
        use scd_core::{ObjectiveKind, WorkerScalars};
        let full = full_problem();
        let reduced = WorkerScalars {
            x_dot_dx: 0.0,
            dx_sq: 0.0,
            dx_dot_y: -1.0,
        };
        for aggregation in [
            Aggregation::Averaging,
            Aggregation::Adding,
            Aggregation::Adaptive,
            Aggregation::CocoaPlus,
            Aggregation::LineSearch,
        ] {
            for form in [Form::Primal, Form::Dual] {
                // The shared vector lives in example space (length N) for
                // the primal and feature space (length M) for the dual.
                let zeros = match form {
                    Form::Primal => vec![0.0f32; full.n()],
                    Form::Dual => vec![0.0f32; full.m()],
                };
                let gamma = choose_gamma(
                    aggregation,
                    form,
                    ObjectiveKind::Ridge,
                    &full,
                    &zeros,
                    &zeros,
                    &reduced,
                    3,
                );
                assert!(
                    gamma.is_finite() && gamma > 0.0,
                    "{aggregation:?}/{form:?} gave γ = {gamma}"
                );
            }
        }
        // The dual line search specifically lands on the −4 boundary here;
        // the clamp must replace it with the safe averaging step 1/K′.
        let zeros = vec![0.0f32; full.m()];
        let gamma = choose_gamma(
            Aggregation::LineSearch,
            Form::Dual,
            ObjectiveKind::Ridge,
            &full,
            &zeros,
            &zeros,
            &reduced,
            3,
        );
        assert_eq!(gamma, 1.0 / 3.0);
    }

    #[test]
    fn more_workers_converge_slower_per_epoch() {
        // Fig. 3: "an approximately linear slow-down in convergence speed as
        // a function of epochs."
        let full = full_problem();
        let epochs_to = |k: usize| -> usize {
            let config = DistributedConfig::new(k, Form::Primal).with_seed(9);
            let mut dist = DistributedScd::new(&full, &config).unwrap();
            for e in 1..=400 {
                dist.epoch(&full);
                if dist.duality_gap(&full) <= 1e-3 {
                    return e;
                }
            }
            401
        };
        let e1 = epochs_to(1);
        let e4 = epochs_to(4);
        assert!(
            e4 > e1,
            "4 workers ({e4} epochs) must need more epochs than 1 ({e1})"
        );
        assert!(e4 <= 400, "4 workers must still converge");
    }

    #[test]
    fn shared_vector_tracks_assembled_weights() {
        // Invariant of Algorithms 3/4: after aggregation the master's w
        // equals A·(assembled β) — workers' rescaled local models stay
        // consistent with the aggregated shared vector.
        let full = full_problem();
        let config = DistributedConfig::new(4, Form::Primal);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        for _ in 0..5 {
            dist.epoch(&full);
        }
        let w_true = full.csc().matvec(&dist.weights()).unwrap();
        let drift = dense::max_abs_diff(&dist.shared_vector(), &w_true);
        assert!(drift < 1e-3, "master w must track Aβ, drift {drift}");
    }

    #[test]
    fn dual_shared_vector_tracks_assembled_alpha() {
        let full = full_problem();
        let config = DistributedConfig::new(3, Form::Dual);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        for _ in 0..5 {
            dist.epoch(&full);
        }
        let w_bar_true = full.csr().matvec_t(&dist.weights()).unwrap();
        let drift = dense::max_abs_diff(&dist.shared_vector(), &w_bar_true);
        assert!(drift < 1e-3, "master w̄ must track Aᵀα, drift {drift}");
    }

    #[test]
    fn adaptive_aggregation_speeds_up_primal() {
        // Fig. 4a: adaptive aggregation reaches small gaps in fewer epochs
        // than averaging at K=8.
        let full = full_problem();
        let epochs_to = |agg: Aggregation| -> usize {
            let config = DistributedConfig::new(8, Form::Primal)
                .with_aggregation(agg)
                .with_seed(11);
            let mut dist = DistributedScd::new(&full, &config).unwrap();
            for e in 1..=600 {
                dist.epoch(&full);
                if dist.duality_gap(&full) <= 1e-4 {
                    return e;
                }
            }
            601
        };
        let avg = epochs_to(Aggregation::Averaging);
        let ada = epochs_to(Aggregation::Adaptive);
        assert!(
            ada < avg,
            "adaptive ({ada} epochs) must beat averaging ({avg} epochs)"
        );
    }

    #[test]
    fn adaptive_gamma_exceeds_averaging_gamma() {
        // Fig. 5: γ*ₜ converges to a value "significantly larger than ...
        // averaging (i.e., γ = 1/K)".
        let full = full_problem();
        let config = DistributedConfig::new(8, Form::Primal)
            .with_aggregation(Aggregation::Adaptive)
            .with_seed(3);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        let mut last = 0.0;
        for _ in 0..40 {
            dist.epoch(&full);
            last = dist.last_gamma();
        }
        assert!(
            last > 1.0 / 8.0,
            "converged γ {last} should exceed averaging's 1/8"
        );
    }

    #[test]
    fn network_time_grows_with_workers() {
        let full = full_problem();
        let net_time = |k: usize| {
            let config = DistributedConfig::new(k, Form::Primal);
            let mut dist = DistributedScd::new(&full, &config).unwrap();
            dist.epoch(&full).breakdown.network
        };
        assert_eq!(net_time(1), 0.0, "single worker needs no network");
        assert!(net_time(8) > net_time(2));
    }

    #[test]
    fn adding_aggregation_overshoots_on_correlated_data() {
        // "Adding" (γ=1) applies every worker's full step; on correlated
        // partitions it overshoots relative to averaging — the motivation
        // for tunable aggregation in [24].
        let full = full_problem();
        let gap_after = |agg: Aggregation| {
            let config = DistributedConfig::new(8, Form::Primal)
                .with_aggregation(agg)
                .with_seed(13);
            let mut dist = DistributedScd::new(&full, &config).unwrap();
            for _ in 0..30 {
                dist.epoch(&full);
            }
            dist.duality_gap(&full)
        };
        let adding = gap_after(Aggregation::Adding);
        let averaging = gap_after(Aggregation::Averaging);
        assert!(
            adding.partial_cmp(&averaging) != Some(std::cmp::Ordering::Less),
            "adding ({adding}) should not beat averaging ({averaging}) on \
             this correlated problem"
        );
    }

    #[test]
    fn tpa_workers_report_gpu_and_pcie_time() {
        use gpu_sim::GpuProfile;
        let full = dual_problem();
        let config = DistributedConfig::new(4, Form::Dual).with_solver(LocalSolverKind::Tpa {
            profile: GpuProfile::quadro_m4000(),
            lanes: 64,
            deterministic: true,
        });
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        let stats = dist.epoch(&full);
        assert!(stats.breakdown.gpu > 0.0, "GPU time must be charged");
        assert!(stats.breakdown.pcie > 0.0, "PCIe time must be charged");
        assert!(stats.breakdown.network > 0.0);
        for _ in 0..60 {
            dist.epoch(&full);
        }
        assert!(
            dist.duality_gap(&full) < 1e-2,
            "distributed TPA-SCD converges, gap {}",
            dist.duality_gap(&full)
        );
    }

    #[test]
    fn wild_workers_converge_to_biased_solution() {
        // Fig. 10's PASSCoDe(16 threads) reference: converges fast but the
        // gap saturates above the consistent solvers'.
        let full = full_problem();
        let config = DistributedConfig::new(4, Form::Dual)
            .with_solver(LocalSolverKind::AsyncSim {
                mode: scd_core::AsyncCpuMode::Wild,
                threads: 16,
                paper_scale_staleness: true,
            })
            .with_seed(21);
        let mut wild = DistributedScd::new(&full, &config).unwrap();
        let clean_cfg = DistributedConfig::new(4, Form::Dual).with_seed(21);
        let mut clean = DistributedScd::new(&full, &clean_cfg).unwrap();
        for _ in 0..150 {
            wild.epoch(&full);
            clean.epoch(&full);
        }
        let (gw, gc) = (wild.duality_gap(&full), clean.duality_gap(&full));
        assert!(gw.is_finite());
        assert!(
            gw > gc,
            "wild workers ({gw}) should stall above sequential workers ({gc})"
        );
    }

    #[test]
    fn cocoa_plus_makes_adding_safe() {
        // Plain adding (γ=1) diverges on this correlated problem (see the
        // `adding_aggregation_overshoots` test); CoCoA+ keeps γ=1 but
        // scales every local quadratic term by σ′=K, restoring convergence
        // — the safe-adding result of [24].
        let full = full_problem();
        let config = DistributedConfig::new(8, Form::Primal)
            .with_aggregation(Aggregation::CocoaPlus)
            .with_seed(13);
        let mut dist = DistributedScd::new(&full, &config).unwrap();
        for _ in 0..400 {
            dist.epoch(&full);
        }
        let gap = dist.duality_gap(&full);
        assert!(gap.is_finite() && gap < 1e-3, "CoCoA+ must converge, gap {gap}");
        assert_eq!(dist.last_gamma(), 1.0, "CoCoA+ adds with γ = 1");
    }

    #[test]
    fn cocoa_plus_beats_averaging_per_epoch() {
        let full = full_problem();
        let gap_after = |agg: Aggregation| {
            let config = DistributedConfig::new(8, Form::Primal)
                .with_aggregation(agg)
                .with_seed(14);
            let mut dist = DistributedScd::new(&full, &config).unwrap();
            for _ in 0..60 {
                dist.epoch(&full);
            }
            dist.duality_gap(&full)
        };
        let cocoa = gap_after(Aggregation::CocoaPlus);
        let avg = gap_after(Aggregation::Averaging);
        assert!(
            cocoa < avg,
            "CoCoA+ ({cocoa}) should make more per-epoch progress than averaging ({avg})"
        );
    }

    #[test]
    fn line_search_matches_closed_form_gamma() {
        // The master's explicit line search [21] must land on the same γ as
        // the §IV-B closed form, in both formulations.
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
            for _ in 0..5 {
                adaptive.epoch(&full);
                search.epoch(&full);
                assert!(
                    (adaptive.last_gamma() - search.last_gamma()).abs() < 1e-3,
                    "{}: closed form {} vs line search {}",
                    form.label(),
                    adaptive.last_gamma(),
                    search.last_gamma()
                );
            }
        }
    }

    #[test]
    fn one_straggler_stretches_every_synchronous_round() {
        let full = full_problem();
        let balanced = DistributedConfig::new(4, Form::Primal).with_seed(30);
        let straggling = DistributedConfig::new(4, Form::Primal)
            .with_worker_slowdowns(vec![1.0, 1.0, 6.0, 1.0])
            .with_seed(30);
        let mut a = DistributedScd::new(&full, &balanced).unwrap();
        let mut b = DistributedScd::new(&full, &straggling).unwrap();
        let ta = a.epoch(&full).breakdown.host;
        let tb = b.epoch(&full).breakdown.host;
        // The barrier charges the slowest worker; the master's (unscaled)
        // aggregation arithmetic dilutes the pure 6x, but the stretch must
        // be large and bounded by the slowdown itself.
        let ratio = tb / ta;
        assert!(
            (2.0..6.0).contains(&ratio),
            "a 6x straggler should stretch the round severalfold, got {ratio}"
        );
        // Convergence is unaffected — only time is.
        for _ in 0..30 {
            a.epoch(&full);
            b.epoch(&full);
        }
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn names_and_labels() {
        let full = full_problem();
        let config = DistributedConfig::new(2, Form::Primal)
            .with_aggregation(Aggregation::Adaptive);
        let dist = DistributedScd::new(&full, &config).unwrap();
        let name = dist.name();
        assert!(name.contains("K=2"));
        assert!(name.contains("adaptive"));
        assert_eq!(Aggregation::Averaging.label(), "averaging");
        assert_eq!(dist.worker_count(), 2);
    }
}
