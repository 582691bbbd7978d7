//! The synchronous distributed SCD driver: Algorithm 3 (fixed aggregation)
//! and Algorithm 4 (adaptive aggregation) over an in-process cluster with a
//! modeled network.
//!
//! Each epoch: workers run one permuted pass over their local coordinates
//! against the last broadcast shared vector — concurrently on the round
//! pool ([`crate::runtime::RoundPool`]) by default, since the workers are
//! independent state machines; the master then reduces the
//! Δ-shared-vectors and the adaptive scalars *in worker-id order* (so the
//! result is bit-identical to the sequential reference loop), picks γ (1/K
//! averaging, 1 adding, or the closed-form optimum), applies the
//! aggregated update, and conceptually broadcasts it back. Simulated time
//! charges the round at the *slowest* worker's total round time
//! (synchronous barrier) plus master host work plus the network
//! reduce/broadcast and any PCIe traffic.
//!
//! When a [`FaultPlan`] is active the master additionally plays each
//! round's fates: delayed rounds cost more, lost rounds (dropped or slower
//! than the timeout) are re-requested up to `max_retries` times, and
//! whatever is still missing after that is aggregated around — the K′ < K
//! surviving deltas are combined with γ rescaled (averaging uses 1/K′) and
//! the dropped workers keep their previous master-consistent state, so the
//! invariant shared = A·β survives the loss. Every round is recorded in a
//! [`RoundMetrics`] entry.

use crate::fault::{FaultPlan, RoundFate};
use crate::local::LocalSolver;
use crate::metrics::RoundMetrics;
use crate::partition::{partition_problem, LocalPartition, PartitionStrategy};
use crate::runtime::{RoundPool, RoundRuntime};
use crate::source::{
    check_store_shape, memory_partition_bytes, store_partitions, PartitionSource, SetupCost,
};
use crate::worker::Worker;
use gpu_sim::{Gpu, GpuError, GpuProfile};
use scd_store::{ShardedDataset, StoreError};
use scd_core::{
    async_sim::scaled_staleness, optimal_gamma_dual, optimal_gamma_primal, AsyncCpuMode,
    AsyncSimScd, EpochStats, Form, ObjectiveKind, RidgeProblem, SequentialScd, Solver,
    TimeBreakdown, TpaScd, WorkerScalars,
};
use scd_perf_model::{CpuProfile, LinkProfile};
use scd_sched::Scheduler;
use scd_sparse::dense;
use scd_wire::{DeltaCodec, WireFormat};
use std::sync::Arc;

/// How the master combines the workers' updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aggregation {
    /// γ = 1/K (Algorithm 3; CoCoA-style averaging [7]).
    Averaging,
    /// γ = 1 (the "adding" end of the spectrum studied in [24]; unsafe —
    /// can diverge on correlated partitions).
    Adding,
    /// γ = γ*ₜ, the closed-form optimum of §IV-B (Algorithm 4).
    Adaptive,
    /// CoCoA+ [24]: γ = 1 made *safe* by scaling every worker's local
    /// quadratic term by σ′ = K.
    CocoaPlus,
    /// Explicit numerical line search for γ on the master (the [21]
    /// approach the paper cites) — must agree with [`Self::Adaptive`] up to
    /// search tolerance, at higher master cost.
    LineSearch,
}

impl Aggregation {
    /// Label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            Aggregation::Averaging => "averaging",
            Aggregation::Adding => "adding",
            Aggregation::Adaptive => "adaptive",
            Aggregation::CocoaPlus => "cocoa+",
            Aggregation::LineSearch => "line-search",
        }
    }
}

/// Golden-section minimizer for the master's explicit line search.
fn golden_min(mut f: impl FnMut(f64) -> f64, mut lo: f64, mut hi: f64) -> f64 {
    let phi = (5f64.sqrt() - 1.0) / 2.0;
    for _ in 0..120 {
        let a = hi - phi * (hi - lo);
        let b = lo + phi * (hi - lo);
        if f(a) < f(b) {
            hi = b;
        } else {
            lo = a;
        }
    }
    (lo + hi) / 2.0
}

/// Which engine every worker runs locally.
#[derive(Debug, Clone)]
pub enum LocalSolverKind {
    /// Algorithm 1 on one thread (the paper's Fig. 3–6 configuration).
    Sequential,
    /// The deterministic asynchronous engine (PASSCoDe-Wild workers in
    /// Fig. 10 use `mode = Wild, threads = 16`). `paper_scale_staleness`
    /// maps the staleness window onto the local partition size.
    AsyncSim {
        /// Write-back semantics.
        mode: AsyncCpuMode,
        /// Thread count being modeled.
        threads: usize,
        /// Scale the staleness window by the paper's coordinate counts.
        paper_scale_staleness: bool,
    },
    /// TPA-SCD on one simulated GPU per worker (Figs. 8–10).
    Tpa {
        /// Device model for every worker's GPU.
        profile: GpuProfile,
        /// Lanes per thread block.
        lanes: usize,
        /// Run device blocks on one host thread for bit-reproducible runs.
        deterministic: bool,
    },
}

/// Cluster configuration.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Number of workers K.
    pub workers: usize,
    /// Which formulation to solve (decides the partitioning axis).
    pub form: Form,
    /// The training objective every worker's local engine optimizes
    /// (ridge by default — the paper's setting).
    pub objective: ObjectiveKind,
    /// Aggregation rule.
    pub aggregation: Aggregation,
    /// Coordinate-assignment strategy; `None` (the default) derives the
    /// partition RNG from [`Self::seed`], so differently seeded clusters
    /// see different partitions.
    pub strategy: Option<PartitionStrategy>,
    /// The local engine.
    pub solver: LocalSolverKind,
    /// Worker ↔ master link.
    pub network: LinkProfile,
    /// Host ↔ device link on each worker.
    pub pcie: LinkProfile,
    /// Host CPU on workers and master.
    pub cpu: CpuProfile,
    /// Full local passes each worker performs per communication round
    /// (H > 1 side of the §IV-A computation/communication trade-off).
    pub local_epochs_per_round: usize,
    /// Cap on local coordinate updates per round (the H < coords side of
    /// the trade-off); `None` = one full pass. Sequential workers only.
    pub local_updates_per_round: Option<usize>,
    /// Per-worker speed multipliers on compute cost (1.0 = nominal; 3.0 =
    /// a 3× straggler). Shorter vectors repeat 1.0 for remaining workers.
    /// Synchronous rounds cost the *slowest* worker, so one straggler
    /// stretches every round — the barrier's known weakness.
    pub worker_slowdowns: Vec<f64>,
    /// Base RNG seed (workers derive per-worker seeds).
    pub seed: u64,
    /// How the K worker rounds execute on this host each epoch.
    pub runtime: RoundRuntime,
    /// Fault injection applied by the master each round.
    pub fault: FaultPlan,
    /// Wire format the delta traffic travels in ([`WireFormat::Raw`] is
    /// bit-identical to direct exchange).
    pub wire: WireFormat,
    /// Whether the driver retains a [`RoundMetrics`] entry per round
    /// (default on). Retained telemetry is the one per-round allocation
    /// that cannot be recycled; turn it off to make steady-state rounds
    /// allocation-free.
    pub record_round_metrics: bool,
    /// Host scheduler the round pool and any worker GPUs submit to;
    /// `None` (the default) uses the process-wide shared scheduler.
    pub sched: Option<Arc<Scheduler>>,
}

impl DistributedConfig {
    /// The paper's default cluster: K sequential-SCD workers on 10 GbE with
    /// averaging aggregation.
    pub fn new(workers: usize, form: Form) -> Self {
        DistributedConfig {
            workers,
            form,
            objective: ObjectiveKind::Ridge,
            aggregation: Aggregation::Averaging,
            strategy: None,
            solver: LocalSolverKind::Sequential,
            network: LinkProfile::ethernet_10g(),
            pcie: LinkProfile::pcie3_x16(),
            cpu: CpuProfile::xeon_e5_2640(),
            local_epochs_per_round: 1,
            local_updates_per_round: None,
            worker_slowdowns: Vec::new(),
            seed: 1,
            runtime: RoundRuntime::default(),
            fault: FaultPlan::none(),
            wire: WireFormat::Raw,
            record_round_metrics: true,
            sched: None,
        }
    }

    /// The effective partitioning strategy: the explicit one if set,
    /// otherwise a random partition whose RNG is derived from the cluster
    /// seed (so `with_seed` re-rolls the partition too).
    pub fn partition_strategy(&self) -> PartitionStrategy {
        self.strategy.unwrap_or(PartitionStrategy::Random(
            0xC0C0A ^ self.seed.wrapping_mul(0x9E3779B97F4A7C15),
        ))
    }

    /// Mark stragglers: worker k's compute costs are multiplied by
    /// `slowdowns[k]` (missing entries default to 1.0).
    pub fn with_worker_slowdowns(mut self, slowdowns: Vec<f64>) -> Self {
        assert!(
            slowdowns.iter().all(|&s| s > 0.0),
            "slowdown factors must be positive"
        );
        self.worker_slowdowns = slowdowns;
        self
    }

    /// Full local passes per communication round (H > 1).
    pub fn with_local_epochs_per_round(mut self, h: usize) -> Self {
        assert!(h >= 1, "need at least one local pass per round");
        self.local_epochs_per_round = h;
        self
    }

    /// Cap local coordinate updates per round (H < coords; sequential
    /// workers only).
    pub fn with_local_updates_per_round(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "need at least one update per round");
        self.local_updates_per_round = Some(cap);
        self
    }

    /// Select the aggregation rule.
    pub fn with_aggregation(mut self, aggregation: Aggregation) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Select the training objective every worker optimizes locally.
    /// Validity against the form and labels is checked when the cluster
    /// is stood up.
    pub fn with_objective(mut self, objective: ObjectiveKind) -> Self {
        self.objective = objective;
        self
    }

    /// Select the local engine.
    pub fn with_solver(mut self, solver: LocalSolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Select the partitioning strategy explicitly (disables the
    /// seed-derived default).
    pub fn with_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Select how worker rounds execute on this host.
    pub fn with_runtime(mut self, runtime: RoundRuntime) -> Self {
        self.runtime = runtime;
        self
    }

    /// Inject faults per the given plan.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Select the wire format for delta traffic.
    pub fn with_wire(mut self, wire: WireFormat) -> Self {
        self.wire = wire;
        self
    }

    /// Enable or disable per-round telemetry retention (on by default).
    pub fn with_round_metrics(mut self, record: bool) -> Self {
        self.record_round_metrics = record;
        self
    }

    /// Select the worker ↔ master link.
    pub fn with_network(mut self, network: LinkProfile) -> Self {
        self.network = network;
        self
    }

    /// Select the host ↔ device link on each worker.
    pub fn with_pcie(mut self, pcie: LinkProfile) -> Self {
        self.pcie = pcie;
        self
    }

    /// Select the host CPU profile for workers and master.
    pub fn with_cpu(mut self, cpu: CpuProfile) -> Self {
        self.cpu = cpu;
        self
    }

    /// Set the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Pin the cluster to an explicit host scheduler instead of the
    /// process-wide one — benchmarks and tests use this to control real
    /// parallelism regardless of the host's core count.
    pub fn with_scheduler(mut self, sched: Arc<Scheduler>) -> Self {
        self.sched = Some(sched);
        self
    }
}

/// What cluster setup failed on: worker construction, a store read, or a
/// configuration the data source cannot serve.
#[derive(Debug)]
pub enum BuildError {
    /// A worker's simulated GPU could not be stood up.
    Gpu(GpuError),
    /// A partition could not be loaded from the sharded store.
    Store(StoreError),
    /// The requested configuration is invalid for the data source.
    Config(String),
    /// More workers than coordinates to partition: some worker would get
    /// an empty partition.
    TooManyWorkers {
        /// The requested worker count K.
        workers: usize,
        /// Coordinates of the partitioned form (N for dual, M for primal).
        coords: usize,
        /// The form whose coordinates are partitioned.
        form: Form,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Gpu(e) => write!(f, "{e}"),
            BuildError::Store(e) => write!(f, "{e}"),
            BuildError::Config(msg) => write!(f, "{msg}"),
            BuildError::TooManyWorkers {
                workers,
                coords,
                form,
            } => {
                let unit = match form {
                    Form::Primal => "features",
                    Form::Dual => "examples",
                };
                write!(
                    f,
                    "cannot spread {coords} {unit} over {workers} workers (the {} form \
                     partitions {unit})",
                    form.label()
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The K constructed workers plus what distributing their partitions cost.
pub(crate) struct BuiltWorkers {
    pub workers: Vec<Worker>,
    pub setup: SetupCost,
}

/// Partition `full` per `config` from the given data source and construct
/// the K workers — the shared setup of [`DistributedScd`] and the
/// bounded-staleness [`crate::AsyncScd`], factored out so all drivers
/// stand on identical partitions, seeds, and per-worker cost profiles.
pub(crate) fn build_workers(
    full: &RidgeProblem,
    config: &DistributedConfig,
    source: &PartitionSource<'_>,
) -> Result<BuiltWorkers, BuildError> {
    // Objective × form × labels validity is checked once, on the full
    // problem, before any partition is cut (partitions inherit labels).
    config
        .objective
        .validate(full, config.form)
        .map_err(|err| BuildError::Config(err.to_string()))?;
    let coords = full.coords(config.form);
    if config.workers > coords {
        return Err(BuildError::TooManyWorkers {
            workers: config.workers,
            coords,
            form: config.form,
        });
    }
    let partitions: Vec<(LocalPartition, u64)> = match source {
        PartitionSource::Memory => partition_problem(
            full,
            config.form,
            config.workers,
            config.partition_strategy(),
        )
        .into_iter()
        .map(|p| {
            let bytes = memory_partition_bytes(&p);
            (p, bytes)
        })
        .collect(),
        PartitionSource::Store(store) => {
            check_store_shape(store, full, config.form).map_err(BuildError::Config)?;
            if config.partition_strategy() != PartitionStrategy::Contiguous {
                return Err(BuildError::Config(
                    "store-backed training requires the contiguous partition strategy \
                     (shards are row-major)"
                        .into(),
                ));
            }
            store_partitions(store, full, config.workers).map_err(BuildError::Store)?
        }
    };
    let (partitions, bytes_per_worker): (Vec<_>, Vec<u64>) = partitions.into_iter().unzip();
    let is_gpu = matches!(config.solver, LocalSolverKind::Tpa { .. });
    let setup = SetupCost::price(
        bytes_per_worker,
        &config.network,
        is_gpu.then_some(&config.pcie),
    );
    let workers = construct_workers(config, partitions).map_err(BuildError::Gpu)?;
    Ok(BuiltWorkers { workers, setup })
}

/// Turn partitions into workers: per-worker seeds, straggler profiles,
/// and local solver engines.
fn construct_workers(
    config: &DistributedConfig,
    partitions: Vec<LocalPartition>,
) -> Result<Vec<Worker>, GpuError> {
    // CoCoA+ makes adding safe by scaling the local quadratic term.
    let sigma_prime = if config.aggregation == Aggregation::CocoaPlus {
        config.workers as f64
    } else {
        1.0
    };
    let mut workers = Vec::with_capacity(config.workers);
    for (k, part) in partitions.into_iter().enumerate() {
        let worker_seed = config.seed ^ ((k as u64 + 1) * 0x5DEECE66D);
        let slowdown = config.worker_slowdowns.get(k).copied().unwrap_or(1.0);
        let worker_cpu = CpuProfile {
            seconds_per_nnz: config.cpu.seconds_per_nnz * slowdown,
            seconds_per_coord: config.cpu.seconds_per_coord * slowdown,
            host_stream_bytes_per_s: config.cpu.host_stream_bytes_per_s / slowdown,
            ..config.cpu.clone()
        };
        let solver: Box<dyn LocalSolver> = match &config.solver {
            LocalSolverKind::Sequential => {
                let mut s = match config.form {
                    Form::Primal => SequentialScd::primal(&part.problem, worker_seed),
                    Form::Dual => SequentialScd::dual(&part.problem, worker_seed),
                }
                .with_cpu(worker_cpu.clone())
                .with_quadratic_scale(sigma_prime)
                .with_objective(config.objective);
                if let Some(cap) = config.local_updates_per_round {
                    s = s.with_updates_per_call(cap);
                }
                Box::new(s)
            }
            LocalSolverKind::AsyncSim {
                mode,
                threads,
                paper_scale_staleness,
            } => {
                let coords = part.problem.coords(config.form);
                let mut s =
                    AsyncSimScd::new(&part.problem, config.form, *mode, *threads, worker_seed)
                        .with_cpu(worker_cpu.clone());
                if *paper_scale_staleness {
                    let reference = match config.form {
                        Form::Primal => 680_715,
                        Form::Dual => 262_938,
                    };
                    s = s.with_staleness(scaled_staleness(*threads, coords, reference));
                }
                Box::new(
                    s.with_quadratic_scale(sigma_prime)
                        .with_objective(config.objective),
                )
            }
            LocalSolverKind::Tpa {
                profile,
                lanes,
                deterministic,
            } => {
                let mut gpu = Gpu::new(profile.clone());
                if let Some(sched) = &config.sched {
                    gpu = gpu.with_scheduler(Arc::clone(sched));
                }
                if *deterministic {
                    gpu = gpu.try_with_host_threads(1)?;
                }
                let s = TpaScd::new(&part.problem, config.form, Arc::new(gpu), worker_seed)?
                    .with_lanes(*lanes)
                    .with_cpu(worker_cpu.clone())
                    .with_quadratic_scale(sigma_prime)
                    .with_objective(config.objective);
                Box::new(s)
            }
        };
        workers.push(Worker::new(
            k,
            part,
            solver,
            config.form,
            worker_cpu,
            config.pcie.clone(),
        )
        .with_local_epochs(config.local_epochs_per_round));
    }
    Ok(workers)
}

/// Golden-section line search for γ on the margin-loss duals (SVM,
/// logistic), where Eq. 7's ridge quadratic does not apply: minimize the
/// primal value of the induced iterate β(γ) = (w̄ + γΔw̄)/(Nλ) over
/// γ ∈ [0, 1] using the objective's per-example loss oracle. Two matvecs
/// up front; each probe is O(N) scalar work.
fn margin_gamma_search(
    objective: ObjectiveKind,
    full: &RidgeProblem,
    shared: &[f32],
    delta: &[f32],
) -> f64 {
    let n = full.n() as f64;
    let n_lambda = full.n_lambda();
    let t0 = full.csr().matvec(shared).expect("shared has length M");
    let t1 = full.csr().matvec(delta).expect("delta has length M");
    // margin_i(γ) = y_i·(t0_i + γ·t1_i)/(Nλ), precomputed as m0 + γ·m1.
    let (m0, m1): (Vec<f64>, Vec<f64>) = t0
        .iter()
        .zip(&t1)
        .zip(full.labels())
        .map(|((&a, &b), &y)| (y as f64 * a as f64 / n_lambda, y as f64 * b as f64 / n_lambda))
        .unzip();
    // ‖w̄ + γΔw̄‖²/(2λN²) — the regularizer of the induced iterate.
    let s1: f64 = shared
        .iter()
        .zip(delta)
        .map(|(&w, &d)| w as f64 * d as f64)
        .sum();
    let s2: f64 = delta.iter().map(|&d| (d as f64) * (d as f64)).sum();
    let reg_scale = 1.0 / (2.0 * full.lambda() * n * n);
    let primal_of = |g: f64| {
        let loss: f64 = m0
            .iter()
            .zip(&m1)
            .map(|(&a, &b)| objective.margin_loss(a + g * b))
            .sum::<f64>()
            / n;
        loss + (2.0 * g * s1 + g * g * s2) * reg_scale
    };
    golden_min(primal_of, 0.0, 1.0)
}

/// The master's γ rule over the `k_eff` surviving workers. Free function
/// shared verbatim by the synchronous and bounded-staleness drivers, so
/// τ=0 async runs make bit-identical choices.
///
/// Whatever the rule computes, the returned γ is clamped to a positive
/// finite value: a degenerate round (all-zero aggregate delta, a line
/// search wandering to γ ≤ 0, a 0/0 in the closed forms) falls back to
/// the always-safe averaging step 1/K′ instead of poisoning the shared
/// vector with a NaN or dragging it backwards.
#[allow(clippy::too_many_arguments)] // internal: mirrors the reduce step's full state
pub(crate) fn choose_gamma(
    aggregation: Aggregation,
    form: Form,
    objective: ObjectiveKind,
    full: &RidgeProblem,
    shared: &[f32],
    delta: &[f32],
    reduced: &WorkerScalars,
    k_eff: usize,
) -> f64 {
    let safe = 1.0 / k_eff as f64;
    let gamma = match aggregation {
        Aggregation::Averaging => safe,
        Aggregation::Adding | Aggregation::CocoaPlus => 1.0,
        // The Eq. 7 closed forms and the quadratic line search are
        // ridge-specific; the margin duals get a value-oracle search,
        // the ℓ1 objectives the conservative averaging step.
        Aggregation::Adaptive | Aggregation::LineSearch
            if objective != ObjectiveKind::Ridge =>
        {
            match objective {
                ObjectiveKind::Svm | ObjectiveKind::Logistic => {
                    margin_gamma_search(objective, full, shared, delta)
                }
                _ => safe,
            }
        }
        Aggregation::LineSearch => match form {
            Form::Primal => {
                // φ(γ) = (1/2N)‖w+γΔw−y‖² + λ(γ⟨β,Δβ⟩ + γ²‖Δβ‖²/2) + const.
                let n = full.n() as f64;
                let lambda = full.lambda();
                let fit_a: f64 = delta
                    .iter()
                    .map(|&d| (d as f64) * (d as f64))
                    .sum::<f64>()
                    / (2.0 * n);
                let fit_b: f64 = shared
                    .iter()
                    .zip(full.labels())
                    .zip(delta)
                    .map(|((&w, &y), &d)| (w as f64 - y as f64) * d as f64)
                    .sum::<f64>()
                    / n;
                let phi = |g: f64| {
                    fit_a * g * g
                        + fit_b * g
                        + lambda * (g * reduced.x_dot_dx + g * g * reduced.dx_sq / 2.0)
                };
                golden_min(phi, -4.0, 4.0)
            }
            Form::Dual => {
                // maximize ψ(γ) ⇔ minimize −ψ(γ).
                let n = full.n() as f64;
                let lambda = full.lambda();
                let quad_w: f64 = delta
                    .iter()
                    .map(|&d| (d as f64) * (d as f64))
                    .sum::<f64>()
                    / (2.0 * lambda);
                let lin_w: f64 = shared
                    .iter()
                    .zip(delta)
                    .map(|(&w, &d)| w as f64 * d as f64)
                    .sum::<f64>()
                    / lambda;
                let neg_psi = |g: f64| {
                    n / 2.0 * (2.0 * g * reduced.x_dot_dx + g * g * reduced.dx_sq)
                        + quad_w * g * g
                        + lin_w * g
                        - g * reduced.dx_dot_y
                };
                golden_min(neg_psi, -4.0, 4.0)
            }
        },
        Aggregation::Adaptive => match form {
            Form::Primal => optimal_gamma_primal(
                full.labels(),
                shared,
                delta,
                reduced.x_dot_dx,
                reduced.dx_sq,
                full.n_lambda(),
            ),
            Form::Dual => optimal_gamma_dual(
                shared,
                delta,
                reduced.dx_dot_y,
                reduced.x_dot_dx,
                reduced.dx_sq,
                full.n(),
                full.lambda(),
            ),
        },
    };
    if gamma.is_finite() && gamma > 0.0 {
        gamma
    } else {
        safe
    }
}

/// Callback a driver invokes at each round boundary with the 1-based
/// round index and its freshly-assembled global weights (in the driver's
/// native form: β for primal runs, α for dual runs — consumers convert
/// dual iterates through `ObjectiveKind::induced_primal`). This is the
/// publication hook the serving side hangs a model slot on: the driver
/// stays ignorant of who consumes the snapshots.
pub type RoundObserver = Box<dyn FnMut(u64, &[f32]) + Send>;

/// Reusable per-epoch buffers of [`DistributedScd`]: after the first
/// epoch has grown their capacities, steady-state rounds allocate only
/// for retained telemetry (and nothing at all with
/// [`DistributedConfig::record_round_metrics`] off).
#[derive(Default)]
struct EpochScratch {
    /// Whether worker w committed a surviving round this epoch.
    committed: Vec<bool>,
    worker_time: Vec<TimeBreakdown>,
    pending: Vec<usize>,
    still_pending: Vec<usize>,
    dropped: Vec<usize>,
    /// The aggregated (post-codec) delta.
    delta: Vec<f32>,
    scalars: Vec<WorkerScalars>,
    /// Encoded payload; `encode_into` recycles its buffers.
    payload: scd_wire::WirePayload,
    /// Dense decode of one payload.
    decoded: Vec<f32>,
    /// Observer-assembly scratch for the global weights.
    weights: Vec<f32>,
}

/// The distributed solver (implements [`Solver`], so the same harness
/// drives single-node and distributed runs).
pub struct DistributedScd {
    form: Form,
    objective: ObjectiveKind,
    aggregation: Aggregation,
    workers: Vec<Worker>,
    /// One-time data-distribution cost of standing the cluster up.
    setup: SetupCost,
    /// The master's aggregated shared vector w⁽ᵗ⁾ / w̄⁽ᵗ⁾.
    shared: Vec<f32>,
    weights_total: usize,
    cpu: CpuProfile,
    network: LinkProfile,
    last_gamma: f64,
    /// Host-thread pool for concurrent rounds; `None` = inline loop.
    pool: Option<RoundPool>,
    fault: FaultPlan,
    /// Rounds completed so far (keys the fault schedule).
    epoch_index: usize,
    round_metrics: Vec<RoundMetrics>,
    /// Format the delta traffic travels in.
    wire: WireFormat,
    /// The codec shipping the deltas (stateful for error feedback).
    codec: Box<dyn DeltaCodec>,
    /// Cumulative dense-f32 bytes across all rounds (both legs).
    bytes_raw_total: usize,
    /// Cumulative encoded bytes across all rounds (both legs).
    bytes_encoded_total: usize,
    /// Round-boundary publication hook (model serving, checkpointing).
    observer: Option<RoundObserver>,
    /// Whether a [`RoundMetrics`] entry is retained per round.
    record_metrics: bool,
    /// Reused epoch buffers (see [`EpochScratch`]).
    scratch: EpochScratch,
}

impl DistributedScd {
    /// Partition the in-memory problem and stand up the cluster.
    pub fn new(full: &RidgeProblem, config: &DistributedConfig) -> Result<Self, BuildError> {
        Self::from_source(full, config, &PartitionSource::Memory)
    }

    /// Stand up the cluster with each worker's partition loaded from an
    /// on-disk sharded dataset: worker k maps only the chunks overlapping
    /// its contiguous row range, and the setup cost charges the *actual*
    /// chunk-file bytes it moved. Requires the dual form and the
    /// contiguous partition strategy (shards are row-major), and a store
    /// whose shape matches `full`.
    pub fn from_store(
        full: &RidgeProblem,
        store: &ShardedDataset,
        config: &DistributedConfig,
    ) -> Result<Self, BuildError> {
        Self::from_source(full, config, &PartitionSource::Store(store))
    }

    /// Stand up the cluster from an explicit data source.
    pub fn from_source(
        full: &RidgeProblem,
        config: &DistributedConfig,
        source: &PartitionSource<'_>,
    ) -> Result<Self, BuildError> {
        let BuiltWorkers { workers, setup } = build_workers(full, config, source)?;
        // A one-thread pool would run the same inline loop with extra
        // hand-offs; only stand the pool up when it can overlap rounds.
        let threads = config.runtime.pool_threads(config.workers);
        let pool = (threads > 1).then(|| match &config.sched {
            Some(sched) => RoundPool::on(Arc::clone(sched), threads),
            None => RoundPool::new(threads),
        });
        Ok(DistributedScd {
            form: config.form,
            objective: config.objective,
            aggregation: config.aggregation,
            workers,
            setup,
            shared: vec![0.0; full.shared_len(config.form)],
            weights_total: full.coords(config.form),
            cpu: config.cpu.clone(),
            network: config.network.clone(),
            last_gamma: 1.0,
            pool,
            fault: config.fault,
            epoch_index: 0,
            round_metrics: Vec::new(),
            wire: config.wire,
            codec: config.wire.codec(),
            bytes_raw_total: 0,
            bytes_encoded_total: 0,
            observer: None,
            record_metrics: config.record_round_metrics,
            scratch: EpochScratch::default(),
        })
    }

    /// Install a round-boundary observer; it fires after every completed
    /// epoch with the current assembled global weights.
    pub fn set_round_observer(&mut self, observer: RoundObserver) {
        self.observer = Some(observer);
    }

    /// Number of workers K.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The one-time data-distribution cost paid before the first round:
    /// per-worker partition bytes plus the network (and, for GPU workers,
    /// PCIe) time to move them. Store-backed clusters charge the actual
    /// on-disk chunk bytes; in-memory clusters charge a size estimate.
    /// Kept separate from [`Solver::epoch`] stats, which model steady
    /// state.
    pub fn setup_cost(&self) -> &SetupCost {
        &self.setup
    }

    /// The aggregation parameter chosen in the most recent epoch (Fig. 5's
    /// y-axis).
    pub fn last_gamma(&self) -> f64 {
        self.last_gamma
    }

    /// Host threads executing rounds concurrently (1 = inline loop).
    pub fn round_threads(&self) -> usize {
        self.pool.as_ref().map_or(1, RoundPool::threads)
    }

    /// Telemetry of every round run so far, in order.
    pub fn round_metrics(&self) -> &[RoundMetrics] {
        &self.round_metrics
    }

    /// The full round-metrics series as a JSON array.
    pub fn metrics_json(&self) -> String {
        RoundMetrics::series_to_json(&self.round_metrics)
    }

    /// The wire format delta traffic travels in.
    pub fn wire(&self) -> WireFormat {
        self.wire
    }

    /// Cumulative (dense-f32, encoded) delta-traffic bytes over every
    /// round so far, both legs plus retry re-sends.
    pub fn wire_bytes_total(&self) -> (usize, usize) {
        (self.bytes_raw_total, self.bytes_encoded_total)
    }

    /// Run the rounds of the `pending` workers (unique ids) against the
    /// current shared vector, inline or on the pool. Each result lands in
    /// its worker's reused round buffer ([`Worker::round`]) — nothing is
    /// returned, cloned, or allocated here.
    fn run_attempt(&mut self, pending: &[usize]) {
        let Some(pool) = &self.pool else {
            let shared = &self.shared;
            for &wid in pending {
                self.workers[wid].run_round(shared);
            }
            return;
        };

        /// Worker array base pointer, shipped to the pool tasks.
        struct WorkerBase(*mut Worker);
        // SAFETY: `Worker: Send` (LocalSolver requires Send) and every
        // task dereferences a distinct element (pending ids are unique).
        unsafe impl Sync for WorkerBase {}
        impl WorkerBase {
            /// # Safety
            /// `wid` must be in bounds and no other live reference to
            /// worker `wid` may exist for the returned borrow's lifetime.
            #[allow(clippy::mut_from_ref)]
            unsafe fn worker(&self, wid: usize) -> &mut Worker {
                &mut *self.0.add(wid)
            }
        }

        let shared = &self.shared;
        let base = WorkerBase(self.workers.as_mut_ptr());
        pool.run(pending.len(), &|i| {
            // SAFETY: `pending` holds unique in-bounds worker ids and each
            // task index is claimed exactly once, so this is the only
            // live reference to worker `pending[i]`; its result stays in
            // the worker's own round buffer.
            let worker = unsafe { base.worker(pending[i]) };
            worker.run_round(shared);
        });
    }

    /// Scatter the workers' local weights into the global coordinate space.
    pub fn assemble_weights(&self) -> Vec<f32> {
        let mut global = Vec::new();
        self.assemble_weights_into(&mut global);
        global
    }

    /// [`Self::assemble_weights`] into a reusable buffer.
    pub fn assemble_weights_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.weights_total, 0.0);
        for worker in &self.workers {
            for (local, &g) in worker.global_ids().iter().enumerate() {
                out[g] = worker.weights()[local];
            }
        }
    }
}

impl Solver for DistributedScd {
    fn form(&self) -> Form {
        self.form
    }

    fn objective(&self) -> ObjectiveKind {
        self.objective
    }

    fn name(&self) -> String {
        format!(
            "Distributed {} (K={}, {})",
            self.workers
                .first()
                .map(|w| w.solver_name())
                .unwrap_or_else(|| "SCD".into()),
            self.workers.len(),
            self.aggregation.label()
        )
    }

    fn epoch(&mut self, full: &RidgeProblem) -> EpochStats {
        let k = self.workers.len();
        let epoch_idx = self.epoch_index;
        self.epoch_index += 1;

        // Phase 1: run the rounds (concurrently when the pool is up) and
        // play the fault plan — delayed rounds cost more, lost rounds
        // (dropped, or slower than the master's timeout) are re-requested
        // up to `max_retries` times, then aggregated around. All epoch
        // state lives in the reused scratch, moved out for the borrow
        // checker and restored at the end.
        let mut s = std::mem::take(&mut self.scratch);
        s.committed.clear();
        s.committed.resize(k, false);
        s.worker_time.clear();
        s.worker_time.resize(k, TimeBreakdown::default());
        s.dropped.clear();
        s.pending.clear();
        s.pending.extend(0..k);
        let mut retries = 0usize;
        let max_attempts = if self.fault.is_active() {
            1 + self.fault.max_retries
        } else {
            1
        };
        for attempt in 0..max_attempts {
            if s.pending.is_empty() {
                break;
            }
            self.run_attempt(&s.pending);
            s.still_pending.clear();
            for slot in 0..s.pending.len() {
                let wid = s.pending[slot];
                let fate = self.fault.fate(epoch_idx, wid, attempt, k);
                if fate == RoundFate::Delayed {
                    let b = &mut self.workers[wid].round_mut().breakdown;
                    b.gpu *= self.fault.delay_factor;
                    b.host *= self.fault.delay_factor;
                    b.pcie *= self.fault.delay_factor;
                    b.network *= self.fault.delay_factor;
                }
                let total = self.workers[wid].round().breakdown.total();
                let timed_out = self
                    .fault
                    .timeout_seconds
                    .is_some_and(|limit| total > limit);
                if fate == RoundFate::Dropped || timed_out {
                    // The master waits out the timeout (or, with none
                    // configured, learns of the loss after the round's
                    // nominal duration) — a wall-clock charge with no
                    // usable result behind it.
                    let waited = self.fault.timeout_seconds.unwrap_or(total);
                    s.worker_time[wid].network += waited;
                    // The worker's speculative local pass is discarded so
                    // its state stays consistent with what the master will
                    // aggregate.
                    self.workers[wid].discard_round();
                    if attempt + 1 < max_attempts {
                        retries += 1;
                        // The re-requested round re-sends the worker's
                        // *encoded* payload as a unicast outside the
                        // reduce tree — charge the encoded bytes, not the
                        // dense frame.
                        s.worker_time[wid].network += self.network.retry_request_seconds()
                            + self
                                .network
                                .transfer_seconds(self.codec.upload_bytes(self.shared.len()));
                        s.still_pending.push(wid);
                    } else {
                        s.dropped.push(wid);
                    }
                } else {
                    s.worker_time[wid].accumulate(&self.workers[wid].round().breakdown);
                    s.committed[wid] = true;
                }
            }
            std::mem::swap(&mut s.pending, &mut s.still_pending);
        }

        // Phase 2: reduce the K′ surviving deltas in worker-id order —
        // the deterministic order that keeps concurrent execution
        // bit-identical to the sequential reference loop. Every surviving
        // delta goes through the codec: what the master aggregates is what
        // the wire carried. Dropped rounds never reach `encode`, so a
        // stateful codec's per-worker residual only advances on commit.
        // The payload and decode scratch recycle their buffers, so this
        // loop stops allocating once capacities have grown.
        s.delta.clear();
        s.delta.resize(self.shared.len(), 0.0);
        s.scalars.clear();
        for wid in 0..k {
            if !s.committed[wid] {
                continue;
            }
            let round = self.workers[wid].round();
            self.codec.encode_into(wid, &round.delta_shared, &mut s.payload);
            self.codec.decode_into(&s.payload, &mut s.decoded);
            dense::axpy(1.0, &s.decoded, &mut s.delta);
            s.scalars.push(round.scalars);
        }
        let k_eff = s.scalars.len();
        let reduced = WorkerScalars::reduce(s.scalars.iter().copied());

        // Master: choose γ (degraded aggregation rescales over K′).
        let gamma = if k_eff == 0 {
            0.0
        } else {
            choose_gamma(
                self.aggregation,
                self.form,
                self.objective,
                full,
                &self.shared,
                &s.delta,
                &reduced,
                k_eff,
            )
        };
        self.last_gamma = gamma;

        // Apply on the master and rescale on the surviving workers (a
        // dropped worker never hears γ; its discarded Δ keeps it
        // consistent with the master regardless).
        if k_eff > 0 {
            dense::axpy(gamma as f32, &s.delta, &mut self.shared);
            for wid in 0..k {
                if s.committed[wid] {
                    self.workers[wid].apply_gamma(gamma);
                }
            }
        }

        // Synchronous barrier: the round costs the slowest worker's
        // *total* time; keep that worker's per-category breakdown.
        let slowest = (0..k)
            .max_by(|&a, &b| {
                s.worker_time[a]
                    .total()
                    .partial_cmp(&s.worker_time[b].total())
                    .expect("round times are finite")
            })
            .unwrap_or(0);
        let mut breakdown = s.worker_time[slowest];

        // Master-side aggregation arithmetic: K′ Δ-vectors summed + applied.
        breakdown.host += self
            .cpu
            .host_vector_op_seconds((k_eff + 1) * self.shared.len());
        // Reduce of the K′ arriving Δ-vectors + broadcast to all K workers,
        // plus the adaptive scalars (a few extra bytes, as the paper
        // stresses).
        let extra_scalars = if self.aggregation == Aggregation::Adaptive {
            3
        } else {
            0
        };
        let len = self.shared.len();
        let upload_bytes = self.codec.upload_bytes(len);
        let download_bytes = self.codec.broadcast_bytes(len, k_eff);
        breakdown.network +=
            self.network
                .codec_round_seconds(k_eff, upload_bytes, k, download_bytes, extra_scalars);

        // Byte accounting over both legs plus retry re-sends: K′ uploads
        // into the reduce, `retries` unicast re-sends, K broadcast copies.
        let bytes_raw = 4 * len * (k_eff + retries + k);
        let bytes_encoded =
            upload_bytes * (k_eff + retries) + download_bytes * k;
        self.bytes_raw_total += bytes_raw;
        self.bytes_encoded_total += bytes_encoded;

        // Per-round metric rows allocate (per-worker timings, wire label);
        // benches chasing zero-allocation rounds turn them off via
        // `DistributedConfig::with_round_metrics(false)`.
        if self.record_metrics {
            self.round_metrics.push(RoundMetrics {
                epoch: epoch_idx,
                worker_round_seconds: s.worker_time.iter().map(TimeBreakdown::total).collect(),
                barrier_seconds: s.worker_time[slowest].total(),
                gamma,
                // Synchronous rounds apply every surviving delta at staleness
                // 0 by construction.
                staleness_hist: vec![k_eff],
                retries,
                dropped_workers: s.dropped.clone(),
                survivors: k_eff,
                wire: self.wire.label(),
                bytes_raw,
                bytes_encoded,
                compression_ratio: if bytes_encoded > 0 {
                    bytes_raw as f64 / bytes_encoded as f64
                } else {
                    1.0
                },
            });
        }

        let updates = (0..k)
            .filter(|&wid| s.committed[wid])
            .map(|wid| self.workers[wid].coords())
            .sum();

        // Round boundary: the aggregated model is consistent — publish it.
        if self.observer.is_some() {
            self.assemble_weights_into(&mut s.weights);
            if let Some(observer) = self.observer.as_mut() {
                observer(self.epoch_index as u64, &s.weights);
            }
        }
        self.scratch = s;
        EpochStats { updates, breakdown }
    }

    fn weights(&self) -> Vec<f32> {
        self.assemble_weights()
    }

    fn shared_vector(&self) -> Vec<f32> {
        self.shared.clone()
    }
}

