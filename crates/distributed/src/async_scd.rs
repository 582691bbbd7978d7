//! Bounded-staleness asynchronous rounds on the deterministic
//! discrete-event engine ([`scd_events`]).
//!
//! Where [`crate::DistributedScd`] advances in lock-step rounds — every
//! worker computes against the same broadcast snapshot, the master
//! reduces all K deltas behind a barrier — this driver lets each worker
//! free-run: pull the master's latest state, compute a round, push the
//! delta, and (staleness bound permitting) immediately pull again. The
//! staleness bound τ is the SSP-style knob interpolating between the two
//! regimes:
//!
//! * **τ = 0** — a worker may only start round r+1 once *every* worker
//!   has finished round r. The master buffers the K pushes of a round
//!   and aggregates them through *exactly* the synchronous driver's code
//!   path (worker-id-order encode → decode → sum, scalar reduce, shared
//!   [`choose_gamma`], one apply) — so the trajectory is **bit-identical**
//!   to [`crate::DistributedScd`]; the event engine re-derives only
//!   *when* things happen, never *what* is computed.
//! * **0 < τ < ∞** — a worker may run at most τ rounds ahead of the
//!   slowest worker. Pushes are applied on arrival (γ chosen for the
//!   single delta, with averaging still damping by 1/K), so fast workers
//!   overlap their communication with slow workers' compute.
//! * **τ = ∞** — the event-driven parameter server (Li et al. [6], the
//!   distribution family §V-A sets aside for synchronous rounds):
//!   nothing gates a worker but its own round-trip latency, and deltas
//!   land in simulated-arrival order.
//!
//! ### Clock model
//!
//! Every duration comes from the calibrated perf models: a worker's
//! compute time is its round's [`scd_core::TimeBreakdown`] total, uploads
//! cost one [`LinkProfile::transfer_seconds`] of the codec's encoded
//! bytes, master applies cost `host_vector_op_seconds`, and snapshot
//! grants travel as dense `4·len`-byte state (snapshots are full state,
//! not deltas — the delta codecs do not apply). Fault plans inject
//! *delays* (compute scaled by `delay_factor`) and *drops* (the push
//! arrives as a loss notification; the master discards it, the worker
//! rolls back) keyed by the same deterministic fate hash as the
//! synchronous driver. There are no retries here — a retry is a
//! synchronous-barrier concept; an async worker just pulls fresh state
//! and moves on. `timeout_seconds` is likewise ignored (there is no
//! barrier to time out of).
//!
//! Staleness is *measured*, not just bounded: each applied delta records
//! `master_version(apply) − master_version(pull)` and the per-epoch
//! histogram lands in [`RoundMetrics::staleness_hist`].

use crate::driver::{build_workers, choose_gamma, Aggregation, DistributedConfig};
use crate::fault::{FaultPlan, RoundFate};
use crate::metrics::RoundMetrics;
use crate::worker::{Worker, WorkerRound};
use gpu_sim::GpuError;
use scd_core::{
    EpochStats, Form, ObjectiveKind, RidgeProblem, Solver, TimeBreakdown, WorkerScalars,
};
use scd_events::{ActorId, Engine};
use scd_perf_model::{CpuProfile, LinkProfile};
use scd_sparse::dense;
use scd_wire::{DeltaCodec, WireFormat, WirePayload};

/// The staleness bound τ: how many rounds the fastest worker may run
/// ahead of the slowest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staleness {
    /// At most τ rounds of lead; `Bounded(0)` is the synchronous barrier.
    Bounded(usize),
    /// No bound — free-running parameter server.
    Unbounded,
}

impl Staleness {
    /// Parse a CLI value: a non-negative integer, or `inf` / `unbounded`.
    pub fn parse(s: &str) -> Result<Staleness, String> {
        match s {
            "inf" | "unbounded" => Ok(Staleness::Unbounded),
            _ => s
                .parse::<usize>()
                .map(Staleness::Bounded)
                .map_err(|_| format!("invalid staleness '{s}' (want an integer or 'inf')")),
        }
    }

    /// Whether a worker `lead` rounds ahead of the slowest may proceed.
    fn allows(self, lead: usize) -> bool {
        match self {
            Staleness::Bounded(tau) => lead <= tau,
            Staleness::Unbounded => true,
        }
    }
}

impl std::fmt::Display for Staleness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Staleness::Bounded(tau) => write!(f, "{tau}"),
            Staleness::Unbounded => write!(f, "inf"),
        }
    }
}

/// What travels through the event queue.
enum AsyncEvent {
    /// A state snapshot arrives at `worker`, which immediately computes
    /// its next round against it. The state is captured at send time —
    /// master mutations during flight must not leak into it.
    Snapshot {
        worker: usize,
        state: Vec<f32>,
        version: u64,
    },
    /// `worker`'s delta (stored in `in_flight`) arrives at the master.
    Push { worker: usize },
}

/// A delta on the wire, waiting for its arrival event to pop.
struct PendingPush {
    round: WorkerRound,
    /// The push was lost in flight; the master sees only the loss.
    dropped: bool,
    /// Master version the worker's snapshot carried.
    pulled_version: u64,
}

/// Per-epoch accumulators, reset every [`AsyncScd::epoch`].
struct EpochAccum {
    busy: Vec<TimeBreakdown>,
    master_host: f64,
    staleness_hist: Vec<usize>,
    dropped: Vec<usize>,
    applied: usize,
    updates: usize,
    bytes_raw: usize,
    bytes_encoded: usize,
    last_gamma: f64,
}

impl EpochAccum {
    fn new(k: usize) -> Self {
        EpochAccum {
            busy: vec![TimeBreakdown::default(); k],
            master_host: 0.0,
            staleness_hist: Vec::new(),
            dropped: Vec::new(),
            applied: 0,
            updates: 0,
            bytes_raw: 0,
            bytes_encoded: 0,
            last_gamma: 0.0,
        }
    }

    fn bump_staleness(&mut self, stale: usize, count: usize) {
        if self.staleness_hist.len() <= stale {
            self.staleness_hist.resize(stale + 1, 0);
        }
        self.staleness_hist[stale] += count;
    }
}

/// The bounded-staleness asynchronous driver (implements [`Solver`]).
pub struct AsyncScd {
    form: Form,
    objective: ObjectiveKind,
    aggregation: Aggregation,
    workers: Vec<Worker>,
    /// The master's authoritative shared vector.
    shared: Vec<f32>,
    weights_total: usize,
    cpu: CpuProfile,
    network: LinkProfile,
    fault: FaultPlan,
    wire: WireFormat,
    codec: Box<dyn DeltaCodec>,
    staleness: Staleness,
    engine: Engine<AsyncEvent>,
    /// Initial snapshots scheduled (first `epoch` call kicks this off).
    started: bool,
    /// Applies so far — the version stamp on snapshots.
    master_version: u64,
    /// Rounds completed per worker (push arrived at the master).
    completed: Vec<usize>,
    /// Workers that finished a push and await a staleness-gated grant.
    waiting: Vec<bool>,
    /// One in-flight push per worker (workers are serial).
    in_flight: Vec<Option<PendingPush>>,
    /// τ=0 only: buffered pushes of the current barrier round.
    bucket: Vec<Option<PendingPush>>,
    bucket_count: usize,
    last_gamma: f64,
    epoch_index: usize,
    round_metrics: Vec<RoundMetrics>,
    bytes_raw_total: usize,
    bytes_encoded_total: usize,
    /// Reused codec scratch: the encoded payload and its decoded dense
    /// form, recycled across every apply.
    payload_scratch: WirePayload,
    decoded_scratch: Vec<f32>,
}

impl AsyncScd {
    /// Partition the problem and stand up the cluster on the event
    /// engine. Partitions, seeds, and per-worker cost profiles are built
    /// by the same [`build_workers`] as the synchronous driver — only the
    /// round protocol differs. `config.runtime` is ignored: event order
    /// already fixes the execution, there is no pool to race.
    pub fn new(
        full: &RidgeProblem,
        config: &DistributedConfig,
        staleness: Staleness,
    ) -> Result<Self, GpuError> {
        assert!(config.workers >= 1, "need at least one worker");
        let workers = build_workers(full, config, &crate::source::PartitionSource::Memory)
            .map_err(crate::driver::BuildError::expect_gpu)?
            .workers;
        let k = workers.len();
        Ok(AsyncScd {
            form: config.form,
            objective: config.objective,
            aggregation: config.aggregation,
            workers,
            shared: vec![0.0; full.shared_len(config.form)],
            weights_total: full.coords(config.form),
            cpu: config.cpu.clone(),
            network: config.network.clone(),
            fault: config.fault,
            wire: config.wire,
            codec: config.wire.codec(),
            staleness,
            engine: Engine::new(),
            started: false,
            master_version: 0,
            completed: vec![0; k],
            waiting: vec![false; k],
            in_flight: (0..k).map(|_| None).collect(),
            bucket: (0..k).map(|_| None).collect(),
            bucket_count: 0,
            last_gamma: 1.0,
            epoch_index: 0,
            round_metrics: Vec::new(),
            bytes_raw_total: 0,
            bytes_encoded_total: 0,
            payload_scratch: WirePayload::default(),
            decoded_scratch: Vec::new(),
        })
    }

    /// Number of workers K.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The staleness bound τ.
    pub fn staleness(&self) -> Staleness {
        self.staleness
    }

    /// γ applied by the most recent delta (or barrier round).
    pub fn last_gamma(&self) -> f64 {
        self.last_gamma
    }

    /// Telemetry of every epoch run so far, in order.
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

    /// Cumulative (dense-f32, encoded) traffic bytes, uploads + snapshots.
    pub fn wire_bytes_total(&self) -> (usize, usize) {
        (self.bytes_raw_total, self.bytes_encoded_total)
    }

    /// Enable (or disable) per-event trace recording on the engine.
    pub fn set_trace(&mut self, enabled: bool) {
        self.engine.set_trace(enabled);
    }

    /// Rendered trace lines, one per recorded event.
    pub fn trace_lines(&self) -> Vec<String> {
        self.engine
            .trace()
            .iter()
            .map(|entry| entry.render())
            .collect()
    }

    /// Scatter the workers' local weights into the global coordinate
    /// space.
    pub fn assemble_weights(&self) -> Vec<f32> {
        let mut global = vec![0.0f32; self.weights_total];
        for worker in &self.workers {
            for (local, &g) in worker.global_ids().iter().enumerate() {
                global[g] = worker.weights()[local];
            }
        }
        global
    }

    fn completed_total(&self) -> usize {
        self.completed.iter().sum()
    }

    /// A snapshot arrived at `worker`: compute the round and put the
    /// push on the wire.
    fn on_snapshot(&mut self, worker: usize, state: Vec<f32>, version: u64, accum: &mut EpochAccum) {
        let k = self.workers.len();
        let round_idx = self.completed[worker];
        let mut round = self.workers[worker].run_round(&state).clone();
        let fate = self.fault.fate(round_idx, worker, 0, k);
        if fate == RoundFate::Delayed {
            round.breakdown.gpu *= self.fault.delay_factor;
            round.breakdown.host *= self.fault.delay_factor;
            round.breakdown.pcie *= self.fault.delay_factor;
            round.breakdown.network *= self.fault.delay_factor;
        }
        let compute = round.breakdown.total();
        let upload = self
            .network
            .transfer_seconds(self.codec.upload_bytes(self.shared.len()));
        accum.busy[worker].accumulate(&round.breakdown);
        accum.busy[worker].network += upload;
        self.engine.record(
            ActorId(worker),
            format!("round {round_idx} computed from v{version}"),
        );
        self.in_flight[worker] = Some(PendingPush {
            round,
            dropped: fate == RoundFate::Dropped,
            pulled_version: version,
        });
        self.engine
            .schedule_in(compute + upload, AsyncEvent::Push { worker });
    }

    /// `worker`'s push arrived at the master.
    fn on_push(&mut self, worker: usize, full: &RidgeProblem, accum: &mut EpochAccum) {
        let push = self.in_flight[worker]
            .take()
            .expect("push event without an in-flight round");
        if self.staleness == Staleness::Bounded(0) {
            self.bucket[worker] = Some(push);
            self.bucket_count += 1;
            if self.bucket_count == self.workers.len() {
                self.apply_barrier_bucket(full, accum);
            }
        } else {
            self.apply_on_arrival(worker, push, full, accum);
        }
    }

    /// τ=0: all K pushes of the round are in — run the synchronous
    /// driver's aggregation verbatim (worker-id order, shared γ rule, one
    /// apply), so τ=0 trajectories are bit-identical to
    /// [`crate::DistributedScd`].
    fn apply_barrier_bucket(&mut self, full: &RidgeProblem, accum: &mut EpochAccum) {
        let k = self.workers.len();
        let len = self.shared.len();
        let upload_bytes = self.codec.upload_bytes(len);
        let mut delta = vec![0.0f32; len];
        let mut scalars = Vec::with_capacity(k);
        let mut survivors = Vec::with_capacity(k);
        for wid in 0..k {
            let push = self.bucket[wid].take().expect("barrier bucket complete");
            if push.dropped {
                self.workers[wid].discard_round();
                accum.dropped.push(wid);
            } else {
                self.codec
                    .encode_into(wid, &push.round.delta_shared, &mut self.payload_scratch);
                self.codec
                    .decode_into(&self.payload_scratch, &mut self.decoded_scratch);
                dense::axpy(1.0, &self.decoded_scratch, &mut delta);
                scalars.push(push.round.scalars);
                survivors.push(wid);
                accum.bytes_raw += 4 * len;
                accum.bytes_encoded += upload_bytes;
            }
        }
        self.bucket_count = 0;
        let k_eff = scalars.len();
        let reduced = WorkerScalars::reduce(scalars);
        let gamma = if k_eff == 0 {
            0.0
        } else {
            choose_gamma(
                self.aggregation,
                self.form,
                self.objective,
                full,
                &self.shared,
                &delta,
                &reduced,
                k_eff,
            )
        };
        self.last_gamma = gamma;
        accum.last_gamma = gamma;
        if k_eff > 0 {
            dense::axpy(gamma as f32, &delta, &mut self.shared);
            for &wid in &survivors {
                self.workers[wid].apply_gamma(gamma);
                accum.updates += self.workers[wid].coords();
            }
            accum.bump_staleness(0, k_eff);
        }
        accum.applied += k_eff;
        self.master_version += 1;
        for wid in 0..k {
            self.completed[wid] += 1;
        }
        self.engine.record(
            ActorId::MASTER,
            format!("barrier round applied gamma={gamma:.3e} survivors={k_eff}"),
        );

        // Aggregation arithmetic on the master, then dense snapshots to
        // every worker (the next round starts for all of them at once).
        let host = self.cpu.host_vector_op_seconds((k_eff + 1) * len);
        accum.master_host += host;
        let down = self.network.transfer_seconds(4 * len);
        for wid in 0..k {
            accum.bytes_raw += 4 * len;
            accum.bytes_encoded += 4 * len;
            self.engine.schedule_in(
                host + down,
                AsyncEvent::Snapshot {
                    worker: wid,
                    state: self.shared.clone(),
                    version: self.master_version,
                },
            );
        }
    }

    /// τ ≥ 1: apply the single delta immediately, then grant fresh
    /// snapshots to every waiting worker the staleness bound admits.
    fn apply_on_arrival(
        &mut self,
        worker: usize,
        push: PendingPush,
        full: &RidgeProblem,
        accum: &mut EpochAccum,
    ) {
        let k = self.workers.len();
        let len = self.shared.len();
        self.completed[worker] += 1;
        self.waiting[worker] = true;
        let mut apply_host = 0.0;
        if push.dropped {
            self.workers[worker].discard_round();
            accum.dropped.push(worker);
            self.engine
                .record(ActorId::MASTER, format!("push from worker{worker} lost"));
        } else {
            self.codec
                .encode_into(worker, &push.round.delta_shared, &mut self.payload_scratch);
            self.codec
                .decode_into(&self.payload_scratch, &mut self.decoded_scratch);
            // γ for one delta: averaging still damps by 1/K (K deltas per
            // "round" arrive on average), the closed forms optimize the
            // objective for exactly this delta against the current state.
            let gamma = choose_gamma(
                self.aggregation,
                self.form,
                self.objective,
                full,
                &self.shared,
                &self.decoded_scratch,
                &push.round.scalars,
                k,
            );
            dense::axpy(gamma as f32, &self.decoded_scratch, &mut self.shared);
            self.workers[worker].apply_gamma(gamma);
            self.last_gamma = gamma;
            accum.last_gamma = gamma;
            let stale = (self.master_version - push.pulled_version) as usize;
            accum.bump_staleness(stale, 1);
            self.master_version += 1;
            accum.applied += 1;
            accum.updates += self.workers[worker].coords();
            accum.bytes_raw += 4 * len;
            accum.bytes_encoded += self.codec.upload_bytes(len);
            apply_host = self.cpu.host_vector_op_seconds(2 * len);
            accum.master_host += apply_host;
            self.engine.record(
                ActorId::MASTER,
                format!("applied worker{worker} delta gamma={gamma:.3e} staleness={stale}"),
            );
        }

        // Staleness gate: grant a fresh snapshot to every waiting worker
        // within τ of the slowest (the slowest always qualifies, so the
        // simulation can never stall). Worker-id order keeps equal-time
        // grants deterministic.
        let min_done = self.completed.iter().copied().min().unwrap_or(0);
        let down = self.network.transfer_seconds(4 * len);
        for wid in 0..k {
            if self.waiting[wid] && self.staleness.allows(self.completed[wid] - min_done) {
                self.waiting[wid] = false;
                accum.bytes_raw += 4 * len;
                accum.bytes_encoded += 4 * len;
                self.engine.record(
                    ActorId(wid),
                    format!("granted snapshot v{}", self.master_version),
                );
                self.engine.schedule_in(
                    apply_host + down,
                    AsyncEvent::Snapshot {
                        worker: wid,
                        state: self.shared.clone(),
                        version: self.master_version,
                    },
                );
            }
        }
    }
}

impl Solver for AsyncScd {
    fn form(&self) -> Form {
        self.form
    }

    fn objective(&self) -> ObjectiveKind {
        self.objective
    }

    fn name(&self) -> String {
        format!(
            "Async {} (K={}, tau={}, {})",
            self.workers
                .first()
                .map(|w| w.solver_name())
                .unwrap_or_else(|| "SCD".into()),
            self.workers.len(),
            self.staleness,
            self.aggregation.label()
        )
    }

    /// Run the event simulation until every worker has completed one more
    /// round on average — K further pushes — and report the epoch as the
    /// elapsed virtual time. With τ=0 that is exactly one barrier round;
    /// with τ>0 the K pushes may come from an uneven mix of workers.
    fn epoch(&mut self, full: &RidgeProblem) -> EpochStats {
        let k = self.workers.len();
        if !self.started {
            self.started = true;
            let zeros = vec![0.0f32; self.shared.len()];
            for wid in 0..k {
                self.engine.schedule_at(
                    0.0,
                    AsyncEvent::Snapshot {
                        worker: wid,
                        state: zeros.clone(),
                        version: 0,
                    },
                );
            }
        }
        let start = self.engine.now();
        let target = (self.epoch_index + 1) * k;
        let mut accum = EpochAccum::new(k);
        accum.last_gamma = self.last_gamma;
        while self.completed_total() < target {
            let (_, event) = self
                .engine
                .step()
                .expect("event queue drained before the epoch completed");
            match event {
                AsyncEvent::Snapshot {
                    worker,
                    state,
                    version,
                } => self.on_snapshot(worker, state, version, &mut accum),
                AsyncEvent::Push { worker } => self.on_push(worker, full, &mut accum),
            }
        }
        let elapsed = self.engine.now() - start;

        // The epoch's breakdown: the busiest worker's per-category time,
        // master arithmetic as host, and the remaining (non-overlapped)
        // wall-clock as network — so the total equals the simulated
        // elapsed time whenever busy time fits inside it.
        let slowest = (0..k)
            .max_by(|&a, &b| {
                accum.busy[a]
                    .total()
                    .partial_cmp(&accum.busy[b].total())
                    .expect("busy times are finite")
            })
            .unwrap_or(0);
        let mut breakdown = accum.busy[slowest];
        breakdown.host += accum.master_host;
        breakdown.network += (elapsed - breakdown.total()).max(0.0);

        self.bytes_raw_total += accum.bytes_raw;
        self.bytes_encoded_total += accum.bytes_encoded;
        self.round_metrics.push(RoundMetrics {
            epoch: self.epoch_index,
            worker_round_seconds: accum.busy.iter().map(TimeBreakdown::total).collect(),
            barrier_seconds: elapsed,
            gamma: accum.last_gamma,
            staleness_hist: accum.staleness_hist.clone(),
            retries: 0,
            dropped_workers: accum.dropped.clone(),
            survivors: accum.applied,
            wire: self.wire.label(),
            bytes_raw: accum.bytes_raw,
            bytes_encoded: accum.bytes_encoded,
            compression_ratio: if accum.bytes_encoded > 0 {
                accum.bytes_raw as f64 / accum.bytes_encoded as f64
            } else {
                1.0
            },
        });
        self.epoch_index += 1;
        EpochStats {
            updates: accum.updates,
            breakdown,
        }
    }

    fn weights(&self) -> Vec<f32> {
        self.assemble_weights()
    }

    fn shared_vector(&self) -> Vec<f32> {
        self.shared.clone()
    }
}
