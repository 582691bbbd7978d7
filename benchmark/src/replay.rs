//! The traced side: the same pipeline the children ran, replayed once in
//! this process through the crates' public functions with a span around
//! each call, plus micro-probes of single layers on the workload's own
//! matrix. Per-layer numbers come from here; end-to-end numbers never do.
//!
//! The replay follows `crates/cli/src/commands.rs` call for call (`train`,
//! `score`, `serve`/`serve_session`/`reload`); that the two compute the
//! same thing is checked, not assumed: the replay's `final gap` must equal
//! the child's to all 17 digits.

use crate::e2e::{open_store, Requests};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Engine, Workload, REQUEST_ROWS, SCORE_BATCH, WIDTH};
use gpu_sim::{Gpu, GpuProfile};
use scd_core::{Form, ObjectiveKind, RidgeProblem, Solver, SyscdScd, TpaScd, TrainedModel};
use scd_distributed::{
    Aggregation, DistributedConfig, DistributedScd, FaultPlan, LocalSolverKind, PartitionStrategy,
    RoundRuntime, WireFormat,
};
use scd_serve::json::Json;
use scd_serve::{batch_from_pairs, respond, BatchScorer, ModelSlot, Scored};
use scd_sparse::kernels;
use scd_store::ShardedDataset;
use std::fmt::Write as _;
use std::fs::File;
use std::hint::black_box;
use std::io::{LineWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// CLI defaults the children run with (`--lambda`, `--seed`).
const LAMBDA: f64 = 1e-3;
const SOLVER_SEED: u64 = 1;

/// What the replay learned beyond its spans.
pub struct Replayed {
    pub problem: RidgeProblem,
    pub model: TrainedModel,
    /// The gap after training, formatted as the CLI's `final gap` line.
    pub final_gap_text: String,
    /// Chunk files `scd score` mapped: one per batch per chunk it touches.
    pub chunk_maps: usize,
    /// Empty for single-node engines.
    pub rounds: Rounds,
}

/// Per distributed round: (γ, raw bytes, encoded bytes).
pub type Rounds = Vec<(f64, f64, f64)>;

fn model_load(t: &mut Tracer, path: &Path) -> Result<TrainedModel, String> {
    t.leaf("core.model_load", || {
        let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        TrainedModel::load(file).map_err(|e| format!("cannot load {}: {e}", path.display()))
    })
}

/// `commands::train` on the shard directory, saving to `model_path`.
fn train(
    t: &mut Tracer,
    w: &Workload,
    shards: &Path,
    model_path: &Path,
) -> Result<(RidgeProblem, String, Rounds), String> {
    let store = t.leaf("store.open", || open_store(shards))?;
    let (csr, labels) = t
        .leaf("store.load_all", || store.load_all())
        .map_err(|e| e.to_string())?;
    let problem = t
        .leaf("core.problem_new", || {
            RidgeProblem::new(csr, labels, LAMBDA)
        })
        .map_err(|e| e.to_string())?;
    let objective = ObjectiveKind::Ridge;
    let mut distributed: Option<DistributedScd> = None;
    let mut single: Option<Box<dyn Solver>> = None;
    match w.engine {
        Engine::Distributed { workers, tpa, wire } => {
            let kind = if tpa {
                LocalSolverKind::Tpa {
                    profile: GpuProfile::titan_x_maxwell(),
                    lanes: 64,
                    deterministic: true,
                }
            } else {
                LocalSolverKind::Sequential
            };
            let config = DistributedConfig::new(workers, w.form)
                .with_objective(objective)
                .with_aggregation(Aggregation::Adaptive)
                .with_solver(kind)
                .with_runtime(RoundRuntime::Concurrent { threads: WIDTH })
                .with_fault(FaultPlan::none())
                .with_wire(WireFormat::parse(wire)?)
                .with_seed(SOLVER_SEED)
                .with_strategy(PartitionStrategy::Contiguous);
            let built = t.leaf("distributed.from_store", || {
                DistributedScd::from_store(&problem, &store, &config)
            });
            distributed = Some(built.map_err(|e| e.to_string())?);
        }
        Engine::Syscd => {
            single = Some(Box::new(t.leaf("core.syscd_new", || {
                SyscdScd::new(&problem, w.form, WIDTH, SOLVER_SEED)
                    .with_buckets(&problem, scd_core::syscd::DEFAULT_BUCKET_SIZE)
                    .with_objective(objective)
            })));
        }
    }
    let epoch_span = if distributed.is_some() {
        "distributed.round"
    } else {
        "core.epoch"
    };
    let solver: &mut dyn Solver = match (distributed.as_mut(), single.as_mut()) {
        (Some(dist), _) => dist,
        (None, Some(single)) => single.as_mut(),
        (None, None) => unreachable!("one engine was built"),
    };
    // The CLI evaluates the gap before the first epoch, after every epoch
    // whatever --eval-every says, and once more for the `final gap` line.
    t.leaf("core.duality_gap", || solver.duality_gap(&problem));
    for _ in 0..w.epochs {
        t.leaf(epoch_span, || solver.epoch(&problem));
        let gap = t.leaf("core.duality_gap", || solver.duality_gap(&problem));
        if w.stop_at_gap && gap <= w.target_gap {
            break;
        }
    }
    let final_gap = t.leaf("core.duality_gap", || solver.duality_gap(&problem));
    let weights = t.leaf("core.weights", || solver.weights());
    let model = t.leaf("core.model_from_weights", || {
        TrainedModel::from_weights(&problem, objective, w.form, weights)
    });
    t.leaf("core.model_save", || {
        File::create(model_path)
            .and_then(|f| model.save(f))
            .map_err(|e| format!("cannot save model: {e}"))
    })?;
    let rounds = distributed.as_ref().map_or(Vec::new(), |d| {
        d.round_metrics()
            .iter()
            .map(|m| (m.gamma, m.bytes_raw as f64, m.bytes_encoded as f64))
            .collect()
    });
    Ok((problem, format!("{final_gap:.17e}"), rounds))
}

/// `commands::score` on the first `score_limit` rows, its JSON lines going
/// through a line-flushed writer as the child's stdout does.
fn score(
    t: &mut Tracer,
    w: &Workload,
    shards: &Path,
    model_path: &Path,
    sink: &Path,
) -> Result<usize, String> {
    let model = model_load(t, model_path)?;
    let scorer = BatchScorer::new(scd_sched::global());
    let store = t.leaf("store.open", || open_store(shards))?;
    let mut out = LineWriter::new(
        File::create(sink).map_err(|e| format!("cannot create {}: {e}", sink.display()))?,
    );
    let mut scored = Scored::default();
    let mut line = String::new();
    let (mut chunk_maps, mut squared_error, mut correct) = (0usize, 0f64, 0usize);
    let total = store.rows().min(w.score_limit);
    let mut start = 0;
    while start < total {
        let end = (start + SCORE_BATCH).min(total);
        chunk_maps += (0..store.num_shards())
            .filter(|&i| {
                let rows = store.shard_rows(i);
                rows.start < end && start < rows.end
            })
            .count();
        let (csr, labels) = t
            .leaf("store.load_rows", || store.load_rows(start..end))
            .map_err(|e| e.to_string())?;
        t.leaf("serve.score_into", || {
            scorer.score_into(&csr, model.objective, &model.beta, &mut scored)
        })
        .map_err(|e| e.to_string())?;
        t.leaf("cli.format_rows", || -> std::io::Result<()> {
            for (i, (&d, &p)) in scored.decisions.iter().zip(&scored.predictions).enumerate() {
                let y = labels[i];
                line.clear();
                let _ = writeln!(
                    line,
                    "{{\"row\":{},\"label\":{y},\"decision\":{d},\"prediction\":{p}}}",
                    start + i
                );
                out.write_all(line.as_bytes())?;
                correct += usize::from((d >= 0.0) == (y > 0.0));
                squared_error += (d as f64 - y as f64).powi(2);
            }
            Ok(())
        })
        .map_err(|e| format!("cannot write {}: {e}", sink.display()))?;
        start = end;
    }
    black_box((correct, squared_error));
    Ok(chunk_maps)
}

/// The CLI's `is_reload`: it parses every request line once to look for
/// the op before `respond` parses it again.
fn is_reload(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|req| {
            req.get("op")
                .and_then(Json::as_str)
                .map(|op| op == "reload")
        })
        .unwrap_or(false)
}

/// `commands::serve` + `serve_session` over the same request sequence the
/// child session got, replies written to a sink instead of a pipe.
fn serve(
    t: &mut Tracer,
    w: &Workload,
    requests: &Requests,
    model_path: &Path,
) -> Result<TrainedModel, String> {
    let model = model_load(t, model_path)?;
    let slot = ModelSlot::new(model.features());
    t.leaf("serve.slot_publish", || {
        slot.publish(model.objective, model.lambda, &model.beta)
    });
    let scorer = BatchScorer::new(scd_sched::global());
    let mut out = std::io::sink();
    for (n, &pick) in requests.order.iter().enumerate() {
        let line = requests.lines[pick].0.trim_end();
        t.leaf("serve.json_parse", || is_reload(line));
        let response = t.leaf("serve.respond", || respond(line, &slot, &scorer));
        if !response.ok {
            return Err(format!("replayed request {n} failed: {}", response.line));
        }
        t.leaf("cli.write_reply", || {
            writeln!(out, "{}", response.line).and_then(|()| out.flush())
        })
        .map_err(|e| e.to_string())?;
        if (n + 1) % w.reload_every == 0 {
            t.leaf("serve.json_parse", || is_reload("{\"op\":\"reload\"}"));
            let fresh = model_load(t, model_path)?;
            t.leaf("serve.slot_publish", || {
                slot.publish(fresh.objective, fresh.lambda, &fresh.beta)
            });
        }
    }
    Ok(model)
}

/// Replay one repetition under a root span.
pub fn replay(
    t: &mut Tracer,
    w: &Workload,
    dir: &Path,
    requests: &Requests,
) -> Result<Replayed, String> {
    let shards = dir.join("shards");
    let model_path = dir.join("model-replay.txt");
    let root = t.enter("root");
    let (problem, final_gap_text, rounds) = train(t, w, &shards, &model_path)?;
    let chunk_maps = score(t, w, &shards, &model_path, &dir.join("scores-replay.jsonl"))?;
    let model = serve(t, w, requests, &model_path)?;
    t.exit(root);
    Ok(Replayed {
        problem,
        model,
        final_gap_text,
        chunk_maps,
        rounds,
    })
}

/// Median seconds per call of `f`, called at least three times and for at
/// least 40 ms in all.
fn seconds_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 3 || begun.elapsed().as_secs_f64() < 0.04 {
        let start = Instant::now();
        black_box(f());
        samples.push(start.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Like `seconds_per_call` for calls too short to time singly: `f` runs
/// `batch` times per sample.
fn seconds_per_call_batched<T>(batch: usize, mut f: impl FnMut() -> T) -> f64 {
    seconds_per_call(|| {
        for _ in 0..batch {
            black_box(f());
        }
    }) / batch as f64
}

/// Deterministic filler for dense probe vectors.
fn filler(len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 2_654_435_761) % 1000) as f32 * 1e-3 - 0.5)
        .collect()
}

/// Micro-probes of single layers on the workload's own matrix and model.
/// Each returns (metric name, value).
pub fn probes(
    w: &Workload,
    store: &ShardedDataset,
    dir: &Path,
    replayed: &Replayed,
    requests: &Requests,
) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let (csr, csc) = (replayed.problem.csr(), replayed.problem.csc());
    let nnz = csr.nnz() as f64;

    // store: the checksum every chunk map pays.
    let chunk =
        std::fs::read(dir.join("shards").join("chunk-00000.scdc")).map_err(|e| e.to_string())?;
    let s = seconds_per_call(|| scd_store::fnv1a64(&chunk));
    out.push(("store.checksum_gb_per_s", chunk.len() as f64 / s * 1e-9));

    // sparse: the kernels under every engine, over the whole matrix.
    let x = filler(csr.cols());
    let y = filler(csr.rows());
    let s = seconds_per_call(|| {
        csr.iter_rows()
            .map(|r| kernels::dot_dense(r.indices, r.values, &x))
            .sum::<f64>()
    });
    out.push(("sparse.dot_ns_per_nnz", s * 1e9 / nnz));
    let mut dense = vec![0.0f32; csr.cols()];
    let s = seconds_per_call(|| {
        csr.iter_rows()
            .for_each(|r| kernels::axpy(r.indices, r.values, 1e-3, &mut dense))
    });
    out.push(("sparse.axpy_ns_per_nnz", s * 1e9 / nnz));
    let mut rows_out = vec![0.0f32; csr.rows()];
    let mut cols_out = vec![0.0f32; csr.cols()];
    let s = seconds_per_call(|| csr.matvec_into(&x, &mut rows_out));
    out.push(("sparse.csr_matvec_ns_per_nnz", s * 1e9 / nnz));
    // Bytes from array sizes, not from a counter: index + value + gathered
    // operand per nonzero, offset + result per row.
    let bytes = nnz * 12.0 + csr.rows() as f64 * 12.0;
    out.push(("sparse.computed_gb_per_s", bytes / s * 1e-9));
    let s = seconds_per_call(|| csr.matvec_t_into(&y, &mut cols_out));
    out.push(("sparse.csr_matvec_t_ns_per_nnz", s * 1e9 / nnz));
    let s = seconds_per_call(|| csc.matvec_into(&x, &mut rows_out));
    out.push(("sparse.csc_matvec_ns_per_nnz", s * 1e9 / nnz));
    out.push(("sparse.to_csc_s", seconds_per_call(|| csr.to_csc())));

    // wire: the workload's codec over one shared-vector-length delta.
    let delta = filler(replayed.problem.shared_len(w.form));
    let mut codec = WireFormat::parse(w.wire())?.codec();
    let mut payload = codec.encode(0, &delta);
    let raw_mb = delta.len() as f64 * 4e-6;
    let s = seconds_per_call(|| codec.encode_into(0, &delta, &mut payload));
    out.push(("wire.encode_mb_per_s", raw_mb / s));
    let mut decoded = Vec::new();
    let s = seconds_per_call(|| codec.decode_into(&payload, &mut decoded));
    out.push(("wire.decode_mb_per_s", raw_mb / s));
    out.push((
        "wire.compression_ratio",
        payload.raw_bytes() as f64 / payload.encoded_bytes() as f64,
    ));

    // sched: what a dispatch costs with nothing in it.
    let sched = scd_sched::global();
    out.push(("sched.peak_parallelism", sched.peak_parallelism() as f64));
    let s = seconds_per_call(|| {
        sched.parallel_for(10_000, &|i| {
            black_box(i);
        })
    });
    out.push(("sched.parallel_for_ns_per_task", s * 1e9 / 10_000.0));
    let s = seconds_per_call_batched(100, || {
        sched.parallel_for(WIDTH, &|i| {
            black_box(i);
        })
    });
    out.push(("sched.dispatch_us_per_group", s * 1e6));

    // gpusim: one simulated-GPU epoch on a quarter of the rows, as one of
    // four workers would run it.
    let (quarter, labels) = store
        .load_rows(0..store.rows() / 4)
        .map_err(|e| e.to_string())?;
    let quarter_nnz = quarter.nnz() as f64;
    let part = RidgeProblem::new(quarter, labels, LAMBDA).map_err(|e| e.to_string())?;
    let gpu = Arc::new(Gpu::new(GpuProfile::titan_x_maxwell()));
    let mut tpa = TpaScd::new(&part, Form::Dual, gpu, SOLVER_SEED).map_err(|e| e.to_string())?;
    let s = seconds_per_call(|| tpa.epoch(&part));
    out.push(("gpusim.tpa_epoch_ms", s * 1e3));
    out.push(("gpusim.tpa_epoch_ns_per_nnz", s * 1e9 / quarter_nnz));

    // serve: the pieces of one request, on the first request of the session.
    let (line, rows) = &requests.lines[requests.order[0]];
    let line = line.trim_end();
    let s = seconds_per_call_batched(10, || Json::parse(line));
    out.push(("serve.json_parse_mb_per_s", line.len() as f64 * 1e-6 / s));
    let pairs: Vec<Vec<(u32, f32)>> = rows
        .iter()
        .map(|&r| {
            let row = requests.pool.row(r);
            row.indices
                .iter()
                .copied()
                .zip(row.values.iter().copied())
                .collect()
        })
        .collect();
    let model = &replayed.model;
    let s = seconds_per_call_batched(10, || batch_from_pairs(&pairs, model.features()));
    out.push(("serve.batch_from_pairs_us", s * 1e6));
    let scorer = BatchScorer::new(scd_sched::global());
    let mut scored = Scored::default();
    let batch16 = batch_from_pairs(&pairs, model.features()).map_err(|e| e.to_string())?;
    let s = seconds_per_call_batched(100, || {
        scorer.score_into(&batch16, model.objective, &model.beta, &mut scored)
    });
    out.push(("serve.scorer_rows_per_s_b16", REQUEST_ROWS as f64 / s));
    let (batch256, _) = store
        .load_rows(0..SCORE_BATCH.min(store.rows()))
        .map_err(|e| e.to_string())?;
    let s = seconds_per_call_batched(10, || {
        scorer.score_into(&batch256, model.objective, &model.beta, &mut scored)
    });
    out.push(("serve.scorer_rows_per_s_b256", batch256.rows() as f64 / s));
    let slot = ModelSlot::new(model.features());
    let s = seconds_per_call_batched(10, || {
        slot.publish(model.objective, model.lambda, &model.beta)
    });
    out.push(("serve.slot_publish_us", s * 1e6));
    let s = seconds_per_call_batched(10, || slot.read());
    out.push(("serve.slot_read_ns", s * 1e9));
    Ok(out)
}
