//! The `scd` subcommands: `generate`, `info`, `train`, `predict`,
//! `serve`, `score`, `sweep`, `shard`, `help`.
//!
//! Every command takes parsed [`Args`] and a writer (so tests can capture
//! output) and returns a descriptive error string on failure.

use crate::args::Args;
use gpu_sim::{Gpu, GpuProfile};
use scd_core::{
    AsyScd, AsyncCpuMode, AsyncSimScd, ConvergenceRecorder, Form, ObjectiveKind,
    RegularizationPath, RidgeProblem, SequentialScd, Solver, SyscdScd, TpaScd, TrainedModel,
};
use scd_datasets::{criteo_like, dense_gaussian, scale_values, webspam_like, DatasetStats};
use scd_datasets::{CriteoSpec, WebspamStreamSpec};
use scd_distributed::{
    Aggregation, AsyncScd, DistributedConfig, DistributedScd, FaultPlan, LocalSolverKind,
    PartitionStrategy, RoundRuntime, Staleness, WireFormat,
};
use scd_serve::json::{escape, Json};
use scd_serve::{respond, BatchScorer, ModelSlot, Response, Scored};
use scd_sparse::io::{read_libsvm, write_libsvm, LabelledData};
use scd_sparse::CsrMatrix;
use scd_store::{write_criteo, write_webspam, ShardedDataset};
use std::fs::File;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

/// Top-level dispatch.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    if args.get("help").is_some() {
        help(out);
        return Ok(());
    }
    // Only `shard` takes a positional action (`gen`/`inspect`).
    if args.command != "shard" {
        args.reject_action().map_err(|e| e.to_string())?;
    }
    match args.command.as_str() {
        "generate" => generate(args, out),
        "info" => info(args, out),
        "train" => train(args, out),
        "predict" => predict(args, out),
        "serve" => serve(args, out),
        "score" => score(args, out),
        "sweep" => sweep(args, out),
        "shard" => shard(args, out),
        "help" => {
            help(out);
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?} (try `scd help`)")),
    }
}

/// Print usage.
pub fn help(out: &mut dyn Write) {
    let _ = writeln!(
        out,
        "scd — stochastic coordinate descent trainer (TPA-SCD reproduction)

USAGE:
  scd generate --kind webspam|criteo|dense --output FILE [options]
  scd info     --data FILE [--features M] [--detail yes]
  scd train    --data FILE|DIR [options]
  scd predict  --model FILE --data FILE [--features M]
  scd serve    --model FILE | --train-data FILE|DIR [options]
  scd score    --model FILE --data FILE|DIR [--batch B] [--limit N]
  scd sweep    --data FILE [--lambda-max L --lambda-ratio R --points P
                           --tol G --max-epochs E]
  scd shard gen     --out DIR --kind criteo|webspam [options]
  scd shard inspect --data DIR [--verify yes]
  scd help

GENERATE OPTIONS:
  --rows N          examples                      (default 1000)
  --cols M          features (webspam/dense)      (default 2000)
  --nnz-per-row K   nonzero draws per row         (default 30)
  --fields F        categorical fields (criteo)   (default 10)
  --cardinality C   values per field (criteo)     (default 100)
  --scale S         multiply all values by S      (default 1.0)
  --seed S          RNG seed                      (default 42)

SHARD OPTIONS (gen writes an out-of-core sharded dataset, inspect reads one):
  --out DIR         shard directory to create          (gen, required)
  --kind K          criteo|webspam                     (default criteo)
  --rows N          examples                           (default 100000)
  --fields F        categorical fields (criteo)        (default 10)
  --cardinality C   values per field (criteo)          (default 100)
  --cols M          features (webspam)                 (default 2000)
  --nnz-per-row K   nonzero draws per row (webspam)    (default 30)
  --chunk-rows R    rows per chunk file                (default 65536)
  --seed S          RNG seed                           (default 42)
  --verify yes      inspect only: re-checksum every chunk payload

TRAIN OPTIONS:
  --data P          a LIBSVM file, or a `scd shard gen` directory (trains
                    out-of-core shards; bit-identical to the in-memory path)
  --features M      fix the feature-space width of the LIBSVM file
  --objective O     ridge|logistic|svm|lasso|elastic-net (default ridge; each
                    runs on every backend but asyscd — ridge and lasso only —
                    and distributed with --workers)
  --lambda L        regularization                (default 0.001)
  --l1-ratio R      elastic-net mix rho in [0, 1]: 0 = ridge penalty, 1 = lasso
                    (default 0.5; elastic-net only)
  --form F          primal|dual (default: the objective's natural form —
                    primal for ridge/lasso/elastic-net, dual for logistic/svm)
  --backend B       seq|a-scd|wild|asyscd|syscd|tpa-m4000|tpa-titanx (default seq;
                    --solver is the legacy alias — pass one or the other)
  --threads T       modeled threads for a-scd/wild; worker replicas for syscd
                    (default 16)
  --buckets B       syscd only: coordinates per bucket (default 16 = one cache
                    line of f32 model state; the unit of work assignment)
  --merge-every K   syscd only: buckets each worker processes between replica
                    merges (default: auto, ~4 merges per worker per epoch;
                    larger = fewer merges, more staleness)
  --host-threads T  host threads in the shared work-stealing scheduler
                    (0 = auto-size to this machine's cores; the scheduler is
                    process-wide, so the first train in a process fixes it)
  --step E          AsySCD step size              (default 1.0)
  --epochs E        epochs to run                 (default 50)
  --eval-every K    print the gap every K epochs  (default 10)
  --target-gap G    stop once duality gap <= G
  --workers K       distribute across K workers   (default 1 = single node)
  --partition P     contiguous|roundrobin|random coordinate partitioning
                    (default: seed-derived random; shard directories are
                    row-major, so they default to — and require — contiguous)
  --aggregation A   averaging|adding|adaptive|cocoa+|line-search (default averaging)
  --wire W          raw|fp16|topk:<k>|topk-ef:<k> delta wire format (default raw)
  --round-threads T host threads running worker rounds (0 = auto, 1 = inline)
  --runtime R       sync|event round engine (default sync; event = discrete-event
                    simulation with bounded staleness; implied by --staleness)
  --staleness T     staleness bound for --runtime event: integer or inf
                    (default 0 = synchronous barrier, bit-identical to sync)
  --event-trace F   write the event runtime's per-event trace to F
  --fault-drop P    probability a worker's round is dropped (default 0)
  --fault-delay P   probability a round is delayed (default 0)
  --fault-delay-factor F  slowdown of a delayed round (default 3)
  --fault-timeout S drop rounds slower than S simulated seconds
  --fault-retries N re-request a lost round N times (default 1)
  --fault-seed S    fault-schedule RNG seed       (default 0)
  --round-metrics F write per-round metrics JSON to F (distributed only)
  --save-model F    write the trained weights to F (any objective), for
                    `scd score`, `scd predict` and `scd serve --model`
  --seed S          RNG seed                      (default 1)

SERVE OPTIONS (JSON-lines session: one request per stdin line, one response
per stdout line; ops: {{\"op\":\"info\"}}, {{\"op\":\"score\",\"rows\":[[[idx,val],..],..]}},
and — when serving from --model — {{\"op\":\"reload\"}} to hot-swap from disk):
  --model F         serve a saved model file
  --train-data P    train live while serving: the synchronous driver (the one
                    behind `scd train --workers K`) publishes into the serving
                    slot at every round boundary
  --objective O     ridge|logistic|svm|lasso|elastic-net (live mode; default
                    ridge; elastic-net at the even mix rho = 0.5)
  --lambda L        regularization                (live mode; default 0.001)
  --workers K       synchronous-driver workers    (live mode; default 4)
  --epochs E        training rounds to publish    (live mode; default 50)
  --features M      feature width of a LIBSVM --train-data file
  --seed S          RNG seed                      (live mode; default 1)

SCORE OPTIONS (batch mode: one JSON line per row, then a JSON summary line):
  --model F         saved model file (any objective)
  --data P          a LIBSVM file or a `scd shard gen` directory
  --batch B         rows per scoring batch        (default 64)
  --limit N         score only the first N rows   (default: all)
  --features M      fix the feature width of a LIBSVM file"
    );
}

fn load(args: &Args) -> Result<LabelledData, String> {
    let path = args.require("data").map_err(|e| e.to_string())?;
    let features = args
        .get("features")
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| format!("--features {v:?}: expected integer"))
        })
        .transpose()?;
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_libsvm(file, features).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// `scd generate`: write a synthetic dataset in LIBSVM format.
pub fn generate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&[
        "kind", "output", "rows", "cols", "nnz-per-row", "fields", "cardinality", "scale", "seed",
    ])
    .map_err(|e| e.to_string())?;
    let kind = args.require("kind").map_err(|e| e.to_string())?;
    let output = args.require("output").map_err(|e| e.to_string())?;
    let rows = args.get_or("rows", 1000usize, "integer").map_err(|e| e.to_string())?;
    let cols = args.get_or("cols", 2000usize, "integer").map_err(|e| e.to_string())?;
    let seed = args.get_or("seed", 42u64, "integer").map_err(|e| e.to_string())?;
    let scale = args.get_or("scale", 1.0f32, "number").map_err(|e| e.to_string())?;

    let data = match kind {
        "webspam" => {
            let nnz = args
                .get_or("nnz-per-row", 30usize, "integer")
                .map_err(|e| e.to_string())?;
            webspam_like(rows, cols, nnz, seed)
        }
        "criteo" => {
            let fields = args.get_or("fields", 10usize, "integer").map_err(|e| e.to_string())?;
            let cardinality = args
                .get_or("cardinality", 100usize, "integer")
                .map_err(|e| e.to_string())?;
            criteo_like(rows, fields, cardinality, seed)
        }
        "dense" => dense_gaussian(rows, cols, seed),
        other => return Err(format!("unknown --kind {other:?} (webspam|criteo|dense)")),
    };
    let data = if scale != 1.0 { scale_values(&data, scale) } else { data };
    let file = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    write_libsvm(&data, file).map_err(|e| format!("cannot write {output}: {e}"))?;
    writeln!(out, "wrote {}: {}", output, DatasetStats::of(&data)).map_err(|e| e.to_string())
}

/// `scd info`: dataset statistics (`--detail yes` adds the structural
/// profile: nnz distributions, skew, ELLPACK padding).
pub fn info(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&["data", "features", "detail"]).map_err(|e| e.to_string())?;
    let data = load(args)?;
    writeln!(out, "{}", DatasetStats::of(&data)).map_err(|e| e.to_string())?;
    if args.get("detail").is_some() {
        let profile = scd_sparse::StructureProfile::of(&data.matrix.to_csr());
        writeln!(out, "{profile}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// `scd shard`: out-of-core sharded datasets (`gen` writes, `inspect` reads).
pub fn shard(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    match args.action.as_deref() {
        Some("gen") => shard_gen(args, out),
        Some("inspect") => shard_inspect(args, out),
        Some(other) => Err(format!("unknown shard action {other:?} (gen|inspect)")),
        None => Err("shard needs an action: `scd shard gen ...` or `scd shard inspect ...`".into()),
    }
}

/// `scd shard gen`: stream a synthetic dataset to disk in bounded memory.
fn shard_gen(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&[
        "out", "kind", "rows", "cols", "nnz-per-row", "fields", "cardinality", "chunk-rows",
        "seed",
    ])
    .map_err(|e| e.to_string())?;
    let dir = args.require("out").map_err(|e| e.to_string())?;
    let kind = args.get("kind").unwrap_or("criteo");
    let rows = args.get_or("rows", 100_000usize, "integer").map_err(|e| e.to_string())?;
    let chunk_rows = args
        .get_or("chunk-rows", 65_536usize, "integer")
        .map_err(|e| e.to_string())?;
    let seed = args.get_or("seed", 42u64, "integer").map_err(|e| e.to_string())?;
    // The specs assert on empty dimensions; turn misuse into errors first.
    if rows == 0 || chunk_rows == 0 {
        return Err("--rows and --chunk-rows must be >= 1".into());
    }
    let summary = match kind {
        "criteo" => {
            let fields = args.get_or("fields", 10usize, "integer").map_err(|e| e.to_string())?;
            let cardinality = args
                .get_or("cardinality", 100usize, "integer")
                .map_err(|e| e.to_string())?;
            if fields == 0 || cardinality == 0 {
                return Err("--fields and --cardinality must be >= 1".into());
            }
            write_criteo(Path::new(dir), &CriteoSpec::new(rows, fields, cardinality, seed), chunk_rows)
        }
        "webspam" => {
            let cols = args.get_or("cols", 2000usize, "integer").map_err(|e| e.to_string())?;
            let nnz = args
                .get_or("nnz-per-row", 30usize, "integer")
                .map_err(|e| e.to_string())?;
            if cols == 0 || nnz == 0 {
                return Err("--cols and --nnz-per-row must be >= 1".into());
            }
            write_webspam(Path::new(dir), &WebspamStreamSpec::new(rows, cols, nnz, seed), chunk_rows)
        }
        other => return Err(format!("unknown --kind {other:?} (criteo|webspam)")),
    }
    .map_err(|e| format!("cannot write shards to {dir}: {e}"))?;
    writeln!(
        out,
        "sharded {kind}: rows={} cols={} nnz={} chunks={}",
        summary.rows, summary.cols, summary.nnz, summary.chunks
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "on-disk bytes: {}", summary.disk_bytes).map_err(|e| e.to_string())?;
    writeln!(out, "writer high-water bytes: {}", summary.buffered_high_water)
        .map_err(|e| e.to_string())
}

/// `scd shard inspect`: index summary and per-shard table.
fn shard_inspect(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&["data", "verify"]).map_err(|e| e.to_string())?;
    let dir = args.require("data").map_err(|e| e.to_string())?;
    let store = open_store(dir)?;
    writeln!(
        out,
        "shards: rows={} cols={} nnz={} chunks={}",
        store.rows(),
        store.cols(),
        store.nnz(),
        store.num_shards()
    )
    .map_err(|e| e.to_string())?;
    writeln!(out, "{:>6} {:>12} {:>10} {:>12} {:>12}", "shard", "first-row", "rows", "nnz", "bytes")
        .map_err(|e| e.to_string())?;
    for i in 0..store.num_shards() {
        let meta = store.meta(i);
        writeln!(
            out,
            "{i:>6} {:>12} {:>10} {:>12} {:>12}",
            store.shard_rows(i).start,
            meta.rows,
            meta.nnz,
            meta.file_bytes
        )
        .map_err(|e| e.to_string())?;
    }
    if args.get("verify").is_some() {
        store.verify().map_err(|e| format!("verification failed: {e}"))?;
        writeln!(out, "all {} chunk checksums verified", store.num_shards())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn open_store(dir: &str) -> Result<ShardedDataset, String> {
    ShardedDataset::open(Path::new(dir))
        .map_err(|e| format!("cannot open shard directory {dir}: {e}"))
}

/// `--form` if given; `None` lets the objective pick its natural form.
fn parse_form(args: &Args) -> Result<Option<Form>, String> {
    match args.get("form") {
        None => Ok(None),
        Some("primal") => Ok(Some(Form::Primal)),
        Some("dual") => Ok(Some(Form::Dual)),
        Some(other) => Err(format!("unknown --form {other:?} (primal|dual)")),
    }
}

/// `--objective` (default ridge) with `--l1-ratio` folded into the
/// elastic net; the mix's range is checked by `ObjectiveKind::validate`.
fn parse_objective(args: &Args) -> Result<ObjectiveKind, String> {
    let name = args.get("objective").unwrap_or("ridge");
    let objective = ObjectiveKind::parse(name).map_err(|_| {
        format!("unknown --objective {name:?} (ridge|logistic|svm|lasso|elastic-net)")
    })?;
    match objective {
        ObjectiveKind::ElasticNet { l1_ratio } => Ok(ObjectiveKind::ElasticNet {
            l1_ratio: args.get_or("l1-ratio", l1_ratio, "number").map_err(|e| e.to_string())?,
        }),
        _ if args.get("l1-ratio").is_some() => {
            Err("--l1-ratio only applies to --objective elastic-net".into())
        }
        _ => Ok(objective),
    }
}

/// `--partition` if given; `None` keeps the config's seed-derived default.
fn parse_partition(
    args: &Args,
    config: &DistributedConfig,
) -> Result<Option<PartitionStrategy>, String> {
    Ok(match args.get("partition") {
        None => None,
        Some("contiguous") => Some(PartitionStrategy::Contiguous),
        Some("roundrobin") => Some(PartitionStrategy::RoundRobin),
        // The explicit spelling of the default: seed-derived random.
        Some("random") => Some(config.partition_strategy()),
        Some(other) => {
            return Err(format!(
                "unknown --partition {other:?} (contiguous|roundrobin|random)"
            ))
        }
    })
}

fn parse_wire(args: &Args) -> Result<WireFormat, String> {
    match args.get("wire") {
        None => Ok(WireFormat::Raw),
        Some(s) => WireFormat::parse(s),
    }
}

fn parse_aggregation(args: &Args) -> Result<Aggregation, String> {
    match args.get("aggregation").unwrap_or("averaging") {
        "averaging" => Ok(Aggregation::Averaging),
        "adding" => Ok(Aggregation::Adding),
        "adaptive" => Ok(Aggregation::Adaptive),
        "cocoa+" => Ok(Aggregation::CocoaPlus),
        "line-search" => Ok(Aggregation::LineSearch),
        other => Err(format!(
            "unknown --aggregation {other:?} (averaging|adding|adaptive|cocoa+|line-search)"
        )),
    }
}

/// The single-node backend registry, quoted in every unknown-value error.
const BACKENDS: &str = "seq|a-scd|wild|asyscd|syscd|tpa-m4000|tpa-titanx";

/// Resolve `--backend` (preferred) or its legacy alias `--solver` to
/// `(flag name used, value)`, rejecting contradictory duplicates.
fn backend_choice(args: &Args) -> Result<(&'static str, &str), String> {
    match (args.get("backend"), args.get("solver")) {
        (Some(b), Some(s)) if b != s => {
            Err("--backend and --solver are aliases; pass only one".into())
        }
        (Some(b), _) => Ok(("backend", b)),
        (None, Some(s)) => Ok(("solver", s)),
        (None, None) => Ok(("backend", "seq")),
    }
}

fn single_node_solver(
    args: &Args,
    problem: &RidgeProblem,
    form: Form,
    objective: ObjectiveKind,
    seed: u64,
) -> Result<Box<dyn Solver>, String> {
    let threads = args.get_or("threads", 16usize, "integer").map_err(|e| e.to_string())?;
    let (flag, backend) = backend_choice(args)?;
    Ok(match backend {
        "seq" => Box::new(
            match form {
                Form::Primal => SequentialScd::primal(problem, seed),
                Form::Dual => SequentialScd::dual(problem, seed),
            }
            .with_objective(objective),
        ),
        "a-scd" => Box::new(
            AsyncSimScd::new(problem, form, AsyncCpuMode::Atomic, threads, seed)
                .with_objective(objective),
        ),
        "wild" => Box::new(
            AsyncSimScd::new(problem, form, AsyncCpuMode::Wild, threads, seed)
                .with_objective(objective),
        ),
        "asyscd" => {
            if form != Form::Primal {
                return Err(format!("--{flag} asyscd supports only --form primal"));
            }
            let step = args.get_or("step", 1.0f64, "number").map_err(|e| e.to_string())?;
            let solver = AsyScd::new(problem, step, seed)
                .map_err(|e| e.to_string())?
                .with_objective(problem, objective)
                .map_err(|e| e.to_string())?;
            Box::new(solver)
        }
        "syscd" => {
            let buckets = args
                .get_or("buckets", scd_core::syscd::DEFAULT_BUCKET_SIZE, "integer")
                .map_err(|e| e.to_string())?;
            let merge_every: Option<usize> = match args.get("merge-every") {
                Some(_) => Some(args.get_or("merge-every", 1usize, "integer").map_err(|e| e.to_string())?),
                None => None,
            };
            if buckets == 0 {
                return Err("--buckets must be >= 1".into());
            }
            if merge_every == Some(0) {
                return Err("--merge-every must be >= 1".into());
            }
            let mut solver = SyscdScd::new(problem, form, threads, seed)
                .with_buckets(problem, buckets)
                .with_objective(objective);
            if let Some(k) = merge_every {
                solver = solver.with_merge_every(k);
            }
            Box::new(solver)
        }
        "tpa-m4000" => Box::new(
            TpaScd::new(problem, form, Arc::new(Gpu::new(GpuProfile::quadro_m4000())), seed)
                .map_err(|e| e.to_string())?
                .with_objective(objective),
        ),
        "tpa-titanx" => Box::new(
            TpaScd::new(
                problem,
                form,
                Arc::new(Gpu::new(GpuProfile::titan_x_maxwell())),
                seed,
            )
            .map_err(|e| e.to_string())?
            .with_objective(objective),
        ),
        other => return Err(format!("unknown --{flag} {other:?} (valid: {BACKENDS})")),
    })
}

fn parse_fault(args: &Args) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none();
    plan.drop_probability = args.get_or("fault-drop", 0.0f64, "number").map_err(|e| e.to_string())?;
    plan.delay_probability = args.get_or("fault-delay", 0.0f64, "number").map_err(|e| e.to_string())?;
    plan.delay_factor = args
        .get_or("fault-delay-factor", 3.0f64, "number")
        .map_err(|e| e.to_string())?;
    let timeout = args.get_or("fault-timeout", f64::NAN, "number").map_err(|e| e.to_string())?;
    if !timeout.is_nan() {
        plan.timeout_seconds = Some(timeout);
    }
    plan.max_retries = args.get_or("fault-retries", 1usize, "integer").map_err(|e| e.to_string())?;
    plan.seed = args.get_or("fault-seed", 0u64, "integer").map_err(|e| e.to_string())?;
    for (name, p) in [
        ("fault-drop", plan.drop_probability),
        ("fault-delay", plan.delay_probability),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("--{name} {p}: expected a probability in [0, 1]"));
        }
    }
    Ok(plan)
}

fn local_solver_kind(args: &Args) -> Result<LocalSolverKind, String> {
    let threads = args.get_or("threads", 16usize, "integer").map_err(|e| e.to_string())?;
    let (flag, backend) = backend_choice(args)?;
    Ok(match backend {
        "seq" => LocalSolverKind::Sequential,
        "a-scd" => LocalSolverKind::AsyncSim {
            mode: AsyncCpuMode::Atomic,
            threads,
            paper_scale_staleness: true,
        },
        "wild" => LocalSolverKind::AsyncSim {
            mode: AsyncCpuMode::Wild,
            threads,
            paper_scale_staleness: true,
        },
        "tpa-m4000" => LocalSolverKind::Tpa {
            profile: GpuProfile::quadro_m4000(),
            lanes: 64,
            deterministic: true,
        },
        "tpa-titanx" => LocalSolverKind::Tpa {
            profile: GpuProfile::titan_x_maxwell(),
            lanes: 64,
            deterministic: true,
        },
        other => {
            return Err(format!(
                "--{flag} {other:?} cannot run distributed (seq|a-scd|wild|tpa-m4000|tpa-titanx)"
            ))
        }
    })
}

/// `scd train`.
pub fn train(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&[
        "data", "features", "objective", "lambda", "l1-ratio", "form", "backend", "solver",
        "threads", "buckets", "merge-every", "host-threads", "step", "epochs", "eval-every",
        "target-gap", "workers", "partition", "aggregation", "wire", "round-threads", "runtime",
        "staleness",
        "event-trace", "fault-drop", "fault-delay", "fault-delay-factor", "fault-timeout",
        "fault-retries", "fault-seed", "round-metrics", "save-model", "seed",
    ])
    .map_err(|e| e.to_string())?;
    // The bucket/merge knobs parameterize only the syscd backend; reject
    // them elsewhere so a typo'd invocation fails loudly.
    let (backend_flag, backend) = backend_choice(args)?;
    if backend != "syscd" {
        for knob in ["buckets", "merge-every"] {
            if args.get(knob).is_some() {
                return Err(format!("--{knob} only applies to --{backend_flag} syscd"));
            }
        }
    }
    // Size the process-wide host scheduler before anything can lazily
    // initialize it. 0 = leave it at the auto default.
    let host_threads = args
        .get_or("host-threads", 0usize, "integer")
        .map_err(|e| e.to_string())?;
    if host_threads > 0 {
        scd_sched::configure_global(host_threads)
            .map_err(|e| format!("--host-threads {host_threads}: {e}"))?;
    }
    let lambda = args.get_or("lambda", 1e-3f64, "number").map_err(|e| e.to_string())?;
    let epochs = args.get_or("epochs", 50usize, "integer").map_err(|e| e.to_string())?;
    let eval_every = args.get_or("eval-every", 10usize, "integer").map_err(|e| e.to_string())?.max(1);
    let target_gap = args.get_or("target-gap", f64::NAN, "number").map_err(|e| e.to_string())?;
    let seed = args.get_or("seed", 1u64, "integer").map_err(|e| e.to_string())?;
    // `--data` names either a LIBSVM file or a `scd shard gen` directory.
    let data_path = args.require("data").map_err(|e| e.to_string())?;
    let store = if Path::new(data_path).is_dir() {
        if args.get("features").is_some() {
            return Err("--features applies to LIBSVM files, not shard directories".into());
        }
        Some(open_store(data_path)?)
    } else {
        None
    };
    let problem = match &store {
        Some(store) => {
            let (csr, labels) = store
                .load_all()
                .map_err(|e| format!("cannot load {data_path}: {e}"))?;
            writeln!(
                out,
                "data: sharded N={} M={} nnz={} chunks={}",
                store.rows(),
                store.cols(),
                store.nnz(),
                store.num_shards()
            )
            .map_err(|e| e.to_string())?;
            RidgeProblem::new(csr, labels, lambda).map_err(|e| e.to_string())?
        }
        None => {
            let data = load(args)?;
            writeln!(out, "data: {}", DatasetStats::of(&data)).map_err(|e| e.to_string())?;
            RidgeProblem::from_labelled(&data, lambda).map_err(|e| e.to_string())?
        }
    };

    let objective = parse_objective(args)?;
    let form = parse_form(args)?.unwrap_or_else(|| objective.default_form());
    objective.validate(&problem, form).map_err(|e| e.to_string())?;
    let workers = args.get_or("workers", 1usize, "integer").map_err(|e| e.to_string())?;
    // The distributed drivers stay concrete so their round metrics
    // remain reachable after training.
    let mut distributed: Option<DistributedScd> = None;
    let mut event_driven: Option<AsyncScd> = None;
    let mut single: Option<Box<dyn Solver>> = None;
    if args.get("partition").is_some() && workers <= 1 {
        return Err("--partition needs --workers > 1".into());
    }
    if workers > 1 {
        let round_threads = args
            .get_or("round-threads", 0usize, "integer")
            .map_err(|e| e.to_string())?;
        let mut config = DistributedConfig::new(workers, form)
            .with_objective(objective)
            .with_aggregation(parse_aggregation(args)?)
            .with_solver(local_solver_kind(args)?)
            .with_runtime(RoundRuntime::Concurrent {
                threads: round_threads,
            })
            .with_fault(parse_fault(args)?)
            .with_wire(parse_wire(args)?)
            .with_seed(seed);
        // Shard directories are row-major on disk, so store-backed
        // clusters default to the contiguous strategy they require.
        let strategy = match parse_partition(args, &config)? {
            Some(s) => Some(s),
            None if store.is_some() => Some(PartitionStrategy::Contiguous),
            None => None,
        };
        if let Some(strategy) = strategy {
            config = config.with_strategy(strategy);
        }
        // --staleness implies the event runtime; --runtime sync is
        // the lock-step barrier driver.
        let runtime = args.get("runtime").unwrap_or(if args.get("staleness").is_some() {
            "event"
        } else {
            "sync"
        });
        match runtime {
            "sync" => {
                let dist = match &store {
                    Some(store) => DistributedScd::from_store(&problem, store, &config)
                        .map_err(|e| e.to_string())?,
                    None => DistributedScd::new(&problem, &config).map_err(|e| e.to_string())?,
                };
                distributed = Some(dist);
            }
            "event" if store.is_some() => {
                return Err(
                    "store-backed training supports only --runtime sync (the event engine \
                     partitions in memory)"
                        .into(),
                );
            }
            "event" => {
                let tau = Staleness::parse(args.get("staleness").unwrap_or("0"))?;
                let mut asynch =
                    AsyncScd::new(&problem, &config, tau).map_err(|e| e.to_string())?;
                if args.get("event-trace").is_some() {
                    asynch.set_trace(true);
                }
                event_driven = Some(asynch);
            }
            other => return Err(format!("--runtime {other:?}: expected sync|event")),
        }
    } else {
        single = Some(single_node_solver(args, &problem, form, objective, seed)?);
    }
    // Store-backed clusters report what moving the shards actually cost:
    // real chunk-file bytes priced through the net/PCIe models.
    if store.is_some() {
        if let Some(dist) = distributed.as_ref() {
            let setup = dist.setup_cost();
            writeln!(
                out,
                "data distribution: {} B over {workers} workers (net {:.3e} s, pcie {:.3e} s)",
                setup.total_bytes(),
                setup.network_seconds,
                setup.pcie_seconds
            )
            .map_err(|e| e.to_string())?;
        }
    }
    let solver: &mut dyn Solver = if let Some(dist) = distributed.as_mut() {
        dist
    } else if let Some(asynch) = event_driven.as_mut() {
        asynch
    } else {
        single.as_mut().expect("one branch populated").as_mut()
    };
    writeln!(
        out,
        "solver: {} ({} form, {} objective)",
        solver.name(),
        form.label(),
        objective.label()
    )
    .map_err(|e| e.to_string())?;
    // Classification duals also report training accuracy, scored through
    // the objective's optimality mapping α → β.
    let classification = objective.requires_binary_labels();
    let accuracy = |weights: &[f32]| -> f64 {
        let beta = objective.induced_primal(&problem, weights);
        let scores = problem.csr().matvec(&beta).expect("induced weights have length M");
        let correct = scores
            .iter()
            .zip(problem.labels())
            .filter(|&(&s, &y)| (s >= 0.0) == (y > 0.0))
            .count();
        correct as f64 / problem.n() as f64
    };
    let mut recorder = ConvergenceRecorder::new();
    recorder.record_initial(solver.duality_gap(&problem));
    for epoch in 1..=epochs {
        let stats = solver.epoch(&problem);
        let gap = solver.duality_gap(&problem);
        recorder.record_epoch(stats.breakdown, gap, 0.0);
        let seconds = recorder.total_seconds();
        if epoch % eval_every == 0 || epoch == epochs || (!target_gap.is_nan() && gap <= target_gap) {
            let mut line = format!("epoch {epoch:>5}  gap {gap:>12.4e}  sim {seconds:>10.4}s");
            if classification {
                let acc = 100.0 * accuracy(&solver.weights());
                line.push_str(&format!("  acc {acc:>6.2}%"));
            }
            writeln!(out, "{line}").map_err(|e| e.to_string())?;
        }
        if !target_gap.is_nan() && gap <= target_gap {
            writeln!(out, "target gap {target_gap:.1e} reached").map_err(|e| e.to_string())?;
            break;
        }
    }
    // Full-precision gap: the line shard-vs-memory bit-identity checks
    // compare (f64 round-trips exactly through 17 significant digits).
    writeln!(out, "final gap {:.17e}", solver.duality_gap(&problem)).map_err(|e| e.to_string())?;
    // Rate-of-convergence report: a gap that hit exact 0 (or went
    // non-finite) is called out by epoch rather than fed into the
    // log-scale fit as log10(0) = −∞.
    if let Some(epoch) = recorder.first_nonpositive_gap() {
        writeln!(out, "gap reached 0 at epoch {epoch}").map_err(|e| e.to_string())?;
    }
    if let Some(rho) = recorder.linear_rate(0.0) {
        writeln!(
            out,
            "convergence rate: gap shrinks {rho:.4}x per epoch (log-linear fit over {} epochs)",
            recorder.epochs()
        )
        .map_err(|e| e.to_string())?;
    }
    if let Some(path) = args.get("save-model") {
        let model = TrainedModel::from_weights(&problem, objective, form, solver.weights());
        let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
        model.save(file).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "model saved to {path} ({} weights, {} objective)",
            model.features(),
            model.objective.label()
        )
        .map_err(|e| e.to_string())?;
    }
    if let Some(path) = args.get("round-metrics") {
        let (json, rounds, dropped) = if let Some(dist) = distributed.as_ref() {
            let dropped = dist.round_metrics().iter().map(|m| m.dropped_workers.len()).sum();
            (dist.metrics_json(), dist.round_metrics().len(), dropped)
        } else if let Some(asynch) = event_driven.as_ref() {
            let dropped =
                asynch.round_metrics().iter().map(|m| m.dropped_workers.len()).sum();
            (asynch.metrics_json(), asynch.round_metrics().len(), dropped)
        } else {
            return Err("--round-metrics needs --workers > 1".into());
        };
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        let dropped: usize = dropped;
        writeln!(
            out,
            "round metrics written to {path} ({rounds} rounds, {dropped} dropped rounds)"
        )
        .map_err(|e| e.to_string())?;
    }
    if let Some(path) = args.get("event-trace") {
        let asynch = event_driven
            .as_ref()
            .ok_or("--event-trace needs --runtime event")?;
        let mut trace = asynch.trace_lines().join("\n");
        trace.push('\n');
        std::fs::write(path, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "event trace written to {path} ({} events)",
            asynch.trace_lines().len()
        )
        .map_err(|e| e.to_string())?;
    }
    let wire_totals = distributed
        .as_ref()
        .map(|d| (d.wire(), d.wire_bytes_total()))
        .or_else(|| event_driven.as_ref().map(|a| (a.wire(), a.wire_bytes_total())));
    if let Some((wire, (raw, encoded))) = wire_totals {
        if encoded > 0 {
            writeln!(
                out,
                "wire {}: {} B raw -> {} B encoded ({:.2}x)",
                wire,
                raw,
                encoded,
                raw as f64 / encoded as f64
            )
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `scd sweep`: warm-started regularization path over a λ grid.
pub fn sweep(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&[
        "data", "features", "lambda-max", "lambda-ratio", "points", "tol", "max-epochs", "seed",
    ])
    .map_err(|e| e.to_string())?;
    let data = load(args)?;
    let lambda_max = args.get_or("lambda-max", 1.0f64, "number").map_err(|e| e.to_string())?;
    let ratio = args.get_or("lambda-ratio", 1e-3f64, "number").map_err(|e| e.to_string())?;
    let points = args.get_or("points", 8usize, "integer").map_err(|e| e.to_string())?;
    let tol = args.get_or("tol", 1e-6f64, "number").map_err(|e| e.to_string())?;
    let max_epochs = args.get_or("max-epochs", 300usize, "integer").map_err(|e| e.to_string())?;
    let seed = args.get_or("seed", 1u64, "integer").map_err(|e| e.to_string())?;
    let base = RidgeProblem::from_labelled(&data, lambda_max).map_err(|e| e.to_string())?;
    let grid = RegularizationPath::log_grid(lambda_max, ratio, points.max(2));
    let path = RegularizationPath::solve(&base, &grid, tol, max_epochs, seed);
    writeln!(out, "{:>12} {:>8} {:>12} {:>12}", "lambda", "epochs", "gap", "train_mse")
        .map_err(|e| e.to_string())?;
    let csr = base.csr();
    for pt in &path.points {
        let scores = csr.matvec(&pt.beta).expect("width matches");
        let mse: f64 = scores
            .iter()
            .zip(base.labels())
            .map(|(&s, &y)| (s as f64 - y as f64).powi(2))
            .sum::<f64>()
            / base.n() as f64;
        writeln!(
            out,
            "{:>12.4e} {:>8} {:>12.3e} {:>12.6}",
            pt.lambda, pt.epochs, pt.gap, mse
        )
        .map_err(|e| e.to_string())?;
    }
    writeln!(out, "total epochs (warm-started): {}", path.total_epochs())
        .map_err(|e| e.to_string())?;
    Ok(())
}

fn load_model(path: &str) -> Result<TrainedModel, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    TrainedModel::load(file).map_err(|e| format!("cannot load {path}: {e}"))
}

/// `scd serve`: a JSON-lines scoring session — requests on stdin, one
/// response per line on stdout. Either serves a saved `--model` file
/// (with `{"op":"reload"}` hot swap from disk) or trains live from
/// `--train-data`, with the synchronous driver publishing into the
/// serving slot at every round boundary.
pub fn serve(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&[
        "model", "train-data", "features", "objective", "lambda", "workers", "epochs", "seed",
    ])
    .map_err(|e| e.to_string())?;
    match (args.get("model"), args.get("train-data")) {
        (Some(_), Some(_)) => {
            Err("pass --model (a saved file) or --train-data (train live), not both".into())
        }
        (None, None) => Err("serve needs --model FILE or --train-data FILE|DIR".into()),
        (Some(path), None) => {
            for flag in ["objective", "lambda", "workers", "epochs", "seed", "features"] {
                if args.get(flag).is_some() {
                    return Err(format!("--{flag} only applies to --train-data serving"));
                }
            }
            let model = load_model(path)?;
            let slot = ModelSlot::new(model.features());
            slot.publish(model.objective, model.lambda, &model.beta);
            eprintln!(
                "serving {path}: {} features, {} objective \
                 (send {{\"op\":\"reload\"}} to re-read the file)",
                model.features(),
                model.objective.label()
            );
            serve_session(&slot, Some(path), out)
        }
        (None, Some(path)) => serve_live(path, args, out),
    }
}

/// The shared request loop: read stdin lines until EOF, answer each one.
/// `reload_from` enables the CLI-level `{"op":"reload"}` op.
fn serve_session(
    slot: &ModelSlot,
    reload_from: Option<&str>,
    out: &mut dyn Write,
) -> Result<(), String> {
    let scorer = BatchScorer::new(scd_sched::global());
    let (mut requests, mut scored_rows, mut errors) = (0u64, 0u64, 0u64);
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("cannot read stdin: {e}"))?;
        if line.trim().is_empty() {
            continue;
        }
        requests += 1;
        let response = if is_reload(&line) {
            reload(reload_from, slot)
        } else {
            respond(&line, slot, &scorer)
        };
        scored_rows += response.scored_rows;
        if !response.ok {
            errors += 1;
        }
        writeln!(out, "{}", response.line).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
    }
    eprintln!("served {requests} requests ({scored_rows} rows scored, {errors} errors)");
    Ok(())
}

fn is_reload(line: &str) -> bool {
    Json::parse(line)
        .ok()
        .and_then(|req| req.get("op").and_then(Json::as_str).map(|op| op == "reload"))
        .unwrap_or(false)
}

fn error_response(msg: &str) -> Response {
    Response {
        line: format!("{{\"ok\":false,\"error\":{}}}", escape(msg)),
        ok: false,
        scored_rows: 0,
    }
}

/// `{"op":"reload"}`: re-read the `--model` file and publish it into the
/// serving slot — the on-disk flavour of a hot model swap. The new file
/// must keep the feature width (the slot never resizes under readers).
fn reload(reload_from: Option<&str>, slot: &ModelSlot) -> Response {
    let Some(path) = reload_from else {
        return error_response(
            "reload applies only to --model file serving (live training republishes itself)",
        );
    };
    let model = match load_model(path) {
        Ok(model) => model,
        Err(e) => return error_response(&e),
    };
    if model.features() != slot.features() {
        return error_response(&format!(
            "reload rejected: {path} now has {} features, the serving slot holds {}",
            model.features(),
            slot.features()
        ));
    }
    let seq = slot.publish(model.objective, model.lambda, &model.beta);
    Response {
        line: format!(
            "{{\"ok\":true,\"reloaded\":true,\"model_seq\":{seq},\"features\":{},\
             \"objective\":{},\"lambda\":{}}}",
            model.features(),
            escape(model.objective.label()),
            model.lambda,
        ),
        ok: true,
        scored_rows: 0,
    }
}

/// `scd serve --train-data`: hot model swap under load. The synchronous
/// driver trains in a background thread and publishes the assembled
/// model at every round boundary; the foreground session scores against
/// whatever round is current (`model_seq` in each response names it).
fn serve_live(path: &str, args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let lambda = args.get_or("lambda", 1e-3f64, "number").map_err(|e| e.to_string())?;
    let epochs = args.get_or("epochs", 50usize, "integer").map_err(|e| e.to_string())?.max(1);
    let workers = args.get_or("workers", 4usize, "integer").map_err(|e| e.to_string())?;
    let seed = args.get_or("seed", 1u64, "integer").map_err(|e| e.to_string())?;
    if workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    let objective = parse_objective(args)?;
    let form = objective.default_form();
    let problem = if Path::new(path).is_dir() {
        if args.get("features").is_some() {
            return Err("--features applies to LIBSVM files, not shard directories".into());
        }
        let store = open_store(path)?;
        let (csr, labels) = store.load_all().map_err(|e| format!("cannot load {path}: {e}"))?;
        RidgeProblem::new(csr, labels, lambda).map_err(|e| e.to_string())?
    } else {
        let features = args
            .get("features")
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--features {v:?}: expected integer"))
            })
            .transpose()?;
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        let data = read_libsvm(file, features).map_err(|e| format!("cannot parse {path}: {e}"))?;
        RidgeProblem::from_labelled(&data, lambda).map_err(|e| e.to_string())?
    };
    objective.validate(&problem, form).map_err(|e| e.to_string())?;
    let problem = Arc::new(problem);
    let slot = Arc::new(ModelSlot::new(problem.m()));
    let trainer = {
        let problem = Arc::clone(&problem);
        let slot = Arc::clone(&slot);
        let config = DistributedConfig::new(workers, form)
            .with_objective(objective)
            .with_seed(seed);
        let mut driver = DistributedScd::new(&problem, &config).map_err(|e| e.to_string())?;
        std::thread::spawn(move || {
            let observer_problem = Arc::clone(&problem);
            driver.set_round_observer(Box::new(move |_round, weights| {
                // The observer hands over native-form weights; dual
                // iterates go through the objective's optimality mapping.
                let beta = match form {
                    Form::Primal => weights.to_vec(),
                    Form::Dual => objective.induced_primal(&observer_problem, weights),
                };
                slot.publish(objective, observer_problem.lambda(), &beta);
            }));
            for _ in 0..epochs {
                driver.epoch(&problem);
            }
        })
    };
    // Serve from the first published round onward — scoring before any
    // round completed would only answer "no model published yet".
    while slot.seq() == 0 && !trainer.is_finished() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    eprintln!(
        "serving live: {} objective, {workers}-worker synchronous driver publishing {epochs} rounds",
        objective.label()
    );
    let result = serve_session(&slot, None, out);
    trainer.join().map_err(|_| "training thread panicked".to_string())?;
    result
}

/// `scd score`: batch-score a dataset with a saved model — one JSON line
/// per row, then a JSON summary line. Shard directories stream batch by
/// batch, so scoring never loads the whole store.
pub fn score(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&["model", "data", "features", "batch", "limit"])
        .map_err(|e| e.to_string())?;
    let model_path = args.require("model").map_err(|e| e.to_string())?;
    let data_path = args.require("data").map_err(|e| e.to_string())?;
    let batch = args.get_or("batch", 64usize, "integer").map_err(|e| e.to_string())?;
    if batch == 0 {
        return Err("--batch must be >= 1".into());
    }
    let limit = args.get_or("limit", usize::MAX, "integer").map_err(|e| e.to_string())?;
    let model = load_model(model_path)?;
    let scorer = BatchScorer::new(scd_sched::global());

    // Append a JSON number (or null for non-finite) without the
    // intermediate String `num_f32` would allocate per value.
    fn push_num(line: &mut String, v: f32) {
        use std::fmt::Write as _;
        if v.is_finite() {
            write!(line, "{v}").expect("writing to a String cannot fail");
        } else {
            line.push_str("null");
        }
    }

    let mut rows_done = 0usize;
    let mut batches = 0usize;
    let mut correct = 0usize;
    let mut binary = true;
    let mut squared_error = 0f64;
    // One scoring workspace and one line buffer for the whole stream:
    // per-row output formats into the reused String, so the loop's only
    // steady-state heap traffic is whatever the batch loader needs.
    let mut scored = Scored::default();
    let mut line = String::new();
    let mut score_batch = |rows: &CsrMatrix,
                           labels: &[f32],
                           first_row: usize,
                           out: &mut dyn Write|
     -> Result<(), String> {
        scorer
            .score_into(rows, model.objective, &model.beta, &mut scored)
            .map_err(|e| e.to_string())?;
        for (i, (&d, &p)) in scored.decisions.iter().zip(&scored.predictions).enumerate() {
            let y = labels[i];
            line.clear();
            use std::fmt::Write as _;
            write!(line, "{{\"row\":{},\"label\":", first_row + i)
                .expect("writing to a String cannot fail");
            push_num(&mut line, y);
            line.push_str(",\"decision\":");
            push_num(&mut line, d);
            line.push_str(",\"prediction\":");
            push_num(&mut line, p);
            line.push_str("}\n");
            out.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
            binary &= y == 1.0 || y == -1.0;
            if (d >= 0.0) == (y > 0.0) {
                correct += 1;
            }
            squared_error += (d as f64 - y as f64).powi(2);
        }
        rows_done += scored.decisions.len();
        batches += 1;
        Ok(())
    };

    if Path::new(data_path).is_dir() {
        if args.get("features").is_some() {
            return Err("--features applies to LIBSVM files, not shard directories".into());
        }
        let store = open_store(data_path)?;
        if store.cols() > model.features() {
            return Err(format!(
                "feature-space mismatch: model has {} features, shards are {} wide",
                model.features(),
                store.cols()
            ));
        }
        let total = store.rows().min(limit);
        let mut start = 0usize;
        while start < total {
            let end = (start + batch).min(total);
            let (csr, labels) = store
                .load_rows(start..end)
                .map_err(|e| format!("cannot load rows {start}..{end} of {data_path}: {e}"))?;
            score_batch(&csr, &labels, start, out)?;
            start = end;
        }
    } else {
        let data = if args.get("features").is_some() {
            load(args)?
        } else {
            let f = File::open(data_path).map_err(|e| format!("cannot open {data_path}: {e}"))?;
            read_libsvm(f, Some(model.features()))
                .map_err(|e| format!("cannot parse {data_path}: {e}"))?
        };
        let csr = data.matrix.to_csr();
        let total = csr.rows().min(limit);
        let mut start = 0usize;
        while start < total {
            let end = (start + batch).min(total);
            let pairs: Vec<Vec<(u32, f32)>> = (start..end)
                .map(|r| {
                    let row = csr.row(r);
                    row.indices.iter().copied().zip(row.values.iter().copied()).collect()
                })
                .collect();
            let slice = scd_serve::batch_from_pairs(&pairs, model.features())
                .map_err(|e| e.to_string())?;
            score_batch(&slice, &data.labels[start..end], start, out)?;
            start = end;
        }
    }

    let accuracy = if binary && rows_done > 0 {
        format!("{}", correct as f64 / rows_done as f64)
    } else {
        "null".into()
    };
    let mse = if rows_done > 0 {
        format!("{}", squared_error / rows_done as f64)
    } else {
        "null".into()
    };
    writeln!(
        out,
        "{{\"ok\":true,\"rows\":{rows_done},\"batches\":{batches},\"batch\":{batch},\
         \"objective\":{},\"features\":{},\"accuracy\":{accuracy},\"mse\":{mse}}}",
        escape(model.objective.label()),
        model.features(),
    )
    .map_err(|e| e.to_string())
}

/// `scd predict`: score a LIBSVM file with a saved model.
pub fn predict(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    args.check_known(&["model", "data", "features"]).map_err(|e| e.to_string())?;
    let model_path = args.require("model").map_err(|e| e.to_string())?;
    let model = load_model(model_path)?;
    // Score against the model's feature space unless overridden.
    let data = if args.get("features").is_some() {
        load(args)?
    } else {
        let path = args.require("data").map_err(|e| e.to_string())?;
        let f = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        read_libsvm(f, Some(model.features()))
            .map_err(|e| format!("cannot parse {path}: {e}"))?
    };
    let csr = data.matrix.to_csr();
    let binary = data.labels.iter().all(|&y| y == 1.0 || y == -1.0);
    writeln!(
        out,
        "model: {} weights, trained {} form, lambda {}",
        model.features(),
        model.form.label(),
        model.lambda
    )
    .map_err(|e| e.to_string())?;
    if binary {
        writeln!(out, "accuracy: {:.2}%", 100.0 * model.accuracy(&csr, &data.labels))
            .map_err(|e| e.to_string())?;
    }
    writeln!(out, "mse: {:.6}", model.mse(&csr, &data.labels)).map_err(|e| e.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    fn run_to_string(spec: &str) -> Result<String, String> {
        let mut buf = Vec::new();
        run(&args(spec), &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("scd_cli_test_{name}_{}.svm", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn generate_info_train_roundtrip() {
        let path = tmp("roundtrip");
        let out = run_to_string(&format!(
            "generate --kind webspam --rows 80 --cols 60 --nnz-per-row 6 --scale 0.3 --output {path}"
        ))
        .unwrap();
        assert!(out.contains("N=80"));

        let out = run_to_string(&format!("info --data {path}")).unwrap();
        assert!(out.contains("N=80"));
        let out = run_to_string(&format!("info --data {path} --detail yes")).unwrap();
        assert!(out.contains("ELLPACK padding ratio"), "{out}");
        assert!(out.contains("gini"));

        let out = run_to_string(&format!(
            "train --data {path} --features 60 --epochs 30 --eval-every 30"
        ))
        .unwrap();
        assert!(out.contains("SCD (1 thread)"));
        assert!(out.contains("epoch    30"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_distributed_and_gpu() {
        let path = tmp("dist");
        run_to_string(&format!(
            "generate --kind webspam --rows 60 --cols 50 --nnz-per-row 5 --scale 0.3 --output {path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "train --data {path} --features 50 --workers 3 --aggregation adaptive --epochs 10 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("K=3"));
        assert!(out.contains("adaptive"));
        let out = run_to_string(&format!(
            "train --data {path} --features 50 --solver tpa-titanx --form dual --epochs 5 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("TPA-SCD (GTX Titan X)"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_with_faults_writes_round_metrics() {
        let path = tmp("fault");
        let metrics_path = tmp("fault_metrics").replace(".svm", ".json");
        run_to_string(&format!(
            "generate --kind webspam --rows 80 --cols 60 --nnz-per-row 5 --scale 0.3 --output {path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "train --data {path} --features 60 --workers 4 --round-threads 2 \
             --fault-drop 0.2 --fault-retries 2 --fault-seed 9 --epochs 10 --eval-every 10 \
             --round-metrics {metrics_path}"
        ))
        .unwrap();
        assert!(out.contains("round metrics written"), "{out}");
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(json.contains("\"epoch\": 0"), "{json}");
        assert!(json.contains("\"survivors\""));

        // Fault flags are validated…
        assert!(run_to_string(&format!(
            "train --data {path} --features 60 --workers 2 --fault-drop 1.5"
        ))
        .unwrap_err()
        .contains("probability"));
        // …and metrics need a cluster.
        assert!(run_to_string(&format!(
            "train --data {path} --features 60 --round-metrics {metrics_path}"
        ))
        .unwrap_err()
        .contains("--workers"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics_path).ok();
    }

    #[test]
    fn train_with_wire_formats() {
        let path = tmp("wire");
        run_to_string(&format!(
            "generate --kind webspam --rows 60 --cols 50 --nnz-per-row 5 --scale 0.3 --output {path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "train --data {path} --features 50 --workers 3 --wire topk-ef:8 --epochs 10 --eval-every 10"
        ))
        .unwrap();
        assert!(out.contains("wire topk-ef:8:"), "{out}");
        assert!(out.contains("B encoded"), "{out}");
        let out = run_to_string(&format!(
            "train --data {path} --features 50 --workers 2 --wire fp16 --epochs 5 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("wire fp16:"), "{out}");
        assert!(run_to_string(&format!(
            "train --data {path} --features 50 --workers 2 --wire zstd"
        ))
        .unwrap_err()
        .contains("unknown wire format"));
        assert!(run_to_string(&format!(
            "train --data {path} --features 50 --workers 2 --wire topk:0"
        ))
        .unwrap_err()
        .contains("positive integer"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_event_runtime_with_staleness() {
        let path = tmp("event");
        let metrics_path = tmp("event_metrics").replace(".svm", ".json");
        let trace_path = tmp("event_trace").replace(".svm", ".log");
        run_to_string(&format!(
            "generate --kind webspam --rows 60 --cols 50 --nnz-per-row 5 --scale 0.3 --output {path}"
        ))
        .unwrap();
        // --staleness alone implies --runtime event.
        let out = run_to_string(&format!(
            "train --data {path} --features 50 --workers 3 --staleness 2 --epochs 10 \
             --eval-every 10 --round-metrics {metrics_path} --event-trace {trace_path}"
        ))
        .unwrap();
        assert!(out.contains("tau=2"), "{out}");
        assert!(out.contains("round metrics written"), "{out}");
        assert!(out.contains("event trace written"), "{out}");
        let json = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(json.contains("\"staleness_hist\""), "{json}");
        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(trace.lines().next().unwrap().starts_with("t="), "{trace}");

        let out = run_to_string(&format!(
            "train --data {path} --features 50 --workers 2 --runtime event --staleness inf \
             --epochs 5 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("tau=inf"), "{out}");
        assert!(run_to_string(&format!(
            "train --data {path} --features 50 --workers 2 --runtime warp"
        ))
        .unwrap_err()
        .contains("expected sync|event"));
        assert!(run_to_string(&format!(
            "train --data {path} --features 50 --workers 2 --event-trace {trace_path}"
        ))
        .unwrap_err()
        .contains("needs --runtime event"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(metrics_path).ok();
        std::fs::remove_file(trace_path).ok();
    }

    #[test]
    fn train_other_objectives() {
        let path = tmp("obj");
        run_to_string(&format!(
            "generate --kind criteo --rows 60 --fields 4 --cardinality 10 --output {path}"
        ))
        .unwrap();
        for obj in ["svm", "logistic", "lasso", "elastic-net"] {
            let out = run_to_string(&format!(
                "train --data {path} --features 40 --objective {obj} --lambda 0.01 --epochs 5 --eval-every 5"
            ))
            .unwrap();
            assert!(out.contains("epoch     5"), "{obj}: {out}");
            assert!(out.contains(&format!("{obj} objective")), "{obj}: {out}");
            assert!(
                out.contains("convergence rate:") || out.contains("gap reached 0"),
                "{obj}: rate report missing: {out}"
            );
        }
        // The classification duals report training accuracy.
        let out = run_to_string(&format!(
            "train --data {path} --features 40 --objective svm --epochs 5 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("acc "), "{out}");
        // Any objective runs distributed: the driver validates the pairing.
        let out = run_to_string(&format!(
            "train --data {path} --features 40 --objective logistic --workers 3 --epochs 5 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("K=3"), "{out}");
        assert!(out.contains("logistic objective"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_syscd_backend() {
        let path = tmp("syscd");
        run_to_string(&format!(
            "generate --kind webspam --rows 80 --cols 60 --nnz-per-row 6 --scale 0.3 --output {path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "train --data {path} --features 60 --backend syscd --threads 4 --buckets 8 \
             --merge-every 2 --epochs 20 --eval-every 20"
        ))
        .unwrap();
        assert!(out.contains("SySCD (4 threads)"), "{out}");
        assert!(out.contains("epoch    20"), "{out}");
        // The legacy alias spells the same backend.
        let out = run_to_string(&format!(
            "train --data {path} --features 60 --solver syscd --threads 2 --epochs 5 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("SySCD (2 threads)"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn backend_flag_errors() {
        let path = tmp("backend_err");
        run_to_string(&format!(
            "generate --kind webspam --rows 20 --cols 15 --nnz-per-row 3 --output {path}"
        ))
        .unwrap();
        // Unknown values list the full registry.
        let err = run_to_string(&format!("train --data {path} --backend warp9")).unwrap_err();
        assert!(err.contains("unknown --backend"), "{err}");
        assert!(
            err.contains("seq|a-scd|wild|asyscd|syscd|tpa-m4000|tpa-titanx"),
            "{err}"
        );
        // Contradictory alias use is rejected.
        let err = run_to_string(&format!(
            "train --data {path} --backend syscd --solver seq"
        ))
        .unwrap_err();
        assert!(err.contains("aliases"), "{err}");
        // syscd-only knobs are rejected on other backends.
        let err = run_to_string(&format!("train --data {path} --buckets 8")).unwrap_err();
        assert!(err.contains("--buckets only applies to --backend syscd"), "{err}");
        let err = run_to_string(&format!(
            "train --data {path} --solver wild --merge-every 2"
        ))
        .unwrap_err();
        assert!(err.contains("--merge-every only applies to --solver syscd"), "{err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn train_help_documents_syscd_knobs() {
        let out = run_to_string("train --help").unwrap();
        for word in ["--backend", "syscd", "--buckets", "--merge-every"] {
            assert!(out.contains(word), "train --help missing {word}");
        }
    }

    #[test]
    fn host_threads_zero_leaves_the_scheduler_alone() {
        // 0 = auto: train must not try to (re)configure the process-wide
        // scheduler, so this is safe to run in-process alongside other
        // tests that may have already initialized it.
        let path = tmp("host_auto");
        run_to_string(&format!(
            "generate --kind webspam --rows 40 --cols 30 --nnz-per-row 4 --scale 0.3 --output {path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "train --data {path} --features 30 --host-threads 0 --epochs 5 --eval-every 5"
        ))
        .unwrap();
        assert!(out.contains("epoch     5"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn target_gap_stops_early() {
        let path = tmp("target");
        run_to_string(&format!(
            "generate --kind webspam --rows 60 --cols 40 --nnz-per-row 5 --scale 0.3 --output {path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "train --data {path} --features 40 --epochs 500 --eval-every 100 --target-gap 1e-3"
        ))
        .unwrap();
        assert!(out.contains("target gap 1.0e-3 reached"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn helpful_errors() {
        assert!(run_to_string("explode").unwrap_err().contains("unknown subcommand"));
        assert!(run_to_string("generate --kind nope --output /tmp/x")
            .unwrap_err()
            .contains("unknown --kind"));
        assert!(run_to_string("info --data /nonexistent/file.svm")
            .unwrap_err()
            .contains("cannot open"));
        let path = tmp("err");
        run_to_string(&format!(
            "generate --kind webspam --rows 10 --cols 10 --nnz-per-row 2 --output {path}"
        ))
        .unwrap();
        assert!(run_to_string(&format!("train --data {path} --solver warp9"))
            .unwrap_err()
            .contains("unknown --solver"));
        assert!(run_to_string(&format!(
            "train --data {path} --solver asyscd --form dual"
        ))
        .unwrap_err()
        .contains("only --form primal"));
        assert!(run_to_string(&format!("train --data {path} --turbo 1"))
            .unwrap_err()
            .contains("unknown option"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn save_and_predict_roundtrip() {
        let data_path = tmp("model_data");
        let model_path = tmp("model_file");
        run_to_string(&format!(
            "generate --kind webspam --rows 100 --cols 80 --nnz-per-row 8 --scale 0.3 --output {data_path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "train --data {data_path} --features 80 --lambda 0.01 --epochs 40              --eval-every 40 --save-model {model_path}"
        ))
        .unwrap();
        assert!(out.contains("model saved"), "{out}");
        let out = run_to_string(&format!(
            "predict --model {model_path} --data {data_path}"
        ))
        .unwrap();
        assert!(out.contains("accuracy:"), "{out}");
        assert!(out.contains("mse:"));
        // The model fits its own training data well.
        let acc: f64 = out
            .lines()
            .find(|l| l.starts_with("accuracy:"))
            .and_then(|l| l.trim_start_matches("accuracy:").trim().trim_end_matches('%').parse().ok())
            .unwrap();
        assert!(acc > 90.0, "training accuracy {acc}");
        std::fs::remove_file(data_path).ok();
        std::fs::remove_file(model_path).ok();
    }

    #[test]
    fn save_model_works_for_every_objective() {
        let data_path = tmp("save_all_data");
        run_to_string(&format!(
            "generate --kind criteo --rows 80 --fields 4 --cardinality 12 --output {data_path}"
        ))
        .unwrap();
        for obj in ["ridge", "logistic", "svm", "lasso", "elastic-net"] {
            let model_path = tmp(&format!("save_all_{obj}"));
            let out = run_to_string(&format!(
                "train --data {data_path} --features 48 --objective {obj} --lambda 0.01 \
                 --epochs 10 --eval-every 10 --save-model {model_path}"
            ))
            .unwrap();
            assert!(out.contains(&format!("model saved to {model_path}")), "{obj}: {out}");
            assert!(out.contains(&format!("{obj} objective")), "{obj}: {out}");
            // The file round-trips through predict (checksum verifies).
            let out = run_to_string(&format!(
                "predict --model {model_path} --data {data_path}"
            ))
            .unwrap();
            assert!(out.contains("mse:"), "{obj}: {out}");
            std::fs::remove_file(model_path).ok();
        }
        std::fs::remove_file(data_path).ok();
    }

    #[test]
    fn serve_and_score_flag_errors() {
        // serve: mode selection must be unambiguous…
        let err = run_to_string("serve").unwrap_err();
        assert!(err.contains("--model FILE or --train-data"), "{err}");
        let err = run_to_string("serve --model a --train-data b").unwrap_err();
        assert!(err.contains("not both"), "{err}");
        // …live-mode knobs are rejected when serving a file…
        let err = run_to_string("serve --model a --epochs 3").unwrap_err();
        assert!(err.contains("--epochs only applies to --train-data"), "{err}");
        // …and the live trainer names the objectives it knows.
        let err = run_to_string("serve --train-data /nonexistent --objective huber").unwrap_err();
        assert!(err.contains("ridge|logistic|svm|lasso|elastic-net"), "{err}");

        // score: model and data are required, knobs validated.
        let err = run_to_string("score --data /nonexistent").unwrap_err();
        assert!(err.contains("--model"), "{err}");
        let err = run_to_string("score --model /nonexistent --data x --batch 0").unwrap_err();
        assert!(err.contains("--batch must be >= 1"), "{err}");
        let err = run_to_string("score --model /nonexistent/m --data x").unwrap_err();
        assert!(err.contains("cannot open"), "{err}");
    }

    #[test]
    fn score_streams_rows_and_summarizes() {
        let data_path = tmp("score_data");
        let model_path = tmp("score_model");
        run_to_string(&format!(
            "generate --kind webspam --rows 50 --cols 40 --nnz-per-row 5 --scale 0.3 \
             --output {data_path}"
        ))
        .unwrap();
        run_to_string(&format!(
            "train --data {data_path} --features 40 --objective svm --epochs 20 \
             --eval-every 20 --save-model {model_path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "score --model {model_path} --data {data_path} --batch 7 --limit 10"
        ))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 11, "10 rows + summary: {out}");
        assert!(lines[0].starts_with("{\"row\":0,"), "{}", lines[0]);
        assert!(lines[9].starts_with("{\"row\":9,"), "{}", lines[9]);
        // SVM predictions are hard ±1 labels.
        assert!(lines[0].contains("\"prediction\":1") || lines[0].contains("\"prediction\":-1"));
        let summary = lines[10];
        assert!(summary.contains("\"ok\":true"), "{summary}");
        assert!(summary.contains("\"rows\":10"), "{summary}");
        assert!(summary.contains("\"batches\":2"), "{summary}");
        assert!(summary.contains("\"objective\":\"svm\""), "{summary}");
        assert!(!summary.contains("\"accuracy\":null"), "binary labels score accuracy: {summary}");
        std::fs::remove_file(data_path).ok();
        std::fs::remove_file(model_path).ok();
    }

    #[test]
    fn sweep_prints_a_path() {
        let path = tmp("sweep");
        run_to_string(&format!(
            "generate --kind webspam --rows 80 --cols 60 --nnz-per-row 6 --scale 0.3 --output {path}"
        ))
        .unwrap();
        let out = run_to_string(&format!(
            "sweep --data {path} --features 60 --points 4 --lambda-max 0.5 --max-epochs 100"
        ))
        .unwrap();
        assert!(out.contains("lambda"), "{out}");
        assert_eq!(out.lines().count(), 6, "header + 4 points + total: {out}");
        assert!(out.contains("total epochs"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn help_lists_subcommands() {
        let out = run_to_string("help").unwrap();
        for word in ["generate", "train", "info", "aggregation", "tpa-m4000"] {
            assert!(out.contains(word), "help missing {word}");
        }
        // The shard surface is documented too.
        for word in ["shard gen", "shard inspect", "--chunk-rows", "--partition"] {
            assert!(out.contains(word), "help missing {word}");
        }
    }

    fn tmp_dir(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("scd_cli_test_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn shard_gen_inspect_train_roundtrip() {
        let dir = tmp_dir("shard_rt");
        let file = tmp("shard_rt");
        std::fs::remove_dir_all(&dir).ok();
        let out = run_to_string(&format!(
            "shard gen --out {dir} --kind criteo --rows 120 --fields 4 --cardinality 12 \
             --seed 9 --chunk-rows 32"
        ))
        .unwrap();
        assert!(out.contains("sharded criteo: rows=120 cols=48"), "{out}");
        assert!(out.contains("chunks=4"), "{out}");
        assert!(out.contains("on-disk bytes:"), "{out}");
        assert!(out.contains("writer high-water bytes:"), "{out}");

        let out = run_to_string(&format!("shard inspect --data {dir} --verify yes")).unwrap();
        assert!(out.contains("rows=120"), "{out}");
        assert!(out.contains("all 4 chunk checksums verified"), "{out}");

        // The same rows through `generate` (LIBSVM text) and through the
        // shards must train to the bit-identical gap — K=1 and K=4.
        run_to_string(&format!(
            "generate --kind criteo --rows 120 --fields 4 --cardinality 12 --seed 9 \
             --output {file}"
        ))
        .unwrap();
        let final_gap = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("final gap"))
                .expect("final gap line")
                .to_string()
        };
        for workers in [1, 4] {
            let partition = if workers > 1 { " --partition contiguous" } else { "" };
            let mem = run_to_string(&format!(
                "train --data {file} --features 48 --form dual --workers {workers}{partition} \
                 --epochs 4 --eval-every 4"
            ))
            .unwrap();
            let store = run_to_string(&format!(
                "train --data {dir} --form dual --workers {workers} --epochs 4 --eval-every 4"
            ))
            .unwrap();
            assert_eq!(final_gap(&mem), final_gap(&store), "K={workers}");
            if workers > 1 {
                assert!(store.contains("data distribution:"), "{store}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn shard_and_store_misuse_is_rejected() {
        let dir = tmp_dir("shard_err");
        std::fs::remove_dir_all(&dir).ok();
        run_to_string(&format!(
            "shard gen --out {dir} --kind criteo --rows 60 --fields 3 --cardinality 8 \
             --chunk-rows 25"
        ))
        .unwrap();

        // Action grammar.
        assert!(run_to_string("shard").unwrap_err().contains("gen"));
        assert!(run_to_string("shard warp").unwrap_err().contains("unknown shard action"));
        assert!(run_to_string("train oops").unwrap_err().contains("unexpected positional"));
        assert!(run_to_string(&format!("shard gen --out {dir} --kind dense"))
            .unwrap_err()
            .contains("unknown --kind"));
        assert!(run_to_string(&format!("shard gen --out {dir} --rows 0"))
            .unwrap_err()
            .contains(">= 1"));

        // Generator/LIBSVM flags don't combine with a shard directory.
        assert!(run_to_string(&format!("train --data {dir} --fields 3"))
            .unwrap_err()
            .contains("unknown option --fields"));
        assert!(run_to_string(&format!("train --data {dir} --features 24"))
            .unwrap_err()
            .contains("not shard directories"));

        // Invalid paths.
        assert!(run_to_string("train --data /nonexistent/shards")
            .unwrap_err()
            .contains("cannot open"));
        assert!(run_to_string("shard inspect --data /nonexistent/shards")
            .unwrap_err()
            .contains("cannot open shard directory"));

        // Store-backed clusters: dual + contiguous + sync only.
        assert!(run_to_string(&format!(
            "train --data {dir} --form dual --workers 2 --partition roundrobin"
        ))
        .unwrap_err()
        .contains("contiguous"));
        assert!(run_to_string(&format!("train --data {dir} --form primal --workers 2"))
            .unwrap_err()
            .contains("dual form"));
        assert!(run_to_string(&format!(
            "train --data {dir} --form dual --workers 2 --staleness 1"
        ))
        .unwrap_err()
        .contains("--runtime sync"));
        assert!(run_to_string(&format!("train --data {dir} --partition contiguous"))
            .unwrap_err()
            .contains("--workers"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
