//! The `scd` subcommands: `generate`, `info`, `train`, `serve`, `score`,
//! `sweep`, `shard gen|inspect` and `help`, dispatched through one table
//! (`COMMANDS`); `train`'s engines come from another (`BACKENDS`).
//!
//! Every command takes parsed [`Args`] and a writer (so tests can capture
//! output) and returns an error whose message `main` prints on one line.

use crate::args::{ArgError, Args};
use gpu_sim::{Gpu, GpuProfile};
use scd_core::syscd::DEFAULT_BUCKET_SIZE;
use scd_core::{
    AsyScd, AsyncCpuMode, AsyncSimScd, ConvergenceRecorder, Form, ObjectiveKind,
    RegularizationPath, RidgeProblem, SequentialScd, Solver, SyscdScd, TpaScd, TrainedModel,
};
use scd_datasets::{criteo_like, dense_gaussian, scale_values, webspam_like, DatasetStats};
use scd_datasets::{CriteoSpec, WebspamStreamSpec};
use scd_distributed::{
    Aggregation, AsyncScd, DistributedConfig, DistributedScd, FaultPlan, LocalSolverKind,
    PartitionStrategy, RoundMetrics, RoundRuntime, Staleness, WireFormat,
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

/// Every command's result: any error converts with `?`.
pub type Result<T = (), E = Box<dyn std::error::Error>> = std::result::Result<T, E>;

/// One subcommand: its argv words, the flags it accepts and its handler.
struct Command {
    /// The subcommand, then its action if it takes one (`shard gen`).
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args, &mut dyn Write) -> Result,
}

impl Command {
    fn matches(&self, args: &Args) -> bool {
        self.name.split(' ').eq([args.command.as_str()].into_iter().chain(args.action.as_deref()))
    }
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "generate", run: generate, flags: &[
        "kind", "output", "rows", "cols", "nnz-per-row", "fields", "cardinality", "scale", "seed",
    ] },
    Command { name: "info", run: info, flags: &["data", "features", "detail"] },
    Command { name: "train", run: train, flags: &[
        "data", "features", "objective", "lambda", "l1-ratio", "form", "backend", "threads",
        "buckets", "merge-every", "host-threads", "step", "epochs", "eval-every", "target-gap",
        "workers", "partition", "aggregation", "wire", "round-threads", "runtime", "staleness",
        "event-trace", "fault-drop", "fault-delay", "fault-delay-factor", "fault-timeout",
        "fault-retries", "fault-seed", "round-metrics", "save-model", "seed",
    ] },
    Command { name: "serve", run: serve, flags: &[
        "model", "train-data", "features", "objective", "lambda", "workers", "epochs", "seed",
    ] },
    Command { name: "score", run: score, flags: &["model", "data", "features", "batch", "limit"] },
    Command { name: "sweep", run: sweep, flags: &[
        "data", "features", "lambda-max", "lambda-ratio", "points", "tol", "max-epochs", "seed",
    ] },
    Command { name: "shard gen", run: shard_gen, flags: &[
        "out", "kind", "rows", "cols", "nnz-per-row", "fields", "cardinality", "chunk-rows", "seed",
    ] },
    Command { name: "shard inspect", run: shard_inspect, flags: &["data", "verify"] },
    Command { name: "help", run: |_, out| { help(out); Ok(()) }, flags: &[] },
];

/// Top-level dispatch.
pub fn run(args: &Args, out: &mut dyn Write) -> Result {
    if args.get("help").is_some() {
        help(out);
        return Ok(());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.matches(args)) else {
        // Only `shard` takes a positional action (`gen`/`inspect`).
        return Err(match (args.command.as_str(), args.action.as_deref()) {
            ("shard", None) => {
                "shard needs an action: `scd shard gen ...` or `scd shard inspect ...`".into()
            }
            ("shard", Some(a)) => format!("unknown shard action {a:?} (gen|inspect)").into(),
            (_, Some(action)) => ArgError::UnexpectedPositional(action.to_string()).into(),
            (other, None) => format!("unknown subcommand {other:?} (try `scd help`)").into(),
        });
    };
    args.check_known(command.flags)?;
    (command.run)(args, out)
}

/// Print usage.
pub fn help(out: &mut dyn Write) {
    let _ = writeln!(
        out,
        "scd — stochastic coordinate descent trainer (TPA-SCD reproduction)

USAGE:
  scd generate --kind webspam|criteo|dense --output FILE [options]
  scd info     --data FILE|DIR [--features M] [--detail yes]
  scd train    --data FILE|DIR [options]
  scd serve    --model FILE | --train-data FILE|DIR [options]
  scd score    --model FILE --data FILE|DIR [--batch B] [--limit N]
  scd sweep    --data FILE|DIR [--lambda-max L --lambda-ratio R --points P
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
  --backend B       {backends} (default seq)
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
                    `scd score` and `scd serve --model`
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

SCORE OPTIONS (batch mode: one JSON line per row, then a JSON summary line
with the accuracy, for ±1 labels, and the mean squared error):
  --model F         saved model file (any objective)
  --data P          a LIBSVM file or a `scd shard gen` directory
  --batch B         rows per scoring batch        (default 64)
  --limit N         score only the first N rows   (default: all)
  --features M      fix the feature width of a LIBSVM file",
        backends = backend_names(false),
    );
}

/// A `--data` path, opened: a `scd shard gen` directory or a LIBSVM file.
enum Dataset {
    Shards(ShardedDataset),
    Libsvm(LabelledData),
}

/// Open `path` as a shard directory or a LIBSVM file. `--features` fixes
/// the file's width (else `width`, else its widest row) and is rejected
/// on a directory.
fn open_dataset(path: &str, args: &Args, width: Option<usize>) -> Result<Dataset> {
    let features = args.get_opt("features", "integer")?;
    if Path::new(path).is_dir() {
        if features.is_some() {
            return Err("--features applies to LIBSVM files, not shard directories".into());
        }
        return Ok(Dataset::Shards(open_store(path)?));
    }
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let parsed = read_libsvm(file, features.or(width));
    Ok(Dataset::Libsvm(parsed.map_err(|e| format!("cannot parse {path}: {e}"))?))
}

impl Dataset {
    /// The one-line summary `info` and `train` print.
    fn summary(&self) -> String {
        match self {
            Dataset::Shards(s) => {
                let (n, m, nnz, chunks) = (s.rows(), s.cols(), s.nnz(), s.num_shards());
                format!("sharded N={n} M={m} nnz={nnz} chunks={chunks}")
            }
            Dataset::Libsvm(data) => DatasetStats::of(data).to_string(),
        }
    }

    /// Every row and label, in memory.
    fn load(&self, path: &str) -> Result<(CsrMatrix, Vec<f32>)> {
        Ok(match self {
            Dataset::Shards(s) => s.load_all().map_err(|e| format!("cannot load {path}: {e}"))?,
            Dataset::Libsvm(data) => (data.matrix.to_csr(), data.labels.clone()),
        })
    }
}

/// `scd generate`: write a synthetic dataset in LIBSVM format.
fn generate(args: &Args, out: &mut dyn Write) -> Result {
    let kind = args.require("kind")?;
    let output = args.require("output")?;
    // The generators assert on empty dimensions; turn misuse into errors.
    let rows = args.get_count("rows")?.unwrap_or(1000);
    let cols = args.get_count("cols")?.unwrap_or(2000);
    let seed = args.get_or("seed", 42u64, "integer")?;
    let scale = args.get_or("scale", 1.0f32, "number")?;

    let data = match kind {
        "webspam" => webspam_like(rows, cols, args.get_count("nnz-per-row")?.unwrap_or(30), seed),
        "criteo" => {
            let fields = args.get_count("fields")?.unwrap_or(10);
            let cardinality = args.get_count("cardinality")?.unwrap_or(100);
            criteo_like(rows, fields, cardinality, seed)
        }
        "dense" => dense_gaussian(rows, cols, seed),
        other => return Err(format!("unknown --kind {other:?} (webspam|criteo|dense)").into()),
    };
    let data = if scale != 1.0 { scale_values(&data, scale) } else { data };
    let file = File::create(output).map_err(|e| format!("cannot create {output}: {e}"))?;
    write_libsvm(&data, file).map_err(|e| format!("cannot write {output}: {e}"))?;
    writeln!(out, "wrote {}: {}", output, DatasetStats::of(&data))?;
    Ok(())
}

/// `scd info`: dataset statistics (`--detail yes` adds the structural
/// profile: nnz distributions, skew, ELLPACK padding).
fn info(args: &Args, out: &mut dyn Write) -> Result {
    let path = args.require("data")?;
    let dataset = open_dataset(path, args, None)?;
    writeln!(out, "{}", dataset.summary())?;
    if args.get("detail").is_some() {
        let (csr, _) = dataset.load(path)?;
        writeln!(out, "{}", scd_sparse::StructureProfile::of(&csr))?;
    }
    Ok(())
}

/// `scd shard gen`: stream a synthetic dataset to disk in bounded memory.
fn shard_gen(args: &Args, out: &mut dyn Write) -> Result {
    let dir = args.require("out")?;
    let kind = args.get("kind").unwrap_or("criteo");
    // The specs assert on empty dimensions; turn misuse into errors first.
    let rows = args.get_count("rows")?.unwrap_or(100_000);
    let chunk_rows = args.get_count("chunk-rows")?.unwrap_or(65_536);
    let seed = args.get_or("seed", 42u64, "integer")?;
    let summary = match kind {
        "criteo" => {
            let fields = args.get_count("fields")?.unwrap_or(10);
            let cardinality = args.get_count("cardinality")?.unwrap_or(100);
            write_criteo(Path::new(dir), &CriteoSpec::new(rows, fields, cardinality, seed), chunk_rows)
        }
        "webspam" => {
            let cols = args.get_count("cols")?.unwrap_or(2000);
            let nnz = args.get_count("nnz-per-row")?.unwrap_or(30);
            write_webspam(Path::new(dir), &WebspamStreamSpec::new(rows, cols, nnz, seed), chunk_rows)
        }
        other => return Err(format!("unknown --kind {other:?} (criteo|webspam)").into()),
    }
    .map_err(|e| format!("cannot write shards to {dir}: {e}"))?;
    writeln!(
        out,
        "sharded {kind}: rows={} cols={} nnz={} chunks={}",
        summary.rows, summary.cols, summary.nnz, summary.chunks
    )?;
    writeln!(out, "on-disk bytes: {}", summary.disk_bytes)?;
    writeln!(out, "writer high-water bytes: {}", summary.buffered_high_water)?;
    Ok(())
}

/// `scd shard inspect`: index summary and per-shard table.
fn shard_inspect(args: &Args, out: &mut dyn Write) -> Result {
    let store = open_store(args.require("data")?)?;
    writeln!(
        out,
        "shards: rows={} cols={} nnz={} chunks={}",
        store.rows(),
        store.cols(),
        store.nnz(),
        store.num_shards()
    )?;
    writeln!(out, "{:>6} {:>12} {:>10} {:>12} {:>12}", "shard", "first-row", "rows", "nnz", "bytes")?;
    for i in 0..store.num_shards() {
        let meta = store.meta(i);
        writeln!(
            out,
            "{i:>6} {:>12} {:>10} {:>12} {:>12}",
            store.shard_rows(i).start,
            meta.rows,
            meta.nnz,
            meta.file_bytes
        )?;
    }
    if args.get("verify").is_some() {
        store.verify().map_err(|e| format!("verification failed: {e}"))?;
        writeln!(out, "all {} chunk checksums verified", store.num_shards())?;
    }
    Ok(())
}

fn open_store(dir: &str) -> Result<ShardedDataset, String> {
    ShardedDataset::open(Path::new(dir))
        .map_err(|e| format!("cannot open shard directory {dir}: {e}"))
}

/// `--KEY` looked up in `table`, if given; an unknown value lists the
/// valid names.
fn choose<T: Copy>(args: &Args, key: &str, table: &[(&str, T)]) -> Result<Option<T>> {
    let Some(value) = args.get(key) else {
        return Ok(None);
    };
    match table.iter().find(|(name, _)| *name == value) {
        Some(&(_, choice)) => Ok(Some(choice)),
        None => {
            let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
            Err(format!("unknown --{key} {value:?} ({})", names.join("|")).into())
        }
    }
}

/// `--objective` (default ridge) with `--l1-ratio` folded into the
/// elastic net; the mix's range is checked by `ObjectiveKind::validate`.
fn parse_objective(args: &Args) -> Result<ObjectiveKind> {
    let name = args.get("objective").unwrap_or("ridge");
    let objective = ObjectiveKind::parse(name).map_err(|_| {
        format!("unknown --objective {name:?} (ridge|logistic|svm|lasso|elastic-net)")
    })?;
    match objective {
        ObjectiveKind::ElasticNet { l1_ratio } => Ok(ObjectiveKind::ElasticNet {
            l1_ratio: args.get_or("l1-ratio", l1_ratio, "number")?,
        }),
        _ if args.get("l1-ratio").is_some() => {
            Err("--l1-ratio only applies to --objective elastic-net".into())
        }
        _ => Ok(objective),
    }
}

fn parse_fault(args: &Args) -> Result<FaultPlan> {
    let mut plan = FaultPlan::none();
    let probability =
        |key| args.get_valid(key, "a probability in [0, 1]", |p| (0.0..=1.0).contains(p));
    plan.drop_probability = probability("fault-drop")?.unwrap_or(0.0);
    plan.delay_probability = probability("fault-delay")?.unwrap_or(0.0);
    plan.delay_factor = args.get_positive("fault-delay-factor")?.unwrap_or(3.0);
    plan.timeout_seconds = args.get_positive("fault-timeout")?;
    plan.max_retries = args.get_or("fault-retries", 1usize, "integer")?;
    plan.seed = args.get_or("fault-seed", 0u64, "integer")?;
    Ok(plan)
}

/// What a single-node backend is built from.
struct SingleNode<'a> {
    /// The `--backend` name, for error messages.
    name: &'static str,
    args: &'a Args,
    problem: &'a RidgeProblem,
    form: Form,
    objective: ObjectiveKind,
    threads: usize,
    seed: u64,
}

/// One `--backend` value: how `train` builds it on one node and, if it
/// can run distributed, the local solver each worker runs. The first row
/// is the default.
struct Backend {
    name: &'static str,
    /// Flags only this backend reads; every other backend rejects them.
    knobs: &'static [&'static str],
    single: fn(&SingleNode) -> Result<Box<dyn Solver>>,
    /// The worker kind at `--threads T`, if the backend can run distributed.
    local: Option<fn(usize) -> LocalSolverKind>,
}

#[rustfmt::skip]
const BACKENDS: &[Backend] = &[
    Backend { name: "seq", knobs: &[], single: seq, local: Some(|_| LocalSolverKind::Sequential) },
    Backend { name: "a-scd", knobs: &[], single: |s| async_sim(s, AsyncCpuMode::Atomic),
              local: Some(|threads| async_sim_worker(AsyncCpuMode::Atomic, threads)) },
    Backend { name: "wild", knobs: &[], single: |s| async_sim(s, AsyncCpuMode::Wild),
              local: Some(|threads| async_sim_worker(AsyncCpuMode::Wild, threads)) },
    Backend { name: "asyscd", knobs: &[], single: asyscd, local: None },
    Backend { name: "syscd", knobs: &["buckets", "merge-every"], single: syscd, local: None },
    Backend { name: "tpa-m4000", knobs: &[], single: |s| tpa(s, GpuProfile::quadro_m4000()),
              local: Some(|_| tpa_worker(GpuProfile::quadro_m4000())) },
    Backend { name: "tpa-titanx", knobs: &[], single: |s| tpa(s, GpuProfile::titan_x_maxwell()),
              local: Some(|_| tpa_worker(GpuProfile::titan_x_maxwell())) },
];

/// The backend names, `|`-separated: every one, or the distributable ones.
fn backend_names(distributed: bool) -> String {
    let names = BACKENDS.iter().filter(|b| !distributed || b.local.is_some()).map(|b| b.name);
    names.collect::<Vec<_>>().join("|")
}

fn seq(s: &SingleNode) -> Result<Box<dyn Solver>> {
    let solver = match s.form {
        Form::Primal => SequentialScd::primal(s.problem, s.seed),
        Form::Dual => SequentialScd::dual(s.problem, s.seed),
    };
    Ok(Box::new(solver.with_objective(s.objective)))
}

fn async_sim(s: &SingleNode, mode: AsyncCpuMode) -> Result<Box<dyn Solver>> {
    let solver = AsyncSimScd::new(s.problem, s.form, mode, s.threads, s.seed);
    Ok(Box::new(solver.with_objective(s.objective)))
}

fn async_sim_worker(mode: AsyncCpuMode, threads: usize) -> LocalSolverKind {
    LocalSolverKind::AsyncSim {
        mode,
        threads,
        paper_scale_staleness: true,
    }
}

fn asyscd(s: &SingleNode) -> Result<Box<dyn Solver>> {
    if s.form != Form::Primal {
        return Err(format!("--backend {} supports only --form primal", s.name).into());
    }
    let step = s.args.get_positive("step")?.unwrap_or(1.0);
    let solver = AsyScd::new(s.problem, step, s.seed)?.with_objective(s.problem, s.objective)?;
    Ok(Box::new(solver))
}

fn syscd(s: &SingleNode) -> Result<Box<dyn Solver>> {
    let buckets = s.args.get_count("buckets")?.unwrap_or(DEFAULT_BUCKET_SIZE);
    let merge_every = s.args.get_count("merge-every")?;
    let mut solver = SyscdScd::new(s.problem, s.form, s.threads, s.seed)
        .with_buckets(s.problem, buckets)
        .with_objective(s.objective);
    if let Some(k) = merge_every {
        solver = solver.with_merge_every(k);
    }
    Ok(Box::new(solver))
}

fn tpa(s: &SingleNode, profile: GpuProfile) -> Result<Box<dyn Solver>> {
    let solver = TpaScd::new(s.problem, s.form, Arc::new(Gpu::new(profile)), s.seed)?;
    Ok(Box::new(solver.with_objective(s.objective)))
}

fn tpa_worker(profile: GpuProfile) -> LocalSolverKind {
    LocalSolverKind::Tpa {
        profile,
        lanes: 64,
        deterministic: true,
    }
}

/// The engine `train` runs. The distributed drivers stay concrete so their
/// round metrics remain reachable after training.
enum Engine {
    Sync(DistributedScd),
    Event(AsyncScd),
    Single(Box<dyn Solver>),
}

/// `scd train`.
fn train(args: &Args, out: &mut dyn Write) -> Result {
    let name = args.get("backend").unwrap_or(BACKENDS[0].name);
    let backend = BACKENDS.iter().find(|b| b.name == name).ok_or_else(|| {
        format!("unknown --backend {name:?} (valid: {})", backend_names(false))
    })?;
    // Backend-specific knobs are rejected elsewhere, so a typo'd
    // invocation fails loudly.
    for other in BACKENDS.iter().filter(|b| b.name != name) {
        if let Some(knob) = other.knobs.iter().find(|k| args.get(k).is_some()) {
            return Err(format!("--{knob} only applies to --backend {}", other.name).into());
        }
    }
    let threads = args.get_count("threads")?.unwrap_or(16);
    // Size the process-wide host scheduler before anything can lazily
    // initialize it. 0 = leave it at the auto default.
    let host_threads = args.get_or("host-threads", 0usize, "integer")?;
    if host_threads > 0 {
        scd_sched::configure_global(host_threads)
            .map_err(|e| format!("--host-threads {host_threads}: {e}"))?;
    }
    let lambda = args.get_or("lambda", 1e-3f64, "number")?;
    let epochs = args.get_or("epochs", 50usize, "integer")?;
    let eval_every = args.get_or("eval-every", 10usize, "integer")?.max(1);
    let target_gap = args.get_or("target-gap", f64::NAN, "number")?;
    let seed = args.get_or("seed", 1u64, "integer")?;
    let data_path = args.require("data")?;
    let dataset = open_dataset(data_path, args, None)?;
    let (csr, labels) = dataset.load(data_path)?;
    writeln!(out, "data: {}", dataset.summary())?;
    let problem = RidgeProblem::new(csr, labels, lambda)?;
    let store = if let Dataset::Shards(store) = dataset { Some(store) } else { None };

    let objective = parse_objective(args)?;
    let forms = [Form::Primal, Form::Dual].map(|f| (f.label(), f));
    let form = choose(args, "form", &forms)?.unwrap_or_else(|| objective.default_form());
    objective.validate(&problem, form)?;
    let workers = args.get_or("workers", 1usize, "integer")?;
    if args.get("partition").is_some() && workers <= 1 {
        return Err("--partition needs --workers > 1".into());
    }
    let mut engine = if workers > 1 {
        let round_threads = args.get_or("round-threads", 0usize, "integer")?;
        use Aggregation::{Adaptive, Adding, Averaging, CocoaPlus, LineSearch};
        let aggregations =
            [Averaging, Adding, Adaptive, CocoaPlus, LineSearch].map(|a| (a.label(), a));
        let aggregation = choose(args, "aggregation", &aggregations)?;
        let local = backend.local.ok_or_else(|| {
            format!("--backend {name:?} cannot run distributed ({})", backend_names(true))
        })?;
        let mut config = DistributedConfig::new(workers, form)
            .with_objective(objective)
            .with_aggregation(aggregation.unwrap_or(Aggregation::Averaging))
            .with_solver(local(threads))
            .with_runtime(RoundRuntime::Concurrent {
                threads: round_threads,
            })
            .with_fault(parse_fault(args)?)
            .with_wire(args.get("wire").map_or(Ok(WireFormat::Raw), WireFormat::parse)?)
            .with_seed(seed);
        // "random" spells the config's seed-derived default. Shard
        // directories are row-major on disk, so store-backed clusters
        // default to the contiguous strategy they require.
        let strategies = [
            ("contiguous", PartitionStrategy::Contiguous),
            ("roundrobin", PartitionStrategy::RoundRobin),
            ("random", config.partition_strategy()),
        ];
        let contiguous = store.as_ref().map(|_| PartitionStrategy::Contiguous);
        if let Some(strategy) = choose(args, "partition", &strategies)?.or(contiguous) {
            config = config.with_strategy(strategy);
        }
        // --staleness implies the event runtime; --runtime sync is
        // the lock-step barrier driver.
        let implied = if args.get("staleness").is_some() { "event" } else { "sync" };
        let runtime = args.get("runtime").unwrap_or(implied);
        match runtime {
            "sync" => Engine::Sync(match &store {
                Some(store) => DistributedScd::from_store(&problem, store, &config)?,
                None => DistributedScd::new(&problem, &config)?,
            }),
            "event" if store.is_some() => {
                return Err("store-backed training supports only --runtime sync (the event \
                            engine partitions in memory)"
                    .into());
            }
            "event" => {
                let tau = Staleness::parse(args.get("staleness").unwrap_or("0"))?;
                let mut asynch = AsyncScd::new(&problem, &config, tau)?;
                if args.get("event-trace").is_some() {
                    asynch.set_trace(true);
                }
                Engine::Event(asynch)
            }
            other => return Err(format!("--runtime {other:?}: expected sync|event").into()),
        }
    } else {
        Engine::Single((backend.single)(&SingleNode {
            name: backend.name,
            args,
            problem: &problem,
            form,
            objective,
            threads,
            seed,
        })?)
    };
    // Store-backed clusters report what moving the shards actually cost:
    // real chunk-file bytes priced through the net/PCIe models.
    if let (Some(_), Engine::Sync(dist)) = (&store, &engine) {
        let setup = dist.setup_cost();
        writeln!(
            out,
            "data distribution: {} B over {workers} workers (net {:.3e} s, pcie {:.3e} s)",
            setup.total_bytes(),
            setup.network_seconds,
            setup.pcie_seconds
        )?;
    }
    let solver: &mut dyn Solver = match &mut engine {
        Engine::Sync(dist) => dist,
        Engine::Event(asynch) => asynch,
        Engine::Single(single) => single.as_mut(),
    };
    writeln!(
        out,
        "solver: {} ({} form, {} objective)",
        solver.name(),
        form.label(),
        objective.label()
    )?;
    // Classification duals also report training accuracy, scored through
    // the objective's optimality mapping α → β.
    let classification = objective.requires_binary_labels();
    let accuracy = |weights| {
        let model = TrainedModel::from_weights(&problem, objective, form, weights);
        model.accuracy(problem.csr(), problem.labels())
    };
    let mut recorder = ConvergenceRecorder::new();
    // The weights change only in `epoch`, so the last gap evaluated is
    // the final one.
    let mut last_gap = solver.duality_gap(&problem);
    recorder.record_initial(last_gap);
    for epoch in 1..=epochs {
        let stats = solver.epoch(&problem);
        let gap = solver.duality_gap(&problem);
        last_gap = gap;
        recorder.record_epoch(stats.breakdown, gap, 0.0);
        let seconds = recorder.total_seconds();
        if epoch % eval_every == 0 || epoch == epochs || (!target_gap.is_nan() && gap <= target_gap) {
            let mut line = format!("epoch {epoch:>5}  gap {gap:>12.4e}  sim {seconds:>10.4}s");
            if classification {
                let acc = 100.0 * accuracy(solver.weights());
                line.push_str(&format!("  acc {acc:>6.2}%"));
            }
            writeln!(out, "{line}")?;
        }
        if !target_gap.is_nan() && gap <= target_gap {
            writeln!(out, "target gap {target_gap:.1e} reached")?;
            break;
        }
    }
    // Full-precision gap: the line shard-vs-memory bit-identity checks
    // compare (f64 round-trips exactly through 17 significant digits).
    writeln!(out, "final gap {last_gap:.17e}")?;
    // Rate-of-convergence report: a gap that hit exact 0 (or went
    // non-finite) is called out by epoch rather than fed into the
    // log-scale fit as log10(0) = −∞.
    if let Some(epoch) = recorder.first_nonpositive_gap() {
        writeln!(out, "gap reached 0 at epoch {epoch}")?;
    }
    if let Some(rho) = recorder.linear_rate(0.0) {
        writeln!(
            out,
            "convergence rate: gap shrinks {rho:.4}x per epoch (log-linear fit over {} epochs)",
            recorder.epochs()
        )?;
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
        )?;
    }
    // A cluster's round metrics and delta traffic; none on one node.
    let cluster = match &engine {
        Engine::Sync(d) => Some((d.round_metrics(), d.wire(), d.wire_bytes_total())),
        Engine::Event(a) => Some((a.round_metrics(), a.wire(), a.wire_bytes_total())),
        Engine::Single(_) => None,
    };
    if let Some(path) = args.get("round-metrics") {
        let (metrics, ..) = cluster.ok_or("--round-metrics needs --workers > 1")?;
        let json = RoundMetrics::series_to_json(metrics);
        std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        let dropped: usize = metrics.iter().map(|m| m.dropped_workers.len()).sum();
        writeln!(
            out,
            "round metrics written to {path} ({} rounds, {dropped} dropped rounds)",
            metrics.len()
        )?;
    }
    if let Some(path) = args.get("event-trace") {
        let Engine::Event(asynch) = &engine else {
            return Err("--event-trace needs --runtime event".into());
        };
        let mut trace = asynch.trace_lines().join("\n");
        trace.push('\n');
        std::fs::write(path, &trace).map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(
            out,
            "event trace written to {path} ({} events)",
            asynch.trace_lines().len()
        )?;
    }
    if let Some((_, wire, (raw, encoded))) = cluster.filter(|&(.., (_, encoded))| encoded > 0) {
        writeln!(
            out,
            "wire {}: {} B raw -> {} B encoded ({:.2}x)",
            wire,
            raw,
            encoded,
            raw as f64 / encoded as f64
        )?;
    }
    Ok(())
}

/// `scd sweep`: warm-started regularization path over a λ grid.
fn sweep(args: &Args, out: &mut dyn Write) -> Result {
    let data_path = args.require("data")?;
    let (csr, labels) = open_dataset(data_path, args, None)?.load(data_path)?;
    let lambda_max = args.get_or("lambda-max", 1.0f64, "number")?;
    let ratio = args.get_or("lambda-ratio", 1e-3f64, "number")?;
    let points = args.get_or("points", 8usize, "integer")?;
    let tol = args.get_or("tol", 1e-6f64, "number")?;
    let max_epochs = args.get_or("max-epochs", 300usize, "integer")?;
    let seed = args.get_or("seed", 1u64, "integer")?;
    let base = RidgeProblem::new(csr, labels, lambda_max)?;
    let grid = RegularizationPath::log_grid(lambda_max, ratio, points.max(2));
    let path = RegularizationPath::solve(&base, &grid, tol, max_epochs, seed);
    writeln!(out, "{:>12} {:>8} {:>12} {:>12}", "lambda", "epochs", "gap", "train_mse")?;
    for pt in &path.points {
        let mse = TrainedModel::from_primal(&base, pt.beta.clone()).mse(base.csr(), base.labels());
        writeln!(
            out,
            "{:>12.4e} {:>8} {:>12.3e} {:>12.6}",
            pt.lambda, pt.epochs, pt.gap, mse
        )?;
    }
    writeln!(out, "total epochs (warm-started): {}", path.total_epochs())?;
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
fn serve(args: &Args, out: &mut dyn Write) -> Result {
    match (args.get("model"), args.get("train-data")) {
        (Some(_), Some(_)) => {
            Err("pass --model (a saved file) or --train-data (train live), not both".into())
        }
        (None, None) => Err("serve needs --model FILE or --train-data FILE|DIR".into()),
        (Some(path), None) => {
            for flag in ["objective", "lambda", "workers", "epochs", "seed", "features"] {
                if args.get(flag).is_some() {
                    return Err(format!("--{flag} only applies to --train-data serving").into());
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
) -> Result {
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
        writeln!(out, "{}", response.line)?;
        out.flush()?;
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
fn serve_live(path: &str, args: &Args, out: &mut dyn Write) -> Result {
    let lambda = args.get_or("lambda", 1e-3f64, "number")?;
    let epochs = args.get_or("epochs", 50usize, "integer")?.max(1);
    let workers = args.get_count("workers")?.unwrap_or(4);
    let seed = args.get_or("seed", 1u64, "integer")?;
    let objective = parse_objective(args)?;
    let form = objective.default_form();
    let (csr, labels) = open_dataset(path, args, None)?.load(path)?;
    let problem = RidgeProblem::new(csr, labels, lambda)?;
    objective.validate(&problem, form)?;
    let problem = Arc::new(problem);
    let slot = Arc::new(ModelSlot::new(problem.m()));
    let trainer = {
        let problem = Arc::clone(&problem);
        let slot = Arc::clone(&slot);
        let config = DistributedConfig::new(workers, form)
            .with_objective(objective)
            .with_seed(seed);
        let mut driver = DistributedScd::new(&problem, &config)?;
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
    trainer.join().map_err(|_| "training thread panicked")?;
    result
}

/// `scd score`: batch-score a dataset with a saved model — one JSON line
/// per row, then a JSON summary line. Shard directories stream batch by
/// batch, so scoring never loads the whole store.
fn score(args: &Args, out: &mut dyn Write) -> Result {
    let model_path = args.require("model")?;
    let data_path = args.require("data")?;
    let batch = args.get_count("batch")?.unwrap_or(64);
    let limit = args.get_or("limit", usize::MAX, "integer")?;
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
     -> Result {
        scorer.score_into(rows, model.objective, &model.beta, &mut scored)?;
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
            out.write_all(line.as_bytes())?;
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

    match open_dataset(data_path, args, Some(model.features()))? {
        Dataset::Shards(store) => {
            if store.cols() > model.features() {
                return Err(format!(
                    "feature-space mismatch: model has {} features, shards are {} wide",
                    model.features(),
                    store.cols()
                )
                .into());
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
        }
        Dataset::Libsvm(data) => {
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
                let slice = scd_serve::batch_from_pairs(&pairs, model.features())?;
                score_batch(&slice, &data.labels[start..end], start, out)?;
                start = end;
            }
        }
    }

    let per_row = |total: f64| match rows_done {
        0 => "null".to_string(),
        rows => format!("{}", total / rows as f64),
    };
    let accuracy = if binary { per_row(correct as f64) } else { "null".into() };
    let mse = per_row(squared_error);
    writeln!(
        out,
        "{{\"ok\":true,\"rows\":{rows_done},\"batches\":{batches},\"batch\":{batch},\
         \"objective\":{},\"features\":{},\"accuracy\":{accuracy},\"mse\":{mse}}}",
        escape(model.objective.label()),
        model.features(),
    )?;
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
        match run(&args(spec), &mut buf) {
            Ok(()) => Ok(String::from_utf8(buf).unwrap()),
            Err(e) => Err(e.to_string()),
        }
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
            "train --data {path} --features 50 --backend tpa-titanx --form dual --epochs 5 --eval-every 5"
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
    fn backend_flag_errors() {
        let path = tmp("backend_err");
        run_to_string(&format!(
            "generate --kind webspam --rows 20 --cols 15 --nnz-per-row 3 --output {path}"
        ))
        .unwrap();
        // Only some backends run as distributed workers; the error names them.
        let err = run_to_string(&format!("train --data {path} --backend syscd --workers 2"))
            .unwrap_err();
        assert!(
            err.contains("--backend \"syscd\" cannot run distributed (seq|a-scd|wild|tpa-m4000|tpa-titanx)"),
            "{err}"
        );
        // syscd-only knobs are rejected on other backends.
        let err = run_to_string(&format!("train --data {path} --buckets 8")).unwrap_err();
        assert!(err.contains("--buckets only applies to --backend syscd"), "{err}");
        let err = run_to_string(&format!(
            "train --data {path} --backend wild --merge-every 2"
        ))
        .unwrap_err();
        assert!(err.contains("--merge-every only applies to --backend syscd"), "{err}");
        std::fs::remove_file(path).ok();
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
        assert!(run_to_string(&format!("train --data {path} --turbo 1"))
            .unwrap_err()
            .contains("unknown option"));
        std::fs::remove_file(path).ok();
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
            // The file round-trips through score (checksum verifies).
            let out = run_to_string(&format!("score --model {model_path} --data {data_path}"))
                .unwrap();
            assert!(out.contains("\"mse\":"), "{obj}: {out}");
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
        assert!(err.contains("--batch \"0\": expected an integer >= 1"), "{err}");
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

    fn tmp_dir(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("scd_cli_test_{name}_{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
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
