//! `scd-benchmark`: one end-to-end benchmark through the `scd` binary and a
//! per-layer traced run under it. See `benchmark/README.md`; run it through
//! `benchmark/run.sh`, which builds both binaries first.

mod e2e;
mod metrics;
mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use e2e::{Env, Tally};
use metrics::{Decl, END_TO_END, PER_LAYER};
use stats::{median, Summary};
use std::path::{Path, PathBuf};
use std::process::{ExitCode, Stdio};
use std::time::Instant;
use sys::Host;
use trace::Tracer;
use workloads::{Data, Workload, DATA_SEED, WIDTH};

const USAGE: &str =
    "usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--smoke] [--check-repeat]
  --workload NAME  criteo_e2e | webspam_syscd | webspam_dist4 | serve_session (default: all four)
  --seed N         seeds the serving session's request sample (default 7)
  --seconds S      end-to-end: start repetitions for S seconds, at least 3 of them (default 15)
  --trace 0|1      0: end-to-end metrics, tracing off; 1: per-layer metrics, traced (default: both)
  --smoke          every workload at about 1% size, all checks on
  --check-repeat   two end-to-end sets on the same build; fail unless their medians agree within bounds
The last line printed for each run is its result as one JSON object.";

struct Options {
    scd: PathBuf,
    out: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        scd: PathBuf::new(),
        out: PathBuf::new(),
        workload: None,
        seed: 7,
        seconds: 15.0,
        trace: None,
        smoke: false,
        check_repeat: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--scd" => o.scd = value()?.into(),
            "--out" => o.out = value()?.into(),
            "--workload" => o.workload = Some(value()?),
            "--seed" => {
                o.seed = value()?
                    .parse()
                    .map_err(|_| "--seed: expected an integer")?
            }
            "--seconds" => {
                o.seconds = value()?
                    .parse()
                    .map_err(|_| "--seconds: expected a number")?;
            }
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                })
            }
            "--smoke" => {
                o.smoke = true;
                o.seconds = 0.0; // three repetitions, the minimum
            }
            "--check-repeat" => o.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if o.scd.as_os_str().is_empty() || o.out.as_os_str().is_empty() {
        return Err("--scd and --out are required (benchmark/run.sh passes them)".into());
    }
    if !(o.seconds >= 0.0 && o.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(o)
}

/// The result of one run of one workload, traced or not.
struct Outcome {
    tally: Tally,
    metrics: Vec<(&'static Decl, Summary)>,
}

/// Pair every declared metric with its samples; a declared metric that was
/// not measured, or is not finite, is a failed check.
fn summarize(
    decls: &'static [Decl],
    samples: Vec<(&'static str, Vec<f64>)>,
    tally: &mut Tally,
) -> Vec<(&'static Decl, Summary)> {
    decls
        .iter()
        .map(|decl| {
            let measured = samples
                .iter()
                .find(|(name, _)| *name == decl.name)
                .map(|(_, v)| v.as_slice())
                .filter(|v| !v.is_empty() && v.iter().all(|x| x.is_finite()));
            tally.check(measured.is_some(), || {
                format!("metric {} was not measured", decl.name)
            });
            (decl, Summary::of(measured.unwrap_or(&[0.0])))
        })
        .collect()
}

/// End-to-end run, tracing off: set-up, one discarded repetition, then
/// repetitions for about `seconds`.
fn run_e2e(w: &Workload, o: &Options) -> Result<Outcome, String> {
    let env = Env::create(&o.scd, &o.out, w.name)?;
    let mut tally = Tally::default();
    // Set-up is timed three times because the driver holds `setup_s` to a
    // bound too and one sample of a one-second child is too noisy for it.
    let setups = if o.smoke { 1 } else { 3 };
    let setup_s = (0..setups)
        .map(|_| e2e::shard_gen(&env, w, &mut tally))
        .collect::<Result<Vec<_>, _>>()?;
    let store = e2e::open_store(&env.shards())?;
    let requests = e2e::sample_requests(&store, w, o.seed)?;
    e2e::rep(&env, w, &store, &requests, &mut tally)?; // warm-up, discarded
    let mut reps = Vec::new();
    let begun = Instant::now();
    while reps.len() < 3 || begun.elapsed().as_secs_f64() < o.seconds {
        reps.push(e2e::rep(&env, w, &store, &requests, &mut tally)?);
    }
    let metrics = summarize(&END_TO_END, e2e::metrics(w, &setup_s, &reps), &mut tally);
    Ok(Outcome { tally, metrics })
}

/// `scd help` start-to-exit: what every child pays before doing anything.
fn startup_ms(scd: &Path) -> Result<f64, String> {
    let samples = (0..5)
        .map(|_| {
            let start = Instant::now();
            let child = std::process::Command::new(scd)
                .arg("help")
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", scd.display()))?;
            sys::reap(child).map_err(|e| e.to_string())?;
            Ok(start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(median(&samples))
}

/// Traced run: generate the shards in-process, run one untraced repetition
/// through the binary for reference, replay it in-process under spans, then
/// probe single layers.
fn run_traced(w: &Workload, o: &Options) -> Result<Outcome, String> {
    let env = Env::create(&o.scd, &o.out, w.name)?;
    let mut tally = Tally::default();
    let shards = env.cleared_shards()?;
    let start = Instant::now();
    let written = match w.data {
        Data::Criteo {
            rows,
            fields,
            cardinality,
        } => scd_store::write_criteo(
            &shards,
            &scd_datasets::CriteoSpec::new(rows, fields, cardinality, DATA_SEED),
            w.chunk_rows,
        ),
        Data::Webspam {
            rows,
            cols,
            nnz_per_row,
        } => scd_store::write_webspam(
            &shards,
            &scd_datasets::WebspamStreamSpec::new(rows, cols, nnz_per_row, DATA_SEED),
            w.chunk_rows,
        ),
    }
    .map_err(|e| format!("cannot write shards: {e}"))?;
    let gen_s = start.elapsed().as_secs_f64();
    let disk_mb = written.disk_bytes as f64 * 1e-6;

    let store = e2e::open_store(&shards)?;
    let requests = e2e::sample_requests(&store, w, o.seed)?;
    let reference = e2e::rep(&env, w, &store, &requests, &mut tally)?;

    let spans_expected =
        4 * w.serve_requests + 4 * w.score_limit / workloads::SCORE_BATCH + 4 * w.epochs + 256;
    let mut tracer = Tracer::with_capacity(spans_expected);
    let replayed = replay::replay(&mut tracer, w, &env.dir, &requests)?;
    tally.check(replayed.final_gap_text == reference.trained.final_gap_text, || {
        format!(
            "replay final gap {} differs from the child's {}: the trace measures another computation",
            replayed.final_gap_text, reference.trained.final_gap_text
        )
    });
    let trace_path = o.out.join(format!("trace-{}.json", w.name));
    std::fs::write(&trace_path, trace::to_json(w.name, tracer.spans()))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let spans = tracer.spans();
    let root_s = spans[0].nanos() as f64 * 1e-9;
    let by_layer = trace::self_seconds_by_layer(spans);
    let layer_s = |layer: &str| by_layer.get(layer).copied().unwrap_or(0.0);
    let root_self_pct = 100.0 * layer_s("root") / root_s;
    // A smoke replay lasts a few milliseconds, of which one page fault
    // outside a span is already 5%; the limit is for full-size runs.
    tally.check(o.smoke || root_self_pct <= 5.0, || {
        format!("{root_self_pct:.2}% of the traced run is in no layer (limit 5%)")
    });

    let of = |name: &str| tracer.seconds_of(name);
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let sum = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b);
    let epochs: Vec<f64> = [of("core.epoch"), of("distributed.round")].concat();
    let rounds = &replayed.rounds;
    let per_round = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        if rounds.is_empty() {
            0.0
        } else {
            rounds.iter().map(f).sum::<f64>() / rounds.len() as f64
        }
    };
    let respond_us = median(&of("serve.respond")) * 1e6;
    let nnz = store.nnz() as f64;
    let mut values: Vec<(&'static str, f64)> = vec![
        ("store.gen_mb_per_s", disk_mb / gen_s),
        ("store.open_ms", median(&of("store.open")) * 1e3),
        ("store.load_all_s", sum(&of("store.load_all"))),
        ("store.load_mb_per_s", disk_mb / sum(&of("store.load_all"))),
        (
            "store.load_rows_us_per_batch",
            median(&of("store.load_rows")) * 1e6,
        ),
        ("store.chunk_maps_per_score", replayed.chunk_maps as f64),
        ("core.problem_build_s", sum(&of("core.problem_new"))),
        ("core.epoch_ms", median(&epochs) * 1e3),
        ("core.epoch_ns_per_nnz", median(&epochs) * 1e9 / nnz),
        ("core.gap_eval_ms", median(&of("core.duality_gap")) * 1e3),
        ("core.epochs", epochs.len() as f64),
        ("core.weights_ms", sum(&of("core.weights")) * 1e3),
        ("core.model_save_ms", sum(&of("core.model_save")) * 1e3),
        ("core.model_load_ms", median(&of("core.model_load")) * 1e3),
        (
            "core.train_cpu_cores",
            reference.trained.exit.cpu_s / reference.trained.wall_s,
        ),
        ("distributed.build_s", sum(&of("distributed.from_store"))),
        (
            "distributed.round_ms",
            median_or_zero(&of("distributed.round")) * 1e3,
        ),
        ("distributed.rounds", rounds.len() as f64),
        ("distributed.gamma_mean", per_round(&|r| r.0)),
        ("distributed.bytes_raw_per_round", per_round(&|r| r.1)),
        ("distributed.bytes_encoded_per_round", per_round(&|r| r.2)),
        ("serve.respond_us", respond_us),
        (
            "serve.pipe_overhead_us",
            median(&reference.served.score_us) - respond_us,
        ),
        ("cli.startup_ms", startup_ms(&o.scd)?),
        (
            "cli.format_us_per_row",
            sum(&of("cli.format_rows")) * 1e6 / w.score_limit.min(store.rows()) as f64,
        ),
        (
            "cli.trace_overhead_pct",
            100.0 * (root_s - reference.seconds()) / reference.seconds(),
        ),
        ("trace.root_s", root_s),
        ("trace.root_self_pct", root_self_pct),
        ("self_s.store", layer_s("store")),
        ("self_s.core", layer_s("core")),
        ("self_s.distributed", layer_s("distributed")),
        ("self_s.serve", layer_s("serve")),
        ("self_s.cli", layer_s("cli")),
    ];
    values.extend(replay::probes(w, &store, &env.dir, &replayed, &requests)?);
    let samples = values
        .into_iter()
        .map(|(name, v)| (name, vec![v]))
        .collect();
    let metrics = summarize(&PER_LAYER, samples, &mut tally);
    Ok(Outcome { tally, metrics })
}

fn print_outcome(w: &Workload, traced: bool, o: &Options, host: &Host, outcome: &Outcome) {
    let oversubscribed = if WIDTH > host.nproc {
        "  oversubscribed"
    } else {
        ""
    };
    println!(
        "\n== {}  {}  seed {}  seconds {}{} ==",
        w.name,
        if traced {
            "per-layer (traced)"
        } else {
            "end-to-end (tracing off)"
        },
        o.seed,
        o.seconds,
        if o.smoke { "  smoke" } else { "" }
    );
    println!("why: {}", w.why);
    println!(
        "host: nproc={} cpu={:?} git={} width={WIDTH} clock=wall{oversubscribed}",
        host.nproc, host.cpu_model, host.git_rev
    );
    println!(
        "{:<36} {:>8} {:>6} {:>14} {:>14} {:>14} {:>14} {:>5} {:>6}",
        "metric", "unit", "better", "median", "q1", "q3", "min", "n", "bound"
    );
    for (decl, s) in &outcome.metrics {
        println!(
            "{:<36} {:>8} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>5} {:>6}",
            decl.name,
            decl.unit,
            decl.better,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.n,
            decl.bound.map_or("-".to_string(), |b| b.to_string())
        );
    }
    println!(
        "checks: {} attempted, {} failed",
        outcome.tally.attempted, outcome.tally.failed
    );
    println!("{}", metrics::result_line(outcome.tally, &outcome.metrics));
}

/// Two end-to-end sets on one build must agree within the bounds.
fn check_repeat(selected: &[Workload], o: &Options, host: &Host) -> Result<bool, String> {
    let mut agree = true;
    let mut rows = Vec::new();
    for w in selected {
        let (a, b) = (run_e2e(w, o)?, run_e2e(w, o)?);
        for set in [&a, &b] {
            print_outcome(w, false, o, host, set);
            agree &= set.tally.failed == 0;
        }
        for ((decl, first), (_, second)) in a.metrics.iter().zip(&b.metrics) {
            let bound = decl.bound.unwrap_or(0.0);
            let (first, second) = (first.median, second.median);
            let apart = (second - first).abs() / first.abs();
            let within = apart <= bound;
            // An oversubscribed host's timings are reported, not judged.
            agree &= within || WIDTH > host.nproc;
            rows.push(format!(
                "{:<15} {:<18} {first:>16.6} {second:>16.6} {apart:>8.4} {bound:>6} {}",
                w.name,
                decl.name,
                if within { "ok" } else { "APART" }
            ));
        }
    }
    println!(
        "\n{:<15} {:<18} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "set A", "set B", "apart", "bound"
    );
    rows.iter().for_each(|r| println!("{r}"));
    Ok(agree)
}

fn run(o: &Options) -> Result<bool, String> {
    let host = Host::probe();
    // The traced replay and the probes use the process-wide scheduler the
    // way the children do after `--host-threads`.
    scd_sched::configure_global(WIDTH).map_err(|e| e.to_string())?;
    let selected: Vec<Workload> = workloads::all(o.smoke)
        .into_iter()
        .filter(|w| o.workload.as_deref().is_none_or(|name| name == w.name))
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "unknown workload {:?}",
            o.workload.as_deref().unwrap_or("")
        ));
    }
    if o.check_repeat {
        return check_repeat(&selected, o, &host);
    }
    let runs: Vec<(&Workload, bool)> = selected
        .iter()
        .flat_map(|w| [(w, false), (w, true)])
        .filter(|&(_, traced)| o.trace.is_none_or(|only| only == traced))
        .collect();
    if let [(w, traced)] = runs[..] {
        let outcome = if traced {
            run_traced(w, o)?
        } else {
            run_e2e(w, o)?
        };
        print_outcome(w, traced, o, &host, &outcome);
        return Ok(outcome.tally.failed == 0);
    }
    // Several runs: one process each, as the driver runs them. A child's
    // `ru_maxrss` is never under this process's own high-water mark at the
    // fork (exec folds the forked address space's peak into the child's),
    // so a process that has replayed one workload in-process would report
    // its own size as the next workload's `peak_rss_mb`.
    let me = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut all_correct = true;
    for (w, traced) in runs {
        let mut run = std::process::Command::new(&me);
        run.arg("--scd").arg(&o.scd).arg("--out").arg(&o.out);
        run.args([
            "--workload",
            w.name,
            "--trace",
            if traced { "1" } else { "0" },
        ]);
        if o.smoke {
            run.arg("--smoke");
        }
        run.args([
            "--seed",
            &o.seed.to_string(),
            "--seconds",
            &o.seconds.to_string(),
        ]);
        let status = run
            .status()
            .map_err(|e| format!("cannot start {}: {e}", me.display()))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: an output check failed (see CHECK FAILED lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
