//! The end-to-end side: every number here is wall clock (or an exact
//! count) taken from outside the program, through the release `scd`
//! binary run as child processes while this process blocks on them.

use crate::stats::{median, percentile, tail_percentile};
use crate::sys::{reap, Exit};
use crate::workloads::{Workload, REQUEST_ROWS};
use scd_core::TrainedModel;
use scd_datasets::rowgen::splitmix64;
use scd_serve::json::Json;
use scd_sparse::CsrMatrix;
use scd_store::ShardedDataset;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// Where one workload's children find the binary and keep their files.
pub struct Env {
    pub scd: PathBuf,
    pub dir: PathBuf,
}

impl Env {
    /// The directory of `workload` under `out`, created if missing.
    pub fn create(scd: &Path, out: &Path, workload: &str) -> Result<Env, String> {
        let dir = out.join(workload);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Env {
            scd: scd.to_path_buf(),
            dir,
        })
    }

    /// The shard directory, with whatever an earlier set-up left removed.
    pub fn cleared_shards(&self) -> Result<PathBuf, String> {
        let shards = self.shards();
        if shards.exists() {
            std::fs::remove_dir_all(&shards)
                .map_err(|e| format!("cannot clear {}: {e}", shards.display()))?;
        }
        Ok(shards)
    }

    pub fn shards(&self) -> PathBuf {
        self.dir.join("shards")
    }
    pub fn model(&self) -> PathBuf {
        self.dir.join("model.txt")
    }
    fn scores(&self) -> PathBuf {
        self.dir.join("scores.jsonl")
    }

    fn spawn(&self, args: &[String], stdin: Stdio, stdout: Stdio) -> Result<Child, String> {
        Command::new(&self.scd)
            .args(args)
            .stdin(stdin)
            .stdout(stdout)
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", self.scd.display()))
    }
}

/// Passed and failed output checks and operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one check; a failed one is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

/// Set-up: (re)generate the shard directory through `scd shard gen`.
/// Returns the wall seconds of the child.
pub fn shard_gen(env: &Env, w: &Workload, tally: &mut Tally) -> Result<f64, String> {
    let shards = env.cleared_shards()?;
    let start = Instant::now();
    let child = env.spawn(&w.gen_args(&shards), Stdio::null(), Stdio::null())?;
    let exit = reap(child).map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    tally.check(exit.ok, || "scd shard gen exited non-zero".into());
    Ok(seconds)
}

/// What one `scd train` child did, as seen on its stdout and by `wait4`.
pub struct Trained {
    pub wall_s: f64,
    /// Seconds from spawn to the epoch line at or under the target gap.
    pub to_gap_s: Option<f64>,
    pub epochs_to_gap: Option<usize>,
    /// The `final gap` line, verbatim (17 digits) and parsed.
    pub final_gap_text: String,
    pub final_gap: f64,
    pub exit: Exit,
}

pub fn train(env: &Env, w: &Workload, tally: &mut Tally) -> Result<Trained, String> {
    let start = Instant::now();
    let mut child = env.spawn(
        &w.train_args(&env.shards(), &env.model()),
        Stdio::null(),
        Stdio::piped(),
    )?;
    let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let (mut to_gap_s, mut epochs_to_gap, mut reached) = (None, None, false);
    let mut final_gap_text = String::new();
    // `scd` line-buffers stdout, so each epoch line arrives as the epoch
    // ends and its arrival time is the time to that gap.
    for line in stdout.lines() {
        let line = line.map_err(|e| format!("cannot read scd train: {e}"))?;
        let mut words = line.split_whitespace();
        match words.next() {
            Some("epoch") if to_gap_s.is_none() => {
                let epoch = words.next().and_then(|e| e.parse::<usize>().ok());
                let gap = words.nth(1).and_then(|g| g.parse::<f64>().ok());
                if let (Some(epoch), Some(gap)) = (epoch, gap) {
                    if gap <= w.target_gap {
                        to_gap_s = Some(start.elapsed().as_secs_f64());
                        epochs_to_gap = Some(epoch);
                    }
                }
            }
            Some("target") => reached = line.ends_with("reached"),
            Some("final") => final_gap_text = words.nth(1).unwrap_or("").to_string(),
            _ => {}
        }
    }
    let exit = reap(child).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let final_gap = final_gap_text.parse::<f64>().unwrap_or(f64::NAN);
    tally.check(exit.ok, || "scd train exited non-zero".into());
    tally.check(to_gap_s.is_some(), || {
        format!("no epoch of {} reached gap {:e}", w.name, w.target_gap)
    });
    if w.stop_at_gap {
        tally.check(reached && final_gap <= w.target_gap, || {
            format!(
                "no `target gap reached` line, or final gap {final_gap_text} over {:e}",
                w.target_gap
            )
        });
    } else {
        tally.check(final_gap.is_finite(), || {
            format!("unreadable final gap {final_gap_text:?}")
        });
    }
    Ok(Trained {
        wall_s,
        to_gap_s,
        epochs_to_gap,
        final_gap_text,
        final_gap,
        exit,
    })
}

/// |got − want| within 1e-5 of the magnitude of the terms summed (an f32
/// dot product in another order differs by a few ulps per term).
fn close(got: f64, want: f64, magnitude: f64) -> bool {
    (got - want).abs() <= 1e-5 * magnitude.max(1.0)
}

/// Decision and term magnitude of every row of `rows` under `beta`,
/// accumulated in f64: the reference the program's outputs are held to.
fn reference_decisions(rows: &CsrMatrix, beta: &[f32]) -> Vec<(f64, f64)> {
    rows.iter_rows()
        .map(|row| {
            row.indices
                .iter()
                .zip(row.values)
                .fold((0.0, 0.0), |(sum, mag), (&i, &v)| {
                    let term = v as f64 * beta[i as usize] as f64;
                    (sum + term, mag + term.abs())
                })
        })
        .collect()
}

/// One `scd score` child over the first `score_limit` rows, its stdout in
/// a file. Checks the summary line and the first 1000 decisions.
pub fn score(
    env: &Env,
    w: &Workload,
    store: &ShardedDataset,
    model: &TrainedModel,
    tally: &mut Tally,
) -> Result<(f64, Exit), String> {
    let sink = File::create(env.scores()).map_err(|e| format!("cannot create score sink: {e}"))?;
    let start = Instant::now();
    let child = env.spawn(
        &w.score_args(&env.shards(), &env.model()),
        Stdio::null(),
        Stdio::from(sink),
    )?;
    let exit = reap(child).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    tally.check(exit.ok, || "scd score exited non-zero".into());

    let text =
        std::fs::read_to_string(env.scores()).map_err(|e| format!("cannot read scores: {e}"))?;
    let summary = text.lines().last().and_then(|l| Json::parse(l).ok());
    let rows = summary
        .as_ref()
        .and_then(|s| s.get("rows"))
        .and_then(Json::as_f64);
    let ok = summary.as_ref().and_then(|s| s.get("ok")) == Some(&Json::Bool(true));
    tally.check(ok && rows == Some(w.score_limit as f64), || {
        format!("score summary is not ok:true with rows={}", w.score_limit)
    });
    let checked = w.score_limit.min(1000);
    let (head, _) = store.load_rows(0..checked).map_err(|e| e.to_string())?;
    let wrong = reference_decisions(&head, &model.beta)
        .iter()
        .zip(text.lines())
        .filter(|&(&(want, magnitude), line)| {
            let got = Json::parse(line)
                .ok()
                .and_then(|j| j.get("decision").and_then(Json::as_f64));
            !got.is_some_and(|got| close(got, want, magnitude))
        })
        .count();
    tally.check(wrong == 0, || {
        format!("{wrong} of the first {checked} decisions differ from the model")
    });
    Ok((wall_s, exit))
}

/// Pre-serialised score requests and the rows behind them.
pub struct Requests {
    /// The rows every request draws from.
    pub pool: CsrMatrix,
    /// Per request: the JSON line and the pool rows it carries.
    pub lines: Vec<(String, Vec<usize>)>,
    /// The order the session sends them in (indices into `lines`).
    pub order: Vec<usize>,
}

/// Sample the session's requests from `--seed`: a window of the shard set
/// chosen by the seed, 1024 distinct requests of 16 rows drawn from it, and
/// a seeded send order over them. The server keeps no cache between
/// requests, so repeating a line costs what a fresh one would.
pub fn sample_requests(
    store: &ShardedDataset,
    w: &Workload,
    seed: u64,
) -> Result<Requests, String> {
    let mut state = seed ^ 0x5CD_BE4C;
    let mut draw = || {
        state = splitmix64(state);
        state as usize
    };
    let window = 4096.min(store.rows());
    let first = draw() % (store.rows() - window + 1);
    let (pool, _) = store
        .load_rows(first..first + window)
        .map_err(|e| e.to_string())?;
    let distinct = 1024.min(w.serve_requests);
    let lines = (0..distinct)
        .map(|_| {
            let rows: Vec<usize> = (0..REQUEST_ROWS).map(|_| draw() % window).collect();
            let mut line = String::from("{\"op\":\"score\",\"rows\":[");
            for (k, &r) in rows.iter().enumerate() {
                let row = pool.row(r);
                line.push_str(if k == 0 { "[" } else { ",[" });
                for (j, (i, v)) in row.indices.iter().zip(row.values).enumerate() {
                    if j > 0 {
                        line.push(',');
                    }
                    line.push_str(&format!("[{i},{v}]"));
                }
                line.push(']');
            }
            line.push_str("]}\n");
            (line, rows)
        })
        .collect();
    let order = (0..w.serve_requests).map(|_| draw() % distinct).collect();
    Ok(Requests { pool, lines, order })
}

/// What one `scd serve` session measured.
pub struct Served {
    /// Microseconds from writing a score request to reading its reply.
    pub score_us: Vec<f64>,
    /// Milliseconds per `reload` op.
    pub reload_ms: Vec<f64>,
    /// First request written to last reply read, reloads included.
    pub wall_s: f64,
    pub exit: Exit,
}

const RELOAD: &str = "{\"op\":\"reload\"}\n";

/// One `scd serve --model M` child, closed loop, one client: each request
/// is written only after the previous reply was read. Every reply must be
/// `ok:true`; one in a hundred score replies is recomputed here; and
/// `model_seq` must rise by exactly one per reload.
pub fn serve(
    env: &Env,
    w: &Workload,
    requests: &Requests,
    model: &TrainedModel,
    tally: &mut Tally,
) -> Result<Served, String> {
    let args = [
        "serve".to_string(),
        "--model".to_string(),
        env.model().display().to_string(),
    ];
    let mut child = env.spawn(&args, Stdio::piped(), Stdio::piped())?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    let mut reply = String::new();
    let mut ask = |line: &str, reply: &mut String| -> Result<f64, String> {
        let sent = Instant::now();
        stdin
            .write_all(line.as_bytes())
            .map_err(|e| format!("cannot write to scd serve: {e}"))?;
        reply.clear();
        stdout
            .read_line(reply)
            .map_err(|e| format!("cannot read from scd serve: {e}"))?;
        Ok(sent.elapsed().as_secs_f64())
    };

    let reference = reference_decisions(&requests.pool, &model.beta);
    let mut score_us = Vec::with_capacity(w.serve_requests);
    let mut reload_ms = Vec::with_capacity(w.serve_requests / w.reload_every + 1);
    let mut model_seq = 1.0;
    let session = Instant::now();
    for (n, &pick) in requests.order.iter().enumerate() {
        let (line, rows) = &requests.lines[pick];
        score_us.push(ask(line, &mut reply)? * 1e6);
        // Parsing a reply costs the client more than the server took to
        // produce it, so only the sampled ones are parsed; the rest are
        // checked by prefix.
        if n % 100 == 0 {
            let parsed = Json::parse(&reply).ok();
            let decisions = parsed
                .as_ref()
                .and_then(|p| p.get("decisions"))
                .and_then(Json::as_arr);
            let right = decisions.is_some_and(|ds| {
                ds.len() == rows.len()
                    && ds.iter().zip(rows).all(|(d, &r)| {
                        d.as_f64()
                            .is_some_and(|got| close(got, reference[r].0, reference[r].1))
                    })
            });
            let seq = parsed
                .as_ref()
                .and_then(|p| p.get("model_seq"))
                .and_then(Json::as_f64);
            tally.check(right && seq == Some(model_seq), || {
                format!(
                    "request {n}: decisions differ from the model, or model_seq is not {model_seq}"
                )
            });
        } else {
            tally.check(reply.starts_with("{\"ok\":true,"), || {
                format!("request {n} was not ok: {}", reply.trim())
            });
        }
        if (n + 1) % w.reload_every == 0 {
            reload_ms.push(ask(RELOAD, &mut reply)? * 1e3);
            model_seq += 1.0;
            let seq = Json::parse(&reply)
                .ok()
                .and_then(|p| p.get("model_seq").and_then(Json::as_f64));
            tally.check(
                reply.starts_with("{\"ok\":true,") && seq == Some(model_seq),
                || {
                    format!(
                        "reload after request {n} did not publish model_seq {model_seq}: {}",
                        reply.trim()
                    )
                },
            );
        }
    }
    let wall_s = session.elapsed().as_secs_f64();
    drop(stdin); // EOF ends the session
    let exit = reap(child).map_err(|e| e.to_string())?;
    tally.check(exit.ok, || "scd serve exited non-zero".into());
    Ok(Served {
        score_us,
        reload_ms,
        wall_s,
        exit,
    })
}

/// One repetition: train, score, serve — the whole path a user runs.
pub struct Rep {
    pub trained: Trained,
    pub score_s: f64,
    pub served: Served,
    pub peak_rss_mb: f64,
}

impl Rep {
    pub fn seconds(&self) -> f64 {
        self.trained.wall_s + self.score_s + self.served.wall_s
    }
}

pub fn rep(
    env: &Env,
    w: &Workload,
    store: &ShardedDataset,
    requests: &Requests,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let trained = train(env, w, tally)?;
    let model = File::open(env.model())
        .map_err(|e| e.to_string())
        .and_then(|f| TrainedModel::load(f).map_err(|e| e.to_string()))
        .map_err(|e| format!("cannot load the model scd train saved: {e}"))?;
    let (score_s, score_exit) = score(env, w, store, &model, tally)?;
    let served = serve(env, w, requests, &model, tally)?;
    let peak_rss_mb = [trained.exit, score_exit, served.exit]
        .iter()
        .map(|e| e.max_rss_mb)
        .fold(0.0, f64::max);
    Ok(Rep {
        trained,
        score_s,
        served,
        peak_rss_mb,
    })
}

/// `p` capped at what the sample count supports (see `tail_percentile`).
pub fn supported_percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p.min(tail_percentile(sorted.len())))
}

/// Samples of every end-to-end metric after `setups` set-ups and `reps`
/// repetitions, in `BENCHMARK.json` order.
pub fn metrics(w: &Workload, setup_s: &[f64], reps: &[Rep]) -> Vec<(&'static str, Vec<f64>)> {
    let each = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let rows_served = (w.serve_requests * REQUEST_ROWS) as f64;
    vec![
        ("setup_s", setup_s.to_vec()),
        (
            "train_to_gap_s",
            each(&|r| r.trained.to_gap_s.unwrap_or(f64::NAN)),
        ),
        (
            "epochs_to_gap",
            each(&|r| r.trained.epochs_to_gap.map_or(f64::NAN, |e| e as f64)),
        ),
        ("train_s", each(&|r| r.trained.wall_s)),
        ("final_gap", each(&|r| r.trained.final_gap)),
        (
            "score_rows_per_s",
            each(&|r| w.score_limit as f64 / r.score_s),
        ),
        ("e2e_s", each(&|r| r.trained.wall_s + r.score_s)),
        ("peak_rss_mb", each(&|r| r.peak_rss_mb)),
        ("serve_p50_us", each(&|r| median(&r.served.score_us))),
        (
            "serve_p99_us",
            each(&|r| supported_percentile(&r.served.score_us, 99.0)),
        ),
        ("serve_rows_per_s", each(&|r| rows_served / r.served.wall_s)),
        ("reload_p50_ms", each(&|r| median(&r.served.reload_ms))),
    ]
}

/// Shared by the traced run: open the shard set `scd shard gen` wrote.
pub fn open_store(dir: &Path) -> Result<ShardedDataset, String> {
    ShardedDataset::open(dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))
}
