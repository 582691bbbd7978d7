//! End-to-end tests of the serving surface: a real `scd serve` process
//! on real pipes (JSON round-trips, malformed input, hot swap via
//! `reload` and via live training) and `scd score` batch mode over both
//! LIBSVM files and `scd shard gen` directories.

use scd_serve::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};

fn scd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scd"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scd_serve_{name}_{}", std::process::id()))
}

/// An interactive `scd serve` session over pipes. Responses are flushed
/// per line, so lock-step request/response never deadlocks.
struct Session {
    child: Child,
    reader: BufReader<ChildStdout>,
}

impl Session {
    fn spawn(args: &[&str]) -> Session {
        let mut child = Command::new(env!("CARGO_BIN_EXE_scd"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve spawns");
        let reader = BufReader::new(child.stdout.take().expect("stdout piped"));
        Session { child, reader }
    }

    /// Send one request line, read one response line, parse it as JSON.
    fn request(&mut self, line: &str) -> Json {
        let stdin = self.child.stdin.as_mut().expect("stdin piped");
        writeln!(stdin, "{line}").expect("request written");
        stdin.flush().expect("request flushed");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("response read");
        assert!(response.ends_with('\n'), "response not a full line: {response:?}");
        Json::parse(response.trim()).unwrap_or_else(|e| panic!("bad JSON {response:?}: {e}"))
    }

    /// Close stdin and wait for a clean exit.
    fn close(mut self) {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited with {status}");
    }
}

fn seq_of(response: &Json) -> u64 {
    response.get("model_seq").and_then(Json::as_f64).expect("model_seq") as u64
}

fn decisions_of(response: &Json) -> Vec<f64> {
    response
        .get("decisions")
        .and_then(Json::as_arr)
        .expect("decisions")
        .iter()
        .map(|d| d.as_f64().unwrap())
        .collect()
}

/// Generate a dataset and train a model file for it; returns the paths.
fn trained_model(name: &str, extra_train: &[&str]) -> (PathBuf, PathBuf) {
    let data = tmp(&format!("{name}_data.svm"));
    let model = tmp(&format!("{name}_model.txt"));
    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "120", "--cols", "50", "--nnz-per-row", "6",
        "--scale", "0.3", "--output", data.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut args = vec![
        "train", "--data", data.to_str().unwrap(), "--features", "50", "--lambda", "0.01",
        "--epochs", "30", "--eval-every", "30", "--save-model", model.to_str().unwrap(),
    ];
    args.extend_from_slice(extra_train);
    let out = scd(&args);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    (data, model)
}

#[test]
fn serve_round_trips_json_and_survives_malformed_requests() {
    let (data, model) = trained_model("rt", &[]);
    let mut session = Session::spawn(&["serve", "--model", model.to_str().unwrap()]);

    // info: the file was published as snapshot 1.
    let info = session.request("{\"op\":\"info\"}");
    assert_eq!(info.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(seq_of(&info), 1);
    assert_eq!(info.get("features").and_then(Json::as_f64), Some(50.0));
    assert_eq!(info.get("objective").and_then(Json::as_str), Some("ridge"));

    // score: two sparse rows come back in order.
    let scored = session.request("{\"op\":\"score\",\"rows\":[[[0,1.0],[3,-2.0]],[[49,0.5]]]}");
    assert_eq!(scored.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(decisions_of(&scored).len(), 2);

    // Malformed requests answer clean errors — not a panic, not an exit.
    for bad in [
        "this is not json",
        "{\"op\":\"warp\"}",
        "{\"op\":\"score\",\"rows\":[[[999,1.0]]]}",
        "{\"op\":\"score\",\"rows\":\"nope\"}",
    ] {
        let err = session.request(bad);
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)), "{bad}");
        assert!(err.get("error").and_then(Json::as_str).is_some(), "{bad}");
    }

    // The unknown-op error lists every op the session answers.
    let err = session.request("{\"op\":\"warp\"}");
    assert_eq!(
        err.get("error").and_then(Json::as_str),
        Some("bad request: unknown op \"warp\" (info|score|reload)")
    );

    // The session still serves after every error.
    let again = session.request("{\"op\":\"score\",\"rows\":[[[1,1.0]]]}");
    assert_eq!(again.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(seq_of(&again), 1);

    session.close();
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn reload_hot_swaps_the_model_mid_session() {
    let (data, model) = trained_model("swap", &[]);
    let mut session = Session::spawn(&["serve", "--model", model.to_str().unwrap()]);

    let row = "{\"op\":\"score\",\"rows\":[[[0,1.0],[7,2.0],[21,-1.0]]]}";
    let before = session.request(row);
    assert_eq!(seq_of(&before), 1);

    // Retrain the file on disk (different regularization → different
    // weights) while the session keeps running, then swap it in.
    let out = scd(&[
        "train", "--data", data.to_str().unwrap(), "--features", "50", "--lambda", "1.0",
        "--epochs", "30", "--eval-every", "30", "--save-model", model.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let reloaded = session.request("{\"op\":\"reload\"}");
    assert_eq!(reloaded.get("ok"), Some(&Json::Bool(true)), "{reloaded:?}");
    assert_eq!(reloaded.get("reloaded"), Some(&Json::Bool(true)));
    assert_eq!(seq_of(&reloaded), 2);

    // The same request now scores against the swapped model.
    let after = session.request(row);
    assert_eq!(seq_of(&after), 2);
    assert_ne!(
        decisions_of(&before),
        decisions_of(&after),
        "λ 0.01 → 1.0 must change the decision"
    );

    session.close();
    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn live_training_publishes_rounds_into_the_session() {
    let data = tmp("live_data.svm");
    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "150", "--cols", "60", "--nnz-per-row", "6",
        "--scale", "0.3", "--output", data.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    const ROUNDS: u64 = 8;
    let mut session = Session::spawn(&[
        "serve", "--train-data", data.to_str().unwrap(), "--workers", "2", "--epochs", "8",
        "--lambda", "0.01", "--seed", "7",
    ]);
    // The driver publishes one snapshot per round; info must report a
    // monotone sequence that ends at the final round.
    let mut last = 0u64;
    for _ in 0..10_000 {
        let info = session.request("{\"op\":\"info\"}");
        assert_eq!(info.get("ok"), Some(&Json::Bool(true)));
        let seq = seq_of(&info);
        assert!(seq >= 1, "serving started before the first publish");
        assert!(seq >= last, "model_seq went backwards: {last} -> {seq}");
        assert!(seq <= ROUNDS, "more publishes than rounds: {seq}");
        last = seq;
        if seq == ROUNDS {
            break;
        }
    }
    assert_eq!(last, ROUNDS, "never observed the final round's model");

    // Scoring works against the final snapshot.
    let scored = session.request("{\"op\":\"score\",\"rows\":[[[0,1.0]]]}");
    assert_eq!(scored.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(seq_of(&scored), ROUNDS);
    // reload is a file-serving op; live sessions reject it cleanly.
    let err = session.request("{\"op\":\"reload\"}");
    assert_eq!(err.get("ok"), Some(&Json::Bool(false)));

    session.close();
    std::fs::remove_file(&data).ok();
}

/// Live serving trains with the same driver and config as
/// `scd train --workers K`: on a dense problem at every default, the
/// model answered after the last round is the batch-trained one.
#[test]
fn live_training_on_dense_data_serves_the_batch_trained_model() {
    let data = tmp("dense_data.svm");
    let model = tmp("dense_model.txt");
    let (data_s, model_s) = (data.to_str().unwrap(), model.to_str().unwrap());
    let out = scd(&[
        "generate", "--kind", "dense", "--rows", "200", "--cols", "50", "--output", data_s,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let row = "{\"op\":\"score\",\"rows\":[[[0,1],[1,1],[2,-1]]]}";

    const ROUNDS: u64 = 60;
    let mut live =
        Session::spawn(&["serve", "--train-data", data_s, "--features", "50", "--epochs", "60"]);
    let mut live_answer = live.request(row);
    while seq_of(&live_answer) < ROUNDS {
        live_answer = live.request(row);
    }
    live.close();

    let out = scd(&[
        "train", "--data", data_s, "--features", "50", "--workers", "4", "--epochs", "60",
        "--save-model", model_s,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut batch = Session::spawn(&["serve", "--model", model_s]);
    let batch_answer = batch.request(row);
    batch.close();

    let decisions = decisions_of(&live_answer);
    assert!(decisions.iter().all(|d| d.is_finite()), "{decisions:?}");
    assert_eq!(
        live_answer.get("decisions"),
        batch_answer.get("decisions"),
        "live {live_answer:?} vs batch {batch_answer:?}"
    );

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn score_streams_a_shard_directory_in_batches() {
    let dir = tmp("score_shards");
    let model = tmp("score_shards_model.txt");
    std::fs::remove_dir_all(&dir).ok();
    let out = scd(&[
        "shard", "gen", "--out", dir.to_str().unwrap(), "--kind", "webspam", "--rows", "90",
        "--cols", "40", "--nnz-per-row", "5", "--chunk-rows", "32", "--seed", "3",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = scd(&[
        "train", "--data", dir.to_str().unwrap(), "--lambda", "0.01", "--epochs", "20",
        "--eval-every", "20", "--save-model", model.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = scd(&[
        "score", "--model", model.to_str().unwrap(), "--data", dir.to_str().unwrap(),
        "--batch", "16", "--limit", "40",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 41, "40 rows + summary: {text}");
    for (i, line) in lines[..40].iter().enumerate() {
        let row = Json::parse(line).unwrap_or_else(|e| panic!("row {i} bad JSON {line:?}: {e}"));
        assert_eq!(row.get("row").and_then(Json::as_f64), Some(i as f64));
        assert!(row.get("decision").and_then(Json::as_f64).is_some(), "{line}");
        assert!(row.get("prediction").and_then(Json::as_f64).is_some(), "{line}");
        assert!(row.get("label").is_some(), "{line}");
    }
    let summary = Json::parse(lines[40]).expect("summary is JSON");
    assert_eq!(summary.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(summary.get("rows").and_then(Json::as_f64), Some(40.0));
    assert_eq!(summary.get("batches").and_then(Json::as_f64), Some(3.0));
    assert!(summary.get("mse").and_then(Json::as_f64).is_some());

    // Without --limit, score reads the whole store.
    let out = scd(&["score", "--model", model.to_str().unwrap(), "--data", dir.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let summary = Json::parse(text.lines().last().unwrap()).unwrap();
    assert_eq!(summary.get("rows").and_then(Json::as_f64), Some(90.0));

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&model).ok();
}
