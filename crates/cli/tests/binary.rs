//! End-to-end tests of the compiled `scd` binary: real process, real
//! argv, real files — the exact surface a downstream user touches.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scd(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scd"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("scd_bin_{name}_{}", std::process::id()))
}

#[test]
fn help_succeeds_and_mentions_subcommands() {
    let out = scd(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for word in [
        "generate", "train", "score", "sweep", "info", "shard gen", "shard inspect", "tpa-m4000",
    ] {
        assert!(text.contains(word), "help missing {word}");
    }
}

/// The pinned CLI surface: each subcommand's argv prefix and exactly the
/// flags its `check_known` list accepts.
const SURFACE: &[(&[&str], &[&str])] = &[
    (
        &["generate"],
        &[
            "kind", "output", "rows", "cols", "nnz-per-row", "fields", "cardinality", "scale",
            "seed",
        ],
    ),
    (&["info"], &["data", "features", "detail"]),
    (
        &["train"],
        &[
            "data", "features", "objective", "lambda", "l1-ratio", "form", "backend", "threads",
            "buckets", "merge-every", "host-threads", "step", "epochs", "eval-every", "target-gap",
            "workers", "partition", "aggregation", "wire", "round-threads", "runtime", "staleness",
            "event-trace", "fault-drop", "fault-delay", "fault-delay-factor", "fault-timeout",
            "fault-retries", "fault-seed", "round-metrics", "save-model", "seed",
        ],
    ),
    (
        &["serve"],
        &[
            "model", "train-data", "features", "objective", "lambda", "workers", "epochs", "seed",
        ],
    ),
    (&["score"], &["model", "data", "features", "batch", "limit"]),
    (
        &["sweep"],
        &[
            "data", "features", "lambda-max", "lambda-ratio", "points", "tol", "max-epochs", "seed",
        ],
    ),
    (
        &["shard", "gen"],
        &[
            "out", "kind", "rows", "cols", "nnz-per-row", "fields", "cardinality", "chunk-rows",
            "seed",
        ],
    ),
    (&["shard", "inspect"], &["data", "verify"]),
];

/// Every `--flag` token in a help text.
fn flags_in(text: &str) -> std::collections::BTreeSet<String> {
    let mut flags = std::collections::BTreeSet::new();
    for (at, _) in text.match_indices("--") {
        let name: String = text[at + 2..]
            .chars()
            .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
            .collect();
        if name.starts_with(|c: char| c.is_ascii_lowercase()) {
            flags.insert(name);
        }
    }
    flags
}

#[test]
fn help_and_check_known_agree_on_the_flag_set() {
    let out = scd(&["help"]);
    assert!(out.status.success());
    let documented = flags_in(&String::from_utf8(out.stdout).unwrap());
    let accepted: std::collections::BTreeSet<String> = SURFACE
        .iter()
        .flat_map(|(_, flags)| flags.iter().map(|f| f.to_string()))
        .collect();
    assert_eq!(documented, accepted, "`scd help` and the check_known lists disagree");

    // `check_known` reports the first unknown key in sorted order and runs
    // before anything else, so pairing a flag with a probe that sorts last
    // tells whether the flag is accepted without running the subcommand.
    for (prefix, flags) in SURFACE {
        for flag in &accepted {
            let mut argv = prefix.to_vec();
            let dashed = format!("--{flag}");
            argv.extend([dashed.as_str(), "x", "--zz-probe", "x"]);
            let out = scd(&argv);
            assert!(!out.status.success());
            let err = String::from_utf8(out.stderr).unwrap();
            let rejected = if flags.contains(&flag.as_str()) { "zz-probe" } else { flag.as_str() };
            assert_eq!(
                err.trim_end(),
                format!("error: unknown option --{rejected}"),
                "scd {} --{flag}",
                prefix.join(" ")
            );
        }
    }
}

#[test]
fn bad_usage_fails_with_nonzero_exit_and_stderr() {
    let out = scd(&[]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("missing subcommand"), "{err}");
    assert!(err.contains("USAGE:"), "bare `scd` must print usage: {err}");

    let out = scd(&["train"]); // --data required
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--data"));

    let out = scd(&["warp", "--engage", "9"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("unknown subcommand"));
}

#[test]
fn full_workflow_generate_train_score() {
    let data = tmp("wf_data.svm");
    let model = tmp("wf_model.txt");
    let data_s = data.to_str().unwrap();
    let model_s = model.to_str().unwrap();

    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "120", "--cols", "90", "--nnz-per-row", "8",
        "--scale", "0.3", "--output", data_s,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = scd(&[
        "train", "--data", data_s, "--features", "90", "--lambda", "0.01", "--epochs", "40",
        "--eval-every", "20", "--save-model", model_s,
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("model saved"), "{text}");

    let out = scd(&["score", "--model", model_s, "--data", data_s]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    let summary = scd_serve::json::Json::parse(text.lines().last().unwrap()).unwrap();
    assert!(summary.get("mse").and_then(|m| m.as_f64()).is_some(), "{text}");
    // The model fits its own training data well.
    let accuracy = summary.get("accuracy").and_then(|a| a.as_f64()).unwrap();
    assert!(accuracy > 0.9, "training accuracy {accuracy}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&model).ok();
}

#[test]
fn distributed_gpu_training_from_the_command_line() {
    let data = tmp("gpu_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "criteo", "--rows", "200", "--fields", "5", "--cardinality", "20",
        "--output", data_s,
    ]);
    assert!(out.status.success());

    let out = scd(&[
        "train", "--data", data_s, "--features", "100", "--form", "dual", "--workers", "2",
        "--aggregation", "adaptive", "--backend", "tpa-titanx", "--epochs", "10",
        "--eval-every", "10",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("K=2"), "{text}");
    assert!(text.contains("adaptive"));

    std::fs::remove_file(&data).ok();
}

#[test]
fn unknown_backend_lists_the_valid_set() {
    let data = tmp("backend_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "40", "--cols", "30", "--nnz-per-row", "4",
        "--output", data_s,
    ]);
    assert!(out.status.success());

    let out = scd(&["train", "--data", data_s, "--backend", "hyperdrive"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown --backend \"hyperdrive\""), "{err}");
    assert!(
        err.contains("seq|a-scd|wild|asyscd|syscd|tpa-m4000|tpa-titanx"),
        "error must list every valid backend: {err}"
    );

    std::fs::remove_file(&data).ok();
}

#[test]
fn syscd_backend_trains_and_help_documents_its_knobs() {
    let out = scd(&["train", "--help"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    for word in ["--backend", "--buckets", "--merge-every", "syscd"] {
        assert!(text.contains(word), "train --help missing {word}: {text}");
    }

    let data = tmp("syscd_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "100", "--cols", "80", "--nnz-per-row", "8",
        "--scale", "0.3", "--output", data_s,
    ]);
    assert!(out.status.success());

    let out = scd(&[
        "train", "--data", data_s, "--features", "80", "--backend", "syscd", "--threads", "4",
        "--buckets", "16", "--merge-every", "1", "--host-threads", "2", "--epochs", "20",
        "--eval-every", "20",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("SySCD (4 threads)"), "{text}");

    std::fs::remove_file(&data).ok();
}

#[test]
fn objective_flag_errors_are_clean() {
    // Every user-reachable misuse of --objective must come back as a
    // one-line stderr message and a nonzero exit, never a panic.
    let data = tmp("obj_err_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "criteo", "--rows", "60", "--fields", "4", "--cardinality", "10",
        "--output", data_s,
    ]);
    assert!(out.status.success());

    let out = scd(&["train", "--data", data_s, "--objective", "mystery"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown --objective \"mystery\""), "{err}");
    assert!(err.contains("ridge|logistic|svm|lasso|elastic-net"), "{err}");

    let out = scd(&["train", "--data", data_s, "--objective", "svm", "--form", "primal"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("objective svm does not support the primal form"), "{err}");

    let out = scd(&["train", "--data", data_s, "--l1-ratio", "0.5"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--l1-ratio only applies to --objective elastic-net"), "{err}");

    // A mix outside [0, 1] or not finite is a typed error, not a panic.
    for ratio in ["1.5", "-0.1", "nan", "inf"] {
        let out = scd(&["train", "--data", data_s, "--objective", "elastic-net", "--l1-ratio", ratio]);
        assert_one_line_error(&out, "elastic-net l1-ratio must be in [0, 1]");
    }
    assert_one_line_error(
        &scd(&["train", "--data", data_s, "--objective", "elastic-net", "--form", "dual"]),
        "objective elastic-net does not support the dual form",
    );
    assert_one_line_error(
        &scd(&["train", "--data", data_s, "--objective", "elastic-net", "--backend", "asyscd"]),
        "AsySCD supports only the ridge and lasso objectives, not elastic-net",
    );

    let out = scd(&["train", "--data", data_s, "--backend", "asyscd", "--objective", "svm", "--form", "dual"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("asyscd supports only --form primal"), "{err}");

    let out = scd(&["train", "--data", data_s, "--backend", "asyscd", "--objective", "svm", "--form", "primal"]);
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("objective svm does not support the primal form"), "{err}");

    std::fs::remove_file(&data).ok();
}

#[test]
fn svm_objective_trains_distributed_and_reports_rate() {
    let data = tmp("obj_svm_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "criteo", "--rows", "160", "--fields", "5", "--cardinality", "16",
        "--output", data_s,
    ]);
    assert!(out.status.success());

    let out = scd(&[
        "train", "--data", data_s, "--features", "80", "--objective", "svm", "--workers", "4",
        "--aggregation", "adaptive", "--wire", "topk-ef:64", "--epochs", "10", "--eval-every", "5",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("svm objective"), "{text}");
    assert!(text.contains("acc "), "classification runs must report accuracy: {text}");
    assert!(
        text.contains("convergence rate:") || text.contains("gap reached 0 at epoch"),
        "rate report missing: {text}"
    );

    std::fs::remove_file(&data).ok();
}

/// Elastic-net is an objective like the other four: every engine class,
/// the distributed driver, `--target-gap`, and the saved-model path.
#[test]
fn elastic_net_runs_everywhere_and_round_trips_through_score() {
    let data = tmp("en_data.svm");
    let model = tmp("en_model.txt");
    let (data_s, model_s) = (data.to_str().unwrap(), model.to_str().unwrap());
    let out = scd(&[
        "generate", "--kind", "criteo", "--rows", "160", "--fields", "5", "--cardinality", "16",
        "--output", data_s,
    ]);
    assert!(out.status.success());
    let base = [
        "train", "--data", data_s, "--features", "80", "--objective", "elastic-net", "--lambda",
        "0.01", "--eval-every", "5",
    ];
    let train = |extra: &[&str]| scd(&[&base[..], extra].concat());

    for backend in ["seq", "syscd", "tpa-m4000"] {
        let out = train(&["--backend", backend, "--epochs", "5"]);
        let text = String::from_utf8_lossy(&out.stdout).to_string();
        assert!(text.contains("elastic-net objective"), "{backend}: {text}");
        assert!(text.contains("epoch     5  gap "), "{backend}: {text}");
        final_gap(&out);
    }
    let out = train(&["--workers", "4", "--epochs", "5"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("K=4"));
    final_gap(&out);

    let out = train(&["--epochs", "500", "--target-gap", "1e-4"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("target gap 1.0e-4 reached"));

    // ρ = 1 is the lasso, to the last printed digit.
    let corner = final_gap(&train(&["--l1-ratio", "1", "--epochs", "5"]));
    let lasso = final_gap(&scd(&[
        "train", "--data", data_s, "--features", "80", "--objective", "lasso", "--lambda",
        "0.01", "--epochs", "5",
    ]));
    assert_eq!(corner, lasso);

    let out = train(&["--l1-ratio", "0.25", "--epochs", "20", "--save-model", model_s]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let header = std::fs::read_to_string(&model).unwrap();
    assert!(header.contains("objective=elastic-net l1_ratio=0.25"), "{header}");
    let out = scd(&["score", "--model", model_s, "--data", data_s, "--limit", "3"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text.lines().count(), 4, "3 rows + summary: {text}");
    // Identity link: the prediction is the decision value.
    let first = scd_serve::json::Json::parse(text.lines().next().unwrap()).unwrap();
    assert!(first.get("decision").is_some(), "{text}");
    assert_eq!(first.get("decision"), first.get("prediction"), "{text}");

    std::fs::remove_file(&data).ok();
    std::fs::remove_file(&model).ok();
}

/// The `final gap {:.17e}` line from a train run.
fn final_gap(out: &Output) -> String {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find(|l| l.starts_with("final gap"))
        .expect("final gap line")
        .to_string()
}

/// stderr must be exactly one `error:` line — no panic, no backtrace.
fn assert_one_line_error(out: &Output, needle: &str) {
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "expected a one-line error, got: {err}");
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains(needle), "missing {needle:?}: {err}");
}

#[test]
fn shard_workflow_trains_bit_identically_to_in_memory() {
    let dir = tmp("shard_wf_dir");
    let file = tmp("shard_wf.svm");
    let (dir_s, file_s) = (dir.to_str().unwrap(), file.to_str().unwrap());
    std::fs::remove_dir_all(&dir).ok();

    // Chunk small relative to the dataset: the writer's high-water
    // honestly counts the persistent serialization scratch (about one
    // extra chunk), so the 4x streaming margin needs several chunks of
    // rows on disk.
    let out = scd(&[
        "shard", "gen", "--out", dir_s, "--kind", "criteo", "--rows", "160", "--fields", "5",
        "--cardinality", "16", "--seed", "11", "--chunk-rows", "16",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("sharded criteo: rows=160 cols=80"), "{text}");
    assert!(text.contains("chunks=10"), "{text}");

    // The writer streamed: the dataset on disk is at least 4x anything it
    // ever held buffered (chunked generation, not materialize-then-write).
    let field = |t: &str, k: &str| -> u64 {
        t.lines()
            .find(|l| l.starts_with(k))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {k}: {t}"))
    };
    let disk = field(&text, "on-disk bytes:");
    let high_water = field(&text, "writer high-water bytes:");
    assert!(
        disk >= 4 * high_water,
        "disk {disk} < 4x writer high-water {high_water}"
    );

    let out = scd(&["shard", "inspect", "--data", dir_s, "--verify", "yes"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("checksums verified"), "{text}");

    // Same rows as LIBSVM text for the in-memory path.
    let out = scd(&[
        "generate", "--kind", "criteo", "--rows", "160", "--fields", "5", "--cardinality", "16",
        "--seed", "11", "--output", file_s,
    ]);
    assert!(out.status.success());

    // Bit-identity, single node and the paper's K=4 cluster.
    for workers in ["1", "4"] {
        let mut mem_args = vec![
            "train", "--data", file_s, "--features", "80", "--form", "dual", "--workers",
            workers, "--epochs", "4", "--eval-every", "4",
        ];
        if workers != "1" {
            mem_args.extend(["--partition", "contiguous"]);
        }
        let mem = final_gap(&scd(&mem_args));
        let store = final_gap(&scd(&[
            "train", "--data", dir_s, "--form", "dual", "--workers", workers, "--epochs", "4",
            "--eval-every", "4",
        ]));
        assert_eq!(mem, store, "K={workers} shard training diverged from in-memory");
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&file).ok();
}

#[test]
fn store_misuse_exits_with_clean_one_line_errors() {
    let dir = tmp("shard_err_dir");
    let dir_s = dir.to_str().unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let out = scd(&[
        "shard", "gen", "--out", dir_s, "--kind", "criteo", "--rows", "80", "--fields", "4",
        "--cardinality", "10", "--chunk-rows", "32",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Generator flags never combine with a shard directory.
    assert_one_line_error(&scd(&["train", "--data", dir_s, "--fields", "4"]), "unknown option");
    assert_one_line_error(
        &scd(&["train", "--data", dir_s, "--features", "40"]),
        "not shard directories",
    );
    // Nonexistent and invalid paths.
    assert_one_line_error(&scd(&["train", "--data", "/nonexistent/shards"]), "cannot open");
    let empty = tmp("shard_empty_dir");
    std::fs::create_dir_all(&empty).unwrap();
    assert_one_line_error(
        &scd(&["train", "--data", empty.to_str().unwrap()]),
        "index.scds",
    );
    assert_one_line_error(
        &scd(&["shard", "inspect", "--data", "/nonexistent/shards"]),
        "cannot open shard directory",
    );

    // A flipped payload byte is caught by checksums, as a clean error,
    // from both inspect --verify and train.
    let chunk = dir.join("chunk-00001.scdc");
    let mut bytes = std::fs::read(&chunk).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&chunk, &bytes).unwrap();
    assert_one_line_error(
        &scd(&["shard", "inspect", "--data", dir_s, "--verify", "yes"]),
        "checksum mismatch",
    );
    assert_one_line_error(
        &scd(&["train", "--data", dir_s, "--form", "dual"]),
        "checksum mismatch",
    );
    // Truncation is caught already at open.
    let len = std::fs::metadata(&chunk).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&chunk).unwrap();
    f.set_len(len - 9).unwrap();
    drop(f);
    assert_one_line_error(&scd(&["shard", "inspect", "--data", dir_s]), "truncated");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

#[test]
fn more_workers_than_coordinates_is_a_one_line_error() {
    // 4 examples × 3 features: the dual form partitions the 4 rows, the
    // primal form the 3 columns, so K = 5 and K = 4 overflow them.
    let data = tmp("k_over_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "4", "--cols", "3", "--nnz-per-row", "2",
        "--output", data_s,
    ]);
    assert!(out.status.success());
    let train = |extra: &[&str]| {
        let mut args = vec!["train", "--data", data_s, "--features", "3", "--epochs", "1"];
        args.extend_from_slice(extra);
        scd(&args)
    };
    let dual = "cannot spread 4 examples over 5 workers";
    assert_one_line_error(&train(&["--form", "dual", "--workers", "5"]), dual);
    let primal = "cannot spread 3 features over 4 workers";
    assert_one_line_error(&train(&["--form", "primal", "--workers", "4"]), primal);
    // The event runtime builds its workers the same way.
    let event = ["--form", "primal", "--workers", "4", "--runtime", "event"];
    assert_one_line_error(&train(&event), primal);
    // K = N and K = M still train.
    assert!(train(&["--form", "dual", "--workers", "4"]).status.success());
    assert!(train(&["--form", "primal", "--workers", "3"]).status.success());
    std::fs::remove_file(&data).ok();
}

#[test]
fn host_threads_sizes_the_shared_scheduler() {
    // A fresh process, so --host-threads can claim the process-wide
    // scheduler; the distributed GPU run then schedules on 2 host threads.
    let data = tmp("ht_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "80", "--cols", "60", "--nnz-per-row", "6",
        "--scale", "0.3", "--output", data_s,
    ]);
    assert!(out.status.success());

    let out = scd(&[
        "train", "--data", data_s, "--features", "60", "--workers", "2", "--backend",
        "tpa-m4000", "--host-threads", "2", "--epochs", "5", "--eval-every", "5",
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("K=2"), "{text}");

    let out = scd(&["train", "--data", data_s, "--features", "60", "--host-threads", "nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("expected integer"));

    std::fs::remove_file(&data).ok();
}

#[test]
fn bad_flag_values_are_one_line_errors() {
    // Each of these reached an engine's assert (a panic and a backtrace)
    // or, for a negative timeout, silently dropped every round.
    let data = tmp("bad_flags_data.svm");
    let data_s = data.to_str().unwrap();
    let out = scd(&[
        "generate", "--kind", "webspam", "--rows", "40", "--cols", "30", "--nnz-per-row", "4",
        "--output", data_s,
    ]);
    assert!(out.status.success());
    let threads = "--threads \"0\": expected an integer >= 1";
    let cases: &[(&[&str], &str)] = &[
        (&["--backend", "syscd", "--threads", "0"], threads),
        (&["--backend", "a-scd", "--threads", "0"], threads),
        (&["--backend", "wild", "--threads", "0"], threads),
        (&["--backend", "a-scd", "--threads", "0", "--workers", "2"], threads),
        (&["--backend", "wild", "--threads", "0", "--workers", "2"], threads),
        (&["--backend", "asyscd", "--step", "0"], "--step \"0\": expected a finite number > 0"),
        (&["--backend", "asyscd", "--step", "nan"], "--step \"nan\": expected a finite number > 0"),
        (
            &["--workers", "2", "--fault-delay", "1", "--fault-delay-factor", "nan"],
            "--fault-delay-factor \"nan\": expected a finite number > 0",
        ),
        (
            &["--workers", "2", "--fault-delay-factor", "0"],
            "--fault-delay-factor \"0\": expected a finite number > 0",
        ),
        (
            &["--workers", "2", "--fault-timeout", "-1"],
            "--fault-timeout \"-1\": expected a finite number > 0",
        ),
        (
            &["--workers", "2", "--fault-timeout", "inf"],
            "--fault-timeout \"inf\": expected a finite number > 0",
        ),
    ];
    for (extra, needle) in cases {
        let mut argv = vec!["train", "--data", data_s, "--features", "30", "--epochs", "1"];
        argv.extend_from_slice(extra);
        assert_one_line_error(&scd(&argv), needle);
    }
    // The dataset generators assert on empty dimensions too.
    let empty = tmp("bad_flags_empty.svm");
    for (kind, flag) in [
        ("webspam", "--rows"),
        ("dense", "--cols"),
        ("webspam", "--nnz-per-row"),
        ("criteo", "--fields"),
        ("criteo", "--cardinality"),
    ] {
        let argv = ["generate", "--kind", kind, flag, "0", "--output", empty.to_str().unwrap()];
        let needle = format!("{flag} \"0\": expected an integer >= 1");
        assert_one_line_error(&scd(&argv), &needle);
    }
    std::fs::remove_file(&data).ok();
}
