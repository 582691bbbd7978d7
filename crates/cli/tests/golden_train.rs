//! Golden transcripts of the `scd` binary: the full `scd train
//! --eval-every 1` stdout (plus its `--round-metrics` JSON) and the
//! `scd score` stdout on the benchmark workloads' smoke shapes must stay
//! byte-identical to the files under `tests/golden/`.
//!
//! Temp paths are normalised to `<tmp>`. To bless an intentional change,
//! run with `SCD_BLESS=1` and commit the rewritten files.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory for one test, emptied on creation.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("scd_golden_{name}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().unwrap().to_string()
    }

    /// Run `scd`, require success, and return stdout with this
    /// directory's path replaced by `<tmp>`.
    fn scd(&self, args: &[&str]) -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_scd")).args(args).output().expect("binary runs");
        assert!(out.status.success(), "scd {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap().replace(self.0.to_str().unwrap(), "<tmp>")
    }

    /// `scd train ARGS --round-metrics F`: stdout, then the metrics JSON.
    fn train_with_metrics(&self, args: &[&str]) -> String {
        let metrics = self.path("metrics.json");
        let stdout = self.scd(&[args, &["--round-metrics", &metrics]].concat());
        let json = std::fs::read_to_string(&metrics).unwrap();
        format!("{stdout}--- round metrics ---\n{json}")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn check(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
    if std::env::var("SCD_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with SCD_BLESS=1)", path.display()));
    assert!(
        got == golden,
        "{name} diverged from its golden transcript.\n\
         If the change is intentional, regenerate with SCD_BLESS=1.\n\
         --- got ---\n{got}\n--- golden ---\n{golden}"
    );
}

/// `benchmark/src/workloads.rs`'s smoke webspam shards (seed 7).
fn webspam_shards(s: &Scratch) -> String {
    let dir = s.path("shards");
    s.scd(&[
        "shard", "gen", "--out", &dir, "--kind", "webspam", "--rows", "1000", "--cols", "1000",
        "--nnz-per-row", "20", "--chunk-rows", "256", "--seed", "7",
    ]);
    dir
}

/// criteo_e2e's smoke shape: shards, dual, K=2, adaptive, raw wire, to a
/// target gap; then batch scoring over the same shard directory.
#[test]
fn criteo_shards_k2_adaptive_and_score() {
    let s = Scratch::new("criteo");
    let dir = s.path("shards");
    let model = s.path("model.txt");
    s.scd(&[
        "shard", "gen", "--out", &dir, "--kind", "criteo", "--rows", "4000", "--fields", "10",
        "--cardinality", "50", "--chunk-rows", "1024", "--seed", "7",
    ]);
    let train = s.train_with_metrics(&[
        "train", "--data", &dir, "--form", "dual", "--workers", "2", "--backend", "seq",
        "--aggregation", "adaptive", "--wire", "raw", "--round-threads", "2", "--host-threads",
        "2", "--epochs", "40", "--eval-every", "1", "--target-gap", "1.4e-1", "--save-model",
        &model,
    ]);
    check("train_criteo_k2_adaptive.txt", &train);
    let score = s.scd(&[
        "score", "--model", &model, "--data", &dir, "--batch", "256", "--limit", "512",
    ]);
    check("train_criteo_score_shards.txt", &score);
}

/// webspam_dist4's smoke shape: K=4 simulated Titan X workers, top-k wire
/// with error feedback, a fixed 20 epochs.
#[test]
fn webspam_k4_tpa_topk_ef() {
    let s = Scratch::new("dist4");
    let dir = webspam_shards(&s);
    let train = s.train_with_metrics(&[
        "train", "--data", &dir, "--form", "dual", "--workers", "4", "--backend", "tpa-titanx",
        "--aggregation", "adaptive", "--wire", "topk-ef:100", "--round-threads", "2",
        "--host-threads", "2", "--epochs", "20", "--eval-every", "1",
    ]);
    check("train_webspam_k4_tpa.txt", &train);
}

/// webspam_syscd's smoke shape: primal syscd on two replicas, to a gap.
#[test]
fn webspam_primal_syscd() {
    let s = Scratch::new("syscd");
    let dir = webspam_shards(&s);
    let train = s.scd(&[
        "train", "--data", &dir, "--form", "primal", "--backend", "syscd", "--threads", "2",
        "--host-threads", "2", "--epochs", "60", "--eval-every", "1", "--target-gap", "3.3e-1",
    ]);
    check("train_webspam_syscd.txt", &train);
}

/// The event runtime on a LIBSVM file at τ ∈ {0, 2, inf} with dropped and
/// delayed rounds; then batch scoring of that file with the τ = 2 model.
#[test]
fn event_runtime_with_faults_and_score() {
    let s = Scratch::new("event");
    let data = s.path("data.svm");
    s.scd(&[
        "generate", "--kind", "webspam", "--rows", "600", "--cols", "200", "--nnz-per-row", "12",
        "--scale", "0.3", "--seed", "3", "--output", &data,
    ]);
    for tau in ["0", "2", "inf"] {
        let model = s.path(&format!("model_{tau}.txt"));
        let train = s.train_with_metrics(&[
            "train", "--data", &data, "--features", "200", "--form", "dual", "--workers", "4",
            "--runtime", "event", "--staleness", tau, "--fault-drop", "0.1", "--fault-delay",
            "0.3", "--fault-seed", "5", "--epochs", "8", "--eval-every", "1", "--save-model",
            &model,
        ]);
        check(&format!("train_event_tau{tau}.txt"), &train);
    }
    let score = s.scd(&[
        "score", "--model", &s.path("model_2.txt"), "--data", &data, "--batch", "256", "--limit",
        "512",
    ]);
    check("train_event_score_libsvm.txt", &score);
}
