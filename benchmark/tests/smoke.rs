//! `run.sh --smoke`: every workload at about 1% size through the real
//! `scd` binary, end-to-end and traced, with every output check on.

use std::process::Command;

#[test]
fn smoke_run_is_green_and_reports_every_metric() {
    let run_sh = concat!(env!("CARGO_MANIFEST_DIR"), "/run.sh");
    let output = Command::new("bash")
        .arg(run_sh)
        .arg("--smoke")
        .output()
        .expect("bash runs run.sh");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "run.sh --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Four workloads, each once untraced and once traced, each ending in
    // a result line that says every check passed.
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\": "))
        .collect();
    assert_eq!(results.len(), 8, "{stdout}");
    assert!(
        results
            .iter()
            .all(|l| l.starts_with("{\"correct\": true, ")),
        "{stdout}"
    );
    for name in [
        "criteo_e2e",
        "webspam_syscd",
        "webspam_dist4",
        "serve_session",
    ] {
        assert_eq!(stdout.matches(&format!("== {name}  ")).count(), 2, "{name}");
    }
    for metric in [
        "train_to_gap_s",
        "serve_p99_us",
        "sparse.dot_ns_per_nnz",
        "trace.root_self_pct",
    ] {
        assert!(
            results
                .iter()
                .any(|l| l.contains(&format!("\"{metric}\": {{\"value\": "))),
            "{metric}"
        );
    }
}
