//! Every metric the benchmark reports, by name, and the result line the
//! driver reads. `BENCHMARK.json` at the repository root declares the same
//! lists; a test holds the two together.

use crate::e2e::Tally;
use crate::stats::Summary;
use scd_serve::json::escape;

/// One declared metric. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of `scd` sees, measured with tracing off. Bounds are at
/// least three times the spread seen over ten runs in a quiet stretch on a
/// 2-core host (README.md, *Noise*); the counts repeat to the digit.
pub const END_TO_END: [Decl; 12] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("train_to_gap_s", "s", "lower", 0.2),
    e2e("epochs_to_gap", "count", "lower", 0.0),
    e2e("train_s", "s", "lower", 0.2),
    e2e("final_gap", "gap", "lower", 0.1),
    e2e("score_rows_per_s", "rows/s", "higher", 0.2),
    e2e("e2e_s", "s", "lower", 0.2),
    e2e("peak_rss_mb", "MB", "lower", 0.05),
    e2e("serve_p50_us", "us", "lower", 0.25),
    e2e("serve_p99_us", "us", "lower", 0.25),
    e2e("serve_rows_per_s", "rows/s", "higher", 0.25),
    e2e("reload_p50_ms", "ms", "lower", 0.2),
];

/// Single layers, from the traced run. The layer is the crate a call
/// enters; `self_s.*` is the trace's self-time table, `cli`/`trace` are the
/// binary's own shell and the trace's bookkeeping.
pub const PER_LAYER: [Decl; 55] = [
    layer("store.gen_mb_per_s", "MB/s", "higher"),
    layer("store.open_ms", "ms", "lower"),
    layer("store.load_all_s", "s", "lower"),
    layer("store.load_mb_per_s", "MB/s", "higher"),
    layer("store.checksum_gb_per_s", "GB/s", "higher"),
    layer("store.load_rows_us_per_batch", "us", "lower"),
    layer("store.chunk_maps_per_score", "count", "lower"),
    layer("sparse.dot_ns_per_nnz", "ns", "lower"),
    layer("sparse.axpy_ns_per_nnz", "ns", "lower"),
    layer("sparse.csr_matvec_ns_per_nnz", "ns", "lower"),
    layer("sparse.csr_matvec_t_ns_per_nnz", "ns", "lower"),
    layer("sparse.csc_matvec_ns_per_nnz", "ns", "lower"),
    layer("sparse.to_csc_s", "s", "lower"),
    layer("sparse.computed_gb_per_s", "GB/s", "higher"),
    layer("core.problem_build_s", "s", "lower"),
    layer("core.epoch_ms", "ms", "lower"),
    layer("core.epoch_ns_per_nnz", "ns", "lower"),
    layer("core.gap_eval_ms", "ms", "lower"),
    layer("core.epochs", "count", "lower"),
    layer("core.weights_ms", "ms", "lower"),
    layer("core.model_save_ms", "ms", "lower"),
    layer("core.model_load_ms", "ms", "lower"),
    layer("core.train_cpu_cores", "cores", "higher"),
    layer("distributed.build_s", "s", "lower"),
    layer("distributed.round_ms", "ms", "lower"),
    layer("distributed.rounds", "count", "lower"),
    layer("distributed.gamma_mean", "ratio", "higher"),
    layer("distributed.bytes_raw_per_round", "B", "lower"),
    layer("distributed.bytes_encoded_per_round", "B", "lower"),
    layer("wire.encode_mb_per_s", "MB/s", "higher"),
    layer("wire.decode_mb_per_s", "MB/s", "higher"),
    layer("wire.compression_ratio", "ratio", "higher"),
    layer("sched.parallel_for_ns_per_task", "ns", "lower"),
    layer("sched.dispatch_us_per_group", "us", "lower"),
    layer("sched.peak_parallelism", "count", "higher"),
    layer("gpusim.tpa_epoch_ms", "ms", "lower"),
    layer("gpusim.tpa_epoch_ns_per_nnz", "ns", "lower"),
    layer("serve.json_parse_mb_per_s", "MB/s", "higher"),
    layer("serve.batch_from_pairs_us", "us", "lower"),
    layer("serve.respond_us", "us", "lower"),
    layer("serve.scorer_rows_per_s_b16", "rows/s", "higher"),
    layer("serve.scorer_rows_per_s_b256", "rows/s", "higher"),
    layer("serve.slot_publish_us", "us", "lower"),
    layer("serve.slot_read_ns", "ns", "lower"),
    layer("serve.pipe_overhead_us", "us", "lower"),
    layer("cli.startup_ms", "ms", "lower"),
    layer("cli.format_us_per_row", "us", "lower"),
    layer("cli.trace_overhead_pct", "%", "lower"),
    layer("trace.root_s", "s", "lower"),
    layer("trace.root_self_pct", "%", "lower"),
    layer("self_s.store", "s", "lower"),
    layer("self_s.core", "s", "lower"),
    layer("self_s.distributed", "s", "lower"),
    layer("self_s.serve", "s", "lower"),
    layer("self_s.cli", "s", "lower"),
];

/// The one-line result: `correct`, `attempted`, `failed` and the median of
/// every metric with its unit. Rust prints an `f64` with the fewest digits
/// that read back to the same value, so nothing is rounded away.
pub fn result_line(tally: Tally, metrics: &[(&'static Decl, Summary)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(decl, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape(decl.name),
                s.median,
                escape(decl.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_serve::json::Json;

    #[test]
    fn result_line_is_json_with_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 1234,
            failed: 0,
        };
        let metrics: Vec<_> = END_TO_END
            .iter()
            .map(|d| (d, Summary::of(&[1.5, 0.000012, 3e9])))
            .collect();
        let parsed = Json::parse(&result_line(tally, &metrics)).expect("valid JSON");
        let Json::Obj(top) = &parsed else {
            panic!("not an object")
        };
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1234.0));
        let Some(Json::Obj(reported)) = parsed.get("metrics") else {
            panic!("metrics is not an object")
        };
        assert_eq!(reported.len(), END_TO_END.len());
        let setup = &reported["setup_s"];
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    /// `BENCHMARK.json` and the tables above name the same metrics with the
    /// same units, directions and bounds, and the same workloads.
    #[test]
    fn benchmark_json_declares_what_the_harness_reports() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let field = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        for (key, decls) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = spec.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), decls.len(), "{key}");
            for (j, decl) in listed.iter().zip(decls) {
                assert_eq!(field(j, "name").as_deref(), Some(decl.name));
                assert_eq!(
                    field(j, "unit").as_deref(),
                    Some(decl.unit),
                    "{}",
                    decl.name
                );
                assert_eq!(
                    field(j, "better").as_deref(),
                    Some(decl.better),
                    "{}",
                    decl.name
                );
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    decl.bound,
                    "{}",
                    decl.name
                );
            }
        }
        let listed = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        let ours = crate::workloads::all(false);
        assert_eq!(listed.len(), ours.len());
        for (j, w) in listed.iter().zip(&ours) {
            assert_eq!(field(j, "name").as_deref(), Some(w.name));
            assert_eq!(field(j, "why").as_deref(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
    }
}
