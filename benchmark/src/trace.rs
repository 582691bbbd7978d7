//! Spans for the traced run: recorded in memory around each call into a
//! layer, written out once at the end.
//!
//! The spans live in the benchmark, not in the crates: the program under
//! test is unchanged, and a span's name is `<layer>.<call>` with the layer
//! being the crate the call enters.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` is the span that was open when this one
/// started (`None` for the root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records properly nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// `capacity` spans are reserved up front so recording never
    /// reallocates inside a measured interval.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let now = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id as usize].end_ns = now;
    }

    /// Time `f` as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 * 1e-9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. Children are nested and never overlap (one thread), so
/// the part they cover is the sum of their durations.
pub fn self_nanos(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::nanos).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] -= s.nanos();
        }
    }
    own
}

/// Self seconds summed by layer — the part of a span's name before the
/// first `.`.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_nanos(spans)) {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *by_layer.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    by_layer
}

/// The spans as one JSON array, every object carrying the workload so
/// files from several workloads can be concatenated.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{},\"parent\":{parent},\"workload\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            scd_serve::json::escape(workload),
            scd_serve::json::escape(s.name),
            s.start_ns,
            s.end_ns
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_serve::json::Json;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    /// root 0..100 holds two adjacent children (10..40, 40..70); the first
    /// holds a grandchild (15..25).
    fn family() -> Vec<Span> {
        vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "store.open", 10, 40),
            span(2, Some(1), "sparse.dot", 15, 25),
            span(3, Some(0), "store.load", 40, 70),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(self_nanos(&family()), vec![40, 20, 10, 30]);
        let total: u64 = self_nanos(&family()).iter().sum();
        assert_eq!(total, 100, "self times partition the root span");
    }

    #[test]
    fn layers_are_the_name_prefix() {
        let by_layer = self_seconds_by_layer(&family());
        let nanos = |layer: &str| (by_layer[layer] * 1e9).round();
        assert_eq!(
            (nanos("store"), nanos("sparse"), nanos("root")),
            (50.0, 10.0, 40.0)
        );
    }

    #[test]
    fn tracer_nests_and_rejects_crossed_exits() {
        let mut t = Tracer::with_capacity(4);
        let root = t.enter("root");
        let got = t.leaf("core.epoch", || 7);
        assert_eq!(got, 7);
        t.exit(root);
        assert_eq!(t.spans()[1].parent, Some(root));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.seconds_of("core.epoch").len(), 1);

        let mut t = Tracer::with_capacity(2);
        let a = t.enter("a");
        let _b = t.enter("b");
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| t.exit(a))).is_err());
    }

    #[test]
    fn json_round_trips_through_the_serving_parser() {
        let parsed = Json::parse(&to_json("criteo \"e2e\"", &family())).expect("valid JSON");
        let spans = parsed.as_arr().expect("an array");
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[2].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            spans[2].get("name").and_then(Json::as_str),
            Some("sparse.dot")
        );
        assert_eq!(spans[3].get("end_ns").and_then(Json::as_f64), Some(70.0));
        assert_eq!(
            spans[1].get("workload").and_then(Json::as_str),
            Some("criteo \"e2e\"")
        );
    }
}
