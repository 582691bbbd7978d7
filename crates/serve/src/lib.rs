//! `scd-serve` — the consumer side of the stack: everything between a
//! trained (or *training*) weight vector and a caller who wants scores.
//!
//! The producer side of this repository (TPA-SCD, the CPU engines, the
//! distributed drivers) ends at a weight vector; this crate makes that
//! vector serve traffic:
//!
//! * [`slot`] — [`ModelSlot`], a seqlock snapshot-publication primitive.
//!   A live training driver publishes at round boundaries; serving
//!   threads read consistent snapshots without ever blocking the writer
//!   (hot model swap under load).
//! * [`engine`] — [`BatchScorer`], batched inference over the shared
//!   `scd-sparse` dot kernels on the `scd-sched` scheduler, with the
//!   per-objective decision rules (regression score, SVM sign, logistic
//!   probability).
//! * [`proto`] — the JSON-lines request/response protocol behind
//!   `scd serve` (one request per line, errors never kill the session).
//! * [`json`] — the minimal offline JSON reader/writer the protocol
//!   uses (the workspace vendors no serde).

pub mod engine;
pub mod json;
pub mod proto;
pub mod slot;

pub use engine::{batch_from_pairs, prediction, BatchScorer, Scored};
pub use proto::{respond, serve_lines, Response, ServeStats};
pub use slot::{ModelSlot, ModelSnapshot};

/// Serving-side errors. Every variant renders as one line — the protocol
/// forwards them verbatim in `"error"` fields and the CLI prints them to
/// stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request does not fit the model's feature space.
    FeatureMismatch {
        /// Features the model scores.
        model: usize,
        /// Width the batch claimed.
        data: usize,
    },
    /// Scoring was requested before anything was published.
    NoModel,
    /// A malformed request (bad JSON, bad rows, unknown op).
    BadRequest(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::FeatureMismatch { model, data } => write!(
                f,
                "feature-space mismatch: model has {model} features, batch is {data} wide"
            ),
            ServeError::NoModel => write!(f, "no model published yet"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_as_one_line() {
        for e in [
            ServeError::FeatureMismatch { model: 4, data: 9 },
            ServeError::NoModel,
            ServeError::BadRequest("rows must be arrays".into()),
        ] {
            let msg = e.to_string();
            assert!(!msg.contains('\n'), "{msg:?}");
            assert!(!msg.is_empty());
        }
    }
}
