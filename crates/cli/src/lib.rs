//! `scd` — the command-line front-end to the TPA-SCD reproduction.
//!
//! The subcommands cover the zero-to-served workflow:
//!
//! * `scd generate` — write a synthetic webspam-/criteo-shaped (or dense)
//!   dataset in LIBSVM format; `scd shard gen` streams one to an
//!   out-of-core shard directory, and `scd shard inspect` reads it back.
//! * `scd info` — dataset statistics for a LIBSVM file or shard directory.
//! * `scd train` — ridge, logistic regression, SVM, lasso or the elastic
//!   net on any engine: sequential, A-SCD, PASSCoDe-Wild, AsySCD, SySCD,
//!   TPA-SCD on either simulated GPU, or a distributed cluster with any
//!   aggregation rule.
//! * `scd score` and `scd serve` — batch and JSON-lines scoring with a
//!   saved model (or, for `serve`, one being trained live).
//! * `scd sweep` — a warm-started regularization path.
//!
//! Run `scd help` for the full option reference.

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
