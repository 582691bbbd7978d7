//! `scd` — the command-line front-end to the TPA-SCD reproduction.
//!
//! Three subcommands cover the zero-to-trained workflow:
//!
//! * `scd generate` — write a synthetic webspam-/criteo-shaped (or dense)
//!   dataset in LIBSVM format.
//! * `scd info` — dataset statistics for any LIBSVM file.
//! * `scd train` — ridge, logistic regression, SVM, lasso or the elastic
//!   net on any engine: sequential, A-SCD, PASSCoDe-Wild, AsySCD, SySCD,
//!   TPA-SCD on either simulated GPU, or a distributed cluster with any
//!   aggregation rule.
//!
//! Run `scd help` for the full option reference.

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
