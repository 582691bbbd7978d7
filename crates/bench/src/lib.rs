//! Experiment harness for reproducing every figure in the paper.
//!
//! Each `fig*` binary in `src/bin/` regenerates one of the paper's figures
//! as CSV series written to `results/` plus a human-readable summary on
//! stdout (who wins, by what factor, where crossovers fall). The data
//! instances in [`figdata`] are the scaled-down webspam/criteo stand-ins
//! documented in DESIGN.md and EXPERIMENTS.md.

#[cfg(feature = "alloc-count")]
pub mod alloc_track;
pub mod csv;
pub mod distributed_figs;
pub mod figdata;
pub mod harness;
pub mod opts;
pub mod plot;
pub mod single_node;

pub use harness::{run_convergence, ConvergenceRun};

/// With `alloc-count` on, every binary and test in this crate runs under
/// the counting allocator, installed here once for all of them.
#[cfg(feature = "alloc-count")]
#[global_allocator]
static COUNTING_ALLOCATOR: alloc_track::CountingAlloc = alloc_track::CountingAlloc;
