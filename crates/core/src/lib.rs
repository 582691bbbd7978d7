//! The paper's primary contribution: stochastic coordinate descent engines
//! for ridge regression — sequential (Algorithm 1), asynchronous
//! multi-threaded CPU (A-SCD, PASSCoDe-Wild), and **TPA-SCD** (Algorithm 2)
//! on the simulated GPU — plus the adaptive-aggregation closed form that
//! §IV-B contributes for the distributed setting.
//!
//! Layout:
//! * [`problem`] — primal/dual objectives, duality gap (§II).
//! * [`products`] — the matrix passes behind them (Aβ, Aᵀα, norms, the
//!   CSR→CSC transpose), data-parallel and bit-identical at any width.
//! * [`updates`] — the scalar coordinate update rules (Eqs. 2 and 4).
//! * [`objective`] — the pluggable objective layer (ridge, logistic,
//!   hinge/SVM, lasso, elastic net — the other uses of SCD that §I
//!   names) every engine dispatches through.
//! * [`seq`] — Algorithm 1, the single-thread baseline.
//! * [`async_cpu`] — real-thread A-SCD / PASSCoDe-Wild (§III-B).
//! * [`async_sim`] — deterministic T-thread asynchrony simulation used for
//!   reproducible figures.
//! * [`syscd`] — SySCD-style system-aware parallel SCD: bucketized
//!   coordinates, shuffled static partitioning, per-worker replicas with
//!   deterministic merges.
//! * [`asyscd`] — the AsySCD [15] baseline §III-B criticizes (Hessian
//!   blow-up, step-size tuning, slower than Algorithm 1).
//! * [`tpa`] — TPA-SCD kernels and solver (§III-C).
//! * [`aggregation`] — optimal γ* for distributed aggregation (§IV-B).
//! * [`recorder`] — duality-gap/time curves and time-to-ε queries.
//! * [`exact`] — closed-form reference solutions for verification.
//! * [`model`] — trained-model persistence and inference.
//! * [`path`] — warm-started regularization paths over a λ grid [4].

pub mod aggregation;
pub mod async_cpu;
pub mod asyscd;
pub mod async_sim;
pub mod exact;
pub mod model;
pub mod objective;
pub mod path;
pub mod problem;
pub mod products;
pub mod recorder;
pub mod seq;
pub mod solver;
pub mod syscd;
pub mod tpa;
pub mod updates;

pub use aggregation::{optimal_gamma_dual, optimal_gamma_primal, WorkerScalars};
pub use async_cpu::AsyncCpuScd;
pub use asyscd::{AsyScd, AsyScdError};
pub use async_sim::AsyncSimScd;
pub use exact::{exact_dual, exact_primal};
pub use model::{ModelError, TrainedModel};
pub use objective::{
    ElasticNetObjective, LogisticObjective, Objective, ObjectiveError, ObjectiveKind,
    RidgeObjective, SvmObjective,
};
pub use path::{PathPoint, RegularizationPath};
pub use problem::{Form, ProblemError, RidgeProblem};
pub use recorder::{ConvergenceRecorder, EpochPoint};
pub use seq::SequentialScd;
pub use solver::{EpochStats, Solver, TimeBreakdown};
pub use syscd::SyscdScd;
pub use tpa::{TpaScd, DEFAULT_LANES};

pub use scd_perf_model::AsyncCpuMode;
