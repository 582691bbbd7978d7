//! # scd-events — deterministic discrete-event simulation
//!
//! The substrate for asynchronous distributed experiments: a virtual
//! clock, a binary-heap event queue with **total `(time, seq)`
//! ordering**, and actor-labelled per-event traces.
//!
//! Design rules:
//!
//! * **Determinism is total ordering.** Times are compared with
//!   [`f64::total_cmp`] and ties are broken by a monotone insertion
//!   counter, so a schedule of `(time, seq)` pairs has exactly one pop
//!   order no matter what order it was inserted in (property-tested in
//!   `tests/proptests.rs`).
//! * **The clock moves only by popping events.** `Engine::next()`
//!   advances `now` to the popped event's time; scheduling into the past
//!   panics. Simulated time is therefore monotone by construction.
//! * **Timing comes from the caller.** Compute durations come from its
//!   `CpuProfile`/GPU cost models, transfer times from its
//!   `LinkProfile`s, fault delays from its fault plan — the engine only
//!   orders what it is given.
//!
//! Built on top of this: `scd-distributed`'s `AsyncScd`, the
//! bounded-staleness asynchronous driver whose τ=0 mode reproduces the
//! synchronous barrier bit-identically and whose τ=∞ mode is the
//! repository's parameter server, and `scd-serve`'s load harness.

pub mod engine;
pub mod queue;

pub use engine::{ActorId, Engine, TraceEntry};
pub use queue::{EventKey, EventQueue};
