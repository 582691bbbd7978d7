//! The round runtime: worker rounds of one synchronous epoch as a task
//! group on the shared host scheduler.
//!
//! [`RoundPool`] is a thin facade over the work-stealing scheduler
//! (`scd-sched`): an epoch submits "run the round of each pending worker"
//! as one task group capped at the configured width, and the worker
//! rounds — plus any kernel grids they launch — schedule cooperatively on
//! one process-wide set of host threads, so a K-worker run whose local
//! solver is TPA-SCD does not oversubscribe the host K×. Nested TPA-SCD
//! launches inside a round are safe by the scheduler's nesting rule (the
//! submitting thread drains its own group inline before blocking). At a
//! width of 1 the driver stands no pool up and runs the rounds inline.
//!
//! Determinism: each task index is claimed by exactly one thread, every
//! worker is touched by at most one thread per epoch, and the *master*
//! reduces results in worker-id order afterwards — so the aggregated
//! state is bit-identical to the width-1 loop regardless of thread
//! count or scheduling.

use scd_sched::Scheduler;
use std::sync::Arc;

/// How the driver executes the K worker rounds of one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundRuntime {
    /// Rounds run as task groups on the shared host scheduler.
    /// `threads == 0` auto-sizes to `min(K, available_parallelism)`;
    /// `threads == 1` runs one worker after another on the calling
    /// thread, the reference loop every width is bit-identical to.
    Concurrent {
        /// Parallelism cap; 0 = auto.
        threads: usize,
    },
}

impl Default for RoundRuntime {
    fn default() -> Self {
        RoundRuntime::Concurrent { threads: 0 }
    }
}

impl RoundRuntime {
    /// Resolve the round-parallelism cap for a cluster of `workers`
    /// nodes; 1 means "no pool, run inline".
    pub(crate) fn pool_threads(self, workers: usize) -> usize {
        let RoundRuntime::Concurrent { threads } = self;
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        };
        threads.min(workers).max(1)
    }
}

/// Per-driver handle onto the shared scheduler for executing the
/// per-worker round tasks of an epoch.
pub struct RoundPool {
    sched: Arc<Scheduler>,
    /// Parallelism cap for this driver's epochs.
    threads: usize,
}

impl RoundPool {
    /// A handle capped at `threads` concurrent rounds, on the
    /// process-wide scheduler.
    pub fn new(threads: usize) -> Self {
        Self::on(scd_sched::global(), threads)
    }

    /// A handle on an explicit scheduler — tests and benchmarks use this
    /// to pin real parallelism regardless of the host's core count.
    pub fn on(sched: Arc<Scheduler>, threads: usize) -> Self {
        assert!(threads >= 1, "round pool needs at least one thread");
        RoundPool { sched, threads }
    }

    /// This handle's round-parallelism cap.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The scheduler this handle submits to.
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.sched
    }

    /// Execute `tasks` tasks as one group; `run_task(i)` is called exactly
    /// once for every `i in 0..tasks`. Returns after every task has
    /// finished. Tasks may themselves submit nested work (TPA-SCD kernel
    /// launches) to the same scheduler.
    ///
    /// # Panics
    /// Panics if any task panicked.
    pub fn run(&self, tasks: usize, run_task: &(dyn Fn(usize) + Sync)) {
        self.sched.parallel_for_limited(tasks, self.threads, run_task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_task_runs_exactly_once_and_pool_is_reusable() {
        let pool = RoundPool::on(Scheduler::new(3), 3);
        for _ in 0..4 {
            let hits: Vec<AtomicUsize> = (0..17).map(|_| AtomicUsize::new(0)).collect();
            pool.run(17, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
        assert_eq!(pool.threads(), 3);
    }

    #[test]
    fn empty_job_completes() {
        let pool = RoundPool::new(2);
        pool.run(0, &|_| panic!("no tasks should run"));
    }

    #[test]
    fn panicking_task_fails_the_job_but_not_the_pool() {
        let pool = RoundPool::on(Scheduler::new(2), 2);
        let failed = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            })
        }));
        assert!(failed.is_err());
        let ok = AtomicUsize::new(0);
        pool.run(4, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    /// The cap throttles a wide scheduler: at most `threads` rounds run
    /// concurrently even when the scheduler could host more.
    #[test]
    fn cap_bounds_concurrent_rounds() {
        let sched = Scheduler::new(4);
        let pool = RoundPool::on(Arc::clone(&sched), 2);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run(12, &|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn runtime_resolves_pool_width() {
        assert_eq!(RoundRuntime::Concurrent { threads: 1 }.pool_threads(8), 1);
        assert_eq!(RoundRuntime::Concurrent { threads: 3 }.pool_threads(8), 3);
        // Wider than the cluster is clamped to K.
        assert_eq!(RoundRuntime::Concurrent { threads: 16 }.pool_threads(4), 4);
        let auto = RoundRuntime::Concurrent { threads: 0 }.pool_threads(8);
        assert!((1..=8).contains(&auto));
        assert_eq!(RoundRuntime::default(), RoundRuntime::Concurrent { threads: 0 });
    }
}
