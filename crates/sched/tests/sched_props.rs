//! Property tests for the work-stealing scheduler: exactly-once execution
//! under arbitrary widths/caps/nesting shapes, peak-concurrency bounds,
//! and width-1 sequential ordering — the invariants every ported consumer
//! (gpu-sim launches, distributed rounds, CPU baselines) leans on.

use proptest::prelude::*;
use scd_sched::Scheduler;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Run `n` tasks on `sched` capped at `cap`, where the first wave of
/// tasks rendezvous: each parks until `expect = min(width, n)` tasks are
/// inside the group simultaneously (or a generous timeout trips). Long
/// enough tasks make the scheduler's *engageable* parallelism observable
/// through peak accounting, instead of racing task granularity against
/// worker wake-up latency. Returns `(expect, sched.peak_parallelism())`.
fn rendezvous_peak(sched: &Scheduler, n: usize, cap: usize) -> (usize, usize) {
    let expect = sched.threads().min(cap.max(1)).min(n);
    // A worker of a *previous* group decrements the active counter a few
    // instructions after its last index completes (peak accounting is a
    // conservative ceiling, not a completion barrier), so settle until
    // the reset baseline shows only idle threads before measuring.
    while {
        sched.reset_peak();
        sched.peak_parallelism() != 0
    } {
        std::thread::yield_now();
    }
    let arrivals = Mutex::new(0usize);
    let cv = Condvar::new();
    sched.parallel_for_limited(n, cap, &|_| {
        let mut arrived = arrivals.lock().unwrap();
        *arrived += 1;
        if *arrived >= expect {
            cv.notify_all();
        } else {
            // Hold this task live until the whole first wave is on-core;
            // the timeout turns a scheduler that cannot engage `expect`
            // threads into an assertion failure instead of a hang.
            let (_guard, timeout) = cv
                .wait_timeout_while(arrived, Duration::from_secs(10), |a| *a < expect)
                .unwrap();
            assert!(!timeout.timed_out(), "rendezvous timed out below {expect} tasks");
        }
    });
    (expect, sched.peak_parallelism())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Flat groups: every index runs exactly once, for any pool width,
    /// cap, and task count.
    #[test]
    fn flat_group_exactly_once(threads in 1usize..5,
                               cap in 1usize..6,
                               n in 0usize..120) {
        let sched = Scheduler::new(threads);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        sched.parallel_for_limited(n, cap, &|i| {
            hits[i].fetch_add(1, SeqCst);
        });
        for h in &hits {
            prop_assert_eq!(h.load(SeqCst), 1);
        }
    }

    /// Two-level nesting: outer tasks spawn inner groups onto the same
    /// pool; the full outer × inner product runs exactly once and the
    /// peak thread count never exceeds the configured width (workers plus
    /// the one external submitter).
    #[test]
    fn nested_groups_exactly_once_within_width(threads in 1usize..5,
                                               outer in 1usize..7,
                                               inner in 1usize..9) {
        let sched = Scheduler::new(threads);
        sched.reset_peak();
        let hits: Vec<AtomicUsize> =
            (0..outer * inner).map(|_| AtomicUsize::new(0)).collect();
        sched.parallel_for(outer, &|o| {
            sched.parallel_for(inner, &|i| {
                hits[o * inner + i].fetch_add(1, SeqCst);
            });
        });
        for h in &hits {
            prop_assert_eq!(h.load(SeqCst), 1);
        }
        prop_assert!(sched.peak_parallelism() <= threads,
                     "peak {} > configured {}", sched.peak_parallelism(), threads);
    }

    /// Scoped spawns interleaved with indexed groups all join.
    #[test]
    fn scope_and_parallel_for_compose(threads in 1usize..5,
                                      tasks in 0usize..20,
                                      inner in 1usize..6) {
        let sched = Scheduler::new(threads);
        let total = AtomicUsize::new(0);
        sched.scope(|s| {
            for _ in 0..tasks {
                let total = &total;
                let sched = &sched;
                s.spawn(move || {
                    sched.parallel_for(inner, &|_| {
                        total.fetch_add(1, SeqCst);
                    });
                });
            }
        });
        prop_assert_eq!(total.load(SeqCst), tasks * inner);
    }

    /// A width-1 scheduler is a plain sequential loop: indices observe
    /// strict order, which is what `with_host_threads(1)` determinism
    /// reduces to.
    #[test]
    fn width_one_is_sequential(n in 0usize..60) {
        let sched = Scheduler::new(1);
        let order = Mutex::new(Vec::new());
        sched.parallel_for(n, &|i| {
            order.lock().unwrap().push(i);
        });
        prop_assert_eq!(order.into_inner().unwrap(), (0..n).collect::<Vec<_>>());
    }

    /// Chunked groups: every element of `0..n` is visited exactly once,
    /// each chunk is a contiguous range of the requested size (short only
    /// at the end), for any width/cap/chunk combination.
    #[test]
    fn chunked_group_covers_every_element_once(threads in 1usize..5,
                                               cap in 1usize..6,
                                               n in 0usize..150,
                                               chunk in 1usize..20) {
        let sched = Scheduler::new(threads);
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        sched.parallel_for_chunked(n, chunk, cap, &|range| {
            assert!(range.start % chunk == 0, "chunks start on chunk boundaries");
            assert!(range.len() == chunk || range.end == n, "only the last chunk is short");
            for i in range {
                hits[i].fetch_add(1, SeqCst);
            }
        });
        for h in &hits {
            prop_assert_eq!(h.load(SeqCst), 1);
        }
    }
}

/// Regression for a scheduler benchmark that reported a peak parallelism
/// of 2 at width 4 on a single-core host: when tasks live long enough to
/// rendezvous, the scheduler must engage — and peak accounting must
/// report — exactly `min(configured width, available tasks)` threads on a
/// wide flat group (so peak ≤ width, and the full width is engageable).
/// Short free-running epochs can legitimately drain before parked workers
/// reach a core, but the scheduler itself may neither under-subscribe nor
/// under-count.
#[test]
fn peak_equals_min_width_tasks_on_wide_flat_group() {
    // Wide flat group: more tasks than threads → peak == width.
    let sched = Scheduler::new(4);
    let (expect, peak) = rendezvous_peak(&sched, 16, usize::MAX);
    assert_eq!(expect, 4);
    assert_eq!(peak, expect, "peak {peak} != min(width, tasks) = {expect}");

    // Fewer tasks than threads → peak == task count.
    let (expect, peak) = rendezvous_peak(&sched, 2, usize::MAX);
    assert_eq!(expect, 2);
    assert_eq!(peak, expect, "peak {peak} != min(width, tasks) = {expect}");

    // Cap below both → peak == cap.
    let (expect, peak) = rendezvous_peak(&sched, 16, 3);
    assert_eq!(expect, 3);
    assert_eq!(peak, expect, "peak {peak} != min(width, cap, tasks) = {expect}");
}

#[test]
fn peak_equals_width_across_widths() {
    for threads in 1..=6 {
        let sched = Scheduler::new(threads);
        let (expect, peak) = rendezvous_peak(&sched, 12, usize::MAX);
        assert_eq!(expect, threads.min(12));
        assert_eq!(peak, expect, "width {threads}: peak {peak} != {expect}");
    }
}
