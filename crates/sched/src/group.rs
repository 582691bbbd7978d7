//! Task groups: the unit of scheduling.
//!
//! A group is a batch of tasks that complete together — either an indexed
//! range (`parallel_for`'s `0..n`) or a queue of boxed closures (`scope`'s
//! spawns). The scheduler never enqueues individual tasks; it enqueues
//! *tokens*, each an `Arc<GroupCore>` reference. A thread holding a token
//! drains the group's claim cursor: claim an index, run it, repeat until
//! the cursor is exhausted, then drop the token. This keeps queue traffic
//! proportional to the number of participating threads, not the number of
//! tasks, and caps a group's parallelism at its token count.
//!
//! Lifetime erasure: `parallel_for` and `scope` borrow closures from the
//! caller's stack and erase the lifetime (`Body::Indexed` stores a raw fat
//! pointer, `Body::Queued` transmutes boxed closures to `'static`). This
//! is sound because both calls block until `completed == total`, and a
//! claim can only succeed before then — tokens that outlive the call site
//! in some deque find the cursor exhausted and never touch the body.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};

type QueuedTask = Box<dyn FnOnce() + Send + 'static>;

enum Body {
    /// `parallel_for` body: one shared closure called with each index.
    /// Lifetime-erased borrow of the caller's stack.
    Indexed(*const (dyn Fn(usize) + Sync)),
    /// `scope` body: one boxed closure per spawned task, taken on claim.
    Queued(Mutex<Vec<Option<QueuedTask>>>),
}

// Safety: the raw pointer in `Indexed` targets a `Sync` closure that the
// blocked caller keeps alive until every index completes (see module
// docs); `Queued` tasks are `Send` and each is taken by exactly one
// thread under the mutex.
unsafe impl Send for Body {}
unsafe impl Sync for Body {}

pub(crate) struct GroupCore {
    body: Body,
    /// Claim cursor: next index to hand out.
    next: AtomicUsize,
    /// Total tasks. Fixed for `Indexed`; grows with each `scope` spawn.
    total: AtomicUsize,
    /// Tasks finished (run, skipped-after-panic, or panicked).
    completed: AtomicUsize,
    panicked: AtomicBool,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl GroupCore {
    /// # Safety
    /// The caller must not let the returned group outlive `f` *while any
    /// claim can still succeed* — i.e. it must block until [`Self::wait`]
    /// returns before `f`'s storage goes away.
    pub(crate) unsafe fn indexed(f: &(dyn Fn(usize) + Sync), n: usize) -> Self {
        let f: *const (dyn Fn(usize) + Sync) = std::mem::transmute(f);
        GroupCore {
            body: Body::Indexed(f),
            next: AtomicUsize::new(0),
            total: AtomicUsize::new(n),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Re-arm a finished indexed group for a new body — the recycling
    /// path that keeps steady-state `parallel_for` calls off the heap.
    ///
    /// # Safety
    /// Same contract as [`Self::indexed`] for `f`'s lifetime. The `&mut`
    /// receiver must come from proven exclusive ownership
    /// (`Arc::get_mut`): no token for a previous incarnation may still be
    /// live anywhere, so no concurrent claim can observe the reset
    /// half-done.
    pub(crate) unsafe fn reset_indexed(&mut self, f: &(dyn Fn(usize) + Sync), n: usize) {
        let f: *const (dyn Fn(usize) + Sync) = std::mem::transmute(f);
        self.body = Body::Indexed(f);
        *self.next.get_mut() = 0;
        *self.total.get_mut() = n;
        *self.completed.get_mut() = 0;
        *self.panicked.get_mut() = false;
    }

    pub(crate) fn queued() -> Self {
        GroupCore {
            body: Body::Queued(Mutex::new(Vec::new())),
            next: AtomicUsize::new(0),
            total: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        }
    }

    /// Append a spawned task (scope owner only, before join). The task is
    /// stored before `total` is bumped so a claimer always finds its slot.
    pub(crate) fn push_task(&self, task: QueuedTask) {
        match &self.body {
            Body::Queued(q) => q.lock().unwrap().push(Some(task)),
            Body::Indexed(_) => unreachable!("push_task on an indexed group"),
        }
        self.total.fetch_add(1, SeqCst);
    }

    /// Claim the next unclaimed index, if any. A CAS loop (rather than a
    /// blind `fetch_add`) so the cursor never overshoots `total`, which
    /// matters for queued groups whose `total` grows between claims.
    pub(crate) fn claim(&self) -> Option<usize> {
        let mut cur = self.next.load(SeqCst);
        loop {
            if cur >= self.total.load(SeqCst) {
                return None;
            }
            match self.next.compare_exchange(cur, cur + 1, SeqCst, SeqCst) {
                Ok(_) => return Some(cur),
                Err(now) => cur = now,
            }
        }
    }

    /// Execute a claimed index. Panics are caught and poison the group.
    /// An indexed group fails fast — once poisoned, remaining indices
    /// complete as no-ops, the way a GPU launch aborts the grid — while a
    /// queued group still runs every spawned task (independent closures,
    /// `std::thread::scope` semantics). Either way every claimed index is
    /// counted in `completed` exactly once, so the waiter always unblocks.
    pub(crate) fn run_index(&self, index: usize) {
        let outcome = match &self.body {
            Body::Indexed(_) if self.panicked.load(SeqCst) => Ok(()),
            Body::Indexed(f) => {
                // Safety: a successful claim proves the owning call is
                // still blocked in `wait`, so the borrow is live.
                let f = unsafe { &**f };
                catch_unwind(AssertUnwindSafe(|| f(index)))
            }
            Body::Queued(q) => {
                // Take the task out before running it: a guard held across
                // the call would serialize every task of the scope.
                let task = q.lock().unwrap()[index].take();
                match task {
                    Some(task) => catch_unwind(AssertUnwindSafe(task)),
                    None => Ok(()),
                }
            }
        };
        if outcome.is_err() {
            self.panicked.store(true, SeqCst);
        }
        let done = self.completed.fetch_add(1, SeqCst) + 1;
        if done >= self.total.load(SeqCst) {
            // Lock before notifying so a waiter can't check-then-sleep
            // between our increment and our notify.
            let _guard = self.done_lock.lock().unwrap();
            self.done_cv.notify_all();
        }
    }

    /// Block until every task has completed. Callers must have exhausted
    /// the claim cursor first (the scheduler's drain loop does), so
    /// everything still outstanding is running on some other thread.
    pub(crate) fn wait(&self) {
        let mut guard = self.done_lock.lock().unwrap();
        while self.completed.load(SeqCst) < self.total.load(SeqCst) {
            guard = self.done_cv.wait(guard).unwrap();
        }
    }

    pub(crate) fn panicked(&self) -> bool {
        self.panicked.load(SeqCst)
    }
}
