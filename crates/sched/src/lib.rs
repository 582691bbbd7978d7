//! # scd-sched — the unified work-stealing host scheduler
//!
//! One persistent thread pool for every host-parallel path in the
//! workspace: gpu-sim thread blocks, distributed worker rounds, the
//! asynchronous CPU baselines, and bulk host↔device transfers. Before
//! this crate each of those owned its own threads, so a K-worker
//! distributed run whose local solver is TPA-SCD oversubscribed the host
//! K× (the ROADMAP "Pool sharing" item); now they all share one pool
//! sized to the host, and nested work — K rounds each launching kernel
//! grids — schedules cooperatively.
//!
//! ## Architecture
//!
//! * **Per-worker Chase–Lev deques + a global injector** ([`deque`]).
//!   A pool worker pushes nested work to its own deque bottom (LIFO);
//!   idle workers steal from other deques' tops (FIFO) or pop the
//!   injector, which also receives submissions from threads outside the
//!   pool and deque overflow.
//! * **Group tokens, not task queues.** A `parallel_for(n, f)` call
//!   builds one task *group* with an atomic claim cursor over `0..n` and
//!   enqueues up to `min(n, cap, threads) - 1` *tokens* — cheap
//!   references to the group. Whoever pops a token claims and runs
//!   indices until the cursor runs dry. Queue traffic is therefore
//!   proportional to participating threads, and a group's parallelism is
//!   capped by its token count (how the gpu-sim keeps a launch within
//!   `host_threads` even on a wider shared pool).
//! * **The caller always participates.** The submitting thread claims
//!   indices inline before waiting, so every call makes progress even if
//!   all workers are busy or the pool has zero workers (`threads == 1`
//!   degenerates to an ordinary sequential loop — the degenerate case
//!   that keeps `with_host_threads(1)` determinism trivially intact).
//!
//! ## Nesting rule (why a task may block on a subgroup)
//!
//! A task may call `parallel_for`/`scope` on the *same* pool. The nested
//! call claims its own indices inline; by the time it blocks in `wait`,
//! every remaining index of the subgroup has been claimed by — and is
//! running on — some other thread. Leaf groups therefore finish, waiters
//! unwind, and no cycle of threads can wait on each other: deadlock-free
//! without needing the waiter to execute unrelated stolen work (which
//! would unboundedly grow its stack). Blocked waiters are parked, so the
//! count of threads *executing* tasks never exceeds the pool size plus
//! the external submitters — observable via [`Scheduler::peak_parallelism`].
//!
//! Simulated time never flows through this crate: gpu-sim and the
//! distributed runtime derive their clocks from counted work
//! (`BlockCost`, perf-model charges), so scheduling order affects only
//! wall-clock, never the simulation's numbers.

mod deque;
mod group;

use deque::{Deque, Steal};
use group::GroupCore;

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

const DEQUE_CAPACITY: usize = 256;

/// Errors surfaced by the fallible configuration entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// A scheduler must have at least one thread (the caller itself).
    ZeroThreads,
    /// [`configure_global`] was called after the process-wide pool was
    /// already built with a different width.
    GlobalAlreadyConfigured { current: usize, requested: usize },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::ZeroThreads => write!(f, "host scheduler needs at least 1 thread"),
            SchedError::GlobalAlreadyConfigured { current, requested } => write!(
                f,
                "global host scheduler already running with {current} thread(s); \
                 cannot reconfigure to {requested}"
            ),
        }
    }
}

impl std::error::Error for SchedError {}

struct Shared {
    /// One deque per pool worker (the submitting thread has none; it
    /// pushes to the injector).
    deques: Vec<Deque>,
    injector: Mutex<VecDeque<usize>>,
    sleep: Mutex<()>,
    wake: Condvar,
    /// Workers registered as (about to be) sleeping. Checked by pushers
    /// to skip the notify lock on the hot path.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// Threads currently executing tasks of this scheduler.
    active: AtomicUsize,
    peak: AtomicUsize,
}

thread_local! {
    /// Set once per pool-worker thread: (owning scheduler address, index).
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
    /// Stack of scheduler addresses this thread is currently executing
    /// inside, for nesting-aware active/peak accounting.
    static ENTERED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Shared {
    fn addr(&self) -> usize {
        self as *const Shared as usize
    }

    /// Enqueue a group token and wake a sleeper if there is one. `me` is
    /// the caller's worker index when it belongs to this pool.
    fn push_token(&self, raw: usize, me: Option<usize>) {
        let overflow = match me {
            Some(i) => self.deques[i].push(raw).err(),
            None => Some(raw),
        };
        if let Some(raw) = overflow {
            self.injector.lock().unwrap().push_back(raw);
        }
        // SeqCst pairing with `park`: either we observe the sleeper here,
        // or the sleeper's own has_work check observes our push.
        if self.sleepers.load(SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_all();
        }
    }

    fn find_token(&self, me: usize) -> Option<usize> {
        if let Some(raw) = self.deques[me].pop() {
            return Some(raw);
        }
        if let Some(raw) = self.injector.lock().unwrap().pop_front() {
            return Some(raw);
        }
        let n = self.deques.len();
        for off in 1..n {
            let victim = &self.deques[(me + off) % n];
            loop {
                match victim.steal() {
                    Steal::Success(raw) => return Some(raw),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        !self.injector.lock().unwrap().is_empty()
            || self.deques.iter().any(|d| !d.is_empty_hint())
    }

    /// Park until work arrives (or shutdown). The sleeper count is
    /// published *before* re-checking the queues, pairing with
    /// `push_token`'s push-then-check, so a wakeup can never be missed.
    fn park(&self) {
        self.sleepers.fetch_add(1, SeqCst);
        let guard = self.sleep.lock().unwrap();
        if !self.has_work() && !self.shutdown.load(SeqCst) {
            drop(self.wake.wait(guard).unwrap());
        } else {
            drop(guard);
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Claim-and-run until this group's cursor is exhausted, maintaining
    /// the active/peak counters (a thread nested in the same scheduler is
    /// only counted once).
    fn drain(&self, group: &GroupCore) {
        // Claim *before* counting: a token popped after its group's
        // cursor is already dry — a stale token from a completed group —
        // must not transiently inflate active/peak while an unrelated
        // group is being measured.
        let Some(mut index) = group.claim() else {
            return;
        };
        let first = ENTERED.with(|e| {
            let mut stack = e.borrow_mut();
            let first = !stack.contains(&self.addr());
            stack.push(self.addr());
            first
        });
        if first {
            let now = self.active.fetch_add(1, SeqCst) + 1;
            self.peak.fetch_max(now, SeqCst);
        }
        loop {
            group.run_index(index);
            match group.claim() {
                Some(next) => index = next,
                None => break,
            }
        }
        ENTERED.with(|e| {
            e.borrow_mut().pop();
        });
        if first {
            self.active.fetch_sub(1, SeqCst);
        }
    }
}

fn worker_main(shared: Arc<Shared>, me: usize) {
    WORKER.with(|w| w.set(Some((shared.addr(), me))));
    // Size the nesting stack now: on a busy host a worker's first claim
    // can come in any later epoch, and must not allocate there.
    ENTERED.with(|e| e.borrow_mut().reserve(4));
    loop {
        if shared.shutdown.load(SeqCst) {
            break;
        }
        match shared.find_token(me) {
            Some(raw) => {
                // Safety: tokens are `Arc::into_raw(Arc<GroupCore>)`;
                // popping one transfers its reference count to us.
                let group = unsafe { Arc::from_raw(raw as *const GroupCore) };
                shared.drain(&group);
            }
            None => shared.park(),
        }
    }
}

/// A persistent work-stealing pool. `Scheduler::new(t)` spawns `t - 1`
/// worker threads; the submitting thread lends itself as the `t`-th, so
/// total execution parallelism per call site is `t`.
///
/// Most code should use the process-wide [`global`] handle; explicit
/// instances exist for tests and benchmarks that need a specific width
/// regardless of the host (this repository's CI is a 1-core box).
pub struct Scheduler {
    shared: Arc<Shared>,
    threads: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Recycled indexed [`GroupCore`]s. A `parallel_for` acquires an
    /// exclusively-owned entry (`Arc::get_mut` succeeds) and re-arms it
    /// in place instead of allocating; at release, the group's unpopped
    /// tokens are reclaimed from the queues and the group returns here.
    /// Each pool worker holds at most one token at a time, so at most
    /// `threads - 1` entries can be pinned by in-flight stealers at any
    /// acquire — a pool of `threads` entries always has a free one, and
    /// steady-state launches allocate nothing.
    group_pool: Mutex<Vec<Arc<GroupCore>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Scheduler {
    /// Build a pool that executes up to `threads` tasks concurrently.
    /// `threads == 1` spawns no workers at all: every call degenerates to
    /// an inline sequential loop on the caller.
    pub fn new(threads: usize) -> Arc<Scheduler> {
        Self::try_new(threads).expect("scheduler thread count must be >= 1")
    }

    /// Fallible form of [`Scheduler::new`].
    pub fn try_new(threads: usize) -> Result<Arc<Scheduler>, SchedError> {
        if threads == 0 {
            return Err(SchedError::ZeroThreads);
        }
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            deques: (0..workers).map(|_| Deque::new(DEQUE_CAPACITY)).collect(),
            injector: Mutex::new(VecDeque::new()),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("scd-sched-{i}"))
                    .spawn(move || worker_main(shared, i))
                    .expect("spawn scheduler worker")
            })
            .collect();
        Ok(Arc::new(Scheduler {
            shared,
            threads,
            handles: Mutex::new(handles),
            group_pool: Mutex::new(Vec::with_capacity(threads + 1)),
        }))
    }

    /// Configured width: the maximum number of threads that will execute
    /// tasks for any one submission.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Highest number of threads observed executing tasks simultaneously
    /// since the last [`Self::reset_peak`]. Blocked waiters of nested
    /// groups stay counted (they occupy a stack, just not a core), so
    /// this is a conservative ceiling on host-thread usage.
    pub fn peak_parallelism(&self) -> usize {
        self.shared.peak.load(SeqCst)
    }

    pub fn reset_peak(&self) {
        self.shared
            .peak
            .store(self.shared.active.load(SeqCst), SeqCst);
    }

    /// This thread's worker index, when it is a pool worker of *this*
    /// scheduler (tokens then go to its own deque instead of the injector).
    fn worker_index(&self) -> Option<usize> {
        WORKER.with(|w| match w.get() {
            Some((addr, i)) if addr == self.shared.addr() => Some(i),
            _ => None,
        })
    }

    /// Run `f(i)` for every `i in 0..n`, using up to `threads()` threads
    /// (including the calling thread). Blocks until all indices finish;
    /// panics if any index panicked. Safe to call from inside a task on
    /// the same pool (see the module-level nesting rule).
    pub fn parallel_for(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.parallel_for_limited(n, self.threads, f);
    }

    /// [`Self::parallel_for`] with parallelism additionally capped at
    /// `cap` — how a gpu-sim launch honours `host_threads` on a wider
    /// shared pool.
    pub fn parallel_for_limited(&self, n: usize, cap: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        let width = self.threads.min(cap.max(1)).min(n);
        if width == 1 {
            // Inline fast path: no group allocation, panics propagate
            // directly. Peak accounting still applies.
            // Safety: `run_index` is never called, so the erased borrow in
            // a would-be group doesn't exist; we just loop.
            let guard = ActiveGuard::enter(&self.shared);
            for i in 0..n {
                f(i);
            }
            drop(guard);
            return;
        }
        // Safety: we block in `wait` below until every index completes,
        // so the erased borrow of `f` outlives all claims.
        let group = unsafe { self.acquire_group(f, n) };
        let me = self.worker_index();
        for _ in 0..width - 1 {
            let raw = Arc::into_raw(Arc::clone(&group)) as usize;
            self.shared.push_token(raw, me);
        }
        self.shared.drain(&group);
        group.wait();
        let poisoned = group.panicked();
        self.release_group(group, me);
        if poisoned {
            panic!("scd-sched: a task in a parallel group panicked");
        }
    }

    /// A group for `f` over `0..n`: a recycled pool entry when one is
    /// exclusively owned (re-armed in place, no heap traffic), a fresh
    /// allocation otherwise. The pool saturates at roughly `threads`
    /// entries — see the `group_pool` field docs.
    ///
    /// # Safety
    /// Same contract as [`GroupCore::indexed`]: the caller must block
    /// until every index completes before `f`'s storage goes away.
    unsafe fn acquire_group(&self, f: &(dyn Fn(usize) + Sync), n: usize) -> Arc<GroupCore> {
        // A released entry can transiently stay pinned: a stealer that
        // popped (and no-op-claimed) a token of the *previous* submission
        // may not have dropped its reference yet. That window is a few
        // instructions wide, so when the pool has entries but none is
        // free, yield briefly and rescan before giving up and allocating.
        for attempt in 0..3 {
            let mut pool = self.group_pool.lock().unwrap();
            for idx in 0..pool.len() {
                if Arc::get_mut(&mut pool[idx]).is_some() {
                    let mut group = pool.swap_remove(idx);
                    // The get_mut above proved exclusive ownership: no token
                    // of a previous incarnation survives anywhere, so the
                    // in-place reset cannot race a claim.
                    Arc::get_mut(&mut group)
                        .expect("still exclusively owned")
                        .reset_indexed(f, n);
                    return group;
                }
            }
            let empty = pool.is_empty();
            drop(pool);
            if empty {
                break;
            }
            if attempt + 1 < 3 {
                std::thread::yield_now();
            }
        }
        Arc::new(GroupCore::indexed(f, n))
    }

    /// Return a finished group to the pool. Its unpopped tokens are
    /// pulled back out of the queues first (they only pin the refcount;
    /// their claims would no-op anyway), so by the next acquire the
    /// entry is reusable unless an in-flight stealer still holds a
    /// popped token.
    fn release_group(&self, group: Arc<GroupCore>, me: Option<usize>) {
        let ptr = Arc::as_ptr(&group) as usize;
        match me {
            Some(i) => {
                // Our tokens went to our own deque bottom; anything above
                // them (nested groups') was reclaimed by the nested call,
                // so pop while the bottom entry is ours. A foreign entry
                // ends the sweep and goes straight back.
                while let Some(raw) = self.shared.deques[i].pop() {
                    if raw == ptr {
                        // Safety: the token carries one strong reference.
                        unsafe { drop(Arc::from_raw(raw as *const GroupCore)) };
                    } else {
                        if let Err(back) = self.shared.deques[i].push(raw) {
                            self.shared.injector.lock().unwrap().push_back(back);
                        }
                        break;
                    }
                }
            }
            None => {
                // External submitters push every token to the injector.
                self.shared.injector.lock().unwrap().retain(|&raw| {
                    if raw == ptr {
                        // Safety: as above — drop the queued reference.
                        unsafe { drop(Arc::from_raw(raw as *const GroupCore)) };
                        false
                    } else {
                        true
                    }
                });
            }
        }
        let mut pool = self.group_pool.lock().unwrap();
        if pool.len() < pool.capacity() {
            pool.push(group);
        }
    }

    /// Bucketed variant of [`Self::parallel_for_limited`]: the index
    /// space `0..n` is carved into contiguous chunks of `chunk` elements
    /// (the last may be short) and each *chunk* is one claimable task.
    /// Claim traffic — and therefore contention on the group cursor —
    /// drops by a factor of `chunk`, and consecutive elements stay on one
    /// thread, which is what a cache-line-sized coordinate bucket wants.
    ///
    /// `f` receives the half-open element range of its chunk. Chunks are
    /// claimed in order but may run concurrently; per-element work must
    /// be independent across chunks (or deterministic by construction,
    /// like the SySCD merge where each element folds worker replicas in
    /// a fixed order).
    pub fn parallel_for_chunked(
        &self,
        n: usize,
        chunk: usize,
        cap: usize,
        f: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) {
        assert!(chunk >= 1, "chunk size must be >= 1");
        let chunks = n.div_ceil(chunk);
        self.parallel_for_limited(chunks, cap, &|ci| {
            let start = ci * chunk;
            f(start..(start + chunk).min(n));
        });
    }

    /// Scoped task group: spawn heterogeneous closures that may borrow
    /// from the enclosing stack; all of them are joined before `scope`
    /// returns (mirroring `std::thread::scope`, but onto pool threads —
    /// no per-call spawn/join). Panics from tasks are re-raised here.
    ///
    /// Spawning is the scope owner's privilege: tasks must not spawn onto
    /// their parent scope. Nested parallelism inside a task uses a fresh
    /// `parallel_for`/`scope` call, which the pool handles per the
    /// nesting rule.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope TaskScope<'scope, 'env>) -> R,
    {
        let task_scope = TaskScope {
            sched: self,
            group: Arc::new(GroupCore::queued()),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&task_scope)));
        // Join before propagating anything: spawned tasks borrow the
        // caller's stack and must not outlive this frame even on panic.
        self.shared.drain(&task_scope.group);
        task_scope.group.wait();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if task_scope.group.panicked() {
                    panic!("scd-sched: a scoped task panicked");
                }
                value
            }
        }
    }
}

/// RAII active/peak accounting for the inline `width == 1` path (drop on
/// unwind keeps the counters sane when the body panics).
struct ActiveGuard<'a> {
    shared: &'a Shared,
    first: bool,
}

impl<'a> ActiveGuard<'a> {
    fn enter(shared: &'a Shared) -> Self {
        let first = ENTERED.with(|e| {
            let mut stack = e.borrow_mut();
            let first = !stack.contains(&shared.addr());
            stack.push(shared.addr());
            first
        });
        if first {
            let now = shared.active.fetch_add(1, SeqCst) + 1;
            shared.peak.fetch_max(now, SeqCst);
        }
        ActiveGuard { shared, first }
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        ENTERED.with(|e| {
            e.borrow_mut().pop();
        });
        if self.first {
            self.shared.active.fetch_sub(1, SeqCst);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        {
            let _guard = self.shared.sleep.lock().unwrap();
            self.shared.wake.notify_all();
        }
        for handle in self.handles.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // Release tokens of long-completed groups still sitting in queues.
        while let Some(raw) = self.shared.injector.lock().unwrap().pop_front() {
            unsafe { drop(Arc::from_raw(raw as *const GroupCore)) };
        }
        for d in &self.shared.deques {
            while let Some(raw) = d.pop() {
                unsafe { drop(Arc::from_raw(raw as *const GroupCore)) };
            }
        }
    }
}

/// Handle for spawning borrowed tasks inside [`Scheduler::scope`].
pub struct TaskScope<'scope, 'env: 'scope> {
    sched: &'scope Scheduler,
    group: Arc<GroupCore>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> TaskScope<'scope, 'env> {
    /// Queue `f` onto the pool. It may borrow anything that outlives the
    /// scope and is guaranteed to finish before `scope` returns.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // Safety: the scope joins (drain + wait) before returning, so the
        // erased borrows outlive every execution.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        self.group.push_task(task);
        if self.sched.threads > 1 {
            let raw = Arc::into_raw(Arc::clone(&self.group)) as usize;
            self.sched
                .shared
                .push_token(raw, self.sched.worker_index());
        }
    }
}

static GLOBAL: OnceLock<Arc<Scheduler>> = OnceLock::new();

/// Width the process-wide pool gets when nobody calls [`configure_global`]
/// first: the host's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide shared scheduler, built on first use with
/// [`default_threads`]. Everything that parallelises host work — gpu-sim
/// launches, distributed rounds, CPU baselines, bulk copies — goes
/// through this handle unless a component was given an explicit pool.
pub fn global() -> Arc<Scheduler> {
    Arc::clone(GLOBAL.get_or_init(|| Scheduler::new(default_threads())))
}

/// Size the process-wide pool explicitly (the CLI's `--host-threads`).
/// Must run before anything touches [`global`]; succeeds idempotently if
/// the pool already has exactly the requested width.
pub fn configure_global(threads: usize) -> Result<Arc<Scheduler>, SchedError> {
    if threads == 0 {
        return Err(SchedError::ZeroThreads);
    }
    let mut created = false;
    let sched = GLOBAL.get_or_init(|| {
        created = true;
        Scheduler::new(threads)
    });
    if !created && sched.threads() != threads {
        return Err(SchedError::GlobalAlreadyConfigured {
            current: sched.threads(),
            requested: threads,
        });
    }
    Ok(Arc::clone(sched))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_index_runs_exactly_once() {
        for threads in [1, 2, 4] {
            let sched = Scheduler::new(threads);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            sched.parallel_for(hits.len(), &|i| {
                hits[i].fetch_add(1, SeqCst);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(SeqCst), 1, "index {i} at {threads} threads");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_many_groups() {
        let sched = Scheduler::new(3);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            sched.parallel_for(round + 1, &|i| {
                sum.fetch_add(i + 1, SeqCst);
            });
            let n = round + 1;
            assert_eq!(sum.load(SeqCst), n * (n + 1) / 2);
        }
    }

    #[test]
    fn cap_limits_claimed_parallelism_not_coverage() {
        let sched = Scheduler::new(4);
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        sched.parallel_for_limited(hits.len(), 2, &|i| {
            hits[i].fetch_add(1, SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(SeqCst) == 1));
    }

    #[test]
    fn nested_parallel_for_completes_within_pool_width() {
        let sched = Scheduler::new(3);
        sched.reset_peak();
        let total = AtomicUsize::new(0);
        sched.parallel_for(4, &|_outer| {
            sched.parallel_for(8, &|_inner| {
                total.fetch_add(1, SeqCst);
            });
        });
        assert_eq!(total.load(SeqCst), 32);
        assert!(
            sched.peak_parallelism() <= 3,
            "peak {} exceeded pool width",
            sched.peak_parallelism()
        );
    }

    #[test]
    fn recycled_groups_preserve_correctness_under_nesting() {
        // Hundreds of launches re-arm the same few pooled GroupCores;
        // every index must still run exactly once, nested included.
        let sched = Scheduler::new(4);
        for _ in 0..200 {
            let total = AtomicUsize::new(0);
            sched.parallel_for(6, &|_outer| {
                sched.parallel_for(5, &|i| {
                    total.fetch_add(i, SeqCst);
                });
            });
            assert_eq!(total.load(SeqCst), 6 * 10);
        }
    }

    #[test]
    fn panic_in_task_propagates_and_pool_survives() {
        let sched = Scheduler::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            sched.parallel_for(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still works after a poisoned group.
        let count = AtomicUsize::new(0);
        sched.parallel_for(10, &|_| {
            count.fetch_add(1, SeqCst);
        });
        assert_eq!(count.load(SeqCst), 10);
    }

    #[test]
    fn scope_joins_all_spawned_tasks() {
        let sched = Scheduler::new(3);
        let mut out = [0u32; 16];
        sched.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || {
                    *slot = i as u32 + 1;
                });
            }
        });
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }

    #[test]
    fn scoped_tasks_run_concurrently() {
        // Each task waits for the other to start: a scope that ran its
        // tasks one at a time would time out here instead.
        let sched = Scheduler::new(2);
        let started = AtomicUsize::new(0);
        let met = AtomicUsize::new(0);
        sched.scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    started.fetch_add(1, SeqCst);
                    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                    while started.load(SeqCst) < 2 && std::time::Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    if started.load(SeqCst) == 2 {
                        met.fetch_add(1, SeqCst);
                    }
                });
            }
        });
        assert_eq!(met.load(SeqCst), 2, "scoped tasks never overlapped");
    }

    #[test]
    fn scope_panic_in_task_propagates_after_join() {
        let sched = Scheduler::new(2);
        let done = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            sched.scope(|s| {
                s.spawn(|| panic!("scoped boom"));
                s.spawn(|| {
                    done.fetch_add(1, SeqCst);
                });
            });
        }));
        assert!(result.is_err());
        assert_eq!(done.load(SeqCst), 1, "surviving task still joined");
    }

    #[test]
    fn width_one_runs_strictly_in_order() {
        let sched = Scheduler::new(1);
        let order = Mutex::new(Vec::new());
        sched.parallel_for(10, &|i| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn try_new_rejects_zero_threads() {
        assert_eq!(Scheduler::try_new(0).unwrap_err(), SchedError::ZeroThreads);
    }

    #[test]
    fn configure_global_zero_is_an_error() {
        assert_eq!(configure_global(0).unwrap_err(), SchedError::ZeroThreads);
    }

    #[test]
    fn external_submitters_peak_counts_caller() {
        let sched = Scheduler::new(1);
        sched.reset_peak();
        sched.parallel_for(4, &|_| {});
        assert_eq!(sched.peak_parallelism(), 1);
    }
}
