//! The work-stealing thread pool and its deterministic batch APIs.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use turbo_robust::{HealthEvent, HealthStats};

/// Environment variable overriding the global pool's worker count.
pub const ENV_WORKERS: &str = "TURBO_RUNTIME_THREADS";

/// How long an idle worker sleeps before re-scanning the queues. Purely a
/// liveness backstop — submission notifies every counted sleeper under
/// the sleep lock, so no wakeup can be lost.
const IDLE_RESCAN: Duration = Duration::from_millis(20);

/// How long a helping submitter waits on its batch latch between attempts
/// to drain queued work.
const HELP_POLL: Duration = Duration::from_micros(200);

/// How long an idle executor spins before it parks. A condvar wake-up
/// costs ~16–18 µs on a 2-vCPU KVM guest (2 × 60 µs tasks took 79.5 µs
/// as a parked batch; 4 × 8 µs tasks took 35.7 µs, slower than their
/// 32 µs serial time), and a decode step submits one batch per layer, so
/// a window of a few wake-ups keeps executors hot between back-to-back
/// batches while an idle pool still parks.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Spin turns between clock reads; each read is followed by a
/// `yield_now`, so a spinner never starves a runnable thread on its core.
const SPIN_YIELD_EVERY: u32 = 32;

thread_local! {
    /// Pool tasks this thread is inside; a nested batch's helper makes
    /// it exceed 1. Only the outermost task counts the thread as active.
    static TASK_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Spins until `ready()` holds or [`SPIN_WINDOW`] has passed since
/// `since`; returns whether `ready()` held.
fn spin_until(since: Instant, ready: impl Fn() -> bool) -> bool {
    let mut turns = 0u32;
    loop {
        if ready() {
            return true;
        }
        turns += 1;
        if turns.is_multiple_of(SPIN_YIELD_EVERY) {
            if since.elapsed() >= SPIN_WINDOW {
                return false;
            }
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One schedulable task: a pointer to its batch plus the item index it
/// covers. The raw pointer is what lets persistent `'static` workers run
/// borrowed closures; see the safety argument on [`BatchCore`].
#[derive(Clone, Copy)]
struct Unit {
    batch: *const BatchCore,
    index: usize,
}

// SAFETY: a `Unit` is only ever dereferenced while its batch's submitter
// blocks inside `run_batch`, which keeps the `BatchCore` (and everything
// the erased closure borrows) alive until the completion latch drops.
unsafe impl Send for Unit {}

/// Shared state of one in-flight batch. Lives on the submitting thread's
/// stack for the whole execution:
///
/// * `run_batch` does not return until `remaining` has reached zero *and*
///   the `done` flag has been flipped under its mutex, so every queued
///   [`Unit`] pointing here is executed (and forgotten) strictly before
///   the core is dropped;
/// * the erased `run` closure therefore never outlives the borrows it
///   captures, even though the pointer type says `'static`-ish.
struct BatchCore {
    /// Lifetime-erased task body: invoked once per index in
    /// `0..task_count`. Erasure is sound because `run_batch` keeps the
    /// real closure alive until the latch drops.
    run: &'static (dyn Fn(usize) + Sync),
    /// Tasks not yet completed.
    remaining: AtomicUsize,
    /// Completion flag, flipped under the mutex so the submitter cannot
    /// miss the final notification.
    done: Mutex<bool>,
    /// Signalled when the last task completes.
    done_cv: Condvar,
    /// First panic payload observed in this batch, re-thrown by the
    /// submitter once the batch has fully drained.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl BatchCore {
    /// Marks one task complete; the last completion flips `done` under
    /// the mutex and wakes the submitter.
    fn complete_one(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let mut done = self.done.lock().expect("batch latch poisoned");
            *done = true;
            self.done_cv.notify_all();
        }
    }
}

/// State shared between the pool's workers and every submitting thread.
struct Shared {
    /// One FIFO task queue per executor; submissions round-robin across
    /// them and idle executors steal from their siblings. Spawned worker
    /// `i` owns queue `i`; the last queue is the submitters' home.
    queues: Vec<Mutex<VecDeque<Unit>>>,
    /// Units queued and not yet popped: what idle executors spin on and
    /// what a parking worker re-checks. Raised before a unit is pushed
    /// and lowered after it is popped, so it never reads below the queued
    /// count. The queue mutexes publish the units themselves.
    pending: AtomicUsize,
    /// Workers between their final `pending` re-check and waking up.
    /// `submit` skips the sleep lock and the notify syscall while this is
    /// zero; a fine-grained pipeline spawns tens of thousands of tasks per
    /// episode while its executors are hot.
    sleepers: AtomicUsize,
    /// Sleep coordination: a worker counts itself in `sleepers` and
    /// re-checks `pending` while holding this lock before sleeping;
    /// submitters notify while holding it.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Round-robin cursor for spreading submissions across queues.
    next_queue: AtomicUsize,
    /// Event tallies mirrored into the robustness registry.
    health: Arc<HealthStats>,
    // Instrumentation gauges.
    tasks_run: AtomicU64,
    tasks_stolen: AtomicU64,
    helper_tasks: AtomicU64,
    total_task_ns: AtomicU64,
    max_queue_depth: AtomicUsize,
    active_workers: AtomicUsize,
    max_active_workers: AtomicUsize,
}

impl Shared {
    fn new(workers: usize, health: Arc<HealthStats>) -> Self {
        Self {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_queue: AtomicUsize::new(0),
            health,
            tasks_run: AtomicU64::new(0),
            tasks_stolen: AtomicU64::new(0),
            helper_tasks: AtomicU64::new(0),
            total_task_ns: AtomicU64::new(0),
            max_queue_depth: AtomicUsize::new(0),
            active_workers: AtomicUsize::new(0),
            max_active_workers: AtomicUsize::new(0),
        }
    }

    /// Pops a task for `home` (its own queue first, then stealing).
    /// Returns the unit and whether it was stolen.
    fn grab(&self, home: usize) -> Option<(Unit, bool)> {
        let n = self.queues.len();
        for off in 0..n {
            let q = (home + off) % n;
            if let Some(u) = self.queues[q].lock().expect("queue poisoned").pop_front() {
                self.pending.fetch_sub(1, Ordering::Relaxed);
                return Some((u, off != 0));
            }
        }
        None
    }

    /// Queues `units` round-robin from the cursor's next queue and wakes
    /// sleeping workers. The mapping of unit -> queue affects only
    /// scheduling, never results.
    fn submit(&self, units: impl ExactSizeIterator<Item = Unit>) {
        let n = self.queues.len();
        let start = self.next_queue.fetch_add(1, Ordering::Relaxed);
        // `SeqCst` here and on the `sleepers` load below pairs with a
        // parking worker's `sleepers` increment and `pending` re-check:
        // either the worker sees this work and stays up, or the load sees
        // the worker and notifies.
        self.pending.fetch_add(units.len(), Ordering::SeqCst);
        for (offset, unit) in units.enumerate() {
            let depth = {
                let mut queue = self.queues[(start + offset) % n]
                    .lock()
                    .expect("queue poisoned");
                queue.push_back(unit);
                queue.len()
            };
            Self::bump_max(&self.max_queue_depth, depth);
        }
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // A counted worker holds the sleep lock until it waits, so a
            // notify under the lock cannot fall before its wait.
            let _guard = self.sleep.lock().expect("sleep lock poisoned");
            self.wake.notify_all();
        }
    }

    fn bump_max(cell: &AtomicUsize, value: usize) {
        let mut cur = cell.load(Ordering::Relaxed);
        while value > cur {
            match cell.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Runs one unit, recording wall time and health events. `stolen`
    /// counts a steal; `helper` marks execution by a submitting thread
    /// rather than a pool worker. Both kinds count as active executors.
    fn execute(&self, unit: Unit, stolen: bool, helper: bool) {
        // SAFETY: the unit was queued by `run_batch`, whose submitter is
        // still blocked on the batch latch, so the core and everything
        // its closure borrows are alive.
        let core = unsafe { &*unit.batch };
        let depth = TASK_DEPTH.get();
        TASK_DEPTH.set(depth + 1);
        if depth == 0 {
            let active = self.active_workers.fetch_add(1, Ordering::Relaxed) + 1;
            Self::bump_max(&self.max_active_workers, active);
        }
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| (core.run)(unit.index)));
        let ns = t.elapsed().as_nanos() as u64;
        if depth == 0 {
            self.active_workers.fetch_sub(1, Ordering::Relaxed);
        }
        TASK_DEPTH.set(depth);
        self.total_task_ns.fetch_add(ns, Ordering::Relaxed);
        self.tasks_run.fetch_add(1, Ordering::Relaxed);
        self.health.record(HealthEvent::RuntimeTaskRun);
        if stolen {
            self.tasks_stolen.fetch_add(1, Ordering::Relaxed);
            self.health.record(HealthEvent::RuntimeTaskStolen);
        }
        if helper {
            self.helper_tasks.fetch_add(1, Ordering::Relaxed);
        }
        if let Err(payload) = result {
            let mut slot = core.panic.lock().expect("panic slot poisoned");
            slot.get_or_insert(payload);
        }
        core.complete_one();
    }

    /// Persistent worker loop.
    fn worker_loop(&self, id: usize) {
        let mut idle_since = None;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some((unit, stolen)) = self.grab(id) {
                self.execute(unit, stolen, false);
                idle_since = None;
                continue;
            }
            // Nothing anywhere: spin a short window for the next batch,
            // which is far cheaper to catch hot than to be woken for.
            let since = *idle_since.get_or_insert_with(Instant::now);
            if spin_until(since, || {
                self.pending.load(Ordering::Relaxed) > 0 || self.shutdown.load(Ordering::Relaxed)
            }) {
                continue;
            }
            // Still nothing: sleep until a submitter notifies. Counting
            // this worker in `sleepers` before re-checking `pending` closes
            // the race with a submitter that pushed after our scan.
            let guard = self.sleep.lock().expect("sleep lock poisoned");
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if !self.shutdown.load(Ordering::SeqCst) && self.pending.load(Ordering::SeqCst) == 0 {
                let _ = self
                    .wake
                    .wait_timeout(guard, IDLE_RESCAN)
                    .expect("sleep lock poisoned");
            }
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            idle_since = None;
        }
    }
}

/// A persistent work-stealing thread pool with deterministic batch APIs.
///
/// A pool of `n` executors is `n − 1` spawned threads plus whichever
/// thread submits: a submitter drains queued work until its batch
/// completes, so it is an executor, not a bystander. Idle executors spin
/// for a short window (`SPIN_WINDOW`) before they park.
///
/// Most code should use the process-wide [`global`] pool; tests construct
/// private pools via [`Runtime::with_workers`] to pin behavior at fixed
/// worker counts.
pub struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl Runtime {
    /// Builds a pool of `workers` executors (clamped to at least 1): the
    /// submitting thread plus `workers − 1` persistent threads, spawned
    /// eagerly and recorded in the health registry. `with_workers(1)`
    /// spawns nothing and runs every task on its submitter.
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let health = Arc::new(HealthStats::new());
        let shared = Arc::new(Shared::new(workers, health));
        let handles = (0..workers - 1)
            .map(|id| {
                let s = Arc::clone(&shared);
                s.health.record(HealthEvent::RuntimeWorkerSpawned);
                std::thread::Builder::new()
                    .name(format!("turbo-runtime-{id}"))
                    .spawn(move || s.worker_loop(id))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            shared,
            handles,
            workers,
        }
    }

    /// Number of executors: the spawned threads plus the submitting
    /// thread.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The health registry the pool records
    /// spawn/task/steal events into.
    pub fn health(&self) -> &HealthStats {
        &self.shared.health
    }

    /// Point-in-time instrumentation snapshot.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let s = &self.shared;
        RuntimeSnapshot {
            workers: self.workers,
            tasks_run: s.tasks_run.load(Ordering::Relaxed),
            tasks_stolen: s.tasks_stolen.load(Ordering::Relaxed),
            helper_tasks: s.helper_tasks.load(Ordering::Relaxed),
            total_task_ns: s.total_task_ns.load(Ordering::Relaxed),
            max_queue_depth: s.max_queue_depth.load(Ordering::Relaxed),
            max_active_workers: s.max_active_workers.load(Ordering::Relaxed),
        }
    }

    /// Core erased executor: queues `tasks` indexed units running `run`,
    /// helps drain queues while waiting, and re-throws the first task
    /// panic once the batch has fully completed.
    fn run_batch(&self, tasks: usize, run: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        // SAFETY: lifetime erasure only. This frame blocks on the batch
        // latch below until every queued unit has executed, so the erased
        // reference never outlives the closure (or anything it borrows).
        let run_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(run)
        };
        let core = BatchCore {
            run: run_static,
            remaining: AtomicUsize::new(tasks),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        };

        self.shared.submit((0..tasks).map(|index| Unit {
            batch: &core as *const _,
            index,
        }));
        self.help_until_done(&core);

        let payload = core.panic.lock().expect("panic slot poisoned").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Helps drain queued units (this batch's or any other's) until
    /// `core`'s completion latch drops.
    fn help_until_done(&self, core: &BatchCore) {
        let s = &*self.shared;
        // Submitters pop first from the queue no spawned worker owns.
        let home = s.queues.len() - 1;
        let mut idle_since = None;
        loop {
            if let Some((unit, _stolen)) = s.grab(home) {
                s.execute(unit, false, true);
                idle_since = None;
                continue;
            }
            // Other executors hold the rest: spin a short window for the
            // last completion (or new work) before sleeping on the latch.
            let since = *idle_since.get_or_insert_with(Instant::now);
            if spin_until(since, || {
                core.remaining.load(Ordering::Acquire) == 0 || s.pending.load(Ordering::Relaxed) > 0
            }) && core.remaining.load(Ordering::Acquire) != 0
            {
                continue;
            }
            // `remaining` reading zero is not enough to return: the last
            // completer still touches this stack-held latch until it has
            // flipped `done` under the mutex.
            let guard = core.done.lock().expect("batch latch poisoned");
            if *guard {
                break;
            }
            let (guard, _) = core
                .done_cv
                .wait_timeout(guard, HELP_POLL)
                .expect("batch latch poisoned");
            if *guard {
                break;
            }
        }
    }

    /// Structured dynamic-task scope, the pool's analog of
    /// [`std::thread::scope`]: tasks are spawned one at a time (including
    /// from inside other tasks) rather than as a fixed-size batch, and all
    /// of them are guaranteed to have finished when `scope` returns.
    ///
    /// Spawned closures may borrow anything that outlives the `scope` call
    /// (`'env`), including the [`Scope`] handle itself for nested spawns.
    /// The submitting thread helps drain queues while it waits, so scopes
    /// complete even on a single-worker pool.
    ///
    /// # Panics
    ///
    /// A panic in the body is re-thrown after every spawned task has
    /// drained; otherwise the first task panic is re-thrown.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let tasks: Mutex<VecDeque<ScopeTask>> = Mutex::new(VecDeque::new());
        // Each queued unit runs exactly one spawned task. `spawn` pushes
        // the boxed task strictly before its unit, so the pop cannot miss.
        let run = |_index: usize| {
            let task = tasks
                .lock()
                .expect("scope task queue poisoned")
                .pop_front()
                .expect("scope unit queued without a task");
            task();
        };
        // SAFETY: lifetime erasure only, same argument as `run_batch`:
        // this frame blocks on the latch below until every queued unit has
        // executed, so the erased reference never outlives `run` (or the
        // `tasks` deque it borrows).
        let run_static: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&run)
        };
        // The latch starts at 1: an "owner" token held by this frame while
        // the body runs, so in-flight spawns can never drop it to zero
        // before the body has finished spawning.
        let core = BatchCore {
            run: run_static,
            remaining: AtomicUsize::new(1),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        };
        let scope = Scope {
            rt: self,
            core: &core,
            tasks: &tasks,
            scope_marker: PhantomData,
            env_marker: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Release the owner token (even if the body panicked — already-
        // spawned tasks still run to completion) and drain.
        core.complete_one();
        self.help_until_done(&core);

        let task_panic = core.panic.lock().expect("panic slot poisoned").take();
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(r) => {
                if let Some(payload) = task_panic {
                    resume_unwind(payload);
                }
                r
            }
        }
    }

    /// Deterministic indexed map: computes `f(0..n)` on the pool and
    /// returns results in index order. Output is bit-identical to the
    /// serial `(0..n).map(f).collect()` for any worker count, because
    /// each index is computed independently by the same pure function and
    /// merged in index order.
    ///
    /// # Panics
    ///
    /// Re-throws the first panic raised by any task, after the whole
    /// batch has drained.
    pub fn par_map_indexed<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // A one-task batch gains nothing from the pool; inline
            // execution is bit-identical by construction.
            return vec![f(0)];
        }
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let run = |i: usize| {
            let r = f(i);
            *slots[i].lock().expect("result slot poisoned") = Some(r);
        };
        self.run_batch(n, &run);
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("task completed without writing its result")
            })
            .collect()
    }

    /// Deterministic map over a slice; results are in item order.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_indexed(items.len(), |i| f(&items[i]))
    }

    /// Deterministic map with exclusive mutable access to each item;
    /// results are in item order.
    pub fn par_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(&mut T) -> R + Sync,
    {
        let base = SendPtr(items.as_mut_ptr());
        let n = items.len();
        self.par_map_indexed(n, move |i| {
            // SAFETY: `par_map_indexed` invokes each index exactly once
            // and `i < n = items.len()`, so every task gets exclusive
            // access to a distinct element while the slice borrow is held
            // by this frame.
            let item = unsafe { &mut *base.at(i) };
            f(item)
        })
    }

    /// Deterministic chunked map: partitions `0..n` into tiles of
    /// `tile_size` (the last may be ragged), computes `f` per tile on the
    /// pool, and returns per-tile results in tile order. The partition
    /// depends only on `(n, tile_size)` — never on the worker count — so
    /// any cross-tile merge the caller performs sees tiles in the same
    /// order a serial sweep would produce.
    ///
    /// # Panics
    ///
    /// Panics if `tile_size == 0`.
    pub fn par_tiles<R, F>(&self, n: usize, tile_size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        assert!(tile_size > 0, "tile size must be positive");
        let tiles = n.div_ceil(tile_size);
        self.par_map_indexed(tiles, |t| {
            let lo = t * tile_size;
            let hi = (lo + tile_size).min(n);
            f(lo..hi)
        })
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep.lock().expect("sleep lock poisoned");
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

/// A boxed dynamically-spawned task. Stored lifetime-erased; soundness is
/// the scope latch (see [`Runtime::scope`]).
type ScopeTask = Box<dyn FnOnce() + Send + 'static>;

/// Handle for spawning tasks inside a [`Runtime::scope`] call.
///
/// Mirrors [`std::thread::Scope`]: `'scope` is the lifetime of the scope
/// itself (everything spawned joins before it ends), `'env` the lifetime
/// of borrows from outside it. Both are invariant. Tasks capture the
/// handle by reference to spawn nested tasks.
pub struct Scope<'scope, 'env: 'scope> {
    rt: &'scope Runtime,
    core: &'scope BatchCore,
    tasks: &'scope Mutex<VecDeque<ScopeTask>>,
    /// Invariance over `'scope`, exactly as in `std::thread::Scope`.
    scope_marker: PhantomData<&'scope mut &'scope ()>,
    /// Invariance over `'env`.
    env_marker: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns one task onto the pool. The task may borrow from `'env` and
    /// may itself spawn further tasks through a captured `&Scope`.
    ///
    /// Unlike the batch APIs there is no result plumbing: tasks
    /// communicate through whatever `'env` state they were given. Panics
    /// are collected and re-thrown by the owning `scope` call.
    pub fn spawn<F>(&'scope self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        let boxed: Box<dyn FnOnce() + Send + 'scope> = Box::new(f);
        // SAFETY: lifetime erasure only. The owning `scope` frame cannot
        // return before this task has executed: the latch token added
        // below is only released by `execute` after the task body runs.
        let boxed: ScopeTask = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, ScopeTask>(boxed)
        };
        // Order matters: add the latch token first (so the latch can never
        // transiently read zero while this task is queued), then stage the
        // body, then publish the unit that will pop it.
        self.core.remaining.fetch_add(1, Ordering::AcqRel);
        self.tasks
            .lock()
            .expect("scope task queue poisoned")
            .push_back(boxed);
        self.rt.shared.submit(std::iter::once(Unit {
            batch: self.core as *const _,
            index: 0,
        }));
    }
}

/// Raw-pointer wrapper that is `Send`/`Sync` so disjoint-index tasks can
/// reach their slice element.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Pointer to element `i`. A method (rather than field access) so
    /// closures capture the whole `Sync` wrapper under edition-2021
    /// precise-capture rules.
    fn at(self, i: usize) -> *mut T {
        self.0.wrapping_add(i)
    }
}

// SAFETY: access discipline (one index per task) is enforced by
// `par_map_mut`; the pointer itself carries no aliasing.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Instrumentation snapshot of a [`Runtime`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RuntimeSnapshot {
    /// Configured executor count: spawned threads plus the submitter.
    pub workers: usize,
    /// Tasks executed to completion (by workers and helpers).
    pub tasks_run: u64,
    /// Tasks a worker took from a sibling's queue.
    pub tasks_stolen: u64,
    /// Tasks executed by submitting threads while waiting on a latch.
    pub helper_tasks: u64,
    /// Total wall time spent inside task bodies, in nanoseconds.
    pub total_task_ns: u64,
    /// Deepest any single queue has been.
    pub max_queue_depth: usize,
    /// Most threads ever simultaneously inside a task body, helping
    /// submitters included (a thread counts once, however deeply its
    /// tasks nest) — the oversubscription regression gauge.
    pub max_active_workers: usize,
}

/// Parses a worker-count override; falls back to `fallback` when the
/// value is missing, unparsable, or zero. Split out of [`global`] so the
/// policy is unit-testable without touching process environment.
pub fn worker_count_from(env_value: Option<&str>, fallback: usize) -> usize {
    env_value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(fallback)
        .max(1)
}

static GLOBAL: OnceLock<Runtime> = OnceLock::new();

/// The process-wide execution runtime, initialized on first use with
/// `available_parallelism` executors (or the `TURBO_RUNTIME_THREADS`
/// override), the calling thread counted among them.
pub fn global() -> &'static Runtime {
    GLOBAL.get_or_init(|| {
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = worker_count_from(
            std::env::var(ENV_WORKERS).ok().as_deref(),
            fallback,
        );
        Runtime::with_workers(workers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_at_every_worker_count() {
        let items: Vec<f32> = (0..257).map(|i| i as f32 * 0.37 - 40.0).collect();
        let serial: Vec<f32> = items.iter().map(|x| (x * 1.7).sin() + x).collect();
        for workers in [1usize, 2, 3, 8] {
            let rt = Runtime::with_workers(workers);
            let pooled = rt.par_map(&items, |x| (x * 1.7).sin() + x);
            assert_eq!(pooled, serial, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_indexed_preserves_order() {
        let rt = Runtime::with_workers(4);
        let out = rt.par_map_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_mut_gives_each_task_its_own_element() {
        let rt = Runtime::with_workers(4);
        let mut items: Vec<u64> = (0..64).collect();
        let prior = rt.par_map_mut(&mut items, |x| {
            let before = *x;
            *x += 1000;
            before
        });
        assert_eq!(prior, (0..64).collect::<Vec<u64>>());
        assert_eq!(items, (1000..1064).collect::<Vec<u64>>());
    }

    #[test]
    fn par_tiles_partition_is_independent_of_workers() {
        let expected = vec![0..30, 30..60, 60..90, 90..100];
        for workers in [1usize, 2, 5] {
            let rt = Runtime::with_workers(workers);
            let ranges = rt.par_tiles(100, 30, |r| r);
            assert_eq!(ranges, expected, "workers = {workers}");
        }
    }

    #[test]
    fn nested_batches_do_not_deadlock_on_one_worker() {
        let rt = Runtime::with_workers(1);
        let out = rt.par_map_indexed(4, |outer| {
            let inner = rt.par_map_indexed(4, move |i| outer * 10 + i);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4)
            .map(|o| (0..4).map(|i| o * 10 + i).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn pool_never_exceeds_configured_worker_count() {
        let cap = 2;
        let rt = Runtime::with_workers(cap);
        // Many more tasks than workers, several times over: the old
        // thread-per-head code would have spawned 64 threads per call.
        for _ in 0..4 {
            let out = rt.par_map_indexed(64, |i| {
                std::thread::sleep(Duration::from_micros(200));
                i
            });
            assert_eq!(out.len(), 64);
        }
        let snap = rt.snapshot();
        // The submitter is the cap's last executor, so one fewer thread
        // is spawned.
        assert_eq!(
            rt.health().count(HealthEvent::RuntimeWorkerSpawned),
            cap as u64 - 1,
            "workers are spawned once, not per call"
        );
        assert!(
            snap.max_active_workers <= cap,
            "{} pool workers ran concurrently under a cap of {cap}",
            snap.max_active_workers
        );
        assert_eq!(snap.tasks_run, 4 * 64);
        assert_eq!(
            rt.health().count(HealthEvent::RuntimeTaskRun),
            snap.tasks_run
        );
    }

    #[test]
    fn batches_complete_across_parks_from_two_submitters() {
        // Short batches keep executors spinning; the sleeps between some
        // of them outlast the spin window, so workers really park and the
        // next batch must wake them or be drained by its submitter. Every
        // batch must still complete and equal the serial map.
        let serial: Vec<u64> = (0..24u64).map(|i| i * i + 3).collect();
        for workers in [1usize, 2, 8] {
            let rt = Runtime::with_workers(workers);
            std::thread::scope(|s| {
                for submitter in 0..2u64 {
                    let (rt, serial) = (&rt, &serial);
                    s.spawn(move || {
                        for round in 0..120u64 {
                            if round % 12 == submitter * 6 {
                                std::thread::sleep(SPIN_WINDOW * 4);
                            }
                            let out = rt.par_map_indexed(24, |i| i as u64 * i as u64 + 3);
                            assert_eq!(&out, serial, "workers = {workers}, round {round}");
                        }
                    });
                }
            });
            assert_eq!(rt.snapshot().tasks_run, 2 * 120 * 24, "workers = {workers}");
        }
    }

    #[test]
    fn caller_only_pool_spawns_no_thread_and_still_completes() {
        let rt = Runtime::with_workers(1);
        let caller = std::thread::current().id();
        let on_caller = || assert_eq!(std::thread::current().id(), caller);
        // A nested batch inside a task.
        let out = rt.par_map_indexed(3, |outer| {
            on_caller();
            rt.par_map_indexed(3, |i| {
                on_caller();
                outer * 3 + i
            })
        });
        assert_eq!(out, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]);
        // A scope whose tasks spawn more tasks.
        let hits = AtomicUsize::new(0);
        rt.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    on_caller();
                    hits.fetch_add(1, Ordering::Relaxed);
                    s.spawn(|| {
                        on_caller();
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
        // A layer pipeline: a two-layer chain feeding one commit.
        let order = Mutex::new(Vec::new());
        let mut p = crate::LayerPipeline::new();
        let push = |tag: &'static str| {
            let order = &order;
            move || {
                on_caller();
                order.lock().unwrap().push(tag);
            }
        };
        let a = p.task(crate::WorkClass::PrefillChunk, 0, &[], push("a"));
        let b = p.task(crate::WorkClass::PrefillChunk, 1, &[a], push("b"));
        p.task(crate::WorkClass::WalCommit, 0, &[a, b], push("c"));
        assert_eq!(p.run_on(&rt).tasks, 3);
        assert_eq!(order.into_inner().unwrap(), vec!["a", "b", "c"]);
        assert_eq!(rt.health().count(HealthEvent::RuntimeWorkerSpawned), 0);
        assert_eq!(rt.snapshot().max_active_workers, 1);
    }

    #[test]
    fn instrumentation_records_time_and_depth() {
        let rt = Runtime::with_workers(2);
        rt.par_map_indexed(32, |_| std::thread::sleep(Duration::from_micros(100)));
        let snap = rt.snapshot();
        assert!(snap.total_task_ns > 0);
        assert!(snap.max_queue_depth > 0);
        assert_eq!(snap.tasks_run, 32);
    }

    #[test]
    fn empty_and_singleton_batches() {
        let rt = Runtime::with_workers(2);
        let none: Vec<u32> = rt.par_map_indexed(0, |_| unreachable!());
        assert!(none.is_empty());
        assert_eq!(rt.par_map_indexed(1, |i| i + 7), vec![7]);
    }

    #[test]
    #[should_panic(expected = "task 3 exploded")]
    fn task_panic_propagates_to_submitter() {
        let rt = Runtime::with_workers(2);
        rt.par_map_indexed(8, |i| {
            if i == 3 {
                panic!("task 3 exploded");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        let rt = Runtime::with_workers(2);
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.par_map_indexed(8, |i| {
                if i == 0 {
                    panic!("boom");
                }
                i
            })
        }));
        assert!(poisoned.is_err());
        // The pool still works afterwards.
        assert_eq!(rt.par_map_indexed(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn worker_count_policy() {
        assert_eq!(worker_count_from(None, 8), 8);
        assert_eq!(worker_count_from(Some("3"), 8), 3);
        assert_eq!(worker_count_from(Some(" 5 "), 8), 5);
        assert_eq!(worker_count_from(Some("0"), 8), 8);
        assert_eq!(worker_count_from(Some("lots"), 8), 8);
        assert_eq!(worker_count_from(None, 0), 1);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const Runtime;
        let b = global() as *const Runtime;
        assert_eq!(a, b);
        assert!(global().workers() >= 1);
        assert_eq!(global().par_map(&[1, 2, 3], |x| x * x), vec![1, 4, 9]);
    }

    #[test]
    fn dropping_a_runtime_joins_its_workers() {
        let rt = Runtime::with_workers(3);
        rt.par_map_indexed(16, |i| i);
        drop(rt); // must not hang
    }

    #[test]
    fn scope_joins_all_tasks_at_every_worker_count() {
        for workers in [1usize, 2, 8] {
            let rt = Runtime::with_workers(workers);
            let slots: Vec<Mutex<Option<u64>>> = (0..64).map(|_| Mutex::new(None)).collect();
            rt.scope(|s| {
                for i in 0..64u64 {
                    let slot = &slots[i as usize];
                    s.spawn(move || {
                        *slot.lock().unwrap() = Some(i * i);
                    });
                }
            });
            let out: Vec<u64> = slots
                .iter()
                .map(|m| m.lock().unwrap().expect("task did not run"))
                .collect();
            assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>(), "workers = {workers}");
        }
    }

    #[test]
    fn scope_tasks_can_spawn_nested_tasks() {
        for workers in [1usize, 2, 8] {
            let rt = Runtime::with_workers(workers);
            let hits = AtomicUsize::new(0);
            rt.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        hits.fetch_add(1, Ordering::Relaxed);
                        for _ in 0..4 {
                            s.spawn(|| {
                                hits.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                }
            });
            assert_eq!(hits.load(Ordering::Relaxed), 8 + 8 * 4, "workers = {workers}");
        }
    }

    #[test]
    fn scope_with_no_spawns_returns_body_value() {
        let rt = Runtime::with_workers(2);
        assert_eq!(rt.scope(|_| 41 + 1), 42);
    }

    #[test]
    #[should_panic(expected = "scoped task exploded")]
    fn scope_task_panic_propagates_after_drain() {
        let rt = Runtime::with_workers(2);
        let ran = AtomicUsize::new(0);
        rt.scope(|s| {
            s.spawn(|| panic!("scoped task exploded"));
            for _ in 0..16 {
                s.spawn(|| {
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }

    #[test]
    fn scope_survives_body_panic_and_still_runs_spawned_tasks() {
        let rt = Runtime::with_workers(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let out = std::panic::catch_unwind(AssertUnwindSafe(|| {
            rt.scope(|s| {
                let ran = &ran2;
                for _ in 0..8 {
                    s.spawn(move || {
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                panic!("scope body exploded");
            })
        }));
        assert!(out.is_err());
        // Every task spawned before the panic still ran to completion.
        assert_eq!(ran.load(Ordering::Relaxed), 8);
        // And the pool is healthy afterwards.
        assert_eq!(rt.par_map_indexed(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn scope_runs_inside_par_map_tasks() {
        // Heterogeneous nesting: scopes inside batch tasks must not
        // deadlock even with one worker, because waiters help-drain.
        let rt = Runtime::with_workers(1);
        let out = rt.par_map_indexed(4, |outer| {
            let total = AtomicUsize::new(0);
            rt.scope(|s| {
                for i in 0..4 {
                    let total = &total;
                    s.spawn(move || {
                        total.fetch_add(outer * 10 + i, Ordering::Relaxed);
                    });
                }
            });
            total.load(Ordering::Relaxed)
        });
        let expect: Vec<usize> = (0..4).map(|o| (0..4).map(|i| o * 10 + i).sum()).collect();
        assert_eq!(out, expect);
    }
}
