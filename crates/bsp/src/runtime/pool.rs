//! Persistent work-stealing worker pool shared by the superstep executor
//! and the prediction service.
//!
//! An OS thread spawn per parallel superstep *phase* or per service *batch*
//! dominates the work itself on small PREDIcT sample graphs — the PR 3
//! benches measured a sequential run at 10.4 ms against a spawn-per-phase
//! "parallel" run at 16.0 ms. The [`WorkerPool`] keeps a fixed set of
//! long-lived threads instead; a warm pool schedules a whole request batch,
//! supersteps and all, with **zero** thread spawns (asserted by
//! counter-based tests, since wall-clock is meaningless on a 1-core CI
//! container).
//!
//! # Design
//!
//! - **Per-worker injector deques.** Each worker slot owns a
//!   `Mutex<VecDeque<Task>>`. Producers inject round-robin across the live
//!   slots; a worker pops its own deque from the front and steals from other
//!   deques at the back, so batches fan out even when one deque backs up.
//! - **Epoch-style scope latches.** [`WorkerPool::run_scoped`] groups tasks
//!   under a [`ScopeState`] latch (a pending-count plus a first-panic slot).
//!   The call returns only after the latch reaches zero, which is what makes
//!   the lifetime-erasing `transmute` below sound: borrowed closures never
//!   outlive the call that submitted them.
//! - **Caller participation.** The submitting thread does not park-and-wait:
//!   it drains tasks (its own scope's or any other in-flight scope's) until
//!   its latch opens. Nested scopes — a service request task that itself runs
//!   pooled superstep phases — therefore cannot deadlock even on a pool with
//!   a single live worker, because every waiter is also an executor.
//! - **Lazy spawning, counted.** Threads spawn on first demand up to the slot
//!   count, never per task. Every spawn increments the per-pool counter
//!   ([`WorkerPool::threads_spawned`]), so a test can assert a warm path
//!   spawned nothing.
//! - **Panic isolation.** Each task runs under `catch_unwind`; the first
//!   payload is stashed in the scope latch and re-thrown to the *submitting*
//!   thread after the scope completes, mirroring `std::thread::scope`
//!   semantics without poisoning the pool. Pool-internal locks recover from
//!   poison (`unwrap_or_else(|e| e.into_inner())`) so a panicked task cannot
//!   wedge later scopes.
//!
//! Determinism is unaffected: the pool only changes *which OS thread* runs a
//! chunk closure, never how work is partitioned or merged. Chunk boundaries
//! are still derived from the resolved thread count, each chunk writes
//! disjoint state, and the executor's master thread still merges in
//! ascending worker order (see the determinism contract in
//! [`crate::runtime`]).

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Default number of worker slots (upper bound on pool threads). Generous
/// relative to `BspConfig::paper_cluster()`'s 29 workers; empty slots cost
/// one idle mutex-wrapped deque each.
pub const DEFAULT_POOL_CAPACITY: usize = 32;

/// Sleeping workers re-check for work at least this often, as a lost-wakeup
/// belt-and-braces; correctness never depends on the timeout firing.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// Acquires a mutex, recovering the guard if a previous holder panicked.
/// Pool state is kept consistent by atomics, not by guard scopes, so a
/// poisoned lock carries no torn invariants worth propagating.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

type TaskFn = Box<dyn FnOnce() + Send + 'static>;

/// One unit of scheduled work plus the scope latch it reports to.
struct Task {
    run: TaskFn,
    scope: Arc<ScopeState>,
}

/// Completion latch for one `run_scoped` call.
struct ScopeState {
    /// Tasks submitted and not yet finished; the scope is open while > 0.
    pending: AtomicUsize,
    /// First panic payload raised by any task in this scope; re-thrown on
    /// the submitting thread once the scope closes.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn new(tasks: usize) -> Arc<Self> {
        Arc::new(Self {
            pending: AtomicUsize::new(tasks),
            panic: Mutex::new(None),
        })
    }

    fn done(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

/// State shared between the pool handle and its worker threads.
struct PoolState {
    /// Fixed worker slots; `live` of them have a running thread.
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Monitor for parking idle workers and scope waiters. Pushers notify
    /// while holding it, waiters re-check their predicate under it, so
    /// wakeups cannot be lost.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Number of spawned worker threads (prefix of `deques`).
    live: AtomicUsize,
    /// Round-robin injection cursor.
    next_inject: AtomicUsize,
    /// Threads this pool has spawned over its lifetime.
    spawned: AtomicU64,
}

impl PoolState {
    fn inject(&self, task: Task) {
        let live = self
            .live
            .load(Ordering::Acquire)
            .clamp(1, self.deques.len());
        let slot = self.next_inject.fetch_add(1, Ordering::Relaxed) % live;
        lock(&self.deques[slot]).push_back(task);
        self.notify();
    }

    /// Wakes parked workers/waiters. Taking the monitor first pairs with the
    /// waiters' re-check-then-wait under the same lock.
    fn notify(&self) {
        let _monitor = lock(&self.idle);
        self.wake.notify_all();
    }

    /// Pops local work first (FIFO from `me`), then steals (LIFO from the
    /// others). `me` is `None` for scope waiters, which only steal.
    fn try_pop(&self, me: Option<usize>) -> Option<Task> {
        if let Some(i) = me {
            if let Some(task) = lock(&self.deques[i]).pop_front() {
                return Some(task);
            }
        }
        let n = self.deques.len();
        let start = me.map_or(0, |i| i + 1);
        for k in 0..n {
            let j = (start + k) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(task) = lock(&self.deques[j]).pop_back() {
                return Some(task);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.deques.iter().any(|d| !lock(d).is_empty())
    }

    /// Runs one task, catching its panic into the scope latch, then closes
    /// its slot in the latch (notifying if that completed the scope).
    fn run_task(&self, task: Task) {
        // The counter handle is cached process-wide: this is the pool's
        // hottest path and must not take the registry lock per task.
        static TASKS: std::sync::OnceLock<std::sync::Arc<predict_obs::metrics::Counter>> =
            std::sync::OnceLock::new();
        TASKS
            .get_or_init(|| predict_obs::registry().counter("pool.tasks"))
            .incr();
        let _task_span = predict_obs::trace::span("pool.task");
        let Task { run, scope } = task;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
            let mut slot = lock(&scope.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        if scope.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.notify();
        }
    }

    /// Executes tasks until `scope` completes. Run by the submitting thread,
    /// which makes nested scopes deadlock-free: a waiter is also a worker.
    fn help_until(&self, scope: &ScopeState) {
        loop {
            if scope.done() {
                return;
            }
            if let Some(task) = self.try_pop(None) {
                self.run_task(task);
                continue;
            }
            let monitor = lock(&self.idle);
            if scope.done() || self.has_work() {
                continue;
            }
            let _ = self.wake.wait_timeout(monitor, PARK_TIMEOUT);
        }
    }
}

fn worker_loop(state: Arc<PoolState>, me: usize) {
    loop {
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        if let Some(task) = state.try_pop(Some(me)) {
            state.run_task(task);
            continue;
        }
        let monitor = lock(&state.idle);
        if state.shutdown.load(Ordering::Acquire) {
            return;
        }
        if state.has_work() {
            continue;
        }
        let _ = state.wake.wait_timeout(monitor, PARK_TIMEOUT);
    }
}

/// A persistent pool of worker threads with per-worker injector deques,
/// work stealing, and scoped task latches. See the module docs for the
/// full design rationale.
pub struct WorkerPool {
    state: Arc<PoolState>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    capacity: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("capacity", &self.capacity)
            .field("live", &self.live_threads())
            .field("spawned", &self.threads_spawned())
            .finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new(DEFAULT_POOL_CAPACITY)
    }
}

impl WorkerPool {
    /// Creates an empty pool with `capacity` worker slots. No threads are
    /// spawned until the first scope that wants parallelism.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, 256);
        let state = Arc::new(PoolState {
            deques: (0..capacity).map(|_| Mutex::new(VecDeque::new())).collect(),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            next_inject: AtomicUsize::new(0),
            spawned: AtomicU64::new(0),
        });
        Self {
            state,
            handles: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// Worker slots (upper bound on pool threads).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently running worker threads.
    pub fn live_threads(&self) -> usize {
        self.state.live.load(Ordering::Acquire)
    }

    /// OS threads this pool has spawned over its lifetime. Flat across warm
    /// scopes — the basis of the zero-spawn warm-batch assertion.
    pub fn threads_spawned(&self) -> u64 {
        self.state.spawned.load(Ordering::SeqCst)
    }

    /// Spawns workers until `target` are live (capped at capacity). A failed
    /// spawn degrades gracefully: the submitting thread still executes every
    /// task itself via [`PoolState::help_until`].
    fn ensure_workers(&self, target: usize) {
        let target = target.min(self.capacity);
        if self.state.live.load(Ordering::Acquire) >= target {
            return;
        }
        let mut handles = lock(&self.handles);
        while self.state.live.load(Ordering::Acquire) < target {
            let me = self.state.live.load(Ordering::Acquire);
            let state = Arc::clone(&self.state);
            let spawned = std::thread::Builder::new()
                .name(format!("predict-pool-{me}"))
                .spawn(move || worker_loop(state, me));
            match spawned {
                Ok(handle) => {
                    self.state.spawned.fetch_add(1, Ordering::SeqCst);
                    handles.push(handle);
                    self.state.live.fetch_add(1, Ordering::Release);
                }
                Err(_) => break,
            }
        }
    }

    /// Runs `tasks` to completion with up to `threads`-way parallelism and
    /// returns once all have finished. With `threads <= 1` or a single task,
    /// everything runs inline on the caller — no pool interaction, no
    /// spawns, identical to the sequential paths elsewhere in the runtime.
    ///
    /// The first panicking task's payload is re-thrown here after the whole
    /// scope completes; the pool itself survives.
    pub fn run_scoped<'scope>(
        &self,
        threads: usize,
        tasks: Vec<Box<dyn FnOnce() + Send + 'scope>>,
    ) {
        if tasks.len() <= 1 || threads <= 1 {
            for task in tasks {
                task();
            }
            return;
        }
        // The caller participates, so `threads - 1` pool workers suffice.
        self.ensure_workers(threads - 1);
        let scope = ScopeState::new(tasks.len());
        for task in tasks {
            // SAFETY: `help_until` below blocks until `scope.pending` hits
            // zero, i.e. until every task has run (or panicked) — tasks
            // cannot outlive `'scope`, so erasing the lifetime to `'static`
            // for storage in the deques is sound. Same argument as
            // `std::thread::scope`, with the latch standing in for join.
            let run: TaskFn =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, TaskFn>(task) };
            self.state.inject(Task {
                run,
                scope: Arc::clone(&scope),
            });
        }
        self.state.help_until(&scope);
        let payload = lock(&scope.panic).take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // No scope can be in flight here (`run_scoped` borrows the pool),
        // so the deques are empty and workers exit at the shutdown check.
        self.state.shutdown.store(true, Ordering::Release);
        self.state.notify();
        let handles = std::mem::take(&mut *lock(&self.handles));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks = (0..64)
            .map(|_| {
                boxed(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        pool.run_scoped(4, tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn borrowed_results_are_visible_after_the_scope() {
        let pool = WorkerPool::new(4);
        let mut results = [0usize; 16];
        let tasks = results
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| boxed(move || *slot = i * i))
            .collect();
        pool.run_scoped(3, tasks);
        for (i, value) in results.iter().enumerate() {
            assert_eq!(*value, i * i);
        }
    }

    #[test]
    fn sequential_scopes_never_spawn() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks = (0..8)
            .map(|_| {
                boxed(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        pool.run_scoped(1, tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        assert_eq!(pool.threads_spawned(), 0);
        assert_eq!(pool.live_threads(), 0);
    }

    #[test]
    fn warm_scopes_spawn_zero_new_threads() {
        let pool = WorkerPool::new(4);
        let run_batch = || {
            let counter = AtomicUsize::new(0);
            let tasks = (0..32)
                .map(|_| {
                    boxed(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            pool.run_scoped(3, tasks);
            counter.load(Ordering::SeqCst)
        };
        assert_eq!(run_batch(), 32);
        let after_warmup = pool.threads_spawned();
        assert!(
            after_warmup <= 2,
            "caller participates, so at most threads-1 spawns"
        );
        for _ in 0..10 {
            assert_eq!(run_batch(), 32);
        }
        assert_eq!(
            pool.threads_spawned(),
            after_warmup,
            "warm scopes must not spawn"
        );
    }

    #[test]
    fn nested_scopes_complete_even_with_one_worker() {
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        let pool_ref = &pool;
        let counter_ref = &counter;
        let outer = (0..4)
            .map(|_| {
                boxed(move || {
                    let inner = (0..4)
                        .map(|_| {
                            boxed(move || {
                                counter_ref.fetch_add(1, Ordering::SeqCst);
                            })
                        })
                        .collect();
                    pool_ref.run_scoped(2, inner);
                })
            })
            .collect();
        pool.run_scoped(2, outer);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            boxed(|| {}),
            boxed(|| panic!("task exploded")),
            boxed(|| {}),
        ];
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run_scoped(2, tasks)));
        let payload = caught.expect_err("the scope should re-throw the task panic");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("panic payload should be the original message");
        assert_eq!(message, "task exploded");

        // The pool keeps serving after the panic.
        let counter = AtomicUsize::new(0);
        let tasks = (0..8)
            .map(|_| {
                boxed(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        pool.run_scoped(2, tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn capacity_caps_spawned_threads() {
        let pool = WorkerPool::new(2);
        let tasks = (0..64).map(|_| boxed(|| {})).collect();
        pool.run_scoped(16, tasks);
        assert!(pool.live_threads() <= 2);
        assert!(pool.threads_spawned() <= 2);
    }
}
