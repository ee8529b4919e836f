//! Deterministic data parallelism over a persistent worker pool.
//!
//! The build must work fully offline, so instead of `rayon` this module
//! provides the primitives the flow needs: band parallelism for the
//! compiled engines (bands of whole rows or whole tile rows,
//! [`for_each_task`]) and order-preserving [`par_map`] for the
//! design-space sweep. All of them produce results that are **bit-identical
//! for every thread count** — work is partitioned statically into contiguous
//! chunks and reassembled in order, so parallelism only changes wall-clock
//! time.
//!
//! ## The worker pool
//!
//! Earlier revisions spawned fresh OS threads through `std::thread::scope`
//! on every call, which cost ~50–100 µs per thread per step — enough to eat
//! the compiled engine's gains on small frames. All helpers now dispatch to
//! one process-wide [`WorkerPool`]: `available_parallelism() - 1` workers
//! are spawned lazily on first use and then *kept*, parked on a condition
//! variable between calls. A call enqueues its tasks, the caller itself
//! drains the queue alongside the workers, and a completion latch guarantees
//! every task has finished before the call returns — which is what makes it
//! sound to hand the workers closures that borrow stack data.
//!
//! Worker panics are caught, forwarded, and re-raised on the calling thread
//! once the batch has fully drained.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Worker threads implied by `requested`: `0` means one per available core,
/// anything else is taken literally.
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// A batch task: an index into the caller's task list plus the (lifetime-
/// erased) closure that executes it, and the latch that signals completion.
struct Job {
    run: &'static (dyn Fn(usize) + Sync),
    index: usize,
    latch: Arc<Latch>,
}

/// Completion latch of one [`WorkerPool::execute`] batch.
struct Latch {
    state: Mutex<LatchState>,
    all_done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(tasks: usize) -> Arc<Self> {
        Arc::new(Latch {
            state: Mutex::new(LatchState {
                remaining: tasks,
                panic: None,
            }),
            all_done: Condvar::new(),
        })
    }

    /// Record one completed task (with its panic payload, if any) and wake
    /// the waiting caller once the batch has drained. The caller may return
    /// — and deallocate the batch closure — the moment this signals, so
    /// callers of `complete` must not hold the erased closure reference in
    /// any live function argument (see [`run_job`]).
    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut state = self.state.lock().expect("latch lock");
        if let Some(payload) = panic {
            state.panic.get_or_insert(payload);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            self.all_done.notify_all();
        }
    }

    /// Block until every task of the batch has completed; re-raise the first
    /// recorded panic on the waiting (calling) thread.
    fn wait(&self) {
        let mut state = self.state.lock().expect("latch lock");
        while state.remaining > 0 {
            state = self.all_done.wait(state).expect("latch wait");
        }
        if let Some(payload) = state.panic.take() {
            drop(state);
            std::panic::resume_unwind(payload);
        }
    }
}

/// Execute one job and count it on its latch, catching panics so they
/// re-raise on the submitting thread instead of unwinding through the pool.
///
/// The erased closure reference is deliberately held only in a plain local
/// (moved out of `job`), never as an argument of the frame that signals the
/// latch: the submitting `execute` can return — freeing the closure — the
/// instant the final `complete` runs, and a reference held in a live
/// *argument* at that point would be a protected dangling borrow.
fn run_job(job: Job) {
    let Job { run, index, latch } = job;
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| run(index)));
    latch.complete(result.err());
}

/// Shared state between the pool handle and its workers.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
}

impl PoolShared {
    /// Pop-and-run loop body for batch submitters: take only jobs of the
    /// given batch, so a long-running job of a *concurrent* batch cannot
    /// couple into this caller's latency. Returns `false` when none of the
    /// batch's jobs are queued (they are running or done).
    fn run_one_of(&self, latch: &Arc<Latch>) -> bool {
        let job = {
            let mut queue = self.queue.lock().expect("pool queue");
            queue
                .iter()
                .position(|j| Arc::ptr_eq(&j.latch, latch))
                .and_then(|i| queue.remove(i))
        };
        match job {
            Some(job) => {
                run_job(job);
                true
            }
            None => false,
        }
    }
}

/// A persistent pool of worker threads (see the [module docs](self)).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
}

/// Erase the lifetime of a batch closure so it can sit in the pool's queue.
///
/// SAFETY: every [`Job`] holding the erased reference is consumed by exactly
/// one [`run_job`] call, which finishes calling the closure *before* it
/// counts the job on the latch, and [`WorkerPool::execute`] does not return
/// (or unwind) before [`Latch::wait`] has observed all of its jobs complete
/// — so the reference is never dereferenced, nor held in any live function
/// argument, after the borrow it was created from ends (see [`run_job`]).
#[allow(unsafe_code)]
fn erase(f: &(dyn Fn(usize) + Sync)) -> &'static (dyn Fn(usize) + Sync) {
    unsafe { std::mem::transmute(f) }
}

impl WorkerPool {
    /// Pool with `workers` background threads (0 is legal: every batch then
    /// runs entirely on the calling thread).
    fn with_workers(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("isl-sim-worker-{i}"))
                .spawn(move || {
                    let tasks_key = format!("pool.worker.{i}.tasks");
                    loop {
                        let park_us;
                        let job = {
                            let mut queue = shared.queue.lock().expect("pool queue");
                            let mut parked_at = None;
                            loop {
                                if let Some(job) = queue.pop_front() {
                                    park_us = parked_at
                                        .map(|t: std::time::Instant| t.elapsed().as_micros() as u64);
                                    break job;
                                }
                                if parked_at.is_none() && isl_telemetry::enabled() {
                                    parked_at = Some(std::time::Instant::now());
                                }
                                queue = shared.work_ready.wait(queue).expect("pool wait");
                            }
                        };
                        if let Some(us) = park_us {
                            isl_telemetry::sample("pool.park_us", us);
                        }
                        isl_telemetry::add(&tasks_key, 1);
                        run_job(job);
                    }
                })
                .expect("spawn pool worker");
        }
        WorkerPool { shared, workers }
    }

    /// The process-wide pool, spawned on first use with one worker per
    /// available core minus the caller.
    pub fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| WorkerPool::with_workers(effective_threads(0).saturating_sub(1)))
    }

    /// Number of background workers (the caller is an extra executor).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(0), f(1), …, f(tasks - 1)`, distributed over the pool workers
    /// and the calling thread, returning once **all** tasks have completed.
    /// Tasks may borrow from the caller's stack. Panics inside tasks are
    /// re-raised here after the batch has drained.
    ///
    /// Nested `execute` calls are legal and cannot deadlock: the enqueueing
    /// thread always drains the shared queue itself while it waits.
    pub fn execute(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.workers == 0 || tasks == 1 {
            // Serial fast path on the caller's own thread: the closure
            // cannot outlive this frame, so no latch (and no catch) needed.
            if isl_telemetry::enabled() {
                isl_telemetry::add("pool.batches", 1);
                isl_telemetry::add("pool.tasks", tasks as u64);
                isl_telemetry::add("pool.caller.tasks", tasks as u64);
            }
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let batch_start = isl_telemetry::enabled().then(std::time::Instant::now);
        let latch = Latch::new(tasks);
        let queue_depth = {
            let mut queue = self.shared.queue.lock().expect("pool queue");
            for index in 0..tasks {
                queue.push_back(Job {
                    run: erase(f),
                    index,
                    latch: Arc::clone(&latch),
                });
            }
            batch_start.map(|_| queue.len() as u64)
        };
        if let Some(depth) = queue_depth {
            isl_telemetry::sample("pool.queue_depth", depth);
        }
        // Wake only as many workers as there are jobs for — a full
        // notify_all would stampede every parked worker through the queue
        // mutex on each small step. A wakeup consumed by an already-busy
        // worker is not lost work: the caller's drain loop below completes
        // the batch regardless.
        for _ in 0..tasks.min(self.workers) {
            self.shared.work_ready.notify_one();
        }
        // Help out: the caller drains its *own* batch's jobs alongside the
        // workers (never foreign ones — adopting a long job of a concurrent
        // batch would couple its runtime into this caller's latency). This
        // also guarantees progress regardless of what the workers are busy
        // with, so nested `execute` calls cannot deadlock.
        let mut caller_tasks = 0u64;
        while self.shared.run_one_of(&latch) {
            caller_tasks += 1;
        }
        latch.wait();
        if let Some(t0) = batch_start {
            isl_telemetry::add("pool.batches", 1);
            isl_telemetry::add("pool.tasks", tasks as u64);
            isl_telemetry::add("pool.caller.tasks", caller_tasks);
            isl_telemetry::sample("pool.batch_us", t0.elapsed().as_micros() as u64);
        }
    }
}

/// Run `f` over `items` with up to `threads` concurrent workers. Items are
/// grouped into at most `threads` contiguous chunks; each chunk runs in
/// submission order on one executor, so with disjoint per-item effects the
/// outcome is schedule-independent.
pub fn for_each_task<T, F>(items: Vec<T>, threads: usize, f: F)
where
    T: Send,
    F: Fn(T) + Sync,
{
    let n = items.len();
    let t = effective_threads(threads).min(n).max(1);
    if t <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk = n.div_ceil(t);
    let chunks: Vec<Mutex<Vec<T>>> = {
        let mut chunks = Vec::with_capacity(t);
        let mut it = items.into_iter();
        loop {
            let c: Vec<T> = it.by_ref().take(chunk).collect();
            if c.is_empty() {
                break;
            }
            chunks.push(Mutex::new(c));
        }
        chunks
    };
    let task = |i: usize| {
        let chunk = std::mem::take(&mut *chunks[i].lock().expect("chunk taken once"));
        for item in chunk {
            f(item);
        }
    };
    WorkerPool::global().execute(chunks.len(), &task);
}

/// Map `f` over `items` on up to `threads` workers, preserving input order
/// exactly (contiguous chunks, reassembled in sequence).
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn par_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let t = effective_threads(threads).min(n).max(1);
    if t <= 1 {
        return items.into_iter().map(f).collect();
    }
    let chunk = n.div_ceil(t);
    let mut slots: Vec<Mutex<(Vec<T>, Vec<U>)>> = Vec::with_capacity(t);
    let mut it = items.into_iter();
    loop {
        let c: Vec<T> = it.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        slots.push(Mutex::new((c, Vec::new())));
    }
    let task = |i: usize| {
        let mut slot = slots[i].lock().expect("slot taken once");
        let inputs = std::mem::take(&mut slot.0);
        slot.1 = inputs.into_iter().map(&f).collect();
    };
    WorkerPool::global().execute(slots.len(), &task);
    slots
        .into_iter()
        .flat_map(|s| s.into_inner().expect("slot poisoned").1)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let serial = par_map(items.clone(), 1, |x| x * x);
        for t in [2, 3, 8, 64] {
            assert_eq!(par_map(items.clone(), t, |x| x * x), serial);
        }
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn pool_is_reused_across_calls() {
        let pool = WorkerPool::global();
        let before = pool.workers();
        for _ in 0..50 {
            let counter = std::sync::atomic::AtomicUsize::new(0);
            pool.execute(8, &|_| {
                counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 8);
        }
        assert_eq!(pool.workers(), before);
    }

    #[test]
    fn for_each_task_runs_every_item() {
        for threads in [1, 2, 5, 0] {
            let done: Vec<Mutex<bool>> = (0..17).map(|_| Mutex::new(false)).collect();
            let items: Vec<usize> = (0..17).collect();
            for_each_task(items, threads, |i| {
                *done[i].lock().expect("flag") = true;
            });
            assert!(done.iter().all(|d| *d.lock().expect("flag")));
        }
    }

    #[test]
    fn nested_execute_does_not_deadlock() {
        let pool = WorkerPool::global();
        let total = std::sync::atomic::AtomicUsize::new(0);
        pool.execute(4, &|_| {
            pool.execute(4, &|_| {
                total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 16);
    }

    #[test]
    fn worker_panics_propagate_after_drain() {
        let result = std::panic::catch_unwind(|| {
            par_map((0..64).collect::<Vec<u32>>(), 4, |x| {
                assert!(x != 13, "boom");
                x
            })
        });
        assert!(result.is_err());
        // The pool must stay usable afterwards.
        let ok = par_map(vec![1u32, 2, 3], 2, |x| x + 1);
        assert_eq!(ok, vec![2, 3, 4]);
    }
}
