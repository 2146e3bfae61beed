//! One work-stealing executor over `std::thread::scope`: a shared
//! [`TaskDeque`] drained by [`run_workers`].
//!
//! Every run is scheduling-deterministic in the sense the workspace
//! requires (results are pure functions of the inputs, never of thread
//! interleaving). The deque carries two kinds of task set:
//!
//! * a **fixed** grid — [`run_jobs`] seeds the deque with the job
//!   indices `0..n_jobs` and every job writes only its own result slot,
//!   so the collected output is identical for every worker count and
//!   every interleaving. Nothing is ever pushed, so a worker that finds
//!   the queue empty returns at once. This is the campaign executor
//!   (under `snsp_sweep::run_grid`) and the sharded replay's batch
//!   executor;
//! * a **growing** set whose extent is unknown up front
//!   (branch-and-bound subtree splitting) — workers pop open tasks from
//!   the shared LIFO deque, may push newly split tasks while running,
//!   and [`TaskDeque::pop`] returns `None` only when every task — queued
//!   *or* in flight — has completed, so late splits can never be
//!   dropped.
//!
//! The module lives in `snsp-core` (pure `std` + the dependency-free
//! telemetry leaf crate) so that both the campaign layer above
//! (`snsp-sweep`) and the exact solver below it (`snsp-solver`, a
//! *dependency* of `snsp-sweep`) can share one executor implementation.
//!
//! Every run surfaces a [`PoolStats`] snapshot (steals, donations, peak
//! queue depth) independent of whether telemetry collection is on:
//! [`run_jobs_checked`] returns one alongside the results, and
//! [`TaskDeque::stats`] reads one off the live deque. When telemetry
//! *is* enabled the same events also feed the overlay-class
//! `pool.steals` / `pool.donations` counters, the
//! `pool.peak_queue_depth` gauge and the `pool.worker.busy` /
//! `pool.worker.idle` spans — all scheduling-dependent, so none of them
//! ever enters stable-form artifacts.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use snsp_telemetry::{Class, Counter, Gauge, Span as TraceSpan, SpanGuard};

static POOL_STEALS: Counter = Counter::new("pool.steals", Class::Overlay);
static POOL_DONATIONS: Counter = Counter::new("pool.donations", Class::Overlay);
static POOL_PANICS: Counter = Counter::new("pool.panics", Class::Overlay);
static POOL_PEAK_QUEUE: Gauge = Gauge::new("pool.peak_queue_depth", Class::Overlay);
static POOL_BUSY: TraceSpan = TraceSpan::new("pool.worker.busy");
static POOL_IDLE: TraceSpan = TraceSpan::new("pool.worker.idle");

/// Scheduling diagnostics from one executor run: how much work moved
/// between workers. Available even when telemetry collection is off —
/// the counts ride dedicated atomics, not the global registry. A fixed
/// grid's values are fixed by its size: on more than one worker every
/// job is a steal (the spawned workers claim each one from the seeding
/// thread), and its peak queue is its job count. A growing set's values
/// are scheduling-dependent (never part of any deterministic contract);
/// tests assert only their *possibility* there (a multi-worker run
/// always steals at least once, because the seed task is pushed by the
/// coordinating thread and popped by a worker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks claimed by a thread other than the one that enqueued them.
    pub steals: u64,
    /// Tasks pushed into the deque while workers were already running
    /// ([`TaskDeque::push`] counts; a fixed grid never donates).
    pub donations: u64,
    /// Largest observed queue depth (a fixed grid's is its job count).
    pub peak_queue: usize,
    /// Jobs or tasks whose body unwound. Panics are contained with
    /// `catch_unwind` so the executor always drains instead of
    /// deadlocking on its pending counter; the count lets callers decide
    /// whether the run's output is trustworthy ([`run_jobs`] re-raises,
    /// [`run_jobs_checked`] and [`TaskDeque::drain`] report).
    pub panics: u64,
}

/// Records a work-steal trace event (overlay class — which worker
/// steals is scheduling-dependent). The worker token doubles as the
/// logical shard lane so steals group per thread in timeline exports.
fn record_steal() {
    let worker = thread_token() as u64;
    snsp_telemetry::trace::record(
        Class::Overlay,
        0,
        snsp_telemetry::trace::LogicalTime {
            tick: 0,
            shard: worker as u32,
            seq: 0,
        },
        snsp_telemetry::trace::TraceEventKind::Steal { worker },
    );
}

/// Process-unique token of the calling thread (1-based; assigned on
/// first use). `ThreadId` would do, but its integer form is unstable.
fn thread_token() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    thread_local! {
        static TOKEN: Cell<usize> = const { Cell::new(0) };
    }
    TOKEN.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// Runs `job(i)` for every `i in 0..n_jobs` on `workers` threads and
/// returns the results in index order.
///
/// `workers` is clamped to `[1, n_jobs]`; with one worker the jobs run on
/// the calling thread in index order, giving a true serial baseline. If
/// any job panics the pool still drains every other job (the unwind is
/// contained per job), then re-raises with the panic count — callers
/// that want to keep the surviving results use [`run_jobs_checked`].
pub fn run_jobs<T, F>(n_jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (slots, stats) = run_jobs_checked(n_jobs, workers, job);
    if stats.panics > 0 {
        panic!("{} pool job(s) panicked", stats.panics);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every job index was claimed exactly once"))
        .collect()
}

/// Panic-containing form of [`run_jobs`] that also returns the deque's
/// [`PoolStats`]. The job indices seed a fixed [`TaskDeque`] (reversed,
/// so the LIFO pop hands out index 0 first) that the workers
/// [`drain`](TaskDeque::drain): a job that unwinds yields `None` in its
/// result slot (and bumps [`PoolStats::panics`]), and every *other* job
/// still runs to completion — a poisoned job can never deadlock or
/// starve the pool. Results are positional, so `out[i]` is `Some` iff
/// `job(i)` returned normally.
pub fn run_jobs_checked<T, F>(n_jobs: usize, workers: usize, job: F) -> (Vec<Option<T>>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let deque = TaskDeque::fixed((0..n_jobs).rev().collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    run_workers(workers.clamp(1, n_jobs.max(1)), |_| {
        deque.drain(|i| {
            let _busy = POOL_BUSY.start();
            let out = job(i);
            *slots[i].lock().expect("a slot is locked only to store") = Some(out);
        });
    });
    let out = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("a slot is locked only to store"))
        .collect();
    (out, deque.stats())
}

/// A shared LIFO deque of tasks: a fixed seed set ([`run_jobs`]) or one
/// that grows as tasks split.
///
/// Built for tree searches that split subtrees on demand: a worker pops
/// an open task, expands it, and may [`push`](Self::push) any number of
/// new tasks before declaring the popped one [`complete`](Self::complete).
/// [`pop`](Self::pop) distinguishes "momentarily empty" (other workers
/// still hold in-flight tasks that may split) from "drained" (nothing
/// queued, nothing in flight) and only returns `None` in the latter
/// case, so the standard worker loop is race-free:
///
/// ```
/// use snsp_core::pool::TaskDeque;
///
/// // Count the nodes of a virtual binary tree of depth 4 by splitting.
/// let deque = TaskDeque::new(vec![0u32]);
/// let visited = std::sync::atomic::AtomicUsize::new(0);
/// snsp_core::pool::run_workers(3, |_worker| {
///     while let Some(depth) = deque.pop() {
///         visited.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
///         if depth < 4 {
///             deque.push(depth + 1); // left subtree
///             deque.push(depth + 1); // right subtree
///         }
///         deque.complete();
///     }
/// });
/// assert_eq!(visited.into_inner(), 31); // 2^5 - 1 nodes, each exactly once
/// ```
///
/// LIFO order keeps the frontier depth-first per worker (bounded memory,
/// cache-warm subtrees); which worker pops which task is scheduling-
/// dependent, so callers needing deterministic *results* must make every
/// task's outcome independent of pop order — the discipline
/// `snsp_solver::bb`'s parallel search follows (monotone shared
/// incumbent; final optimum independent of visit order).
pub struct TaskDeque<T> {
    /// Each entry carries the [`thread_token`] of the thread that
    /// enqueued it, so a pop by a different thread counts as a steal.
    queue: Mutex<Vec<(usize, T)>>,
    /// Tasks queued plus tasks popped-but-not-completed; `0` ⇒ drained.
    pending: AtomicUsize,
    /// Mirror of `queue.len()`, readable without the lock (split
    /// heuristics only — always a hint, never load-bearing).
    queued: AtomicUsize,
    /// Pops whose entry was enqueued by a different thread.
    steals: AtomicU64,
    /// [`push`](Self::push) calls (splits donated while running).
    donations: AtomicU64,
    /// Largest queue length ever observed under the lock.
    peak_queue: AtomicUsize,
    /// Tasks whose body unwound inside [`drain`](Self::drain).
    panics: AtomicU64,
    /// Whether tasks may be pushed: `false` for a fixed grid, whose
    /// empty queue means no task is left to claim.
    growing: bool,
}

impl<T> TaskDeque<T> {
    /// A deque seeded with the initial task set (attributed to the
    /// calling thread — in a multi-worker run the first worker to claim
    /// a seed task therefore always registers a steal).
    pub fn new(initial: Vec<T>) -> Self {
        let n = initial.len();
        POOL_PEAK_QUEUE.record_max(n as u64);
        let token = thread_token();
        TaskDeque {
            queue: Mutex::new(initial.into_iter().map(|t| (token, t)).collect()),
            pending: AtomicUsize::new(n),
            queued: AtomicUsize::new(n),
            steals: AtomicU64::new(0),
            donations: AtomicU64::new(0),
            peak_queue: AtomicUsize::new(n),
            panics: AtomicU64::new(0),
            growing: true,
        }
    }

    /// A fixed grid's deque: never pushed to, so [`pop`](Self::pop)
    /// returns `None` as soon as the queue is empty instead of waiting
    /// for the tasks still in flight.
    fn fixed(jobs: Vec<T>) -> Self {
        TaskDeque {
            growing: false,
            ..Self::new(jobs)
        }
    }

    /// Enqueues a newly split task. May be called from inside a worker
    /// while it still holds its current task — the count of that current
    /// task keeps the deque alive until [`complete`](Self::complete).
    pub fn push(&self, task: T) {
        debug_assert!(self.growing, "a fixed grid never grows");
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.donations.fetch_add(1, Ordering::Relaxed);
        POOL_DONATIONS.incr();
        let mut queue = self.queue.lock().unwrap();
        queue.push((thread_token(), task));
        self.queued.store(queue.len(), Ordering::Relaxed);
        self.peak_queue.fetch_max(queue.len(), Ordering::Relaxed);
        POOL_PEAK_QUEUE.record_max(queue.len() as u64);
    }

    /// Pops the most recently pushed open task. An empty growing deque
    /// blocks (yielding) while other workers hold in-flight tasks that
    /// may still split, and returns `None` once everything has
    /// completed; an empty fixed grid returns `None` at once.
    pub fn pop(&self) -> Option<T> {
        let mut idle: Option<SpanGuard> = None;
        loop {
            {
                let mut queue = self.queue.lock().unwrap();
                if let Some((token, task)) = queue.pop() {
                    self.queued.store(queue.len(), Ordering::Relaxed);
                    if token != thread_token() {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        POOL_STEALS.incr();
                        record_steal();
                    }
                    return Some(task);
                }
            }
            if !self.growing || self.pending.load(Ordering::SeqCst) == 0 {
                return None;
            }
            if idle.is_none() {
                idle = Some(POOL_IDLE.start());
            }
            std::thread::yield_now();
        }
    }

    /// A [`PoolStats`] snapshot of the deque so far. Stable only once
    /// every worker has drained ([`pop`](Self::pop) returned `None`).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            steals: self.steals.load(Ordering::Relaxed),
            donations: self.donations.load(Ordering::Relaxed),
            peak_queue: self.peak_queue.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
        }
    }

    /// The panic-safe worker loop: pops every open task and runs `body`
    /// on it, containing unwinds so the popped task is *always* declared
    /// [`complete`](Self::complete) — a panicking task therefore counts
    /// into [`PoolStats::panics`] instead of wedging the pending counter
    /// and deadlocking every other worker's [`pop`](Self::pop). The body
    /// may still [`push`](Self::push) splits before it unwinds; those
    /// run normally on whichever worker claims them.
    pub fn drain(&self, mut body: impl FnMut(T)) {
        while let Some(task) = self.pop() {
            if catch_unwind(AssertUnwindSafe(|| body(task))).is_err() {
                self.panics.fetch_add(1, Ordering::Relaxed);
                POOL_PANICS.incr();
            }
            self.complete();
        }
    }

    /// Declares the most recently popped task finished. Every successful
    /// [`pop`](Self::pop) must be matched by exactly one `complete`
    /// *after* any child tasks were pushed, or `pop` never drains.
    pub fn complete(&self) {
        self.pending.fetch_sub(1, Ordering::SeqCst);
    }

    /// Current queue length (a racy hint for "are workers starving?"
    /// split heuristics; never use it for termination).
    pub fn queued(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }
}

/// Runs `body(worker_index)` on `workers` scoped threads and joins them
/// all; `workers <= 1` calls `body(0)` on the current thread (the serial
/// baseline — no threads spawned, deterministic stack traces).
pub fn run_workers<F>(workers: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if workers <= 1 {
        body(0);
        return;
    }
    std::thread::scope(|scope| {
        for w in 0..workers {
            let body = &body;
            scope.spawn(move || body(w));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run_exactly_once() {
        for workers in [1, 2, 3, 8, 64] {
            let calls = AtomicUsize::new(0);
            let out = run_jobs(37, workers, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                i * i
            });
            assert_eq!(calls.load(Ordering::Relaxed), 37);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let out: Vec<u32> = run_jobs(0, 4, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let out = run_jobs(3, 16, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn output_order_is_independent_of_worker_count() {
        let serial = run_jobs(101, 1, |i| i as u64 * 7919);
        for workers in [2, 5, 12] {
            assert_eq!(run_jobs(101, workers, |i| i as u64 * 7919), serial);
        }
    }

    #[test]
    fn uneven_job_durations_still_complete() {
        // Front-loaded long jobs force the later workers to steal.
        let out = run_jobs(24, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            i
        });
        assert_eq!(out, (0..24).collect::<Vec<_>>());
    }

    /// Expands a virtual k-ary tree through the deque and counts nodes:
    /// every node must be visited exactly once at every worker count.
    fn expand_tree(workers: usize, arity: usize, depth: u32) -> usize {
        let deque = TaskDeque::new(vec![0u32]);
        let visited = AtomicUsize::new(0);
        run_workers(workers, |_| {
            while let Some(d) = deque.pop() {
                visited.fetch_add(1, Ordering::Relaxed);
                if d < depth {
                    for _ in 0..arity {
                        deque.push(d + 1);
                    }
                }
                deque.complete();
            }
        });
        visited.into_inner()
    }

    #[test]
    fn task_deque_visits_every_split_task_once() {
        // 3-ary tree of depth 5: (3^6 - 1) / 2 = 364 nodes.
        let serial = expand_tree(1, 3, 5);
        assert_eq!(serial, 364);
        for workers in [2, 4, 7] {
            assert_eq!(expand_tree(workers, 3, 5), serial, "{workers} workers");
        }
    }

    #[test]
    fn task_deque_starving_workers_terminate() {
        // A single task that never splits: every worker but the one that
        // grabbed it spins on an empty deque and must still exit once
        // the owner completes.
        let deque = TaskDeque::new(vec![()]);
        let ran = AtomicUsize::new(0);
        run_workers(8, |_| {
            while let Some(()) = deque.pop() {
                std::thread::sleep(std::time::Duration::from_millis(5));
                ran.fetch_add(1, Ordering::Relaxed);
                deque.complete();
            }
        });
        assert_eq!(ran.into_inner(), 1);
    }

    #[test]
    fn task_deque_empty_initial_set_drains_immediately() {
        let deque: TaskDeque<u8> = TaskDeque::new(Vec::new());
        assert!(deque.pop().is_none());
        assert_eq!(deque.queued(), 0);
    }

    #[test]
    fn task_deque_pop_is_lifo() {
        let deque = TaskDeque::new(vec![1, 2, 3]);
        assert_eq!(deque.pop(), Some(3));
        deque.push(9);
        assert_eq!(deque.pop(), Some(9));
        assert_eq!(deque.queued(), 2);
    }

    #[test]
    fn one_worker_runs_the_jobs_in_order_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        let out = run_jobs(12, 1, |i| {
            seen.lock().unwrap().push((std::thread::current().id(), i));
            i
        });
        assert_eq!(out, (0..12).collect::<Vec<_>>());
        let expected: Vec<_> = (0..12).map(|i| (caller, i)).collect();
        assert_eq!(seen.into_inner().unwrap(), expected);
    }

    #[test]
    fn run_jobs_stats_are_surfaced_without_telemetry() {
        // Serial: every job is popped by the seeding thread.
        let (out, stats) = run_jobs_checked(9, 1, |i| i);
        assert_eq!(out, (0..9).map(Some).collect::<Vec<_>>());
        assert_eq!(
            stats,
            PoolStats {
                steals: 0,
                donations: 0,
                peak_queue: 9,
                panics: 0,
            }
        );
        // Spawned workers claim every job from the seeding thread, and
        // the whole grid is queued up front: whatever the job durations,
        // each value is fixed.
        let (_, stats) = run_jobs_checked(24, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            i
        });
        assert_eq!(
            stats,
            PoolStats {
                steals: 24,
                donations: 0,
                peak_queue: 24,
                panics: 0,
            }
        );
    }

    #[test]
    fn task_deque_counts_donations_and_seed_steals() {
        // Serial drain on the seeding thread: no steals, only donations.
        let deque = TaskDeque::new(vec![0u32]);
        while let Some(d) = deque.pop() {
            if d < 2 {
                deque.push(d + 1);
            }
            deque.complete();
        }
        let stats = deque.stats();
        assert_eq!(stats.steals, 0, "same-thread pops are not steals");
        assert_eq!(stats.donations, 2);
        assert!(stats.peak_queue >= 1);

        // Multi-worker: the seed task was pushed by this thread and is
        // popped by a spawned worker, so at least one steal is certain.
        let deque = TaskDeque::new(vec![0u32]);
        run_workers(4, |_| {
            while let Some(d) = deque.pop() {
                if d < 4 {
                    deque.push(d + 1);
                    deque.push(d + 1);
                }
                deque.complete();
            }
        });
        assert!(deque.stats().steals > 0, "cross-thread seed claim");
        assert_eq!(deque.stats().donations, 30);
    }

    #[test]
    fn run_jobs_checked_contains_panics_and_finishes_the_rest() {
        for workers in [1, 3, 8] {
            let calls = AtomicUsize::new(0);
            let (out, stats) = run_jobs_checked(25, workers, |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                if i % 5 == 0 {
                    panic!("job {i} poisoned");
                }
                i * 2
            });
            assert_eq!(calls.load(Ordering::Relaxed), 25, "{workers} workers");
            assert_eq!(stats.panics, 5, "{workers} workers");
            for (i, slot) in out.iter().enumerate() {
                if i % 5 == 0 {
                    assert_eq!(*slot, None, "poisoned job {i} must yield None");
                } else {
                    assert_eq!(*slot, Some(i * 2));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pool job(s) panicked")]
    fn run_jobs_stats_re_raises_after_draining() {
        let _ = run_jobs(8, 4, |i| {
            if i == 3 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn task_deque_drain_survives_panicking_tasks() {
        // The regression this guards: a task that unwinds between `pop`
        // and `complete` used to leave `pending` stuck above zero, so
        // every other worker spun in `pop` forever. `drain` must both
        // terminate and still run every non-poisoned task exactly once.
        for workers in [1, 2, 4, 8] {
            let deque = TaskDeque::new(vec![0u32]);
            let visited = AtomicUsize::new(0);
            run_workers(workers, |_| {
                deque.drain(|d| {
                    visited.fetch_add(1, Ordering::Relaxed);
                    if d < 4 {
                        deque.push(d + 1);
                        deque.push(d + 1);
                    }
                    if d == 2 {
                        panic!("poisoned subtree");
                    }
                });
            });
            // Full binary tree of depth 4 = 31 nodes; splits happen
            // before the panic, so every node is still visited.
            assert_eq!(visited.into_inner(), 31, "{workers} workers");
            assert_eq!(
                deque.stats().panics,
                4,
                "{workers} workers: 2^2 nodes at depth 2"
            );
        }
    }
}
