//! The fixed-grid executor over `std::thread::scope`: [`run_jobs`] and
//! [`run_jobs_checked`] run `job(i)` for every index `0..n_jobs`.
//!
//! Workers claim the indices in order from one atomic counter, and every
//! job writes only its own result slot, so the collected output is a pure
//! function of the inputs — identical for every worker count and every
//! interleaving, as the workspace's determinism contract requires. A
//! worker that finds every index claimed returns at once. This is the
//! campaign executor (under `snsp_sweep::run_grid`) and the sharded
//! replay's batch executor.
//!
//! Every run surfaces a [`PoolStats`] snapshot (steals, peak queue depth,
//! contained panics) independent of whether telemetry collection is on.
//! When telemetry *is* enabled the same events also feed the
//! `pool.steals` and `pool.panics` counters, the `pool.peak_queue_depth`
//! gauge and the `pool.worker.busy` span — all overlay-class, so none of
//! them ever enters stable-form artifacts.
//!
//! ```
//! use snsp_core::pool::{run_jobs_checked, PoolStats};
//!
//! // Job 3 unwinds; every other job still runs into its own slot.
//! let (out, stats) = run_jobs_checked(5, 2, |i| {
//!     assert_ne!(i, 3, "job 3 fails");
//!     i * i
//! });
//! assert_eq!(out, [Some(0), Some(1), Some(4), None, Some(16)]);
//! let expected = PoolStats { steals: 5, peak_queue: 5, panics: 1 };
//! assert_eq!(stats, expected);
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use snsp_telemetry::{Class, Counter, Gauge, Span as TraceSpan};

static POOL_STEALS: Counter = Counter::new("pool.steals", Class::Overlay);
static POOL_PANICS: Counter = Counter::new("pool.panics", Class::Overlay);
static POOL_PEAK_QUEUE: Gauge = Gauge::new("pool.peak_queue_depth", Class::Overlay);
static POOL_BUSY: TraceSpan = TraceSpan::new("pool.worker.busy");

/// Scheduling diagnostics from one executor run. Available even when
/// telemetry collection is off, and fixed by the grid's size: on more
/// than one worker every job is a steal (a spawned worker claims each
/// one from the calling thread's grid), and the peak queue is the job
/// count, since the whole grid is queued up front.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs run by a spawned worker rather than the calling thread.
    pub steals: u64,
    /// Largest queue depth: the job count.
    pub peak_queue: usize,
    /// Jobs whose body unwound. Panics are contained with `catch_unwind`
    /// so every other job still runs; the count lets callers decide
    /// whether the run's output is trustworthy ([`run_jobs`] re-raises,
    /// [`run_jobs_checked`] reports).
    pub panics: u64,
}

/// Records a work-steal trace event (overlay class — which worker runs
/// which job is scheduling-dependent). The worker index doubles as the
/// logical shard lane so steals group per worker in timeline exports.
fn record_steal(worker: u64) {
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

/// Runs `job(i)` for every `i in 0..n_jobs` on `workers` threads and
/// returns the results in index order.
///
/// `workers` is clamped to `[1, n_jobs]`; with one worker the jobs run on
/// the calling thread in index order, giving a true serial baseline. If
/// any job panics the pool still runs every other job (the unwind is
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

/// Panic-containing form of [`run_jobs`] that also returns the run's
/// [`PoolStats`]. A job that unwinds yields `None` in its result slot
/// (and bumps [`PoolStats::panics`]), and every *other* job still runs to
/// completion. Results are positional, so `out[i]` is `Some` iff `job(i)`
/// returned normally.
pub fn run_jobs_checked<T, F>(n_jobs: usize, workers: usize, job: F) -> (Vec<Option<T>>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n_jobs.max(1));
    POOL_PEAK_QUEUE.record_max(n_jobs as u64);
    let next = AtomicUsize::new(0);
    let panics = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n_jobs).map(|_| Mutex::new(None)).collect();
    // Claims indices until none is left; `spawned` names the worker when
    // it is not the calling thread, whose every job is then a steal. The
    // claim publishes nothing, so it is `Relaxed`: results travel through
    // the slot mutexes and the scope's join.
    let drain = |spawned: Option<usize>| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n_jobs {
            return;
        }
        if let Some(w) = spawned {
            POOL_STEALS.incr();
            record_steal(w as u64);
        }
        let _busy = POOL_BUSY.start();
        match catch_unwind(AssertUnwindSafe(|| job(i))) {
            Ok(out) => *slots[i].lock().expect("a slot is locked only to store") = Some(out),
            Err(_) => {
                panics.fetch_add(1, Ordering::Relaxed);
                POOL_PANICS.incr();
            }
        }
    };
    if workers == 1 {
        drain(None);
    } else {
        std::thread::scope(|scope| {
            for w in 0..workers {
                let drain = &drain;
                scope.spawn(move || drain(Some(w)));
            }
        });
    }
    let out = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("a slot is locked only to store"))
        .collect();
    let stats = PoolStats {
        steals: if workers > 1 { n_jobs as u64 } else { 0 },
        peak_queue: n_jobs,
        panics: panics.into_inner(),
    };
    (out, stats)
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
        // Front-loaded long jobs leave the later ones to the other workers.
        let out = run_jobs(24, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            i
        });
        assert_eq!(out, (0..24).collect::<Vec<_>>());
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
        // Serial: every job runs on the calling thread.
        let (out, stats) = run_jobs_checked(9, 1, |i| i);
        assert_eq!(out, (0..9).map(Some).collect::<Vec<_>>());
        assert_eq!(
            stats,
            PoolStats {
                steals: 0,
                peak_queue: 9,
                panics: 0,
            }
        );
        // Spawned workers run every job, and the whole grid is queued up
        // front: whatever the job durations, each value is fixed.
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
                peak_queue: 24,
                panics: 0,
            }
        );
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
}
