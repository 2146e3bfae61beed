//! Causal event tracing with logical timestamps.
//!
//! Where the metrics layer (the crate root) *aggregates* — counters,
//! percentile histograms, wall-clock spans — this module records the
//! *sequence*: typed events stamped with a logical time
//! [`LogicalTime`]` = (tick, shard, seq)` so a run can be replayed as a
//! timeline (which admission triggered a shed cascade, when a shard's
//! batch folded at a barrier, where a crash was re-replayed).
//!
//! ## Determinism contract
//!
//! Events carry the same [`Class`] split as metrics:
//!
//! * [`Class::Det`] events (admissions, departures, ShardMsg
//!   send/fold, crash/restore, shed, retry re-admission) are a pure
//!   function of the input trace. After sorting by
//!   `(run, logical time, kind)` and collapsing the exact duplicates
//!   produced by crash re-replay, the Det stream is **byte-identical at
//!   any worker count** ([`TraceSnapshot::det_lines`]).
//! * [`Class::Overlay`] events (work-steals, B&B subtree splits and
//!   incumbent publications) depend on scheduling and are excluded from
//!   the Det stream and from stable artifacts.
//!
//! ## Overhead
//!
//! Tracing has its own gate, *on top of* the metrics gate: while
//! inactive (the default, including under plain `--telemetry`) every
//! [`record`] call is one relaxed atomic load and a branch. When active,
//! events go to a bounded per-thread ring buffer ([`TraceBuf`]) — no
//! global contention on the hot path, oldest events dropped (and
//! counted) on overflow.
//!
//! ```
//! use snsp_telemetry::trace::{self, LogicalTime, TraceEventKind};
//! use snsp_telemetry::Class;
//!
//! trace::start(1024, false);
//! trace::record(
//!     Class::Det,
//!     7,
//!     LogicalTime { tick: 1, shard: 0, seq: 0 },
//!     TraceEventKind::Admit { tenant: 3, new_procs: 2, reused_procs: 1 },
//! );
//! let snap = trace::stop();
//! assert_eq!(snap.events.len(), 1);
//! assert_eq!(snap.det_lines().len(), 1);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::Class;

/// Logical timestamp of a trace event: the replay tick (barrier
/// number), the shard (or worker token for overlay events) and the
/// per-`(tick, shard)` emission sequence number. Totally ordered; the
/// order is worker-count-independent for Det-class events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalTime {
    /// Barrier/tick number within the run (0 before the first barrier).
    pub tick: u64,
    /// Shard index for Det events; worker/thread token for overlay.
    pub shard: u32,
    /// Emission order within `(tick, shard)`; folds use the global fold
    /// index so coordinator-synthesized messages stay distinct.
    pub seq: u32,
}

impl LogicalTime {
    /// The start-of-tick marker time: sorts before every event of the
    /// tick (ties broken by [`TraceEventKind`] variant order).
    pub const fn tick_start(tick: u64) -> Self {
        LogicalTime {
            tick,
            shard: 0,
            seq: 0,
        }
    }

    /// The end-of-tick marker time: sorts after every event of the tick.
    pub const fn tick_end(tick: u64) -> Self {
        LogicalTime {
            tick,
            shard: u32::MAX,
            seq: u32::MAX,
        }
    }
}

/// What happened. Variant declaration order is the sort tiebreak for
/// events sharing a [`LogicalTime`], so `TickStart` is declared first
/// (it shares `(tick, 0, 0)` with the first event of shard 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceEventKind {
    /// A replay barrier opened (Det). `events` = batched trace events
    /// folded at this barrier.
    TickStart {
        /// Trace events drained into this tick's shard batches.
        events: u64,
    },
    /// A tenant was admitted on its home shard (Det).
    Admit {
        /// Tenant id from the arrival trace.
        tenant: u64,
        /// Processors newly enrolled for it.
        new_procs: u64,
        /// Processors reused from the shard's warm pool.
        reused_procs: u64,
    },
    /// A tenant's admission was rejected (Det).
    Reject {
        /// Tenant id from the arrival trace.
        tenant: u64,
    },
    /// A tenant departed and released its processors (Det).
    Depart {
        /// Tenant id from the arrival trace.
        tenant: u64,
    },
    /// A tenant was evicted (consolidation or fault remap) (Det).
    Evict {
        /// Tenant id from the arrival trace.
        tenant: u64,
    },
    /// A shard emitted a `ShardMsg`-style message toward the
    /// coordinator barrier (Det). `msg` names the message kind.
    MsgSend {
        /// Static message-kind label (e.g. `"admitted"`).
        msg: &'static str,
    },
    /// The coordinator folded one message at the barrier (Det). The
    /// event's `seq` is the global fold index within the tick.
    MsgFold {
        /// Static message-kind label (e.g. `"admitted"`).
        msg: &'static str,
    },
    /// A shard crashed under fault injection (Det).
    Crash {
        /// The crashed shard.
        shard: u64,
    },
    /// A crashed shard was restored from checkpoint and its batch
    /// re-replayed (Det).
    Restore {
        /// The restored shard.
        shard: u64,
        /// Trace events re-replayed from the checkpoint.
        replayed: u64,
    },
    /// Graceful degradation shed a tenant under capacity pressure (Det).
    Shed {
        /// The shed tenant.
        tenant: u64,
    },
    /// A previously rejected/shed tenant was re-admitted from the retry
    /// queue (Det).
    RetryAdmit {
        /// The re-admitted tenant.
        tenant: u64,
        /// Retry attempt number (1-based).
        attempt: u64,
    },
    /// A replay barrier closed (Det). Declared after every intra-tick
    /// variant; its time is [`LogicalTime::tick_end`].
    TickEnd,
    /// A spawned pool worker ran a job of the calling thread's grid
    /// (Overlay — which worker runs which job is scheduling-dependent).
    Steal {
        /// The worker's index within its run.
        worker: u64,
    },
    /// The branch-and-bound found a new incumbent (Overlay — a search
    /// diagnostic, not part of any replay's causal record).
    Incumbent {
        /// New incumbent cost, as bits (`f64::to_bits`) so the event is
        /// `Eq`/`Ord`.
        cost_bits: u64,
    },
}

impl TraceEventKind {
    /// Canonical label + detail rendering used by the Det stream and
    /// the exporters. Deterministic: no wall-clock, no addresses.
    pub fn describe(&self) -> (&'static str, String) {
        match *self {
            TraceEventKind::TickStart { events } => ("tick_start", format!("events={events}")),
            TraceEventKind::Admit {
                tenant,
                new_procs,
                reused_procs,
            } => (
                "admit",
                format!("tenant={tenant} new={new_procs} reuse={reused_procs}"),
            ),
            TraceEventKind::Reject { tenant } => ("reject", format!("tenant={tenant}")),
            TraceEventKind::Depart { tenant } => ("depart", format!("tenant={tenant}")),
            TraceEventKind::Evict { tenant } => ("evict", format!("tenant={tenant}")),
            TraceEventKind::MsgSend { msg } => ("msg_send", format!("msg={msg}")),
            TraceEventKind::MsgFold { msg } => ("msg_fold", format!("msg={msg}")),
            TraceEventKind::Crash { shard } => ("crash", format!("shard={shard}")),
            TraceEventKind::Restore { shard, replayed } => {
                ("restore", format!("shard={shard} replayed={replayed}"))
            }
            TraceEventKind::Shed { tenant } => ("shed", format!("tenant={tenant}")),
            TraceEventKind::RetryAdmit { tenant, attempt } => {
                ("retry_admit", format!("tenant={tenant} attempt={attempt}"))
            }
            TraceEventKind::TickEnd => ("tick_end", String::new()),
            TraceEventKind::Steal { worker } => ("steal", format!("worker={worker}")),
            TraceEventKind::Incumbent { cost_bits } => {
                ("incumbent", format!("cost={}", f64::from_bits(cost_bits)))
            }
        }
    }
}

/// One recorded event. `run` is the campaign-level run discriminator
/// (the per-trace seed) so concurrent replays in one campaign do not
/// interleave their logical clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Run discriminator (per-trace seed within a campaign).
    pub run: u64,
    /// Logical timestamp.
    pub time: LogicalTime,
    /// Determinism class (Det enters the stable stream, Overlay never).
    pub class: Class,
    /// What happened.
    pub kind: TraceEventKind,
    /// Microseconds since [`start`], when the wall-clock overlay was
    /// requested; 0.0 otherwise. Never part of the Det stream.
    pub wall_us: f64,
}

impl TraceEvent {
    /// The deterministic total order: `(run, time, kind)`. `wall_us`
    /// and `class` are deliberately excluded.
    fn sort_key(&self) -> (u64, LogicalTime, TraceEventKind) {
        (self.run, self.time, self.kind)
    }
}

/// A bounded single-producer ring of events. One per recording thread;
/// overflow drops the **oldest** event and counts it, so the tail (what
/// the flight recorder wants) survives.
pub struct TraceBuf {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceBuf {
    fn new(capacity: usize) -> Self {
        TraceBuf {
            events: std::collections::VecDeque::new(),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    fn clear(&mut self, capacity: usize) {
        self.events.clear();
        self.capacity = capacity;
        self.dropped = 0;
    }
}

static FLIGHT_PATH: Mutex<Option<std::path::PathBuf>> = Mutex::new(None);

/// Sets (or clears) the flight-recorder dump destination. When a
/// consumer detects a failure mid-run (invariant audit, contained pool
/// panic) it writes its crash-dump artifact here; unset, dumps go to
/// stderr.
pub fn set_flight_path(path: Option<std::path::PathBuf>) {
    *FLIGHT_PATH.lock().unwrap_or_else(|e| e.into_inner()) = path;
}

/// The configured flight-recorder dump destination, if any.
pub fn flight_path() -> Option<std::path::PathBuf> {
    FLIGHT_PATH
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static WALL: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static RINGS: Mutex<Vec<Arc<Mutex<TraceBuf>>>> = Mutex::new(Vec::new());
static EPOCH: Mutex<Option<Instant>> = Mutex::new(None);

/// Default per-thread ring capacity: generous enough that CI-scale
/// campaigns record with `dropped == 0` (asserted by the trace tests —
/// an overflowing ring would break cross-worker-count byte-identity).
pub const DEFAULT_CAPACITY: usize = 1 << 16;

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<TraceBuf>>>> = const { RefCell::new(None) };
}

fn rings() -> std::sync::MutexGuard<'static, Vec<Arc<Mutex<TraceBuf>>>> {
    RINGS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Whether tracing is currently active. Hooks call this first; while
/// inactive a [`record`] is one relaxed load + branch.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Starts a trace session: clears every registered ring, sets the
/// per-thread capacity and (optionally) the wall-clock overlay, then
/// opens the gate. Sessions do not nest; callers serialize via the
/// metrics [`capture`](crate::capture) session or their own discipline.
pub fn start(capacity: usize, wall: bool) {
    for ring in rings().iter() {
        ring.lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear(capacity);
    }
    CAPACITY.store(capacity, Ordering::SeqCst);
    *EPOCH.lock().unwrap_or_else(|e| e.into_inner()) = Some(Instant::now());
    WALL.store(wall, Ordering::SeqCst);
    ACTIVE.store(true, Ordering::SeqCst);
}

/// Closes the gate and returns the merged, deterministically sorted
/// snapshot of every thread's ring.
pub fn stop() -> TraceSnapshot {
    ACTIVE.store(false, Ordering::SeqCst);
    snapshot_now()
}

/// Non-destructive merged snapshot (rings keep their contents) — the
/// flight recorder reads this mid-run, at a barrier, without ending the
/// session.
pub fn snapshot_now() -> TraceSnapshot {
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for ring in rings().iter() {
        let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
        events.extend(ring.events.iter().copied());
        dropped += ring.dropped;
    }
    events.sort_by(|a, b| {
        a.sort_key()
            .cmp(&b.sort_key())
            .then(a.wall_us.total_cmp(&b.wall_us))
    });
    TraceSnapshot { events, dropped }
}

/// Records one event (no-op while inactive). The caller supplies the
/// logical timestamp — tracing never invents ordering of its own.
#[inline]
pub fn record(class: Class, run: u64, time: LogicalTime, kind: TraceEventKind) {
    if !active() {
        return;
    }
    let wall_us = if WALL.load(Ordering::Relaxed) {
        EPOCH
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map_or(0.0, |t0| t0.elapsed().as_nanos() as f64 / 1e3)
    } else {
        0.0
    };
    let ev = TraceEvent {
        run,
        time,
        class,
        kind,
        wall_us,
    };
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let ring = local.get_or_insert_with(|| {
            let ring = Arc::new(Mutex::new(TraceBuf::new(CAPACITY.load(Ordering::SeqCst))));
            rings().push(Arc::clone(&ring));
            ring
        });
        ring.lock().unwrap_or_else(|e| e.into_inner()).push(ev);
    });
}

/// A merged, `(run, time, kind)`-sorted copy of every thread's ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// All events, deterministically sorted.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring overflow across all threads. A nonzero value
    /// voids the cross-worker-count byte-identity guarantee (different
    /// thread counts shard the rings differently).
    pub dropped: u64,
}

impl TraceSnapshot {
    /// The deterministic core: Det-class events only, with the exact
    /// `(run, time, kind)` duplicates produced by crash re-replay
    /// collapsed (recovery replays the victim's batch byte-identically,
    /// so the discarded attempt and the re-replay record the same
    /// events; the `Crash`/`Restore` markers themselves are recorded
    /// once, by the coordinator).
    pub fn det_events(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            if ev.class != Class::Det {
                continue;
            }
            if out.last().is_some_and(|p| p.sort_key() == ev.sort_key()) {
                continue;
            }
            out.push(*ev);
        }
        out
    }

    /// The Det stream rendered as canonical text lines — the
    /// byte-identity surface pinned by tests and CI. One event per
    /// line: `r=<run> t=<tick> s=<shard> q=<seq> <label> <detail>`.
    pub fn det_lines(&self) -> Vec<String> {
        self.det_events()
            .iter()
            .map(|ev| {
                let (label, detail) = ev.kind.describe();
                let mut line = format!(
                    "r={} t={} s={} q={} {label}",
                    ev.run, ev.time.tick, ev.time.shard, ev.time.seq
                );
                if !detail.is_empty() {
                    line.push(' ');
                    line.push_str(&detail);
                }
                line
            })
            .collect()
    }

    /// The largest tick stamped on any event (0 when empty).
    pub fn max_tick(&self) -> u64 {
        self.events.iter().map(|e| e.time.tick).max().unwrap_or(0)
    }

    /// The flight-recorder window: every event whose tick lies within
    /// the last `k` ticks (ticks `> max_tick - k`), preserving order.
    pub fn tail_window(&self, k: u64) -> Vec<TraceEvent> {
        let cutoff = self.max_tick().saturating_sub(k);
        self.events
            .iter()
            .filter(|e| e.time.tick > cutoff)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det(run: u64, tick: u64, shard: u32, seq: u32, kind: TraceEventKind) {
        record(Class::Det, run, LogicalTime { tick, shard, seq }, kind);
    }

    #[test]
    fn inactive_record_is_inert() {
        let _guard = crate::test_session();
        assert!(!active());
        det(1, 1, 0, 0, TraceEventKind::Reject { tenant: 1 });
        start(64, false);
        let snap = stop();
        assert!(snap.events.is_empty());
    }

    #[test]
    fn merge_sorts_and_dedups_reraplay_duplicates() {
        let _guard = crate::test_session();
        start(64, false);
        // Out-of-order emission, including an exact duplicate (crash
        // re-replay) and an overlay event.
        det(1, 2, 1, 0, TraceEventKind::Depart { tenant: 4 });
        det(1, 1, 0, 0, TraceEventKind::TickStart { events: 2 });
        det(
            1,
            1,
            0,
            0,
            TraceEventKind::Admit {
                tenant: 9,
                new_procs: 1,
                reused_procs: 0,
            },
        );
        det(
            1,
            1,
            0,
            0,
            TraceEventKind::Admit {
                tenant: 9,
                new_procs: 1,
                reused_procs: 0,
            },
        );
        record(
            Class::Overlay,
            1,
            LogicalTime {
                tick: 0,
                shard: 3,
                seq: 0,
            },
            TraceEventKind::Steal { worker: 3 },
        );
        let snap = stop();
        assert_eq!(snap.events.len(), 5);
        assert_eq!(snap.dropped, 0);
        let lines = snap.det_lines();
        assert_eq!(
            lines,
            vec![
                "r=1 t=1 s=0 q=0 tick_start events=2".to_string(),
                "r=1 t=1 s=0 q=0 admit tenant=9 new=1 reuse=0".to_string(),
                "r=1 t=2 s=1 q=0 depart tenant=4".to_string(),
            ]
        );
    }

    #[test]
    fn tick_markers_bracket_the_tick() {
        let _guard = crate::test_session();
        start(64, false);
        det(
            1,
            1,
            0,
            0,
            TraceEventKind::Admit {
                tenant: 1,
                new_procs: 1,
                reused_procs: 0,
            },
        );
        record(
            Class::Det,
            1,
            LogicalTime::tick_start(1),
            TraceEventKind::TickStart { events: 1 },
        );
        record(
            Class::Det,
            1,
            LogicalTime::tick_end(1),
            TraceEventKind::TickEnd,
        );
        let lines = stop().det_lines();
        assert!(lines[0].contains("tick_start"), "{lines:?}");
        assert!(lines[2].contains("tick_end"), "{lines:?}");
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let _guard = crate::test_session();
        start(2, false);
        for i in 0..5u64 {
            det(1, i + 1, 0, 0, TraceEventKind::Reject { tenant: i });
        }
        let snap = stop();
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.dropped, 3);
        // The tail survives.
        assert_eq!(snap.events[1].time.tick, 5);
    }

    #[test]
    fn tail_window_keeps_last_k_ticks() {
        let _guard = crate::test_session();
        start(64, false);
        for tick in 1..=10u64 {
            det(1, tick, 0, 0, TraceEventKind::Reject { tenant: tick });
        }
        let snap = stop();
        assert_eq!(snap.max_tick(), 10);
        let tail = snap.tail_window(3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].time.tick, 8);
    }

    #[test]
    fn wall_overlay_is_monotone_when_requested() {
        let _guard = crate::test_session();
        start(64, true);
        det(1, 1, 0, 0, TraceEventKind::Reject { tenant: 1 });
        det(1, 1, 0, 1, TraceEventKind::Reject { tenant: 2 });
        let snap = stop();
        assert!(snap.events[0].wall_us >= 0.0);
        assert!(snap.events[1].wall_us >= snap.events[0].wall_us);
    }
}
