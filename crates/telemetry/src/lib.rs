//! # snsp-telemetry — deterministic instrumentation
//!
//! A zero-overhead-when-disabled metrics layer shared by the pool, the
//! exact solver, the local-search drivers and the serving tier. Four
//! primitives, all defined as `static`s at their instrumentation sites
//! and self-registering into a process-global registry on first use:
//!
//! * [`Counter`] — a monotone `u64` event count;
//! * [`Histogram`] — raw samples, rendered as nearest-rank percentiles;
//! * [`Gauge`] — a high-water-mark value (peak queue depth, peak RSS);
//! * [`Span`] — a wall-clock timing scope (count + total duration).
//!
//! ## Deterministic core vs wall-clock overlay
//!
//! Every counter, histogram and gauge carries a [`Class`]:
//!
//! * [`Class::Det`] — the metric counts *deterministic* events: the same
//!   campaign produces the same value at any worker count. Atomic
//!   additions commute, so a sum over a deterministic event multiset is
//!   itself deterministic regardless of thread interleaving, and
//!   histograms sort their sample multiset before rendering. These
//!   metrics are safe to emit in stable-form artifacts.
//! * [`Class::Overlay`] — the metric depends on scheduling or wall
//!   clock (steal counts, busy time, RSS). Overlay metrics — and every
//!   [`Span`], which is wall-clock by construction — are excluded from
//!   stable form unconditionally.
//!
//! ## Overhead
//!
//! When disabled (the default), every instrumentation call is one
//! relaxed atomic load and a predictable branch; spans do not even read
//! the clock. The global [`enable`]/[`disable`] flag deliberately avoids
//! threading state through every API in the hot paths.
//!
//! ```
//! use snsp_telemetry::{Class, Counter};
//!
//! static WIDGETS: Counter = Counter::new("demo.widgets", Class::Det);
//!
//! let ((), snap) = snsp_telemetry::capture(|| {
//!     WIDGETS.add(3);
//!     WIDGETS.incr();
//! });
//! assert_eq!(snap.counter("demo.widgets"), Some(4));
//! ```

#![warn(missing_docs)]

pub mod trace;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns collection on. Until this is called every instrumentation hook
/// is a no-op (one relaxed load + branch).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns collection off again.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether collection is currently on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Determinism class of a metric — decides whether it may appear in
/// stable-form artifacts (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Counts deterministic events: worker-count-independent by the
    /// commutativity argument; safe in stable form.
    Det,
    /// Scheduling- or wall-clock-dependent; never enters stable form.
    Overlay,
}

enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
    Gauge(&'static Gauge),
    Span(&'static Span),
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<Metric>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// A monotone event counter.
pub struct Counter {
    name: &'static str,
    class: Class,
    value: AtomicU64,
    registered: Once,
}

impl Counter {
    /// A counter constant, usable in `static` position.
    pub const fn new(name: &'static str, class: Class) -> Self {
        Counter {
            name,
            class,
            value: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Adds `n` events (no-op while disabled).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| registry().push(Metric::Counter(self)));
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event (no-op while disabled).
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A raw-sample histogram rendered as nearest-rank percentiles.
pub struct Histogram {
    name: &'static str,
    class: Class,
    samples: Mutex<Vec<f64>>,
    registered: Once,
}

impl Histogram {
    /// A histogram constant, usable in `static` position.
    pub const fn new(name: &'static str, class: Class) -> Self {
        Histogram {
            name,
            class,
            samples: Mutex::new(Vec::new()),
            registered: Once::new(),
        }
    }

    /// Records one sample (no-op while disabled).
    #[inline]
    pub fn record(&'static self, v: f64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| registry().push(Metric::Histogram(self)));
        self.samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(v);
    }
}

/// A high-water-mark gauge.
pub struct Gauge {
    name: &'static str,
    class: Class,
    value: AtomicU64,
    registered: Once,
}

impl Gauge {
    /// A gauge constant, usable in `static` position.
    pub const fn new(name: &'static str, class: Class) -> Self {
        Gauge {
            name,
            class,
            value: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Raises the gauge to `v` if larger (no-op while disabled).
    #[inline]
    pub fn record_max(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.registered
            .call_once(|| registry().push(Metric::Gauge(self)));
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// The current high-water mark.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A wall-clock timing scope (always overlay-class).
pub struct Span {
    name: &'static str,
    count: AtomicU64,
    total_ns: AtomicU64,
    registered: Once,
}

impl Span {
    /// A span constant, usable in `static` position.
    pub const fn new(name: &'static str) -> Self {
        Span {
            name,
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            registered: Once::new(),
        }
    }

    /// Enters the span; the returned guard records elapsed wall time on
    /// drop. While disabled the guard is inert and the clock is never
    /// read.
    #[inline]
    pub fn start(&'static self) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        self.registered
            .call_once(|| registry().push(Metric::Span(self)));
        SpanGuard(Some((self, Instant::now())))
    }
}

/// Drop guard returned by [`Span::start`].
pub struct SpanGuard(Option<(&'static Span, Instant)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((span, t0)) = self.0.take() {
            span.count.fetch_add(1, Ordering::Relaxed);
            span.total_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
    }
}

/// Nearest-rank percentile over an already **sorted** sample slice
/// (the same convention as `snsp_serve`'s latency columns): the
/// smallest sample ≥ the `p`-fraction rank, 0 for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One counter in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct CounterSnap {
    /// Metric name (dot-separated, subsystem first).
    pub name: &'static str,
    /// Determinism class.
    pub class: Class,
    /// Event count.
    pub value: u64,
}

/// One histogram in a [`Snapshot`]: nearest-rank summary of the sorted
/// sample multiset.
#[derive(Debug, Clone)]
pub struct HistogramSnap {
    /// Metric name.
    pub name: &'static str,
    /// Determinism class.
    pub class: Class,
    /// Sample count.
    pub count: u64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
}

/// One gauge in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: &'static str,
    /// Determinism class.
    pub class: Class,
    /// High-water mark.
    pub value: u64,
}

/// One span in a [`Snapshot`].
#[derive(Debug, Clone)]
pub struct SpanSnap {
    /// Span name.
    pub name: &'static str,
    /// Times entered.
    pub count: u64,
    /// Total wall time inside, milliseconds.
    pub total_ms: f64,
}

/// A point-in-time copy of every registered metric, each category
/// sorted by name (registration order is scheduling-dependent; the
/// sorted view is not).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All registered counters, name-sorted.
    pub counters: Vec<CounterSnap>,
    /// All registered histograms, name-sorted.
    pub histograms: Vec<HistogramSnap>,
    /// All registered gauges, name-sorted.
    pub gauges: Vec<GaugeSnap>,
    /// All registered spans, name-sorted.
    pub spans: Vec<SpanSnap>,
}

impl Snapshot {
    /// Value of the named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Value of the named gauge, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The named histogram summary, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Copies every registered metric out of the registry, name-sorted per
/// category.
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut snap = Snapshot::default();
    for m in reg.iter() {
        match m {
            Metric::Counter(c) => snap.counters.push(CounterSnap {
                name: c.name,
                class: c.class,
                value: c.get(),
            }),
            Metric::Histogram(h) => {
                let mut samples = h.samples.lock().unwrap_or_else(|e| e.into_inner()).clone();
                samples.sort_by(f64::total_cmp);
                snap.histograms.push(HistogramSnap {
                    name: h.name,
                    class: h.class,
                    count: samples.len() as u64,
                    min: samples.first().copied().unwrap_or(0.0),
                    p50: percentile_sorted(&samples, 50.0),
                    p90: percentile_sorted(&samples, 90.0),
                    p99: percentile_sorted(&samples, 99.0),
                    max: samples.last().copied().unwrap_or(0.0),
                });
            }
            Metric::Gauge(g) => snap.gauges.push(GaugeSnap {
                name: g.name,
                class: g.class,
                value: g.get(),
            }),
            Metric::Span(s) => snap.spans.push(SpanSnap {
                name: s.name,
                count: s.count.load(Ordering::Relaxed),
                total_ms: s.total_ns.load(Ordering::Relaxed) as f64 / 1e6,
            }),
        }
    }
    snap.counters.sort_by_key(|c| c.name);
    snap.histograms.sort_by_key(|h| h.name);
    snap.gauges.sort_by_key(|g| g.name);
    snap.spans.sort_by_key(|s| s.name);
    snap
}

/// Zeroes every registered metric (they stay registered).
pub fn reset() {
    let reg = registry();
    for m in reg.iter() {
        match m {
            Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
            Metric::Histogram(h) => h.samples.lock().unwrap_or_else(|e| e.into_inner()).clear(),
            Metric::Gauge(g) => g.value.store(0, Ordering::Relaxed),
            Metric::Span(s) => {
                s.count.store(0, Ordering::Relaxed);
                s.total_ns.store(0, Ordering::Relaxed);
            }
        }
    }
}

static SESSION: Mutex<()> = Mutex::new(());

/// Takes the exclusive session lock without the reset/enable protocol —
/// lets in-crate tests (including the [`trace`] module's) serialize
/// against concurrent [`capture`] sessions.
#[cfg(test)]
pub(crate) fn test_session() -> std::sync::MutexGuard<'static, ()> {
    SESSION.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` as an exclusive telemetry session: takes a global session
/// lock (so concurrent captures — e.g. parallel tests — serialize),
/// resets all metrics, enables collection, runs `f`, disables again and
/// returns `f`'s result together with the resulting [`Snapshot`].
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    let _guard = SESSION.lock().unwrap_or_else(|e| e.into_inner());
    reset();
    enable();
    let r = f();
    disable();
    let snap = snapshot();
    (r, snap)
}

/// Peak resident set size of this process in kB, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 off Linux or when the field
/// is unavailable — consumers must tolerate an absent/zero value.
pub fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    static C_DET: Counter = Counter::new("test.det", Class::Det);
    static C_OVER: Counter = Counter::new("test.over", Class::Overlay);
    static H: Histogram = Histogram::new("test.hist", Class::Det);
    static G: Gauge = Gauge::new("test.gauge", Class::Overlay);
    static S: Span = Span::new("test.span");

    #[test]
    fn disabled_hooks_are_inert() {
        let (_, snap) = capture(|| {});
        // Everything was reset inside the session; nothing recorded
        // after it ended either (disabled).
        C_DET.add(5);
        assert_eq!(snap.counter("test.det").unwrap_or(0), 0);
    }

    #[test]
    fn capture_collects_and_sorts() {
        let (_, snap) = capture(|| {
            C_OVER.add(2);
            C_DET.add(7);
            H.record(3.0);
            H.record(1.0);
            H.record(2.0);
            G.record_max(10);
            G.record_max(4);
            let _g = S.start();
        });
        assert_eq!(snap.counter("test.det"), Some(7));
        assert_eq!(snap.counter("test.over"), Some(2));
        let h = snap.histogram("test.hist").expect("registered");
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.p50, 2.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(snap.gauge("test.gauge"), Some(10));
        let span = snap.spans.iter().find(|s| s.name == "test.span").unwrap();
        assert_eq!(span.count, 1);
        // Name-sorted categories.
        let names: Vec<_> = snap.counters.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn nearest_rank_matches_serve_convention() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 50.0), 2.0);
        assert_eq!(percentile_sorted(&sorted, 99.0), 4.0);
        assert_eq!(percentile_sorted(&[], 50.0), 0.0);
    }

    static H_EDGE: Histogram = Histogram::new("test.hist.edge", Class::Det);

    #[test]
    fn histogram_edge_cases() {
        // Empty: a registered histogram with no samples this session
        // snapshots as count 0 with all-zero percentiles.
        let (_, snap) = capture(|| {
            H_EDGE.record(1.0);
        });
        assert_eq!(snap.histogram("test.hist.edge").map(|h| h.count), Some(1));
        let (_, snap) = capture(|| {});
        let h = snap.histogram("test.hist.edge").expect("stays registered");
        assert_eq!(
            (h.count, h.min, h.p50, h.p90, h.p99, h.max),
            (0, 0.0, 0.0, 0.0, 0.0, 0.0)
        );

        // Single sample: every percentile is that sample.
        let (_, snap) = capture(|| H_EDGE.record(42.5));
        let h = snap.histogram("test.hist.edge").unwrap();
        assert_eq!(
            (h.count, h.min, h.p50, h.p90, h.p99, h.max),
            (1, 42.5, 42.5, 42.5, 42.5, 42.5)
        );

        // Duplicate-heavy: 99 copies of one value and a single outlier
        // put p50 and p99 on the duplicated value (nearest-rank: the
        // 99th of 100 sorted samples), with only max seeing the outlier.
        let (_, snap) = capture(|| {
            for _ in 0..99 {
                H_EDGE.record(7.0);
            }
            H_EDGE.record(1000.0);
        });
        let h = snap.histogram("test.hist.edge").unwrap();
        assert_eq!(h.p50, 7.0);
        assert_eq!(h.p99, 7.0);
        assert_eq!(h.max, 1000.0);

        // Negative values sort below zero and ahead of positives.
        let (_, snap) = capture(|| {
            for v in [-5.0, -1.0, 3.0] {
                H_EDGE.record(v);
            }
        });
        let h = snap.histogram("test.hist.edge").unwrap();
        assert_eq!(h.min, -5.0);
        assert_eq!(h.p50, -1.0);
        assert_eq!(h.max, 3.0);
    }

    #[test]
    fn peak_rss_reads_without_panicking() {
        // Linux CI sees a real value; other platforms get 0.
        let _ = peak_rss_kb();
    }
}
