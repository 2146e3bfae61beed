//! Outside-in layer timing: a heuristic wrapper that times every
//! `place` call, and the small statistics the report needs.

use std::sync::Mutex;
use std::time::Instant;

use rand::RngCore;
use snsp::core::heuristics::{Heuristic, HeuristicError, PlacedOps, PlacementOptions};

/// Delegates to a paper heuristic and records the wall time of every
/// `place` call, in µs. The placements are the inner heuristic's own, so
/// the traced pass reaches the same states as the untraced one.
pub struct TimedHeuristic {
    inner: Box<dyn Heuristic>,
    samples: Mutex<Vec<f64>>,
}

impl TimedHeuristic {
    pub fn new(inner: Box<dyn Heuristic>) -> Self {
        TimedHeuristic {
            inner,
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Every `place` duration so far, in call order (µs).
    pub fn samples(&self) -> Vec<f64> {
        self.samples.lock().expect("place timer poisoned").clone()
    }

    /// Duration of the latest `place` call (µs), 0 before the first.
    pub fn last(&self) -> f64 {
        let samples = self.samples.lock().expect("place timer poisoned");
        samples.last().copied().unwrap_or(0.0)
    }
}

impl Heuristic for TimedHeuristic {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &self,
        inst: &snsp::core::instance::Instance,
        rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError> {
        let started = Instant::now();
        let placed = self.inner.place(inst, rng, opts);
        let us = started.elapsed().as_secs_f64() * 1e6;
        self.samples.lock().expect("place timer poisoned").push(us);
        placed
    }

    fn prefers_random_servers(&self) -> bool {
        self.inner.prefers_random_servers()
    }
}

/// Median of `v` (mean of the middle pair for even lengths; 0 if empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len().is_multiple_of(2) {
        (s[m - 1] + s[m]) / 2.0
    } else {
        s[m]
    }
}

/// Nearest-rank percentile of `v`, the convention of the serve tier's
/// own latency columns.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    snsp::telemetry::percentile_sorted(&s, p)
}

/// The "fast" end of repeated timings: the nearest-rank 10th
/// percentile (the minimum below ten samples). Other load on the machine
/// only ever adds time, so the fastest repetitions are the least
/// disturbed, and this reads far steadier from run to run than a median.
pub fn fast(v: &[f64]) -> f64 {
    percentile(v, 10.0)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds since `started`, as f64.
pub fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}
