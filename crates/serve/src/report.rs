//! Per-trace service metrics.

/// FNV-1a offset basis: the seed of every replay fingerprint.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a state (64-bit prime `0x100_0000_01b3`).
pub(crate) fn fnv1a(mut h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Everything measured over one trace replay.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Tenant arrivals seen.
    pub arrivals: usize,
    /// Arrivals admitted.
    pub admitted: usize,
    /// Arrivals rejected (no capacity / placement / downloads).
    pub rejected: usize,
    /// Tenants that departed normally.
    pub departed: usize,
    /// Tenants evicted by processor failures.
    pub evicted: usize,
    /// Processor failures that hit a live machine.
    pub failures: usize,
    /// Engine spot-runs performed.
    pub slo_checks: usize,
    /// Spot-runs below the SLO bar.
    pub slo_violations: usize,
    /// Platform cost when the trace ended.
    pub final_cost: u64,
    /// Highest platform cost along the trace.
    pub peak_cost: u64,
    /// Most processors live at once.
    pub peak_procs: usize,
    /// `∫ cost(t) dt` over the horizon ($·time).
    pub cost_time_integral: f64,
    /// Time-weighted mean CPU utilization.
    pub mean_utilization: f64,
    /// Deterministic event log, one line per effective event.
    pub log: Vec<String>,
    /// Wall-clock admission latencies in microseconds, one sample per
    /// successful admission, in replay order. **Not** part of the
    /// determinism contract: timings vary run to run, so stable JSON
    /// renderings must omit them (campaign reports render
    /// `admit_latency: null` in stable form).
    pub admit_latencies_us: Vec<f64>,
}

impl TraceReport {
    /// `admitted / arrivals` (1 when nothing arrived).
    pub fn admission_rate(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }

    /// FNV-1a digest of the event log — the replay fingerprint carried
    /// into campaign JSON (full logs would dwarf the report).
    pub fn log_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for line in &self.log {
            h = fnv1a(h, line.bytes().chain([b'\n']));
        }
        h
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of a sample set; sorts a
/// copy, so callers can pass raw latency vectors. Returns 0 for an
/// empty set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    snsp_telemetry::percentile_sorted(&sorted, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_rate_handles_empty_traces() {
        let empty = TraceReport::default();
        assert_eq!(empty.admission_rate(), 1.0);
        let half = TraceReport {
            arrivals: 4,
            admitted: 2,
            ..Default::default()
        };
        assert!((half.admission_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn digest_matches_the_published_fnv1a_vectors() {
        // External tools recompute log_hash from the artifact, so the
        // fold must be *actual* FNV-1a 64: "" → offset basis,
        // "a" → 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(FNV_OFFSET, []), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, *b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Unsorted input is handled.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
    }

    #[test]
    fn log_hash_is_order_sensitive() {
        let a = TraceReport {
            log: vec!["x".into(), "y".into()],
            ..Default::default()
        };
        let b = TraceReport {
            log: vec!["y".into(), "x".into()],
            ..Default::default()
        };
        assert_ne!(a.log_hash(), b.log_hash());
        assert_eq!(a.log_hash(), a.log_hash());
    }
}
