//! Scenario parameters mirroring the paper's §5 simulation methodology.

/// Inclusive range of basic-object sizes in MB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizeRange {
    /// Lower bound (MB).
    pub min: f64,
    /// Upper bound (MB).
    pub max: f64,
}

impl SizeRange {
    /// The paper's "small" objects: 5–30 MB.
    pub const SMALL: SizeRange = SizeRange {
        min: 5.0,
        max: 30.0,
    };
    /// The paper's "large" objects: 450–530 MB.
    pub const LARGE: SizeRange = SizeRange {
        min: 450.0,
        max: 530.0,
    };

    /// Midpoint of the range (used by analytic estimates in tests).
    pub fn mean(&self) -> f64 {
        0.5 * (self.min + self.max)
    }
}

/// Download frequencies used in the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frequency(pub f64);

impl Frequency {
    /// "High": one download every 2 s.
    pub const HIGH: Frequency = Frequency(0.5);
    /// "Low": one download every 50 s.
    pub const LOW: Frequency = Frequency(1.0 / 50.0);
}

/// Full description of one random scenario.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    /// Number of operators `N` in the random tree.
    pub n_ops: usize,
    /// The computation factor α.
    pub alpha: f64,
    /// Work-model calibration constant κ (see `snsp_core::work`).
    pub kappa: f64,
    /// Number of distinct basic-object types (paper: 15).
    pub n_types: usize,
    /// Object size range.
    pub sizes: SizeRange,
    /// Download frequency for every object.
    pub freq: Frequency,
    /// Number of data servers (paper: 6).
    pub n_servers: usize,
    /// Minimum replicas per object type over the servers.
    pub min_replicas: usize,
    /// Maximum replicas per object type over the servers.
    pub max_replicas: usize,
    /// Target application throughput ρ (paper: 1).
    pub rho: f64,
}

impl ScenarioParams {
    /// The paper's baseline: high frequency, small objects.
    pub fn paper(n_ops: usize, alpha: f64) -> Self {
        ScenarioParams {
            n_ops,
            alpha,
            kappa: snsp_core::WorkModel::PAPER_KAPPA,
            n_types: 15,
            sizes: SizeRange::SMALL,
            freq: Frequency::HIGH,
            n_servers: 6,
            min_replicas: 1,
            max_replicas: 2,
            rho: 1.0,
        }
    }

    /// Large objects (450–530 MB), otherwise the baseline.
    pub fn with_sizes(mut self, sizes: SizeRange) -> Self {
        self.sizes = sizes;
        self
    }

    /// Overrides the download frequency.
    pub fn with_freq(mut self, freq: Frequency) -> Self {
        self.freq = freq;
        self
    }

    /// Overrides the replication range.
    pub fn with_replicas(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && max >= min);
        self.min_replicas = min;
        self.max_replicas = max;
        self
    }

    /// Overrides the data-server count (the paper uses 6; dense serving
    /// environments scale this out).
    pub fn with_servers(mut self, n_servers: usize) -> Self {
        assert!(n_servers >= 1);
        self.n_servers = n_servers;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_values() {
        assert!((SizeRange::SMALL.mean() - 17.5).abs() < 1e-12);
        assert!((Frequency::HIGH.0 - 0.5).abs() < 1e-12);
        assert!((Frequency::LOW.0 - 0.02).abs() < 1e-12);
        let p = ScenarioParams::paper(60, 1.7);
        assert_eq!(p.n_types, 15);
        assert_eq!(p.n_servers, 6);
        assert!((p.rho - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builder_overrides_compose() {
        let p = ScenarioParams::paper(20, 0.9)
            .with_sizes(SizeRange::LARGE)
            .with_freq(Frequency::LOW)
            .with_replicas(2, 3)
            .with_servers(24);
        assert_eq!(p.sizes, SizeRange::LARGE);
        assert_eq!(p.freq, Frequency::LOW);
        assert_eq!((p.min_replicas, p.max_replicas), (2, 3));
        assert_eq!(p.n_servers, 24);
    }
}
