//! Configuration for the anytime local-search refinement post-pass.
//!
//! These are **pure data**: the algorithms live in `snsp-search` (which
//! depends on this crate), and its entry points (`snsp_search::refine`,
//! `snsp_search::refine_portfolio`) take a [`RefineOptions`] directly.
//! [`heuristics::solve`](crate::heuristics::solve) runs the constructive
//! pipeline only.

/// Which local-search driver refines the constructive solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefineDriver {
    /// Greedy descent applying the first strictly improving move of each
    /// deterministic neighborhood sweep.
    FirstImprovement,
    /// Simulated annealing with a fixed geometric cooling schedule and a
    /// seeded RNG; the best verified solution along the trajectory is
    /// returned.
    Anneal,
}

impl RefineDriver {
    /// Stable identifier used in reports and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            RefineDriver::FirstImprovement => "first-improvement",
            RefineDriver::Anneal => "anneal",
        }
    }
}

/// Knobs for the refinement post-pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// The driver descending from the constructive start.
    pub driver: RefineDriver,
    /// Move-evaluation budget: every screened candidate (and every
    /// annealing proposal) charges one unit; the search stops when the
    /// budget is exhausted, returning the best verified solution so far
    /// (the *anytime* contract).
    pub max_evals: u64,
    /// Seed for the annealing RNG (which also seeds the routings its
    /// `Reroute` proposals try) and for the fallback routings a commit
    /// tries when the deterministic server selection fails. The greedy
    /// drivers' routing polish is seeded from the start cost instead.
    pub seed: u64,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            driver: RefineDriver::FirstImprovement,
            max_evals: 4_096,
            seed: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let opts = RefineOptions::default();
        assert_eq!(opts.driver, RefineDriver::FirstImprovement);
        assert!(opts.max_evals >= 1);
        assert_eq!(opts.driver.name(), "first-improvement");
        assert_eq!(RefineDriver::Anneal.name(), "anneal");
    }
}
