//! The polynomial placement heuristics of paper §4 and the full solution
//! pipeline.
//!
//! Every heuristic implements [`Heuristic::place`], producing a tentative
//! operator→processor grouping. [`solve`] then runs the complete paper
//! pipeline: placement → server selection (§4.2) → downgrade → final
//! constraint check, yielding a verified [`Solution`].

pub mod comm_greedy;
pub mod common;
pub mod comp_greedy;
pub mod downgrade;
pub mod object_availability;
pub mod object_grouping;
pub mod random;
pub mod server_selection;
pub mod subtree;

#[cfg(test)]
pub(crate) mod test_support;

use rand::{RngCore, SeedableRng};

pub use comm_greedy::CommGreedy;
pub use common::{
    Demand, GroupBuilder, HeuristicError, KindPolicy, PlacedGroup, PlacedOps, PlacementOptions,
};
pub use comp_greedy::CompGreedy;
pub use downgrade::downgrade;
pub use object_availability::ObjectAvailability;
pub use object_grouping::ObjectGrouping;
pub use random::Random;
pub use server_selection::{select_servers, ServerSelector, ServerStrategy};
pub use subtree::SubtreeBottomUp;

use crate::constraints;
use crate::instance::Instance;
use crate::mapping::Mapping;

/// An operator-placement heuristic (paper §4.1).
///
/// `Send + Sync` are supertraits so `dyn Heuristic` (and boxes thereof)
/// can be shared across a worker pool — see `snsp-sweep`.
pub trait Heuristic: Send + Sync {
    /// Display name matching the paper's figures.
    fn name(&self) -> &'static str;

    /// Builds a tentative grouping of operators onto processor kinds.
    fn place(
        &self,
        inst: &Instance,
        rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError>;

    /// Whether the pipeline should pair this heuristic with random server
    /// selection (only the Random baseline does, per §4.2).
    fn prefers_random_servers(&self) -> bool {
        false
    }
}

/// Knobs for the full pipeline (placement + server selection + downgrade).
/// Server selection follows the heuristic's own preference
/// ([`Heuristic::prefers_random_servers`]).
#[derive(Debug, Clone, Copy)]
pub struct PipelineOptions {
    /// Placement-time accounting options.
    pub placement: PlacementOptions,
    /// Whether to run the downgrade pass (on by default; the `vsopt`
    /// experiment turns it off to compare against the exact optimum on
    /// CONSTR-HOM, as the paper does).
    pub downgrade: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            placement: PlacementOptions::default(),
            downgrade: true,
        }
    }
}

/// A verified solution: the mapping passed the full constraint check.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The feasible mapping.
    pub mapping: Mapping,
    /// Its platform cost in dollars (the objective).
    pub cost: u64,
    /// Name of the producing heuristic.
    pub heuristic: &'static str,
}

/// Runs the complete paper pipeline for one heuristic.
pub fn solve(
    heuristic: &dyn Heuristic,
    inst: &Instance,
    rng: &mut dyn RngCore,
    opts: &PipelineOptions,
) -> Result<Solution, HeuristicError> {
    let mut placed = heuristic.place(inst, rng, &opts.placement)?;
    let strategy = if heuristic.prefers_random_servers() {
        ServerStrategy::Random
    } else {
        ServerStrategy::ThreeLoop
    };
    let downloads = select_servers(inst, &placed, strategy, rng)?;
    if opts.downgrade {
        downgrade::downgrade(inst, &mut placed, &downloads);
    }
    let mapping = placed.into_mapping(downloads);
    let violations = constraints::check(inst, &mapping);
    if !violations.is_empty() {
        return Err(HeuristicError::FinalCheck(violations));
    }
    let cost = mapping.cost(inst);
    Ok(Solution {
        mapping,
        cost,
        heuristic: heuristic.name(),
    })
}

/// Send-safe pipeline entry point: derives the RNG internally from
/// `seed`, so parallel callers (one job per thread) need not share or
/// ship `RngCore` state across threads. The result is a pure function of
/// `(heuristic, inst, seed, opts)` — the cornerstone of `snsp-sweep`'s
/// scheduling-independent determinism.
pub fn solve_seeded(
    heuristic: &dyn Heuristic,
    inst: &Instance,
    seed: u64,
    opts: &PipelineOptions,
) -> Result<Solution, HeuristicError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    solve(heuristic, inst, &mut rng, opts)
}

/// All six paper heuristics, in the paper's presentation order.
pub fn all_heuristics() -> Vec<Box<dyn Heuristic>> {
    vec![
        Box::new(Random),
        Box::new(CompGreedy),
        Box::new(CommGreedy),
        Box::new(SubtreeBottomUp),
        Box::new(ObjectGrouping),
        Box::new(ObjectAvailability),
    ]
}

/// Looks a heuristic up by its paper name (case-insensitive).
pub fn heuristic_by_name(name: &str) -> Option<Box<dyn Heuristic>> {
    all_heuristics()
        .into_iter()
        .find(|h| h.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_heuristics_produce_feasible_solutions_on_light_instances() {
        let inst = test_support::paper_like_instance(20, 0.9, 61);
        for h in all_heuristics() {
            let mut rng = StdRng::seed_from_u64(7);
            let sol = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default())
                .unwrap_or_else(|e| panic!("{} failed: {e}", h.name()));
            assert!(constraints::is_feasible(&inst, &sol.mapping));
            assert!(sol.cost > 0);
            assert_eq!(sol.heuristic, h.name());
        }
    }

    #[test]
    fn downgrade_reduces_or_preserves_cost() {
        let inst = test_support::paper_like_instance(25, 0.9, 67);
        for h in all_heuristics() {
            let mut rng = StdRng::seed_from_u64(3);
            let with = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default());
            let mut rng = StdRng::seed_from_u64(3);
            let without = solve(
                h.as_ref(),
                &inst,
                &mut rng,
                &PipelineOptions {
                    downgrade: false,
                    ..Default::default()
                },
            );
            if let (Ok(a), Ok(b)) = (with, without) {
                assert!(
                    a.cost <= b.cost,
                    "{}: downgraded {} > raw {}",
                    h.name(),
                    a.cost,
                    b.cost
                );
            }
        }
    }

    #[test]
    fn solve_seeded_matches_explicit_rng() {
        let inst = test_support::paper_like_instance(20, 0.9, 61);
        for h in all_heuristics() {
            let mut rng = StdRng::seed_from_u64(9);
            let explicit = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default());
            let seeded = solve_seeded(h.as_ref(), &inst, 9, &PipelineOptions::default());
            match (explicit, seeded) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.cost, b.cost, "{}", h.name());
                    assert_eq!(a.mapping.proc_count(), b.mapping.proc_count());
                }
                (Err(_), Err(_)) => {}
                (a, b) => panic!("{}: {a:?} vs {b:?} diverged", h.name()),
            }
        }
    }

    #[test]
    fn heuristics_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        for h in all_heuristics() {
            assert_send_sync(&h);
        }
    }

    #[test]
    fn heuristic_lookup_by_name() {
        assert!(heuristic_by_name("subtree-bottom-up").is_some());
        assert!(heuristic_by_name("Comp-Greedy").is_some());
        assert!(heuristic_by_name("nope").is_none());
    }

    #[test]
    fn infeasible_alpha_fails_cleanly() {
        // α far past the threshold: the root operator alone outgrows every
        // CPU, so every heuristic must fail with NoFeasibleProcessor.
        let inst = test_support::paper_like_instance(60, 2.5, 71);
        for h in all_heuristics() {
            let mut rng = StdRng::seed_from_u64(1);
            let res = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default());
            assert!(res.is_err(), "{} should fail at alpha=2.5", h.name());
        }
    }
}
