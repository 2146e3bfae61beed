//! The `Random` baseline heuristic (paper §4.1).
//!
//! While operators remain unassigned, pick one uniformly at random and buy
//! the cheapest processor able to handle it at the target throughput; if no
//! processor can, fall back to the grouping technique (pair the operator
//! with the child or parent it exchanges the most data with, selling back
//! the neighbour's processor if it had one).

use rand::RngCore;
use snsp_telemetry::Span;

use super::common::{GroupBuilder, HeuristicError, KindPolicy, PlacedOps, PlacementOptions};
use super::Heuristic;
use crate::instance::Instance;

/// The random placement baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Random;

/// Times every [`Random`] placement (overlay: one relaxed load while
/// telemetry is off).
static PLACE_SPAN: Span = Span::new("heuristics.place.random");

impl Heuristic for Random {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn place(
        &self,
        inst: &Instance,
        rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError> {
        use rand::Rng;
        let _span = PLACE_SPAN.start();
        let mut builder = GroupBuilder::new(inst, *opts);
        // The pool mirrors `builder.unassigned()` (ascending id order, so
        // the RNG draws are unchanged) but is maintained in place instead
        // of being rebuilt per placement.
        let mut pool: Vec<crate::ids::OpId> = inst.tree.ops().collect();
        while !pool.is_empty() {
            let op = pool[rng.gen_range(0..pool.len())];
            builder.place_with_grouping(op, KindPolicy::Cheapest)?;
            pool.retain(|&o| builder.is_unassigned(o));
        }
        builder.finish()
    }

    fn prefers_random_servers(&self) -> bool {
        // Paper §4.2: the Random heuristic also selects servers at random.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::test_support::paper_like_instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn places_every_operator() {
        let inst = paper_like_instance(12, 0.9, 7);
        let mut rng = StdRng::seed_from_u64(1);
        let placed = Random
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let total: usize = placed.groups.iter().map(|g| g.ops.len()).sum();
        assert_eq!(total, inst.tree.len());
    }

    #[test]
    fn is_deterministic_for_a_fixed_seed() {
        let inst = paper_like_instance(15, 0.9, 3);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            Random
                .place(&inst, &mut rng, &PlacementOptions::default())
                .unwrap()
                .assignment()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn tends_to_buy_one_processor_per_operator() {
        // With light work and cheap feasibility, Random never consolidates:
        // group count should be close to the operator count.
        let inst = paper_like_instance(16, 0.9, 5);
        let mut rng = StdRng::seed_from_u64(9);
        let placed = Random
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        assert!(placed.groups.len() >= inst.tree.len() / 2);
    }
}
