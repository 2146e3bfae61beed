//! The `Comp-Greedy` heuristic (paper §4.1): most computationally
//! demanding operators first.
//!
//! Operators are sorted by non-increasing `w_i`. While some remain
//! unassigned, the heuristic acquires the most expensive processor, seeds
//! it with the most demanding unassigned operator (falling back to the
//! grouping technique if the operator cannot be handled alone), then packs
//! further unassigned operators onto the processor in non-increasing `w_i`
//! order as long as they fit.

use rand::RngCore;
use snsp_telemetry::Span;

use super::common::{GroupBuilder, HeuristicError, KindPolicy, PlacedOps, PlacementOptions};
use super::Heuristic;
use crate::ids::OpId;
use crate::instance::Instance;

/// Greedy packing by computation demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompGreedy;

/// Times every [`CompGreedy`] placement (overlay: one relaxed load while
/// telemetry is off).
static PLACE_SPAN: Span = Span::new("heuristics.place.comp-greedy");

/// Operators sorted by non-increasing work, ties broken by id for
/// determinism.
pub(crate) fn by_decreasing_work(inst: &Instance) -> Vec<OpId> {
    let mut ops: Vec<OpId> = inst.tree.ops().collect();
    ops.sort_by(|&a, &b| {
        inst.tree
            .work(b)
            .partial_cmp(&inst.tree.work(a))
            .unwrap()
            .then(a.cmp(&b))
    });
    ops
}

/// Packs unassigned operators from `order` onto group `g` while they fit
/// on the group's tentative kind. Returns how many were added.
///
/// One probe session covers the whole pass: the group is loaded once,
/// then each candidate costs O(degree + types-of-op) — accepted
/// operators stay in the accumulator, rejected ones are undone exactly.
pub(crate) fn pack_group(builder: &mut GroupBuilder<'_>, g: usize, order: &[OpId]) -> usize {
    let mut added = 0;
    let kind = builder.group_kind(g);
    builder.probe_load_group(g);
    for &op in order {
        if !builder.is_unassigned(op) {
            continue;
        }
        builder.probe_add(op);
        if builder.probe_fits(kind) {
            builder.add_to_group(g, op);
            added += 1;
        } else {
            builder.probe_undo();
        }
    }
    added
}

impl Heuristic for CompGreedy {
    fn name(&self) -> &'static str {
        "Comp-Greedy"
    }

    fn place(
        &self,
        inst: &Instance,
        _rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError> {
        let _span = PLACE_SPAN.start();
        let order = by_decreasing_work(inst);
        let mut builder = GroupBuilder::new(inst, *opts);
        while let Some(&seed) = order.iter().find(|&&op| builder.is_unassigned(op)) {
            let g = builder.place_with_grouping(seed, KindPolicy::MostExpensive)?;
            pack_group(&mut builder, g, &order);
        }
        builder.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::test_support::paper_like_instance;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn order_is_monotone_in_work() {
        let inst = paper_like_instance(20, 1.2, 11);
        let order = by_decreasing_work(&inst);
        assert!(order
            .windows(2)
            .all(|w| inst.tree.work(w[0]) >= inst.tree.work(w[1])));
    }

    #[test]
    fn places_every_operator() {
        let inst = paper_like_instance(20, 0.9, 11);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = CompGreedy
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let total: usize = placed.groups.iter().map(|g| g.ops.len()).sum();
        assert_eq!(total, inst.tree.len());
    }

    #[test]
    fn packs_more_aggressively_than_one_op_per_proc() {
        let inst = paper_like_instance(24, 0.9, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = CompGreedy
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        assert!(
            placed.groups.len() < inst.tree.len(),
            "greedy packing should consolidate at least some operators"
        );
    }

    #[test]
    fn every_group_fits_its_kind() {
        let inst = paper_like_instance(18, 1.5, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = CompGreedy
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        // Rebuild a checker to confirm the recorded kinds still fit.
        let builder = GroupBuilder::new(&inst, PlacementOptions::default());
        for g in &placed.groups {
            let demand = builder.demand_of(&g.ops);
            assert!(demand.speed_need(inst.rho) <= inst.platform.catalog.kind(g.kind).speed + 1e-9);
        }
    }
}
