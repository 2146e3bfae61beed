//! The `Comm-Greedy` heuristic (paper §4.1): group the endpoints of the
//! most expensive communications.
//!
//! Tree edges are processed by non-increasing bandwidth `ρ·δ_child`. For
//! each edge the paper distinguishes three cases:
//!
//! 1. both endpoints unassigned → buy the cheapest processor able to run
//!    the pair; if none exists, buy the most expensive processor for each
//!    endpoint separately;
//! 2. one endpoint assigned → try to accommodate the other on the same
//!    processor; otherwise buy the most expensive processor for it;
//! 3. both assigned to different processors → try to consolidate both
//!    groups onto one processor (selling the other); keep the assignment
//!    unchanged if that is impossible.

use rand::RngCore;
use snsp_telemetry::Span;

use super::common::{GroupBuilder, HeuristicError, KindPolicy, PlacedOps, PlacementOptions};
use super::Heuristic;
use crate::ids::OpId;
use crate::instance::Instance;

/// Greedy grouping by communication demand.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommGreedy;

/// Times every [`CommGreedy`] placement (overlay: one relaxed load while
/// telemetry is off).
static PLACE_SPAN: Span = Span::new("heuristics.place.comm-greedy");

impl Heuristic for CommGreedy {
    fn name(&self) -> &'static str {
        "Comm-Greedy"
    }

    fn place(
        &self,
        inst: &Instance,
        _rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError> {
        let _span = PLACE_SPAN.start();
        let mut edges: Vec<(OpId, OpId, f64)> = inst.tree.edges().collect();
        edges.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap().then(a.1.cmp(&b.1)));

        let mut builder = GroupBuilder::new(inst, *opts);
        for &(parent, child, _) in &edges {
            match (builder.group_of(parent), builder.group_of(child)) {
                (None, None) => {
                    builder.probe_reset();
                    builder.probe_add(parent);
                    builder.probe_add(child);
                    if let Some(kind) = builder.probe_cheapest_kind() {
                        builder.create_group(vec![parent, child], kind);
                    } else {
                        // Most expensive processor for each endpoint; the
                        // grouping technique handles endpoints that cannot
                        // even run alone.
                        builder.place_with_grouping(parent, KindPolicy::MostExpensive)?;
                        if builder.is_unassigned(child) {
                            builder.place_with_grouping(child, KindPolicy::MostExpensive)?;
                        }
                    }
                }
                (Some(g), None) => accommodate(&mut builder, g, child)?,
                (None, Some(g)) => accommodate(&mut builder, g, parent)?,
                (Some(ga), Some(gc)) if ga != gc => {
                    builder.probe_load_group(ga);
                    builder.probe_add_group(gc);
                    if let Some(kind) = builder.probe_cheapest_kind() {
                        builder.merge_groups(ga, gc, kind);
                    }
                    // Otherwise: assignment unchanged (paper case iii).
                }
                _ => {} // already together
            }
        }
        // A single-operator tree has no edges; place the root directly.
        if let Some(&op) = builder.unassigned().first() {
            builder.place_with_grouping(op, KindPolicy::Cheapest)?;
        }
        builder.finish()
    }
}

/// Case (ii): try to put `op` on existing group `g`; otherwise buy the most
/// expensive processor for it (with the grouping-technique fallback).
fn accommodate(builder: &mut GroupBuilder<'_>, g: usize, op: OpId) -> Result<(), HeuristicError> {
    builder.probe_load_group(g);
    builder.probe_add(op);
    if builder.probe_fits(builder.group_kind(g)) {
        builder.add_to_group(g, op);
        Ok(())
    } else {
        builder
            .place_with_grouping(op, KindPolicy::MostExpensive)
            .map(|_| ())
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
        let inst = paper_like_instance(20, 0.9, 13);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = CommGreedy
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let total: usize = placed.groups.iter().map(|g| g.ops.len()).sum();
        assert_eq!(total, inst.tree.len());
    }

    #[test]
    fn heaviest_edge_endpoints_share_a_processor_when_possible() {
        let inst = paper_like_instance(20, 0.9, 13);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = CommGreedy
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let assign = placed.assignment();
        // The heaviest edge is processed first with both endpoints free, so
        // unless even a pair does not fit (not the case at α = 0.9) they
        // are co-located.
        let (p, c, _) = inst
            .tree
            .edges()
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        assert_eq!(assign[p.index()], assign[c.index()]);
    }

    #[test]
    fn handles_single_operator_trees() {
        let inst = paper_like_instance(1, 0.9, 13);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = CommGreedy
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        assert_eq!(placed.groups.len(), 1);
    }

    #[test]
    fn consolidates_compared_to_random_like_splitting() {
        let inst = paper_like_instance(30, 0.9, 5);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = CommGreedy
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        assert!(placed.groups.len() < inst.tree.len());
    }
}
