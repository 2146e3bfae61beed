//! The `Object-Availability` heuristic (paper §4.1): schedule scarce
//! objects first.
//!
//! For each object type `k`, `av_k` is the number of servers holding it.
//! Object types are processed by increasing `av_k` (scarcest first); for
//! each type the heuristic packs as many of the al-operators downloading
//! that type as possible onto most-expensive processors. Remaining internal
//! operators are placed like Comp-Greedy (non-increasing `w_i`).
//!
//! ## Cost per step
//!
//! The al-operators needing each type are listed once, in tree order,
//! from [`InstanceIndex::op_types`](crate::index::InstanceIndex::op_types).
//! A type's pass walks its own list only, with a cursor past the prefix
//! already assigned, so opening a group costs the list's unassigned tail,
//! not a filter of every al-operator.
//!
//! The cursor is exact because assignment only grows here: the packing
//! loops only assign, and [`GroupBuilder::place_with_grouping`] re-assigns
//! every operator of each group it dissolves to the group it returns, and
//! restores those groups before it returns an error, which ends the run.
//! So an operator once assigned stays assigned.

use rand::RngCore;
use snsp_telemetry::Span;

use super::common::{GroupBuilder, HeuristicError, KindPolicy, PlacedOps, PlacementOptions};
use super::comp_greedy::{by_decreasing_work, pack_group};
use super::Heuristic;
use crate::ids::{OpId, TypeId};
use crate::instance::Instance;

/// Scarcity-driven grouping of al-operators.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObjectAvailability;

/// Times every [`ObjectAvailability`] placement (overlay: one relaxed load while
/// telemetry is off).
static PLACE_SPAN: Span = Span::new("heuristics.place.object-availability");

impl Heuristic for ObjectAvailability {
    fn name(&self) -> &'static str {
        "Object-Availability"
    }

    fn place(
        &self,
        inst: &Instance,
        _rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError> {
        let _span = PLACE_SPAN.start();
        // Object types used by the tree, scarcest first.
        let mut types: Vec<TypeId> = inst.tree.used_types();
        types.sort_by_key(|&t| (inst.platform.placement.availability(t), t));

        let mut builder = GroupBuilder::new(inst, *opts);
        let mut needing: Vec<Vec<OpId>> = vec![Vec::new(); builder.index().n_types()];
        for op in inst.tree.al_operators() {
            for ty in builder.index().op_types(op) {
                needing[ty.index()].push(op);
            }
        }
        for ty in types {
            let pending = &needing[ty.index()];
            // `pending[..next]` are all assigned (see the module doc).
            let mut next = 0;
            loop {
                next += pending[next..]
                    .iter()
                    .take_while(|&&op| !builder.is_unassigned(op))
                    .count();
                let Some((&seed, rest)) = pending[next..].split_first() else {
                    break;
                };
                next += 1;
                let g = builder.place_with_grouping(seed, KindPolicy::MostExpensive)?;
                let kind = builder.group_kind(g);
                builder.probe_load_group(g);
                for &op in rest {
                    if !builder.is_unassigned(op) {
                        continue;
                    }
                    builder.probe_add(op);
                    if builder.probe_fits(kind) {
                        builder.add_to_group(g, op);
                    } else {
                        builder.probe_undo();
                    }
                }
            }
        }

        // Remaining internal operators: Comp-Greedy style.
        let work_order = by_decreasing_work(inst);
        while let Some(&seed) = work_order.iter().find(|&&op| builder.is_unassigned(op)) {
            let g = builder.place_with_grouping(seed, KindPolicy::MostExpensive)?;
            pack_group(&mut builder, g, &work_order);
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
    fn places_every_operator() {
        let inst = paper_like_instance(20, 0.9, 29);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = ObjectAvailability
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let total: usize = placed.groups.iter().map(|g| g.ops.len()).sum();
        assert_eq!(total, inst.tree.len());
    }

    #[test]
    fn al_operators_of_the_scarcest_type_share_processors() {
        let inst = paper_like_instance(40, 0.9, 29);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = ObjectAvailability
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        // At α = 0.9 capacity is loose: the al-operators needing the
        // scarcest used type should end up on few processors.
        let mut types = inst.tree.used_types();
        types.sort_by_key(|&t| inst.platform.placement.availability(t));
        let scarce = types[0];
        let assign = placed.assignment();
        let needing: Vec<OpId> = inst
            .tree
            .al_operators()
            .filter(|&op| inst.tree.leaf_types(op).contains(&scarce))
            .collect();
        let procs: std::collections::BTreeSet<_> =
            needing.iter().map(|op| assign[op.index()]).collect();
        let count = needing.len();
        assert!(procs.len() <= count, "sanity");
        if count >= 2 {
            assert!(procs.len() < count, "scarce-type al-operators should group");
        }
    }
}
