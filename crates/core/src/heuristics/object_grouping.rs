//! The `Object-Grouping` heuristic (paper §4.1): co-locate operators that
//! share popular basic objects.
//!
//! The *popularity* of a basic object is the number of operators that need
//! it. Al-operators are sorted by non-increasing total popularity of their
//! objects; the heuristic repeatedly opens a most-expensive processor,
//! seeds it with the most popular remaining al-operator, packs in other
//! al-operators sharing at least one of the processor's object types
//! (popular first), then as many non-al operators as possible.
//!
//! ## Cost per step
//!
//! Each step costs what it adds, not what the group or the tree already
//! holds:
//!
//! * every operator's popularity is computed once, from
//!   [`InstanceIndex::op_types`], before the sort;
//! * the group's object types are a per-type flag array, seeded from the
//!   group [`GroupBuilder::place_with_grouping`] returns (grouping may
//!   absorb several operators) and extended by each accepted operator's
//!   types;
//! * one cursor, kept for the whole run, skips the prefix of al-operators
//!   already assigned, in the seed search and in every candidate scan.
//!
//! The cursor is exact because assignment only grows here. `add_to_group`
//! and `pack_group` only assign; `place_with_grouping` re-assigns every
//! operator of each group it dissolves to the group it returns, and
//! restores those groups before it returns an error, which ends the run.
//! So an operator once assigned stays assigned, and the assigned prefix
//! only lengthens.

use std::cmp::Reverse;

use rand::RngCore;
use snsp_telemetry::Span;

use super::common::{GroupBuilder, HeuristicError, KindPolicy, PlacedOps, PlacementOptions};
use super::comp_greedy::{by_decreasing_work, pack_group};
use super::Heuristic;
use crate::ids::OpId;
use crate::index::InstanceIndex;
use crate::instance::Instance;

/// Popularity-driven grouping of al-operators.
#[derive(Debug, Clone, Copy, Default)]
pub struct ObjectGrouping;

/// Times every [`ObjectGrouping`] placement (overlay: one relaxed load while
/// telemetry is off).
static PLACE_SPAN: Span = Span::new("heuristics.place.object-grouping");

/// Each operator's popularity: the sum, over its distinct object types,
/// of the number of operators needing that type.
fn op_popularities(index: &InstanceIndex) -> Vec<usize> {
    let ops = || (0..index.n_ops()).map(OpId::from);
    let mut type_pop = vec![0usize; index.n_types()];
    for op in ops() {
        for ty in index.op_types(op) {
            type_pop[ty.index()] += 1;
        }
    }
    ops()
        .map(|op| index.op_types(op).iter().map(|t| type_pop[t.index()]).sum())
        .collect()
}

impl Heuristic for ObjectGrouping {
    fn name(&self) -> &'static str {
        "Object-Grouping"
    }

    fn place(
        &self,
        inst: &Instance,
        _rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError> {
        let _span = PLACE_SPAN.start();
        let mut builder = GroupBuilder::new(inst, *opts);
        let popularity = op_popularities(builder.index());
        let mut al_ops: Vec<OpId> = inst.tree.al_operators().collect();
        al_ops.sort_by_key(|&op| (Reverse(popularity[op.index()]), op));
        let work_order = by_decreasing_work(inst);

        // `al_ops[..next]` are all assigned (see the module doc).
        let mut next = 0;
        let mut group_types = vec![false; builder.index().n_types()];
        loop {
            next += al_ops[next..]
                .iter()
                .take_while(|&&op| !builder.is_unassigned(op))
                .count();
            let Some(&seed) = al_ops.get(next) else {
                break;
            };
            let g = builder.place_with_grouping(seed, KindPolicy::MostExpensive)?;
            group_types.fill(false);
            for &op in builder.group_ops(g) {
                for ty in builder.index().op_types(op) {
                    group_types[ty.index()] = true;
                }
            }

            // Pack al-operators sharing one of the group's object types,
            // most popular first; the type set grows with the group.
            loop {
                let kind = builder.group_kind(g);
                builder.probe_load_group(g);
                next += al_ops[next..]
                    .iter()
                    .take_while(|&&op| !builder.is_unassigned(op))
                    .count();
                let mut accepted = None;
                for &op in &al_ops[next..] {
                    if !builder.is_unassigned(op)
                        || !builder
                            .index()
                            .op_types(op)
                            .iter()
                            .any(|t| group_types[t.index()])
                    {
                        continue;
                    }
                    builder.probe_add(op);
                    if builder.probe_fits(kind) {
                        accepted = Some(op);
                        break;
                    }
                    builder.probe_undo();
                }
                let Some(op) = accepted else {
                    break;
                };
                builder.add_to_group(g, op);
                for ty in builder.index().op_types(op) {
                    group_types[ty.index()] = true;
                }
            }

            // Then as many non-al operators as possible (heaviest first).
            pack_group(&mut builder, g, &work_order);
        }

        // Any internal operators still unassigned get Comp-Greedy
        // treatment: new most-expensive processor + packing.
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
    use crate::ids::TypeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn popularity_counts_operators_not_leaf_slots() {
        let inst = paper_like_instance(15, 0.9, 23);
        let popularity = op_popularities(&InstanceIndex::new(&inst));
        // An operator reading a type from two leaves counts once.
        let needs = |op: OpId, ty: &TypeId| inst.tree.leaf_types(op).contains(ty);
        for op in inst.tree.ops() {
            let mut types = inst.tree.leaf_types(op).to_vec();
            types.sort_unstable();
            types.dedup();
            let by_hand: usize = types
                .iter()
                .map(|ty| inst.tree.ops().filter(|&o| needs(o, ty)).count())
                .sum();
            assert_eq!(popularity[op.index()], by_hand, "{op}");
        }
    }

    #[test]
    fn places_every_operator() {
        let inst = paper_like_instance(20, 0.9, 23);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = ObjectGrouping
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let total: usize = placed.groups.iter().map(|g| g.ops.len()).sum();
        assert_eq!(total, inst.tree.len());
    }

    #[test]
    fn groups_contain_sharing_al_operators() {
        let inst = paper_like_instance(30, 0.9, 23);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = ObjectGrouping
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        // The first group must hold more than one al-operator whenever two
        // al-operators share an object type (overwhelmingly likely with 15
        // types and 30 operators) and capacity allows.
        let max_group = placed.groups.iter().map(|g| g.ops.len()).max().unwrap();
        assert!(max_group > 1);
    }
}
