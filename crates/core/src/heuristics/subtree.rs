//! The `Subtree-Bottom-Up` heuristic (paper §4.1) — the paper's overall
//! winner.
//!
//! First acquire one most-expensive processor per al-operator and assign
//! each al-operator to its own processor. Then walk the tree bottom-up and
//! merge every remaining operator *with its children's processors*,
//! returning processors whenever the union of an operator and all (or
//! some) of its children's groups fits on a single machine — the paper's
//! "tries to merge the operators with their father on a single machine …
//! (possibly returning some processors)". Preference order at each step:
//!
//! 1. the operator plus *all* of its children's groups on one processor
//!    (maximum consolidation, both child edges internalized);
//! 2. the operator plus the child group it exchanges the most data with;
//! 3. the operator plus any other child group;
//! 4. a fresh processor for the operator alone (grouping-technique
//!    fallback included).

use rand::RngCore;
use snsp_telemetry::Span;

use super::common::{GroupBuilder, HeuristicError, KindPolicy, PlacedOps, PlacementOptions};
use super::Heuristic;
use crate::instance::Instance;

/// Bottom-up subtree merging.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubtreeBottomUp;

/// Times every [`SubtreeBottomUp`] placement (overlay: one relaxed load while
/// telemetry is off).
static PLACE_SPAN: Span = Span::new("heuristics.place.subtree-bottom-up");

impl Heuristic for SubtreeBottomUp {
    fn name(&self) -> &'static str {
        "Subtree-Bottom-Up"
    }

    fn place(
        &self,
        inst: &Instance,
        _rng: &mut dyn RngCore,
        opts: &PlacementOptions,
    ) -> Result<PlacedOps, HeuristicError> {
        let _span = PLACE_SPAN.start();
        let mut builder = GroupBuilder::new(inst, *opts);

        // Phase 1: one most-expensive processor per al-operator.
        for al in inst.tree.al_operators() {
            if builder.is_unassigned(al) {
                builder.place_with_grouping(al, KindPolicy::MostExpensive)?;
            }
        }

        // Phase 2: bottom-up, consolidate every operator with its
        // children's processors — including al-operator fathers, which
        // already own a processor from phase 1. Post-order guarantees
        // operator children are already placed.
        let top = inst.platform.catalog.most_expensive();
        for op in inst.tree.postorder() {
            let own = builder.group_of(op);
            let mut targets: Vec<(usize, f64)> = inst
                .tree
                .children(op)
                .iter()
                .filter_map(|&c| builder.group_of(c).map(|g| (g, inst.edge_rate(c))))
                .filter(|&(g, _)| Some(g) != own)
                .collect();
            // Heaviest communication first: merging there saves the most.
            targets.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            targets.dedup_by_key(|t| t.0);
            if targets.is_empty() {
                if own.is_none() {
                    builder.place_with_grouping(op, KindPolicy::MostExpensive)?;
                }
                continue;
            }

            // 1. Full consolidation: op + every child group on one machine.
            // Fast path: when the probe session already holds one of the
            // child groups (the previously consolidated subtree), extend
            // it in place instead of reloading the whole union — the
            // bottom-up walk then costs O(smaller-side) per merge rather
            // than O(union).
            let cached = (own.is_none())
                .then(|| {
                    targets
                        .iter()
                        .position(|&(g, _)| builder.probe_session_is(g))
                })
                .flatten();
            match cached {
                Some(pos) => {
                    builder.probe_add(op);
                    for (i, &(g, _)) in targets.iter().enumerate() {
                        if i != pos {
                            builder.probe_add_group(g);
                        }
                    }
                }
                None => {
                    match own {
                        Some(g) => builder.probe_load_group(g),
                        None => {
                            builder.probe_reset();
                            builder.probe_add(op);
                        }
                    }
                    for &(g, _) in &targets {
                        builder.probe_add_group(g);
                    }
                }
            }
            if builder.probe_fits(top) {
                let keep = match own {
                    Some(g) => g,
                    None => targets[0].0,
                };
                for &(g, _) in &targets {
                    if g != keep {
                        builder.merge_groups(keep, g, top);
                    }
                }
                if own.is_none() {
                    builder.add_to_group(keep, op);
                }
                // The session now equals the consolidated group: keep it
                // hot for the parent's step.
                builder.probe_adopt_group(keep);
                continue;
            }

            // 2./3. Merge with one child group, heaviest edge first. Each
            // iteration begins a fresh probe session (a merge invalidates
            // the previous one).
            let mut placed = own.is_some();
            for &(g, _) in &targets {
                if placed {
                    // Operator already owns a processor: try absorbing one
                    // child group at a time.
                    let g_op = builder.group_of(op).unwrap();
                    builder.probe_load_group(g_op);
                    builder.probe_add_group(g);
                    if builder.probe_fits(top) {
                        builder.merge_groups(g_op, g, top);
                    }
                } else {
                    builder.probe_load_group(g);
                    builder.probe_add(op);
                    if builder.probe_fits(builder.group_kind(g)) {
                        builder.add_to_group(g, op);
                        placed = true;
                        break;
                    }
                }
            }
            // 4. Fresh processor.
            if !placed {
                builder.place_with_grouping(op, KindPolicy::MostExpensive)?;
            }
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
        let inst = paper_like_instance(20, 0.9, 17);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = SubtreeBottomUp
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let total: usize = placed.groups.iter().map(|g| g.ops.len()).sum();
        assert_eq!(total, inst.tree.len());
    }

    #[test]
    fn group_count_tracks_al_operators() {
        let inst = paper_like_instance(30, 0.9, 17);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = SubtreeBottomUp
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let al_count = inst.tree.al_operators().count();
        // Phase 1 opens one group per al-operator; phase 2 only ever adds
        // operators to those groups or opens a few extra ones.
        assert!(placed.groups.len() >= al_count.min(1));
        assert!(placed.groups.len() <= inst.tree.len());
    }

    #[test]
    fn every_non_al_operator_is_colocated_with_a_child_when_light() {
        // At α = 0.9 the capacity constraints are loose, so every internal
        // operator must have been merged with one of its children.
        let inst = paper_like_instance(25, 0.9, 19);
        let mut rng = StdRng::seed_from_u64(0);
        let placed = SubtreeBottomUp
            .place(&inst, &mut rng, &PlacementOptions::default())
            .unwrap();
        let assign = placed.assignment();
        for op in inst.tree.ops() {
            if inst.tree.is_al_operator(op) || inst.tree.children(op).is_empty() {
                continue;
            }
            let merged = inst
                .tree
                .children(op)
                .iter()
                .any(|&c| assign[c.index()] == assign[op.index()]);
            assert!(
                merged,
                "operator {op} should share a processor with a child"
            );
        }
    }
}
