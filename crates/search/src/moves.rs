//! The typed neighborhood: every way one solution can become an adjacent
//! one.
//!
//! Moves follow the tree: an operator only ever moves toward a group
//! holding one of its tree neighbours (or out to a fresh processor), and
//! groups only merge across a shared cut edge — the moves that can
//! actually change communication, which keeps a full sweep at O(N)
//! candidates instead of O(N²).

use rand::rngs::StdRng;
use rand::Rng;

use snsp_core::ids::OpId;

use crate::state::SearchState;

/// Where a reassigned operator lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// An existing group (by position).
    Group(usize),
    /// A freshly purchased processor.
    Fresh,
}

/// One candidate neighborhood move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Move one operator to another (or a fresh) group.
    Reassign {
        /// The operator to move.
        op: OpId,
        /// Its destination.
        to: Target,
    },
    /// Exchange two operators across their groups.
    Swap {
        /// First operator of the exchanged pair.
        a: OpId,
        /// Second operator of the exchanged pair.
        b: OpId,
    },
    /// Merge two tree-adjacent groups onto one processor.
    Merge {
        /// Absorbing group (by position).
        a: usize,
        /// Absorbed group (by position).
        b: usize,
    },
    /// Split one group: the members under `pivot` move to a new
    /// processor.
    Split {
        /// The group to split (by position).
        g: usize,
        /// The member whose subtree leaves for the new processor.
        pivot: OpId,
    },
    /// Re-price one group to its cheapest fitting catalog kind.
    Retarget {
        /// The group to re-price (by position).
        g: usize,
    },
    /// Re-source every download with a seeded random routing, accepted
    /// when it strictly reduces the peak relative server load.
    Reroute {
        /// Deterministic RNG discriminator: attempt `k` of a sweep
        /// always draws the same routing.
        attempt: u32,
    },
}

/// Enumerates one deterministic full sweep of the structural
/// neighborhood, cheap wins first: retargets, then merges (the
/// consolidation moves), then reassigns, swaps and splits.
pub fn enumerate(state: &SearchState<'_>) -> Vec<Move> {
    let inst = state.instance();
    let n_groups = state.group_count();
    let mut moves = Vec::new();

    for g in 0..n_groups {
        moves.push(Move::Retarget { g });
    }

    // Merges across cut edges, each unordered pair once (set-backed
    // dedup: the pair count can reach hundreds on fragmented large-N
    // starts and this runs on every sweep).
    let mut seen: std::collections::BTreeSet<(usize, usize)> = std::collections::BTreeSet::new();
    for op in inst.tree.ops() {
        let ga = state.group_of(op);
        for &(nb, _) in state.neighbors(op) {
            let gb = state.group_of(nb);
            if ga != gb {
                let key = (ga.min(gb), ga.max(gb));
                if seen.insert(key) {
                    moves.push(Move::Merge { a: key.0, b: key.1 });
                }
            }
        }
    }

    for op in inst.tree.ops() {
        let ga = state.group_of(op);
        let mut targets: Vec<usize> = state
            .neighbors(op)
            .iter()
            .map(|&(nb, _)| state.group_of(nb))
            .filter(|&g| g != ga)
            .collect();
        targets.sort_unstable();
        targets.dedup();
        for g in targets {
            moves.push(Move::Reassign {
                op,
                to: Target::Group(g),
            });
        }
        if state.group_ops(ga).len() > 1 {
            moves.push(Move::Reassign {
                op,
                to: Target::Fresh,
            });
        }
    }

    for op in inst.tree.ops() {
        let ga = state.group_of(op);
        for &(nb, _) in state.neighbors(op) {
            let gb = state.group_of(nb);
            if nb > op
                && ga != gb
                && (state.group_ops(ga).len() > 1 || state.group_ops(gb).len() > 1)
            {
                moves.push(Move::Swap { a: op, b: nb });
            }
        }
    }

    for g in 0..n_groups {
        let ops = state.group_ops(g);
        if ops.len() < 2 {
            continue;
        }
        for &pivot in ops {
            // Both sides are non-empty exactly when the pivot's parent
            // shares the group (the parent stays in `rest`).
            if inst
                .tree
                .parent(pivot)
                .is_some_and(|p| state.group_of(p) == g)
            {
                moves.push(Move::Split { g, pivot });
            }
        }
    }

    moves
}

/// Samples one random proposal for the annealing driver: a random
/// operator, then a move type drawn from a fixed distribution over its
/// local neighborhood. Pure function of the RNG stream and the state.
pub fn propose(state: &SearchState<'_>, rng: &mut StdRng) -> Move {
    let inst = state.instance();
    let n = inst.tree.len();
    let op = OpId::from(rng.gen_range(0..n));
    let ga = state.group_of(op);
    let nbs = state.neighbors(op);
    let pick_nb = |rng: &mut StdRng| nbs[rng.gen_range(0..nbs.len())].0;
    match rng.gen_range(0..10u32) {
        // Reassign toward a neighbour's group dominates the mix.
        0..=3 if !nbs.is_empty() => {
            let nb = pick_nb(rng);
            Move::Reassign {
                op,
                to: Target::Group(state.group_of(nb)),
            }
        }
        4 => Move::Reassign {
            op,
            to: Target::Fresh,
        },
        5..=6 if !nbs.is_empty() => {
            let nb = pick_nb(rng);
            Move::Swap { a: op, b: nb }
        }
        7 if !nbs.is_empty() => {
            let nb = pick_nb(rng);
            let gb = state.group_of(nb);
            Move::Merge {
                a: ga.min(gb),
                b: ga.max(gb),
            }
        }
        8 => Move::Split { g: ga, pivot: op },
        9 => Move::Reroute {
            attempt: rng.gen_range(0..u32::MAX),
        },
        _ => Move::Retarget { g: ga },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snsp_core::heuristics::{solve, PipelineOptions, PlacementOptions, SubtreeBottomUp};
    use snsp_gen::{generate, ScenarioParams, TreeShape};

    #[test]
    fn sweep_is_deterministic_and_tree_local() {
        let inst = generate(&ScenarioParams::paper(40, 0.9), TreeShape::Random, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let sol = solve(
            &SubtreeBottomUp,
            &inst,
            &mut rng,
            &PipelineOptions::default(),
        )
        .unwrap();
        let state = SearchState::new(&inst, &sol, PlacementOptions::default(), 0);
        let a = enumerate(&state);
        let b = enumerate(&state);
        assert_eq!(a, b, "enumeration is a pure function of the state");
        assert!(!a.is_empty());
        // Merge moves only cross cut edges.
        for mv in &a {
            if let Move::Merge { a: ga, b: gb } = mv {
                assert!(ga < gb);
                let adjacent = inst.tree.ops().any(|op| {
                    state.group_of(op) == *ga
                        && state
                            .neighbors(op)
                            .iter()
                            .any(|&(nb, _)| state.group_of(nb) == *gb)
                });
                assert!(adjacent, "merge {ga}-{gb} crosses no edge");
            }
        }
    }

    #[test]
    fn proposals_follow_the_seed() {
        let inst = generate(&ScenarioParams::paper(25, 0.9), TreeShape::Random, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let sol = solve(
            &SubtreeBottomUp,
            &inst,
            &mut rng,
            &PipelineOptions::default(),
        )
        .unwrap();
        let state = SearchState::new(&inst, &sol, PlacementOptions::default(), 0);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|_| propose(&state, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds explore differently");
    }
}
