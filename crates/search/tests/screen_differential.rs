//! `SearchState::screen` prices moves from cached per-group totals; these
//! tests hold it to the sequential probe. For every move a sweep
//! enumerates and every move an annealing run proposes, on states reached
//! through accepted moves, the screen must return the kinds and delta of
//! pricing each post-move operator list from scratch with
//! `GroupBuilder::probe_add`, and `None` exactly when a list fits no kind
//! or the move is a no-op.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snsp_core::heuristics::{
    all_heuristics, solve_seeded, GroupBuilder, PipelineOptions, PlacementOptions, Solution,
    SubtreeBottomUp,
};
use snsp_core::ids::OpId;
use snsp_core::instance::Instance;
use snsp_core::platform::{Catalog, CpuOption, NicOption};
use snsp_gen::paper_instance;
use snsp_search::moves::{enumerate, propose};
use snsp_search::{Move, SearchState, Target};

/// The post-move operator lists of `mv` and the positions it replaces,
/// in the member orders the builder holds; `None` for a no-op.
fn post_move_lists(state: &SearchState<'_>, mv: &Move) -> Option<(Vec<usize>, Vec<Vec<OpId>>)> {
    let ops = |g: usize| state.group_ops(g).to_vec();
    let without =
        |g: usize, op: OpId| -> Vec<OpId> { ops(g).into_iter().filter(|&o| o != op).collect() };
    let with = |mut v: Vec<OpId>, op: OpId| {
        v.push(op);
        v
    };
    Some(match *mv {
        Move::Retarget { g } => (vec![g], vec![ops(g)]),
        Move::Merge { a, b } if a != b => (vec![a, b], vec![[ops(a), ops(b)].concat()]),
        Move::Reassign { op, to } => {
            let a = state.group_of(op);
            match to {
                Target::Group(b) if b == a => return None,
                Target::Group(b) if ops(a).len() == 1 => (vec![a, b], vec![with(ops(b), op)]),
                Target::Group(b) => (vec![a, b], vec![without(a, op), with(ops(b), op)]),
                Target::Fresh if ops(a).len() == 1 => return None,
                Target::Fresh => (vec![a], vec![without(a, op), vec![op]]),
            }
        }
        Move::Swap { a: x, b: y } => {
            let (a, b) = (state.group_of(x), state.group_of(y));
            if a == b || (ops(a).len() == 1 && ops(b).len() == 1) {
                return None;
            }
            (
                vec![a, b],
                vec![with(without(a, x), y), with(without(b, y), x)],
            )
        }
        Move::Split { g, pivot } => {
            let inst = state.instance();
            let under = |op: OpId| {
                let mut cur = Some(op);
                while cur.is_some_and(|c| c != pivot) {
                    cur = inst.tree.parent(cur.unwrap());
                }
                cur.is_some()
            };
            let (sub, rest): (Vec<OpId>, Vec<OpId>) = ops(g).into_iter().partition(|&o| under(o));
            if sub.is_empty() || rest.is_empty() {
                return None;
            }
            (vec![g], vec![rest, sub])
        }
        _ => return None,
    })
}

/// A builder holding the state's groups, so probe sessions key boundary
/// traffic the way the state's own builder does.
fn mirror<'a>(state: &SearchState<'a>) -> GroupBuilder<'a> {
    let mut b = GroupBuilder::new(state.instance(), PlacementOptions::default());
    for g in 0..state.group_count() {
        b.create_group(state.group_ops(g).to_vec(), state.group_kind(g));
    }
    b
}

/// Prices each list from scratch through the sequential probe.
fn reference(
    state: &SearchState<'_>,
    b: &mut GroupBuilder<'_>,
    mv: &Move,
) -> Option<(Vec<usize>, i64)> {
    let (affected, lists) = post_move_lists(state, mv)?;
    let mut kinds = Vec::new();
    for ops in &lists {
        b.probe_reset();
        for &op in ops {
            b.probe_add(op);
        }
        kinds.push(b.probe_cheapest_kind()?);
    }
    if let Move::Retarget { g } = *mv {
        if kinds[0] == state.group_kind(g) {
            return None;
        }
    }
    let cost = |k: usize| state.instance().platform.catalog.kind(k).cost as i64;
    let delta = kinds.iter().map(|&k| cost(k)).sum::<i64>()
        - affected
            .iter()
            .map(|&g| cost(state.group_kind(g)))
            .sum::<i64>();
    Some((kinds, delta))
}

/// Screens every enumerated move and `proposals` annealing draws against
/// the reference, then commits the first improving move that verifies;
/// repeats for up to `rounds` states. Returns the moves checked.
fn check_trajectory(inst: &Instance, start: &Solution, rounds: usize, proposals: usize) -> usize {
    let mut state = SearchState::new(inst, start, PlacementOptions::default(), 0);
    let mut rng = StdRng::seed_from_u64(start.cost);
    let mut checked = 0;
    for _ in 0..rounds {
        let mut b = mirror(&state);
        let mut moves = enumerate(&state);
        moves.extend((0..proposals).map(|_| propose(&state, &mut rng)));
        let mut improving = Vec::new();
        for mv in moves
            .iter()
            .filter(|mv| !matches!(mv, Move::Reroute { .. }))
        {
            let fast = state.screen(mv);
            let want = reference(&state, &mut b, mv);
            let got = fast.as_ref().map(|sc| (sc.kinds.clone(), sc.delta));
            assert_eq!(got, want, "{mv:?} on {} groups", state.group_count());
            checked += 1;
            improving.extend(fast.filter(|sc| sc.delta < 0));
        }
        if !improving.iter().any(|sc| state.apply(sc, checked as u64)) {
            break;
        }
    }
    checked
}

#[test]
fn screen_matches_the_sequential_probe() {
    let mut checked = 0;
    let mut starts = 0;
    for (n, seed, rounds) in [(20, 1, 6), (60, 2, 4), (150, 3, 3), (300, 4, 2)] {
        let paper = paper_instance(n, 0.9, seed);
        let mut hom = paper.clone();
        hom.platform.catalog = Catalog::homogeneous(4, 4);
        for inst in [&paper, &hom] {
            for h in all_heuristics() {
                let Ok(start) = solve_seeded(h.as_ref(), inst, seed, &PipelineOptions::default())
                else {
                    continue;
                };
                checked += check_trajectory(inst, &start, rounds, 200);
                starts += 1;
            }
        }
    }
    assert!(starts >= 30, "only {starts} feasible starts");
    assert!(checked > 10_000, "only {checked} moves checked");
}

#[test]
fn uncertain_pricing_falls_back_to_the_probe() {
    let mut inst = paper_instance(40, 0.9, 6);
    let mut start = solve_seeded(&SubtreeBottomUp, &inst, 6, &PipelineOptions::default()).unwrap();
    // The probe's own ρ·Σw for group 0 becomes the cheaper kind's speed,
    // to the last bit; any rounding slack must send the screen back to
    // the probe, which picks that kind.
    let ops = start.mapping.groups()[0].clone();
    let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
    b.probe_reset();
    for &op in &ops {
        b.probe_add(op);
    }
    let speed = inst.rho * b.probe_demand().work;
    let cpu = |speed, upgrade_cost| CpuOption {
        speed,
        upgrade_cost,
    };
    let nic = NicOption {
        bandwidth: 1e12,
        upgrade_cost: 0,
    };
    inst.platform.catalog = Catalog::new(vec![cpu(speed, 0), cpu(1e12, 100)], vec![nic], 1);
    start.mapping.proc_kinds.iter_mut().for_each(|k| *k = 1);
    let mut state = SearchState::new(&inst, &start, PlacementOptions::default(), 0);
    let mv = Move::Retarget { g: 0 };
    let (screened, snap) = snsp_telemetry::capture(|| state.screen(&mv));
    let want = reference(&state, &mut mirror(&state), &mv);
    assert_eq!(want, Some((vec![0], -100)));
    assert_eq!(screened.map(|sc| (sc.kinds, sc.delta)), want);
    assert!(snap.counter("search.screen.fallbacks").unwrap_or(0) > 0);
}
