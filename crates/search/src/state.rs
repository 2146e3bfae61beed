//! The mutable refinement state: a grouping under local search, screened
//! through `GroupBuilder` probe sessions and committed only after a full
//! constraint check.
//!
//! ## Screen, then verify
//!
//! Every candidate move is **screened** allocation-light through the
//! incremental demand engine: the affected groups' post-move operator
//! sets are replayed into probe sessions ([`GroupBuilder::probe_load_group`]
//! / [`probe_add`](GroupBuilder::probe_add)) and priced with
//! [`probe_cheapest_kind`](GroupBuilder::probe_cheapest_kind), giving the
//! exact per-processor CPU/NIC delta in O(affected-group size + degree).
//! The placement-time pair-link view is conservative across a move's two
//! sides (an excluded member still keys its edges to its old group), so a
//! screened delta is a *candidate*, not a verdict: an accepted move is
//! applied to the builder, the downloads are re-sourced through a
//! [`ServerSelector`], and the whole mapping runs the paper's constraint
//! check before the state commits — on any failure the move rolls back
//! exactly. The state is therefore **always a verified feasible
//! solution**, which is what makes the refinement anytime: stopping at
//! any budget returns the best feasible mapping seen.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snsp_core::constraints;
use snsp_core::heuristics::{
    GroupBuilder, PlacedGroup, PlacedOps, PlacementOptions, ServerSelector, ServerStrategy,
    Solution,
};
use snsp_core::ids::OpId;
use snsp_core::instance::Instance;
use snsp_core::mapping::Download;
use snsp_telemetry::{Class, Counter, Histogram};

use crate::moves::{Move, Target};

/// The screened / accepted / verify-rejected counter triple of one move
/// type. Det-class: every driver is single-threaded and a pure function
/// of its seed, and campaign-level totals are sums over independent
/// jobs — commutative, hence worker-count-independent.
pub(crate) struct MoveTelemetry {
    /// Candidates priced through [`SearchState::screen`] (or, for
    /// reroute, routings tried through [`SearchState::try_reroute`]).
    pub(crate) screened: Counter,
    /// Moves committed after the full constraint check.
    pub(crate) accepted: Counter,
    /// Moves rejected by verification (or a reroute that failed to
    /// strictly reduce the peak server load) — rolled back.
    pub(crate) rejected: Counter,
}

impl MoveTelemetry {
    const fn new(screened: &'static str, accepted: &'static str, rejected: &'static str) -> Self {
        MoveTelemetry {
            screened: Counter::new(screened, Class::Det),
            accepted: Counter::new(accepted, Class::Det),
            rejected: Counter::new(rejected, Class::Det),
        }
    }
}

static TM_RETARGET: MoveTelemetry = MoveTelemetry::new(
    "search.screened.retarget",
    "search.accepted.retarget",
    "search.rejected.retarget",
);
static TM_MERGE: MoveTelemetry = MoveTelemetry::new(
    "search.screened.merge",
    "search.accepted.merge",
    "search.rejected.merge",
);
static TM_REASSIGN: MoveTelemetry = MoveTelemetry::new(
    "search.screened.reassign",
    "search.accepted.reassign",
    "search.rejected.reassign",
);
static TM_SWAP: MoveTelemetry = MoveTelemetry::new(
    "search.screened.swap",
    "search.accepted.swap",
    "search.rejected.swap",
);
static TM_SPLIT: MoveTelemetry = MoveTelemetry::new(
    "search.screened.split",
    "search.accepted.split",
    "search.rejected.split",
);
static TM_REROUTE: MoveTelemetry = MoveTelemetry::new(
    "search.screened.reroute",
    "search.accepted.reroute",
    "search.rejected.reroute",
);

/// Seeded random download routings tried when the deterministic
/// three-pass server selection cannot source a candidate state's streams.
const REROUTE_ATTEMPTS: u64 = 2;

/// Exact rollbacks performed by [`SearchState::apply`] after a failed
/// verification (one per rejected structural move).
static SEARCH_ROLLBACKS: Counter = Counter::new("search.rollbacks", Class::Det);

/// Verified cost after each committed move — the cost-over-evals curve
/// as a sample distribution (the snapshot sorts samples, so the curve's
/// multiset is deterministic even when jobs interleave).
static SEARCH_COST: Histogram = Histogram::new("search.cost_over_evals", Class::Det);

/// The telemetry triple for `mv`'s move type.
pub(crate) fn telemetry_for(mv: &Move) -> &'static MoveTelemetry {
    match mv {
        Move::Retarget { .. } => &TM_RETARGET,
        Move::Merge { .. } => &TM_MERGE,
        Move::Reassign { .. } => &TM_REASSIGN,
        Move::Swap { .. } => &TM_SWAP,
        Move::Split { .. } => &TM_SPLIT,
        Move::Reroute { .. } => &TM_REROUTE,
    }
}

/// Counters describing one refinement run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefineStats {
    /// Cost of the starting solution.
    pub start_cost: u64,
    /// Cost of the returned solution (≤ `start_cost` by construction).
    pub final_cost: u64,
    /// Moves screened (plus annealing proposals) — the budget consumed.
    pub evals: u64,
    /// Moves that passed screening, verification and were committed.
    pub accepted: u64,
    /// Moves whose screened delta was accepted but whose full constraint
    /// check (or download re-sourcing) failed — rolled back.
    pub verify_rejected: u64,
    /// Download re-routings committed (peak-server-load reductions).
    pub rerouted: u64,
}

impl RefineStats {
    /// `start_cost − final_cost` (0 when no improvement was found).
    pub fn saving(&self) -> u64 {
        self.start_cost.saturating_sub(self.final_cost)
    }
}

/// A screened (not yet applied) structural move: the replacement groups
/// for the affected positions, and the exact platform-cost delta.
#[derive(Debug, Clone)]
pub struct Screened {
    /// Positions in the state's group order that this move replaces.
    pub affected: Vec<usize>,
    /// Replacement groups (operator set + catalog kind), each priced at
    /// its cheapest fitting kind during screening.
    pub new_groups: Vec<(Vec<OpId>, usize)>,
    /// Σ new kind costs − Σ old kind costs, in dollars.
    pub delta: i64,
}

/// The local-search state over one instance.
pub struct SearchState<'a> {
    inst: &'a Instance,
    builder: GroupBuilder<'a>,
    /// Builder ids of the live groups, in presentation order — position
    /// `g` here becomes `ProcId(g)` in every verified mapping, so the
    /// whole trajectory is deterministic.
    order: Vec<usize>,
    /// Builder group id → position in `order` (`usize::MAX` = dead).
    pos_of: Vec<usize>,
    selector: ServerSelector,
    /// Download routing policy: `None` = the deterministic three-pass
    /// selection, `Some(seed)` = seeded random selection (a committed
    /// `Reroute`).
    route_seed: Option<u64>,
    /// Downloads of the current verified state.
    downloads: Vec<Download>,
    /// Scratch for candidate routings.
    route_scratch: Vec<Download>,
    /// Cost of the current verified state.
    cost: u64,
    /// Peak relative server-NIC load of the current verified state (the
    /// `Reroute` objective).
    peak_load: f64,
    /// Base seed for fallback routings.
    route_seed_base: u64,
}

impl<'a> SearchState<'a> {
    /// Builds the state from a verified feasible solution.
    pub fn new(
        inst: &'a Instance,
        start: &Solution,
        placement: PlacementOptions,
        route_seed_base: u64,
    ) -> Self {
        let mut builder = GroupBuilder::new(inst, placement);
        let mut order = Vec::new();
        for (ops, &kind) in start.mapping.groups().iter().zip(&start.mapping.proc_kinds) {
            if !ops.is_empty() {
                order.push(builder.create_group(ops.clone(), kind));
            }
        }
        let downloads = start.mapping.downloads.clone();
        let peak_load = peak_server_load(inst, &downloads);
        let mut state = SearchState {
            inst,
            builder,
            order,
            pos_of: Vec::new(),
            selector: ServerSelector::new(),
            route_seed: None,
            downloads,
            route_scratch: Vec::new(),
            cost: start.cost,
            peak_load,
            route_seed_base,
        };
        state.rebuild_pos();
        state
    }

    fn rebuild_pos(&mut self) {
        self.pos_of.clear();
        self.pos_of.resize(
            self.order.iter().copied().max().unwrap_or(0) + 1,
            usize::MAX,
        );
        for (g, &bid) in self.order.iter().enumerate() {
            self.pos_of[bid] = g;
        }
    }

    /// The instance being refined.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// Number of live groups (purchased processors).
    pub fn group_count(&self) -> usize {
        self.order.len()
    }

    /// Operators of the group at position `g`.
    pub fn group_ops(&self, g: usize) -> &[OpId] {
        self.builder.group_ops(self.order[g])
    }

    /// Catalog kind of the group at position `g`.
    pub fn group_kind(&self, g: usize) -> usize {
        self.builder.group_kind(self.order[g])
    }

    /// Position of the group holding `op`.
    pub fn group_of(&self, op: OpId) -> usize {
        let bid = self.builder.group_of(op).expect("every op is grouped");
        self.pos_of[bid]
    }

    /// Tree neighbours of `op` (with edge rates), via the instance index.
    pub fn neighbors(&self, op: OpId) -> &[(OpId, f64)] {
        self.builder.index().neighbors(op)
    }

    /// Cost of the current verified state.
    pub fn cost(&self) -> u64 {
        self.cost
    }

    /// Peak relative server-NIC load of the current verified state.
    pub fn peak_load(&self) -> f64 {
        self.peak_load
    }

    fn kind_cost(&self, kind: usize) -> i64 {
        self.inst.platform.catalog.kind(kind).cost as i64
    }

    /// Prices an operator set through a fresh probe session: its cheapest
    /// fitting kind, or `None` when not even the top kind fits.
    fn price_set(
        &mut self,
        ops: &[OpId],
        skip: Option<OpId>,
        extra: Option<OpId>,
    ) -> Option<usize> {
        self.builder.probe_reset();
        for &op in ops {
            if Some(op) != skip {
                self.builder.probe_add(op);
            }
        }
        if let Some(op) = extra {
            self.builder.probe_add(op);
        }
        self.builder.probe_cheapest_kind()
    }

    /// Screens a structural move (everything but `Reroute`): the exact
    /// CPU/NIC-priced cost delta, or `None` when some post-move group
    /// fits no catalog kind or the move is a no-op.
    pub fn screen(&mut self, mv: &Move) -> Option<Screened> {
        telemetry_for(mv).screened.incr();
        match *mv {
            Move::Retarget { g } => {
                let bid = self.order[g];
                self.builder.probe_load_group(bid);
                let kind = self.builder.probe_cheapest_kind()?;
                let old = self.builder.group_kind(bid);
                if kind == old {
                    return None;
                }
                Some(Screened {
                    affected: vec![g],
                    new_groups: vec![(self.builder.group_ops(bid).to_vec(), kind)],
                    delta: self.kind_cost(kind) - self.kind_cost(old),
                })
            }
            Move::Merge { a, b } => {
                if a == b {
                    return None;
                }
                let (ba, bb) = (self.order[a], self.order[b]);
                self.builder.probe_load_group(ba);
                self.builder.probe_add_group(bb);
                let kind = self.builder.probe_cheapest_kind()?;
                let mut ops = self.builder.group_ops(ba).to_vec();
                ops.extend_from_slice(self.builder.group_ops(bb));
                let delta = self.kind_cost(kind)
                    - self.kind_cost(self.builder.group_kind(ba))
                    - self.kind_cost(self.builder.group_kind(bb));
                Some(Screened {
                    affected: vec![a, b],
                    new_groups: vec![(ops, kind)],
                    delta,
                })
            }
            Move::Reassign { op, to } => {
                let a = self.group_of(op);
                let ba = self.order[a];
                let a_ops = self.builder.group_ops(ba).to_vec();
                let old_a = self.builder.group_kind(ba);
                match to {
                    Target::Group(b) => {
                        if b == a {
                            return None;
                        }
                        let bb = self.order[b];
                        let old_b = self.builder.group_kind(bb);
                        // Destination side: the existing session grows by
                        // one (the dominant O(degree) pattern).
                        self.builder.probe_load_group(bb);
                        self.builder.probe_add(op);
                        let kind_b = self.builder.probe_cheapest_kind()?;
                        let b_ops: Vec<OpId> = {
                            let mut v = self.builder.group_ops(bb).to_vec();
                            v.push(op);
                            v
                        };
                        if a_ops.len() == 1 {
                            // The source group dissolves: a merge in
                            // reassign clothing.
                            return Some(Screened {
                                affected: vec![a, b],
                                new_groups: vec![(b_ops, kind_b)],
                                delta: self.kind_cost(kind_b)
                                    - self.kind_cost(old_b)
                                    - self.kind_cost(old_a),
                            });
                        }
                        let kind_a = self.price_set(&a_ops, Some(op), None)?;
                        Some(Screened {
                            affected: vec![a, b],
                            new_groups: vec![
                                (a_ops.iter().copied().filter(|&o| o != op).collect(), kind_a),
                                (b_ops, kind_b),
                            ],
                            delta: self.kind_cost(kind_a) + self.kind_cost(kind_b)
                                - self.kind_cost(old_a)
                                - self.kind_cost(old_b),
                        })
                    }
                    Target::Fresh => {
                        if a_ops.len() == 1 {
                            return None; // already alone
                        }
                        let kind_n = self.price_set(&[op], None, None)?;
                        let kind_a = self.price_set(&a_ops, Some(op), None)?;
                        Some(Screened {
                            affected: vec![a],
                            new_groups: vec![
                                (a_ops.iter().copied().filter(|&o| o != op).collect(), kind_a),
                                (vec![op], kind_n),
                            ],
                            delta: self.kind_cost(kind_a) + self.kind_cost(kind_n)
                                - self.kind_cost(old_a),
                        })
                    }
                }
            }
            Move::Swap { a: op_a, b: op_b } => {
                let (a, b) = (self.group_of(op_a), self.group_of(op_b));
                if a == b {
                    return None;
                }
                let (ba, bb) = (self.order[a], self.order[b]);
                let a_ops = self.builder.group_ops(ba).to_vec();
                let b_ops = self.builder.group_ops(bb).to_vec();
                if a_ops.len() == 1 && b_ops.len() == 1 {
                    return None; // swapping singletons relabels the partition
                }
                let kind_a = self.price_set(&a_ops, Some(op_a), Some(op_b))?;
                let kind_b = self.price_set(&b_ops, Some(op_b), Some(op_a))?;
                let new_a: Vec<OpId> = a_ops
                    .iter()
                    .copied()
                    .filter(|&o| o != op_a)
                    .chain(std::iter::once(op_b))
                    .collect();
                let new_b: Vec<OpId> = b_ops
                    .iter()
                    .copied()
                    .filter(|&o| o != op_b)
                    .chain(std::iter::once(op_a))
                    .collect();
                let delta = self.kind_cost(kind_a) + self.kind_cost(kind_b)
                    - self.kind_cost(self.builder.group_kind(ba))
                    - self.kind_cost(self.builder.group_kind(bb));
                Some(Screened {
                    affected: vec![a, b],
                    new_groups: vec![(new_a, kind_a), (new_b, kind_b)],
                    delta,
                })
            }
            Move::Split { g, pivot } => {
                let bid = self.order[g];
                let ops = self.builder.group_ops(bid).to_vec();
                if ops.len() < 2 {
                    return None;
                }
                let (sub, rest) = split_at_pivot(self.inst, &ops, pivot);
                if sub.is_empty() || rest.is_empty() {
                    return None;
                }
                let kind_sub = self.price_set(&sub, None, None)?;
                let kind_rest = self.price_set(&rest, None, None)?;
                let delta = self.kind_cost(kind_sub) + self.kind_cost(kind_rest)
                    - self.kind_cost(self.builder.group_kind(bid));
                Some(Screened {
                    affected: vec![g],
                    new_groups: vec![(rest, kind_rest), (sub, kind_sub)],
                    delta,
                })
            }
            Move::Reroute { .. } => None, // routed through `try_reroute`
        }
    }

    /// Applies a screened move and verifies the resulting mapping end to
    /// end (download re-sourcing + full constraint check). On failure the
    /// move rolls back exactly and `false` is returned. `salt` seeds the
    /// fallback routings deterministically (pass the eval counter).
    pub fn apply(&mut self, sc: &Screened, salt: u64) -> bool {
        // Snapshot the originals for rollback.
        let orig: Vec<(usize, Vec<OpId>, usize)> = sc
            .affected
            .iter()
            .map(|&pos| {
                let bid = self.order[pos];
                (
                    pos,
                    self.builder.group_ops(bid).to_vec(),
                    self.builder.group_kind(bid),
                )
            })
            .collect();
        let old_order = self.order.clone();

        for &pos in &sc.affected {
            self.builder.dissolve_group(self.order[pos]);
        }
        let new_bids: Vec<usize> = sc
            .new_groups
            .iter()
            .map(|(ops, kind)| self.builder.create_group(ops.clone(), *kind))
            .collect();

        // Rewrite the order: replacements take the affected positions in
        // order; a shrinking move (merge) drops the surplus positions, a
        // growing one (split, fresh group) appends at the end.
        let k = sc.affected.len().min(new_bids.len());
        for (&pos, &bid) in sc.affected.iter().zip(&new_bids) {
            self.order[pos] = bid;
        }
        if sc.affected.len() > k {
            let mut drop: Vec<usize> = sc.affected[k..].to_vec();
            drop.sort_unstable_by(|a, b| b.cmp(a));
            for pos in drop {
                self.order.remove(pos);
            }
        }
        for &bid in &new_bids[k..] {
            self.order.push(bid);
        }
        self.rebuild_pos();

        if self.verify(salt) {
            self.cost = self
                .order
                .iter()
                .map(|&bid| self.kind_cost(self.builder.group_kind(bid)) as u64)
                .sum();
            SEARCH_COST.record(self.cost as f64);
            return true;
        }
        SEARCH_ROLLBACKS.incr();

        // Roll back: dissolve the replacements, recreate the originals in
        // their old positions (fresh builder ids, same contents).
        for bid in new_bids {
            self.builder.dissolve_group(bid);
        }
        self.order = old_order;
        for (pos, ops, kind) in orig {
            let fresh = self.builder.create_group(ops, kind);
            self.order[pos] = fresh;
        }
        self.rebuild_pos();
        false
    }

    /// The current grouping as `PlacedOps` (presentation order).
    fn placed(&self) -> PlacedOps {
        let groups: Vec<PlacedGroup> = self
            .order
            .iter()
            .map(|&bid| PlacedGroup {
                ops: self.builder.group_ops(bid).to_vec(),
                kind: self.builder.group_kind(bid),
            })
            .collect();
        PlacedOps::from_groups(groups, self.inst.tree.len())
    }

    /// Re-sources downloads and runs the full constraint check for the
    /// current grouping; commits downloads/peak-load and returns `true`
    /// on the first routing policy that verifies. The grouping is
    /// flattened once — per-policy attempts only clone the two flat
    /// kind/assignment vectors, not the nested group structure.
    fn verify(&mut self, salt: u64) -> bool {
        let placed = self.placed();
        let kinds: Vec<usize> = placed.groups.iter().map(|g| g.kind).collect();
        let assignment = placed.assignment();
        let mut policies: Vec<Option<u64>> = vec![self.route_seed];
        if self.route_seed.is_some() {
            policies.push(None);
        }
        for k in 0..REROUTE_ATTEMPTS {
            policies.push(Some(
                self.route_seed_base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k,
            ));
        }
        for policy in policies {
            if self.route_with(&placed, &kinds, &assignment, policy) {
                self.route_seed = policy;
                return true;
            }
        }
        false
    }

    /// Tries one routing policy against the current grouping; on success
    /// commits downloads + peak load (recycling the previous download
    /// buffer as routing scratch).
    fn route_with(
        &mut self,
        placed: &PlacedOps,
        kinds: &[usize],
        assignment: &[snsp_core::ids::ProcId],
        policy: Option<u64>,
    ) -> bool {
        let strategy = match policy {
            None => ServerStrategy::ThreeLoop,
            Some(_) => ServerStrategy::Random,
        };
        let mut rng = StdRng::seed_from_u64(policy.unwrap_or(0));
        if self
            .selector
            .select_into(
                self.inst,
                placed,
                strategy,
                &mut rng,
                &mut self.route_scratch,
            )
            .is_err()
        {
            return false;
        }
        let mapping = snsp_core::mapping::Mapping::new(
            kinds.to_vec(),
            assignment.to_vec(),
            std::mem::take(&mut self.route_scratch),
        );
        if !constraints::check(self.inst, &mapping).is_empty() {
            self.route_scratch = mapping.downloads;
            return false;
        }
        self.peak_load = peak_server_load(self.inst, &mapping.downloads);
        self.route_scratch = std::mem::replace(&mut self.downloads, mapping.downloads);
        true
    }

    /// The `Reroute` move: re-sources every download with the seeded
    /// random policy and commits iff the mapping verifies **and** the
    /// peak relative server-NIC load strictly drops (cost cannot change —
    /// downloads are free; balancing them is the secondary objective).
    pub fn try_reroute(&mut self, seed: u64) -> bool {
        TM_REROUTE.screened.incr();
        let placed = self.placed();
        let kinds: Vec<usize> = placed.groups.iter().map(|g| g.kind).collect();
        let assignment = placed.assignment();
        let before_peak = self.peak_load;
        let before_downloads = self.downloads.clone();
        let before_seed = self.route_seed;
        if self.route_with(&placed, &kinds, &assignment, Some(seed))
            && self.peak_load < before_peak - 1e-12
        {
            self.route_seed = Some(seed);
            TM_REROUTE.accepted.incr();
            return true;
        }
        self.downloads = before_downloads;
        self.peak_load = peak_server_load(self.inst, &self.downloads);
        self.route_seed = before_seed;
        TM_REROUTE.rejected.incr();
        false
    }

    /// The current verified state as a `Solution`.
    pub fn solution(&self, heuristic: &'static str) -> Solution {
        let mapping = self.placed().into_mapping(self.downloads.clone());
        Solution {
            mapping,
            cost: self.cost,
            heuristic,
        }
    }
}

/// Peak per-server download load relative to the server NIC.
fn peak_server_load(inst: &Instance, downloads: &[Download]) -> f64 {
    let mut load = vec![0.0f64; inst.platform.servers.len()];
    for d in downloads {
        load[d.server.index()] += inst.object_rate(d.ty);
    }
    load.iter()
        .enumerate()
        .map(|(s, l)| l / inst.platform.servers[s].nic_bandwidth.max(1e-12))
        .fold(0.0, f64::max)
}

/// Partitions `ops` into (descendants-or-self of `pivot`, the rest).
fn split_at_pivot(inst: &Instance, ops: &[OpId], pivot: OpId) -> (Vec<OpId>, Vec<OpId>) {
    let mut sub = Vec::new();
    let mut rest = Vec::new();
    for &op in ops {
        let mut cur = Some(op);
        let mut under = false;
        while let Some(c) = cur {
            if c == pivot {
                under = true;
                break;
            }
            cur = inst.tree.parent(c);
        }
        if under {
            sub.push(op);
        } else {
            rest.push(op);
        }
    }
    (sub, rest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snsp_core::heuristics::{solve, PipelineOptions, SubtreeBottomUp};
    use snsp_gen::{generate, ScenarioParams, TreeShape};

    fn start(n: usize, seed: u64) -> (Instance, Solution) {
        let inst = generate(&ScenarioParams::paper(n, 0.9), TreeShape::Random, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let sol = solve(
            &SubtreeBottomUp,
            &inst,
            &mut rng,
            &PipelineOptions::default(),
        )
        .expect("start is feasible");
        (inst, sol)
    }

    #[test]
    fn state_round_trips_the_start_solution() {
        let (inst, sol) = start(24, 5);
        let state = SearchState::new(&inst, &sol, PlacementOptions::default(), 0);
        assert_eq!(state.cost(), sol.cost);
        let back = state.solution(sol.heuristic);
        assert_eq!(back.cost, sol.cost);
        assert!(constraints::is_feasible(&inst, &back.mapping));
        // Every operator is grouped and positions are consistent.
        for op in inst.tree.ops() {
            let g = state.group_of(op);
            assert!(state.group_ops(g).contains(&op));
        }
    }

    #[test]
    fn rejected_apply_rolls_back_exactly() {
        let (inst, sol) = start(24, 7);
        let mut state = SearchState::new(&inst, &sol, PlacementOptions::default(), 0);
        let cost = state.cost();
        let groups_before: Vec<Vec<OpId>> = (0..state.group_count())
            .map(|g| state.group_ops(g).to_vec())
            .collect();
        // A deliberately broken "move": retarget group 0 to the cheapest
        // catalog kind unconditionally — usually infeasible, so verify
        // must reject and roll back.
        let g0_ops = state.group_ops(0).to_vec();
        let bogus = Screened {
            affected: vec![0],
            new_groups: vec![(g0_ops, state.instance().platform.catalog.cheapest())],
            delta: -1,
        };
        let applied = state.apply(&bogus, 0);
        if !applied {
            assert_eq!(state.cost(), cost);
            let groups_after: Vec<Vec<OpId>> = (0..state.group_count())
                .map(|g| state.group_ops(g).to_vec())
                .collect();
            assert_eq!(groups_before, groups_after, "rollback restores groups");
            let back = state.solution(sol.heuristic);
            assert!(constraints::is_feasible(&inst, &back.mapping));
        }
    }

    #[test]
    fn merge_screening_matches_oracle_pricing() {
        let (inst, sol) = start(30, 11);
        let mut state = SearchState::new(&inst, &sol, PlacementOptions::default(), 0);
        if state.group_count() < 2 {
            return;
        }
        let mv = Move::Merge { a: 0, b: 1 };
        if let Some(sc) = state.screen(&mv) {
            // The screened union kind must equal the oracle's.
            let union = &sc.new_groups[0].0;
            let oracle = {
                let b = GroupBuilder::new(&inst, PlacementOptions::default());
                b.cheapest_kind_for(union)
            };
            assert_eq!(Some(sc.new_groups[0].1), oracle);
        }
    }

    #[test]
    fn split_partitions_are_exact() {
        let (inst, _) = start(20, 3);
        let ops: Vec<OpId> = inst.tree.ops().collect();
        for &pivot in &ops {
            let (sub, rest) = split_at_pivot(&inst, &ops, pivot);
            assert_eq!(sub.len() + rest.len(), ops.len());
            assert!(sub.contains(&pivot));
        }
    }
}
