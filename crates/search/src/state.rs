//! The mutable refinement state: a grouping under local search, screened
//! from cached per-group totals and committed only after a full
//! constraint check.
//!
//! ## Screen, then verify
//!
//! Each post-move group of a structural move is a set `(g − X) ∪ Y`: a
//! live group `g` (or none) minus the operators leaving it plus those
//! joining it. A screen prices it from `g`'s cached totals (Σw, per-type
//! member counts, cut-edge rate sum, over-threshold cut edges, traffic
//! toward each neighbouring group) by redoing only the edges incident to
//! `X ∪ Y`: O(moved ops × degree), not O(|g|). Totals are built on first
//! use, and every `apply` drops them all.
//!
//! The totals add in another order than the sequential probe
//! ([`GroupBuilder::probe_add`]), so a float may differ in its last bits.
//! A rounding certificate bounds each difference by 4·k·ε·M (k additions
//! on the longer path, M the quantity's magnitude sum). It accepts a kind
//! only when `cheapest_fitting`, monotone in both needs, returns it at
//! both corners of that box and every traffic value clears the pair-link
//! threshold by more than its bound; integer counts decide exactly.
//! Anything else is priced by the probe on the move's operator list
//! (`search.screen.fallbacks`), so a screen returns exactly the probe's
//! kinds. None of the 322,474 pricings of the three refine grids fell
//! back, and the offline-large job set screened its 21,036 moves in
//! 15–23 ms where re-probing whole groups took 1.8–2.3 s (2-vCPU
//! container). Both counts predate the drivers' stop at the lower
//! bound, which cut the three grids' evaluations (screened moves plus
//! re-route attempts) from 457,691 to 18,316, and offline-large's from
//! 21,036 to 36 re-route attempts.
//!
//! The placement-time pair-link view is conservative across a move's two
//! sides (an excluded member still keys its edges to its old group), so a
//! screened delta is a *candidate*, not a verdict: an accepted move is
//! applied to the builder, the downloads are re-sourced through a
//! [`ServerSelector`], and the whole mapping runs the paper's constraint
//! check before the state commits — on any failure the move rolls back
//! exactly. The state is therefore **always a verified feasible
//! solution**, which is what makes the refinement anytime: stopping at
//! any budget returns the best feasible mapping seen.

use std::collections::HashMap;

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

/// Post-move sets whose rounding certificate failed, priced by the
/// sequential probe instead. Registers on first use.
static SCREEN_FALLBACKS: Counter = Counter::new("search.screen.fallbacks", Class::Det);

/// A pricing the rounding certificate could not prove.
struct Uncertain;

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

/// A screened (not yet applied) structural move: the move, the positions
/// it replaces, the kind of each post-move group and the exact
/// platform-cost delta. [`SearchState::apply`] rebuilds the post-move
/// operator lists from the move, which is sound because nothing changes
/// the groups between a screen and its apply.
#[derive(Debug, Clone)]
pub struct Screened {
    /// The screened move.
    pub mv: Move,
    /// Positions in the state's group order that this move replaces.
    pub affected: Vec<usize>,
    /// Catalog kind of each replacement group (in `apply`'s order), each
    /// the cheapest fitting kind.
    pub kinds: Vec<usize>,
    /// Σ new kind costs − Σ old kind costs, in dollars.
    pub delta: i64,
}

/// Operators a post-move set gains or loses; membership is O(1).
#[derive(Debug, Clone, Copy)]
enum Part {
    Empty,
    Op(OpId),
    /// Every member of the group at this position.
    Group(usize),
    /// The members of group `g` in `pivot`'s subtree.
    Under {
        g: usize,
        pivot: OpId,
    },
}

/// One post-move set `(base − x) ∪ y`: `x` lies inside `base`, `y`
/// outside it.
#[derive(Debug, Clone, Copy)]
struct Set {
    base: Option<usize>,
    x: Part,
    y: Part,
}

/// The scalars a probe session accumulates over an operator set, plus
/// the magnitude sums (Σ|term|) and the addition count the rounding
/// certificate needs.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    work: f64,
    download: f64,
    /// Σ cut-edge rates.
    comm: f64,
    /// Distinct needed types that are undownloadable.
    undown: i64,
    /// Cut edges above the pair-link threshold.
    cut_over: i64,
    work_mag: f64,
    down_mag: f64,
    /// Σ of every member's incident edge rates.
    edge_mag: f64,
    adds: usize,
}

/// One live group's sums, per-type member counts and traffic toward
/// each neighbouring group (ascending by position).
#[derive(Debug)]
struct Totals {
    sums: Sums,
    type_count: Vec<u32>,
    traffic: Vec<(usize, f64)>,
    /// Neighbouring groups receiving more than the threshold.
    traffic_over: i64,
    /// min |traffic − threshold| over `traffic` (∞ when empty).
    margin: f64,
}

/// The local-search state over one instance.
pub struct SearchState<'a> {
    inst: &'a Instance,
    builder: GroupBuilder<'a>,
    /// Builder ids of the live groups, in presentation order — position
    /// `g` here becomes `ProcId(g)` in every verified mapping, so the
    /// whole trajectory is deterministic.
    order: Vec<usize>,
    /// Operator → position of its group in `order`.
    op_pos: Vec<usize>,
    /// Lazily built totals per position; every `apply` drops them all.
    totals: Vec<Option<Totals>>,
    /// Traffic per group position while pricing; empty in between.
    traffic: HashMap<usize, f64>,
    numbering: Numbering,
    /// `proc_link + 1e-9`, the probe's pair-link threshold.
    bp_thresh: f64,
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
            op_pos: vec![0; inst.tree.len()],
            totals: Vec::new(),
            traffic: HashMap::new(),
            numbering: Numbering::new(inst),
            bp_thresh: inst.platform.proc_link + 1e-9,
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
        for (g, &bid) in self.order.iter().enumerate() {
            for &op in self.builder.group_ops(bid) {
                self.op_pos[op.index()] = g;
            }
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
    #[inline]
    pub fn group_of(&self, op: OpId) -> usize {
        self.op_pos[op.index()]
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
    fn price_set(&mut self, ops: &[OpId]) -> Option<usize> {
        self.builder.probe_reset();
        for &op in ops {
            self.builder.probe_add(op);
        }
        self.builder.probe_cheapest_kind()
    }

    /// Screens a structural move (everything but `Reroute`): the exact
    /// CPU/NIC-priced cost delta, or `None` when some post-move group
    /// fits no catalog kind or the move is a no-op.
    pub fn screen(&mut self, mv: &Move) -> Option<Screened> {
        telemetry_for(mv).screened.incr();
        let (affected, sets) = self.post_move_sets(mv)?;
        let mut kinds = Vec::with_capacity(sets.len());
        for set in &sets {
            let kind = match self.price(set) {
                Ok(kind) => kind,
                Err(Uncertain) => {
                    SCREEN_FALLBACKS.incr();
                    let ops = self.ops_of(set);
                    self.price_set(&ops)
                }
            };
            kinds.push(kind?);
        }
        if let Move::Retarget { g } = *mv {
            if kinds[0] == self.group_kind(g) {
                return None;
            }
        }
        let new: i64 = kinds.iter().map(|&k| self.kind_cost(k)).sum();
        let old: i64 = affected
            .iter()
            .map(|&g| self.kind_cost(self.group_kind(g)))
            .sum();
        Some(Screened {
            mv: *mv,
            affected,
            kinds,
            delta: new - old,
        })
    }

    /// The positions `mv` replaces and its post-move sets, in `apply`'s
    /// order; `None` for a no-op.
    fn post_move_sets(&self, mv: &Move) -> Option<(Vec<usize>, Vec<Set>)> {
        let size = |g: usize| self.group_ops(g).len();
        let set = |base, x, y| Set { base, x, y };
        Some(match *mv {
            Move::Retarget { g } => (vec![g], vec![set(Some(g), Part::Empty, Part::Empty)]),
            Move::Merge { a, b } if a != b => {
                (vec![a, b], vec![set(Some(a), Part::Empty, Part::Group(b))])
            }
            Move::Reassign { op, to } => {
                let a = self.group_of(op);
                let source = set(Some(a), Part::Op(op), Part::Empty);
                match to {
                    Target::Group(b) if b == a => return None,
                    // A one-op source dissolves: a merge in reassign
                    // clothing.
                    Target::Group(b) if size(a) == 1 => {
                        (vec![a, b], vec![set(Some(b), Part::Empty, Part::Op(op))])
                    }
                    Target::Group(b) => (
                        vec![a, b],
                        vec![source, set(Some(b), Part::Empty, Part::Op(op))],
                    ),
                    Target::Fresh if size(a) == 1 => return None, // already alone
                    Target::Fresh => (vec![a], vec![source, set(None, Part::Empty, Part::Op(op))]),
                }
            }
            Move::Swap { a: x, b: y } => {
                let (a, b) = (self.group_of(x), self.group_of(y));
                // Swapping singletons relabels the partition.
                if a == b || (size(a) == 1 && size(b) == 1) {
                    return None;
                }
                (
                    vec![a, b],
                    vec![
                        set(Some(a), Part::Op(x), Part::Op(y)),
                        set(Some(b), Part::Op(y), Part::Op(x)),
                    ],
                )
            }
            Move::Split { g, pivot } => {
                let sub = Part::Under { g, pivot };
                let mut n_sub = 0;
                self.for_each_member(sub, |_| n_sub += 1);
                if n_sub == 0 || n_sub == size(g) {
                    return None;
                }
                (
                    vec![g],
                    vec![set(Some(g), sub, Part::Empty), set(None, Part::Empty, sub)],
                )
            }
            // A self-merge is a no-op; `Reroute` goes through `try_reroute`.
            Move::Merge { .. } | Move::Reroute { .. } => return None,
        })
    }

    /// The operators of `set` in the order the builder and the sequential
    /// probe see them: the base's members in place, then the joiners.
    fn ops_of(&self, set: &Set) -> Vec<OpId> {
        let base = set.base.map_or(&[][..], |g| self.group_ops(g));
        let mut ops: Vec<OpId> = base
            .iter()
            .copied()
            .filter(|&o| !self.contains(set.x, o))
            .collect();
        match set.y {
            Part::Empty => {}
            Part::Op(o) => ops.push(o),
            Part::Group(h) => ops.extend_from_slice(self.group_ops(h)),
            Part::Under { g, .. } => ops.extend(
                self.group_ops(g)
                    .iter()
                    .filter(|&&o| self.contains(set.y, o)),
            ),
        }
        ops
    }

    fn contains(&self, part: Part, op: OpId) -> bool {
        match part {
            Part::Empty => false,
            Part::Op(o) => o == op,
            Part::Group(h) => self.group_of(op) == h,
            Part::Under { g, pivot } => self.numbering.under(pivot, op) && self.group_of(op) == g,
        }
    }

    fn for_each_member(&self, part: Part, mut f: impl FnMut(OpId)) {
        match part {
            Part::Empty => {}
            Part::Op(o) => f(o),
            Part::Group(h) => self.group_ops(h).iter().for_each(|&o| f(o)),
            Part::Under { g, pivot } => {
                for &o in self.numbering.subtree(pivot) {
                    if self.group_of(o) == g {
                        f(o);
                    }
                }
            }
        }
    }

    /// The kind the sequential probe would give `set`, from its base's
    /// totals (built on first use), or `Uncertain`.
    fn price(&mut self, set: &Set) -> Result<Option<usize>, Uncertain> {
        let mut set = *set;
        // A union prices from the larger side's totals.
        if let (Some(a), Part::Empty, Part::Group(b)) = (set.base, set.x, set.y) {
            if self.group_ops(b).len() > self.group_ops(a).len() {
                (set.base, set.y) = (Some(b), Part::Group(a));
            }
        }
        let mut traffic = std::mem::take(&mut self.traffic);
        if let Some(g) = set.base {
            if self.totals.len() < self.order.len() {
                self.totals.resize_with(self.order.len(), || None);
            }
            if self.totals[g].is_none() {
                let mut sums = Sums::default();
                let mut type_count = vec![0; self.builder.index().n_types()];
                let members = Set {
                    base: None,
                    x: Part::Empty,
                    y: Part::Group(g),
                };
                self.adjust(&mut sums, &mut type_count, &members, &mut traffic);
                let mut traffic: Vec<(usize, f64)> = traffic.drain().collect();
                traffic.sort_unstable_by_key(|e| e.0);
                let thr = self.bp_thresh;
                self.totals[g] = Some(Totals {
                    sums,
                    type_count,
                    traffic_over: traffic.iter().filter(|e| e.1 > thr).count() as i64,
                    margin: traffic
                        .iter()
                        .map(|e| (e.1 - thr).abs())
                        .fold(f64::INFINITY, f64::min),
                    traffic,
                });
            }
        }
        let priced = self.price_from_totals(&set, &mut traffic);
        traffic.clear();
        self.traffic = traffic;
        priced
    }

    /// Moves `s` and `types` from `set.base`'s members to `set`'s, walking
    /// the operators of `set.x` and `set.y` and their incident edges. Each
    /// new cut edge's traffic is keyed to the current group of its
    /// outside end (an op in `x` still belongs to the base), as the probe
    /// keys it.
    fn adjust(
        &self,
        s: &mut Sums,
        types: &mut [u32],
        set: &Set,
        traffic: &mut HashMap<usize, f64>,
    ) {
        let idx = self.builder.index();
        let Set { base, x, y } = *set;
        let in_base = |o: OpId| base == Some(self.group_of(o));
        let in_set = |o: OpId| (in_base(o) && !self.contains(x, o)) || self.contains(y, o);
        for (part, sign) in [(x, -1.0), (y, 1.0)] {
            self.for_each_member(part, |u| {
                s.work += sign * idx.work(u);
                s.work_mag += idx.work(u);
                s.adds += 1 + idx.neighbors(u).len() + idx.op_types(u).len();
                for &ty in idx.op_types(u) {
                    let n = &mut types[ty.index()];
                    *n -= u32::from(sign < 0.0);
                    if *n == 0 {
                        // The type leaves or joins the download set.
                        s.download += sign * idx.type_rate(ty);
                        s.down_mag += idx.type_rate(ty);
                        s.undown += sign as i64 * i64::from(idx.type_undownloadable(ty));
                    }
                    *n += u32::from(sign > 0.0);
                }
                for &(v, rate) in idx.neighbors(u) {
                    s.edge_mag += rate;
                    if v < u && (self.contains(x, v) || self.contains(y, v)) {
                        continue; // adjusted from `v`'s side
                    }
                    let (bu, su) = (in_base(u), in_set(u));
                    let (bv, sv) = (in_base(v), in_set(v));
                    let before = (bu != bv, if bu { v } else { u }, -1.0);
                    let after = (su != sv, if su { v } else { u }, 1.0);
                    for (cut, outside, sign) in [before, after] {
                        if cut {
                            s.comm += sign * rate;
                            s.cut_over += sign as i64 * i64::from(rate > self.bp_thresh);
                            *traffic.entry(self.group_of(outside)).or_default() += sign * rate;
                        }
                    }
                }
            });
        }
    }

    fn price_from_totals(
        &self,
        set: &Set,
        traffic: &mut HashMap<usize, f64>,
    ) -> Result<Option<usize>, Uncertain> {
        let t = set
            .base
            .map(|g| self.totals[g].as_ref().expect("built by `price`"));
        let mut s = t.map_or(Sums::default(), |t| t.sums);
        let mut types = t.map_or_else(
            || vec![0; self.builder.index().n_types()],
            |t| t.type_count.clone(),
        );
        self.adjust(&mut s, &mut types, set, traffic);
        if s.undown > 0 || s.cut_over > 0 {
            return Ok(None);
        }
        // Either path adds at most k terms whose magnitudes sum to at most
        // M, so the two differ by at most about k·ε·M; 4·k·ε·M leaves room
        // for the products, the final sums and the corners' own rounding.
        let k = 2 * s.adds + 2;
        let eps = 4.0 * k as f64 * f64::EPSILON;
        let traffic_bound = eps * s.edge_mag;
        let thr = self.bp_thresh;
        let (mut over, margin) = t.map_or((0, f64::INFINITY), |t| (t.traffic_over, t.margin));
        if margin <= traffic_bound {
            return Err(Uncertain);
        }
        // Order-free: any uncertain key falls back, and `over` is a count.
        for (&h, &d) in traffic.iter() {
            let old = t
                .and_then(|t| {
                    let i = t.traffic.binary_search_by_key(&h, |e| e.0).ok()?;
                    Some(t.traffic[i].1)
                })
                .unwrap_or(0.0);
            let new = old + d;
            if (new - thr).abs() <= traffic_bound {
                return Err(Uncertain);
            }
            over += i64::from(new > thr) - i64::from(old > thr);
        }
        if over > 0 {
            return Ok(None);
        }
        let rho = self.inst.rho;
        let (speed, nic) = (rho * s.work, s.download + s.comm);
        let (ds, dn) = (
            eps * rho.abs() * s.work_mag,
            eps * (s.down_mag + s.edge_mag),
        );
        let catalog = &self.inst.platform.catalog;
        let lo = catalog.cheapest_fitting(speed - ds, nic - dn);
        if lo == catalog.cheapest_fitting(speed + ds, nic + dn) {
            Ok(lo)
        } else {
            Err(Uncertain)
        }
    }

    /// Applies a screened move and verifies the resulting mapping end to
    /// end (download re-sourcing + full constraint check). On failure the
    /// move rolls back exactly and `false` is returned. `salt` seeds the
    /// fallback routings deterministically (pass the eval counter).
    pub fn apply(&mut self, sc: &Screened, salt: u64) -> bool {
        let (_, sets) = self
            .post_move_sets(&sc.mv)
            .expect("a screened move is not a no-op");
        let lists: Vec<Vec<OpId>> = sets.iter().map(|set| self.ops_of(set)).collect();
        // Commit or roll back, positions and neighbour keys change.
        self.totals.clear();
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
        let new_bids: Vec<usize> = lists
            .into_iter()
            .zip(&sc.kinds)
            .map(|(ops, &kind)| self.builder.create_group(ops, kind))
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

/// Post-order numbering of the tree: `op`'s subtree is the contiguous
/// index range ending at `op`'s own index.
struct Numbering {
    post: Vec<u32>,
    size: Vec<u32>,
    by_post: Vec<OpId>,
}

impl Numbering {
    fn new(inst: &Instance) -> Self {
        let by_post = inst.tree.postorder();
        let mut post = vec![0; by_post.len()];
        let mut size = vec![1; by_post.len()];
        for (i, &op) in by_post.iter().enumerate() {
            post[op.index()] = i as u32;
            if let Some(p) = inst.tree.parent(op) {
                size[p.index()] += size[op.index()];
            }
        }
        Numbering {
            post,
            size,
            by_post,
        }
    }

    /// Whether `op` is `pivot` or one of its descendants.
    #[inline]
    fn under(&self, pivot: OpId, op: OpId) -> bool {
        let (p, o) = (self.post[pivot.index()], self.post[op.index()]);
        o <= p && p - o < self.size[pivot.index()]
    }

    /// `pivot`'s subtree, in post-order.
    fn subtree(&self, pivot: OpId) -> &[OpId] {
        let end = self.post[pivot.index()] as usize + 1;
        &self.by_post[end - self.size[pivot.index()] as usize..end]
    }
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
        let bogus = Screened {
            mv: Move::Retarget { g: 0 },
            affected: vec![0],
            kinds: vec![state.instance().platform.catalog.cheapest()],
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
            let union = &state.ops_of(&state.post_move_sets(&mv).unwrap().1[0]);
            let oracle = {
                let b = GroupBuilder::new(&inst, PlacementOptions::default());
                b.cheapest_kind_for(union)
            };
            assert_eq!(Some(sc.kinds[0]), oracle);
        }
    }

    #[test]
    fn split_partitions_are_exact() {
        for (n, seed) in [(20, 3), (45, 8), (90, 1)] {
            let (inst, sol) = start(n, seed);
            let numbering = Numbering::new(&inst);
            let ops: Vec<OpId> = inst.tree.ops().collect();
            for &pivot in &ops {
                let mut size = 0;
                for &op in &ops {
                    let mut cur = Some(op);
                    while cur.is_some_and(|c| c != pivot) {
                        cur = inst.tree.parent(cur.unwrap());
                    }
                    assert_eq!(
                        numbering.under(pivot, op),
                        cur.is_some(),
                        "{op} under {pivot}"
                    );
                    size += usize::from(cur.is_some());
                }
                let sub = numbering.subtree(pivot);
                assert_eq!(sub.len(), size);
                assert!(sub.iter().all(|&op| numbering.under(pivot, op)));
            }
            // A split's two lists partition its group, the pivot's side
            // holding exactly the members under the pivot.
            let state = SearchState::new(&inst, &sol, PlacementOptions::default(), 0);
            for g in 0..state.group_count() {
                for &pivot in state.group_ops(g) {
                    let Some((_, sets)) = state.post_move_sets(&Move::Split { g, pivot }) else {
                        continue;
                    };
                    let (rest, sub) = (state.ops_of(&sets[0]), state.ops_of(&sets[1]));
                    assert_eq!(rest.len() + sub.len(), state.group_ops(g).len());
                    assert!(sub.contains(&pivot));
                    assert!(sub.iter().all(|&op| numbering.under(pivot, op)));
                    assert!(rest.iter().all(|&op| !numbering.under(pivot, op)));
                }
            }
        }
    }
}
