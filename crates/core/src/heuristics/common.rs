//! Shared machinery for the placement heuristics (paper §4.1).
//!
//! All six heuristics manipulate the same intermediate state: a set of
//! *groups* (operators that will share one purchased processor, each with a
//! tentative catalog kind), built incrementally. [`GroupBuilder`] owns that
//! state and provides the feasibility test every heuristic needs — "can
//! this operator set run on that processor kind at throughput ρ?" — plus
//! the paper's *grouping technique*: when an operator cannot be handled
//! alone, pair it with the child or parent with which it exchanges the most
//! data (selling back the neighbour's processor if it had one).
//!
//! ## The incremental demand engine
//!
//! Every feasibility question bottoms out in a [`Demand`] of some operator
//! set. The original implementation, kept verbatim as [`GroupBuilder::
//! demand_of`], rebuilds that demand from scratch per query — a fresh
//! membership mask, a fresh sort-dedup of leaf types, a fresh per-group
//! traffic vector — making a full heuristic run quadratic-to-cubic in
//! allocations and tree walks. The hot path instead runs on a **probe
//! session**: a persistent accumulator with reusable scratch buffers
//! (membership bitmask, per-type counters, pair-link threshold counters
//! for the cut-edge and group-traffic maxima, a per-group traffic array)
//! updated *per operator* in O(degree + types-of-op) by
//! [`GroupBuilder::probe_add`] / [`GroupBuilder::probe_undo`], against the
//! immutable per-instance aggregates of
//! [`InstanceIndex`].
//!
//! Invariants a session relies on (all probe users in this crate obey
//! them; `debug_assert`s guard the cheap ones):
//!
//! * **LIFO undo** — [`probe_undo`](GroupBuilder::probe_undo) reverts the
//!   most recent un-undone [`probe_add`](GroupBuilder::probe_add), exactly
//!   (scalars restored from snapshots, never re-derived, so rejected
//!   probes leave no floating-point residue).
//! * **Sessions do not span group merges** —
//!   [`merge_groups`](GroupBuilder::merge_groups) re-keys boundary
//!   traffic; a live session
//!   must be re-begun (`probe_reset` / `probe_load_group`) afterwards.
//!   [`dissolve_group`](GroupBuilder::dissolve_group) *is* session-safe:
//!   the dissolved group's pending traffic is forgotten, matching the
//!   oracle's view of its now-unassigned operators.
//! * **Set members keep their assignment** — an operator may join the
//!   builder's groups mid-session only via
//!   [`add_to_group`](GroupBuilder::add_to_group) of the just-probed
//!   operator into the probed group (the `pack` loops), which leaves the
//!   accumulator consistent.
//!
//! `demand_of` stays as the slow reference oracle: equivalence tests
//! compare the accumulator against it field by field, and
//! [`PlacementOptions::demand_oracle`] routes the whole probe API through
//! it so the stability tests can pin bit-identical outputs and probe
//! decisions.

use crate::constraints::Violation;
use crate::ids::{OpId, ProcId, TypeId};
use crate::index::InstanceIndex;
use crate::instance::Instance;
use crate::mapping::Download;

/// Failure modes of the placement pipeline.
#[derive(Debug, Clone)]
pub enum HeuristicError {
    /// No catalog kind can host `op` even after the grouping technique.
    NoFeasibleProcessor { op: OpId },
    /// The server-selection step could not source a download.
    ServerSelectionFailed { proc: ProcId, ty: TypeId },
    /// The assembled mapping failed the final constraint check (e.g. an
    /// aggregated processor-pair link was oversubscribed).
    FinalCheck(Vec<Violation>),
    /// Internal invariant: an operator was left unplaced.
    Unplaced(OpId),
}

impl std::fmt::Display for HeuristicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeuristicError::NoFeasibleProcessor { op } => {
                write!(f, "no purchasable processor can host operator {op}")
            }
            HeuristicError::ServerSelectionFailed { proc, ty } => {
                write!(f, "no server can serve object {ty} to processor {proc}")
            }
            HeuristicError::FinalCheck(v) => {
                write!(f, "final constraint check failed ({} violations)", v.len())
            }
            HeuristicError::Unplaced(op) => write!(f, "operator {op} was never placed"),
        }
    }
}

impl std::error::Error for HeuristicError {}

/// Placement-time policy knobs. Downloads are always counted once per
/// distinct object type per processor, the paper's model.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlacementOptions {
    /// Route every probe through the [`GroupBuilder::demand_of`] reference
    /// oracle (full recompute per query) instead of the incremental
    /// accumulator. Only for the solution-stability tests; never enable
    /// in production.
    pub demand_oracle: bool,
}

/// Resource requirements of a hypothetical operator set, relative to the
/// builder's current group structure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Demand {
    /// `Σ w_i` over the set, in Gop per result.
    pub work: f64,
    /// Download bandwidth (MB/s) for the set's basic objects.
    pub download_rate: f64,
    /// Cut-edge bandwidth (MB/s, both directions) to operators outside the
    /// set, at ρ.
    pub comm_rate: f64,
    /// Largest single cut edge (MB/s) — must fit on one pair link.
    pub max_cut_edge: f64,
    /// Largest aggregate traffic (MB/s) toward one *existing* group — the
    /// pair-link constraint (5) seen at placement time.
    pub max_group_traffic: f64,
    /// Whether some needed object cannot be served over any holder's link.
    pub undownloadable: bool,
}

impl Demand {
    /// Minimum CPU speed (Gop/s) a processor needs for this set.
    #[inline]
    pub fn speed_need(&self, rho: f64) -> f64 {
        rho * self.work
    }

    /// Minimum NIC bandwidth (MB/s) a processor needs for this set.
    #[inline]
    pub fn nic_need(&self) -> f64 {
        self.download_rate + self.comm_rate
    }
}

/// Which catalog kind a heuristic wants when opening a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindPolicy {
    /// The cheapest kind that fits (Random, Comm-Greedy pairs).
    Cheapest,
    /// The most capable kind; the downgrade pass will trim it later
    /// (Comp-Greedy, Subtree-Bottom-Up, the object heuristics).
    MostExpensive,
}

/// One tentative processor under construction.
#[derive(Debug, Clone)]
struct Group {
    ops: Vec<OpId>,
    kind: usize,
    alive: bool,
}

/// The final product of a placement heuristic: live groups with their
/// tentative kinds. Server selection and the downgrade pass run on this.
#[derive(Debug, Clone)]
pub struct PlacedOps {
    /// One entry per purchased processor: its operators and catalog kind.
    pub groups: Vec<PlacedGroup>,
    n_ops: usize,
}

/// One placed processor.
#[derive(Debug, Clone)]
pub struct PlacedGroup {
    /// Operators sharing the processor.
    pub ops: Vec<OpId>,
    /// Catalog kind index.
    pub kind: usize,
}

impl PlacedOps {
    /// Assembles a placement directly from groups (used by exact solvers
    /// that bypass [`GroupBuilder`]). `n_ops` is the operator count of the
    /// instance; every operator must appear in exactly one group.
    pub fn from_groups(groups: Vec<PlacedGroup>, n_ops: usize) -> Self {
        debug_assert_eq!(
            groups.iter().map(|g| g.ops.len()).sum::<usize>(),
            n_ops,
            "groups must partition the operators"
        );
        PlacedOps { groups, n_ops }
    }

    /// `a(i)` as a dense vector.
    pub fn assignment(&self) -> Vec<ProcId> {
        let mut assign = vec![ProcId(u32::MAX); self.n_ops];
        for (g, group) in self.groups.iter().enumerate() {
            for &op in &group.ops {
                assign[op.index()] = ProcId::from(g);
            }
        }
        assign
    }

    /// Builds the final [`crate::mapping::Mapping`] once downloads exist.
    pub fn into_mapping(self, downloads: Vec<Download>) -> crate::mapping::Mapping {
        let assignment = self.assignment();
        let kinds = self.groups.iter().map(|g| g.kind).collect();
        crate::mapping::Mapping::new(kinds, assignment, downloads)
    }
}

/// One rolled-back probe step: exact scalar snapshots plus the touched
/// group-traffic entries (≤ 3 incident edges per operator).
#[derive(Debug, Clone, Copy)]
struct UndoRecord {
    op: OpId,
    work: f64,
    download_rate: f64,
    comm_rate: f64,
    traffic: [(usize, f64); 3],
    n_traffic: u8,
}

/// The reusable accumulator behind the probe API: the demand of the
/// current session's operator set, maintained incrementally.
///
/// The two *max* fields of [`Demand`] are never needed as values on the
/// hot path — every feasibility decision only compares them against the
/// instance-constant pair-link bound `bp + 1e-9` — so the accumulator
/// maintains exact **threshold-crossing counters** instead of max
/// structures: "how many cut edges exceed the pair link" and "how many
/// live groups receive more than the pair link". Both update in O(1) per
/// edge with no allocation, and `fits`-equivalent checks read `== 0`.
/// [`GroupBuilder::probe_demand`] reconstructs the exact maxima by a
/// boundary scan for diagnostics and the equivalence tests.
#[derive(Debug, Default)]
struct ProbeState {
    /// Session members, in insertion order.
    ops: Vec<OpId>,
    /// Membership bitmask over all operators.
    in_set: Vec<bool>,
    /// Per-type count of members needing the type.
    type_count: Vec<u32>,
    /// Types whose count left zero this session (reset bookkeeping).
    touched_types: Vec<TypeId>,
    /// Traffic from the set toward each existing group.
    group_traffic: Vec<f64>,
    /// Groups whose traffic entry was written this session (may contain
    /// duplicates; used to zero the array on reset and to bound the
    /// diagnostic max scan).
    touched_groups: Vec<usize>,
    /// Cut edges whose rate exceeds the pair link (`rate > bp + 1e-9`).
    cut_over_bp: u32,
    /// Live groups whose traffic exceeds the pair link.
    traffic_over_bp: u32,
    work: f64,
    download_rate: f64,
    comm_rate: f64,
    /// Distinct needed types that are undownloadable.
    undown_types: u32,
    undo: Vec<UndoRecord>,
}

/// Incremental group construction with feasibility checks.
pub struct GroupBuilder<'a> {
    inst: &'a Instance,
    index: InstanceIndex,
    opts: PlacementOptions,
    groups: Vec<Group>,
    op_group: Vec<Option<usize>>,
    probe: ProbeState,
    /// `bp + 1e-9`: the pair-link feasibility threshold of [`fits`]
    /// (instance-constant, so threshold counters stay exact).
    ///
    /// [`fits`]: GroupBuilder::fits
    bp_thresh: f64,
    /// When `Some(g)` with `session_extra == 0`, the probe session holds
    /// exactly live group `g`'s operators *and* its boundary bookkeeping
    /// is current — [`probe_load_group`](GroupBuilder::probe_load_group)
    /// then reuses it for free. Invalidated by any mutation that could
    /// change the session's contents or its boundary's group keys.
    session_base: Option<usize>,
    /// Operators probed beyond the session base (un-committed).
    session_extra: u32,
}

impl<'a> GroupBuilder<'a> {
    /// Fresh builder with every operator unassigned.
    pub fn new(inst: &'a Instance, opts: PlacementOptions) -> Self {
        let index = InstanceIndex::new(inst);
        GroupBuilder {
            inst,
            opts,
            groups: Vec::new(),
            op_group: vec![None; inst.tree.len()],
            probe: ProbeState {
                in_set: vec![false; index.n_ops()],
                type_count: vec![0; index.n_types()],
                ..Default::default()
            },
            index,
            bp_thresh: inst.platform.proc_link + 1e-9,
            session_base: None,
            session_extra: 0,
        }
    }

    /// The underlying instance.
    pub fn instance(&self) -> &'a Instance {
        self.inst
    }

    /// The precomputed per-instance aggregates driving the probe API.
    pub fn index(&self) -> &InstanceIndex {
        &self.index
    }

    /// Group currently holding `op`, if any.
    #[inline]
    pub fn group_of(&self, op: OpId) -> Option<usize> {
        self.op_group[op.index()]
    }

    /// Whether `op` is still unassigned.
    #[inline]
    pub fn is_unassigned(&self, op: OpId) -> bool {
        self.op_group[op.index()].is_none()
    }

    /// All still-unassigned operators, in id order.
    pub fn unassigned(&self) -> Vec<OpId> {
        (0..self.op_group.len())
            .filter(|&i| self.op_group[i].is_none())
            .map(OpId::from)
            .collect()
    }

    /// Number of unassigned operators.
    pub fn unassigned_count(&self) -> usize {
        self.op_group.iter().filter(|g| g.is_none()).count()
    }

    /// Operators of a (live) group.
    pub fn group_ops(&self, g: usize) -> &[OpId] {
        &self.groups[g].ops
    }

    /// Tentative kind of a group.
    pub fn group_kind(&self, g: usize) -> usize {
        self.groups[g].kind
    }

    /// Ids of all live groups.
    pub fn live_groups(&self) -> Vec<usize> {
        (0..self.groups.len())
            .filter(|&g| self.groups[g].alive)
            .collect()
    }

    /// Computes the [`Demand`] of an operator set against the current
    /// state. Operators outside the set are treated as remote (whether
    /// assigned yet or not): this is the conservative reading the paper's
    /// feasibility questions imply.
    ///
    /// This is the **reference oracle**: a full recompute per query, kept
    /// verbatim for the equivalence tests and
    /// [`PlacementOptions::demand_oracle`]. The hot path uses the probe
    /// session instead.
    pub fn demand_of(&self, ops: &[OpId]) -> Demand {
        let mut in_set = vec![false; self.inst.tree.len()];
        for &op in ops {
            in_set[op.index()] = true;
        }
        let mut d = Demand::default();
        let mut types: Vec<TypeId> = Vec::new();
        // Traffic toward each existing live group, for the pair-link check.
        let mut group_traffic: Vec<f64> = vec![0.0; self.groups.len()];

        for &op in ops {
            d.work += self.inst.tree.work(op);
            types.extend(self.inst.tree.leaf_types(op));
            let mut cut = |other: OpId, rate: f64, d: &mut Demand| {
                d.comm_rate += rate;
                d.max_cut_edge = d.max_cut_edge.max(rate);
                if let Some(g) = self.op_group[other.index()] {
                    if self.groups[g].alive {
                        group_traffic[g] += rate;
                    }
                }
            };
            for &c in self.inst.tree.children(op) {
                if !in_set[c.index()] {
                    cut(c, self.inst.edge_rate(c), &mut d);
                }
            }
            if let Some(p) = self.inst.tree.parent(op) {
                if !in_set[p.index()] {
                    cut(p, self.inst.edge_rate(op), &mut d);
                }
            }
        }
        types.sort_unstable();
        types.dedup();
        for ty in types {
            let rate = self.inst.object_rate(ty);
            d.download_rate += rate;
            if rate > self.inst.platform.best_link_for(ty) + 1e-9 {
                d.undownloadable = true;
            }
        }
        d.max_group_traffic = group_traffic.iter().copied().fold(0.0, f64::max);
        d
    }

    /// Whether `demand` fits on catalog kind `kind_idx`.
    pub fn fits(&self, demand: &Demand, kind_idx: usize) -> bool {
        let kind = self.inst.platform.catalog.kind(kind_idx);
        let bp = self.inst.platform.proc_link;
        !demand.undownloadable
            && demand.speed_need(self.inst.rho) <= kind.speed + 1e-9
            && demand.nic_need() <= kind.bandwidth + 1e-9
            && demand.max_cut_edge <= bp + 1e-9
            && demand.max_group_traffic <= bp + 1e-9
    }

    /// The cheapest catalog kind fitting `ops`, if any.
    pub fn cheapest_kind_for(&self, ops: &[OpId]) -> Option<usize> {
        let d = self.demand_of(ops);
        let bp = self.inst.platform.proc_link;
        if d.undownloadable || d.max_cut_edge > bp + 1e-9 || d.max_group_traffic > bp + 1e-9 {
            return None;
        }
        self.inst
            .platform
            .catalog
            .cheapest_fitting(d.speed_need(self.inst.rho), d.nic_need())
    }

    /// Resolves a [`KindPolicy`] for `ops`: the chosen kind, or `None` if
    /// not even the most capable kind fits.
    pub fn kind_for(&self, ops: &[OpId], policy: KindPolicy) -> Option<usize> {
        match policy {
            KindPolicy::Cheapest => self.cheapest_kind_for(ops),
            KindPolicy::MostExpensive => {
                let top = self.inst.platform.catalog.most_expensive();
                let d = self.demand_of(ops);
                self.fits(&d, top).then_some(top)
            }
        }
    }

    /// Begins an empty probe session, releasing the previous one. O(size
    /// of the previous session), not O(N): scratch buffers are cleared
    /// through touched-entry lists.
    pub fn probe_reset(&mut self) {
        self.session_base = None;
        self.session_extra = 0;
        let p = &mut self.probe;
        for &op in &p.ops {
            p.in_set[op.index()] = false;
        }
        p.ops.clear();
        for &ty in &p.touched_types {
            p.type_count[ty.index()] = 0;
        }
        p.touched_types.clear();
        for &g in &p.touched_groups {
            p.group_traffic[g] = 0.0;
        }
        p.touched_groups.clear();
        p.cut_over_bp = 0;
        p.traffic_over_bp = 0;
        p.work = 0.0;
        p.download_rate = 0.0;
        p.comm_rate = 0.0;
        p.undown_types = 0;
        p.undo.clear();
        if p.group_traffic.len() < self.groups.len() {
            p.group_traffic.resize(self.groups.len(), 0.0);
        }
    }

    /// Begins a probe session holding live group `g`'s operators (in
    /// stored order, so running sums match a fresh `demand_of` pass).
    /// Free when the previous session already equals group `g` and is
    /// still valid — repeated probes against one growing group (the
    /// dominant heuristic pattern) then cost O(degree) each instead of
    /// O(|group|).
    pub fn probe_load_group(&mut self, g: usize) {
        debug_assert!(self.groups[g].alive);
        if self.session_base == Some(g) && self.session_extra == 0 {
            return;
        }
        self.probe_reset();
        for i in 0..self.groups[g].ops.len() {
            let op = self.groups[g].ops[i];
            self.probe_add(op);
        }
        self.session_base = Some(g);
        self.session_extra = 0;
    }

    /// Whether the probe session currently equals live group `g` with no
    /// pending extras (the reusable state).
    #[inline]
    pub fn probe_session_is(&self, g: usize) -> bool {
        self.session_base == Some(g) && self.session_extra == 0
    }

    /// Declares the current probe session to hold exactly live group
    /// `g`'s operators, making the next `probe_load_group(g)` free.
    /// Callers use this after committing a probed union into `g` (the
    /// session contents then equal the merged group by construction).
    pub fn probe_adopt_group(&mut self, g: usize) {
        debug_assert!(self.groups[g].alive);
        debug_assert_eq!(self.probe.ops.len(), self.groups[g].ops.len());
        debug_assert!(self.groups[g]
            .ops
            .iter()
            .all(|&op| self.probe.in_set[op.index()]));
        self.session_base = Some(g);
        self.session_extra = 0;
    }

    /// Adds every operator of live group `g` to the probe session (in
    /// stored order) — the union-probe building block.
    pub fn probe_add_group(&mut self, g: usize) {
        debug_assert!(self.groups[g].alive);
        for i in 0..self.groups[g].ops.len() {
            let op = self.groups[g].ops[i];
            self.probe_add(op);
        }
    }

    /// Whether `op` is in the current probe session.
    #[inline]
    pub fn probe_contains(&self, op: OpId) -> bool {
        self.probe.in_set[op.index()]
    }

    /// Adds `op` to the probe session in O(degree + types-of-op):
    /// work/downloads via the instance index, incident edges flipped
    /// between the cut set and internal, and boundary traffic toward
    /// existing live groups re-keyed.
    pub fn probe_add(&mut self, op: OpId) {
        debug_assert!(!self.probe.in_set[op.index()], "{op} probed twice");
        self.session_extra += 1;
        let p = &mut self.probe;
        let idx = &self.index;
        let mut rec = UndoRecord {
            op,
            work: p.work,
            download_rate: p.download_rate,
            comm_rate: p.comm_rate,
            traffic: [(0, 0.0); 3],
            n_traffic: 0,
        };
        p.in_set[op.index()] = true;
        p.ops.push(op);
        if self.opts.demand_oracle {
            p.undo.push(rec);
            return;
        }
        p.work += idx.work(op);
        for &ty in idx.op_types(op) {
            let count = &mut p.type_count[ty.index()];
            if *count == 0 {
                p.touched_types.push(ty);
                p.download_rate += idx.type_rate(ty);
                if idx.type_undownloadable(ty) {
                    p.undown_types += 1;
                }
            }
            *count += 1;
        }
        let bp_thresh = self.bp_thresh;
        for &(nb, rate) in idx.neighbors(op) {
            if p.in_set[nb.index()] {
                // The edge was cut (counted from `nb`'s side); it is now
                // internal. Any pending traffic was keyed on `op`'s group.
                p.comm_rate -= rate;
                if rate > bp_thresh {
                    p.cut_over_bp -= 1;
                }
                if let Some(g) = self.op_group[op.index()] {
                    if self.groups[g].alive {
                        Self::touch_traffic(p, &mut rec, g, -rate, bp_thresh);
                    }
                }
            } else {
                p.comm_rate += rate;
                if rate > bp_thresh {
                    p.cut_over_bp += 1;
                }
                if let Some(g) = self.op_group[nb.index()] {
                    if self.groups[g].alive {
                        Self::touch_traffic(p, &mut rec, g, rate, bp_thresh);
                    }
                }
            }
        }
        p.undo.push(rec);
    }

    /// Applies `delta` to the set's traffic toward group `g`, keeping the
    /// over-threshold counter and the undo record in step.
    fn touch_traffic(p: &mut ProbeState, rec: &mut UndoRecord, g: usize, delta: f64, thresh: f64) {
        if g >= p.group_traffic.len() {
            p.group_traffic.resize(g + 1, 0.0);
        }
        let old = p.group_traffic[g];
        rec.traffic[rec.n_traffic as usize] = (g, old);
        rec.n_traffic += 1;
        p.touched_groups.push(g);
        let new = old + delta;
        p.group_traffic[g] = new;
        match (old > thresh, new > thresh) {
            (false, true) => p.traffic_over_bp += 1,
            (true, false) => p.traffic_over_bp -= 1,
            _ => {}
        }
    }

    /// Exactly reverts the most recent un-undone [`probe_add`]
    /// (`probe_add`/`probe_undo` pair LIFO): scalars come back from
    /// snapshots, counters from inverse integer updates, so a rejected
    /// probe leaves no floating-point residue.
    ///
    /// [`probe_add`]: GroupBuilder::probe_add
    pub fn probe_undo(&mut self) {
        let rec = self.probe.undo.pop().expect("probe_undo without probe_add");
        debug_assert!(self.session_extra > 0, "probe_undo past the session base");
        self.session_extra -= 1;
        let op = rec.op;
        let p = &mut self.probe;
        let idx = &self.index;
        debug_assert_eq!(p.ops.last(), Some(&op), "probe_undo is LIFO");
        p.ops.pop();
        p.in_set[op.index()] = false;
        if self.opts.demand_oracle {
            return;
        }
        p.work = rec.work;
        p.download_rate = rec.download_rate;
        p.comm_rate = rec.comm_rate;
        for &ty in idx.op_types(op) {
            let count = &mut p.type_count[ty.index()];
            *count -= 1;
            if *count == 0 && idx.type_undownloadable(ty) {
                p.undown_types -= 1;
            }
        }
        let bp_thresh = self.bp_thresh;
        for &(nb, rate) in idx.neighbors(op) {
            if rate > bp_thresh {
                if p.in_set[nb.index()] {
                    // The add internalized this edge; it is cut again.
                    p.cut_over_bp += 1;
                } else {
                    p.cut_over_bp -= 1;
                }
            }
        }
        for i in (0..rec.n_traffic as usize).rev() {
            let (g, old) = rec.traffic[i];
            // A group dissolved since this add was recorded has had its
            // traffic forgotten (its operators are unassigned); restoring
            // the stale snapshot would resurrect dead-group traffic into
            // the counter — leave it at zero, matching the oracle.
            if !self.groups[g].alive {
                continue;
            }
            let cur = p.group_traffic[g];
            match (cur > bp_thresh, old > bp_thresh) {
                (true, false) => p.traffic_over_bp -= 1,
                (false, true) => p.traffic_over_bp += 1,
                _ => {}
            }
            p.group_traffic[g] = old;
        }
    }

    /// The [`Demand`] of the current probe session. The scalar fields are
    /// O(1) reads; the two maxima are reconstructed by a boundary scan
    /// (O(session × degree)) — this accessor is for diagnostics and the
    /// equivalence tests, the hot-path decisions go through
    /// [`probe_fits`](GroupBuilder::probe_fits) /
    /// [`probe_cheapest_kind`](GroupBuilder::probe_cheapest_kind), which
    /// read the threshold counters instead.
    pub fn probe_demand(&self) -> Demand {
        if self.opts.demand_oracle {
            return self.demand_of(&self.probe.ops);
        }
        let p = &self.probe;
        let mut max_cut_edge = 0.0_f64;
        for &op in &p.ops {
            for &(nb, rate) in self.index.neighbors(op) {
                if !p.in_set[nb.index()] {
                    max_cut_edge = max_cut_edge.max(rate);
                }
            }
        }
        let mut max_group_traffic = 0.0_f64;
        for &g in &p.touched_groups {
            if self.groups[g].alive {
                max_group_traffic = max_group_traffic.max(p.group_traffic[g]);
            }
        }
        Demand {
            work: p.work,
            download_rate: p.download_rate,
            comm_rate: p.comm_rate,
            max_cut_edge,
            max_group_traffic,
            undownloadable: self.probe_undownloadable(),
        }
    }

    /// Whether some object the probed set needs is undownloadable.
    #[inline]
    fn probe_undownloadable(&self) -> bool {
        self.probe.undown_types > 0
    }

    /// Whether the probed set fits catalog kind `kind_idx` — the O(1)
    /// equivalent of `fits(&demand_of(session), kind_idx)`: scalar sums
    /// plus the two pair-link threshold counters.
    pub fn probe_fits(&self, kind_idx: usize) -> bool {
        if self.opts.demand_oracle {
            let d = self.demand_of(&self.probe.ops);
            return self.fits(&d, kind_idx);
        }
        let p = &self.probe;
        let kind = self.inst.platform.catalog.kind(kind_idx);
        !self.probe_undownloadable()
            && self.inst.rho * p.work <= kind.speed + 1e-9
            && p.download_rate + p.comm_rate <= kind.bandwidth + 1e-9
            && p.cut_over_bp == 0
            && p.traffic_over_bp == 0
    }

    /// The cheapest catalog kind fitting the probed set, if any
    /// (the probe analogue of [`cheapest_kind_for`]).
    ///
    /// [`cheapest_kind_for`]: GroupBuilder::cheapest_kind_for
    pub fn probe_cheapest_kind(&self) -> Option<usize> {
        if self.opts.demand_oracle {
            let d = self.demand_of(&self.probe.ops);
            let bp = self.inst.platform.proc_link;
            if d.undownloadable || d.max_cut_edge > bp + 1e-9 || d.max_group_traffic > bp + 1e-9 {
                return None;
            }
            return self
                .inst
                .platform
                .catalog
                .cheapest_fitting(d.speed_need(self.inst.rho), d.nic_need());
        }
        let p = &self.probe;
        if self.probe_undownloadable() || p.cut_over_bp > 0 || p.traffic_over_bp > 0 {
            return None;
        }
        self.inst
            .platform
            .catalog
            .cheapest_fitting(self.inst.rho * p.work, p.download_rate + p.comm_rate)
    }

    /// Resolves a [`KindPolicy`] for the probed set (the probe analogue
    /// of [`kind_for`](GroupBuilder::kind_for)).
    pub fn probe_kind_for(&self, policy: KindPolicy) -> Option<usize> {
        match policy {
            KindPolicy::Cheapest => self.probe_cheapest_kind(),
            KindPolicy::MostExpensive => {
                let top = self.inst.platform.catalog.most_expensive();
                self.probe_fits(top).then_some(top)
            }
        }
    }

    /// Drops any probe-session traffic pending toward group `g` (its
    /// operators stop counting as grouped the moment it dies).
    fn probe_forget_group_traffic(&mut self, g: usize) {
        let p = &mut self.probe;
        if g < p.group_traffic.len() && p.group_traffic[g] != 0.0 {
            if p.group_traffic[g] > self.bp_thresh {
                p.traffic_over_bp -= 1;
            }
            p.group_traffic[g] = 0.0;
        }
    }

    /// Opens a new group over `ops` (all must be unassigned) with `kind`.
    pub fn create_group(&mut self, ops: Vec<OpId>, kind: usize) -> usize {
        for &op in &ops {
            debug_assert!(self.op_group[op.index()].is_none(), "{op} already assigned");
            self.op_group[op.index()] = Some(self.groups.len());
        }
        self.groups.push(Group {
            ops,
            kind,
            alive: true,
        });
        // The new group may absorb boundary neighbours of a cached
        // session, changing their traffic keys: drop the cache.
        self.session_base = None;
        self.groups.len() - 1
    }

    /// Adds an unassigned `op` to live group `g` (no feasibility check —
    /// callers decide their own policy first).
    pub fn add_to_group(&mut self, g: usize, op: OpId) {
        debug_assert!(self.groups[g].alive);
        debug_assert!(self.op_group[op.index()].is_none());
        self.op_group[op.index()] = Some(g);
        self.groups[g].ops.push(op);
        // The probe-commit pattern: the session held exactly `g` plus the
        // just-probed `op`, which now joins `g` — the session equals the
        // group again and stays reusable. Anything else invalidates.
        if self.session_base == Some(g)
            && self.session_extra == 1
            && self.probe.ops.last() == Some(&op)
        {
            self.session_extra = 0;
        } else {
            self.session_base = None;
        }
    }

    /// Sells group `g` back: its operators become unassigned again.
    /// Session-safe: pending probe traffic toward `g` is forgotten, which
    /// is exactly the oracle's view of the now-unassigned operators.
    pub fn dissolve_group(&mut self, g: usize) -> Vec<OpId> {
        let ops = std::mem::take(&mut self.groups[g].ops);
        for &op in &ops {
            self.op_group[op.index()] = None;
        }
        self.groups[g].alive = false;
        self.probe_forget_group_traffic(g);
        if self.session_base == Some(g) {
            self.session_base = None;
        }
        ops
    }

    /// Merges group `b` into group `a` (selling `b`'s processor) and sets
    /// `a`'s kind to `kind`. Invalidates any live probe session (boundary
    /// traffic is re-keyed wholesale); re-begin sessions afterwards.
    pub fn merge_groups(&mut self, a: usize, b: usize, kind: usize) {
        debug_assert!(a != b && self.groups[a].alive && self.groups[b].alive);
        let moved = std::mem::take(&mut self.groups[b].ops);
        for &op in &moved {
            self.op_group[op.index()] = Some(a);
        }
        self.groups[b].alive = false;
        self.groups[a].ops.extend(moved);
        self.groups[a].kind = kind;
        if self.session_base == Some(a) || self.session_base == Some(b) {
            self.session_base = None;
        }
        // Coarse re-key so a stale session cannot report dead-group
        // traffic; exact per-edge re-keying is the session's job after a
        // re-begin.
        let thresh = self.bp_thresh;
        let p = &mut self.probe;
        if b < p.group_traffic.len() && p.group_traffic[b] != 0.0 {
            let tb = p.group_traffic[b];
            if tb > thresh {
                p.traffic_over_bp -= 1;
            }
            p.group_traffic[b] = 0.0;
            if a >= p.group_traffic.len() {
                p.group_traffic.resize(a + 1, 0.0);
            }
            let old = p.group_traffic[a];
            p.group_traffic[a] = old + tb;
            p.touched_groups.push(a);
            match (old > thresh, old + tb > thresh) {
                (false, true) => p.traffic_over_bp += 1,
                (true, false) => p.traffic_over_bp -= 1,
                _ => {}
            }
        }
    }

    /// The paper's grouping technique, iterated: place `op` alone if
    /// possible, otherwise repeatedly absorb the neighbour with the most
    /// demanding communication toward the growing candidate set (selling
    /// back the processors of absorbed operators). Returns the new group
    /// id.
    ///
    /// The paper stops after pairing `op` with a single neighbour; we
    /// iterate until the candidate fits or the whole tree is absorbed.
    /// With 1 GB/s links and near-root edges carrying more than 1 GB/s of
    /// cumulative output, a single pairing can never be feasible, so the
    /// literal rule would reject instances the paper reports as solvable.
    pub fn place_with_grouping(
        &mut self,
        op: OpId,
        policy: KindPolicy,
    ) -> Result<usize, HeuristicError> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        debug_assert!(self.is_unassigned(op));
        let mut candidate = vec![op];
        // Groups sold while growing the candidate, kept for restoration.
        let mut sold: Vec<(Vec<OpId>, usize)> = Vec::new();
        self.probe_reset();
        self.probe_add(op);
        // Boundary edges as a lazy-deletion max-heap keyed on
        // (rate, discovery order): rates are non-negative so the f64 bit
        // pattern orders numerically, and `Reverse(seq)` makes equal
        // rates resolve to the earliest-discovered edge — exactly the
        // strict-max linear rescan this replaces (absorbing the whole
        // tree is O(N log N), not O(N²)).
        let mut boundary: BinaryHeap<(u64, Reverse<u32>, OpId)> = BinaryHeap::new();
        let mut seq = 0u32;
        let push_edges = |builder: &Self, heap: &mut BinaryHeap<_>, seq: &mut u32, m: OpId| {
            for &(nb, rate) in builder.index.neighbors(m) {
                if !builder.probe.in_set[nb.index()] {
                    heap.push((rate.to_bits(), Reverse(*seq), nb));
                    *seq += 1;
                }
            }
        };
        push_edges(self, &mut boundary, &mut seq, op);
        loop {
            if let Some(kind) = self.probe_kind_for(policy) {
                return Ok(self.create_group(candidate, kind));
            }
            // Heaviest edge from the candidate to the outside (stale
            // entries — neighbours absorbed meanwhile — are discarded).
            let nb = loop {
                match boundary.pop() {
                    Some((_, _, nb)) if self.probe.in_set[nb.index()] => continue,
                    Some((_, _, nb)) => break Some(nb),
                    None => break None,
                }
            };
            let Some(nb) = nb else {
                // Whole tree absorbed and still unfit: restore and fail.
                for (ops, kind) in sold {
                    self.create_group(ops, kind);
                }
                return Err(HeuristicError::NoFeasibleProcessor { op });
            };
            match self.group_of(nb) {
                Some(g) => {
                    let kind = self.groups[g].kind;
                    let ops = self.dissolve_group(g);
                    for &absorbed in &ops {
                        self.probe_add(absorbed);
                    }
                    for &absorbed in &ops {
                        push_edges(self, &mut boundary, &mut seq, absorbed);
                    }
                    candidate.extend_from_slice(&ops);
                    sold.push((ops, kind));
                }
                None => {
                    self.probe_add(nb);
                    push_edges(self, &mut boundary, &mut seq, nb);
                    candidate.push(nb);
                }
            }
        }
    }

    /// Finalizes into [`PlacedOps`]; every operator must be assigned.
    pub fn finish(self) -> Result<PlacedOps, HeuristicError> {
        if let Some(i) = self.op_group.iter().position(|g| g.is_none()) {
            return Err(HeuristicError::Unplaced(OpId::from(i)));
        }
        let groups = self
            .groups
            .into_iter()
            .filter(|g| g.alive)
            .map(|g| PlacedGroup {
                ops: g.ops,
                kind: g.kind,
            })
            .collect();
        Ok(PlacedOps {
            groups,
            n_ops: self.op_group.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;
    use crate::object::{ObjectCatalog, ObjectType};
    use crate::platform::Platform;
    use crate::tree::OperatorTree;
    use crate::work::WorkModel;

    /// Chain of three ops: op0(root) ← op1 ← op2; op2 reads t0 twice,
    /// op1 reads t1.
    fn chain_instance() -> Instance {
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(10.0, 0.5));
        let t1 = objects.add(ObjectType::new(20.0, 0.5));
        let mut b = OperatorTree::builder();
        let op0 = b.add_root();
        let op1 = b.add_child(op0).unwrap();
        let op2 = b.add_child(op1).unwrap();
        b.add_leaf(op2, t0).unwrap();
        b.add_leaf(op2, t0).unwrap();
        b.add_leaf(op1, t1).unwrap();
        let mut tree = b.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(1.0));
        let mut platform = Platform::paper(2);
        platform.placement.add_holder(t0, ServerId(0));
        platform.placement.add_holder(t1, ServerId(1));
        Instance::new(tree, objects, platform, 1.0).unwrap()
    }

    #[test]
    fn demand_dedups_object_downloads() {
        let inst = chain_instance();
        let b = GroupBuilder::new(&inst, PlacementOptions::default());
        let d = b.demand_of(&[OpId(2)]);
        // op2 reads t0 twice → one 5 MB/s download.
        assert!((d.download_rate - 5.0).abs() < 1e-9);
    }

    #[test]
    fn demand_counts_cut_edges_once_per_direction() {
        let inst = chain_instance();
        let b = GroupBuilder::new(&inst, PlacementOptions::default());
        // {op1} alone: cut to child op2 (δ=20) and parent op0 (δ_op1=40).
        let d = b.demand_of(&[OpId(1)]);
        assert!((d.comm_rate - (20.0 + 40.0)).abs() < 1e-9);
        assert!((d.max_cut_edge - 40.0).abs() < 1e-9);
        // {op1, op2}: internal edge vanishes, only the parent edge remains.
        let d = b.demand_of(&[OpId(1), OpId(2)]);
        assert!((d.comm_rate - 40.0).abs() < 1e-9);
    }

    #[test]
    fn group_traffic_tracks_existing_groups() {
        let inst = chain_instance();
        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        let g2 = b.create_group(vec![OpId(2)], 0);
        let d = b.demand_of(&[OpId(1)]);
        // Edge op1–op2 (20 MB/s) points at group g2.
        assert!((d.max_group_traffic - 20.0).abs() < 1e-9);
        let _ = g2;
    }

    #[test]
    fn cheapest_kind_scales_with_demand() {
        let inst = chain_instance();
        let b = GroupBuilder::new(&inst, PlacementOptions::default());
        // Whole tree on one proc: only downloads (15 MB/s) on the NIC and
        // tiny work → cheapest chassis fits.
        let kind = b.cheapest_kind_for(&[OpId(0), OpId(1), OpId(2)]).unwrap();
        assert_eq!(kind, inst.platform.catalog.cheapest());
    }

    #[test]
    fn grouping_technique_pairs_with_heaviest_neighbor() {
        // Make the op1→op0 edge too big for any NIC so op1 alone fails.
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(2_600.0, 1.0 / 1000.0));
        let mut tb = OperatorTree::builder();
        let op0 = tb.add_root();
        let op1 = tb.add_child(op0).unwrap();
        b_leaf(&mut tb, op1, t0);
        let mut tree = tb.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(0.5));
        let mut platform = Platform::paper(1);
        // Widen the pair link so only the NIC constraint bites.
        platform.proc_link = 10_000.0;
        platform.placement.add_holder(t0, ServerId(0));
        // Raise server link so the (huge) object is downloadable at all:
        // rate = 2.6 MB/s, fine over the default 1000 MB/s link.
        let inst = Instance::new(tree, objects, platform, 1.0).unwrap();

        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        // op1's output is 2600 MB → cut edge 2600 MB/s > 2500 NIC max.
        assert!(b.kind_for(&[OpId(1)], KindPolicy::MostExpensive).is_none());
        let g = b
            .place_with_grouping(OpId(1), KindPolicy::MostExpensive)
            .unwrap();
        let mut ops = b.group_ops(g).to_vec();
        ops.sort_unstable();
        assert_eq!(ops, vec![OpId(0), OpId(1)]);
        assert_eq!(b.unassigned_count(), 0);
    }

    fn b_leaf(b: &mut crate::tree::TreeBuilder, op: OpId, ty: TypeId) {
        b.add_leaf(op, ty).unwrap();
    }

    #[test]
    fn dissolve_returns_ops_to_pool() {
        let inst = chain_instance();
        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        let g = b.create_group(vec![OpId(0), OpId(1)], 0);
        assert_eq!(b.unassigned_count(), 1);
        let ops = b.dissolve_group(g);
        assert_eq!(ops.len(), 2);
        assert_eq!(b.unassigned_count(), 3);
    }

    #[test]
    fn merge_moves_ops_and_kills_group() {
        let inst = chain_instance();
        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        let a = b.create_group(vec![OpId(0)], 1);
        let c = b.create_group(vec![OpId(1)], 2);
        b.merge_groups(a, c, 3);
        assert_eq!(b.group_of(OpId(1)), Some(a));
        assert_eq!(b.group_kind(a), 3);
        assert_eq!(b.live_groups(), vec![a]);
    }

    #[test]
    fn finish_requires_total_assignment() {
        let inst = chain_instance();
        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        b.create_group(vec![OpId(0)], 0);
        assert!(matches!(b.finish(), Err(HeuristicError::Unplaced(_))));
    }

    #[test]
    fn placed_ops_assignment_is_dense() {
        let inst = chain_instance();
        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        b.create_group(vec![OpId(1), OpId(0)], 0);
        b.create_group(vec![OpId(2)], 0);
        let placed = b.finish().unwrap();
        let assign = placed.assignment();
        assert_eq!(assign.len(), 3);
        assert_eq!(assign[0], assign[1]);
        assert_ne!(assign[0], assign[2]);
    }

    // ------------------------------------------------------------------
    // Equivalence properties: the incremental accumulator must agree with
    // the `demand_of` reference oracle on every field, across random
    // instances, random grouping states and random mutation sequences
    // (adds, LIFO undos, mid-session group dissolutions).
    // ------------------------------------------------------------------

    use crate::heuristics::test_support::paper_like_instance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_demand_eq(probe: &Demand, oracle: &Demand, ctx: &str) {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs()));
        assert!(close(probe.work, oracle.work), "{ctx}: work diverged");
        assert!(
            close(probe.download_rate, oracle.download_rate),
            "{ctx}: download_rate diverged ({} vs {})",
            probe.download_rate,
            oracle.download_rate
        );
        assert!(
            close(probe.comm_rate, oracle.comm_rate),
            "{ctx}: comm_rate diverged ({} vs {})",
            probe.comm_rate,
            oracle.comm_rate
        );
        assert!(
            close(probe.max_cut_edge, oracle.max_cut_edge),
            "{ctx}: max_cut_edge diverged ({} vs {})",
            probe.max_cut_edge,
            oracle.max_cut_edge
        );
        assert!(
            close(probe.max_group_traffic, oracle.max_group_traffic),
            "{ctx}: max_group_traffic diverged ({} vs {})",
            probe.max_group_traffic,
            oracle.max_group_traffic
        );
        assert_eq!(
            probe.undownloadable, oracle.undownloadable,
            "{ctx}: undownloadable diverged"
        );
    }

    #[test]
    fn probe_matches_oracle_on_random_mutations_dedup() {
        for seed in 0..24u64 {
            let inst = paper_like_instance(40, 1.1, seed);
            let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);

            // Random grouping state: a handful of groups over random ops.
            let n = inst.tree.len();
            for g in 0..6usize {
                let ops: Vec<OpId> = (0..n)
                    .map(OpId::from)
                    .filter(|&op| b.is_unassigned(op) && rng.gen_range(0..4) == 0)
                    .collect();
                if !ops.is_empty() {
                    b.create_group(ops, g % 3);
                }
            }

            // Random probe mutations, comparing against the oracle at
            // every step. The session list mirrors the accumulator.
            let mut session: Vec<OpId> = Vec::new();
            b.probe_reset();
            for step in 0..300 {
                let ctx = format!("seed {seed} step {step}");
                match rng.gen_range(0..8) {
                    // Add any operator not yet in the set (assigned or
                    // not — union probes add assigned ops too).
                    0..=3 => {
                        let pool: Vec<OpId> = (0..n)
                            .map(OpId::from)
                            .filter(|&op| !b.probe_contains(op))
                            .collect();
                        if let Some(&op) = pool.get(rng.gen_range(0..pool.len().max(1))) {
                            b.probe_add(op);
                            session.push(op);
                        }
                    }
                    // Exact LIFO undo.
                    4..=5 => {
                        if !session.is_empty() {
                            b.probe_undo();
                            session.pop();
                        }
                    }
                    // Dissolve a random live group (session-safe).
                    6 => {
                        let live = b.live_groups();
                        if !live.is_empty() {
                            let g = live[rng.gen_range(0..live.len())];
                            // Ops of a dissolved group become unassigned;
                            // membership of the probe set is unchanged by
                            // dissolution.
                            b.dissolve_group(g);
                        }
                    }
                    // Compare against the oracle — the full demand AND
                    // the counter-backed fit decisions the hot path
                    // actually reads (the latter catch threshold-counter
                    // corruption that the alive-group-filtered demand
                    // scan would mask).
                    _ => {
                        let d = b.demand_of(&session);
                        assert_demand_eq(&b.probe_demand(), &d, &ctx);
                        let top = inst.platform.catalog.most_expensive();
                        assert_eq!(b.probe_fits(top), b.fits(&d, top), "{ctx}: fit decision");
                        assert_eq!(
                            b.probe_cheapest_kind(),
                            b.cheapest_kind_for(&session),
                            "{ctx}: cheapest kind"
                        );
                    }
                }
            }
            // Final comparison after the whole sequence.
            assert_demand_eq(&b.probe_demand(), &b.demand_of(&session), "final");
            assert_eq!(b.probe_cheapest_kind(), b.cheapest_kind_for(&session));
        }
    }

    #[test]
    fn probe_fit_decisions_match_oracle_fits() {
        // The counter-based probe_fits / probe_cheapest_kind must decide
        // exactly like fits(demand_of(...)) / cheapest_kind_for(...).
        for seed in 0..12u64 {
            let inst = paper_like_instance(30, 1.3, seed);
            let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut session: Vec<OpId> = Vec::new();
            b.probe_reset();
            for _ in 0..120 {
                let pool: Vec<OpId> = inst
                    .tree
                    .ops()
                    .filter(|&op| !b.probe_contains(op))
                    .collect();
                if pool.is_empty() {
                    break;
                }
                let op = pool[rng.gen_range(0..pool.len())];
                b.probe_add(op);
                session.push(op);
                let d = b.demand_of(&session);
                for kind in 0..inst.platform.catalog.len() {
                    assert_eq!(
                        b.probe_fits(kind),
                        b.fits(&d, kind),
                        "seed {seed} kind {kind} set {session:?}"
                    );
                }
                assert_eq!(
                    b.probe_cheapest_kind(),
                    b.cheapest_kind_for(&session),
                    "seed {seed} set {session:?}"
                );
            }
        }
    }

    #[test]
    fn undo_across_dissolve_does_not_resurrect_dead_group_traffic() {
        // Regression: a session accumulates group traffic over the pair
        // link (two 60 MB/s edges toward g against bp = 100), a third
        // member records an undo snapshot of that traffic, the group is
        // dissolved (traffic forgotten), and the third member is undone.
        // Restoring the stale snapshot would re-increment the
        // over-threshold counter for a dead group, making probe_fits /
        // probe_cheapest_kind reject sets the oracle accepts.
        let mut objects = ObjectCatalog::new();
        let t60 = objects.add(ObjectType::new(60.0, 0.001));
        let t30 = objects.add(ObjectType::new(30.0, 0.001));
        let mut tb = OperatorTree::builder();
        let r = tb.add_root();
        let a1 = tb.add_child(r).unwrap();
        let a2 = tb.add_child(r).unwrap();
        let bb = tb.add_child(a1).unwrap();
        let x = tb.add_child(a1).unwrap();
        let y = tb.add_child(a2).unwrap();
        let z = tb.add_child(bb).unwrap();
        tb.add_leaf(x, t60).unwrap();
        tb.add_leaf(y, t60).unwrap();
        tb.add_leaf(z, t30).unwrap();
        let mut tree = tb.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(1.0));
        let mut platform = Platform::paper(2);
        platform.proc_link = 100.0; // 60 + 60 > bp, each edge alone under
        platform.placement.add_holder(t60, ServerId(0));
        platform.placement.add_holder(t30, ServerId(1));
        let inst = Instance::new(tree, objects, platform, 1.0).unwrap();

        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        let g = b.create_group(vec![x, y, z], 0);
        b.probe_reset();
        b.probe_add(a1); // edge a1→x: traffic[g] = 60
        b.probe_add(a2); // edge a2→y: traffic[g] = 120 > bp
        b.probe_add(bb); // edge bb→z: snapshot of 120 lands in the record
        b.dissolve_group(g); // g dead, traffic forgotten
        b.probe_undo(); // must NOT restore the dead group's 120

        let session = [a1, a2];
        let d = b.demand_of(&session);
        assert!((d.max_group_traffic - 0.0).abs() < 1e-12, "oracle sees 0");
        for kind in 0..inst.platform.catalog.len() {
            assert_eq!(b.probe_fits(kind), b.fits(&d, kind), "kind {kind}");
        }
        assert_eq!(b.probe_cheapest_kind(), b.cheapest_kind_for(&session));
    }

    #[test]
    fn probe_undo_leaves_no_residue() {
        // Scalars are snapshot-restored: a rejected probe must restore the
        // accumulator bit-for-bit, not approximately.
        let inst = paper_like_instance(25, 1.0, 7);
        let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
        let ops: Vec<OpId> = inst.tree.ops().collect();
        b.probe_reset();
        for &op in &ops[..10] {
            b.probe_add(op);
        }
        let before = b.probe_demand();
        for &op in &ops[10..20] {
            b.probe_add(op);
            b.probe_undo();
        }
        let after = b.probe_demand();
        assert_eq!(before.work.to_bits(), after.work.to_bits());
        assert_eq!(
            before.download_rate.to_bits(),
            after.download_rate.to_bits()
        );
        assert_eq!(before.comm_rate.to_bits(), after.comm_rate.to_bits());
        assert_eq!(before.max_cut_edge.to_bits(), after.max_cut_edge.to_bits());
    }

    fn assert_demand_bits_eq(a: &Demand, b: &Demand, ctx: &str) {
        assert_eq!(a.work.to_bits(), b.work.to_bits(), "{ctx}: work");
        assert_eq!(
            a.download_rate.to_bits(),
            b.download_rate.to_bits(),
            "{ctx}: download_rate"
        );
        assert_eq!(
            a.comm_rate.to_bits(),
            b.comm_rate.to_bits(),
            "{ctx}: comm_rate"
        );
        assert_eq!(
            a.max_cut_edge.to_bits(),
            b.max_cut_edge.to_bits(),
            "{ctx}: max_cut_edge"
        );
        assert_eq!(
            a.max_group_traffic.to_bits(),
            b.max_group_traffic.to_bits(),
            "{ctx}: max_group_traffic"
        );
        assert_eq!(a.undownloadable, b.undownloadable, "{ctx}: undownloadable");
    }

    #[test]
    fn multi_group_union_probe_undo_leaves_no_residue() {
        // The swap/merge screening pattern of snsp-search: a session is
        // seeded from one live group, extended across a *second* live
        // group (probe_add_group) and then over free operators, and the
        // extras are rolled back. Rejected candidates must restore the
        // accumulator bit-for-bit — any residue would leak into every
        // later screening of the same descent.
        for seed in [3u64, 11, 19] {
            let inst = paper_like_instance(30, 1.0, seed);
            let mut b = GroupBuilder::new(&inst, PlacementOptions::default());
            let ops: Vec<OpId> = inst.tree.ops().collect();
            let ga = b.create_group(ops[0..6].to_vec(), 1);
            let gb = b.create_group(ops[6..10].to_vec(), 2);
            b.create_group(ops[10..14].to_vec(), 0);

            b.probe_load_group(ga);
            let base = b.probe_demand();

            // Union probe (merge screening), rolled back member by member.
            b.probe_add_group(gb);
            let union = b.probe_demand();
            for _ in 0..b.group_ops(gb).len() {
                b.probe_undo();
            }
            assert_demand_bits_eq(&b.probe_demand(), &base, "after group-union undo");

            // Swap-style extras: free ops probed on top and rolled back.
            for &op in &ops[14..20] {
                b.probe_add(op);
            }
            for _ in 14..20 {
                b.probe_undo();
            }
            assert_demand_bits_eq(&b.probe_demand(), &base, "after free-op undo");
            assert!(b.probe_session_is(ga), "session base survives LIFO undo");

            // Committing the union via merge + adopt must leave the
            // session equal to a fresh reload of the merged group.
            b.probe_add_group(gb);
            let kind = b.probe_cheapest_kind().unwrap_or(3);
            b.merge_groups(ga, gb, kind);
            b.probe_adopt_group(ga);
            let adopted = b.probe_demand();
            assert_demand_bits_eq(&adopted, &union, "adopted == screened union");
            b.probe_reset();
            b.probe_load_group(ga);
            let reloaded = b.probe_demand();
            assert_demand_bits_eq(&adopted, &reloaded, "adopted == reloaded");
        }
    }
}
