//! Exact branch-and-bound over operator groupings.
//!
//! The paper compares its heuristics against CPLEX on small homogeneous
//! instances. We substitute a direct combinatorial search: operators are
//! assigned one by one (post-order, children before parents) either to an
//! existing group or to a fresh one — the classic restricted-growth
//! enumeration of set partitions, which visits every partition exactly
//! once. Each complete partition is costed by giving every group its
//! cheapest fitting catalog kind (provably optimal per grouping), running
//! the three-pass server selection, and checking all constraints.
//!
//! The search maintains every group demand **incrementally** on branch
//! and backtrack: per-group work, de-duplicated download rates (type
//! counters with O(1) undo — an operator has at most two leaves) and the
//! bandwidth of *permanently cut* child edges. Post-order assignment
//! makes a cross-group child edge permanent the moment its parent is
//! placed, so that bandwidth is a monotone lower bound and joins the
//! work/download terms in each group's admissible cost bound — strictly
//! tighter than bounding on downloads alone. The partial lower bound is a
//! running sum (no per-node rescan), leaf costing reads the maintained
//! bandwidths (no per-leaf tree walk), and a persistent
//! [`ServerSelector`] keeps the three-pass selection allocation-free
//! across candidate leaves.
//!
//! A node budget keeps worst cases bounded; the result reports whether
//! the search completed (`optimal = true`) or was truncated. The original
//! recompute-per-node implementation is kept verbatim as
//! [`solve_exact_reference`]: equivalence tests pin the incremental
//! search's results to it and check that it never explores more nodes.
//!
//! ## Optimality caveat
//!
//! Server selection at a leaf is the paper's three-pass heuristic, not an
//! exact routing. A grouping whose downloads three-pass selection cannot
//! source counts as infeasible, even when some other routing would serve
//! it. [`ExactResult::certified_bound`] is therefore the optimum of the
//! paper's pipeline — groupings, cheapest kinds, three-pass selection —
//! not a bound over every possible download routing.
//!
//! ## One depth-first search
//!
//! The search runs on the calling thread: it tries each existing group,
//! then a fresh one, and prunes a branch once its admissible bound
//! reaches the incumbent. Node count, visit order, incumbents and the
//! witness mapping are deterministic, and a panic unwinds to the caller.
//! [`ExactResult::nodes`] is pinned in the tests below against the
//! reference search.
//!
//! ```
//! use snsp_gen::paper_instance;
//! use snsp_solver::bb::{solve_exact, BranchBoundConfig};
//!
//! let inst = paper_instance(10, 0.9, 3);
//! let exact = solve_exact(&inst, &BranchBoundConfig::default());
//! // A finished search certifies its own optimum.
//! assert!(exact.optimal);
//! assert_eq!(exact.certified_bound(), Some(exact.cost));
//! assert_eq!(exact.bound, exact.cost);
//! ```

use snsp_core::constraints;
use snsp_core::heuristics::{
    select_servers, PlacedGroup, PlacedOps, ServerSelector, ServerStrategy,
};
use snsp_core::ids::{OpId, TypeId};
use snsp_core::instance::Instance;
use snsp_core::mapping::{Download, Mapping};
use snsp_telemetry::{Class, Counter, Histogram};

use crate::bounds::lower_bound;

// Search observability. Every metric here is Overlay-class: the counts
// are reproducible, but they describe how the reference search ran, not
// what a campaign computed, so they stay out of the deterministic
// section of a telemetry report and no committed core gains rows. The
// counters are pure observers: `tests/telemetry.rs` checks that a solve
// expands the same nodes with collection on and off.
static BB_NODES: Counter = Counter::new("bb.nodes", Class::Overlay);
static BB_PRUNE_BOUND: Counter = Counter::new("bb.prune.bound", Class::Overlay);
static BB_PRUNE_INFEASIBLE: Counter = Counter::new("bb.prune.infeasible", Class::Overlay);
static BB_PRUNE_LEAF_COST: Counter = Counter::new("bb.prune.leaf_cost", Class::Overlay);
static BB_PRUNE_SELECTOR: Counter = Counter::new("bb.prune.selector", Class::Overlay);
static BB_PRUNE_CONSTRAINTS: Counter = Counter::new("bb.prune.constraints", Class::Overlay);
static BB_INCUMBENTS: Counter = Counter::new("bb.incumbent.updates", Class::Overlay);
static BB_INCUMBENT_COST: Histogram = Histogram::new("bb.incumbent.cost", Class::Overlay);

/// Records an overlay-class trace event for a new incumbent. Logical
/// time carries no tick — the search has no barrier clock — so the lane
/// is the node count at emission (overlay events never enter the Det
/// stream).
fn record_incumbent(cost: u64) {
    snsp_telemetry::trace::record(
        Class::Overlay,
        0,
        snsp_telemetry::trace::LogicalTime {
            tick: 0,
            shard: 0,
            seq: BB_NODES.get() as u32,
        },
        snsp_telemetry::trace::TraceEventKind::Incumbent {
            cost_bits: (cost as f64).to_bits(),
        },
    );
}

/// Configuration for the exact search.
#[derive(Debug, Clone, Copy)]
pub struct BranchBoundConfig {
    /// Maximum number of search nodes to expand before giving up on
    /// optimality (the best solution found so far is still returned).
    pub node_budget: u64,
    /// Optional initial upper bound (e.g. a heuristic cost) to seed
    /// pruning.
    pub upper_bound: Option<u64>,
}

impl Default for BranchBoundConfig {
    fn default() -> Self {
        BranchBoundConfig {
            node_budget: 2_000_000,
            upper_bound: None,
        }
    }
}

/// Outcome of the exact search.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// Best feasible mapping found, if any.
    pub mapping: Option<Mapping>,
    /// Its cost (`u64::MAX` when no mapping was found).
    pub cost: u64,
    /// Whether the search space was exhausted (the answer is optimal).
    pub optimal: bool,
    /// Search nodes expanded (deterministic).
    pub nodes: u64,
    /// Best certified lower bound on the optimal cost: equals `cost`
    /// when optimality was proven with a feasible mapping, otherwise
    /// the analytic [`lower_bound`] — still valid when the search was
    /// budget-truncated, so a truncated run reports both how far it got
    /// (`nodes`) and what it can still certify (`bound`).
    pub bound: u64,
}

impl ExactResult {
    /// The certified optimum, if this run proved one: `Some(cost)` iff
    /// the search exhausted the space (`optimal`) *and* found a feasible
    /// mapping. This is the value the refine reports' gap column divides
    /// by. It is optimal for the paper's pipeline (see the module docs'
    /// caveat).
    pub fn certified_bound(&self) -> Option<u64> {
        if self.optimal && self.mapping.is_some() {
            Some(self.cost)
        } else {
            None
        }
    }
}

/// One group under construction, with incrementally maintained demand.
struct GroupSlot {
    ops: Vec<OpId>,
    work: f64,
    /// De-duplicated download rate of the types present in the group.
    dl_rate: f64,
    /// Bandwidth of permanently cut child edges incident to this group
    /// (an edge is decided the moment the parent endpoint is placed).
    cut_bw: f64,
    /// Admissible cost bound from (work, dl_rate + cut_bw).
    lb_cost: u64,
    /// Catalog index realizing `lb_cost`. Demands only grow within a
    /// push, so a bound refresh first re-checks this kind in O(1) and
    /// otherwise scans forward from it — never from the catalog start.
    lb_kind: usize,
    /// Per-type membership count, for O(1) download de-duplication undo.
    type_count: Vec<u32>,
}

/// Everything one `push_op` changed, for exact backtracking. An operator
/// has at most two children, so at most two foreign groups are touched.
struct PushSave {
    work: f64,
    dl_rate: f64,
    cut_bw: f64,
    lb_cost: u64,
    lb_kind: usize,
    /// `(group, previous cut_bw, previous lb_cost, previous lb_kind)`
    /// per touched group.
    foreign: [(usize, f64, u64, usize); 2],
    n_foreign: u8,
}

/// The incremental search state over one group arena, plus the
/// incumbent and the node budget.
struct Search<'a> {
    inst: &'a Instance,
    order: Vec<OpId>,
    /// Operator → group index (`usize::MAX` = unassigned).
    assign: Vec<usize>,
    /// Group arena; slots `0..n_groups` are live, higher slots are kept
    /// zeroed for reuse so push/pop never reallocates.
    groups: Vec<GroupSlot>,
    n_groups: usize,
    /// Running `Σ lb_cost` over live groups.
    lb_sum: u64,
    selector: ServerSelector,
    kinds_buf: Vec<usize>,
    downloads_buf: Vec<Download>,
    best_cost: u64,
    best: Option<Mapping>,
    nodes: u64,
    budget: u64,
    truncated: bool,
}

impl<'a> Search<'a> {
    fn new(inst: &'a Instance, config: &BranchBoundConfig) -> Self {
        Search {
            inst,
            order: inst.tree.postorder(),
            assign: vec![usize::MAX; inst.tree.len()],
            groups: Vec::new(),
            n_groups: 0,
            lb_sum: 0,
            selector: ServerSelector::new(),
            kinds_buf: Vec::new(),
            downloads_buf: Vec::new(),
            best_cost: config.upper_bound.unwrap_or(u64::MAX),
            best: None,
            nodes: 0,
            budget: config.node_budget,
            truncated: false,
        }
    }

    /// Recomputes and installs group `g`'s bound; `false` ⇒ dead end.
    /// Demands never shrink inside a push, so the previous `lb_kind` is
    /// re-tested first (the overwhelmingly common no-change case) and a
    /// miss scans forward from it only.
    fn refresh_lb(&mut self, g: usize) -> bool {
        let grp = &self.groups[g];
        let need_speed = self.inst.rho * grp.work;
        let need_bw = grp.dl_rate + grp.cut_bw;
        let kinds = self.inst.platform.catalog.kinds();
        let mut k = grp.lb_kind;
        while k < kinds.len() {
            if kinds[k].speed >= need_speed && kinds[k].bandwidth >= need_bw {
                let lb = kinds[k].cost;
                self.lb_sum = self.lb_sum + lb - self.groups[g].lb_cost;
                self.groups[g].lb_cost = lb;
                self.groups[g].lb_kind = k;
                return true;
            }
            k += 1;
        }
        false
    }

    /// Adds `op` to live group `g`, updating demands, permanent cut
    /// edges and bounds. `None` ⇒ some group can no longer fit any kind
    /// (the branch is dead); the state is already rolled back.
    fn push_op(&mut self, g: usize, op: OpId) -> Option<PushSave> {
        let grp = &self.groups[g];
        let mut save = PushSave {
            work: grp.work,
            dl_rate: grp.dl_rate,
            cut_bw: grp.cut_bw,
            lb_cost: grp.lb_cost,
            lb_kind: grp.lb_kind,
            foreign: [(0, 0.0, 0, 0); 2],
            n_foreign: 0,
        };
        let grp = &mut self.groups[g];
        grp.ops.push(op);
        grp.work += self.inst.tree.work(op);
        for &ty in self.inst.tree.leaf_types(op) {
            let count = &mut grp.type_count[ty.index()];
            if *count == 0 {
                grp.dl_rate += self.inst.object_rate(ty);
            }
            *count += 1;
        }
        // Post-order: op's children are placed, so each cross-group
        // child edge is cut for good — charge both endpoint groups.
        for i in 0..self.inst.tree.children(op).len() {
            let c = self.inst.tree.children(op)[i];
            let h = self.assign[c.index()];
            debug_assert!(h != usize::MAX, "post-order places children first");
            if h != g {
                let rate = self.inst.edge_rate(c);
                self.groups[g].cut_bw += rate;
                save.foreign[save.n_foreign as usize] = (
                    h,
                    self.groups[h].cut_bw,
                    self.groups[h].lb_cost,
                    self.groups[h].lb_kind,
                );
                save.n_foreign += 1;
                self.groups[h].cut_bw += rate;
            }
        }
        self.assign[op.index()] = g;
        let mut alive = true;
        for i in 0..save.n_foreign as usize {
            if !self.refresh_lb(save.foreign[i].0) {
                alive = false;
                break;
            }
        }
        if alive && !self.refresh_lb(g) {
            alive = false;
        }
        if !alive {
            BB_PRUNE_INFEASIBLE.incr();
            self.pop_op(g, &save);
            return None;
        }
        Some(save)
    }

    /// Exactly reverts the matching [`push_op`](Self::push_op): scalars
    /// from snapshots, counters by inverse integer updates.
    fn pop_op(&mut self, g: usize, save: &PushSave) {
        let op = self.groups[g].ops.pop().expect("pop without push");
        self.assign[op.index()] = usize::MAX;
        for &ty in self.inst.tree.leaf_types(op) {
            self.groups[g].type_count[ty.index()] -= 1;
        }
        for i in (0..save.n_foreign as usize).rev() {
            let (h, prev_cut, prev_lb, prev_kind) = save.foreign[i];
            self.lb_sum = self.lb_sum + prev_lb - self.groups[h].lb_cost;
            self.groups[h].lb_cost = prev_lb;
            self.groups[h].lb_kind = prev_kind;
            self.groups[h].cut_bw = prev_cut;
        }
        self.lb_sum = self.lb_sum + save.lb_cost - self.groups[g].lb_cost;
        let grp = &mut self.groups[g];
        grp.work = save.work;
        grp.dl_rate = save.dl_rate;
        grp.cut_bw = save.cut_bw;
        grp.lb_cost = save.lb_cost;
        grp.lb_kind = save.lb_kind;
    }

    /// Opens the next restricted-growth group in the arena.
    fn open_group(&mut self) {
        if self.n_groups == self.groups.len() {
            self.groups.push(GroupSlot {
                ops: Vec::new(),
                work: 0.0,
                dl_rate: 0.0,
                cut_bw: 0.0,
                lb_cost: 0,
                lb_kind: 0,
                type_count: vec![0; self.inst.objects.len()],
            });
        }
        self.n_groups += 1;
    }

    /// The depth-first search below the current node: join each existing
    /// group, then open a fresh one, pruning on the admissible bound
    /// against the incumbent.
    fn dfs(&mut self, depth: usize) {
        if self.truncated {
            return;
        }
        BB_NODES.incr();
        self.nodes += 1;
        if self.nodes > self.budget {
            self.truncated = true;
            return;
        }
        if depth == self.order.len() {
            self.evaluate_leaf();
            return;
        }
        let op = self.order[depth];
        let n_existing = self.n_groups;
        for g in 0..=n_existing {
            // Restricted growth: the fresh group is always the next index.
            let fresh = g == n_existing;
            if fresh {
                self.open_group();
            }
            if let Some(save) = self.push_op(g, op) {
                if self.lb_sum < self.best_cost {
                    self.dfs(depth + 1);
                } else {
                    BB_PRUNE_BOUND.incr();
                }
                self.pop_op(g, &save);
            }
            if fresh {
                self.n_groups -= 1;
            }
        }
    }

    /// Costs a complete partition from the maintained demands. At a leaf
    /// every edge is decided, so each group's maintained bound *is* its
    /// exact cheapest cost: the partition costs `lb_sum` and the kinds
    /// are the cached `lb_kind`s — O(groups), no catalog scan, no tree
    /// walk. Only server selection and the constraint check remain; a
    /// feasible partition becomes the new incumbent.
    fn evaluate_leaf(&mut self) {
        let cost = self.lb_sum;
        if cost >= self.best_cost {
            BB_PRUNE_LEAF_COST.incr();
            return;
        }
        self.kinds_buf.clear();
        self.kinds_buf
            .extend((0..self.n_groups).map(|g| self.groups[g].lb_kind));

        let placed = PlacedOps::from_groups(
            (0..self.n_groups)
                .map(|g| PlacedGroup {
                    ops: self.groups[g].ops.clone(),
                    kind: self.kinds_buf[g],
                })
                .collect(),
            self.inst.tree.len(),
        );
        // Three-pass selection is a heuristic: a grouping it cannot
        // source is treated as infeasible (the module docs' caveat).
        let mut rng = NullRng;
        if self
            .selector
            .select_into(
                self.inst,
                &placed,
                ServerStrategy::ThreeLoop,
                &mut rng,
                &mut self.downloads_buf,
            )
            .is_err()
        {
            BB_PRUNE_SELECTOR.incr();
            return;
        }
        let mapping = placed.into_mapping(self.downloads_buf.clone());
        if !constraints::is_feasible(self.inst, &mapping) {
            BB_PRUNE_CONSTRAINTS.incr();
            return;
        }
        self.best_cost = cost;
        self.best = Some(mapping);
        BB_INCUMBENTS.incr();
        BB_INCUMBENT_COST.record(cost as f64);
        record_incumbent(cost);
    }
}

/// A deterministic RNG stub: the three-pass server selection never draws
/// random numbers, but the API takes an RNG for the random strategy.
struct NullRng;

impl rand::RngCore for NullRng {
    fn next_u32(&mut self) -> u32 {
        0
    }
    fn next_u64(&mut self) -> u64 {
        0
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        dest.fill(0);
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        dest.fill(0);
        Ok(())
    }
}

/// Resolves [`ExactResult::bound`]: the exact cost once optimality is
/// proven with a feasible mapping, otherwise the analytic instance
/// bound — the strongest certificate a truncated (or infeasible) run
/// can still offer.
fn resolve_bound(inst: &Instance, optimal: bool, found: bool, cost: u64) -> u64 {
    if optimal && found {
        cost
    } else {
        lower_bound(inst).value()
    }
}

/// Runs the exact search (incremental demand maintenance) on the calling
/// thread.
pub fn solve_exact(inst: &Instance, config: &BranchBoundConfig) -> ExactResult {
    let mut search = Search::new(inst, config);
    search.dfs(0);
    let optimal = !search.truncated;
    ExactResult {
        cost: search.best_cost,
        optimal,
        nodes: search.nodes,
        bound: resolve_bound(inst, optimal, search.best.is_some(), search.best_cost),
        mapping: search.best,
    }
}

/// The original recompute-per-node search, kept as the slow reference
/// oracle for the incremental implementation's equivalence tests. Same
/// branching order; only the bookkeeping differs —
/// its bounds use work and downloads alone, so it explores at least as
/// many nodes as [`solve_exact`].
pub fn solve_exact_reference(inst: &Instance, config: &BranchBoundConfig) -> ExactResult {
    let mut search = reference::Search::new(inst, config);
    search.dfs(0);
    let optimal = !search.truncated;
    ExactResult {
        cost: search.best_cost,
        optimal,
        nodes: search.nodes,
        bound: resolve_bound(inst, optimal, search.best.is_some(), search.best_cost),
        mapping: search.best,
    }
}

/// The pre-incremental implementation, verbatim.
mod reference {
    use super::*;

    struct GroupState {
        ops: Vec<OpId>,
        work: f64,
        types: Vec<TypeId>, // sorted, dedup
        dl_rate: f64,
        /// Lower-bound cost of this group's processor.
        lb_cost: u64,
    }

    pub(super) struct Search<'a> {
        inst: &'a Instance,
        order: Vec<OpId>,
        groups: Vec<GroupState>,
        pub(super) best_cost: u64,
        pub(super) best: Option<Mapping>,
        pub(super) nodes: u64,
        budget: u64,
        pub(super) truncated: bool,
    }

    impl<'a> Search<'a> {
        pub(super) fn new(inst: &'a Instance, config: &BranchBoundConfig) -> Self {
            Search {
                inst,
                order: inst.tree.postorder(),
                groups: Vec::new(),
                best_cost: config.upper_bound.unwrap_or(u64::MAX),
                best: None,
                nodes: 0,
                budget: config.node_budget,
                truncated: false,
            }
        }

        /// Lower-bound cost of a group from its monotone demands (work and
        /// downloads only — cut edges can still disappear).
        fn group_lb(&self, work: f64, dl_rate: f64) -> Option<u64> {
            self.inst
                .platform
                .catalog
                .cheapest_fitting(self.inst.rho * work, dl_rate)
                .map(|k| self.inst.platform.catalog.kind(k).cost)
        }

        fn partial_lb(&self) -> u64 {
            self.groups.iter().map(|g| g.lb_cost).sum()
        }

        fn push_op(&mut self, g: usize, op: OpId) -> Option<(f64, Vec<TypeId>, f64, u64)> {
            let group = &mut self.groups[g];
            let saved = (
                group.work,
                group.types.clone(),
                group.dl_rate,
                group.lb_cost,
            );
            group.ops.push(op);
            group.work += self.inst.tree.work(op);
            for &ty in self.inst.tree.leaf_types(op) {
                if !group.types.contains(&ty) {
                    group.types.push(ty);
                    group.dl_rate += self.inst.object_rate(ty);
                }
            }
            let (work, dl_rate) = (group.work, group.dl_rate);
            match self.group_lb(work, dl_rate) {
                Some(lb) => {
                    self.groups[g].lb_cost = lb;
                    Some(saved)
                }
                None => {
                    // Not even the top kind fits: undo and signal a dead end.
                    let group = &mut self.groups[g];
                    group.ops.pop();
                    (group.work, group.types, group.dl_rate, group.lb_cost) = saved;
                    None
                }
            }
        }

        fn pop_op(&mut self, g: usize, saved: (f64, Vec<TypeId>, f64, u64)) {
            let group = &mut self.groups[g];
            group.ops.pop();
            (group.work, group.types, group.dl_rate, group.lb_cost) = saved;
        }

        pub(super) fn dfs(&mut self, depth: usize) {
            if self.truncated {
                return;
            }
            self.nodes += 1;
            if self.nodes > self.budget {
                self.truncated = true;
                return;
            }
            if depth == self.order.len() {
                self.evaluate_leaf();
                return;
            }
            let op = self.order[depth];

            // Try joining each existing group.
            for g in 0..self.groups.len() {
                if let Some(saved) = self.push_op(g, op) {
                    if self.partial_lb() < self.best_cost {
                        self.dfs(depth + 1);
                    }
                    self.pop_op(g, saved);
                }
            }

            // Open a fresh group (restricted growth: always the next index).
            let work = self.inst.tree.work(op);
            let mut types: Vec<TypeId> = self.inst.tree.leaf_types(op).to_vec();
            types.sort_unstable();
            types.dedup();
            let dl_rate: f64 = types.iter().map(|&t| self.inst.object_rate(t)).sum();
            if let Some(lb_cost) = self.group_lb(work, dl_rate) {
                self.groups.push(GroupState {
                    ops: vec![op],
                    work,
                    types,
                    dl_rate,
                    lb_cost,
                });
                if self.partial_lb() < self.best_cost {
                    self.dfs(depth + 1);
                }
                self.groups.pop();
            }
        }

        /// Costs a complete partition: exact demands, cheapest kinds, server
        /// selection, full constraint check.
        fn evaluate_leaf(&mut self) {
            // Assignment for edge evaluation.
            let mut assign = vec![usize::MAX; self.inst.tree.len()];
            for (g, group) in self.groups.iter().enumerate() {
                for &op in &group.ops {
                    assign[op.index()] = g;
                }
            }

            // Exact per-group bandwidth: downloads + final cut edges.
            let mut bandwidth: Vec<f64> = self.groups.iter().map(|g| g.dl_rate).collect();
            for op in self.inst.tree.ops() {
                if let Some(p) = self.inst.tree.parent(op) {
                    let (u, v) = (assign[op.index()], assign[p.index()]);
                    if u != v {
                        let rate = self.inst.edge_rate(op);
                        bandwidth[u] += rate;
                        bandwidth[v] += rate;
                    }
                }
            }

            let mut kinds = Vec::with_capacity(self.groups.len());
            let mut cost = 0u64;
            for (g, group) in self.groups.iter().enumerate() {
                let Some(k) = self
                    .inst
                    .platform
                    .catalog
                    .cheapest_fitting(self.inst.rho * group.work, bandwidth[g])
                else {
                    return; // no kind fits this group's exact demand
                };
                kinds.push(k);
                cost += self.inst.platform.catalog.kind(k).cost;
            }
            if cost >= self.best_cost {
                return;
            }

            let placed = PlacedOps::from_groups(
                self.groups
                    .iter()
                    .zip(&kinds)
                    .map(|(g, &kind)| PlacedGroup {
                        ops: g.ops.clone(),
                        kind,
                    })
                    .collect(),
                self.inst.tree.len(),
            );
            // Three-pass selection is a heuristic: a grouping it cannot
            // source is treated as infeasible (the module docs' caveat).
            let mut rng = NullRng;
            let Ok(downloads) =
                select_servers(self.inst, &placed, ServerStrategy::ThreeLoop, &mut rng)
            else {
                return;
            };
            let mapping = placed.into_mapping(downloads);
            if constraints::is_feasible(self.inst, &mapping) {
                self.best_cost = cost;
                self.best = Some(mapping);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snsp_core::heuristics::{all_heuristics, solve, PipelineOptions};
    use snsp_core::platform::Catalog;
    use snsp_gen::paper_instance;

    #[test]
    fn light_instances_consolidate_to_one_processor() {
        // At α = 0.9 everything fits one machine; the optimum is a single
        // chassis with whatever NIC the downloads require.
        let inst = paper_instance(10, 0.9, 3);
        let res = solve_exact(&inst, &BranchBoundConfig::default());
        assert!(res.optimal);
        assert_eq!(res.bound, res.cost, "proven optimum certifies itself");
        let mapping = res.mapping.expect("feasible");
        assert_eq!(mapping.proc_count(), 1);
        assert!(res.cost < 2 * 7_548, "single-processor optimum expected");
    }

    #[test]
    fn exact_never_exceeds_any_heuristic() {
        for seed in 0..3 {
            let inst = paper_instance(8, 1.3, seed);
            let exact = solve_exact(&inst, &BranchBoundConfig::default());
            assert!(exact.optimal);
            for h in all_heuristics() {
                let mut rng = StdRng::seed_from_u64(seed);
                if let Ok(sol) = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()) {
                    assert!(
                        exact.cost <= sol.cost,
                        "seed {seed}: exact {} > {} {}",
                        exact.cost,
                        h.name(),
                        sol.cost
                    );
                }
            }
        }
    }

    #[test]
    fn upper_bound_seed_prunes_without_changing_result() {
        let inst = paper_instance(8, 1.3, 1);
        let free = solve_exact(&inst, &BranchBoundConfig::default());
        let seeded = solve_exact(
            &inst,
            &BranchBoundConfig {
                upper_bound: Some(free.cost + 1),
                ..Default::default()
            },
        );
        assert_eq!(free.cost, seeded.cost);
        assert!(seeded.nodes <= free.nodes);
    }

    #[test]
    fn infeasible_instances_return_no_mapping() {
        // α = 2.5 on N = 30: the root operator alone exceeds every CPU.
        let inst = paper_instance(30, 2.5, 2);
        let res = solve_exact(
            &inst,
            &BranchBoundConfig {
                node_budget: 200_000,
                upper_bound: None,
            },
        );
        assert!(res.mapping.is_none());
    }

    #[test]
    fn budget_truncation_is_reported() {
        let inst = paper_instance(14, 1.6, 4);
        let res = solve_exact(
            &inst,
            &BranchBoundConfig {
                node_budget: 10,
                upper_bound: None,
            },
        );
        assert!(!res.optimal);
        // A truncated run still certifies the analytic bound, and the
        // nodes count tells "budget too small" apart from "no gap".
        assert_eq!(res.bound, crate::bounds::lower_bound(&inst).value());
        assert!(res.bound >= 7_548, "at least one chassis is certified");
        assert!(res.nodes > 0);
    }

    #[test]
    fn homogeneous_catalog_minimizes_processor_count() {
        let mut inst = paper_instance(8, 1.2, 5);
        inst.platform.catalog = snsp_core::platform::Catalog::homogeneous(4, 4);
        let res = solve_exact(
            &inst,
            &BranchBoundConfig {
                node_budget: u64::MAX,
                ..Default::default()
            },
        );
        if let Some(m) = &res.mapping {
            // With one kind, cost = count × kind cost.
            let kind_cost = inst.platform.catalog.kind(0).cost;
            assert_eq!(res.cost, m.proc_count() as u64 * kind_cost);
        }
    }

    /// Instances whose optimum needs two machines, so the search
    /// branches: incumbent updates and bound pruning both happen.
    /// `(N, α, seed, optimum, nodes)`.
    const BRANCHING: [(usize, f64, u64, u64, u64); 3] = [
        (14, 2.1, 2, 21_193, 7_315),
        (14, 2.2, 7, 21_193, 5_873),
        (16, 2.1, 5, 19_843, 21_502),
    ];

    #[test]
    fn incremental_search_matches_reference_and_prunes_harder() {
        for seed in 0..4u64 {
            for &(n, alpha) in &[(7usize, 0.9), (9, 1.2), (11, 1.5)] {
                let inst = paper_instance(n, alpha, seed);
                let fast = solve_exact(&inst, &BranchBoundConfig::default());
                let slow = solve_exact_reference(&inst, &BranchBoundConfig::default());
                assert!(fast.optimal && slow.optimal);
                assert_eq!(fast.cost, slow.cost, "N={n} α={alpha} seed={seed}");
                assert!(
                    fast.nodes <= slow.nodes,
                    "cut-edge bounds must not explore more: {} > {} (N={n} seed={seed})",
                    fast.nodes,
                    slow.nodes
                );
            }
        }
        for (n, alpha, seed, optimum, nodes) in BRANCHING {
            let inst = paper_instance(n, alpha, seed);
            let fast = solve_exact(&inst, &BranchBoundConfig::default());
            let slow = solve_exact_reference(&inst, &BranchBoundConfig::default());
            let ctx = format!("N={n} α={alpha} seed={seed}");
            assert!(fast.optimal && slow.optimal, "{ctx}");
            assert_eq!((fast.cost, slow.cost), (optimum, optimum), "{ctx}");
            assert_eq!(
                fast.mapping.as_ref().map(Mapping::proc_count),
                Some(2),
                "{ctx}"
            );
            assert_eq!(fast.nodes, nodes, "{ctx}: node count moved");
            assert!(
                fast.nodes < slow.nodes,
                "{ctx}: {} >= {}",
                fast.nodes,
                slow.nodes
            );
        }
        // CONSTR-HOM at N = 20: seeds 0 and 1 are one-machine optima both
        // searches reach in 21 nodes. No grouping fits seed 2, and the
        // cut-edge bounds prove it in 5,595 nodes, where the reference is
        // cut off at the 100k budget (and still at 2M).
        let config = BranchBoundConfig {
            node_budget: 100_000,
            ..Default::default()
        };
        for (seed, nodes, ref_nodes) in [(0, 21, 21), (1, 21, 21), (2, 5_595, 100_001)] {
            let mut inst = paper_instance(20, 0.9, seed);
            inst.platform.catalog = Catalog::homogeneous(0, 0);
            let fast = solve_exact(&inst, &config);
            let slow = solve_exact_reference(&inst, &config);
            let ctx = format!("hom N=20 seed={seed}");
            let feasible = seed < 2;
            assert!(fast.optimal, "{ctx}");
            let procs = fast.mapping.as_ref().map(Mapping::proc_count);
            assert_eq!(procs, feasible.then_some(1), "{ctx}");
            assert_eq!((fast.nodes, slow.nodes), (nodes, ref_nodes), "{ctx}");
            assert_eq!(slow.optimal, feasible, "{ctx}");
            if feasible {
                assert_eq!(slow.cost, fast.cost, "{ctx}");
            }
        }
    }
}
