//! The live shared platform: tenants, purchased processors, download
//! streams, and the incremental operations that mutate them.
//!
//! A [`LivePlatform`] is the online counterpart of an offline
//! [`MultiSolution`]: processors are
//! bought lazily as tenants arrive, shared aggressively (an arriving
//! tree is first packed onto already-purchased machines, reusing the
//! [`shared_demand`] calculus and the [`DownloadLedger`] from
//! `snsp_core::multi`), reclaimed when tenants depart, and re-mapped
//! around failures. Admission, failure re-maps and consolidation share
//! one fit test, which prices a slot as exactly the aggregate the commit
//! installs. Every mutation is transactional — it either commits
//! a state in which every tenant's constraints hold jointly, or leaves
//! the platform untouched — and fully deterministic: all iteration runs
//! in ascending slot/tenant order and the only randomness is the seeded
//! placement heuristic.
//!
//! Processor *slots* are never recycled: a sold or failed slot stays a
//! tombstone so event logs and assignments keep stable ids for the whole
//! trace. [`LivePlatform::snapshot`] compacts live slots into a
//! contiguous [`MultiInstance`]/[`MultiSolution`] pair for engine
//! spot-runs, fingerprints and offline verification ([`verify_joint`]);
//! [`LivePlatform::audit`] checks the same joint capacities on the live
//! slots in place.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::SeedableRng;

use snsp_core::heuristics::{Heuristic, HeuristicError, PipelineOptions};
use snsp_core::ids::{OpId, ProcId, TenantId, TypeId};
use snsp_core::instance::Instance;
use snsp_core::mapping::{Download, Mapping};
#[cfg(doc)]
use snsp_core::multi::verify_joint;
use snsp_core::multi::{
    check_joint, project_mapping, shared_demand, DownloadLedger, MultiInstance, MultiSolution,
    SharedDemand,
};
use snsp_core::object::ObjectCatalog;
use snsp_core::platform::Platform;
use snsp_telemetry::{Class, Counter};

/// First-fit candidate slots whose joint demand fit no catalog kind
/// during an admission pack (each miss advances the scan — the packing
/// analogue of a bound prune). Det: admission control is deterministic.
static SERVE_PACK_PRUNED: Counter = Counter::new("serve.admit.pack_pruned", Class::Det);
/// Evacuation attempts the post-departure consolidation sweep charged
/// but could not commit (no strict cost drop). Det, like the sweep.
static SERVE_EVAC_PRUNED: Counter = Counter::new("serve.consolidation.evac_pruned", Class::Det);
/// Evacuations the consolidation sweep committed. Det, like the sweep.
static SERVE_EVAC_COMMITTED: Counter =
    Counter::new("serve.consolidation.evac_committed", Class::Det);

/// One admitted application.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Trace-assigned identity.
    pub id: TenantId,
    /// The application (tree + ρ over the shared platform).
    pub inst: Instance,
    /// `a(i)` into the live slot table.
    pub assignment: Vec<ProcId>,
}

/// Why an admission was refused.
#[derive(Debug, Clone)]
pub enum AdmitError {
    /// The placement heuristic could not group the tree at all.
    Placement(HeuristicError),
    /// A group fits neither an existing processor nor any purchasable
    /// kind.
    NoCapacity {
        /// First operator of the unplaceable group.
        op: OpId,
    },
    /// Server/link capacity could not source a required download stream.
    Downloads(HeuristicError),
    /// The admission needed a new machine while purchases were frozen by
    /// a capacity revocation ([`LivePlatform::set_purchase_freeze`]).
    CapacityRevoked {
        /// First operator of the group that needed the purchase.
        op: OpId,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Placement(e) => write!(f, "placement failed: {e}"),
            AdmitError::NoCapacity { op } => {
                write!(f, "no processor (existing or new) can host operator {op}")
            }
            AdmitError::Downloads(e) => write!(f, "download sourcing failed: {e}"),
            AdmitError::CapacityRevoked { op } => {
                write!(
                    f,
                    "purchases frozen by capacity revocation; operator {op} needs a new machine"
                )
            }
        }
    }
}

impl std::error::Error for AdmitError {}

/// What an admission changed.
#[derive(Debug, Clone, Copy)]
pub struct AdmitOutcome {
    /// Processors bought for this tenant.
    pub new_procs: usize,
    /// Existing processors the tenant was packed onto.
    pub reused_procs: usize,
    /// Platform cost before the admission.
    pub cost_before: u64,
    /// Platform cost after the admission.
    pub cost_after: u64,
}

/// What a processor failure caused.
#[derive(Debug, Clone, Default)]
pub struct FailOutcome {
    /// The failed slot, if any processor was live.
    pub victim: Option<ProcId>,
    /// Tenants whose displaced operators were re-mapped successfully.
    pub remapped: Vec<TenantId>,
    /// Tenants evicted because no re-mapping existed.
    pub evicted: Vec<TenantId>,
}

/// Default evacuation-attempt budget for [`LivePlatform::depart`]: deep
/// enough that consolidation runs to a fixpoint on every realistic
/// trace, finite so a pathological platform cannot stall the serving
/// loop.
pub const DEFAULT_DEPART_EVALS: u64 = 256;

/// One tenant's operators on one slot, with the terms [`shared_demand`]
/// adds for them.
#[derive(Debug, Clone, Default)]
struct Block {
    /// The operators; ascending in a resident block.
    ops: Vec<OpId>,
    /// `ρ·w` per operator, in `ops` order.
    work: Vec<f64>,
    /// Rates of the cut edges in `shared_demand`'s visit order: per
    /// operator, its children, then its parent.
    cut: Vec<f64>,
    /// Distinct leaf types of `ops`, ascending.
    types: Vec<TypeId>,
}

impl Block {
    /// The operators of `inst` for which `on` holds, ascending — a
    /// tenant's whole block on one slot — with their terms: an edge to an
    /// operator off that slot is cut.
    fn new(inst: &Instance, on: impl Fn(OpId) -> bool) -> Block {
        let mut b = Block::default();
        for op in inst.tree.ops().filter(|&op| on(op)) {
            b.ops.push(op);
            b.work.push(inst.rho * inst.tree.work(op));
            b.types.extend(inst.tree.leaf_types(op));
            for &c in inst.tree.children(op) {
                if !on(c) {
                    b.cut.push(inst.edge_rate(c));
                }
            }
            if inst.tree.parent(op).is_some_and(|p| !on(p)) {
                b.cut.push(inst.edge_rate(op));
            }
        }
        b.types.sort_unstable();
        b.types.dedup();
        b
    }

    /// Continues `d`'s work and communication sums with this block's
    /// terms, in order.
    fn fold_into(&self, d: &mut SharedDemand) {
        for &w in &self.work {
            d.work += w;
        }
        for &rate in &self.cut {
            d.comm += rate;
            d.max_edge = d.max_edge.max(rate);
        }
    }
}

/// What one slot hosts. Every mutation keeps it current, so no reader
/// re-walks the tenants; [`LivePlatform::audit`] checks it against a
/// tenant scan.
#[derive(Debug, Clone, Default)]
struct Resident {
    /// Tenant → its block here.
    blocks: BTreeMap<u32, Block>,
    /// Type → number of blocks needing it; the download set is the keys.
    types: BTreeMap<TypeId, u32>,
    /// [`shared_demand`] of the blocks: refolded from their terms in
    /// ascending tenant order whenever they change, i.e. the scan's
    /// additions in the scan's order, so the same bits.
    demand: SharedDemand,
}

/// The mutable state of one online serving run.
#[derive(Debug, Clone)]
pub struct LivePlatform {
    objects: ObjectCatalog,
    platform: Platform,
    /// Catalog kind per slot; `None` = sold or failed (tombstone).
    slots: Vec<Option<usize>>,
    /// Resident aggregate per slot, parallel to `slots`.
    residents: Vec<Resident>,
    tenants: BTreeMap<u32, Tenant>,
    ledger: DownloadLedger,
    /// When set (by a capacity revocation), no new machine may be
    /// bought: admissions and failure re-maps must make do with the
    /// already-purchased slots or fail/evict.
    frozen: bool,
}

impl LivePlatform {
    /// An empty platform over the shared environment.
    pub fn new(objects: ObjectCatalog, platform: Platform) -> Self {
        let ledger = DownloadLedger::new(&platform);
        LivePlatform {
            objects,
            platform,
            slots: Vec::new(),
            residents: Vec::new(),
            tenants: BTreeMap::new(),
            ledger,
            frozen: false,
        }
    }

    /// Freezes (or thaws) machine purchases. While frozen — the platform
    /// model of a provider-side capacity revocation — total purchased
    /// capacity may not grow: [`admit`](Self::admit) returns
    /// [`AdmitError::CapacityRevoked`] instead of buying a machine *or*
    /// upgrading an existing one's kind, and failure re-maps that would
    /// buy or upgrade evict instead. Deterministic: the flag is explicit
    /// state, toggled only by the fault schedule.
    pub fn set_purchase_freeze(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// The shared object catalog.
    pub fn objects(&self) -> &ObjectCatalog {
        &self.objects
    }

    /// The shared physical platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Live slot indices, ascending.
    pub fn live_slots(&self) -> Vec<usize> {
        (0..self.slots.len())
            .filter(|&u| self.slots[u].is_some())
            .collect()
    }

    /// Number of live processors.
    pub fn proc_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Number of resident tenants.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Resident tenant ids, ascending.
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        self.tenants.keys().map(|&k| TenantId(k)).collect()
    }

    /// A resident tenant.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.get(&id.0)
    }

    /// Current platform cost in dollars (live slots only).
    pub fn cost(&self) -> u64 {
        self.slots
            .iter()
            .flatten()
            .map(|&k| self.platform.catalog.kind(k).cost)
            .sum()
    }

    /// CPU load as `(demanded Gop/s, purchased Gop/s)`. Replay keeps the
    /// raw pair: tier-wide utilization is a ratio of sums, which
    /// per-shard ratios cannot rebuild.
    pub fn cpu_load(&self) -> (f64, f64) {
        let mut used = 0.0;
        for t in self.tenants.values() {
            for op in t.inst.tree.ops() {
                used += t.inst.rho * t.inst.tree.work(op);
            }
        }
        let speed: f64 = self
            .slots
            .iter()
            .flatten()
            .map(|&k| self.platform.catalog.kind(k).speed)
            .sum();
        (used, speed)
    }

    /// Operators each tenant keeps on slot `u`, ascending tenant id.
    fn blocks_on(&self, u: usize) -> Vec<(u32, Vec<OpId>)> {
        self.residents[u]
            .blocks
            .iter()
            .map(|(&tid, b)| (tid, b.ops.clone()))
            .collect()
    }

    /// Re-derives tenant `tid`'s block on slot `u` from its assignment,
    /// dropping it when the tenant left or keeps nothing there, and
    /// refolds the slot's demand. Every mutation calls this for each slot
    /// whose residents it changed. The tenant's blocks on other slots
    /// keep their terms: an edge to an op that moved between two other
    /// slots stays cut.
    fn reindex(&mut self, tid: u32, u: usize) {
        let block = self
            .tenants
            .get(&tid)
            .map(|t| Block::new(&t.inst, |op| t.assignment[op.index()].index() == u));
        let r = &mut self.residents[u];
        for ty in r.blocks.remove(&tid).map(|b| b.types).unwrap_or_default() {
            let n = r.types.get_mut(&ty).expect("an indexed type has a count");
            *n -= 1;
            if *n == 0 {
                r.types.remove(&ty);
            }
        }
        if let Some(b) = block.filter(|b| !b.ops.is_empty()) {
            for &ty in &b.types {
                *r.types.entry(ty).or_insert(0) += 1;
            }
            r.blocks.insert(tid, b);
        }
        let mut d = SharedDemand::default();
        for b in r.blocks.values() {
            b.fold_into(&mut d);
        }
        if !r.blocks.is_empty() {
            d.download = r.types.keys().map(|&ty| self.objects.rate(ty)).sum();
        }
        r.demand = d;
    }

    /// Moves tenant `tid`'s `ops` from slot `from` to slot `to` and
    /// re-indexes both; on `to` they merge with the tenant's ops already
    /// there.
    fn move_block(&mut self, tid: u32, ops: &[OpId], from: usize, to: usize) {
        let t = self
            .tenants
            .get_mut(&tid)
            .expect("a moved block's tenant is resident");
        for &op in ops {
            t.assignment[op.index()] = ProcId::from(to);
        }
        self.reindex(tid, from);
        self.reindex(tid, to);
    }

    /// The demand slot `v` carries once each `landing` tenant's block is
    /// on it: `landing` is ascending by tenant and holds each tenant's
    /// whole block on `v` after the move, so it has every type of the
    /// resident block it replaces. `v` is `None` for a machine yet to be
    /// bought; a slot bought earlier in the same admission has no
    /// residents either. The result is the refold
    /// [`reindex`](Self::reindex) installs when the move commits: the
    /// residents' terms in ascending tenant order, a landing block in
    /// place of its tenant's resident one. When every landing tenant is
    /// above the residents (new arrivals), that refold continues the
    /// cached aggregate.
    fn landing_demand(&self, v: Option<usize>, landing: &[(u32, &Block)]) -> SharedDemand {
        let mut d = SharedDemand::default();
        let mut types: Vec<TypeId> = landing
            .iter()
            .flat_map(|(_, b)| &b.types)
            .copied()
            .collect();
        let mut landing = landing.iter().peekable();
        if let Some(r) = v.and_then(|v| self.residents.get(v)) {
            types.extend(r.types.keys());
            let top = r.blocks.last_key_value().map(|(&tid, _)| tid);
            if landing.peek().is_some_and(|&&(tid, _)| Some(tid) <= top) {
                for (&tid, b) in &r.blocks {
                    while let Some((_, lb)) = landing.next_if(|&&(t, _)| t < tid) {
                        lb.fold_into(&mut d);
                    }
                    match landing.next_if(|&&(t, _)| t == tid) {
                        Some((_, lb)) => lb.fold_into(&mut d),
                        None => b.fold_into(&mut d),
                    }
                }
            } else {
                d = r.demand;
            }
        }
        for (_, b) in landing {
            b.fold_into(&mut d);
        }
        types.sort_unstable();
        types.dedup();
        d.download = types.iter().map(|&ty| self.objects.rate(ty)).sum();
        d
    }

    /// Oracle for the resident index: every slot's blocks as
    /// `(tenant, ops)` lists, built by one ascending pass over the
    /// tenants. Only [`audit`](Self::audit) calls it, after checking that
    /// every operator sits on an existing slot.
    fn blocks_scan(&self) -> Vec<Vec<(u32, Vec<OpId>)>> {
        let mut out: Vec<Vec<(u32, Vec<OpId>)>> = vec![Vec::new(); self.slots.len()];
        for (&tid, t) in &self.tenants {
            for op in t.inst.tree.ops() {
                let on_u = &mut out[t.assignment[op.index()].index()];
                match on_u.last_mut() {
                    Some((last, ops)) if *last == tid => ops.push(op),
                    _ => on_u.push((tid, vec![op])),
                }
            }
        }
        out
    }

    /// Oracle for a slot's type refcounts: per type, how many of the
    /// scanned `blocks` need it. Each block's types are deduplicated in
    /// one reused buffer.
    fn types_scan(&self, blocks: &[(u32, Vec<OpId>)]) -> BTreeMap<TypeId, u32> {
        let mut counts = BTreeMap::new();
        let mut types: Vec<TypeId> = Vec::new();
        for (tid, ops) in blocks {
            let tree = &self.tenants[tid].inst.tree;
            types.clear();
            types.extend(ops.iter().flat_map(|&op| tree.leaf_types(op)));
            types.sort_unstable();
            types.dedup();
            for &ty in &types {
                *counts.entry(ty).or_insert(0) += 1;
            }
        }
        counts
    }

    /// Oracle for a slot's demand: [`shared_demand`] over the scanned
    /// `blocks` of slot `u`, each member's tenant looked up once.
    fn demand_scan(&self, u: usize, blocks: &[(u32, Vec<OpId>)]) -> SharedDemand {
        let tenants: Vec<&Tenant> = blocks.iter().map(|(tid, _)| &self.tenants[tid]).collect();
        let members: Vec<(&Instance, &[OpId])> = tenants
            .iter()
            .zip(blocks)
            .map(|(t, (_, ops))| (&t.inst, ops.as_slice()))
            .collect();
        shared_demand(&members, |m, op| {
            tenants[m].assignment[op.index()].index() == u
        })
    }

    /// The cheapest kind hosting `demand`, or `None` if not even the most
    /// capable kind (or the pair link) can.
    fn kind_fitting(&self, d: &SharedDemand) -> Option<usize> {
        let top = self.platform.catalog.most_expensive();
        if !d.fits(&self.platform.catalog.kind(top), self.platform.proc_link) {
            return None;
        }
        self.platform.catalog.cheapest_fitting(d.work, d.nic_need())
    }

    /// The kind a slot of kind `current` (`None`: a machine to buy) takes
    /// to host `d`: the cheapest that fits, or `None` when none does or
    /// when purchases are frozen and it would add capacity — a purchase,
    /// or a dearer kind than `current`.
    fn refit(&self, current: Option<usize>, d: &SharedDemand) -> Option<usize> {
        let kind = self.kind_fitting(d)?;
        let cost = |k| self.platform.catalog.kind(k).cost;
        (!self.frozen || current.is_some_and(|c| cost(kind) <= cost(c))).then_some(kind)
    }

    /// Ensures download streams on slot `u` for every object type the
    /// given operators of `inst` need (idempotent per `(slot, type)`, so
    /// types another tenant already streams are free — the shared-download
    /// saving).
    fn ensure_downloads(
        ledger: &mut DownloadLedger,
        platform: &Platform,
        objects: &ObjectCatalog,
        inst: &Instance,
        ops: &[OpId],
        u: usize,
    ) -> Result<(), HeuristicError> {
        let mut types: Vec<TypeId> = ops
            .iter()
            .flat_map(|&op| inst.tree.leaf_types(op).iter().copied())
            .collect();
        types.sort_unstable();
        types.dedup();
        for ty in types {
            ledger.ensure(platform, objects.rate(ty), ProcId::from(u), ty)?;
        }
        Ok(())
    }

    /// Admits tenant `id` with application `inst`: places the tree with
    /// `heuristic` (RNG derived from `seed`), then packs each group onto
    /// the first existing processor whose joint demand still fits —
    /// upgrading that processor's kind as needed — buying
    /// new processors only for groups no live machine can absorb.
    /// Transactional: on any error the platform is unchanged.
    pub fn admit(
        &mut self,
        id: TenantId,
        inst: Instance,
        heuristic: &dyn Heuristic,
        seed: u64,
        opts: &PipelineOptions,
    ) -> Result<AdmitOutcome, AdmitError> {
        assert!(
            !self.tenants.contains_key(&id.0),
            "tenant {id} admitted twice"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let placed = heuristic
            .place(&inst, &mut rng, &opts.placement)
            .map_err(AdmitError::Placement)?;
        let cost_before = self.cost();

        // Scratch state: commit only when every group and download lands.
        let mut slots = self.slots.clone();
        let mut ledger = self.ledger.clone();
        let mut assignment = vec![ProcId(u32::MAX); inst.tree.len()];
        let mut reused: BTreeSet<usize> = BTreeSet::new();
        let mut bought: Vec<usize> = Vec::new();

        for group in &placed.groups {
            let in_group: BTreeSet<usize> = group.ops.iter().map(|op| op.index()).collect();
            let mut chosen = None;
            // First-fit over already-purchased processors, ascending.
            for (u, slot) in slots.iter().enumerate() {
                if slot.is_none() {
                    continue;
                }
                // This group plus the tenant's earlier groups already on `u`.
                let block = Block::new(&inst, |op| {
                    in_group.contains(&op.index()) || assignment[op.index()].index() == u
                });
                let d = self.landing_demand(Some(u), &[(id.0, &block)]);
                if let Some(kind) = self.refit(*slot, &d) {
                    chosen = Some((u, kind, false));
                    break;
                }
                SERVE_PACK_PRUNED.incr();
            }
            // Otherwise buy the cheapest machine hosting the group alone.
            if chosen.is_none() {
                let alone = Block::new(&inst, |op| in_group.contains(&op.index()));
                let d = self.landing_demand(None, &[(id.0, &alone)]);
                let Some(kind) = self.refit(None, &d) else {
                    let op = group.ops[0];
                    return Err(if self.frozen {
                        AdmitError::CapacityRevoked { op }
                    } else {
                        AdmitError::NoCapacity { op }
                    });
                };
                slots.push(None); // reserve the new slot index
                chosen = Some((slots.len() - 1, kind, true));
            }
            let (u, kind, new) = chosen.unwrap();
            slots[u] = Some(kind);
            if new {
                bought.push(u);
            } else if u < self.slots.len() {
                // Live before this admission, not bought earlier in it.
                reused.insert(u);
            }
            for &op in &group.ops {
                assignment[op.index()] = ProcId::from(u);
            }
        }

        // Download streams for every touched slot.
        let mut touched: Vec<usize> = assignment.iter().map(|p| p.index()).collect();
        touched.sort_unstable();
        touched.dedup();
        for &u in &touched {
            let ops: Vec<OpId> = inst
                .tree
                .ops()
                .filter(|&op| assignment[op.index()].index() == u)
                .collect();
            Self::ensure_downloads(&mut ledger, &self.platform, &self.objects, &inst, &ops, u)
                .map_err(AdmitError::Downloads)?;
        }

        // Commit.
        self.slots = slots;
        self.residents
            .resize_with(self.slots.len(), Resident::default);
        self.ledger = ledger;
        self.tenants.insert(
            id.0,
            Tenant {
                id,
                inst,
                assignment,
            },
        );
        for &u in &touched {
            self.reindex(id.0, u);
        }
        Ok(AdmitOutcome {
            new_procs: bought.len(),
            reused_procs: reused.len(),
            cost_before,
            cost_after: self.cost(),
        })
    }

    /// Removes a tenant, reclaims its download streams and empty
    /// processors, then runs the budgeted re-consolidation refinement
    /// ([`DEFAULT_DEPART_EVALS`] evacuation attempts) and the downgrade
    /// pass. Returns `false` if the tenant was not resident (rejected or
    /// already evicted).
    pub fn depart(&mut self, id: TenantId) -> bool {
        self.depart_budgeted(id, &mut snsp_search::Budget::new(DEFAULT_DEPART_EVALS))
    }

    /// [`depart`](Self::depart) with an explicit refinement budget: the
    /// post-departure consolidation loops over the live slots (lightest
    /// joint work first), charging `budget` one unit per evacuation
    /// attempt, until a full pass commits nothing or the budget runs
    /// out. The **first pass always completes** regardless of budget —
    /// it is exactly the old single evacuate-and-downgrade sweep, so a
    /// tight (even zero) budget can never consolidate *less* than the
    /// pre-refinement serving layer did; every further pass only
    /// descends (an evacuation commits only when the platform cost
    /// strictly drops), the serving-layer instance of `snsp-search`'s
    /// anytime contract.
    pub fn depart_budgeted(&mut self, id: TenantId, budget: &mut snsp_search::Budget) -> bool {
        if !self.evict(id.0) {
            return false;
        }
        self.refine_consolidation(budget);
        self.downgrade_all();
        true
    }

    /// Budgeted multi-pass re-consolidation: repeats evacuation sweeps
    /// while they keep paying for themselves and the budget lasts. The
    /// first sweep runs to completion even on an exhausted budget (it
    /// still charges whatever remains), so the old single-pass behavior
    /// is a floor, never a ceiling.
    fn refine_consolidation(&mut self, budget: &mut snsp_search::Budget) {
        let mut first = true;
        loop {
            let mut changed = false;
            let mut order: Vec<(u64, usize)> = self
                .live_slots()
                .into_iter()
                .map(|u| ((self.residents[u].demand.work * 1e6) as u64, u))
                .collect();
            order.sort_unstable();
            for (_, u) in order {
                if !budget.charge(1) && !first {
                    return;
                }
                if self.slots[u].is_some() {
                    if self.try_evacuate(u) {
                        SERVE_EVAC_COMMITTED.incr();
                        changed = true;
                    } else {
                        SERVE_EVAC_PRUNED.incr();
                    }
                }
            }
            first = false;
            if !changed {
                return;
            }
        }
    }

    /// Kills live slot `victim`, re-maps every displaced operator block
    /// onto the surviving machines (buying replacements when packing
    /// fails), and evicts tenants whose blocks fit nowhere. The failure
    /// lottery is drawn over every shard's live slots by
    /// [`ShardedPlatform::fail`](crate::shard::ShardedPlatform::fail),
    /// which targets the victim shard's slot through this entry point.
    /// Panics if `victim` is not a live slot.
    pub fn fail_slot(&mut self, victim: usize) -> FailOutcome {
        assert!(self.slots[victim].is_some(), "slot {victim} is not live");
        let mut out = FailOutcome {
            victim: Some(ProcId::from(victim)),
            ..Default::default()
        };

        // The machine is gone: its streams release server/link capacity.
        for d in self.ledger.downloads_of(ProcId::from(victim)) {
            self.ledger.release(self.objects.rate(d.ty), d.proc, d.ty);
        }
        self.slots[victim] = None;

        let displaced = self.blocks_on(victim);
        for (tid, ops) in displaced {
            if self.replace_block(tid, &ops, victim) {
                out.remapped.push(TenantId(tid));
            } else {
                self.evict(tid);
                out.evicted.push(TenantId(tid));
            }
        }
        self.sell_empty_slots();
        self.downgrade_all();
        out
    }

    /// Re-places one tenant's displaced block (currently assigned to the
    /// dead slot `dead`): first-fit over live slots, then a fresh
    /// purchase (refused while purchases are frozen, which evicts the
    /// tenant to the retry queue). Commits assignment + downloads on
    /// success.
    fn replace_block(&mut self, tid: u32, ops: &[OpId], dead: usize) -> bool {
        let t = &self.tenants[&tid];
        let fresh = self.slots.len();
        for u in self.live_slots().into_iter().map(Some).chain([None]) {
            let block = Block::new(&t.inst, |op| {
                let a = t.assignment[op.index()].index();
                a == dead || Some(a) == u
            });
            let d = self.landing_demand(u, &[(tid, &block)]);
            let Some(kind) = self.refit(u.and_then(|u| self.slots[u]), &d) else {
                continue;
            };
            let u = u.unwrap_or(fresh);
            let mut ledger = self.ledger.clone();
            if Self::ensure_downloads(&mut ledger, &self.platform, &self.objects, &t.inst, ops, u)
                .is_err()
            {
                continue;
            }
            self.ledger = ledger;
            if u == fresh {
                self.slots.push(None);
                self.residents.push(Resident::default());
            }
            self.slots[u] = Some(kind);
            self.move_block(tid, ops, dead, u);
            return true;
        }
        false
    }

    /// Removes a tenant, its blocks, the download streams only it needed
    /// and the machines it leaves empty. Returns `false` if the tenant
    /// was not resident.
    fn evict(&mut self, tid: u32) -> bool {
        let Some(t) = self.tenants.remove(&tid) else {
            return false;
        };
        let mut touched: Vec<usize> = t.assignment.iter().map(|p| p.index()).collect();
        touched.sort_unstable();
        touched.dedup();
        for &u in &touched {
            self.reindex(tid, u);
            if self.slots[u].is_some() {
                self.prune_downloads(u);
            }
        }
        self.sell_empty_slots();
        true
    }

    /// Drops every download stream on `u` that no resident tenant still
    /// needs.
    fn prune_downloads(&mut self, u: usize) {
        for d in self.ledger.downloads_of(ProcId::from(u)) {
            if !self.residents[u].types.contains_key(&d.ty) {
                self.ledger.release(self.objects.rate(d.ty), d.proc, d.ty);
            }
        }
    }

    /// Sells every live slot hosting no operators.
    fn sell_empty_slots(&mut self) {
        for u in 0..self.slots.len() {
            if self.slots[u].is_some() && self.residents[u].blocks.is_empty() {
                for d in self.ledger.downloads_of(ProcId::from(u)) {
                    self.ledger.release(self.objects.rate(d.ty), d.proc, d.ty);
                }
                self.slots[u] = None;
            }
        }
    }

    /// Attempts to empty slot `u` by first-fit onto the other live slots:
    /// commit only when everything relocates and the total cost strictly
    /// drops (the consolidation step the budgeted departure refinement
    /// charges per attempt).
    fn try_evacuate(&mut self, u: usize) -> bool {
        // Read in place: a failed attempt copies no block.
        let blocks = &self.residents[u].blocks;
        if blocks.is_empty() {
            return false;
        }
        let mut slots = self.slots.clone();
        slots[u] = None;
        // Each relocated tenant's destination and whole block there;
        // later fit tests price the earlier blocks on their destinations.
        let mut landed: BTreeMap<u32, (usize, Block)> = BTreeMap::new();
        for &tid in blocks.keys() {
            let t = &self.tenants[&tid];
            let mut dest = None;
            for (v, slot) in slots.iter().enumerate() {
                if slot.is_none() {
                    continue;
                }
                let block = Block::new(&t.inst, |op| {
                    let a = t.assignment[op.index()].index();
                    a == u || a == v
                });
                let mut landing: Vec<(u32, &Block)> = landed
                    .iter()
                    .filter(|(_, (w, _))| *w == v)
                    .map(|(&t, (_, b))| (t, b))
                    .collect();
                landing.push((tid, &block));
                if let Some(kind) = self.kind_fitting(&self.landing_demand(Some(v), &landing)) {
                    dest = Some((v, kind, block));
                    break;
                }
            }
            let Some((v, kind, block)) = dest else {
                return false; // cannot empty u; no commit
            };
            slots[v] = Some(kind);
            landed.insert(tid, (v, block));
        }
        // Move the streams: release everything on u, re-source per dest
        // in ascending tenant order (the ledger's server choice depends
        // on it).
        let mut ledger = self.ledger.clone();
        for d in ledger.downloads_of(ProcId::from(u)) {
            ledger.release(self.objects.rate(d.ty), d.proc, d.ty);
        }
        for (tid, Block { ops, .. }) in blocks {
            let v = landed[tid].0;
            let t = &self.tenants[tid];
            if Self::ensure_downloads(&mut ledger, &self.platform, &self.objects, &t.inst, ops, v)
                .is_err()
            {
                return false;
            }
        }
        let cost_after: u64 = slots
            .iter()
            .flatten()
            .map(|&k| self.platform.catalog.kind(k).cost)
            .sum();
        if cost_after >= self.cost() {
            return false; // consolidation must pay for itself
        }
        // Commit.
        self.slots = slots;
        self.ledger = ledger;
        for (tid, ops) in self.blocks_on(u) {
            self.move_block(tid, &ops, u, landed[&tid].0);
        }
        true
    }

    /// Re-fits every live slot to the cheapest kind hosting its current
    /// joint demand (the online analogue of the paper's downgrade pass —
    /// it also undoes now-oversized upgrades after departures).
    fn downgrade_all(&mut self) {
        for u in self.live_slots() {
            if let Some(kind) = self.kind_fitting(&self.residents[u].demand) {
                self.slots[u] = Some(kind);
            }
        }
    }

    /// Evicts tenant `id` outright — the graceful-degradation shed:
    /// unlike [`depart`](Self::depart) it skips the consolidation
    /// refinement (shedding happens under pressure; the cheap reclaim
    /// path is the point) but still prunes downloads, sells emptied
    /// slots, and downgrades. Returns `false` if the tenant was not
    /// resident.
    pub fn shed(&mut self, id: TenantId) -> bool {
        if !self.evict(id.0) {
            return false;
        }
        self.downgrade_all();
        true
    }

    /// The degradation value of a resident tenant: its total demanded
    /// compute `ρ·Σ work` in Gop/s (the serving revenue proxy — shed
    /// ascending). `None` if not resident.
    pub fn tenant_value(&self, id: TenantId) -> Option<f64> {
        let t = self.tenants.get(&id.0)?;
        Some(
            t.inst
                .tree
                .ops()
                .map(|op| t.inst.rho * t.inst.tree.work(op))
                .sum(),
        )
    }

    /// Checks every structural invariant the serving layer relies on and
    /// returns the first violation as text. Clean platforms hold all of:
    ///
    /// 1. every resident operator is assigned to a **live** slot;
    /// 2. every live slot hosts at least one operator (empty machines
    ///    are sold eagerly, so a survivor is leaked state);
    /// 3. every slot's resident aggregate equals a scan of the tenants:
    ///    the same `(tenant, ops)` blocks, the same type refcounts and,
    ///    bit for bit, the same [`shared_demand`];
    /// 4. every live slot holds the cheapest kind its aggregate fits:
    ///    commits price a slot as exactly what they install, and
    ///    removals re-fit;
    /// 5. download-ledger conservation: the multiset of `(slot, type)`
    ///    streams equals — without duplicates — exactly the set the
    ///    residents need;
    /// 6. the joint capacities hold, checked in place by [`check_joint`]
    ///    against this platform's own environment: CPU (constraint 1)
    ///    and NIC (2) per slot and NIC per server (3), each summed over
    ///    every tenant; any load on a tombstone is an overload. No
    ///    tenant is cloned. It checks neither server→processor links
    ///    (constraint 4) nor processor-pair links (constraint 5); see the
    ///    joint-link item in ROADMAP.md.
    ///
    /// The chaos harness runs this after every injected fault
    /// (`audit_platform` extends it with cross-shard checks).
    pub fn audit(&self) -> Result<(), String> {
        for (&tid, t) in &self.tenants {
            if t.assignment.len() != t.inst.tree.len() {
                return Err(format!("tenant {tid}: assignment/tree length mismatch"));
            }
            for op in t.inst.tree.ops() {
                let u = t.assignment[op.index()].index();
                if self.slots.get(u).is_none_or(|s| s.is_none()) {
                    return Err(format!(
                        "tenant {tid}: operator {op} assigned to dead slot {u}"
                    ));
                }
            }
        }
        if self.residents.len() != self.slots.len() {
            return Err("resident index and slot table differ in length".into());
        }
        let bits = |d: SharedDemand| [d.work, d.download, d.comm, d.max_edge].map(f64::to_bits);
        let mut need: BTreeSet<(usize, TypeId)> = BTreeSet::new();
        for (u, blocks) in self.blocks_scan().iter().enumerate() {
            if self.slots[u].is_some() && blocks.is_empty() {
                return Err(format!("live slot {u} hosts no operators (leaked machine)"));
            }
            let r = &self.residents[u];
            let indexed = r.blocks.iter().map(|(&tid, b)| (tid, &b.ops));
            if !indexed.eq(blocks.iter().map(|(tid, ops)| (*tid, ops))) {
                return Err(format!(
                    "slot {u}: block index differs from the tenant scan"
                ));
            }
            let types = self.types_scan(blocks);
            if r.types != types {
                return Err(format!(
                    "slot {u}: type refcounts differ from the tenant scan"
                ));
            }
            let scanned = self.demand_scan(u, blocks);
            if bits(r.demand) != bits(scanned) {
                return Err(format!(
                    "slot {u}: aggregate demand {:?} differs from the tenant scan's {scanned:?}",
                    r.demand
                ));
            }
            if let Some(kind) = self.slots[u] {
                if self.kind_fitting(&r.demand) != Some(kind) {
                    return Err(format!(
                        "slot {u}: kind {kind} is not the one its demand {:?} fits",
                        r.demand
                    ));
                }
            }
            need.extend(types.keys().map(|&ty| (u, ty)));
        }
        // Sorted by `(slot, type, server)`, as the snapshot lists them.
        let streams = self.ledger.downloads();
        let have: Vec<(usize, TypeId)> = streams.iter().map(|d| (d.proc.index(), d.ty)).collect();
        if let Some(w) = have.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "duplicate download stream (slot {}, type {})",
                w[0].0, w[0].1
            ));
        }
        for &(u, ty) in &have {
            if !need.remove(&(u, ty)) {
                return Err(format!(
                    "ledger streams (slot {u}, type {ty}) which no resident needs"
                ));
            }
        }
        if let Some(&(u, ty)) = need.iter().next() {
            return Err(format!(
                "residents need (slot {u}, type {ty}) but the ledger has no stream"
            ));
        }
        self.joint_check(&streams)
    }

    /// Rule 6 of [`audit`](Self::audit): [`check_joint`] on the live tier
    /// in place — each tenant's instance and assignment, the slot table
    /// with its tombstones, the ledger's `streams` (sorted) and this
    /// platform's own environment — with every violation as text.
    /// Compaction keeps the `(slot, type, server)` order, so on a platform
    /// that passes rules 1–5, and whose tenants carry its environment, it
    /// adds the same terms in the same order as [`verify_joint`] on the
    /// [`snapshot`](Self::snapshot): it accepts and rejects exactly what
    /// that does, without cloning a tenant.
    fn joint_check(&self, streams: &[Download]) -> Result<(), String> {
        let apps = self.tenants.values();
        let apps = apps.map(|t| (&t.inst, t.assignment.as_slice()));
        check_joint(&self.platform, &self.objects, &self.slots, apps, streams).map_err(|v| {
            let v: Vec<String> = v.iter().map(ToString::to_string).collect();
            format!("joint capacity check failed: {}", v.join("; "))
        })
    }

    /// Renumbers the live slots `0..` in ascending order.
    fn compaction(&self) -> Compaction {
        let mut index = vec![None; self.slots.len()];
        let live = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(u, k)| Some((u, (*k)?)));
        let mut proc_kinds = Vec::new();
        for (u, kind) in live {
            index[u] = Some(ProcId::from(proc_kinds.len()));
            proc_kinds.push(kind);
        }
        let mut downloads: Vec<Download> = self
            .ledger
            .downloads()
            .into_iter()
            .filter_map(|mut d| {
                d.proc = index[d.proc.index()]?;
                Some(d)
            })
            .collect();
        downloads.sort_unstable();
        Compaction {
            index,
            proc_kinds,
            downloads,
        }
    }

    /// Each resident tenant, in ascending id, with its engine projection:
    /// the [`Mapping`] that [`snapshot`](Self::snapshot) and
    /// [`mapping_for`](snsp_core::multi::MultiSolution::mapping_for) give
    /// its index, built through the same [`project_mapping`] from the
    /// live slots, the ledger and the tenant's own instance and
    /// assignment, borrowed: no instance is cloned.
    pub fn projections(&self) -> impl Iterator<Item = (&Tenant, Mapping)> {
        let c = self.compaction();
        self.tenants.values().map(move |t| {
            let mapping = project_mapping(&t.inst, &c.proc_kinds, c.assignment(t), &c.downloads);
            (t, mapping)
        })
    }

    /// Compacts the live platform into an offline snapshot: a
    /// [`MultiInstance`] over the resident tenants (ascending id — index
    /// `k` is `tenant_ids()[k]`) and the matching [`MultiSolution`], ready
    /// for [`verify_joint`] or per-tenant
    /// engine projections via
    /// [`mapping_for`](snsp_core::multi::MultiSolution::mapping_for).
    /// `None` when no tenant is resident. Clones every resident
    /// [`Instance`]; [`projections`](Self::projections) borrows them.
    pub fn snapshot(&self) -> Option<(MultiInstance, MultiSolution)> {
        if self.tenants.is_empty() {
            return None;
        }
        let c = self.compaction();
        let apps: Vec<Instance> = self.tenants.values().map(|t| t.inst.clone()).collect();
        let assignments = self.tenants.values().map(|t| c.assignment(t)).collect();
        let multi = MultiInstance::new(apps).ok()?;
        Some((
            multi,
            MultiSolution {
                proc_kinds: c.proc_kinds,
                assignments,
                downloads: c.downloads,
                cost: self.cost(),
            },
        ))
    }
}

/// The live slots renumbered `0..` in ascending order, as a snapshot and
/// the engine projections see them. The renumbering is monotone, so
/// the streams keep the ledger's `(slot, type, server)` order.
struct Compaction {
    /// Compact index per slot; `None` for a tombstone.
    index: Vec<Option<ProcId>>,
    /// Kind per compact processor.
    proc_kinds: Vec<usize>,
    /// The ledger's streams on live slots, renumbered, sorted.
    downloads: Vec<Download>,
}

impl Compaction {
    /// `t`'s assignment renumbered onto the compact processors.
    fn assignment(&self, t: &Tenant) -> Vec<ProcId> {
        let compact = |p: &ProcId| self.index[p.index()].expect("tenants sit on live slots");
        t.assignment.iter().map(compact).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snsp_core::heuristics::SubtreeBottomUp;
    use snsp_core::multi::verify_joint;
    use snsp_gen::{tenant_instance, trace_environment, TenantSpec, TraceParams, TreeShape};

    fn environment(seed: u64) -> LivePlatform {
        let params = TraceParams::poisson(0.5, 5.0, 20.0);
        let (objects, platform) = trace_environment(&params, seed);
        LivePlatform::new(objects, platform)
    }

    fn spec(n_ops: usize, rho: f64, tree_seed: u64) -> TenantSpec {
        TenantSpec {
            n_ops,
            alpha: 1.0,
            rho,
            shape: TreeShape::Random,
            tree_seed,
        }
    }

    fn admit(live: &mut LivePlatform, id: u32, s: TenantSpec) -> Result<AdmitOutcome, AdmitError> {
        let inst = tenant_instance(live.objects(), live.platform(), &s);
        live.admit(
            TenantId(id),
            inst,
            &SubtreeBottomUp,
            1000 + id as u64,
            &PipelineOptions::default(),
        )
    }

    /// Fails the `lottery`-th live slot (modulo the live count).
    fn fail_drawn(live: &mut LivePlatform, lottery: u64) -> FailOutcome {
        let slots = live.live_slots();
        live.fail_slot(slots[(lottery % slots.len() as u64) as usize])
    }

    #[test]
    fn admissions_share_processors_and_verify_jointly() {
        let mut live = environment(1);
        let first = admit(&mut live, 0, spec(10, 1.0, 11)).expect("first tenant fits");
        assert!(first.new_procs >= 1);
        assert_eq!(first.cost_before, 0);
        let mut any_reuse = false;
        for id in 1..5u32 {
            let out =
                admit(&mut live, id, spec(8, 0.8, 20 + id as u64)).expect("small tenants fit");
            any_reuse |= out.reused_procs > 0;
            assert!(out.cost_after >= out.cost_before || out.new_procs == 0);
        }
        assert!(any_reuse, "incremental packing never reused a machine");
        let (multi, sol) = live.snapshot().unwrap();
        verify_joint(&multi, &sol).expect("joint constraints hold after admissions");
        assert_eq!(sol.assignments.len(), 5);
        // A later group packed onto the machine bought for an earlier
        // group of the same admission reuses nothing.
        let mut fresh = environment(1);
        let out = admit(&mut fresh, 0, spec(12, 8.0, 301)).expect("one tenant fits");
        assert_eq!((out.new_procs, out.reused_procs), (1, 0));
        assert_eq!(fresh.proc_count(), 1);
    }

    #[test]
    fn departures_reclaim_cost_down_to_zero() {
        let mut live = environment(2);
        for id in 0..4u32 {
            admit(&mut live, id, spec(8, 1.0, 40 + id as u64)).unwrap();
        }
        let full_cost = live.cost();
        assert!(full_cost > 0);
        for id in 0..4u32 {
            assert!(live.depart(TenantId(id)));
            if let Some((multi, sol)) = live.snapshot() {
                verify_joint(&multi, &sol).expect("still feasible after departure");
            }
        }
        assert_eq!(live.cost(), 0, "everything reclaimed");
        assert_eq!(live.proc_count(), 0);
        assert!(!live.depart(TenantId(0)), "double departure is a no-op");
    }

    #[test]
    fn reconsolidation_never_raises_cost() {
        let mut live = environment(3);
        for id in 0..6u32 {
            let _ = admit(&mut live, id, spec(9, 0.7, 60 + id as u64));
        }
        let before = live.cost();
        // Departing half the tenants must never leave cost above the
        // pre-departure platform.
        for id in [0u32, 2, 4] {
            live.depart(TenantId(id));
            assert!(live.cost() <= before);
        }
        if let Some((multi, sol)) = live.snapshot() {
            verify_joint(&multi, &sol).expect("consolidated platform verifies");
        }
    }

    #[test]
    fn failures_remap_or_evict_and_stay_feasible() {
        let mut live = environment(4);
        for id in 0..4u32 {
            admit(&mut live, id, spec(8, 1.0, 80 + id as u64)).unwrap();
        }
        let tenants_before = live.tenant_count();
        let out = fail_drawn(&mut live, 7);
        assert!(out.victim.is_some());
        assert_eq!(
            live.tenant_count(),
            tenants_before - out.evicted.len(),
            "every displaced tenant is either remapped or evicted"
        );
        if let Some((multi, sol)) = live.snapshot() {
            verify_joint(&multi, &sol).expect("post-failure platform verifies");
        }
    }

    #[test]
    fn failures_are_cost_neutral_unless_purchases_are_frozen() {
        // Residents packed onto one machine: losing it re-buys the same
        // kind, so a failure moves neither cost nor counts — why the
        // `100k-flaky` serve row reports the same cost integral as
        // `100k`. Frozen, no replacement can be bought and every
        // resident is evicted.
        let packed = || {
            let mut live = environment(12);
            for id in 0..3u32 {
                admit(&mut live, id, spec(4, 0.3, 220 + id as u64)).expect("small tenants fit");
            }
            assert_eq!(live.proc_count(), 1, "small tenants share one machine");
            live
        };
        let mut thawed = packed();
        let (cost, tenants) = (thawed.cost(), thawed.tenant_count());
        let out = thawed.fail_slot(thawed.live_slots()[0]);
        assert!(out.evicted.is_empty(), "a thawed failure evicts nobody");
        assert_eq!(out.remapped.len(), tenants);
        assert_eq!(thawed.cost(), cost);
        assert_eq!(thawed.proc_count(), 1);
        assert_eq!(thawed.tenant_count(), tenants);
        thawed.audit().expect("re-bought platform audits clean");

        let mut frozen = packed();
        frozen.set_purchase_freeze(true);
        let out = frozen.fail_slot(frozen.live_slots()[0]);
        assert_eq!(out.evicted.len(), tenants, "frozen, every resident goes");
        assert_eq!(frozen.tenant_count(), 0);
        assert_eq!(frozen.cost(), 0);
        frozen.audit().expect("emptied platform audits clean");
    }

    #[test]
    fn budgeted_departure_never_beats_unbudgeted_and_stays_feasible() {
        // The budgeted refinement subsumes the old single pass: a zero
        // budget degenerates to exactly that first sweep (which always
        // completes), a generous one must end at or below its cost, and
        // every intermediate state verifies jointly.
        let build = || {
            let mut live = environment(7);
            for id in 0..8u32 {
                let _ = admit(&mut live, id, spec(8, 0.6, 100 + id as u64));
            }
            live
        };
        let mut generous = build();
        let mut starved = build();
        // Identical pre-departure states: the refined path only ever
        // commits strictly-improving evacuations, so it cannot end above
        // the unrefined one.
        let mut big = snsp_search::Budget::new(10_000);
        assert!(generous.depart_budgeted(TenantId(0), &mut big));
        let mut none = snsp_search::Budget::new(0);
        assert!(starved.depart_budgeted(TenantId(0), &mut none));
        assert!(
            generous.cost() <= starved.cost(),
            "budgeted refinement must not cost more than no refinement"
        );
        // Further refined departures: cost is monotone against the
        // pre-departure platform and every state verifies jointly.
        for id in [2u32, 4, 5] {
            let before = generous.cost();
            let mut big = snsp_search::Budget::new(10_000);
            assert!(generous.depart_budgeted(TenantId(id), &mut big));
            assert!(generous.cost() <= before);
            if let Some((multi, sol)) = generous.snapshot() {
                verify_joint(&multi, &sol).expect("refined platform verifies");
            }
        }
    }

    #[test]
    fn departure_budget_is_charged_per_attempt() {
        let mut live = environment(8);
        for id in 0..6u32 {
            let _ = admit(&mut live, id, spec(8, 0.7, 140 + id as u64));
        }
        let slots = live.proc_count() as u64;
        let mut budget = snsp_search::Budget::new(1_000);
        live.depart_budgeted(TenantId(1), &mut budget);
        assert!(budget.used() >= slots.min(1_000).saturating_sub(1));
        assert!(budget.used() <= 1_000);
    }

    #[test]
    fn purchase_freeze_blocks_buys_and_thaw_restores_them() {
        let mut live = environment(9);
        admit(&mut live, 0, spec(8, 1.0, 160)).expect("first tenant fits");
        live.set_purchase_freeze(true);
        let cost = live.cost();
        // A tenant too big to pack onto the existing machines needs a
        // purchase, which the freeze must refuse — transactionally.
        let big = spec(16, 8.0, 161);
        match admit(&mut live, 1, big) {
            Err(AdmitError::CapacityRevoked { .. }) => {}
            other => panic!("expected CapacityRevoked, got {other:?}"),
        }
        assert_eq!(live.cost(), cost, "failed admission must not mutate");
        assert_eq!(live.tenant_count(), 1);
        live.audit().expect("frozen platform still audits clean");
        live.set_purchase_freeze(false);
        admit(&mut live, 1, big).expect("thawed platform admits by buying");
        live.audit().expect("post-thaw platform audits clean");
    }

    #[test]
    fn shed_reclaims_like_depart_without_refinement() {
        let mut live = environment(10);
        for id in 0..4u32 {
            admit(&mut live, id, spec(8, 0.8, 180 + id as u64)).unwrap();
        }
        let values: Vec<f64> = (0..4u32)
            .map(|id| live.tenant_value(TenantId(id)).unwrap())
            .collect();
        assert!(values.iter().all(|&v| v > 0.0));
        assert!(live.shed(TenantId(2)));
        assert!(!live.shed(TenantId(2)), "double shed is a no-op");
        assert_eq!(live.tenant_count(), 3);
        assert_eq!(live.tenant_value(TenantId(2)), None);
        live.audit().expect("post-shed platform audits clean");
        for id in [0u32, 1, 3] {
            assert!(live.shed(TenantId(id)));
        }
        assert_eq!(live.cost(), 0, "shedding everyone reclaims everything");
    }

    #[test]
    fn audit_passes_through_a_mutation_storm_and_catches_corruption() {
        let mut live = environment(11);
        live.audit().expect("empty platform");
        for id in 0..6u32 {
            let _ = admit(&mut live, id, spec(9, 0.7, 200 + id as u64));
            live.audit().expect("after admission");
        }
        fail_drawn(&mut live, 5);
        live.audit().expect("after failure");
        live.depart(TenantId(0));
        live.audit().expect("after departure");
        // Corrupt the ledger: drop one stream a resident still needs.
        let mut broken = live.clone();
        let d = broken.ledger.downloads().into_iter().next().unwrap();
        broken
            .ledger
            .release(broken.objects.rate(d.ty), d.proc, d.ty);
        assert!(broken.audit().is_err(), "missing stream must be caught");
        // Corrupt a slot's aggregate: its cached work by one ulp, then
        // separately its block index by one block.
        let u = live.live_slots()[0];
        let mut broken = live.clone();
        let work = &mut broken.residents[u].demand.work;
        *work = f64::from_bits(work.to_bits() + 1);
        assert!(
            broken.audit().is_err(),
            "a one-ulp demand drift must be caught"
        );
        let mut broken = live.clone();
        broken.residents[u].blocks.pop_first();
        assert!(broken.audit().is_err(), "a dropped block must be caught");
        // Only rule 6 reads server capacity: squeeze the platform's own
        // NIC of a server below the streams it serves.
        let streams = live.ledger.downloads();
        let server = streams[0].server;
        let served: f64 = streams
            .iter()
            .filter(|d| d.server == server)
            .map(|d| live.objects.rate(d.ty))
            .sum();
        let mut broken = live.clone();
        broken.platform.servers[server.index()].nic_bandwidth = served / 2.0;
        let err = broken
            .audit()
            .expect_err("an overloaded server NIC must be caught");
        assert!(
            err.starts_with("joint capacity check failed: ")
                && err.contains(&format!("server {server} NIC")),
            "{err}"
        );
        // A tombstone carrying load is an overload, not a skipped slot.
        let mut broken = live.clone();
        broken.slots[u] = None;
        let err = broken
            .joint_check(&streams)
            .expect_err("load on a tombstone");
        assert!(
            err.contains(&format!("processor {u} CPU load inf")),
            "{err}"
        );
    }

    /// 80 random admit / depart / fail steps over 10–40-op tenants at
    /// ρ 0.5–40; after each, `step` sees the step number, the platform
    /// and every tenant's assignment from before the step.
    fn heavy_storm(mut step: impl FnMut(u32, &LivePlatform, &BTreeMap<u32, Vec<ProcId>>)) {
        use rand::Rng;
        let mut live = environment(5);
        let mut rng = StdRng::seed_from_u64(5);
        for id in 0..80u32 {
            let before: BTreeMap<u32, Vec<ProcId>> = live
                .tenants
                .iter()
                .map(|(&t, x)| (t, x.assignment.clone()))
                .collect();
            match rng.gen_range(0..4u32) {
                0 | 1 => {
                    let s = spec(rng.gen_range(10..40), rng.gen_range(0.5..40.0), id as u64);
                    let _ = admit(&mut live, id, s);
                }
                2 => {
                    let ids = live.tenant_ids();
                    if !ids.is_empty() {
                        live.depart(ids[rng.gen_range(0..ids.len())]);
                    }
                }
                _ => {
                    if live.proc_count() > 0 {
                        fail_drawn(&mut live, rng.gen_range(0..1000u64));
                    }
                }
            }
            step(id, &live, &before);
        }
    }

    #[test]
    fn heavy_tenants_commit_evacuations_and_merge_blocks_under_audit() {
        // Small tenants sit on one machine each, so no other test reaches
        // these aggregate writers: a committed evacuation, and a block
        // move that merges with the same tenant's ops on its destination.
        // The heavy storm audits after every step.
        let (merges, snap) = snsp_telemetry::capture(|| {
            let mut merges = 0;
            heavy_storm(|id, live, before| {
                for (tid, old) in before {
                    let Some(t) = live.tenants.get(tid) else {
                        continue;
                    };
                    let mut moved = old.iter().zip(&t.assignment).filter(|(a, b)| a != b);
                    if moved.any(|(_, b)| old.contains(b)) {
                        merges += 1;
                    }
                }
                live.audit().unwrap_or_else(|e| panic!("step {id}: {e}"));
                // The in-place check and the snapshot path agree.
                live.joint_check(&live.ledger.downloads())
                    .unwrap_or_else(|e| panic!("step {id}: {e}"));
                if live.tenant_count() > 0 {
                    let (multi, sol) = live.snapshot().expect("every tenant is valid");
                    verify_joint(&multi, &sol).unwrap_or_else(|e| panic!("step {id}: {e}"));
                }
            });
            merges
        });
        let committed = snap.counter("serve.consolidation.evac_committed");
        assert!(
            committed >= Some(1),
            "no evacuation committed: {committed:?}"
        );
        assert!(merges >= 1, "no block move merged with its tenant's ops");
    }

    #[test]
    fn landing_demand_is_the_refold_a_move_commits() {
        // After every storm step, price each resident block onto every
        // other live slot, then really move it on a copy: the price must
        // be, bit for bit, the aggregate the move installs and the tenant
        // scan's. A refold lands below the slot's top resident; a merge
        // lands where its tenant already has ops.
        let bits = |d: SharedDemand| [d.work, d.download, d.comm, d.max_edge].map(f64::to_bits);
        let (mut priced, mut refolds, mut merges) = (0, 0, 0);
        heavy_storm(|id, live, _| {
            let slots = live.live_slots();
            for &u in &slots {
                for (&tid, block) in &live.residents[u].blocks {
                    let t = &live.tenants[&tid];
                    for &v in slots.iter().filter(|&&v| v != u) {
                        let landing = Block::new(&t.inst, |op| {
                            let a = t.assignment[op.index()].index();
                            a == u || a == v
                        });
                        let price = live.landing_demand(Some(v), &[(tid, &landing)]);
                        let mut moved = live.clone();
                        moved.move_block(tid, &block.ops, u, v);
                        let scan = moved.demand_scan(v, &moved.blocks_scan()[v]);
                        let at = format!("step {id}: tenant {tid} from slot {u} to {v}");
                        assert_eq!(bits(price), bits(moved.residents[v].demand), "{at}");
                        assert_eq!(bits(price), bits(scan), "{at}");
                        let residents = &live.residents[v].blocks;
                        priced += 1;
                        refolds += usize::from(residents.keys().any(|&r| r >= tid));
                        merges += usize::from(residents.contains_key(&tid));
                    }
                }
            }
        });
        assert!(
            refolds > 0 && merges > 0,
            "{priced} pricings reached {refolds} refolds and {merges} merges"
        );
    }

    /// Asserts that each resident's in-place projection is the mapping
    /// `snapshot()` + `mapping_for(k)` builds for it, and returns how
    /// many of them span several processors.
    fn assert_projections_match_snapshot(live: &LivePlatform, at: &str) -> usize {
        let projections: Vec<(&Tenant, Mapping)> = live.projections().collect();
        let Some((multi, sol)) = live.snapshot() else {
            assert!(projections.is_empty(), "{at}: projections of no tenant");
            return 0;
        };
        assert_eq!(projections.len(), multi.apps.len(), "{at}");
        let mut spanning = 0;
        for (k, (t, mapping)) in projections.iter().enumerate() {
            let expected = sol.mapping_for(&multi, k);
            let at = format!("{at}: tenant {} (index {k})", t.id);
            assert_eq!(t.id, live.tenant_ids()[k], "{at}");
            assert_eq!(mapping.proc_kinds, expected.proc_kinds, "{at}");
            assert_eq!(mapping.assignment, expected.assignment, "{at}");
            assert_eq!(mapping.downloads, expected.downloads, "{at}");
            let first = mapping.assignment[0];
            spanning += usize::from(mapping.assignment.iter().any(|&p| p != first));
        }
        spanning
    }

    #[test]
    fn projections_match_the_snapshot_through_a_heavy_storm() {
        let mut spanning = 0;
        heavy_storm(|id, live, _| {
            spanning += assert_projections_match_snapshot(live, &format!("step {id}"));
        });
        assert!(spanning > 0, "no tenant spans several slots");
    }

    #[test]
    fn projections_match_the_snapshot_over_tombstoned_slots() {
        // The serve-chaos shape with trace failures: failed and sold
        // slots stay tombstones, so the compaction renumbers around them.
        let params = TraceParams::heavy(300.0, 0.4, 10.0)
            .with_failures(2.0)
            .with_tenant_rho(2.0, 6.0);
        let trace = snsp_gen::generate_trace(&params, 1);
        let opts = crate::shard::ShardOptions {
            shards: 2,
            workers: 1,
        };
        let config = crate::sim::ServeConfig::default();
        let (_, sharded) = crate::sim::replay_trace_sharded(&trace, &config, &opts);
        for s in 0..sharded.shard_count() {
            let live = sharded.shard(s);
            let tombstones = live.slots.iter().filter(|k| k.is_none()).count();
            assert!(tombstones > 0, "shard {s} has no tombstoned slot");
            assert!(live.tenant_count() > 0, "shard {s} has no resident");
            assert_projections_match_snapshot(live, &format!("shard {s}"));
        }
    }

    #[test]
    fn admission_is_deterministic() {
        let run = || {
            let mut live = environment(6);
            for id in 0..5u32 {
                let _ = admit(&mut live, id, spec(10, 1.0, 90 + id as u64));
            }
            fail_drawn(&mut live, 3);
            live.depart(TenantId(1));
            (
                live.cost(),
                live.proc_count(),
                live.tenant_ids(),
                live.snapshot().map(|(_, s)| s.downloads),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        assert_eq!(a.3, b.3);
    }
}
