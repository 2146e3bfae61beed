//! Multiple concurrent applications (the paper's §6 future work).
//!
//! Several operator trees — each with its own target throughput — share
//! one constructive platform. The paper points out "a clear opportunity
//! for higher performance with a reduced cost is the reuse of common
//! sub-expressions between trees"; the reusable resource in our model is
//! the **download stream**: two applications needing the same basic
//! object on the same processor download it once.
//!
//! [`solve_joint`] places every application with a chosen heuristic, then
//! runs a cross-application consolidation pass that merges processor
//! groups from different applications whenever their combined CPU, NIC
//! and link demands fit one machine — crediting the shared-download
//! savings — and finally re-runs server selection, the downgrade pass and
//! a full joint constraint check.

use rand::RngCore;

use crate::constraints;
use crate::heuristics::{Heuristic, HeuristicError, PipelineOptions, PlacedGroup, PlacedOps};
use crate::ids::{OpId, ProcId, TypeId};
use crate::instance::Instance;
use crate::mapping::{Download, Mapping};
use crate::object::ObjectCatalog;
use crate::platform::Platform;

/// A set of applications sharing one platform and object catalog.
///
/// Every instance must reference the same servers, catalog and object
/// placement; each keeps its own tree and ρ.
#[derive(Debug, Clone)]
pub struct MultiInstance {
    /// The applications. `apps[k].platform` must be identical for all k.
    pub apps: Vec<Instance>,
}

impl MultiInstance {
    /// Bundles applications, validating each one.
    pub fn new(apps: Vec<Instance>) -> Result<Self, crate::instance::InstanceError> {
        assert!(!apps.is_empty(), "need at least one application");
        for app in &apps {
            app.validate()?;
        }
        Ok(MultiInstance { apps })
    }
}

/// A joint solution: shared processors, one assignment per application.
#[derive(Debug, Clone)]
pub struct MultiSolution {
    /// Purchased kinds (indices into the shared catalog).
    pub proc_kinds: Vec<usize>,
    /// Per application: `a(i)` into the shared processor pool.
    pub assignments: Vec<Vec<ProcId>>,
    /// Shared download streams (de-duplicated across applications).
    pub downloads: Vec<Download>,
    /// Total platform cost.
    pub cost: u64,
}

impl MultiSolution {
    /// Projects the joint solution onto application `k` as an ordinary
    /// [`Mapping`] (processor ids and kinds are shared across apps; the
    /// downloads are restricted to the types app `k` actually needs).
    pub fn mapping_for(&self, multi: &MultiInstance, k: usize) -> Mapping {
        let assignment = self.assignments[k].clone();
        project_mapping(
            &multi.apps[k],
            &self.proc_kinds,
            assignment,
            &self.downloads,
        )
    }
}

/// Projects a joint solution, given as slices, onto one application:
/// the shared `proc_kinds`, the application's `assignment` into them, and
/// those of the shared `downloads` whose type `app` needs on their
/// processor (a leaf type of an operator assigned there).
/// [`MultiSolution::mapping_for`] and the serving tier's in-place
/// projections of its live platform both call it, so the two cannot
/// drift apart.
pub fn project_mapping(
    app: &Instance,
    proc_kinds: &[usize],
    assignment: Vec<ProcId>,
    downloads: &[Download],
) -> Mapping {
    let mut needed: Vec<(ProcId, TypeId)> = assignment
        .iter()
        .enumerate()
        .flat_map(|(i, &u)| {
            app.tree
                .leaf_types(OpId::from(i))
                .iter()
                .map(move |&ty| (u, ty))
        })
        .collect();
    needed.sort_unstable();
    needed.dedup();
    let downloads = downloads
        .iter()
        .filter(|d| needed.binary_search(&(d.proc, d.ty)).is_ok())
        .copied()
        .collect();
    Mapping::new(proc_kinds.to_vec(), assignment, downloads)
}

/// Aggregate steady-state demand of operator sets from several
/// applications sharing one processor.
///
/// This is the resource calculus behind both the offline consolidation in
/// [`solve_joint`] and the *incremental* packing used by the online
/// serving layer (`snsp-serve`): work is pre-scaled by each application's
/// ρ, downloads are de-duplicated across applications (the shared-stream
/// saving), and communication counts every cut tree edge once per
/// direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SharedDemand {
    /// `Σ_k ρ_k · w_i` over all member operators, in Gop/s.
    pub work: f64,
    /// Download bandwidth (MB/s) after cross-application de-duplication.
    pub download: f64,
    /// Cut-edge bandwidth (MB/s), both directions.
    pub comm: f64,
    /// Largest single cut edge (MB/s) — must fit one pair link.
    pub max_edge: f64,
}

impl SharedDemand {
    /// NIC bandwidth (MB/s) the member set needs.
    #[inline]
    pub fn nic_need(&self) -> f64 {
        self.download + self.comm
    }

    /// Whether the demand fits a processor of `kind` behind pair links of
    /// `proc_link` MB/s (the joint analogue of the single-app fit check).
    pub fn fits(&self, kind: &crate::platform::ProcessorKind, proc_link: f64) -> bool {
        self.work <= kind.speed + 1e-9
            && self.nic_need() <= kind.bandwidth + 1e-9
            && self.max_edge <= proc_link + 1e-9
    }
}

/// Computes the [`SharedDemand`] of `members` — `(application, operators)`
/// pairs destined for one processor. `co_located(m, op)` must answer, for
/// member `m`'s application, whether operator `op` of that application
/// will sit on the *same* processor (its edge then costs nothing).
///
/// All member applications must share one object catalog and platform
/// (the [`MultiInstance`] invariant): download de-duplication keys on
/// [`TypeId`] alone.
pub fn shared_demand(
    members: &[(&Instance, &[OpId])],
    co_located: impl Fn(usize, OpId) -> bool,
) -> SharedDemand {
    let mut d = SharedDemand::default();
    let mut types: Vec<TypeId> = Vec::new();
    for (m, &(app, ops)) in members.iter().enumerate() {
        for &op in ops {
            d.work += app.rho * app.tree.work(op);
            types.extend(app.tree.leaf_types(op));
            for &c in app.tree.children(op) {
                if !co_located(m, c) {
                    let rate = app.edge_rate(c);
                    d.comm += rate;
                    d.max_edge = d.max_edge.max(rate);
                }
            }
            if let Some(p) = app.tree.parent(op) {
                if !co_located(m, p) {
                    let rate = app.edge_rate(op);
                    d.comm += rate;
                    d.max_edge = d.max_edge.max(rate);
                }
            }
        }
    }
    types.sort_unstable();
    types.dedup();
    if let Some(&(app, _)) = members.first() {
        d.download = types.iter().map(|&ty| app.object_rate(ty)).sum();
    }
    d
}

fn joint_demand(
    multi: &MultiInstance,
    members: &[(usize, &PlacedGroup)],
    co_located: impl Fn(usize, OpId) -> bool,
) -> SharedDemand {
    let views: Vec<(&Instance, &[OpId])> = members
        .iter()
        .map(|&(k, group)| (&multi.apps[k], group.ops.as_slice()))
        .collect();
    shared_demand(&views, |m, op| co_located(members[m].0, op))
}

/// Incremental shared-download bookkeeping over one platform.
///
/// Tracks, stream by stream, how much of every server NIC and every
/// `(server, processor)` link is reserved by continuous object downloads.
/// [`solve_joint`] drives it in one batch; the online serving layer adds
/// and releases streams as tenants come and go, so residual capacities
/// survive across admissions.
#[derive(Debug, Clone)]
pub struct DownloadLedger {
    server_left: Vec<f64>,
    link_used: std::collections::BTreeMap<(usize, usize), f64>,
    downloads: Vec<Download>,
}

impl DownloadLedger {
    /// Fresh ledger with every server NIC fully available.
    pub fn new(platform: &Platform) -> Self {
        DownloadLedger {
            server_left: platform.servers.iter().map(|s| s.nic_bandwidth).collect(),
            link_used: std::collections::BTreeMap::new(),
            downloads: Vec::new(),
        }
    }

    /// Whether `proc` already holds a stream for `ty`.
    pub fn has(&self, proc: ProcId, ty: TypeId) -> bool {
        self.downloads.iter().any(|d| d.proc == proc && d.ty == ty)
    }

    /// All reserved streams, sorted by `(proc, ty)`.
    pub fn downloads(&self) -> Vec<Download> {
        let mut out = self.downloads.clone();
        out.sort_unstable();
        out
    }

    /// Streams reserved by one processor.
    pub fn downloads_of(&self, proc: ProcId) -> Vec<Download> {
        let mut out: Vec<Download> = self
            .downloads
            .iter()
            .copied()
            .filter(|d| d.proc == proc)
            .collect();
        out.sort_unstable();
        out
    }

    /// Reserves a stream of `ty` (at `rate` MB/s) toward `proc`, choosing
    /// the replica holder with the most residual NIC whose server NIC and
    /// `(server, proc)` link both still fit the rate. Idempotent: an
    /// existing stream is returned as-is.
    pub fn ensure(
        &mut self,
        platform: &Platform,
        rate: f64,
        proc: ProcId,
        ty: TypeId,
    ) -> Result<crate::ids::ServerId, HeuristicError> {
        if let Some(d) = self.downloads.iter().find(|d| d.proc == proc && d.ty == ty) {
            return Ok(d.server);
        }
        let best = platform
            .placement
            .holders(ty)
            .iter()
            .copied()
            .filter(|&s| {
                let link = self
                    .link_used
                    .get(&(s.index(), proc.index()))
                    .copied()
                    .unwrap_or(0.0);
                self.server_left[s.index()] + 1e-9 >= rate
                    && platform.server(s).link_bandwidth - link + 1e-9 >= rate
            })
            .max_by(|&x, &y| {
                self.server_left[x.index()]
                    .partial_cmp(&self.server_left[y.index()])
                    .unwrap()
            });
        let Some(server) = best else {
            return Err(HeuristicError::ServerSelectionFailed { proc, ty });
        };
        self.server_left[server.index()] -= rate;
        *self
            .link_used
            .entry((server.index(), proc.index()))
            .or_insert(0.0) += rate;
        self.downloads.push(Download { proc, ty, server });
        Ok(server)
    }

    /// Releases the stream of `ty` on `proc` (reserved at `rate`),
    /// returning whether a stream existed.
    pub fn release(&mut self, rate: f64, proc: ProcId, ty: TypeId) -> bool {
        let Some(i) = self
            .downloads
            .iter()
            .position(|d| d.proc == proc && d.ty == ty)
        else {
            return false;
        };
        let d = self.downloads.swap_remove(i);
        self.server_left[d.server.index()] += rate;
        if let Some(link) = self.link_used.get_mut(&(d.server.index(), proc.index())) {
            *link = (*link - rate).max(0.0);
        }
        true
    }
}

/// Places every application with `heuristic`, merges groups across
/// applications when the union fits one machine, selects servers jointly,
/// downgrades, and verifies every application's constraints on the shared
/// platform.
pub fn solve_joint(
    multi: &MultiInstance,
    heuristic: &dyn Heuristic,
    rng: &mut dyn RngCore,
    opts: &PipelineOptions,
) -> Result<MultiSolution, HeuristicError> {
    // 1. Independent placement per application.
    let mut placed: Vec<PlacedOps> = Vec::with_capacity(multi.apps.len());
    for app in &multi.apps {
        placed.push(heuristic.place(app, rng, &opts.placement)?);
    }

    // 2. Cross-application consolidation: pools of (app, group-index)
    //    members, greedily merged when the joint demand fits the most
    //    capable kind.
    let catalog = &multi.apps[0].platform.catalog;
    let top = catalog.most_expensive();
    let top_kind = catalog.kind(top);
    let bp = multi.apps[0].platform.proc_link;

    let mut pools: Vec<Vec<(usize, usize)>> = Vec::new(); // (app, group idx)
    for (k, p) in placed.iter().enumerate() {
        for g in 0..p.groups.len() {
            pools.push(vec![(k, g)]);
        }
    }
    // Membership map for co-location tests: (app, op) → pool.
    let mut pool_of: Vec<Vec<usize>> = multi
        .apps
        .iter()
        .map(|app| vec![usize::MAX; app.tree.len()])
        .collect();
    for (pi, pool) in pools.iter().enumerate() {
        for &(k, g) in pool {
            for &op in &placed[k].groups[g].ops {
                pool_of[k][op.index()] = pi;
            }
        }
    }

    let mut merged = true;
    while merged {
        merged = false;
        'outer: for a in 0..pools.len() {
            if pools[a].is_empty() {
                continue;
            }
            for b in (a + 1)..pools.len() {
                if pools[b].is_empty() {
                    continue;
                }
                // Only merge pools from *different* apps (within-app
                // consolidation already happened in the heuristic) or
                // pools that share object types — the reuse opportunity.
                let union: Vec<(usize, &PlacedGroup)> = pools[a]
                    .iter()
                    .chain(&pools[b])
                    .map(|&(k, g)| (k, &placed[k].groups[g]))
                    .collect();
                let d = joint_demand(multi, &union, |k, op| {
                    let p = pool_of[k][op.index()];
                    p == a || p == b
                });
                if d.fits(&top_kind, bp) {
                    let moved = std::mem::take(&mut pools[b]);
                    for &(k, g) in &moved {
                        for &op in &placed[k].groups[g].ops {
                            pool_of[k][op.index()] = a;
                        }
                    }
                    pools[a].extend(moved);
                    merged = true;
                    continue 'outer;
                }
            }
        }
    }

    // 3. Materialize shared processors.
    let live: Vec<&Vec<(usize, usize)>> = pools.iter().filter(|p| !p.is_empty()).collect();
    let mut proc_kinds: Vec<usize> = vec![top; live.len()];
    let mut assignments: Vec<Vec<ProcId>> = multi
        .apps
        .iter()
        .map(|app| vec![ProcId(u32::MAX); app.tree.len()])
        .collect();
    for (u, pool) in live.iter().enumerate() {
        for &(k, g) in pool.iter() {
            for &op in &placed[k].groups[g].ops {
                assignments[k][op.index()] = ProcId::from(u);
            }
        }
    }

    // 4. Joint server selection: for each shared processor, the union of
    //    needed types, sourced through the incremental ledger (the same
    //    capacity tracking the online serving layer uses stream by
    //    stream, driven here in one batch).
    let mut ledger = DownloadLedger::new(&multi.apps[0].platform);
    for (u, pool) in live.iter().enumerate() {
        let mut types: Vec<TypeId> = pool
            .iter()
            .flat_map(|&(k, g)| {
                placed[k].groups[g]
                    .ops
                    .iter()
                    .flat_map(move |&op| multi.apps[k].tree.leaf_types(op).iter().copied())
            })
            .collect();
        types.sort_unstable();
        types.dedup();
        for ty in types {
            let rate = multi.apps[0].object_rate(ty);
            ledger.ensure(&multi.apps[0].platform, rate, ProcId::from(u), ty)?;
        }
    }
    let downloads = ledger.downloads();

    // 5. Downgrade each shared processor to the cheapest fitting kind.
    for (u, pool) in live.iter().enumerate() {
        let members: Vec<(usize, &PlacedGroup)> = pool
            .iter()
            .map(|&(k, g)| (k, &placed[k].groups[g]))
            .collect();
        let d = joint_demand(multi, &members, |k, op| {
            assignments[k][op.index()] == ProcId::from(u)
        });
        if opts.downgrade {
            if let Some(kind) = catalog.cheapest_fitting(d.work, d.download + d.comm) {
                proc_kinds[u] = kind;
            }
        }
    }

    let cost = proc_kinds.iter().map(|&k| catalog.kind(k).cost).sum();
    let solution = MultiSolution {
        proc_kinds,
        assignments,
        downloads,
        cost,
    };

    // 6. Verification: `verify_joint` sums CPU (1), processor NIC (2)
    //    and server NIC (3) loads over every application. Links, server→
    //    processor (4) and processor-pair (5), are not checked yet; see
    //    the joint-link item in ROADMAP.md.
    verify_joint(multi, &solution)?;
    Ok(solution)
}

/// Checks the joint solution's shared capacities, each load summed over
/// *all* applications: CPU (constraint 1) and NIC (2) per processor, NIC
/// per server (3). A thin caller of [`check_joint`] over the solution's
/// processors, assignments and downloads, on the first application's
/// platform and catalog; see there for what it does not check.
pub fn verify_joint(multi: &MultiInstance, sol: &MultiSolution) -> Result<(), HeuristicError> {
    let first = &multi.apps[0];
    let kinds: Vec<Option<usize>> = sol.proc_kinds.iter().copied().map(Some).collect();
    let apps = multi.apps.iter().zip(&sol.assignments);
    let apps = apps.map(|(app, assign)| (app, assign.as_slice()));
    check_joint(
        &first.platform,
        &first.objects,
        &kinds,
        apps,
        &sol.downloads,
    )
    .map_err(HeuristicError::FinalCheck)
}

/// The one joint capacity checker, over borrowed views of a shared
/// platform: `kinds[u]` is processor `u`'s catalog kind, or `None` for a
/// tombstone (a sold or failed slot, which has no capacity, so any load
/// on it is reported); `apps` are `(application, assignment)` pairs
/// indexing `kinds`; `downloads` are the shared streams, each counted
/// once. Each load is summed over every application: CPU (constraint 1)
/// and NIC (2) per processor, NIC per server (3). The NIC and server sums
/// add the streams first, in the given order, then the cut edges in
/// application and operator order. It checks neither server→processor
/// links (4) nor processor-pair links (5); see the joint-link item in
/// ROADMAP.md. Returns every violation found.
pub fn check_joint<'a>(
    platform: &Platform,
    objects: &ObjectCatalog,
    kinds: &[Option<usize>],
    apps: impl IntoIterator<Item = (&'a Instance, &'a [ProcId])>,
    downloads: &[Download],
) -> Result<(), Vec<constraints::Violation>> {
    let mut cpu = vec![0.0_f64; kinds.len()];
    let mut nic = vec![0.0_f64; kinds.len()];
    let mut server = vec![0.0_f64; platform.servers.len()];
    for d in downloads {
        let rate = objects.rate(d.ty);
        nic[d.proc.index()] += rate;
        server[d.server.index()] += rate;
    }
    for (app, assign) in apps {
        for op in app.tree.ops() {
            let u = assign[op.index()];
            cpu[u.index()] += app.rho * app.tree.work(op);
            if let Some(p) = app.tree.parent(op) {
                let v = assign[p.index()];
                if u != v {
                    let rate = app.edge_rate(op);
                    nic[u.index()] += rate;
                    nic[v.index()] += rate;
                }
            }
        }
    }
    let mut violations = Vec::new();
    for (u, kind) in kinds.iter().enumerate() {
        let (speed, bandwidth) = kind.map_or((0.0, 0.0), |k| {
            let kind = platform.catalog.kind(k);
            (kind.speed, kind.bandwidth)
        });
        if cpu[u] > speed * (1.0 + constraints::EPS) {
            violations.push(constraints::Violation::CpuOverload {
                proc: ProcId::from(u),
                load: cpu[u] / speed,
            });
        }
        if nic[u] > bandwidth * (1.0 + constraints::EPS) {
            violations.push(constraints::Violation::NicOverload {
                proc: ProcId::from(u),
                used: nic[u],
                capacity: bandwidth,
            });
        }
    }
    for (s, &used) in server.iter().enumerate() {
        let cap = platform.servers[s].nic_bandwidth;
        if used > cap * (1.0 + constraints::EPS) {
            violations.push(constraints::Violation::ServerOverload {
                server: crate::ids::ServerId::from(s),
                used,
                capacity: cap,
            });
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::test_support::paper_like_instance;
    use crate::heuristics::SubtreeBottomUp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn multi(n_apps: usize, n_ops: usize, alpha: f64) -> MultiInstance {
        // Same seed → same objects and platform across apps; different
        // trees come from different tree seeds below.
        let base = paper_like_instance(n_ops, alpha, 11);
        let mut apps = Vec::new();
        for k in 0..n_apps {
            let donor = paper_like_instance(n_ops, alpha, 11 + k as u64);
            let app = Instance::new(
                donor.tree.clone(),
                base.objects.clone(),
                base.platform.clone(),
                1.0,
            )
            .unwrap();
            apps.push(app);
        }
        MultiInstance::new(apps).unwrap()
    }

    #[test]
    fn joint_solution_is_verified_and_cheaper_than_separate() {
        let multi = multi(3, 12, 0.9);
        let mut rng = StdRng::seed_from_u64(0);
        let joint = solve_joint(
            &multi,
            &SubtreeBottomUp,
            &mut rng,
            &PipelineOptions::default(),
        )
        .expect("joint placement feasible");

        // Separate platforms: solve each app alone and sum costs.
        let mut separate = 0u64;
        for app in &multi.apps {
            let mut rng = StdRng::seed_from_u64(0);
            let sol = crate::heuristics::solve(
                &SubtreeBottomUp,
                app,
                &mut rng,
                &PipelineOptions::default(),
            )
            .unwrap();
            separate += sol.cost;
        }
        assert!(
            joint.cost <= separate,
            "joint {} should not exceed separate {}",
            joint.cost,
            separate
        );
    }

    #[test]
    fn projections_cover_every_operator() {
        let multi = multi(2, 10, 1.1);
        let mut rng = StdRng::seed_from_u64(1);
        let joint = solve_joint(
            &multi,
            &SubtreeBottomUp,
            &mut rng,
            &PipelineOptions::default(),
        )
        .unwrap();
        for (k, app) in multi.apps.iter().enumerate() {
            let mapping = joint.mapping_for(&multi, k);
            assert_eq!(mapping.assignment.len(), app.tree.len());
            for op in app.tree.ops() {
                assert!(mapping.proc_of(op).index() < joint.proc_kinds.len());
            }
            // Every needed type has a download on the right processor.
            for u in mapping.proc_ids() {
                for ty in mapping.required_types(app, u) {
                    assert!(
                        mapping.downloads_of(u).any(|(t, _)| t == ty),
                        "app {k} proc {u} misses {ty}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_objects_are_downloaded_once_per_processor() {
        let multi = multi(3, 10, 0.9);
        let mut rng = StdRng::seed_from_u64(2);
        let joint = solve_joint(
            &multi,
            &SubtreeBottomUp,
            &mut rng,
            &PipelineOptions::default(),
        )
        .unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for d in &joint.downloads {
            assert!(
                seen.insert((d.proc, d.ty)),
                "duplicate download of {:?} on {:?}",
                d.ty,
                d.proc
            );
        }
    }

    #[test]
    fn shared_demand_dedups_downloads_across_apps() {
        let multi = multi(2, 8, 0.9);
        let (a, b) = (&multi.apps[0], &multi.apps[1]);
        let ops_a: Vec<OpId> = a.tree.ops().collect();
        let ops_b: Vec<OpId> = b.tree.ops().collect();
        // Whole trees co-hosted: no cut edges, downloads dedup on TypeId.
        let d = shared_demand(&[(a, &ops_a), (b, &ops_b)], |_, _| true);
        assert_eq!(d.comm, 0.0);
        assert_eq!(d.max_edge, 0.0);
        let solo_a = shared_demand(&[(a, &ops_a)], |_, _| true);
        let solo_b = shared_demand(&[(b, &ops_b)], |_, _| true);
        assert!(d.download <= solo_a.download + solo_b.download + 1e-9);
        assert!((d.work - (solo_a.work + solo_b.work)).abs() < 1e-9);
        // Splitting one app across processors exposes its cut edges.
        let cut = shared_demand(&[(a, &ops_a)], |_, op| op.index() % 2 == 0);
        assert!(cut.comm > 0.0);
        assert!(cut.max_edge > 0.0);
    }

    #[test]
    fn download_ledger_reserves_and_releases() {
        let multi = multi(1, 6, 0.9);
        let app = &multi.apps[0];
        let platform = &app.platform;
        let ty = app.tree.used_types()[0];
        let rate = app.object_rate(ty);
        let mut ledger = DownloadLedger::new(platform);

        let server = ledger.ensure(platform, rate, ProcId(0), ty).unwrap();
        assert!(ledger.has(ProcId(0), ty));
        // Idempotent: the same stream is returned, not doubled.
        assert_eq!(
            ledger.ensure(platform, rate, ProcId(0), ty).unwrap(),
            server
        );
        assert_eq!(ledger.downloads_of(ProcId(0)).len(), 1);
        // A second processor gets its own stream.
        ledger.ensure(platform, rate, ProcId(1), ty).unwrap();
        assert_eq!(ledger.downloads().len(), 2);

        assert!(ledger.release(rate, ProcId(0), ty));
        assert!(!ledger.has(ProcId(0), ty));
        assert!(!ledger.release(rate, ProcId(0), ty), "double release");
    }

    #[test]
    fn check_joint_reports_load_on_a_tombstone() {
        let multi = multi(2, 8, 0.9);
        let mut rng = StdRng::seed_from_u64(3);
        let joint = solve_joint(
            &multi,
            &SubtreeBottomUp,
            &mut rng,
            &PipelineOptions::default(),
        )
        .unwrap();
        let app = &multi.apps[0];
        let apps = || {
            let views = multi.apps.iter().zip(&joint.assignments);
            views.map(|(app, assign)| (app, assign.as_slice()))
        };
        let mut kinds: Vec<Option<usize>> = joint.proc_kinds.iter().copied().map(Some).collect();
        check_joint(
            &app.platform,
            &app.objects,
            &kinds,
            apps(),
            &joint.downloads,
        )
        .expect("the solved joint passes the view checker");
        // Processor 0 hosts operators and streams; as a tombstone it has
        // no capacity, so both its loads are overloads.
        kinds[0] = None;
        let v = check_joint(
            &app.platform,
            &app.objects,
            &kinds,
            apps(),
            &joint.downloads,
        )
        .expect_err("load on a tombstone must be reported");
        let on_tombstone = |x: &constraints::Violation| match *x {
            constraints::Violation::CpuOverload { proc, load } => {
                proc == ProcId(0) && load == f64::INFINITY
            }
            constraints::Violation::NicOverload { proc, capacity, .. } => {
                proc == ProcId(0) && capacity == 0.0
            }
            _ => false,
        };
        assert_eq!(v.iter().filter(|x| on_tombstone(x)).count(), 2, "{v:?}");
    }

    #[test]
    fn verify_joint_catches_overload() {
        let mut multi = multi(2, 8, 0.9);
        let mut rng = StdRng::seed_from_u64(3);
        let mut joint = solve_joint(
            &multi,
            &SubtreeBottomUp,
            &mut rng,
            &PipelineOptions::default(),
        )
        .unwrap();
        verify_joint(&multi, &joint).expect("the solved joint verifies");
        // Cram both workloads onto processor 0 at 10⁴ times their ρ: its
        // CPU load lands near 100.
        for assign in &mut joint.assignments {
            assign.fill(ProcId(0));
        }
        for app in &mut multi.apps {
            app.rho *= 1e4;
        }
        let Err(HeuristicError::FinalCheck(v)) = verify_joint(&multi, &joint) else {
            panic!("verify_joint accepted the crammed processor");
        };
        assert!(
            v.iter().any(|x| matches!(
                x,
                constraints::Violation::CpuOverload { proc: ProcId(0), load } if *load > 1.0
            )),
            "no CPU overload on processor 0 in {v:?}"
        );
    }
}
