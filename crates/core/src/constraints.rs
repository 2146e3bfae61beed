//! The steady-state feasibility constraints (1)–(5) of paper §2.3.
//!
//! Given an [`Instance`] and a [`Mapping`], [`check`] returns every
//! violated constraint with the offending quantities, [`is_feasible`] is
//! the boolean shortcut, [`loads`] reports per-resource utilization (used
//! by the downgrade pass and the simulation engine), and
//! [`max_throughput`] computes the largest ρ′ the mapping could sustain.

use std::collections::BTreeMap;

use crate::ids::{OpId, ProcId, ServerId, TypeId};
use crate::instance::Instance;
use crate::mapping::Mapping;

/// Relative tolerance for floating-point constraint comparisons.
pub const EPS: f64 = 1e-9;

fn leq(lhs: f64, rhs: f64) -> bool {
    lhs <= rhs * (1.0 + EPS) + EPS
}

/// One violated constraint, with the offending load and its bound.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Constraint (1): `Σ ρ·w_i / s_u > 1` on a processor.
    CpuOverload { proc: ProcId, load: f64 },
    /// Constraint (2): download + cut-edge traffic exceeds the NIC.
    NicOverload {
        proc: ProcId,
        used: f64,
        capacity: f64,
    },
    /// Constraint (3): a server's NIC cannot sustain all its downloads.
    ServerOverload {
        server: ServerId,
        used: f64,
        capacity: f64,
    },
    /// Constraint (4): a server→processor link is oversubscribed.
    ServerLinkOverload {
        server: ServerId,
        proc: ProcId,
        used: f64,
        capacity: f64,
    },
    /// Constraint (5): a processor↔processor link is oversubscribed.
    ProcLinkOverload {
        a: ProcId,
        b: ProcId,
        used: f64,
        capacity: f64,
    },
    /// An operator on `proc` needs `ty` but `DL(u)` has no stream for it.
    MissingDownload { proc: ProcId, ty: TypeId },
    /// `DL(u)` contains two streams for the same object type.
    DuplicateDownload { proc: ProcId, ty: TypeId },
    /// A download names a server that does not hold the object.
    NotAHolder {
        proc: ProcId,
        ty: TypeId,
        server: ServerId,
    },
    /// An operator is assigned to a processor id that was never purchased.
    DanglingAssignment { op: OpId, proc: ProcId },
    /// The assignment vector length does not match the tree.
    AssignmentShape { expected: usize, actual: usize },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::CpuOverload { proc, load } => {
                write!(f, "processor {proc} CPU load {load:.3} > 1")
            }
            Violation::NicOverload {
                proc,
                used,
                capacity,
            } => {
                write!(f, "processor {proc} NIC {used:.1} > {capacity:.1} MB/s")
            }
            Violation::ServerOverload {
                server,
                used,
                capacity,
            } => {
                write!(f, "server {server} NIC {used:.1} > {capacity:.1} MB/s")
            }
            Violation::ServerLinkOverload {
                server,
                proc,
                used,
                capacity,
            } => {
                write!(f, "link S{server}→P{proc} {used:.1} > {capacity:.1} MB/s")
            }
            Violation::ProcLinkOverload {
                a,
                b,
                used,
                capacity,
            } => {
                write!(f, "link P{a}↔P{b} {used:.1} > {capacity:.1} MB/s")
            }
            Violation::MissingDownload { proc, ty } => {
                write!(
                    f,
                    "processor {proc} needs object {ty} but downloads it from nowhere"
                )
            }
            Violation::DuplicateDownload { proc, ty } => {
                write!(f, "processor {proc} downloads object {ty} twice")
            }
            Violation::NotAHolder { proc, ty, server } => {
                write!(
                    f,
                    "processor {proc} downloads object {ty} from non-holder {server}"
                )
            }
            Violation::DanglingAssignment { op, proc } => {
                write!(f, "operator {op} assigned to unpurchased processor {proc}")
            }
            Violation::AssignmentShape { expected, actual } => {
                write!(
                    f,
                    "assignment covers {actual} operators, tree has {expected}"
                )
            }
        }
    }
}

/// Per-resource utilization of a mapping, at the instance's ρ.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Per processor: `Σ w_i` (Gop) of its operators (multiply by ρ and
    /// divide by the speed for constraint (1)).
    pub proc_work: Vec<f64>,
    /// Per processor: download MB/s entering its NIC.
    pub proc_download: Vec<f64>,
    /// Per processor: cut-edge MB/s (both directions) through its NIC.
    pub proc_comm: Vec<f64>,
    /// Per server: MB/s leaving its NIC.
    pub server_load: Vec<f64>,
    /// Per (server, proc): MB/s on that link.
    pub server_links: BTreeMap<(ServerId, ProcId), f64>,
    /// Per unordered processor pair (lower id first): MB/s on that link.
    pub proc_links: BTreeMap<(ProcId, ProcId), f64>,
}

impl LoadReport {
    /// Total NIC usage of processor `u` (downloads + cut edges).
    pub fn proc_nic(&self, u: ProcId) -> f64 {
        self.proc_download[u.index()] + self.proc_comm[u.index()]
    }

    /// CPU fraction used on `u` for a given speed and ρ (constraint (1)'s
    /// left-hand side).
    pub fn cpu_fraction(&self, u: ProcId, speed: f64, rho: f64) -> f64 {
        rho * self.proc_work[u.index()] / speed
    }
}

/// Computes every per-resource load of `mapping` under `instance`.
///
/// Cut-edge traffic is `ρ·δ`: for each tree edge whose endpoints sit on
/// different processors, the child's output crosses the network once,
/// charging both endpoint NICs and the pair link.
pub fn loads(instance: &Instance, mapping: &Mapping) -> LoadReport {
    let n_procs = mapping.proc_count();
    let mut report = LoadReport {
        proc_work: vec![0.0; n_procs],
        proc_download: vec![0.0; n_procs],
        proc_comm: vec![0.0; n_procs],
        server_load: vec![0.0; instance.platform.servers.len()],
        ..Default::default()
    };

    for op in instance.tree.ops() {
        let u = mapping.proc_of(op);
        if u.index() >= n_procs {
            continue; // reported as DanglingAssignment by `check`
        }
        report.proc_work[u.index()] += instance.tree.work(op);
        if let Some(p) = instance.tree.parent(op) {
            let v = mapping.proc_of(p);
            if v != u && v.index() < n_procs {
                let rate = instance.edge_rate(op);
                report.proc_comm[u.index()] += rate;
                report.proc_comm[v.index()] += rate;
                let key = if u < v { (u, v) } else { (v, u) };
                *report.proc_links.entry(key).or_insert(0.0) += rate;
            }
        }
    }

    for d in &mapping.downloads {
        if d.proc.index() >= n_procs || d.server.index() >= instance.platform.servers.len() {
            continue;
        }
        let rate = instance.object_rate(d.ty);
        report.proc_download[d.proc.index()] += rate;
        report.server_load[d.server.index()] += rate;
        *report.server_links.entry((d.server, d.proc)).or_insert(0.0) += rate;
    }

    report
}

/// Checks constraints (1)–(5) plus download/assignment consistency;
/// returns every violation found (empty ⇒ feasible).
pub fn check(instance: &Instance, mapping: &Mapping) -> Vec<Violation> {
    let mut violations = Vec::new();

    if mapping.assignment.len() != instance.tree.len() {
        violations.push(Violation::AssignmentShape {
            expected: instance.tree.len(),
            actual: mapping.assignment.len(),
        });
        return violations;
    }
    for op in instance.tree.ops() {
        let u = mapping.proc_of(op);
        if u.index() >= mapping.proc_count() {
            violations.push(Violation::DanglingAssignment { op, proc: u });
        }
    }
    if !violations.is_empty() {
        return violations;
    }

    // Download consistency: exactly one stream per (proc, needed type),
    // sourced from an actual holder.
    for u in mapping.proc_ids() {
        let needed = mapping.required_types(instance, u);
        let mut have: BTreeMap<TypeId, usize> = BTreeMap::new();
        for (ty, server) in mapping.downloads_of(u) {
            *have.entry(ty).or_insert(0) += 1;
            if !instance.platform.placement.is_holder(ty, server) {
                violations.push(Violation::NotAHolder {
                    proc: u,
                    ty,
                    server,
                });
            }
        }
        for ty in needed {
            match have.get(&ty) {
                None => violations.push(Violation::MissingDownload { proc: u, ty }),
                Some(&n) if n > 1 => violations.push(Violation::DuplicateDownload { proc: u, ty }),
                _ => {}
            }
        }
    }

    let report = loads(instance, mapping);

    // (1) CPU capacity.
    for u in mapping.proc_ids() {
        let kind = instance
            .platform
            .catalog
            .kind(mapping.proc_kinds[u.index()]);
        let load = report.cpu_fraction(u, kind.speed, instance.rho);
        if !leq(load, 1.0) {
            violations.push(Violation::CpuOverload { proc: u, load });
        }
        // (2) Processor NIC.
        let used = report.proc_nic(u);
        if !leq(used, kind.bandwidth) {
            violations.push(Violation::NicOverload {
                proc: u,
                used,
                capacity: kind.bandwidth,
            });
        }
    }

    // (3) Server NICs.
    for s in instance.platform.server_ids() {
        let used = report.server_load[s.index()];
        let capacity = instance.platform.server(s).nic_bandwidth;
        if !leq(used, capacity) {
            violations.push(Violation::ServerOverload {
                server: s,
                used,
                capacity,
            });
        }
    }

    // (4) Server→processor links.
    for (&(s, u), &used) in &report.server_links {
        let capacity = instance.platform.server(s).link_bandwidth;
        if !leq(used, capacity) {
            violations.push(Violation::ServerLinkOverload {
                server: s,
                proc: u,
                used,
                capacity,
            });
        }
    }

    // (5) Processor↔processor links.
    for (&(a, b), &used) in &report.proc_links {
        let capacity = instance.platform.proc_link;
        if !leq(used, capacity) {
            violations.push(Violation::ProcLinkOverload {
                a,
                b,
                used,
                capacity,
            });
        }
    }

    violations
}

/// Whether `mapping` satisfies every constraint at the instance's ρ.
pub fn is_feasible(instance: &Instance, mapping: &Mapping) -> bool {
    check(instance, mapping).is_empty()
}

/// The largest throughput ρ′ the mapping can sustain.
///
/// Downloads are ρ-independent (their rate is `δ_k·f_k`, a data-freshness
/// requirement), while compute and cut-edge traffic scale linearly with ρ.
/// Each constraint therefore yields a bound of the form
/// `ρ′ ≤ (capacity − fixed) / marginal`; the result is the minimum over all
/// constraints, `0.0` if a download alone oversubscribes something, and
/// `f64::INFINITY` if nothing scales with ρ (e.g. everything co-located).
pub fn max_throughput(instance: &Instance, mapping: &Mapping) -> f64 {
    let report = loads(instance, mapping);
    let mut best = f64::INFINITY;
    let mut bound = |capacity: f64, fixed: f64, marginal: f64| {
        if marginal > 0.0 {
            best = best.min((capacity - fixed).max(0.0) / marginal);
        } else if fixed > capacity * (1.0 + EPS) {
            best = 0.0;
        }
    };

    for u in mapping.proc_ids() {
        let kind = instance
            .platform
            .catalog
            .kind(mapping.proc_kinds[u.index()]);
        bound(kind.speed, 0.0, report.proc_work[u.index()]);
        // proc_comm already includes ρ; divide it back out for the marginal.
        bound(
            kind.bandwidth,
            report.proc_download[u.index()],
            report.proc_comm[u.index()] / instance.rho,
        );
    }
    for s in instance.platform.server_ids() {
        bound(
            instance.platform.server(s).nic_bandwidth,
            report.server_load[s.index()],
            0.0,
        );
    }
    for (&(s, _), &used) in &report.server_links {
        bound(instance.platform.server(s).link_bandwidth, used, 0.0);
    }
    for &used in report.proc_links.values() {
        bound(instance.platform.proc_link, 0.0, used / instance.rho);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Download;
    use crate::object::{ObjectCatalog, ObjectType};
    use crate::platform::Platform;
    use crate::tree::OperatorTree;
    use crate::work::WorkModel;

    /// root(op0) ── child(op1); op1 reads objects t0 and t1, op0 reads t0.
    fn instance(alpha: f64, kappa: f64) -> Instance {
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(10.0, 0.5));
        let t1 = objects.add(ObjectType::new(20.0, 0.5));
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        let child = b.add_child(root).unwrap();
        b.add_leaf(root, t0).unwrap();
        b.add_leaf(child, t0).unwrap();
        b.add_leaf(child, t1).unwrap();
        let mut tree = b.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::new(alpha, kappa));
        let mut platform = Platform::paper(2);
        platform.placement.add_holder(t0, ServerId(0));
        platform.placement.add_holder(t1, ServerId(1));
        Instance::new(tree, objects, platform, 1.0).unwrap()
    }

    fn feasible_split(inst: &Instance) -> Mapping {
        let top = inst.platform.catalog.most_expensive();
        Mapping::new(
            vec![top, top],
            vec![ProcId(0), ProcId(1)],
            vec![
                Download {
                    proc: ProcId(0),
                    ty: TypeId(0),
                    server: ServerId(0),
                },
                Download {
                    proc: ProcId(1),
                    ty: TypeId(0),
                    server: ServerId(0),
                },
                Download {
                    proc: ProcId(1),
                    ty: TypeId(1),
                    server: ServerId(1),
                },
            ],
        )
    }

    #[test]
    fn feasible_mapping_passes_all_constraints() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let m = feasible_split(&inst);
        assert_eq!(check(&inst, &m), vec![]);
        assert!(is_feasible(&inst, &m));
    }

    #[test]
    fn missing_download_is_reported() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let mut m = feasible_split(&inst);
        m.downloads.retain(|d| d.ty != TypeId(1));
        assert!(check(&inst, &m).iter().any(|v| matches!(
            v,
            Violation::MissingDownload {
                proc: ProcId(1),
                ty: TypeId(1)
            }
        )));
    }

    #[test]
    fn duplicate_download_is_reported() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let mut m = feasible_split(&inst);
        m.downloads.push(Download {
            proc: ProcId(0),
            ty: TypeId(0),
            server: ServerId(0),
        });
        assert!(check(&inst, &m)
            .iter()
            .any(|v| matches!(v, Violation::DuplicateDownload { .. })));
    }

    #[test]
    fn non_holder_download_is_reported() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let mut m = feasible_split(&inst);
        m.downloads[0].server = ServerId(3); // server 3 holds nothing
        assert!(check(&inst, &m)
            .iter()
            .any(|v| matches!(v, Violation::NotAHolder { .. })));
    }

    #[test]
    fn cpu_overload_with_huge_kappa() {
        // κ so large that either operator swamps any CPU.
        let inst = instance(1.0, 100.0);
        let m = feasible_split(&inst);
        assert!(check(&inst, &m)
            .iter()
            .any(|v| matches!(v, Violation::CpuOverload { .. })));
    }

    #[test]
    fn colocation_removes_edge_traffic() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let m = Mapping::new(
            vec![inst.platform.catalog.most_expensive()],
            vec![ProcId(0), ProcId(0)],
            vec![
                Download {
                    proc: ProcId(0),
                    ty: TypeId(0),
                    server: ServerId(0),
                },
                Download {
                    proc: ProcId(0),
                    ty: TypeId(1),
                    server: ServerId(1),
                },
            ],
        );
        assert!(is_feasible(&inst, &m));
        let report = loads(&inst, &m);
        assert_eq!(report.proc_comm[0], 0.0);
        assert!(report.proc_links.is_empty());
        // Only downloads use the NIC: rate(t0) + rate(t1) = 5 + 10.
        assert!((report.proc_nic(ProcId(0)) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn cut_edge_charges_both_nics_and_the_pair_link() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let m = feasible_split(&inst);
        let report = loads(&inst, &m);
        let edge = inst.edge_rate(OpId(1)); // child output = 30 MB × ρ
        assert!((edge - 30.0).abs() < 1e-9);
        assert!((report.proc_comm[0] - edge).abs() < 1e-9);
        assert!((report.proc_comm[1] - edge).abs() < 1e-9);
        assert!((report.proc_links[&(ProcId(0), ProcId(1))] - edge).abs() < 1e-9);
    }

    #[test]
    fn nic_overload_on_cheap_card() {
        // Force both processors onto the cheapest kind (1 Gbps = 125 MB/s)
        // but inflate the edge: use a big object so the child output is
        // 400 MB → the cut edge (400 MB/s) exceeds the NIC.
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(400.0, 1.0 / 50.0));
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        let child = b.add_child(root).unwrap();
        b.add_leaf(child, t0).unwrap();
        let mut tree = b.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(0.9));
        let mut platform = Platform::paper(1);
        platform.placement.add_holder(t0, ServerId(0));
        let inst = Instance::new(tree, objects, platform, 1.0).unwrap();
        let m = Mapping::new(
            vec![0, 0],
            vec![ProcId(0), ProcId(1)],
            vec![Download {
                proc: ProcId(1),
                ty: TypeId(0),
                server: ServerId(0),
            }],
        );
        let violations = check(&inst, &m);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::NicOverload { .. })));
    }

    #[test]
    fn server_overload_detected() {
        // Ten processors all downloading a 300 MB/s object from one server
        // (capacity 1250 MB/s).
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(600.0, 0.5));
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        let mut ops = vec![root];
        b.add_leaf(root, t0).unwrap();
        for _ in 0..9 {
            let parent = *ops.last().unwrap();
            let c = b.add_child(parent).unwrap();
            b.add_leaf(c, t0).unwrap();
            ops.push(c);
        }
        let mut tree = b.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::paper(0.5));
        let mut platform = Platform::paper(1);
        platform.placement.add_holder(t0, ServerId(0));
        let inst = Instance::new(tree, objects, platform, 1.0).unwrap();
        let top = inst.platform.catalog.most_expensive();
        let m = Mapping::new(
            vec![top; 10],
            (0..10).map(ProcId::from).collect(),
            (0..10)
                .map(|i| Download {
                    proc: ProcId::from(i),
                    ty: t0,
                    server: ServerId(0),
                })
                .collect(),
        );
        let violations = check(&inst, &m);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ServerOverload { .. })));
    }

    /// `tree` over `objects` on `Platform::paper`, every object held by
    /// server 0, with κ small enough that no CPU binds.
    fn on_server_0(mut tree: OperatorTree, objects: ObjectCatalog) -> Instance {
        tree.apply_work_model(&objects, &WorkModel::new(1.0, 1e-3));
        let mut platform = Platform::paper(objects.len());
        for ty in 0..objects.len() {
            platform.placement.add_holder(TypeId::from(ty), ServerId(0));
        }
        Instance::new(tree, objects, platform, 1.0).unwrap()
    }

    fn from_server_0(proc: ProcId, ty: TypeId) -> Download {
        Download {
            proc,
            ty,
            server: ServerId(0),
        }
    }

    #[test]
    fn server_link_overload_is_reported() {
        // One top-kind processor streams two 550 MB/s objects from server
        // 0: 1,100 MB/s fits the server's 1,250 MB/s NIC but not its
        // 1,000 MB/s link.
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(1100.0, 0.5));
        let t1 = objects.add(ObjectType::new(1100.0, 0.5));
        let mut b = OperatorTree::builder();
        let root = b.add_root();
        b.add_leaf(root, t0).unwrap();
        b.add_leaf(root, t1).unwrap();
        let inst = on_server_0(b.finish().unwrap(), objects);
        let m = Mapping::new(
            vec![inst.platform.catalog.most_expensive()],
            vec![ProcId(0)],
            vec![from_server_0(ProcId(0), t0), from_server_0(ProcId(0), t1)],
        );
        assert_eq!(
            check(&inst, &m),
            vec![Violation::ServerLinkOverload {
                server: ServerId(0),
                proc: ProcId(0),
                used: 1100.0,
                capacity: 1000.0,
            }]
        );
    }

    #[test]
    fn pair_link_sums_both_directions() {
        // Chain c ← b ← a with a and c on P0 and b on P1: edge a→b
        // (500 MB/s) runs P0→P1 and edge b→c (600 MB/s) runs P1→P0. Each
        // fits the 1,000 MB/s pair link alone; their sum does not.
        let mut objects = ObjectCatalog::new();
        let t0 = objects.add(ObjectType::new(500.0, 0.01));
        let t1 = objects.add(ObjectType::new(100.0, 0.01));
        let mut t = OperatorTree::builder();
        let c = t.add_root();
        let b = t.add_child(c).unwrap();
        let a = t.add_child(b).unwrap();
        t.add_leaf(a, t0).unwrap();
        t.add_leaf(b, t1).unwrap();
        let inst = on_server_0(t.finish().unwrap(), objects);
        assert_eq!((inst.edge_rate(a), inst.edge_rate(b)), (500.0, 600.0));
        let mut assignment = vec![ProcId(0); 3];
        assignment[b.index()] = ProcId(1);
        let top = inst.platform.catalog.most_expensive();
        let m = Mapping::new(
            vec![top, top],
            assignment,
            vec![from_server_0(ProcId(0), t0), from_server_0(ProcId(1), t1)],
        );
        assert_eq!(
            check(&inst, &m),
            vec![Violation::ProcLinkOverload {
                a: ProcId(0),
                b: ProcId(1),
                used: 1100.0,
                capacity: 1000.0,
            }]
        );
    }

    #[test]
    fn max_throughput_matches_manual_bound() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let m = feasible_split(&inst);
        let rho_max = max_throughput(&inst, &m);
        assert!(rho_max >= 1.0, "the feasible mapping must sustain ρ = 1");
        // Scale the instance to ρ slightly above the bound: must turn
        // infeasible; slightly below: must stay feasible.
        let mut hi = inst.clone();
        hi.rho = rho_max * 1.01;
        assert!(!is_feasible(&hi, &m));
        let mut lo = inst.clone();
        lo.rho = rho_max * 0.99;
        assert!(is_feasible(&lo, &m));
    }

    #[test]
    fn max_throughput_infinite_for_pure_colocation_without_downloads_pressure() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let m = Mapping::new(
            vec![inst.platform.catalog.most_expensive()],
            vec![ProcId(0), ProcId(0)],
            vec![
                Download {
                    proc: ProcId(0),
                    ty: TypeId(0),
                    server: ServerId(0),
                },
                Download {
                    proc: ProcId(0),
                    ty: TypeId(1),
                    server: ServerId(1),
                },
            ],
        );
        // Compute still scales with ρ, so the bound is finite — it comes
        // from the CPU only.
        let rho_max = max_throughput(&inst, &m);
        let report = loads(&inst, &m);
        let kind = inst.platform.catalog.kind(m.proc_kinds[0]);
        assert!((rho_max - kind.speed / report.proc_work[0]).abs() < 1e-6);
    }

    #[test]
    fn assignment_shape_mismatch_reported() {
        let inst = instance(1.0, WorkModel::PAPER_KAPPA);
        let m = Mapping::new(vec![0], vec![ProcId(0)], vec![]);
        assert!(matches!(
            check(&inst, &m)[0],
            Violation::AssignmentShape {
                expected: 2,
                actual: 1
            }
        ));
    }
}
