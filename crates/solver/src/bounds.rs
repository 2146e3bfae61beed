//! Analytic lower bounds on the optimal platform cost.
//!
//! [`lower_bound`] is cheap (one pass over the tree and the catalog) and
//! valid for every instance. A solution that costs no more than it is
//! optimal, so `snsp_search`'s refine drivers stop there; the refine
//! campaigns report it as `mean_lower_bound` and the `bounds` table
//! compares it with the heuristics. The branch-and-bound reports it as
//! the certificate of a truncated search, but never prunes with it.

use snsp_core::constraints::EPS;
use snsp_core::instance::Instance;

/// A cost lower bound with a breakdown of its three components.
#[derive(Debug, Clone, Copy)]
pub struct LowerBound {
    /// Machine-count bound: the cheapest kind that hosts the whole tree
    /// alone, or two of the cheapest kind, whichever costs less.
    pub machines: u64,
    /// CPU bound: total work `ρ·Σw_i` must fit in purchased speed, priced
    /// at the catalog's best speed-per-dollar.
    pub cpu: u64,
    /// Bandwidth bound: every *used* object type must be downloaded at
    /// least once, priced at the best bandwidth-per-dollar.
    pub bandwidth: u64,
}

impl LowerBound {
    /// The combined bound: the maximum of the three components.
    pub fn value(&self) -> u64 {
        self.machines.max(self.cpu).max(self.bandwidth)
    }
}

/// `lhs ≤ rhs` with twice `constraints::check`'s tolerance. The check
/// adds the same loads in another order, which moves a sum only in its
/// last bits, so every load the check accepts passes here too.
fn fits(lhs: f64, rhs: f64) -> bool {
    lhs <= rhs * (1.0 + 2.0 * EPS) + 2.0 * EPS
}

/// Computes the lower bound for `inst`.
///
/// Soundness arguments, for every mapping that `constraints::check`
/// accepts:
/// * `machines`: the mapping buys either one processor or at least two.
///   One processor hosts every operator, so no tree edge is cut: it runs
///   the whole work (`ρ·Σw_i ≤ s_u`, constraint (1)) and downloads every
///   used object type, with no cut-edge traffic beside it
///   (`Σ_ty rate_ty ≤ Bp_u`, constraint (2)). Its kind therefore passes
///   both comparisons here, which accept at least what the check
///   accepts, and costs at least the cheapest kind that does. Two or
///   more processors cost at least twice the cheapest kind.
/// * `cpu`: constraint (1) summed over processors gives
///   `ρ·Σw_i ≤ Σ_u s_u`; a dollar buys at most `best_speed_per_dollar`
///   Gop/s, so cost ≥ ρ·Σw / best_ratio.
/// * `bandwidth`: each object type used by the tree is downloaded by at
///   least one processor (constraint coverage), so the purchased NIC
///   bandwidth is at least `Σ_ty rate_ty`; a dollar buys at most
///   `best_bandwidth_per_dollar` MB/s. Cut-edge traffic only adds to this,
///   so ignoring it keeps the bound valid.
pub fn lower_bound(inst: &Instance) -> LowerBound {
    let catalog = &inst.platform.catalog;
    let cheapest = catalog.kind(catalog.cheapest()).cost;

    let total_work = inst.rho * inst.tree.total_work();
    let cpu = (total_work / catalog.best_speed_per_dollar()).ceil() as u64;

    let total_dl: f64 = inst
        .tree
        .used_types()
        .into_iter()
        .map(|ty| inst.object_rate(ty))
        .sum();
    let bandwidth = (total_dl / catalog.best_bandwidth_per_dollar()).ceil() as u64;

    let one_machine = catalog
        .kinds()
        .iter()
        .filter(|k| fits(total_work / k.speed, 1.0) && fits(total_dl, k.bandwidth))
        .map(|k| k.cost)
        .min();
    LowerBound {
        machines: one_machine.map_or(2 * cheapest, |c| c.min(2 * cheapest)),
        cpu,
        bandwidth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bb::{solve_exact, BranchBoundConfig};
    use snsp_core::constraints::check;
    use snsp_core::heuristics::{all_heuristics, solve_seeded, PipelineOptions};
    use snsp_core::ids::{ProcId, ServerId, TypeId};
    use snsp_core::mapping::{Download, Mapping};
    use snsp_core::object::{ObjectCatalog, ObjectType};
    use snsp_core::platform::{Catalog, CpuOption, NicOption, Platform};
    use snsp_core::tree::OperatorTree;
    use snsp_core::work::WorkModel;
    use snsp_gen::paper_instance;

    #[test]
    fn bound_is_at_least_one_chassis() {
        let inst = paper_instance(20, 0.9, 0);
        let lb = lower_bound(&inst);
        assert!(lb.value() >= 7_548);
    }

    #[test]
    fn cpu_component_grows_with_alpha() {
        let light = lower_bound(&paper_instance(60, 0.9, 1));
        let heavy = lower_bound(&paper_instance(60, 1.8, 1));
        assert!(heavy.cpu > light.cpu);
    }

    /// The Table 1 catalog, or the one-kind CONSTR-HOM catalog.
    fn instance(n: usize, alpha: f64, seed: u64, homogeneous: bool) -> Instance {
        let mut inst = paper_instance(n, alpha, seed);
        if homogeneous {
            inst.platform.catalog = Catalog::homogeneous(0, 0);
        }
        inst
    }

    #[test]
    fn bound_never_exceeds_a_certified_optimum() {
        let config = BranchBoundConfig {
            node_budget: 100_000,
            ..Default::default()
        };
        let mut certified = 0;
        for n in [4, 6, 8, 10, 12] {
            for alpha in [0.5, 1.0, 1.5, 2.0] {
                for seed in 0..5 {
                    for homogeneous in [false, true] {
                        let inst = instance(n, alpha, seed, homogeneous);
                        let Some(optimum) = solve_exact(&inst, &config).certified_bound() else {
                            continue;
                        };
                        let lb = lower_bound(&inst);
                        assert!(
                            lb.value() <= optimum,
                            "N={n} α={alpha} seed={seed} hom={homogeneous}: \
                             {lb:?} above the optimum {optimum}"
                        );
                        certified += 1;
                    }
                }
            }
        }
        assert!(certified >= 180, "only {certified} instances certified");
    }

    #[test]
    fn bound_never_exceeds_a_heuristic_solution() {
        let pipeline = PipelineOptions::default();
        for n in [20, 60, 100] {
            for alpha in [0.5, 1.0, 1.5, 2.0] {
                for homogeneous in [false, true] {
                    let seed = n as u64;
                    let inst = instance(n, alpha, seed, homogeneous);
                    let lb = lower_bound(&inst).value();
                    for h in all_heuristics() {
                        if let Ok(sol) = solve_seeded(h.as_ref(), &inst, seed, &pipeline) {
                            assert!(
                                lb <= sol.cost,
                                "N={n} α={alpha} hom={homogeneous} {}: {} below the bound {lb}",
                                h.name(),
                                sol.cost
                            );
                        }
                    }
                }
            }
        }
    }

    /// A root reading object `a` over a child reading object `b`, both
    /// refreshed once a second. Each operator's work is its input size
    /// (α = 1, κ = 1), and ρ is scaled so that `ρ·max(w)` equals
    /// `speed`.
    fn two_operators(size_a: f64, size_b: f64, catalog: Catalog, speed: f64) -> Instance {
        let mut objects = ObjectCatalog::new();
        let a = objects.add(ObjectType::new(size_a, 1.0));
        let b = objects.add(ObjectType::new(size_b, 1.0));
        let mut builder = OperatorTree::builder();
        let root = builder.add_root();
        let child = builder.add_child(root).unwrap();
        builder.add_leaf(root, a).unwrap();
        builder.add_leaf(child, b).unwrap();
        let mut tree = builder.finish().unwrap();
        tree.apply_work_model(&objects, &WorkModel::new(1.0, 1.0));
        let mut platform = Platform::paper(2);
        platform.catalog = catalog;
        platform.placement.add_holder(a, ServerId(0));
        platform.placement.add_holder(b, ServerId(1));
        let rho = speed / tree.work(root).max(tree.work(child));
        Instance::new(tree, objects, platform, rho).unwrap()
    }

    /// A mapping of the root onto processor 0 and the child onto
    /// `child_proc`, each downloading its own object.
    fn mapping(kinds: Vec<usize>, child_proc: ProcId) -> Mapping {
        let download = |proc, ty| Download {
            proc,
            ty: TypeId(ty),
            server: ServerId(ty),
        };
        Mapping::new(
            kinds,
            vec![ProcId(0), child_proc],
            vec![download(ProcId(0), 0), download(child_proc, 1)],
        )
    }

    /// One machine whose CPU and NIC loads both sit inside the check's
    /// tolerance above capacity: the check accepts it, so the bound may
    /// not exceed its price.
    #[test]
    fn bound_accepts_loads_within_the_check_tolerance() {
        let catalog = Catalog::paper();
        let (kind, k) = catalog
            .kinds()
            .iter()
            .copied()
            .enumerate()
            .find(|(_, k)| k.speed == 19.20 && k.bandwidth == 250.0)
            .expect("Table 1 sells a 19.20 Gop/s, 2 Gbps kind");
        let over = 1.0 + EPS / 2.0;
        let mut inst = two_operators(100.0 * over, 150.0 * over, catalog, k.speed);
        inst.rho *= k.speed * over / (inst.rho * inst.tree.total_work());
        assert!(inst.rho * inst.tree.total_work() > k.speed);
        assert!(inst.object_rate(TypeId(0)) + inst.object_rate(TypeId(1)) > k.bandwidth);

        let one_machine = mapping(vec![kind], ProcId(0));
        assert_eq!(check(&inst, &one_machine), vec![]);
        let lb = lower_bound(&inst);
        assert_eq!(lb.machines, k.cost, "{lb:?}");
        assert!(lb.value() <= one_machine.cost(&inst), "{lb:?}");
    }

    /// The only kind that hosts the whole tree alone costs more than two
    /// of the cheapest, and two of the cheapest pass the check: the bound
    /// is their price, not the big machine's.
    #[test]
    fn bound_never_exceeds_two_cheapest_machines() {
        let cpu = |speed, upgrade_cost| CpuOption {
            speed,
            upgrade_cost,
        };
        let nic = NicOption {
            bandwidth: 125.0,
            upgrade_cost: 0,
        };
        let catalog = Catalog::new(vec![cpu(11.72, 0), cpu(46.88, 20_000)], vec![nic], 7_548);
        let inst = two_operators(10.0, 10.0, catalog, 11.72);
        assert!(inst.rho * inst.tree.total_work() > 11.72);

        let two_machines = mapping(vec![0, 0], ProcId(1));
        assert_eq!(check(&inst, &two_machines), vec![]);
        let lb = lower_bound(&inst);
        assert_eq!(lb.machines, 2 * 7_548, "{lb:?}");
        assert!(lb.value() <= two_machines.cost(&inst), "{lb:?}");
    }
}
