//! The downgrade pass (paper §4.2, last paragraph): once operators and
//! servers are fixed, replace every purchased processor with the cheapest
//! catalog kind that still satisfies its CPU and NIC requirements.

use super::common::PlacedOps;
use crate::instance::Instance;
use crate::mapping::Download;

/// Exact post-selection requirements of one processor.
#[derive(Debug, Clone, Copy)]
pub struct FinalDemand {
    /// Required CPU speed in Gop/s (`ρ·Σw_i`).
    pub speed: f64,
    /// Required NIC bandwidth in MB/s (downloads + cut edges, both ways).
    pub bandwidth: f64,
}

/// Computes the exact demand of every group given the final assignment and
/// the selected downloads. Unlike placement-time demand, the cut edges here
/// are definitive: an edge costs bandwidth iff its endpoints landed on
/// different processors.
pub fn final_demands(
    inst: &Instance,
    placed: &PlacedOps,
    downloads: &[Download],
) -> Vec<FinalDemand> {
    let assign = placed.assignment();
    let mut demands: Vec<FinalDemand> = placed
        .groups
        .iter()
        .map(|_| FinalDemand {
            speed: 0.0,
            bandwidth: 0.0,
        })
        .collect();

    for op in inst.tree.ops() {
        let u = assign[op.index()];
        demands[u.index()].speed += inst.rho * inst.tree.work(op);
        if let Some(p) = inst.tree.parent(op) {
            let v = assign[p.index()];
            if u != v {
                let rate = inst.edge_rate(op);
                demands[u.index()].bandwidth += rate;
                demands[v.index()].bandwidth += rate;
            }
        }
    }
    for d in downloads {
        demands[d.proc.index()].bandwidth += inst.object_rate(d.ty);
    }
    demands
}

/// Replaces every group's kind with the cheapest fitting one. Returns the
/// number of processors whose kind changed. A no-op on CONSTR-HOM catalogs.
pub fn downgrade(inst: &Instance, placed: &mut PlacedOps, downloads: &[Download]) -> usize {
    let demands = final_demands(inst, placed, downloads);
    let mut changed = 0;
    for (g, demand) in placed.groups.iter_mut().zip(demands) {
        if let Some(kind) = inst
            .platform
            .catalog
            .cheapest_fitting(demand.speed, demand.bandwidth)
        {
            if kind != g.kind {
                g.kind = kind;
                changed += 1;
            }
        }
        // If nothing fits (cannot happen when the placement respected its
        // own feasibility checks) the original kind is kept and the final
        // constraint check will reject the mapping.
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::common::{GroupBuilder, PlacementOptions};
    use crate::heuristics::server_selection::{select_servers, ServerStrategy};
    use crate::heuristics::test_support::paper_like_instance;
    use crate::ids::OpId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn placement_with_top_kinds(inst: &Instance) -> PlacedOps {
        let mut b = GroupBuilder::new(inst, PlacementOptions::default());
        let top = inst.platform.catalog.most_expensive();
        let ops: Vec<OpId> = inst.tree.ops().collect();
        b.create_group(ops, top);
        b.finish().unwrap()
    }

    #[test]
    fn downgrade_never_increases_cost() {
        let inst = paper_like_instance(20, 0.9, 41);
        let mut placed = placement_with_top_kinds(&inst);
        let mut rng = StdRng::seed_from_u64(0);
        let downloads =
            select_servers(&inst, &placed, ServerStrategy::ThreeLoop, &mut rng).unwrap();
        let before: u64 = placed
            .groups
            .iter()
            .map(|g| inst.platform.catalog.kind(g.kind).cost)
            .sum();
        downgrade(&inst, &mut placed, &downloads);
        let after: u64 = placed
            .groups
            .iter()
            .map(|g| inst.platform.catalog.kind(g.kind).cost)
            .sum();
        assert!(after <= before);
    }

    #[test]
    fn downgraded_kinds_still_fit_final_demands() {
        let inst = paper_like_instance(25, 1.2, 43);
        let mut placed = placement_with_top_kinds(&inst);
        let mut rng = StdRng::seed_from_u64(0);
        let downloads =
            select_servers(&inst, &placed, ServerStrategy::ThreeLoop, &mut rng).unwrap();
        downgrade(&inst, &mut placed, &downloads);
        for (g, d) in placed
            .groups
            .iter()
            .zip(final_demands(&inst, &placed, &downloads))
        {
            let kind = inst.platform.catalog.kind(g.kind);
            assert!(kind.speed + 1e-9 >= d.speed);
            assert!(kind.bandwidth + 1e-9 >= d.bandwidth);
        }
    }

    #[test]
    fn light_single_group_downgrades_to_cheapest_cpu() {
        // One processor holding everything at α = 0.9 needs almost no CPU;
        // its kind should fall to the entry CPU (NIC depends on downloads).
        let inst = paper_like_instance(20, 0.9, 47);
        let mut placed = placement_with_top_kinds(&inst);
        let mut rng = StdRng::seed_from_u64(0);
        let downloads =
            select_servers(&inst, &placed, ServerStrategy::ThreeLoop, &mut rng).unwrap();
        let changed = downgrade(&inst, &mut placed, &downloads);
        assert_eq!(changed, 1);
        let kind = inst.platform.catalog.kind(placed.groups[0].kind);
        assert!((kind.speed - 11.72).abs() < 1e-9, "entry CPU expected");
    }

    #[test]
    fn homogeneous_catalog_is_a_noop() {
        let mut inst = paper_like_instance(15, 0.9, 53);
        inst.platform.catalog = crate::platform::Catalog::homogeneous(4, 4);
        let mut placed = placement_with_top_kinds(&inst);
        let mut rng = StdRng::seed_from_u64(0);
        let downloads =
            select_servers(&inst, &placed, ServerStrategy::ThreeLoop, &mut rng).unwrap();
        assert_eq!(downgrade(&inst, &mut placed, &downloads), 0);
    }
}
