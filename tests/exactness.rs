//! Cross-checks between the exact solver, the heuristics and the bounds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snsp::prelude::*;

#[test]
fn exact_cost_is_sandwiched_between_bound_and_heuristics() {
    for seed in 0..4u64 {
        for &(n, alpha) in &[(6usize, 0.9), (9, 1.3), (12, 1.6)] {
            let inst = paper_instance(n, alpha, seed);
            let exact = solve_exact(&inst, &BranchBoundConfig::default());
            assert!(exact.optimal, "N={n} should be exhaustively searchable");
            let Some(mapping) = &exact.mapping else {
                continue;
            };
            assert!(is_feasible(&inst, mapping), "exact mapping must verify");
            assert!(exact.cost >= lower_bound(&inst).value());
            for h in all_heuristics() {
                let mut rng = StdRng::seed_from_u64(seed);
                if let Ok(sol) = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()) {
                    assert!(
                        exact.cost <= sol.cost,
                        "exact {} > {} {} (N={n} α={alpha} seed={seed})",
                        exact.cost,
                        h.name(),
                        sol.cost
                    );
                }
            }
        }
    }
}

#[test]
fn heuristic_upper_bound_never_changes_the_optimum() {
    for seed in 0..3u64 {
        let inst = paper_instance(8, 1.2, seed);
        let free = solve_exact(&inst, &BranchBoundConfig::default());
        // Seed the search with the best heuristic cost.
        let mut ub = None;
        for h in all_heuristics() {
            let mut rng = StdRng::seed_from_u64(seed);
            if let Ok(sol) = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()) {
                ub = Some(ub.map_or(sol.cost, |u: u64| u.min(sol.cost)));
            }
        }
        let seeded = solve_exact(
            &inst,
            &BranchBoundConfig {
                upper_bound: ub.map(|u| u + 1),
                ..Default::default()
            },
        );
        assert_eq!(free.cost, seeded.cost, "seed {seed}");
        assert!(seeded.nodes <= free.nodes);
    }
}

#[test]
fn exhaustive_and_budgeted_search_agree_on_tiny_instances() {
    for seed in 0..3u64 {
        let inst = paper_instance(7, 1.4, seed);
        let a = solve_exact(
            &inst,
            &BranchBoundConfig {
                node_budget: u64::MAX,
                ..Default::default()
            },
        );
        let b = solve_exact(&inst, &BranchBoundConfig::default());
        assert!(a.optimal && b.optimal);
        assert_eq!(a.cost, b.cost);
    }
}

#[test]
fn subtree_bottom_up_matches_optimum_on_homogeneous_instances() {
    // The paper's headline claim for the CONSTR-HOM comparison. Count how
    // often Subtree-Bottom-Up hits the exact optimum over a batch.
    let mut hits = 0;
    let mut total = 0;
    for seed in 0..6u64 {
        let mut inst = paper_instance(10, 1.0, seed);
        inst.platform.catalog = Catalog::homogeneous(0, 0);
        let exact = solve_exact(&inst, &BranchBoundConfig::default());
        let Some(_) = exact.mapping else { continue };
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = PipelineOptions {
            downgrade: false,
            ..Default::default()
        };
        if let Ok(sol) = solve(&SubtreeBottomUp, &inst, &mut rng, &opts) {
            total += 1;
            if sol.cost == exact.cost {
                hits += 1;
            }
        }
    }
    assert!(
        total >= 4,
        "expected most homogeneous instances to be solvable"
    );
    assert!(
        hits * 2 >= total,
        "Subtree-Bottom-Up should match the optimum in most cases ({hits}/{total})"
    );
}
