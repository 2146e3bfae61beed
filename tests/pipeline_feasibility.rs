//! End-to-end pipeline invariants: whatever a heuristic returns as `Ok`
//! must satisfy every paper constraint, cover all downloads, and cost at
//! least the analytic lower bound.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snsp::prelude::*;

fn scenarios() -> Vec<(ScenarioParams, TreeShape)> {
    vec![
        (ScenarioParams::paper(10, 0.9), TreeShape::Random),
        (ScenarioParams::paper(40, 0.9), TreeShape::Random),
        (ScenarioParams::paper(40, 1.5), TreeShape::Random),
        (ScenarioParams::paper(60, 1.7), TreeShape::Random),
        (ScenarioParams::paper(25, 1.1), TreeShape::LeftDeep),
        (
            ScenarioParams::paper(15, 0.9).with_sizes(snsp_gen::SizeRange::LARGE),
            TreeShape::Random,
        ),
        (
            ScenarioParams::paper(40, 0.9).with_freq(snsp_gen::Frequency::LOW),
            TreeShape::Random,
        ),
    ]
}

#[test]
fn every_ok_solution_is_feasible_and_above_the_lower_bound() {
    for (params, shape) in scenarios() {
        for seed in 0..4u64 {
            let inst = snsp_gen::generate(&params, shape, seed);
            let lb = lower_bound(&inst).value();
            for h in all_heuristics() {
                let mut rng = StdRng::seed_from_u64(seed);
                if let Ok(sol) = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()) {
                    let violations = check(&inst, &sol.mapping);
                    assert!(
                        violations.is_empty(),
                        "{} on N={} α={} seed={seed}: {violations:?}",
                        h.name(),
                        params.n_ops,
                        params.alpha
                    );
                    assert!(sol.cost >= lb, "{}: cost {} < LB {lb}", h.name(), sol.cost);
                    assert_eq!(sol.cost, sol.mapping.cost(&inst));
                }
            }
        }
    }
}

#[test]
fn max_throughput_of_ok_solutions_covers_rho() {
    let inst = paper_instance(30, 1.2, 9);
    for h in all_heuristics() {
        let mut rng = StdRng::seed_from_u64(9);
        if let Ok(sol) = solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()) {
            let cap = max_throughput(&inst, &sol.mapping);
            assert!(cap >= inst.rho * (1.0 - 1e-9), "{}: {cap}", h.name());
        }
    }
}

#[test]
fn rho_zero_point_five_is_never_harder_than_rho_one() {
    // Halving the throughput requirement can only help: any heuristic
    // feasible at ρ = 1 must stay feasible at ρ = 0.5 with cost no larger.
    for seed in 0..3u64 {
        let hard = snsp_gen::generate(&ScenarioParams::paper(40, 1.6), TreeShape::Random, seed);
        let easy = ScenarioParams {
            rho: 0.5,
            ..ScenarioParams::paper(40, 1.6)
        };
        let easy = snsp_gen::generate(&easy, TreeShape::Random, seed);
        for h in all_heuristics() {
            let mut rng = StdRng::seed_from_u64(seed);
            let hard_sol = solve(h.as_ref(), &hard, &mut rng, &PipelineOptions::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let easy_sol = solve(h.as_ref(), &easy, &mut rng, &PipelineOptions::default());
            if let Ok(hs) = hard_sol {
                let es = easy_sol
                    .unwrap_or_else(|e| panic!("{} feasible at ρ=1 but not ρ=0.5: {e}", h.name()));
                assert!(
                    es.cost <= hs.cost,
                    "{}: ρ=0.5 cost {} > ρ=1 cost {}",
                    h.name(),
                    es.cost,
                    hs.cost
                );
            }
        }
    }
}

#[test]
fn infeasible_instances_fail_for_every_heuristic() {
    // Far beyond the α threshold nothing can host the root operator.
    let inst = paper_instance(80, 2.4, 0);
    for h in all_heuristics() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(
            solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()).is_err(),
            "{} should fail",
            h.name()
        );
    }
}

#[test]
fn downloads_are_deduplicated_per_processor() {
    let inst = paper_instance(50, 0.9, 2);
    let mut rng = StdRng::seed_from_u64(2);
    let sol = solve(
        &SubtreeBottomUp,
        &inst,
        &mut rng,
        &PipelineOptions::default(),
    )
    .unwrap();
    for u in sol.mapping.proc_ids() {
        let mut seen = std::collections::BTreeSet::new();
        for (ty, _) in sol.mapping.downloads_of(u) {
            assert!(seen.insert(ty), "processor {u} downloads {ty} twice");
        }
    }
}
