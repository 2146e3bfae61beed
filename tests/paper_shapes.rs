//! Qualitative reproduction checks: the *shapes* the paper reports must
//! hold (who wins, where the thresholds sit), even though absolute dollar
//! values differ from the 2008 testbed (the work model's calibration, in
//! `snsp_core::work`, says why).

use rand::rngs::StdRng;
use rand::SeedableRng;
use snsp::prelude::*;

fn mean_cost(h: &dyn Heuristic, n: usize, alpha: f64, seeds: u64) -> Option<f64> {
    let mut costs = Vec::new();
    for seed in 0..seeds {
        let inst = paper_instance(n, alpha, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Ok(sol) = solve(h, &inst, &mut rng, &PipelineOptions::default()) {
            costs.push(sol.cost as f64);
        }
    }
    (!costs.is_empty()).then(|| costs.iter().sum::<f64>() / costs.len() as f64)
}

#[test]
fn random_is_the_worst_heuristic() {
    // Paper §5: "all our more sophisticated heuristics perform better than
    // the simple random approach".
    for &(n, alpha) in &[(20usize, 0.9), (60, 0.9), (40, 1.5)] {
        let random = mean_cost(&Random, n, alpha, 3).unwrap();
        for h in all_heuristics() {
            if h.name() == "Random" {
                continue;
            }
            if let Some(cost) = mean_cost(h.as_ref(), n, alpha, 3) {
                assert!(
                    cost <= random,
                    "{} (${cost}) worse than Random (${random}) at N={n} α={alpha}",
                    h.name()
                );
            }
        }
    }
}

#[test]
fn random_cost_grows_linearly_with_n() {
    // Random buys ~one processor per operator, so its cost must scale with
    // the tree size (the dominant visual feature of Fig. 2).
    let small = mean_cost(&Random, 20, 0.9, 3).unwrap();
    let large = mean_cost(&Random, 100, 0.9, 3).unwrap();
    assert!(large > 3.0 * small, "small {small}, large {large}");
}

#[test]
fn alpha_has_no_influence_below_the_first_threshold() {
    // Fig. 3: "Up to a threshold, the α parameter has no influence".
    for h in all_heuristics() {
        let lo = mean_cost(h.as_ref(), 60, 0.6, 3);
        let hi = mean_cost(h.as_ref(), 60, 1.2, 3);
        assert_eq!(
            lo.map(|c| c.round() as u64),
            hi.map(|c| c.round() as u64),
            "{} changed below the threshold",
            h.name()
        );
    }
}

#[test]
fn cost_rises_past_the_first_alpha_threshold() {
    // Fig. 3 at N = 60: cost increases somewhere between α ≈ 1.4 and 1.8.
    let flat = mean_cost(&SubtreeBottomUp, 60, 1.0, 3).unwrap();
    let steep = mean_cost(&SubtreeBottomUp, 60, 1.8, 3);
    // None = some seeds already infeasible at 1.8 — also "past it".
    if let Some(c) = steep {
        assert!(c > flat, "no cost increase: {c} vs {flat}");
    }
}

#[test]
fn feasibility_vanishes_past_the_second_alpha_threshold() {
    // Fig. 3 at N = 60: no solutions beyond α ≈ 1.8–1.9 (ours ≈ 1.9).
    for h in all_heuristics() {
        assert!(
            mean_cost(h.as_ref(), 60, 2.1, 3).is_none(),
            "{} still feasible at α=2.1",
            h.name()
        );
    }
    // …while N = 20 survives longer (the threshold moves right for
    // smaller trees — paper: α ≈ 2.2 vs 1.8).
    assert!(mean_cost(&SubtreeBottomUp, 20, 1.9, 3).is_some());
}

#[test]
fn alpha_17_kills_large_trees_only() {
    // Fig. 2(b): at α = 1.7, trees around N ≈ 100+ stop being feasible
    // while N ≤ 60 mostly survives.
    let feasible = |n: usize| {
        (0..4u64)
            .filter(|&seed| {
                let inst = paper_instance(n, 1.7, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                solve(
                    &SubtreeBottomUp,
                    &inst,
                    &mut rng,
                    &PipelineOptions::default(),
                )
                .is_ok()
            })
            .count()
    };
    // The exact wall depends on the RNG stream behind the generated
    // instances (vendored StdRng): feasibility decays from N ≈ 100
    // (2/4 seeds) and vanishes by N = 140.
    assert!(feasible(40) >= 3, "N=40 should be mostly feasible at α=1.7");
    assert!(feasible(140) == 0, "N=140 should be infeasible at α=1.7");
}

#[test]
fn large_objects_hit_a_feasibility_wall() {
    // §5: with 450–530 MB objects "no feasible solution can be found as
    // soon as the trees exceed 45 nodes" (ours: ≈ 35).
    let params = |n| ScenarioParams::paper(n, 0.9).with_sizes(snsp_gen::SizeRange::LARGE);
    let feasible_any = |n: usize| {
        (0..4u64).any(|seed| {
            let inst = snsp_gen::generate(&params(n), TreeShape::Random, seed);
            all_heuristics().iter().any(|h| {
                let mut rng = StdRng::seed_from_u64(seed);
                solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default()).is_ok()
            })
        })
    };
    assert!(feasible_any(5), "tiny large-object trees must be solvable");
    assert!(
        !feasible_any(60),
        "N=60 with large objects must be infeasible"
    );
}

#[test]
fn low_frequency_only_cheapens_the_network() {
    // §5: low frequencies mostly preserve the mapping but may downgrade
    // the purchased network cards → cost can only go down or stay.
    for seed in 0..3u64 {
        let high = snsp_gen::generate(&ScenarioParams::paper(40, 0.9), TreeShape::Random, seed);
        let low = snsp_gen::generate(
            &ScenarioParams::paper(40, 0.9).with_freq(snsp_gen::Frequency::LOW),
            TreeShape::Random,
            seed,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let h = solve(
            &SubtreeBottomUp,
            &high,
            &mut rng,
            &PipelineOptions::default(),
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let l = solve(
            &SubtreeBottomUp,
            &low,
            &mut rng,
            &PipelineOptions::default(),
        );
        if let (Ok(hs), Ok(ls)) = (h, l) {
            assert!(
                ls.cost <= hs.cost,
                "seed {seed}: low-frequency cost {} > high-frequency {}",
                ls.cost,
                hs.cost
            );
        }
    }
}

#[test]
fn frequencies_below_one_tenth_stop_mattering() {
    // §5: "frequencies smaller than 1/10 s have no further influence".
    for seed in 0..3u64 {
        let costs: Vec<Option<u64>> = [0.1, 0.05, 0.02]
            .iter()
            .map(|&f| {
                let inst = snsp_gen::generate(
                    &ScenarioParams::paper(40, 0.9).with_freq(snsp_gen::Frequency(f)),
                    TreeShape::Random,
                    seed,
                );
                let mut rng = StdRng::seed_from_u64(seed);
                solve(
                    &SubtreeBottomUp,
                    &inst,
                    &mut rng,
                    &PipelineOptions::default(),
                )
                .ok()
                .map(|s| s.cost)
            })
            .collect();
        assert_eq!(costs[0], costs[1], "seed {seed}");
        assert_eq!(costs[1], costs[2], "seed {seed}");
    }
}
