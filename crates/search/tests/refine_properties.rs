//! Property suite for the refinement subsystem's three contracts:
//!
//! 1. **Never worse** — for every instance, start heuristic, driver and
//!    budget, the refined cost is at most the starting cost;
//! 2. **Always feasible** — the refined mapping passes the paper's full
//!    constraint check (`is_feasible`);
//! 3. **Deterministic** — identical seeds produce identical solutions
//!    (cost, assignment and downloads), and refinement campaigns render
//!    byte-identical stable JSON at 1, 2 and 4 workers.

use proptest::prelude::*;

use snsp_core::constraints::is_feasible;
use snsp_core::heuristics::{all_heuristics, solve_seeded, PipelineOptions, PlacementOptions};
use snsp_core::refine::{RefineDriver, RefineOptions};
use snsp_gen::{generate, ScenarioParams, TreeShape};
use snsp_search::{refine, refine_grid, refine_portfolio, run_refine_campaign};

fn driver_of(idx: u8) -> RefineDriver {
    match idx % 2 {
        0 => RefineDriver::FirstImprovement,
        _ => RefineDriver::Anneal,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Contracts 1 and 2 over random instances × heuristics × drivers ×
    /// budgets.
    #[test]
    fn refinement_never_increases_cost_and_stays_feasible(
        n in 8usize..36,
        alpha_tenths in 9u32..16,
        seed in 0u64..1000,
        h_idx in 0usize..6,
        d_idx in 0u8..2,
        max_evals in 50u64..800,
    ) {
        let alpha = alpha_tenths as f64 / 10.0;
        let inst = generate(&ScenarioParams::paper(n, alpha), TreeShape::Random, seed);
        let heuristics = all_heuristics();
        let h = &heuristics[h_idx];
        let Ok(start) = solve_seeded(h.as_ref(), &inst, seed, &PipelineOptions::default())
        else {
            return Ok(()); // infeasible start: nothing to refine
        };
        let out = refine(
            &inst,
            &start,
            PlacementOptions::default(),
            &RefineOptions {
                driver: driver_of(d_idx),
                max_evals,
                seed,
            },
        );
        prop_assert!(
            out.solution.cost <= start.cost,
            "{} + {:?} regressed: {} > {}",
            h.name(),
            driver_of(d_idx),
            out.solution.cost,
            start.cost
        );
        prop_assert!(is_feasible(&inst, &out.solution.mapping));
        prop_assert_eq!(out.stats.start_cost, start.cost);
        prop_assert_eq!(out.stats.final_cost, out.solution.cost);
        prop_assert!(out.stats.evals <= max_evals);
    }

    /// Contract 3 (per-run determinism): the full portfolio is a pure
    /// function of `(instance, seed, options)`.
    #[test]
    fn identical_seeds_give_identical_solutions(
        n in 10usize..30,
        seed in 0u64..500,
        d_idx in 0u8..2,
    ) {
        let inst = generate(&ScenarioParams::paper(n, 1.1), TreeShape::Random, seed);
        let opts = RefineOptions {
            driver: driver_of(d_idx),
            max_evals: 300,
            seed,
        };
        let a = refine_portfolio(&inst, seed, &opts, 2);
        let b = refine_portfolio(&inst, seed, &opts, 2);
        match (a, b) {
            (Some(a), Some(b)) => {
                prop_assert_eq!(a.solution.cost, b.solution.cost);
                prop_assert_eq!(a.solution.mapping.assignment, b.solution.mapping.assignment);
                prop_assert_eq!(a.solution.mapping.proc_kinds, b.solution.mapping.proc_kinds);
                prop_assert_eq!(a.solution.mapping.downloads, b.solution.mapping.downloads);
                prop_assert_eq!(a.stats.evals, b.stats.evals);
                prop_assert_eq!(a.stats.accepted, b.stats.accepted);
            }
            (None, None) => {}
            _ => prop_assert!(false, "feasibility itself diverged between identical runs"),
        }
    }
}

/// Contract 3 (scheduling independence): the ci refinement campaign's
/// stable JSON is byte-identical at 1, 2 and 4 workers.
#[test]
fn campaign_traces_are_byte_identical_across_worker_counts() {
    let base = || {
        let mut c = refine_grid("ci", 2).expect("ci grid exists");
        c.points.truncate(4); // keep the unit test cheap
        c.refine.max_evals = 400;
        c
    };
    let serial = run_refine_campaign(&base().with_workers(1)).render_json(false);
    for workers in [2usize, 4] {
        let parallel = run_refine_campaign(&base().with_workers(workers)).render_json(false);
        assert_eq!(serial, parallel, "{workers}-worker trace diverged");
    }
    snsp_sweep::ArtifactKind::Refine
        .validate(&serial)
        .expect("stable trace validates as schema v4");
}
