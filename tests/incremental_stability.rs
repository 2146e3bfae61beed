//! Solution-stability pins for the incremental demand engine.
//!
//! The probe accumulator replaced the recompute-per-query demand path in
//! every heuristic; `PlacementOptions::demand_oracle` keeps the original
//! path alive. These tests pin that, on the paper's fig2/fig3 seed grids,
//! both engines return **byte-identical** solutions — same cost, same
//! purchased kinds, same operator assignment, same download streams — so
//! the rewrite is a pure performance change. The exact solver is pinned
//! the same way against its retained reference implementation.

use snsp::prelude::*;
use snsp_core::heuristics::PlacementOptions;
use snsp_solver::solve_exact_reference;

fn pipelines() -> (PipelineOptions, PipelineOptions) {
    let incremental = PipelineOptions::default();
    let oracle = PipelineOptions {
        placement: PlacementOptions {
            demand_oracle: true,
        },
        ..Default::default()
    };
    (incremental, oracle)
}

fn assert_identical(label: &str, a: &Result<Solution, String>, b: &Result<Solution, String>) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.cost, y.cost, "{label}: cost diverged");
            assert_eq!(
                x.mapping.proc_kinds, y.mapping.proc_kinds,
                "{label}: purchased kinds diverged"
            );
            assert_eq!(
                x.mapping.assignment, y.mapping.assignment,
                "{label}: operator assignment diverged"
            );
            assert_eq!(
                x.mapping.downloads, y.mapping.downloads,
                "{label}: download streams diverged"
            );
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{label}: error kind diverged"),
        (x, y) => panic!("{label}: feasibility diverged ({x:?} vs {y:?})"),
    }
}

fn run_grid(points: &[(usize, f64)], seeds: u64) {
    let (incremental, oracle) = pipelines();
    for &(n, alpha) in points {
        for seed in 0..seeds {
            let inst = paper_instance(n, alpha, seed);
            for h in all_heuristics() {
                let label = format!("{} N={n} α={alpha} seed={seed}", h.name());
                let fast = solve_seeded(h.as_ref(), &inst, seed, &incremental)
                    .map_err(|e| format!("{e:?}"));
                let slow =
                    solve_seeded(h.as_ref(), &inst, seed, &oracle).map_err(|e| format!("{e:?}"));
                assert_identical(&label, &fast, &slow);
            }
        }
    }
}

#[test]
fn heuristics_match_oracle_on_fig2_grids() {
    // Fig. 2's N axis at both of the paper's α settings.
    let points: Vec<(usize, f64)> = (20..=140)
        .step_by(20)
        .flat_map(|n| [(n, 0.9), (n, 1.7)])
        .collect();
    run_grid(&points, 3);
}

#[test]
fn heuristics_match_oracle_on_fig3_grids() {
    // Fig. 3's α axis at N = 60 (paper) and N = 20 (discussed).
    let points: Vec<(usize, f64)> = (5..=25)
        .step_by(2)
        .flat_map(|a| [(60, a as f64 / 10.0), (20, a as f64 / 10.0)])
        .collect();
    run_grid(&points, 3);
}

#[test]
fn exact_search_matches_reference_implementation() {
    for seed in 0..4u64 {
        for &(n, alpha) in &[(6usize, 0.9), (8, 1.3), (10, 1.0), (12, 1.6)] {
            let inst = paper_instance(n, alpha, seed);
            let config = BranchBoundConfig::default();
            let fast = solve_exact(&inst, &config);
            let slow = solve_exact_reference(&inst, &config);
            let label = format!("B&B N={n} α={alpha} seed={seed}");
            assert_eq!(fast.cost, slow.cost, "{label}: cost diverged");
            assert_eq!(fast.optimal, slow.optimal, "{label}: optimality diverged");
            match (&fast.mapping, &slow.mapping) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.proc_kinds, y.proc_kinds, "{label}: kinds diverged");
                    assert_eq!(x.assignment, y.assignment, "{label}: assignment diverged");
                    assert_eq!(x.downloads, y.downloads, "{label}: downloads diverged");
                }
                (None, None) => {}
                (x, y) => panic!("{label}: feasibility diverged ({x:?} vs {y:?})"),
            }
        }
    }
}
