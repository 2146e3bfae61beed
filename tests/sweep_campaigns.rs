//! Integration coverage for the `snsp-sweep` campaign subsystem through
//! the facade: scheduling-independent determinism, the exact-solver
//! reference column, and schema-v1 round-tripping.

use snsp::prelude::*;
use snsp::sweep::Json;

fn demo_campaign(workers: usize) -> Campaign {
    let points = vec![
        PointSpec::new("8", ScenarioParams::paper(8, 0.9)),
        PointSpec::new("12", ScenarioParams::paper(12, 1.3)),
        PointSpec::new("16", ScenarioParams::paper(16, 0.9)),
    ];
    Campaign::new("integration", points, 3)
        .with_reference(ReferenceConfig {
            max_ops: 12,
            node_budget: 200_000,
            workers: 1,
        })
        .with_workers(workers)
}

/// The tentpole determinism guarantee: the stable JSON (timing omitted)
/// is byte-identical at every worker count, reference column included.
#[test]
fn stable_json_is_byte_identical_across_worker_counts() {
    let serial = run_campaign(&demo_campaign(1)).render_json(false);
    for workers in [2, 4, 7] {
        let parallel = run_campaign(&demo_campaign(workers)).render_json(false);
        assert_eq!(serial, parallel, "diverged at {workers} workers");
    }
    // The serial baseline itself must be reproducible.
    assert_eq!(serial, run_campaign(&demo_campaign(1)).render_json(false));
}

/// Campaign results must agree with running the pipeline by hand on the
/// same instances and derived seeds.
#[test]
fn campaign_outcomes_match_manual_pipeline_runs() {
    let report = run_campaign(&demo_campaign(4));
    let point = &report.points[0]; // N = 8, alpha = 0.9
    for (h, heur) in all_heuristics().iter().enumerate() {
        let mut manual: Vec<u64> = Vec::new();
        for seed in 0..3u64 {
            let inst = snsp::gen::generate(&ScenarioParams::paper(8, 0.9), TreeShape::Random, seed);
            let rng_seed = seed.wrapping_mul(snsp::sweep::PIPELINE_SEED_STRIDE);
            if let Ok(sol) =
                solve_seeded(heur.as_ref(), &inst, rng_seed, &PipelineOptions::default())
            {
                manual.push(sol.cost);
            }
        }
        let stats = &point.heuristics[h];
        assert_eq!(stats.name, heur.name());
        assert_eq!(stats.feasible, manual.len());
        if !manual.is_empty() {
            let mean = manual.iter().sum::<u64>() as f64 / manual.len() as f64;
            assert!((stats.mean_cost.unwrap() - mean).abs() < 1e-9);
        }
    }
}

/// A truncated branch-and-bound (node budget exhausted) must surface as
/// `optimal = false` in the reference column, in both the typed report
/// and the serialized JSON.
#[test]
fn truncated_reference_is_reported_as_not_optimal() {
    let points = vec![PointSpec::new("16", ScenarioParams::paper(16, 0.9))];
    let campaign = Campaign::new("truncated", points, 2)
        .with_reference(ReferenceConfig {
            max_ops: 16,
            node_budget: 1,
            workers: 1,
        })
        .with_workers(2);
    let report = run_campaign(&campaign);
    let reference = report.points[0].reference.as_ref().expect("eligible point");
    assert!(!reference.optimal);

    let json = report.render_json(false);
    let doc = snsp::sweep::json::parse(&json).unwrap();
    let results = doc.get("results").unwrap().as_arr().unwrap();
    let optimal = results[0]
        .get("reference")
        .unwrap()
        .get("optimal")
        .unwrap()
        .as_bool();
    assert_eq!(optimal, Some(false));
}

/// An ample budget on tiny instances proves optimality, and the exact
/// cost never exceeds any heuristic mean on fully-feasible rows.
#[test]
fn exhaustive_reference_is_optimal_and_bounds_heuristics() {
    let points = vec![PointSpec::new("8", ScenarioParams::paper(8, 0.9))];
    let campaign = Campaign::new("opt", points, 2)
        .with_reference(ReferenceConfig {
            max_ops: 8,
            node_budget: 2_000_000,
            workers: 1,
        })
        .with_workers(2);
    let report = run_campaign(&campaign);
    let point = &report.points[0];
    let reference = point.reference.as_ref().unwrap();
    assert!(reference.optimal);
    assert_eq!(reference.solved, 2);
    let exact = reference.mean_cost.unwrap();
    for h in &point.heuristics {
        if h.feasible == h.runs {
            assert!(
                h.mean_cost.unwrap() >= exact - 1e-9,
                "{} beat the optimum",
                h.name
            );
        }
    }
}

/// Timed reports validate, corrupted ones do not.
#[test]
fn schema_validation_round_trips() {
    let report = run_campaign(&demo_campaign(2));
    let timed = report.render_json(true);
    assert!(timed.contains("\"timing\""));
    ArtifactKind::Sweep
        .validate(&timed)
        .expect("timed report is schema-valid");
    ArtifactKind::Sweep
        .validate(&report.render_json(false))
        .expect("stable report is schema-valid");

    let truncated = &timed[..timed.len() / 2];
    assert!(ArtifactKind::Sweep.validate(truncated).is_err());
    let wrong_version = timed.replace("\"schema_version\": 1", "\"schema_version\": 99");
    assert!(ArtifactKind::Sweep.validate(&wrong_version).is_err());
}

/// The report exposes enough typed data to rebuild the paper's tables:
/// labels in grid order, all six heuristics, runs bookkeeping intact.
#[test]
fn report_is_table_ready() {
    let report = run_campaign(&demo_campaign(3));
    assert_eq!(report.campaign, "integration");
    assert_eq!(report.seeds, 3);
    let labels: Vec<&str> = report.points.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(labels, ["8", "12", "16"]);
    for point in &report.points {
        assert_eq!(point.heuristics.len(), 6);
        for h in &point.heuristics {
            assert_eq!(h.runs, 3);
            assert!(h.feasible <= h.runs);
            assert_eq!(h.mean_cost.is_some(), h.feasible > 0);
        }
    }
    // Reference only on the N ≤ 12 points.
    assert!(report.points[0].reference.is_some());
    assert!(report.points[1].reference.is_some());
    assert!(report.points[2].reference.is_none());
}

/// `Json` is re-exported for downstream tooling; spot-check the parser
/// agrees with the writer on a report.
#[test]
fn report_json_parses_back() {
    let report = run_campaign(&demo_campaign(2));
    let doc = snsp::sweep::json::parse(&report.render_json(true)).unwrap();
    assert_eq!(
        doc.get("campaign").and_then(Json::as_str),
        Some("integration")
    );
    assert_eq!(doc.get("schema_version").and_then(Json::as_int), Some(1));
    let timing = doc.get("timing").expect("timed render keeps timing");
    assert!(timing.get("workers").and_then(Json::as_int).unwrap() >= 1);
}
