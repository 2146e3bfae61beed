//! End-to-end integration of the refinement subsystem through the
//! facade: the anytime contract across every constructive heuristic, the
//! serve layer's budgeted departure refinement (joint verification on
//! live snapshots), and the schema-v4 campaign artifact.

use snsp::prelude::*;
use snsp_core::multi::verify_joint;

#[test]
fn refinement_never_regresses_any_heuristic_on_the_paper_grid() {
    for &(n, alpha) in &[(20usize, 0.9), (40, 1.3), (60, 1.7)] {
        for seed in 0..2u64 {
            let inst =
                snsp::gen::generate(&ScenarioParams::paper(n, alpha), TreeShape::Random, seed);
            for h in all_heuristics() {
                let Ok(start) = solve_seeded(h.as_ref(), &inst, seed, &PipelineOptions::default())
                else {
                    continue;
                };
                let out = snsp::search::refine(
                    &inst,
                    &start,
                    Default::default(),
                    &RefineOptions {
                        max_evals: 400,
                        ..Default::default()
                    },
                );
                assert!(
                    out.solution.cost <= start.cost,
                    "{} at N={n} α={alpha} seed {seed}: refined {} > start {}",
                    h.name(),
                    out.solution.cost,
                    start.cost
                );
                assert!(is_feasible(&inst, &out.solution.mapping));
            }
        }
    }
}

#[test]
fn budgeted_departure_refinement_keeps_serve_snapshots_jointly_valid() {
    // An online run whose departures flow through the budgeted refine:
    // every post-departure snapshot must verify jointly, and the refined
    // platform must never cost more than the unrefined single pass.
    let trace = generate_trace(&TraceParams::poisson(0.5, 4.0, 30.0), 11);
    let report = run_trace(&trace, &ServeConfig::default());
    assert_eq!(report.slo_violations, 0);
    assert!(report.departed > 0, "the trace must exercise departures");

    // Replay by hand with a deep refinement budget, verifying every
    // post-departure snapshot jointly and pinning cost monotonicity of
    // each departure against its own pre-departure platform.
    let (objects, platform) = trace_environment(&trace.params, trace.seed);
    let mut live = LivePlatform::new(objects.clone(), platform.clone());
    let mut departures = 0usize;
    for ev in &trace.events {
        match ev.event {
            TraceEvent::Arrive { tenant, spec, .. } => {
                let seed = trace.seed ^ (tenant.0 as u64 + 1);
                let inst = tenant_instance(&objects, &platform, &spec);
                let _ = live.admit(
                    tenant,
                    inst,
                    &SubtreeBottomUp,
                    seed,
                    &PipelineOptions::default(),
                );
            }
            TraceEvent::Depart { tenant } => {
                let before = live.cost();
                let mut deep = Budget::new(5_000);
                if live.depart_budgeted(tenant, &mut deep) {
                    departures += 1;
                    assert!(live.cost() <= before, "a departure raised the cost");
                    if let Some((multi, sol)) = live.snapshot() {
                        verify_joint(&multi, &sol)
                            .expect("refined snapshot verifies after departure");
                    }
                }
            }
            TraceEvent::ProcessorFail { .. } => {} // exercised elsewhere
        }
    }
    assert!(
        departures > 0,
        "the replay must exercise budgeted departures"
    );
}

#[test]
fn committed_refine_artifact_stays_valid_and_regenerable() {
    // The repo-root BENCH_refine.json is the acceptance artifact: it
    // must parse and validate as schema v4, and its structural
    // invariants (never_worse on every point) are enforced by the
    // validator itself.
    let body = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_refine.json"))
        .expect("committed BENCH_refine.json exists at the repo root");
    ArtifactKind::Refine
        .validate(&body)
        .expect("committed artifact validates");
}
