//! Campaign: sweep a scenario grid in parallel and emit the
//! machine-readable `BENCH_sweep.json` (schema v1).
//!
//! A campaign flattens `scenario point × heuristic × seed` into
//! independent jobs, drains them on a work-stealing pool, and adds an
//! exact branch-and-bound reference column on the small points. The
//! stable form of the report (timing omitted) is byte-identical at every
//! worker count.
//!
//! Run with: `cargo run --release --example campaign`

use snsp::prelude::*;

fn main() {
    // -- 1. The grid: cost vs N at the paper's baseline α = 0.9, three
    //       seeds per point, exact reference on points with N ≤ 12.
    let points: Vec<PointSpec> = [8usize, 12, 20, 30]
        .into_iter()
        .map(|n| PointSpec::new(n.to_string(), ScenarioParams::paper(n, 0.9)))
        .collect();
    let campaign = Campaign::new("example", points, 3).with_reference(ReferenceConfig {
        max_ops: 12,
        node_budget: 200_000,
        workers: 1,
    });

    // -- 2. Run it. Workers default to the machine's parallelism; the
    //       report aggregates in grid order, so results never depend on
    //       scheduling.
    let report = run_campaign(&campaign);
    for point in &report.points {
        let best = point
            .heuristics
            .iter()
            .filter_map(|h| h.mean_cost.map(|c| (h.name, c)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match (best, &point.reference) {
            (Some((name, cost)), Some(r)) => println!(
                "N={:<3} best {name} at ${cost:.0}, exact ${} ({})",
                point.label,
                r.mean_cost.map_or("-".into(), |c| format!("{c:.0}")),
                if r.optimal { "optimal" } else { "truncated" },
            ),
            (Some((name, cost)), None) => {
                println!("N={:<3} best {name} at ${cost:.0}", point.label)
            }
            (None, _) => println!("N={:<3} infeasible at every seed", point.label),
        }
    }

    // -- 3. Serialize, self-validate, and write the artifact.
    let json = report.render_json(true);
    ArtifactKind::Sweep
        .validate(&json)
        .expect("schema v1 round-trips");
    let path = std::env::temp_dir().join("BENCH_sweep_example.json");
    std::fs::write(&path, &json).expect("write report");
    println!("wrote {}", path.display());
    if let Some(t) = &report.timing {
        println!(
            "{} jobs on {} workers in {:.3}s",
            t.jobs, t.workers, t.total_s
        );
    }
}
