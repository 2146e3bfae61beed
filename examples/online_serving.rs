//! Online serving: tenants arrive, share one elastic platform, and
//! depart — the trace-driven layer on top of the paper's static
//! provisioning problem.
//!
//! A Poisson trace with heavy-tailed holding times and occasional
//! processor failures is replayed through `snsp-serve`: every arrival is
//! first packed onto already-purchased machines (reusing shared
//! downloads), departures reclaim capacity and re-consolidate, failures
//! re-map displaced operators. The same trace then runs as one point of
//! a parallel serve campaign with schema-v3 JSON output.
//!
//! Run with: `cargo run --release --example online_serving`

use snsp::prelude::*;

fn main() {
    // -- 1. One trace: λ = 0.4 arrivals per time unit over 40 units,
    //       mean hold 6, plus a light failure process.
    let params = TraceParams::poisson(0.4, 6.0, 40.0).with_failures(0.05);
    let trace = generate_trace(&params, 42);
    println!(
        "trace: {} arrivals over horizon {}",
        trace.arrivals(),
        params.horizon
    );

    // -- 2. Replay it. Admission is deterministic: the same trace and
    //       seed always reproduce the identical event log.
    let report = run_trace(&trace, &ServeConfig::default());
    for line in report.log.iter().take(8) {
        println!("  {line}");
    }
    if report.log.len() > 8 {
        println!("  … {} more events", report.log.len() - 8);
    }
    println!(
        "admitted {}/{} ({:.0}%), evicted {}, final cost ${}, peak {} procs",
        report.admitted,
        report.arrivals,
        100.0 * report.admission_rate(),
        report.evicted,
        report.final_cost,
        report.peak_procs,
    );
    println!(
        "∫cost dt = ${:.0}·t, mean utilization {:.1}%, SLO {}/{} validated",
        report.cost_time_integral,
        100.0 * report.mean_utilization,
        report.slo_checks - report.slo_violations,
        report.slo_checks,
    );

    // -- 3. The same scenario as a campaign grid (2 seeds per point) on
    //       the work-stealing pool, with validated schema-v3 JSON.
    let points = vec![
        ServePoint::new("calm", TraceParams::poisson(0.3, 6.0, 40.0)),
        ServePoint::new("flaky", params),
    ];
    let campaign = ServeCampaign::new("example", points, 2);
    let campaign_report = run_serve_campaign(&campaign);
    for p in &campaign_report.points {
        println!(
            "{:<6} admit {:.0}%  mean ∫cost dt ${:.0}  util {:.1}%  SLO misses {}",
            p.label,
            100.0 * p.admission_rate(),
            p.mean_cost_integral,
            100.0 * p.mean_utilization,
            p.slo_violations,
        );
    }
    let json = campaign_report.render_json(true);
    ArtifactKind::Serve
        .validate(&json)
        .expect("schema v3 round-trips");
    let path = std::env::temp_dir().join("BENCH_serve_example.json");
    std::fs::write(&path, &json).expect("write report");
    println!("wrote {}", path.display());
}
