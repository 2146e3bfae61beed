//! Integration tests for the online serving subsystem (`snsp-serve`):
//! deterministic replay, campaign byte-stability across worker counts,
//! and engine validation of every admitted tenant's platform snapshot.

use snsp::prelude::*;

fn flaky_params() -> TraceParams {
    TraceParams::poisson(0.4, 6.0, 30.0).with_failures(0.1)
}

/// The same trace + seed must reproduce the identical event log and the
/// identical metrics, run after run.
#[test]
fn replay_is_deterministic() {
    let trace = generate_trace(&flaky_params(), 17);
    let a = run_trace(&trace, &ServeConfig::default());
    let b = run_trace(&trace, &ServeConfig::default());
    assert_eq!(a.log, b.log);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.final_cost, b.final_cost);
    assert!((a.cost_time_integral - b.cost_time_integral).abs() < 1e-9);
    assert_eq!(a.log_hash(), b.log_hash());
}

/// Service metrics behave: admissions dominate a lightly-loaded trace,
/// the books balance, and the platform actually costs money over time.
#[test]
fn service_metrics_are_sane() {
    let trace = generate_trace(&TraceParams::poisson(0.4, 6.0, 30.0), 23);
    let report = run_trace(&trace, &ServeConfig::default());
    assert_eq!(report.arrivals, trace.arrivals());
    assert_eq!(report.admitted + report.rejected, report.arrivals);
    assert!(
        report.admission_rate() > 0.5,
        "light load should mostly admit: {:.2}",
        report.admission_rate()
    );
    assert!(report.cost_time_integral > 0.0, "the platform is paid for");
    assert!(report.peak_cost >= report.final_cost);
    assert!(report.mean_utilization > 0.0 && report.mean_utilization <= 1.0 + 1e-9);
}

/// The acceptance bar: with spot checks on every admission plus the
/// final sweep, every admitted tenant's projection of the shared
/// platform snapshot must sustain ≥ 0.95·ρ in the fluid engine.
#[test]
fn every_admitted_tenant_passes_engine_validation() {
    let config = ServeConfig {
        spot_admissions: 1,
        final_validation: true,
        ..Default::default()
    };
    for seed in [1u64, 9] {
        let trace = generate_trace(&flaky_params(), seed);
        let report = run_trace(&trace, &config);
        assert!(report.admitted > 0, "seed {seed} admitted nobody");
        assert!(report.slo_checks > 0);
        assert_eq!(
            report.slo_violations, 0,
            "seed {seed}: an admitted tenant missed 0.95·ρ in the engine"
        );
    }
}

/// The live platform's snapshot verifies jointly, and its per-tenant
/// projections pass the engine hook directly (the same check the serving
/// loop spot-runs).
#[test]
fn snapshots_verify_jointly_and_per_tenant() {
    let params = TraceParams::poisson(0.5, 8.0, 25.0);
    let (objects, platform) = trace_environment(&params, 31);
    let trace = generate_trace(&params, 31);
    let mut live = LivePlatform::new(objects.clone(), platform.clone());
    let mut admitted = 0u32;
    for ev in &trace.events {
        if let TraceEvent::Arrive { tenant, spec, .. } = ev.event {
            let inst = tenant_instance(&objects, &platform, &spec);
            if live
                .admit(
                    tenant,
                    inst,
                    &SubtreeBottomUp,
                    7 + tenant.0 as u64,
                    &PipelineOptions::default(),
                )
                .is_ok()
            {
                admitted += 1;
            }
            if admitted == 4 {
                break;
            }
        }
    }
    assert!(admitted >= 2, "need at least two co-resident tenants");
    let (multi, sol) = live.snapshot().expect("tenants are resident");
    verify_joint(&multi, &sol).expect("joint constraints hold");
    for (k, app) in multi.apps.iter().enumerate() {
        let mapping = sol.mapping_for(&multi, k);
        let report = meets_slo(app, &mapping, 0.95, &SimConfig::default())
            .unwrap_or_else(|e| panic!("tenant {k} failed engine validation: {e}"));
        assert!(report.achieved_throughput >= 0.95 * app.rho);
    }
}

/// Campaign JSON (stable form) is byte-identical at every worker count,
/// and validates against schema v3.
#[test]
fn serve_campaign_is_worker_count_independent() {
    let build = |workers: usize| {
        let points = vec![
            ServePoint::new("calm", TraceParams::poisson(0.3, 5.0, 20.0)),
            ServePoint::new("flaky", flaky_params()),
        ];
        ServeCampaign::new("itest", points, 2).with_workers(workers)
    };
    let serial = run_serve_campaign(&build(1)).render_json(false);
    ArtifactKind::Serve
        .validate(&serial)
        .expect("schema v3 validates");
    for workers in [2usize, 4] {
        let parallel = run_serve_campaign(&build(workers)).render_json(false);
        assert_eq!(serial, parallel, "{workers} workers diverged byte-wise");
    }
}
