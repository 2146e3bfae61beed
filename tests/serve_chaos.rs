//! Integration tests for the fault-injection tier: seeded chaos replay
//! over the sharded platform must (a) degenerate to the plain sharded
//! tier when the fault plan is empty, (b) recover every injected shard
//! crash fingerprint-identically to an uninterrupted run at any worker
//! count, (c) re-admit at least 90% of the tenants displaced by a
//! capacity revocation once it thaws, (d) draw its fault schedule
//! independently of the shard count, (e) keep the platform invariant
//! audit clean after every fault, and (f) keep the decisions of
//! multi-slot tenants pinned.

use snsp::prelude::*;

fn churny_params() -> TraceParams {
    TraceParams::poisson(0.7, 5.0, 25.0).with_failures(0.1)
}

/// An all-off fault spec instantiates to an empty plan and the chaos
/// replay collapses to the plain sharded tier: same log, same costs,
/// same final platform fingerprint, zeroed chaos stats.
#[test]
fn empty_fault_plan_reproduces_the_sharded_tier() {
    let trace = generate_trace(&churny_params(), 17);
    let plan = FaultPlan::instantiate(&FaultSpec::default(), trace.params.horizon);
    assert!(plan.events.is_empty());
    for shards in [1usize, 2, 4] {
        let opts = ShardOptions { shards, workers: 2 };
        let (plain, plain_state) = replay_trace_sharded(&trace, &ServeConfig::default(), &opts);
        let (chaos, chaos_state) =
            replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
        assert_eq!(plain.log, chaos.base.log, "{shards} shards");
        assert_eq!(plain.final_cost, chaos.base.final_cost, "{shards} shards");
        assert_eq!(
            plain.cost_time_integral, chaos.base.cost_time_integral,
            "{shards} shards"
        );
        assert_eq!(plain_state.fingerprint(), chaos_state.fingerprint());
        assert_eq!(chaos.stats, Default::default());
    }
}

/// The headline recovery guarantee: every injected crash restores the
/// victim shard from its tick-barrier checkpoint and replays forward to
/// a state byte-identical to the run that never crashed — event log,
/// final cost, and platform fingerprint all match at 1, 2 and 4 replay
/// workers, and the invariant audit stays clean throughout.
#[test]
fn crash_recovery_matches_the_uninterrupted_run_at_every_worker_count() {
    let trace = generate_trace(&churny_params(), 29);
    let spec = FaultSpec::seeded(43)
        .with_crashes(0.3)
        .with_msg_faults(0.1, 0.05, 0.05)
        .with_retry(RetryPolicy::standard())
        .with_ticks(2.0);
    let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
    assert!(plan.crash_count() >= 2, "plan must schedule real crashes");
    let reference = plan.without_crashes();
    for workers in [1usize, 2, 4] {
        let opts = ShardOptions { shards: 2, workers };
        let (chaos, state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
        let (clean, clean_state) =
            replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &reference);
        assert_eq!(chaos.stats.crashes, plan.crash_count(), "{workers} workers");
        assert_eq!(
            chaos.stats.recoveries, chaos.stats.crashes,
            "{workers} workers"
        );
        assert_eq!(
            chaos.base.log, clean.base.log,
            "{workers} workers: recovery must be unobservable in the log"
        );
        assert_eq!(
            chaos.base.final_cost, clean.base.final_cost,
            "{workers} workers"
        );
        assert_eq!(
            state.fingerprint(),
            clean_state.fingerprint(),
            "{workers} workers: recovered state diverged"
        );
        assert_eq!(
            chaos.stats.audit_failures, 0,
            "{workers} workers: {:?}",
            chaos.stats.audit_first
        );
        audit_platform(&state).expect("final platform passes the invariant audit");
    }
}

/// A mid-trace capacity revocation displaces tenants (purchases frozen,
/// live processors killed); the bounded retry queue re-admits at least
/// 90% of them under deterministic exponential backoff once capacity is
/// restored.
#[test]
fn revocation_displaces_then_retry_readmits_ninety_percent() {
    let params = TraceParams::poisson(1.2, 50.0, 30.0)
        .with_tenant_ops(12, 20)
        .with_tenant_rho(8.0, 16.0);
    let trace = generate_trace(&params, 2);
    let spec = FaultSpec::seeded(21)
        .with_revocation(10.0, 14.0, 0.6)
        .with_retry(RetryPolicy::standard())
        .with_ticks(1.0);
    let plan = FaultPlan::instantiate(&spec, params.horizon);
    let opts = ShardOptions {
        shards: 2,
        workers: 2,
    };
    let (report, state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
    assert_eq!(report.stats.revocations, 1);
    assert!(
        report.stats.retry_enqueued > 0,
        "the revocation must displace tenants"
    );
    assert!(
        report.readmission_rate() >= 0.9,
        "readmission {:.2} below the 90% bar ({} of {})",
        report.readmission_rate(),
        report.stats.readmitted,
        report.stats.retry_enqueued
    );
    assert!(
        report.base.log.iter().any(|l| l.contains(" readmit ")),
        "readmissions must appear in the event log"
    );
    assert_eq!(
        report.stats.audit_failures, 0,
        "{:?}",
        report.stats.audit_first
    );
    audit_platform(&state).expect("final platform passes the invariant audit");
}

/// Multi-slot tenants (10–40 operators at ρ up to 40) make every serve
/// mechanism that prices a block onto a live slot decide something:
/// first-fit pack misses, committed consolidation evacuations, failure
/// re-maps and evictions, re-admissions after a revocation thaws. The
/// hashes pin every such decision of one plain and one chaos replay.
#[test]
fn multi_slot_decisions_are_pinned() {
    let params = TraceParams::poisson(1.0, 20.0, 40.0)
        .with_tenant_ops(10, 40)
        .with_tenant_rho(0.5, 40.0)
        .with_failures(0.3);
    let trace = generate_trace(&params, 1);
    let spec = FaultSpec::seeded(8)
        .with_crashes(0.1)
        .with_racks(0.1, 2)
        .with_revocation(12.0, 24.0, 0.5)
        .with_retry(RetryPolicy::standard())
        .with_degradation(3, 1)
        .with_ticks(1.0);
    let plan = FaultPlan::instantiate(&spec, params.horizon);
    let opts = ShardOptions::default();
    let ((plain, chaos), snap) = capture(|| {
        let plain = run_trace(&trace, &ServeConfig::default());
        let chaos = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan).0;
        (plain, chaos)
    });
    for name in [
        "serve.admit.pack_pruned",
        "serve.consolidation.evac_committed",
        "fault.retry.readmitted",
        "serve.evicted",
    ] {
        assert!(snap.counter(name) > Some(0), "{name} never counted");
    }
    assert_eq!(format!("{:016x}", plain.log_hash()), "fd792c6a53cabc3f");
    assert_eq!(
        format!("{:016x}", chaos.base.log_hash()),
        "72e43af23ab94ab9"
    );
    assert_eq!(format!("{:016x}", chaos.fingerprint), "d7639d72e1ff78f8");
}

/// The fault lottery is drawn globally and only then routed: the
/// schedule (times, kinds, victim draws) is identical at any shard
/// count, so the same crashes and revocations land at 1, 2 and 4
/// shards.
#[test]
fn fault_schedule_does_not_depend_on_the_shard_count() {
    let spec = FaultSpec::seeded(77)
        .with_crashes(0.25)
        .with_racks(0.1, 2)
        .with_revocation(5.0, 9.0, 0.3)
        .with_ticks(2.0);
    let trace = generate_trace(&TraceParams::poisson(0.7, 5.0, 20.0), 12);
    let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
    let mut schedules = Vec::new();
    for shards in [1usize, 2, 4] {
        let opts = ShardOptions { shards, workers: 2 };
        let report = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan).0;
        schedules.push((
            report.stats.crashes,
            report.stats.rack_failures,
            report.stats.revocations,
            report.stats.faults_injected,
        ));
        assert_eq!(report.stats.audit_failures, 0, "{shards} shards");
    }
    assert_eq!(schedules[0], schedules[1], "1 vs 2 shards");
    assert_eq!(schedules[0], schedules[2], "1 vs 4 shards");
}

/// A chaos campaign's stable JSON is byte-identical at any campaign
/// worker count, validates against schema v6, and certifies every
/// crashing point against its crash-free reference replay.
#[test]
fn chaos_campaign_stable_json_is_worker_count_independent_and_certified() {
    let make = |workers: usize| {
        let stormy = FaultSpec::seeded(2)
            .with_crashes(0.25)
            .with_msg_faults(0.1, 0.05, 0.05)
            .with_retry(RetryPolicy::standard())
            .with_ticks(2.0);
        let points = vec![
            ServePoint::new("calm", TraceParams::poisson(0.4, 4.0, 15.0))
                .with_fault(FaultSpec::seeded(1).with_ticks(3.0)),
            ServePoint::new(
                "stormy",
                TraceParams::poisson(0.5, 4.0, 15.0).with_failures(0.05),
            )
            .with_fault(stormy),
        ];
        ServeCampaign::new("integration-chaos", points, 2)
            .with_workers(workers)
            .with_shards(2, 2)
    };
    let serial = run_serve_campaign(&make(1));
    let stable = serial.render_chaos_json(false);
    ArtifactKind::Chaos
        .validate(&stable)
        .expect("stable form validates as schema v6");
    let stormy = &serial.points[1];
    assert!(stormy.stats.crashes > 0, "the stormy point must crash");
    assert_eq!(
        stormy.crash_fingerprint_match,
        Some(true),
        "crash recovery must be certified against the uninterrupted reference"
    );
    for p in &serial.points {
        assert_eq!(p.admitted + p.rejected, p.arrivals, "{}", p.label);
        assert_eq!(p.stats.audit_failures, 0, "{}", p.label);
    }
    for workers in [2usize, 4] {
        let parallel = run_serve_campaign(&make(workers));
        assert_eq!(
            stable,
            parallel.render_chaos_json(false),
            "{workers} campaign workers diverged"
        );
    }
}
