//! Integration tests for the sharded serve tier: cross-shard buy/evict
//! decisions must resolve identically no matter how the per-tick shard
//! batches are scheduled. The same trace replays at 1/2/4 shards, each
//! shard count driven with 1 and 4 workers, and every worker count must
//! produce the identical event log, log fingerprint, metrics, and final
//! platform fingerprint (per-shard costs, purchased kinds, assignments
//! and downloads). One shard must reproduce the unsharded replay
//! exactly, and the tick/barrier engine must also agree with a serial
//! oracle that replays the same trace one event at a time straight
//! through `ShardedPlatform`.

use snsp::prelude::*;
use snsp::sweep::PIPELINE_SEED_STRIDE;

/// A trace with enough churn to exercise every cross-shard path:
/// admissions that buy, departures that consolidate, and failures whose
/// global lottery spans shards and whose evictions cross back.
fn churny_params() -> TraceParams {
    TraceParams::poisson(0.8, 5.0, 30.0).with_failures(0.15)
}

#[test]
fn sharded_replay_is_identical_at_every_worker_count() {
    let trace = generate_trace(&churny_params(), 21);
    for shards in [1usize, 2, 4] {
        let (base, base_platform) = replay_trace_sharded(
            &trace,
            &ServeConfig::default(),
            &ShardOptions { shards, workers: 1 },
        );
        assert_eq!(base.admitted + base.rejected, base.arrivals);
        for workers in [2usize, 4] {
            let (report, platform) = replay_trace_sharded(
                &trace,
                &ServeConfig::default(),
                &ShardOptions { shards, workers },
            );
            let at = format!("{shards} shards, {workers} workers");
            assert_eq!(base.log, report.log, "{at}: event log diverged");
            assert_eq!(base.log_hash(), report.log_hash(), "{at}");
            assert_eq!(
                base_platform.fingerprint(),
                platform.fingerprint(),
                "{at}: final platform state diverged"
            );
            assert_eq!(base.final_cost, report.final_cost, "{at}");
            assert_eq!(base.peak_cost, report.peak_cost, "{at}");
            assert_eq!(base.peak_procs, report.peak_procs, "{at}");
            assert_eq!(base.evicted, report.evicted, "{at}");
            assert_eq!(
                base.cost_time_integral, report.cost_time_integral,
                "{at}: integrals must match bit-for-bit"
            );
            assert_eq!(base.mean_utilization, report.mean_utilization, "{at}");
        }
    }
}

/// One shard is the unsharded platform: same admissions, same packing,
/// same metrics and the same log, `s0 ` shard prefix included.
#[test]
fn one_shard_reproduces_the_unsharded_replay() {
    let trace = generate_trace(&churny_params(), 33);
    let unsharded = run_trace(&trace, &ServeConfig::default());
    let sharded = replay_trace_sharded(
        &trace,
        &ServeConfig::default(),
        &ShardOptions {
            shards: 1,
            workers: 4,
        },
    )
    .0;
    assert_eq!(sharded.admitted, unsharded.admitted);
    assert_eq!(sharded.rejected, unsharded.rejected);
    assert_eq!(sharded.departed, unsharded.departed);
    assert_eq!(sharded.evicted, unsharded.evicted);
    assert_eq!(sharded.failures, unsharded.failures);
    assert_eq!(sharded.final_cost, unsharded.final_cost);
    assert_eq!(sharded.peak_cost, unsharded.peak_cost);
    assert_eq!(sharded.cost_time_integral, unsharded.cost_time_integral);
    assert_eq!(sharded.mean_utilization, unsharded.mean_utilization);
    assert_eq!(sharded.log, unsharded.log, "logs differ");
}

/// What the serial oracle reached on one trace.
struct Serial {
    admitted: usize,
    rejected: usize,
    departed: usize,
    evicted: usize,
    failures: usize,
    peak_cost: u64,
    cost_integral: f64,
    platform: ShardedPlatform,
}

/// The oracle: `trace` replayed one event at a time straight through
/// `ShardedPlatform::{admit_spec, depart, fail}` — no tick batches, no
/// barriers, no message fold — integrating the cost per event.
fn serial_replay(trace: &Trace, shards: usize) -> Serial {
    let config = ServeConfig::default();
    let (objects, platform) = trace_environment(&trace.params, trace.seed);
    let mut s = Serial {
        admitted: 0,
        rejected: 0,
        departed: 0,
        evicted: 0,
        failures: 0,
        peak_cost: 0,
        cost_integral: 0.0,
        platform: ShardedPlatform::new(objects, platform, shards),
    };
    let mut last_t = 0.0;
    for ev in &trace.events {
        s.cost_integral += s.platform.cost() as f64 * (ev.time - last_t);
        last_t = ev.time;
        match ev.event {
            TraceEvent::Arrive { tenant, spec, .. } => {
                let seed = trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                match s
                    .platform
                    .admit_spec(tenant, &spec, &SubtreeBottomUp, seed, &config.opts)
                {
                    Ok(_) => s.admitted += 1,
                    Err(_) => s.rejected += 1,
                }
            }
            TraceEvent::Depart { tenant } => s.departed += usize::from(s.platform.depart(tenant)),
            TraceEvent::ProcessorFail { lottery } => {
                if let Some((_, out)) = s.platform.fail(lottery) {
                    s.failures += 1;
                    s.evicted += out.evicted.len();
                }
            }
        }
        s.peak_cost = s.peak_cost.max(s.platform.cost());
    }
    s.cost_integral += s.platform.cost() as f64 * (trace.params.horizon - last_t);
    s
}

/// Differential test: the tick/barrier engine reaches the serial
/// oracle's counts, costs, cost integral and final platform at 1, 2 and
/// 4 shards, driven by 1 and 4 workers. The integrals may differ in the
/// last bits (the engine integrates per folded message, the oracle per
/// trace event).
#[test]
fn barrier_engine_matches_the_serial_oracle() {
    let trace = generate_trace(&churny_params(), 33);
    for shards in [1usize, 2, 4] {
        let oracle = serial_replay(&trace, shards);
        assert!(oracle.failures > 0, "the trace must exercise failures");
        for workers in [1usize, 4] {
            let opts = ShardOptions { shards, workers };
            let (report, platform) = replay_trace_sharded(&trace, &ServeConfig::default(), &opts);
            let at = format!("{shards} shards, {workers} workers");
            assert_eq!(report.admitted, oracle.admitted, "{at}");
            assert_eq!(report.rejected, oracle.rejected, "{at}");
            assert_eq!(report.departed, oracle.departed, "{at}");
            assert_eq!(report.evicted, oracle.evicted, "{at}");
            assert_eq!(report.failures, oracle.failures, "{at}");
            assert_eq!(report.final_cost, oracle.platform.cost(), "{at}");
            assert_eq!(report.peak_cost, oracle.peak_cost, "{at}");
            assert_eq!(
                platform.fingerprint(),
                oracle.platform.fingerprint(),
                "{at}: final platform diverged"
            );
            let (a, b) = (report.cost_time_integral, oracle.cost_integral);
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
                "{at}: cost integral {a} vs {b}"
            );
        }
    }
}

/// Shard snapshots stay jointly feasible through churn: after a full
/// replay with failures, every shard's compacted snapshot passes the
/// paper's joint constraint verifier.
#[test]
fn final_shard_snapshots_verify_jointly() {
    let trace = generate_trace(&churny_params(), 5);
    let (report, platform) = replay_trace_sharded(
        &trace,
        &ServeConfig::default(),
        &ShardOptions {
            shards: 4,
            workers: 2,
        },
    );
    assert!(report.admitted > 0);
    let mut resident = 0;
    for s in 0..platform.shard_count() {
        let Some((multi, sol)) = platform.shard(s).snapshot() else {
            continue;
        };
        verify_joint(&multi, &sol).expect("shard snapshot verifies");
        resident += sol.assignments.len();
    }
    assert_eq!(resident, platform.tenant_count());
    assert_eq!(platform.cost(), report.final_cost);
}

/// Admission latencies are sampled per successful admission in both the
/// sharded and unsharded paths (values are wall-clock and unstable, but
/// the sample *count* is deterministic).
#[test]
fn admission_latency_sample_counts_are_deterministic() {
    let trace = generate_trace(&churny_params(), 13);
    let unsharded = run_trace(&trace, &ServeConfig::default());
    assert_eq!(unsharded.admit_latencies_us.len(), unsharded.admitted);
    for shards in [1usize, 2] {
        let report = replay_trace_sharded(
            &trace,
            &ServeConfig::default(),
            &ShardOptions { shards, workers: 2 },
        )
        .0;
        assert_eq!(report.admit_latencies_us.len(), report.admitted);
        assert!(report.admit_latencies_us.iter().all(|&us| us > 0.0));
    }
}

/// The final engine validation, pinned before it was rewritten. The
/// trace is 1,089 events in one tick, so the tick fans out from two
/// workers on. An SLO bar of 1,000·ρ fails every check, so the log
/// carries each resident's engine-measured rate to the last digit: any
/// moved bit of any validation run, or a verdict noted out of shard
/// order, changes the hash.
#[test]
fn final_validation_is_pinned_at_every_worker_count() {
    let trace = generate_trace(&TraceParams::heavy(300.0, 0.25, 2.0), 3);
    assert_eq!(trace.events.len(), 1089);
    let config = ServeConfig {
        slo_frac: 1e3,
        ..ServeConfig::default()
    };
    for workers in [1usize, 2, 4] {
        let opts = ShardOptions { shards: 4, workers };
        let ((report, _), snap) = capture(|| replay_trace_sharded(&trace, &config, &opts));
        assert_eq!(report.slo_checks, 59, "{workers} workers");
        assert_eq!(report.slo_violations, 59, "{workers} workers");
        assert_eq!(report.log.len(), 1148, "{workers} workers");
        assert_eq!(format!("{:016x}", report.log_hash()), "bab8bcd8278c2c79");
        let first = report.log.iter().find(|l| l.contains("slo-violation"));
        assert_eq!(
            first.map(String::as_str),
            Some(
                "2.000000 slo-violation t332 (SLO missed: \
                 achieved 282.86954069298105 < required 1423.2674041841922)"
            ),
            "{workers} workers"
        );
        if workers == 2 {
            assert!(
                snap.counter("pool.steals").unwrap_or(0) > 0,
                "nothing fanned out"
            );
        }
    }
}
