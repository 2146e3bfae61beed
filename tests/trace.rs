//! Integration tests for the causal trace layer: the Det-class event
//! stream — and the `TRACE.json` (schema v7) rendered from it — must be
//! byte-identical at every worker count on **both** pool axes (the
//! campaign pool and the per-replay tick-batch pool), crash re-replay
//! under chaos must collapse to the same stream, and the Chrome
//! `trace_event` timeline must nest every Det instant inside exactly one
//! tick span of its run.

use std::collections::BTreeMap;
use std::sync::Mutex;

use snsp::prelude::*;
use snsp::sweep::{chrome_trace_json, trace_json, ArtifactKind, Json};
use snsp::telemetry::trace::{self, TraceSnapshot};

/// The trace layer is process-global state; captures must not overlap
/// across this binary's test threads.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn capture_trace<R>(f: impl FnOnce() -> R) -> (R, TraceSnapshot) {
    let _guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    trace::start(trace::DEFAULT_CAPACITY, false);
    let out = f();
    (out, trace::stop())
}

/// Mirrors the `sharded-ci` grid, with both pool axes independently
/// tunable: `workers` drives the campaign pool, `replay_workers` the
/// per-tick shard batches inside each replay.
fn serve_campaign(workers: usize, replay_workers: usize) -> ServeCampaign {
    let points = vec![
        ServePoint::new("calm", TraceParams::poisson(0.6, 5.0, 20.0)),
        ServePoint::new(
            "flaky",
            TraceParams::poisson(0.8, 5.0, 20.0).with_failures(0.1),
        ),
    ];
    ServeCampaign::new("trace-int", points, 2)
        .with_shards(4, replay_workers)
        .with_workers(workers)
}

/// The headline contract: the Det event stream and its schema-v7
/// rendering never move when either pool is resized.
#[test]
fn det_stream_and_trace_json_are_identical_at_every_worker_count() {
    let (_, base) = capture_trace(|| run_serve_campaign(&serve_campaign(1, 1)));
    assert_eq!(base.dropped, 0, "ring must not overflow in CI-sized runs");
    let base_lines = base.det_lines();
    assert!(
        base_lines.iter().any(|l| l.contains("admit")),
        "admissions must reach the trace"
    );
    assert!(
        base_lines.iter().any(|l| l.contains("msg_fold")),
        "barrier folds must reach the trace"
    );
    let base_json = trace_json(&base, "trace-int").render();
    ArtifactKind::Trace
        .validate(&base_json)
        .expect("rendered TRACE.json validates as schema v7");

    for (workers, replay_workers) in [(2, 1), (4, 1), (1, 2), (1, 4), (4, 4)] {
        let (_, snap) =
            capture_trace(|| run_serve_campaign(&serve_campaign(workers, replay_workers)));
        let at = format!("{workers} campaign workers, {replay_workers} replay workers");
        assert_eq!(snap.dropped, 0, "{at}");
        assert_eq!(base_lines, snap.det_lines(), "{at}: det stream diverged");
        assert_eq!(
            base_json,
            trace_json(&snap, "trace-int").render(),
            "{at}: TRACE.json bytes diverged"
        );
    }
}

/// Chaos replay records crash/restore markers once, collapses the
/// re-replayed duplicates, and stays worker-count-independent.
#[test]
fn chaos_det_stream_survives_crash_recovery_at_every_worker_count() {
    let trace_in = generate_trace(&TraceParams::poisson(0.7, 5.0, 25.0).with_failures(0.1), 29);
    let spec = FaultSpec::seeded(43)
        .with_crashes(0.3)
        .with_msg_faults(0.1, 0.05, 0.05)
        .with_retry(RetryPolicy::standard())
        .with_ticks(2.0);
    let plan = FaultPlan::instantiate(&spec, trace_in.params.horizon);
    assert!(plan.crash_count() > 0, "the plan must inject crashes");
    let run = |workers: usize| {
        let opts = ShardOptions { shards: 4, workers };
        capture_trace(|| replay_trace_chaos(&trace_in, &ServeConfig::default(), &opts, &plan)).1
    };
    let base = run(1);
    let lines = base.det_lines();
    assert!(
        lines.iter().any(|l| l.contains("crash")),
        "crash markers recorded"
    );
    assert!(
        lines.iter().any(|l| l.contains("restore")),
        "restore markers recorded"
    );
    // Re-replay after a crash re-records the recovered batch; the Det
    // stream must carry each event once.
    let det = base.det_events();
    assert!(
        det.windows(2)
            .all(|w| !(w[0].run == w[1].run && w[0].time == w[1].time && w[0].kind == w[1].kind)),
        "adjacent duplicates must be collapsed"
    );
    for workers in [2usize, 4] {
        assert_eq!(
            lines,
            run(workers).det_lines(),
            "{workers} replay workers diverged"
        );
    }
}

/// Structural check on the Chrome export: every event carries the
/// required `trace_event` keys, tick spans per run never overlap, and
/// every Det instant falls inside exactly one tick span of its run.
#[test]
fn chrome_timeline_nests_det_instants_inside_tick_spans() {
    let (_, snap) = capture_trace(|| run_serve_campaign(&serve_campaign(2, 2)));
    let doc = chrome_trace_json(&snap);
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Shard lanes sit far below the coordinator/overlay lanes.
    const COORDINATOR_TID: i64 = 1_000_000;
    let mut spans: BTreeMap<i64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut det_instants: Vec<(i64, f64)> = Vec::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        let ts = e.get("ts").and_then(Json::as_num).expect("ts");
        let pid = e.get("pid").and_then(Json::as_int).expect("pid");
        let tid = e.get("tid").and_then(Json::as_int).expect("tid");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "name");
        match ph {
            "X" => {
                let dur = e.get("dur").and_then(Json::as_num).expect("span dur");
                assert!(dur > 0.0, "spans must have positive duration");
                assert_eq!(tid, COORDINATOR_TID, "tick spans live on the coordinator");
                spans.entry(pid).or_default().push((ts, ts + dur));
            }
            "i" => {
                assert_eq!(e.get("s").and_then(Json::as_str), Some("t"));
                if tid < COORDINATOR_TID {
                    det_instants.push((pid, ts));
                }
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(!spans.is_empty(), "tick spans present");
    assert!(!det_instants.is_empty(), "det instants present");
    for intervals in spans.values_mut() {
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            intervals.windows(2).all(|w| w[0].1 <= w[1].0),
            "tick spans of one run must not overlap"
        );
    }
    for &(pid, ts) in &det_instants {
        let covering = spans.get(&pid).map_or(0, |iv| {
            iv.iter().filter(|(s, e)| *s <= ts && ts <= *e).count()
        });
        assert_eq!(
            covering, 1,
            "a det instant at pid={pid} ts={ts} must sit inside exactly one tick span"
        );
    }
}
