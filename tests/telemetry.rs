//! Integration coverage for `snsp-telemetry` through the facade: the
//! instrumentation must observe without perturbing (stable BENCH
//! artifacts byte-identical with telemetry on or off), and the
//! deterministic metric core must be worker-count-independent, while
//! the sharded serve tier and the parallel pool feed it nonzero
//! steal/prune/admission counts.

use std::sync::{Mutex, MutexGuard};

use snsp::prelude::*;
use snsp::serve::FaultKind;
use snsp::telemetry::{Class, Snapshot};

/// Collection is process-global, so a campaign one test runs outside
/// `capture` records into whatever session another test has open. Every
/// test here holds this lock for its whole body.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Name-keyed counter values.
type CounterCore = Vec<(String, u64)>;
/// Name-keyed histogram summaries: (name, count, min, p50, max).
type HistogramCore = Vec<(String, u64, f64, f64, f64)>;

fn sweep_campaign(workers: usize) -> Campaign {
    let points = vec![
        PointSpec::new("8", ScenarioParams::paper(8, 0.9)),
        PointSpec::new("12", ScenarioParams::paper(12, 1.3)),
    ];
    Campaign::new("telemetry-int", points, 2)
        .with_reference(ReferenceConfig {
            max_ops: 12,
            node_budget: 200_000,
        })
        .with_workers(workers)
}

/// The ci grid's first point, which the exact reference covers, and
/// its het N=100 α=1.5 point, where one of the three seeds starts above
/// the lower bound, so the search runs and its move counters tick.
fn refine_campaign(workers: usize) -> RefineCampaign {
    let mut c = snsp::search::refine_grid("ci", 3).expect("ci grid exists");
    c.points
        .retain(|p| p.label == "hom N=8 α=0.9" || p.label == "het N=100 α=1.5");
    c.refine.max_evals = 300;
    c.with_workers(workers)
}

// Mirrors the `sharded-ci` grid the committed TELEMETRY.json is built
// from, so the counter expectations below transfer to that artifact.
fn serve_campaign(workers: usize) -> ServeCampaign {
    let points = vec![
        ServePoint::new("calm", TraceParams::poisson(0.6, 5.0, 20.0)),
        ServePoint::new(
            "flaky",
            TraceParams::poisson(0.8, 5.0, 20.0).with_failures(0.1),
        ),
    ];
    ServeCampaign::new("telemetry-int", points, 2)
        .with_shards(4, workers)
        .with_workers(workers)
}

/// The deterministic (Det-class) projection of a snapshot: counter
/// values plus full histogram summaries, both name-sorted already.
/// Restricted to touched metrics (value/count > 0) because metric
/// registration outlives `capture()` within one process, so earlier
/// campaigns in the same test binary leave zeroed entries behind.
fn det_core(snap: &Snapshot) -> (CounterCore, HistogramCore) {
    let counters = snap
        .counters
        .iter()
        .filter(|c| c.class == Class::Det && c.value > 0)
        .map(|c| (c.name.to_string(), c.value))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .filter(|h| h.class == Class::Det && h.count > 0)
        .map(|h| (h.name.to_string(), h.count, h.min, h.p50, h.max))
        .collect();
    (counters, histograms)
}

/// Telemetry is pure observation: every stable-form BENCH rendering must
/// be byte-identical whether collection is on or off.
#[test]
fn stable_bench_artifacts_are_unperturbed_by_telemetry() {
    let _serial = serial();
    let sweep_off = run_campaign(&sweep_campaign(2)).render_json(false);
    let (sweep_on, _) = capture(|| run_campaign(&sweep_campaign(2)).render_json(false));
    assert_eq!(sweep_off, sweep_on, "BENCH_sweep.json bytes moved");

    let refine_off = run_refine_campaign(&refine_campaign(2)).render_json(false);
    let (refine_on, _) = capture(|| run_refine_campaign(&refine_campaign(2)).render_json(false));
    assert_eq!(refine_off, refine_on, "BENCH_refine.json bytes moved");

    let serve_off = run_serve_campaign(&serve_campaign(2)).render_json(false);
    let (serve_on, _) = capture(|| run_serve_campaign(&serve_campaign(2)).render_json(false));
    assert_eq!(serve_off, serve_on, "BENCH_serve.json bytes moved");
}

/// The commutativity contract: Det-class counters and histograms agree
/// at 1, 2 and 4 workers for all three campaign kinds (stable BENCH
/// bytes too, with telemetry enabled throughout).
#[test]
fn deterministic_core_is_worker_count_independent() {
    let _serial = serial();
    let (sweep_base, snap1) = capture(|| run_campaign(&sweep_campaign(1)).render_json(false));
    let sweep_det = det_core(&snap1);
    let (refine_base, snap1) =
        capture(|| run_refine_campaign(&refine_campaign(1)).render_json(false));
    let refine_det = det_core(&snap1);
    let (serve_base, snap1) = capture(|| run_serve_campaign(&serve_campaign(1)).render_json(false));
    let serve_det = det_core(&snap1);
    assert!(
        !serve_det.0.is_empty(),
        "serve campaigns must register deterministic counters"
    );
    assert!(
        !refine_det.0.is_empty(),
        "refinement must register deterministic move counters"
    );

    for workers in [2usize, 4] {
        let (body, snap) = capture(|| run_campaign(&sweep_campaign(workers)).render_json(false));
        assert_eq!(
            sweep_base, body,
            "sweep bytes diverged at {workers} workers"
        );
        assert_eq!(
            sweep_det,
            det_core(&snap),
            "sweep det core diverged at {workers} workers"
        );
        let (body, snap) =
            capture(|| run_refine_campaign(&refine_campaign(workers)).render_json(false));
        assert_eq!(
            refine_base, body,
            "refine bytes diverged at {workers} workers"
        );
        assert_eq!(
            refine_det,
            det_core(&snap),
            "refine det core diverged at {workers} workers"
        );
        let (body, snap) =
            capture(|| run_serve_campaign(&serve_campaign(workers)).render_json(false));
        assert_eq!(
            serve_base, body,
            "serve bytes diverged at {workers} workers"
        );
        assert_eq!(
            serve_det,
            det_core(&snap),
            "serve det core diverged at {workers} workers"
        );
    }
}

/// A refine job solves each paper heuristic once: the Subtree-Bottom-Up
/// baseline is one of the portfolio's six starts, not a seventh solve.
#[test]
fn refine_jobs_place_each_heuristic_once() {
    let _serial = serial();
    let mut c = snsp::search::refine_grid("ci", 3).expect("ci grid exists");
    c.points.retain(|p| p.label == "het N=30 α=0.9");
    c.reference = None;
    let (report, snap) = capture(|| run_refine_campaign(&c.with_workers(1)));
    assert_eq!(report.points[0].feasible, 3, "every seed has a baseline");
    for h in all_heuristics() {
        let name = format!("heuristics.place.{}", h.name().to_ascii_lowercase());
        let span = snap.spans.iter().find(|s| s.name == name);
        assert_eq!(span.map(|s| s.count), Some(3), "{name}: one call per job");
    }
}

/// The sharded serve campaign must light up the counters the committed
/// TELEMETRY.json is pinned on: admissions (counted once, when the
/// coordinator folds each event), admission prunes — and the parallel
/// pool must register steals in the overlay.
#[test]
fn sharded_serve_campaign_feeds_the_expected_counters() {
    let _serial = serial();
    let (report, snap) = capture(|| run_serve_campaign(&serve_campaign(4)));
    let admitted: usize = report.points.iter().map(|p| p.admitted).sum();
    let rejected: usize = report.points.iter().map(|p| p.rejected).sum();
    assert_eq!(
        snap.counter("serve.admitted"),
        Some(admitted as u64),
        "admission counter must reconcile with the report"
    );
    assert_eq!(snap.counter("serve.rejected").unwrap_or(0), rejected as u64);
    let pruned = snap.counter("serve.admit.pack_pruned").unwrap_or(0)
        + snap.counter("serve.consolidation.evac_pruned").unwrap_or(0);
    assert!(
        pruned > 0,
        "admission packing or the consolidation sweep must charge prunes"
    );
    assert!(
        snap.counter("pool.steals").unwrap_or(0) > 0,
        "a 4-worker campaign pool must register steals"
    );
    assert!(
        snap.gauge("pool.peak_queue_depth")
            .is_some_and(|depth| depth > 0),
        "every pool run records its queue depth"
    );
    assert!(
        snap.histogram("serve.shard.admitted")
            .is_some_and(|h| h.count > 0),
        "per-shard admission imbalance histogram is recorded"
    );
    // Failure accounting reconciles even when the flaky trace happens
    // to lose nobody (the counter then never registers).
    let failures: usize = report.points.iter().map(|p| p.failures).sum();
    assert_eq!(snap.counter("serve.failures").unwrap_or(0), failures as u64);
}

/// The solver's instrumentation observes without perturbing: the same
/// search, node for node, with telemetry on or off, and its certified
/// bound surfaces through the facade.
#[test]
fn solver_surfaces_bounds_without_telemetry() {
    let _serial = serial();
    let inst = snsp::gen::paper_instance(12, 0.9, 7);
    let config = BranchBoundConfig {
        node_budget: 200_000,
        upper_bound: None,
    };
    let res = solve_exact(&inst, &config);
    assert!(res.nodes > 0);
    if res.optimal && res.mapping.is_some() {
        assert_eq!(res.bound, res.cost, "a proven optimum certifies itself");
    } else {
        assert_eq!(res.bound, lower_bound(&inst).value());
    }
    let (traced, snap) = capture(|| solve_exact(&inst, &config));
    assert_eq!((traced.cost, traced.nodes), (res.cost, res.nodes));
    assert_eq!(snap.counter("bb.nodes"), Some(res.nodes));
}

/// A worker that finds every index claimed returns at once instead of
/// waiting for the last job to finish: a slow first job leaves no pool
/// span behind but the one busy span per job.
#[test]
fn fixed_grid_workers_return_once_the_queue_is_empty() {
    let _serial = serial();
    let (out, snap) = capture(|| {
        snsp::core::pool::run_jobs(8, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i
        })
    });
    assert_eq!(out, (0..8).collect::<Vec<_>>());
    let pool: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name.starts_with("pool."))
        .map(|s| (s.name, s.count))
        .collect();
    assert_eq!(pool, [("pool.worker.busy", 8)], "every job is timed");
}

fn chaos_campaign(workers: usize) -> ServeCampaign {
    let crashy = FaultSpec::seeded(2)
        .with_crashes(0.25)
        .with_msg_faults(0.1, 0.05, 0.05)
        .with_retry(RetryPolicy::standard())
        .with_ticks(2.0);
    let points = vec![
        ServePoint::new("quiet", TraceParams::poisson(0.4, 4.0, 15.0))
            .with_fault(FaultSpec::seeded(1).with_ticks(3.0)),
        ServePoint::new(
            "crashy",
            TraceParams::poisson(0.5, 4.0, 15.0).with_failures(0.05),
        )
        .with_fault(crashy),
    ];
    ServeCampaign::new("telemetry-chaos", points, 2)
        .with_workers(workers)
        .with_shards(2, workers)
}

/// The chaos subcommand's `--telemetry` path: a captured chaos campaign
/// must light up the fault counters, reconcile them with the report, and
/// keep the deterministic core (and stable BENCH_chaos bytes)
/// worker-count-independent.
#[test]
fn chaos_campaign_telemetry_reconciles_and_is_worker_independent() {
    let _serial = serial();
    let (base_body, snap) =
        capture(|| run_serve_campaign(&chaos_campaign(1)).render_chaos_json(false));
    let base_det = det_core(&snap);
    let crashes = snap.counter("fault.crashes").unwrap_or(0);
    assert!(crashes > 0, "the crashy point must inject crashes");
    assert_eq!(
        snap.counter("fault.recoveries"),
        Some(crashes),
        "every crash recovers"
    );
    assert!(
        snap.counter("fault.injected").unwrap_or(0) >= crashes,
        "the umbrella fault counter covers at least the crashes"
    );
    for workers in [2usize, 4] {
        let (body, snap) =
            capture(|| run_serve_campaign(&chaos_campaign(workers)).render_chaos_json(false));
        assert_eq!(base_body, body, "chaos bytes diverged at {workers} workers");
        assert_eq!(
            base_det,
            det_core(&snap),
            "chaos det core diverged at {workers} workers"
        );
    }
}

/// Each non-empty tick of a chaos replay: its trace events and whether a
/// shard crash closed it. A tick closes at every plan event and at every
/// trace processor failure, and holds the arrivals and departures since
/// the previous one.
fn chaos_ticks(trace: &Trace, plan: &FaultPlan) -> Vec<(usize, bool)> {
    let is_fail = |e: &TraceEvent| matches!(e, TraceEvent::ProcessorFail { .. });
    let mut barriers: Vec<(f64, bool)> = plan
        .events
        .iter()
        .map(|f| (f.time, matches!(f.kind, FaultKind::ShardCrash { .. })))
        .collect();
    let fails = trace.events.iter().filter(|e| is_fail(&e.event));
    barriers.extend(fails.map(|e| (e.time, false)));
    barriers.push((f64::INFINITY, false));
    barriers.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut ticks = Vec::new();
    let mut from = f64::NEG_INFINITY;
    for (to, crash) in barriers {
        let held = trace.events.iter().filter(|e| !is_fail(&e.event));
        let events = held.filter(|e| from < e.time && e.time < to).count();
        if events > 0 || crash {
            ticks.push((events, crash));
        }
        from = to;
    }
    ticks
}

/// Most chaos ticks hold a few events and replay on the calling thread,
/// so this replay's ticks fall on both sides of the inline bound (256
/// events), with a crash on a fanned-out tick, message faults, a
/// revocation and retries. Log, chaos stats and fingerprint agree at 1,
/// 2 and 4 workers, and the multi-worker runs really fan out.
#[test]
fn chaos_replay_with_fanned_out_ticks_is_worker_independent() {
    let _serial = serial();
    let params = TraceParams::heavy(150.0, 0.4, 4.0)
        .with_failures(0.5)
        .with_tenant_rho(2.0, 6.0);
    let trace = generate_trace(&params, 4);
    let spec = FaultSpec::seeded(2)
        .with_crashes(0.75)
        .with_msg_faults(0.05, 0.05, 0.05)
        .with_revocation(2.0, 2.4, 0.5)
        .with_retry(RetryPolicy {
            base: 0.05,
            ..RetryPolicy::standard()
        });
    let plan = FaultPlan::instantiate(&spec, params.horizon);
    let ticks = chaos_ticks(&trace, &plan);
    assert!(
        ticks.iter().any(|&(events, _)| events < 256)
            && ticks.iter().any(|&(events, crash)| crash && events >= 256),
        "ticks on both sides of the bound, one crashed: {ticks:?}"
    );
    let replay = |workers| {
        let opts = ShardOptions { shards: 2, workers };
        let config = ServeConfig::default();
        capture(|| replay_trace_chaos(&trace, &config, &opts, &plan))
    };
    let ((base, _), snap) = replay(1);
    let stats = &base.stats;
    assert_eq!(stats.crashes, plan.crash_count());
    assert_eq!(stats.revocations, 1);
    assert!(stats.msgs_dropped + stats.msgs_duplicated + stats.msgs_delayed > 0);
    assert!(
        stats.retry_enqueued > 0 && stats.readmitted > 0,
        "{stats:?}"
    );
    assert_eq!(stats.audit_failures, 0, "{:?}", stats.audit_first);
    assert_eq!(snap.counter("pool.steals").unwrap_or(0), 0, "one worker");
    for workers in [2usize, 4] {
        let ((chaos, _), snap) = replay(workers);
        assert_eq!(chaos.base.log, base.base.log, "{workers} workers");
        assert_eq!(chaos.stats, base.stats, "{workers} workers");
        assert_eq!(chaos.fingerprint, base.fingerprint, "{workers} workers");
        assert!(
            snap.counter("pool.steals").unwrap_or(0) > 0,
            "{workers} workers never fanned a tick out"
        );
    }
}
