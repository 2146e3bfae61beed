//! The three serve workloads.
//!
//! End-to-end pass: the public replay entry points (`run_trace`,
//! `replay_trace_sharded`, `replay_trace_chaos`) with telemetry off,
//! repeated on one generated trace until the run time is spent.
//!
//! Traced pass: a closed-loop driver outside the crate that replays the
//! same trace through `ShardedPlatform::{admit_spec, depart, fail}`,
//! timing every call and splitting each admission into the paper
//! heuristic (`place`, through [`TimedHeuristic`]) and the rest. It must
//! reach the end-to-end replay's final state. The Det counters come from
//! one replay under `snsp_telemetry::capture`.

use std::collections::BTreeMap;
use std::time::Instant;

use snsp::core::heuristics::SubtreeBottomUp;
use snsp::core::multi::{MultiInstance, MultiSolution};
use snsp::engine::meets_slo;
use snsp::gen::{generate_trace, trace_environment, Trace, TraceEvent, TraceParams};
use snsp::serve::{
    audit_platform, replay_trace_chaos, replay_trace_sharded, run_trace, shard_of, ChaosStats,
    FaultPlan, FaultSpec, LivePlatform, RetryPolicy, ServeConfig, ShardOptions, ShardedPlatform,
    TraceReport,
};
use snsp::sweep::PIPELINE_SEED_STRIDE;

use crate::layers::{fast, median, percentile, ratio, secs, TimedHeuristic};
use crate::{Args, Outcome};

/// Slowest calls kept per layer as tail exemplars.
const EXEMPLARS: usize = 10;
/// Every serve workload is sized for at least this many admissions per
/// replay, so at least ten latency samples lie beyond the p99.
const MIN_ADMISSIONS: usize = 1_000;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Dense,
    Wide,
    Chaos,
}

/// One serve workload's configuration, fixed except for the seed.
struct Workload {
    kind: Kind,
    seed: u64,
    params: TraceParams,
    shards: usize,
    workers: usize,
    spot_admissions: usize,
    fault: Option<FaultSpec>,
}

impl Workload {
    fn new(name: &str, seed: u64, workers: usize) -> Self {
        match name {
            "serve-dense" => Workload {
                kind: Kind::Dense,
                seed,
                params: TraceParams::heavy(2000.0, 0.25, 3.0),
                shards: 16,
                workers,
                spot_admissions: 0,
                fault: None,
            },
            "serve-wide" => Workload {
                kind: Kind::Wide,
                seed,
                params: TraceParams::poisson(10.0, 0.02, 240.0).with_tenant_ops(200, 400),
                shards: 1,
                workers: 1,
                spot_admissions: 10,
                fault: None,
            },
            "serve-chaos" => {
                let horizon = 10.0;
                Workload {
                    kind: Kind::Chaos,
                    seed,
                    params: TraceParams::heavy(300.0, 0.4, horizon)
                        .with_failures(2.0)
                        .with_tenant_rho(2.0, 6.0),
                    shards: 4,
                    workers,
                    spot_admissions: 0,
                    fault: Some(
                        FaultSpec::seeded(seed ^ 0x5eed_c4a0_5eed_c4a0)
                            .with_crashes(1.0)
                            .with_racks(0.3, 3)
                            .with_msg_faults(0.05, 0.05, 0.05)
                            .with_revocation(0.45 * horizon, 0.5 * horizon, 0.2)
                            .with_retry(RetryPolicy::standard())
                            .with_degradation(3, 1)
                            .with_ticks(0.1),
                    ),
                }
            }
            _ => unreachable!("dispatched on serve workload names only"),
        }
    }

    fn config(&self) -> ServeConfig {
        ServeConfig {
            spot_admissions: self.spot_admissions,
            ..Default::default()
        }
    }

    fn opts(&self) -> ShardOptions {
        ShardOptions {
            shards: self.shards,
            workers: self.workers,
        }
    }

    fn generate(&self) -> Inputs {
        let trace = generate_trace(&self.params, self.seed);
        let plan = self
            .fault
            .map(|spec| FaultPlan::instantiate(&spec, self.params.horizon));
        Inputs { trace, plan }
    }
}

struct Inputs {
    trace: Trace,
    plan: Option<FaultPlan>,
}

/// One end-to-end replay: its report, the final state where the entry
/// point hands it back, and its wall time.
struct Replay {
    report: TraceReport,
    state: Option<ShardedPlatform>,
    chaos: Option<ChaosStats>,
    wall_s: f64,
}

fn replay(w: &Workload, inputs: &Inputs) -> Replay {
    let config = w.config();
    let opts = w.opts();
    let started = Instant::now();
    let (report, state, chaos) = match w.kind {
        Kind::Dense => {
            let (report, state) = replay_trace_sharded(&inputs.trace, &config, &opts);
            (report, Some(state), None)
        }
        Kind::Wide => (run_trace(&inputs.trace, &config), None, None),
        Kind::Chaos => {
            let plan = inputs.plan.as_ref().expect("chaos has a fault plan");
            let (chaos, state) = replay_trace_chaos(&inputs.trace, &config, &opts, plan);
            (chaos.base, Some(state), Some(chaos.stats))
        }
    };
    let wall_s = secs(started);
    Replay {
        report,
        state,
        chaos,
        wall_s,
    }
}

/// The plain sharded replay at the workload's shard count, handing back
/// its final state (for serve-wide, one shard: the unsharded platform).
/// The outside driver must reach it; so must serve-wide's `run_trace`.
fn reference_replay(w: &Workload, inputs: &Inputs) -> (TraceReport, ShardedPlatform) {
    let opts = ShardOptions {
        shards: w.shards,
        workers: 1,
    };
    replay_trace_sharded(&inputs.trace, &w.config(), &opts)
}

pub fn run(args: &Args, nproc: usize) -> Outcome {
    let w = Workload::new(&args.workload, args.seed, nproc.min(2));
    println!(
        "config shards={} replay_workers={} spot_admissions={} horizon={} lambda={} faults={}",
        w.shards,
        w.workers,
        w.spot_admissions,
        w.params.horizon,
        w.params.lambda,
        w.fault.is_some()
    );
    let started = Instant::now();
    let inputs = w.generate();
    let mut setup = vec![secs(started)];
    println!(
        "inputs events={} arrivals={} fault_events={}",
        inputs.trace.events.len(),
        inputs.trace.arrivals(),
        inputs.plan.as_ref().map_or(0, |p| p.events.len())
    );
    let mut out = Outcome::default();
    if args.trace {
        traced_pass(&w, &inputs, args.seconds, &mut out);
    } else {
        end_to_end_pass(&w, &inputs, args.seconds, &mut setup, &mut out);
        out.set("setup_s", median(&setup));
    }
    out
}

/// The serve correctness gate on one end-to-end replay.
fn gate_replay(w: &Workload, inputs: &Inputs, r: &Replay, out: &mut Outcome) {
    let rep = &r.report;
    out.check(
        rep.admitted + rep.rejected == rep.arrivals && rep.arrivals == inputs.trace.arrivals(),
        format!(
            "admitted + rejected == arrivals ({} + {} == {}, trace {})",
            rep.admitted,
            rep.rejected,
            rep.arrivals,
            inputs.trace.arrivals()
        ),
    );
    // Spot checks flag one tenant in a few percent of serve-wide traces
    // (a known serve-tier defect, e.g. seed 2: t962 achieves 0.86 of a
    // required 1.41). Each violation counts as a failed operation; the
    // gate fails the run once they pass 1 % of the checks.
    out.check(
        rep.slo_violations * 100 <= rep.slo_checks,
        format!(
            "slo_violations <= 1 % of checks ({} over {} checks)",
            rep.slo_violations, rep.slo_checks
        ),
    );
    out.check(
        rep.admitted >= MIN_ADMISSIONS,
        format!(
            "admissions per replay >= {MIN_ADMISSIONS} ({})",
            rep.admitted
        ),
    );
    if let Some(state) = &r.state {
        let audit = audit_platform(state);
        out.check(audit.is_ok(), format!("audit_platform clean: {audit:?}"));
        out.check(
            state.cost() == rep.final_cost,
            format!(
                "final state cost == report ({} == {})",
                state.cost(),
                rep.final_cost
            ),
        );
    }
    if let Some(stats) = &r.chaos {
        out.check(
            stats.audit_failures == 0,
            format!("chaos audit_failures == 0 ({})", stats.audit_failures),
        );
        out.check(
            stats.crashes == stats.recoveries && stats.crashes > 0,
            format!(
                "chaos crashes == recoveries > 0 ({} == {})",
                stats.crashes, stats.recoveries
            ),
        );
        out.check(
            stats.msgs_retransmitted == stats.msgs_dropped
                && stats.dups_discarded == stats.msgs_duplicated,
            format!(
                "chaos retransmitted == dropped ({} == {}), dups discarded == duplicated ({} == {})",
                stats.msgs_retransmitted,
                stats.msgs_dropped,
                stats.dups_discarded,
                stats.msgs_duplicated
            ),
        );
    }
    if w.kind == Kind::Wide {
        // `run_trace` keeps its platform; the one-shard sharded replay
        // is the same platform and hands it back for the audit.
        let (reference, state) = reference_replay(w, inputs);
        let audit = audit_platform(&state);
        out.check(
            audit.is_ok(),
            format!("audit_platform clean on the one-shard twin: {audit:?}"),
        );
        out.check(
            same_outcome(rep, &reference) && state.cost() == rep.final_cost,
            format!(
                "run_trace == one-shard replay (admitted {} == {}, final cost {} == {}, \
                 cost integral {} ~ {})",
                rep.admitted,
                reference.admitted,
                rep.final_cost,
                reference.final_cost,
                rep.cost_time_integral,
                reference.cost_time_integral
            ),
        );
    }
}

/// Whether two replays of one trace agree on every Det outcome. The
/// cost integrals may differ in the last bits: the sharded coordinator
/// integrates per message, the unsharded loop per event.
fn same_outcome(a: &TraceReport, b: &TraceReport) -> bool {
    a.arrivals == b.arrivals
        && a.admitted == b.admitted
        && a.rejected == b.rejected
        && a.departed == b.departed
        && a.evicted == b.evicted
        && a.failures == b.failures
        && a.slo_checks == b.slo_checks
        && a.final_cost == b.final_cost
        && a.peak_cost == b.peak_cost
        && close(a.cost_time_integral, b.cost_time_integral)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Repeats the end-to-end replay until `seconds` have passed. Before each
/// repetition it times one more input generation into `setup`, so the
/// set-up samples spread over the whole run like the replays.
fn end_to_end_pass(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    setup: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let started = Instant::now();
    let first = replay(w, inputs);
    // VmHWM after one replay: the workload's peak, before the benchmark's
    // own per-repetition bookkeeping grows.
    let peak_rss_mb = snsp::telemetry::peak_rss_kb() as f64 / 1024.0;
    let first_hash = first.report.log_hash();
    let mut deterministic = true;
    // Admission latencies come back in a fixed order (trace order per
    // shard), so entry i is the same admission in every repetition.
    let (mut walls, mut latencies) = (Vec::new(), Vec::new());
    let mut record = |r: &Replay| {
        walls.push(r.wall_s);
        latencies.push(r.report.admit_latencies_us.clone());
    };
    record(&first);
    while secs(started) < seconds {
        let t0 = Instant::now();
        std::hint::black_box(w.generate());
        setup.push(secs(t0));
        let r = replay(w, inputs);
        deterministic &= r.report.log_hash() == first_hash
            && r.report.final_cost == first.report.final_cost
            && r.state.as_ref().map(ShardedPlatform::fingerprint)
                == first.state.as_ref().map(ShardedPlatform::fingerprint);
        record(&r);
    }
    gate_replay(w, inputs, &first, out);
    out.check(
        deterministic,
        format!(
            "{} replays agree on log hash, final cost and fingerprint",
            walls.len()
        ),
    );

    let rep = &first.report;
    println!(
        "replays={} wall_s.fast={:.4} wall_s.median={:.4} admit_latency.samples_per_replay={} \
         admitted={} rejected={} evicted={} departed={} failures={} slo_violations={} \
         final_cost={} peak_cost={}",
        walls.len(),
        fast(&walls),
        median(&walls),
        rep.admit_latencies_us.len(),
        rep.admitted,
        rep.rejected,
        rep.evicted,
        rep.departed,
        rep.failures,
        rep.slo_violations,
        rep.final_cost,
        rep.peak_cost
    );
    out.attempted = rep.arrivals as u64;
    out.failed = (rep.rejected + rep.evicted + rep.slo_violations) as u64;
    out.set(
        "replay_events_per_s",
        inputs.trace.events.len() as f64 / fast(&walls),
    );
    // Each admission's latency is the fast end of its repetitions; the
    // percentiles are taken over those per-admission values.
    let per_admission: Vec<f64> = (0..rep.admit_latencies_us.len())
        .map(|i| {
            fast(
                &latencies
                    .iter()
                    .filter_map(|l| l.get(i).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    out.set("admit_p50_us", percentile(&per_admission, 50.0));
    out.set("admit_p99_us", percentile(&per_admission, 99.0));
    out.set(
        "admission_rate",
        ratio(rep.admitted as f64, rep.arrivals as f64),
    );
    out.set("cost_integral", rep.cost_time_integral);
    out.set("solve_s", fast(&walls));
    out.set(
        "refined_cost",
        rep.cost_time_integral / inputs.trace.params.horizon,
    );
    out.set("peak_rss_mb", peak_rss_mb);
}

/// One timed call of the outside driver.
struct Call {
    us: f64,
    place_us: f64,
    shard: usize,
    tenant: u32,
    time: f64,
}

/// What one outside-driver replay measured and where it ended.
#[derive(Default)]
struct Driven {
    state: Option<ShardedPlatform>,
    admitted: usize,
    rejected: usize,
    departed: usize,
    evicted: usize,
    slo_checks: usize,
    slo_violations: usize,
    cost_integral: f64,
    admits: Vec<Call>,
    departs: Vec<Call>,
    fails_us: Vec<f64>,
    remapped: usize,
    place_us: Vec<f64>,
    reused: usize,
    bought: usize,
    resident_ops_max: usize,
    shard_admitted: Vec<usize>,
    slo_us: f64,
    wall_s: f64,
}

/// Engine-validates every resident of one shard, timing each
/// `meets_slo` call on the snapshot projections.
fn validate(live: &LivePlatform, config: &ServeConfig, d: &mut Driven) {
    let Some((multi, sol)): Option<(MultiInstance, MultiSolution)> = live.snapshot() else {
        return;
    };
    for k in 0..multi.apps.len() {
        let mapping = sol.mapping_for(&multi, k);
        let started = Instant::now();
        let verdict = meets_slo(&multi.apps[k], &mapping, config.slo_frac, &config.sim);
        d.slo_us += secs(started) * 1e6;
        d.slo_checks += 1;
        if verdict.is_err() {
            d.slo_violations += 1;
        }
    }
}

/// Replays `trace` one event after the other over a [`ShardedPlatform`]
/// — the closed loop of the sharded tier, serialized — timing each call
/// into the platform layer.
fn drive(trace: &Trace, shards: usize, spot_admissions: usize) -> Driven {
    let config = ServeConfig {
        spot_admissions,
        ..Default::default()
    };
    let timed = TimedHeuristic::new(Box::new(SubtreeBottomUp));
    let ops_of: BTreeMap<u32, usize> = trace
        .events
        .iter()
        .filter_map(|ev| match ev.event {
            TraceEvent::Arrive { tenant, spec, .. } => Some((tenant.0, spec.n_ops)),
            _ => None,
        })
        .collect();
    let started = Instant::now();
    let (objects, platform) = trace_environment(&trace.params, trace.seed);
    let mut sp = ShardedPlatform::new(objects, platform, shards);
    let mut d = Driven {
        shard_admitted: vec![0; shards],
        ..Default::default()
    };
    let mut resident_ops = vec![0usize; shards];
    let mut last_t = 0.0f64;
    for ev in &trace.events {
        d.cost_integral += sp.cost() as f64 * (ev.time - last_t);
        last_t = ev.time;
        match ev.event {
            TraceEvent::Arrive { tenant, spec, .. } => {
                let s = sp.route(tenant);
                let seed = trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                let t0 = Instant::now();
                let outcome = sp.admit_spec(tenant, &spec, &timed, seed, &config.opts);
                let us = secs(t0) * 1e6;
                d.admits.push(Call {
                    us,
                    place_us: timed.last(),
                    shard: s,
                    tenant: tenant.0,
                    time: ev.time,
                });
                match outcome {
                    Ok(o) => {
                        d.admitted += 1;
                        d.reused += o.reused_procs;
                        d.bought += o.new_procs;
                        d.shard_admitted[s] += 1;
                        resident_ops[s] += spec.n_ops;
                        d.resident_ops_max = d.resident_ops_max.max(resident_ops[s]);
                        if spot_admissions > 0
                            && d.shard_admitted[s].is_multiple_of(spot_admissions)
                        {
                            validate(sp.shard(s), &config, &mut d);
                        }
                    }
                    Err(_) => d.rejected += 1,
                }
            }
            TraceEvent::Depart { tenant } => {
                let s = sp.route(tenant);
                let t0 = Instant::now();
                let was_resident = sp.depart(tenant);
                let us = secs(t0) * 1e6;
                d.departs.push(Call {
                    us,
                    place_us: 0.0,
                    shard: s,
                    tenant: tenant.0,
                    time: ev.time,
                });
                if was_resident {
                    d.departed += 1;
                    resident_ops[s] -= ops_of[&tenant.0];
                }
            }
            TraceEvent::ProcessorFail { lottery } => {
                let t0 = Instant::now();
                let failed = sp.fail(lottery);
                d.fails_us.push(secs(t0) * 1e6);
                if let Some((s, o)) = failed {
                    d.remapped += o.remapped.len();
                    d.evicted += o.evicted.len();
                    for id in &o.evicted {
                        resident_ops[s] -= ops_of[&id.0];
                    }
                }
            }
        }
    }
    let horizon = trace.params.horizon;
    d.cost_integral += sp.cost() as f64 * (horizon - last_t);
    if config.final_validation {
        for s in 0..shards {
            validate(sp.shard(s), &config, &mut d);
        }
    }
    d.wall_s = secs(started);
    d.place_us = timed.samples();
    d.state = Some(sp);
    d
}

/// Non-empty per-shard tick batches of the sharded replay and the events
/// they carry, derived from the routing function alone: a tick ends at
/// every processor failure and at every `barriers` time.
fn tick_batches(trace: &Trace, shards: usize, barriers: &[f64]) -> (usize, usize) {
    let mut pending = vec![0usize; shards];
    let (mut events, mut batches) = (0usize, 0usize);
    let mut flush = |pending: &mut Vec<usize>| {
        for p in pending.iter_mut().filter(|p| **p > 0) {
            events += *p;
            batches += 1;
            *p = 0;
        }
    };
    let mut b = 0;
    for ev in &trace.events {
        while b < barriers.len() && barriers[b] <= ev.time {
            flush(&mut pending);
            b += 1;
        }
        match ev.event {
            TraceEvent::Arrive { tenant, .. } | TraceEvent::Depart { tenant } => {
                pending[shard_of(tenant, shards)] += 1
            }
            TraceEvent::ProcessorFail { .. } => flush(&mut pending),
        }
    }
    flush(&mut pending);
    (events, batches)
}

/// Median wall time (µs) of `f` over `reps` calls.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            secs(started) * 1e6
        })
        .collect();
    median(&samples)
}

/// Prints the slowest calls, one line each, keeping only the slowest
/// replay of each (tenant, time) so repeated replays do not crowd out
/// other calls.
fn print_exemplars<'a>(layer: &str, calls: impl Iterator<Item = &'a Call>) {
    let mut slowest: Vec<&Call> = calls.collect();
    slowest.sort_by(|a, b| b.us.total_cmp(&a.us));
    let mut seen = std::collections::BTreeSet::new();
    slowest.retain(|c| seen.insert((c.tenant, c.time.to_bits())));
    for (rank, c) in slowest.iter().take(EXEMPLARS).enumerate() {
        println!(
            "exemplar {layer} #{} us={:.1} place_us={:.1} self_us={:.1} shard={} tenant=t{} \
             time={:.6}",
            rank + 1,
            c.us,
            c.place_us,
            c.us - c.place_us,
            c.shard,
            c.tenant,
            c.time
        );
    }
}

fn traced_pass(w: &Workload, inputs: &Inputs, seconds: f64, out: &mut Outcome) {
    // The end-to-end replay this pass is checked against, untraced.
    let e2e = replay(w, inputs);
    gate_replay(w, inputs, &e2e, out);

    // Det counters: the entry point itself, under telemetry capture. For
    // serve-chaos that is the chaos replay; the capture must not move
    // its final state.
    let (captured, snap) = snsp::telemetry::capture(|| match w.kind {
        Kind::Chaos => {
            let plan = inputs.plan.as_ref().expect("chaos has a fault plan");
            let (chaos, state) = replay_trace_chaos(&inputs.trace, &w.config(), &w.opts(), plan);
            (chaos.base, state)
        }
        _ => replay_trace_sharded(&inputs.trace, &w.config(), &w.opts()),
    });
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let evac_pruned = counter("serve.consolidation.evac_pruned");
    out.set(
        "platform.admit.pack_pruned",
        counter("serve.admit.pack_pruned"),
    );
    out.set("platform.consolidate.evac_pruned", evac_pruned);
    out.set(
        "platform.consolidate.pruned_per_depart",
        ratio(evac_pruned, captured.0.departed as f64),
    );
    out.set("pool.steals", counter("pool.steals"));
    if w.kind == Kind::Chaos {
        let e2e_state = e2e.state.as_ref().expect("chaos hands back its state");
        out.check(
            captured.1.fingerprint() == e2e_state.fingerprint()
                && captured.0.admitted == e2e.report.admitted,
            "captured chaos replay reaches the end-to-end fingerprint",
        );
    }

    // The outside driver follows the plain sharded semantics; serve-chaos
    // drives its trace without the fault plan and is checked against the
    // plain sharded replay of that trace.
    let (reference, reference_state) = match w.kind {
        Kind::Chaos => reference_replay(w, inputs),
        _ => captured,
    };
    // Traced and untraced replays alternate, so both see the same load
    // from the rest of the machine.
    let started = Instant::now();
    let mut runs: Vec<Driven> = Vec::new();
    let mut e2e_walls = vec![e2e.wall_s];
    while runs.is_empty() || secs(started) < seconds {
        if !runs.is_empty() {
            e2e_walls.push(replay(w, inputs).wall_s);
        }
        let d = drive(&inputs.trace, w.shards, w.spot_admissions);
        let state = d.state.as_ref().expect("driver hands back its state");
        let agrees = d.admitted == reference.admitted
            && d.rejected == reference.rejected
            && d.departed == reference.departed
            && d.evicted == reference.evicted
            && d.slo_checks == reference.slo_checks
            && d.slo_violations == reference.slo_violations
            && state.cost() == reference.final_cost
            && state.fingerprint() == reference_state.fingerprint()
            && close(d.cost_integral, reference.cost_time_integral);
        out.check(
            agrees,
            format!(
                "traced replay {} reaches the replay's final state (admitted {} == {}, \
                 final cost {} == {}, fingerprint {:x} == {:x})",
                runs.len() + 1,
                d.admitted,
                reference.admitted,
                state.cost(),
                reference.final_cost,
                state.fingerprint(),
                reference_state.fingerprint()
            ),
        );
        out.check(
            d.place_us.len() == d.admits.len(),
            format!(
                "one place call per admission ({} == {})",
                d.place_us.len(),
                d.admits.len()
            ),
        );
        runs.push(d);
        if !out.broken.is_empty() {
            break;
        }
    }
    let per_run = |f: &dyn Fn(&Driven) -> f64| fast(&runs.iter().map(f).collect::<Vec<_>>());
    let all = |f: &dyn Fn(&Driven) -> Vec<f64>| runs.iter().flat_map(f).collect::<Vec<f64>>();
    let d0 = &runs[0];
    let driver_wall = fast(&runs.iter().map(|d| d.wall_s).collect::<Vec<_>>());
    println!(
        "traced replays={} driver_wall_s.fast={driver_wall:.4} e2e_wall_s.fast={:.4}",
        runs.len(),
        fast(&e2e_walls)
    );

    let place_ms = |d: &Driven| d.place_us.iter().sum::<f64>() / 1e3;
    let admit_ms = |d: &Driven| d.admits.iter().map(|c| c.us).sum::<f64>() / 1e3;
    out.set("heuristics.place.calls", d0.place_us.len() as f64);
    out.set("heuristics.place.ms", per_run(&place_ms));
    out.set(
        "heuristics.place.p99_us",
        percentile(&all(&|d| d.place_us.clone()), 99.0),
    );
    out.set("platform.admit.calls", d0.admits.len() as f64);
    out.set(
        "platform.admit.self_ms",
        per_run(&|d| admit_ms(d) - place_ms(d)),
    );
    out.set(
        "platform.admit.p99_us",
        percentile(&all(&|d| d.admits.iter().map(|c| c.us).collect()), 99.0),
    );
    out.set(
        "platform.admit.reuse_ratio",
        ratio(d0.reused as f64, (d0.reused + d0.bought) as f64),
    );
    out.set("platform.depart.calls", d0.departs.len() as f64);
    out.set(
        "platform.depart.ms",
        per_run(&|d| d.departs.iter().map(|c| c.us).sum::<f64>() / 1e3),
    );
    out.set(
        "platform.depart.p99_us",
        percentile(&all(&|d| d.departs.iter().map(|c| c.us).collect()), 99.0),
    );
    out.set("platform.resident_ops.max", d0.resident_ops_max as f64);
    out.set("platform.fail.calls", d0.fails_us.len() as f64);
    out.set(
        "platform.fail.ms",
        per_run(&|d| d.fails_us.iter().sum::<f64>() / 1e3),
    );
    out.set("platform.fail.remapped", d0.remapped as f64);
    out.set("platform.fail.evicted", d0.evicted as f64);
    out.set("engine.meets_slo.calls", d0.slo_checks as f64);
    out.set("engine.meets_slo.ms", per_run(&|d| d.slo_us / 1e3));

    let mean_admitted = d0.admitted as f64 / w.shards as f64;
    let max_admitted = d0.shard_admitted.iter().copied().max().unwrap_or(0) as f64;
    out.set("shard.imbalance", ratio(max_admitted, mean_admitted));
    if w.kind != Kind::Wide {
        let barriers: Vec<f64> = inputs
            .plan
            .as_ref()
            .map_or(Vec::new(), |p| p.events.iter().map(|e| e.time).collect());
        let (events, batches) = tick_batches(&inputs.trace, w.shards, &barriers);
        out.set(
            "shard.tick_batch_events.mean",
            ratio(events as f64, batches as f64),
        );
    }
    out.set("shard.log_lines", e2e.report.log.len() as f64);
    out.set(
        "shard.log_bytes",
        e2e.report.log.iter().map(|l| l.len() + 1).sum::<usize>() as f64,
    );

    // Per-call costs of the fault tier's two per-barrier operations,
    // measured on the final state: a shard checkpoint (clone) and the
    // whole-tier audit.
    let final_state = e2e.state.as_ref().unwrap_or(&reference_state);
    let clone_us = median(
        &(0..final_state.shard_count())
            .map(|s| {
                time_us(5, || {
                    std::hint::black_box(final_state.shard(s).clone());
                })
            })
            .collect::<Vec<_>>(),
    );
    out.set("fault.checkpoint_clone_us", clone_us);
    out.set(
        "fault.audit_us",
        time_us(5, || {
            std::hint::black_box(audit_platform(final_state)).ok();
        }),
    );
    if let Some(stats) = &e2e.chaos {
        out.set("fault.recovery_replayed", stats.recovery_replayed as f64);
        out.set("fault.msg.retransmitted", stats.msgs_retransmitted as f64);
        out.set(
            "fault.retry.readmit_ratio",
            ratio(stats.readmitted as f64, stats.retry_enqueued as f64),
        );
        out.set("fault.degrade.shed", stats.shed as f64);
    }
    out.set("trace.overhead_ms", (driver_wall - fast(&e2e_walls)) * 1e3);

    print_exemplars("admit", runs.iter().flat_map(|d| &d.admits));
    print_exemplars("depart", runs.iter().flat_map(|d| &d.departs));
    let rep = &e2e.report;
    out.attempted = rep.arrivals as u64;
    out.failed = (rep.rejected + rep.evicted + rep.slo_violations) as u64;
}
