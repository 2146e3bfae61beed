//! The replay engine: the one serving loop behind every trace replay.
//!
//! [`replay_trace_chaos`] walks a [`Trace`] over a [`ShardedPlatform`]
//! under a [`FaultPlan`]. [`replay_trace_sharded`] is the same engine
//! under [`FaultPlan::none`], and [`run_trace`] is that at one shard.
//!
//! * Each arrival and departure joins its home shard's pending batch.
//! * At a **tick barrier** — a trace processor failure, a fault-plan
//!   event, or the end of the trace — every shard replays its batch and
//!   reports what it committed as [`ShardMsg`]s. A tick of at least
//!   `INLINE_TICK_EVENTS` (256) events fans its batches out in parallel
//!   on the sweep pool; a smaller one replays them in shard order on the
//!   calling thread, since moving a few events per shard to fresh
//!   threads costs more than replaying them. Fault plans put a barrier
//!   every few dozen events, so their ticks run inline; long
//!   barrier-free stretches fan out.
//! * The coordinator folds the tick's messages in `(time, shard, seq)`
//!   order: `∫ cost dt`, time-weighted utilization, peaks, the event log
//!   and the `serve.*` counters all derive from each message's typed
//!   [`ServeEvent`].
//! * Then it resolves the barrier's global event: a failure lottery drawn
//!   over every shard's live slots, a rack burst, a revocation, or a
//!   shard crash (checkpoint restore and batch re-replay), followed by
//!   the due retries and the shed policy.
//!
//! Folding is a pure function of the trace and the plan — never of thread
//! interleaving — so logs, metrics and final states are byte-identical at
//! any worker count. Under an empty plan no fault mechanism runs: no
//! retry index, no audits, no message faults.
//!
//! Overlay spans time the layers without nesting: `serve.tick.replay`
//! (the batches, inline or fanned out), `serve.tick.fold` (merge, sort,
//! message recovery and fold), `serve.fail` (global failure lotteries),
//! `fault.checkpoint` and `fault.restore` (a crash's clone, and its
//! restore and re-replay), `fault.audit` and `serve.validate` (final
//! engine validation), all inside `serve.replay`, the whole replay.
//!
//! SLO enforcement is analytic at admission time (joint constraints hold
//! by construction) and *validated* by spot-running the `snsp-engine`
//! fluid simulator on each tenant's projection of its shard
//! ([`LivePlatform::projections`], built from the live state without
//! cloning an instance): every `spot_admissions`-th admission on a
//! shard, and over all residents at the end of the trace. The final
//! validation runs one pool job per shard and notes the verdicts in
//! shard order, so its log lines never depend on the worker count. It
//! fans out only in a replay where some tick already did, and otherwise
//! stays on the calling thread (see `INLINE_TICK_EVENTS`).

use std::collections::BTreeMap;
use std::sync::Mutex;

use snsp_core::heuristics::{PipelineOptions, SubtreeBottomUp};
use snsp_core::ids::TenantId;
use snsp_core::pool::{run_jobs_checked, PoolStats};
use snsp_engine::{meets_slo, SimConfig};
use snsp_gen::{trace_environment, TenantSpec, TimedEvent, Trace, TraceEvent};
use snsp_sweep::PIPELINE_SEED_STRIDE;
use snsp_telemetry::trace::{LogicalTime, TraceEventKind};
use snsp_telemetry::{Class, Counter, Gauge, Histogram, Span};

#[cfg(doc)]
use crate::fault::FLIGHT_WINDOW_TICKS;
use crate::fault::{
    audit_platform_located, flight_dump_json, inject_and_recover_msgs, ChaosReport, ChaosStats,
    FaultEvent, FaultKind, FaultPlan,
};
use crate::platform::LivePlatform;
use crate::report::TraceReport;
use crate::shard::{
    replay_batch, trace_det, FailCause, ServeEvent, ShardLoad, ShardMsg, ShardOptions,
    ShardedPlatform,
};

// Det-class replay counters, bumped when the coordinator folds each
// event: every count is a pure function of (trace, plan, config), and
// campaign totals are commutative sums over jobs.
static SERVE_ADMITTED: Counter = Counter::new("serve.admitted", Class::Det);
static SERVE_REJECTED: Counter = Counter::new("serve.rejected", Class::Det);
static SERVE_DEPARTED: Counter = Counter::new("serve.departed", Class::Det);
static SERVE_EVICTED: Counter = Counter::new("serve.evicted", Class::Det);
static SERVE_FAILURES: Counter = Counter::new("serve.failures", Class::Det);
/// Per-shard admissions over one replay — the shard-imbalance
/// distribution (routing is pure, so the samples are Det).
static SHARD_ADMITTED: Histogram = Histogram::new("serve.shard.admitted", Class::Det);
/// Events replayed per non-empty shard batch at each tick barrier.
static TICK_BATCH_EVENTS: Histogram = Histogram::new("serve.tick.batch_events", Class::Det);
/// Wall-clock admission latency — Overlay by nature.
static SERVE_ADMIT_LATENCY: Histogram = Histogram::new("serve.admit.latency_us", Class::Overlay);
/// Peak resident-set size sampled after each replay (`/proc/self/status`
/// VmHWM) — a process-level, scheduling-dependent gauge.
static SERVE_PEAK_RSS: Gauge = Gauge::new("serve.peak_rss_kb", Class::Overlay);
// Det-class fault/recovery/retry counters, pure functions of (trace,
// plan, config) like the replay counters.
static FAULT_INJECTED: Counter = Counter::new("fault.injected", Class::Det);
static FAULT_CRASHES: Counter = Counter::new("fault.crashes", Class::Det);
static FAULT_RECOVERIES: Counter = Counter::new("fault.recoveries", Class::Det);
static FAULT_RACKS: Counter = Counter::new("fault.rack_failures", Class::Det);
static FAULT_REVOCATIONS: Counter = Counter::new("fault.revocations", Class::Det);
static RETRY_ENQUEUED: Counter = Counter::new("fault.retry.enqueued", Class::Det);
static RETRY_READMITTED: Counter = Counter::new("fault.retry.readmitted", Class::Det);
static RETRY_DROPPED: Counter = Counter::new("fault.retry.dropped", Class::Det);
static DEGRADE_SHED: Counter = Counter::new("fault.degrade.shed", Class::Det);
static AUDIT_FAILURES: Counter = Counter::new("fault.audit.failures", Class::Det);
/// Events re-replayed from checkpoint per crash recovery.
static RECOVERY_REPLAYED: Histogram = Histogram::new("fault.recovery.replayed_events", Class::Det);
// Wall-clock spans over the replay's layers (Overlay, like every span).
// They never nest in one another, so their totals add up to the share
// of `serve.replay` they explain.
static SPAN_REPLAY: Span = Span::new("serve.replay");
static SPAN_TICK_REPLAY: Span = Span::new("serve.tick.replay");
static SPAN_TICK_FOLD: Span = Span::new("serve.tick.fold");
static SPAN_FAIL: Span = Span::new("serve.fail");
static SPAN_VALIDATE: Span = Span::new("serve.validate");
static SPAN_CHECKPOINT: Span = Span::new("fault.checkpoint");
static SPAN_RESTORE: Span = Span::new("fault.restore");
static SPAN_AUDIT: Span = Span::new("fault.audit");

/// A tick with fewer events than this replays its shard batches on the
/// calling thread. Such a tick's shards hold a few events each, and
/// handing them to fresh pool threads costs more than replaying them:
/// on a 16-shard trace at 2 workers, fanning out ticks of 37 and 110
/// events lost to one thread, the two were about even at 370 events,
/// and the fan-out won from about 1,000. Results never depend on the
/// worker count, so this moves nothing but the wall time.
///
/// The final validation follows the ticks: it fans out only in a replay
/// where some tick reached this size on more than one worker. Once a
/// process has spawned a thread, glibc malloc leaves its single-thread
/// fast path for good, so a replay whose ticks all ran inline should
/// not spawn one at its end: on the serve-chaos workload (2 vCPUs), a
/// variant that always fanned the validation out replayed 6 % fewer
/// events per second, and one thread spawned and joined at program
/// start slowed the replay by 4.8 %.
const INLINE_TICK_EVENTS: u64 = 256;

/// Serving-loop policy knobs. Arriving tenants are placed by
/// Subtree-Bottom-Up, the paper's overall winner, and every departure
/// runs the consolidation refinement with [`DEFAULT_DEPART_EVALS`]
/// evacuation attempts (see `LivePlatform::depart`).
///
/// [`DEFAULT_DEPART_EVALS`]: crate::DEFAULT_DEPART_EVALS
pub struct ServeConfig {
    /// Pipeline options handed to the heuristic.
    pub opts: PipelineOptions,
    /// SLO bar as a fraction of each tenant's ρ (engine-validated).
    pub slo_frac: f64,
    /// Spot-run the engine on every n-th admission (0 disables).
    pub spot_admissions: usize,
    /// Engine-validate every resident tenant at the end of the trace.
    pub final_validation: bool,
    /// Engine configuration for the spot runs.
    pub sim: SimConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            opts: PipelineOptions::default(),
            slo_frac: 0.95,
            spot_admissions: 0,
            final_validation: true,
            sim: SimConfig::default(),
        }
    }
}

/// Engine-validates every resident tenant of `live` on its projection
/// ([`LivePlatform::projections`]), in ascending tenant id.
pub(crate) fn validate_residents(live: &LivePlatform, config: &ServeConfig) -> ServeEvent {
    let violations = live
        .projections()
        .filter_map(|(t, mapping)| {
            let verdict = meets_slo(&t.inst, &mapping, config.slo_frac, &config.sim);
            verdict.err().map(|e| (t.id, e.to_string()))
        })
        .collect();
    ServeEvent::SloChecked {
        checks: live.tenant_count(),
        violations,
    }
}

/// Replays one trace on one shard — the unsharded platform — and
/// reports the service metrics.
pub fn run_trace(trace: &Trace, config: &ServeConfig) -> TraceReport {
    replay_trace_sharded(trace, config, &ShardOptions::default()).0
}

/// Replays one trace over a [`ShardedPlatform`] with no faults (the
/// engine under [`FaultPlan::none`]), also handing back the final state
/// so callers can fingerprint or snapshot it. Deterministic at any
/// worker count.
pub fn replay_trace_sharded(
    trace: &Trace,
    config: &ServeConfig,
    opts: &ShardOptions,
) -> (TraceReport, ShardedPlatform) {
    let (report, _, state) = replay(trace, config, opts, &FaultPlan::none());
    (report, state)
}

/// Replays one trace under a fault plan: every fault is injected at its
/// scheduled time, crashes recover from tick checkpoints, message faults
/// recover at barriers, and the retry queue and degradation policy run
/// at every barrier. Also hands back the final [`ShardedPlatform`].
pub fn replay_trace_chaos(
    trace: &Trace,
    config: &ServeConfig,
    opts: &ShardOptions,
    plan: &FaultPlan,
) -> (ChaosReport, ShardedPlatform) {
    let (base, stats, state) = replay(trace, config, opts, plan);
    let fingerprint = state.fingerprint();
    let report = ChaosReport {
        base,
        stats,
        fingerprint,
    };
    (report, state)
}

/// The engine: replays `trace` over `opts.shards` shards under `plan`.
pub(crate) fn replay(
    trace: &Trace,
    config: &ServeConfig,
    opts: &ShardOptions,
    plan: &FaultPlan,
) -> (TraceReport, ChaosStats, ShardedPlatform) {
    let _replay = SPAN_REPLAY.start();
    let opts = opts.clamped();
    let (objects, platform) = trace_environment(&trace.params, trace.seed);
    let sharded = ShardedPlatform::new(objects, platform, opts.shards);
    let n = sharded.shard_count();
    let mut specs = BTreeMap::new();
    if plan.spec.retry.max_attempts > 0 {
        for ev in &trace.events {
            if let TraceEvent::Arrive {
                tenant,
                spec,
                deadline,
            } = ev.event
            {
                specs.insert(tenant.0, (spec, deadline));
            }
        }
    }
    let mut eng = Engine {
        trace,
        config,
        plan,
        workers: opts.workers,
        fanned_out: false,
        sharded,
        batches: vec![Vec::new(); n],
        admitted: vec![0; n],
        latencies: vec![Vec::new(); n],
        loads: vec![ShardLoad::default(); n],
        last_t: 0.0,
        report: TraceReport::default(),
        stats: ChaosStats::default(),
        tick: 0,
        retry: Vec::new(),
        specs,
        reject_streak: 0,
    };
    let mut faults = plan.events.iter().peekable();
    for ev in &trace.events {
        while let Some(fault) = faults.next_if(|f| f.time <= ev.time) {
            eng.apply_fault(fault);
        }
        match ev.event {
            TraceEvent::Arrive { tenant, .. } | TraceEvent::Depart { tenant } => {
                let s = eng.sharded.route(tenant);
                eng.batches[s].push(*ev);
            }
            TraceEvent::ProcessorFail { lottery } => {
                // Failures need the global live-slot view: drain the
                // tick, then resolve the lottery at the barrier.
                eng.flush(&[]);
                eng.fail_global(ev.time, lottery, FailCause::Trace);
                eng.settle(ev.time);
            }
        }
    }
    let horizon = trace.params.horizon;
    for fault in faults.take_while(|f| f.time <= horizon) {
        eng.apply_fault(fault);
    }
    eng.flush(&[]);
    eng.drain_retries(horizon);
    eng.finish(horizon)
}

/// One pending re-admission.
#[derive(Debug, Clone)]
struct RetryEntry {
    /// Earliest trace time of the next attempt.
    next: f64,
    attempts: u32,
    tenant: TenantId,
    spec: TenantSpec,
    deadline: f64,
}

/// One replay in flight: the sharded platform, the pending tick, the
/// coordinator's accounting, and the fault machinery (inert under an
/// empty plan).
struct Engine<'a> {
    trace: &'a Trace,
    config: &'a ServeConfig,
    plan: &'a FaultPlan,
    workers: usize,
    /// Whether some tick of this replay fanned out on `workers`; only
    /// then does the final validation fan out too.
    fanned_out: bool,
    sharded: ShardedPlatform,
    /// Per-shard trace events awaiting the next barrier.
    batches: Vec<Vec<TimedEvent>>,
    /// Per-shard batch admissions so far (the spot-check cadence).
    admitted: Vec<usize>,
    latencies: Vec<Vec<f64>>,
    /// Each shard's load as of its last folded message.
    loads: Vec<ShardLoad>,
    /// Time the integrals have reached.
    last_t: f64,
    report: TraceReport,
    stats: ChaosStats,
    /// Barrier number: the trace layer's logical clock and the per-tick
    /// message-fault seed.
    tick: u64,
    retry: Vec<RetryEntry>,
    /// Spec + deadline per tenant, so displaced tenants can be
    /// regenerated for re-admission (built only when retries are on).
    specs: BTreeMap<u32, (TenantSpec, f64)>,
    reject_streak: usize,
}

impl Engine<'_> {
    /// Drains the pending tick: replays every shard's batch — in parallel
    /// from [`INLINE_TICK_EVENTS`] events on, else on this thread —
    /// crashes (and recovers) the `crash_victims`, injects and recovers
    /// message faults, and folds the canonical message stream.
    fn flush(&mut self, crash_victims: &[usize]) {
        if crash_victims.is_empty() && self.batches.iter().all(Vec::is_empty) {
            return;
        }
        self.tick += 1;
        let (run, tick, config) = (self.trace.seed, self.tick, self.config);
        let events = self.batches.iter().map(|b| b.len() as u64).sum();
        let start = TraceEventKind::TickStart { events };
        snsp_telemetry::trace::record(Class::Det, run, LogicalTime::tick_start(tick), start);
        for b in self.batches.iter().filter(|b| !b.is_empty()) {
            TICK_BATCH_EVENTS.record(b.len() as f64);
        }
        // Checkpoints: the victims' state at the last barrier is exactly
        // their current state (batches are in flight, not committed).
        let checkpoint = |s: usize| (s, self.sharded.shard(s).clone(), self.admitted[s]);
        let ckpts: Vec<(usize, LivePlatform, usize)> = {
            let _checkpoint = (!crash_victims.is_empty()).then(|| SPAN_CHECKPOINT.start());
            crash_victims.iter().map(|&s| checkpoint(s)).collect()
        };
        let workers = if events < INLINE_TICK_EVENTS {
            1
        } else {
            self.workers
        };
        self.fanned_out |= workers > 1;
        let (results, pool) = {
            let _replay = SPAN_TICK_REPLAY.start();
            // Each worker gets exclusive access to one (shard, batch,
            // counter) cell; every cell is locked exactly once, so the
            // mutexes are uncontended bookkeeping, not synchronization.
            let shards = self.sharded.shards_mut().iter_mut();
            let cells: Vec<Mutex<(&mut LivePlatform, &Vec<TimedEvent>, &mut usize)>> = shards
                .zip(&self.batches)
                .zip(self.admitted.iter_mut())
                .map(|((live, batch), count)| Mutex::new((live, batch, count)))
                .collect();
            run_jobs_checked(cells.len(), workers, |s| {
                let mut cell = cells[s].lock().expect("each cell is locked once");
                let (live, batch, count) = &mut *cell;
                replay_batch(s, live, batch, run, config, count, tick)
            })
        };
        self.reraise(pool, "worker panicked replaying a shard batch");
        let mut outcomes: Vec<(Vec<ShardMsg>, Vec<f64>)> = results.into_iter().flatten().collect();
        // Crash + recover: the victim's in-flight results are lost with
        // the worker; restore the checkpoint and re-replay the batch.
        // Replay is deterministic, so the recovered messages equal the
        // discarded ones — a recovered crash is unobservable in the log,
        // the accounting and the fingerprint. (The trace layer sees the
        // re-replayed events twice; the Det stream collapses the exact
        // duplicates, keeping only the `crash`/`restore` markers.)
        for (s, ckpt, adm) in ckpts {
            let _restore = SPAN_RESTORE.start();
            trace_det(run, tick, s, 0, TraceEventKind::Crash { shard: s as u64 });
            *self.sharded.shard_mut(s) = ckpt;
            self.admitted[s] = adm;
            let batch = &self.batches[s];
            let live = self.sharded.shard_mut(s);
            outcomes[s] = replay_batch(s, live, batch, run, config, &mut self.admitted[s], tick);
            let replayed = batch.len();
            let restore = TraceEventKind::Restore {
                shard: s as u64,
                replayed: replayed as u64,
            };
            trace_det(run, tick, s, 0, restore);
            self.stats.crashes += 1;
            self.stats.recoveries += 1;
            self.stats.recovery_replayed += replayed;
            FAULT_CRASHES.incr();
            FAULT_RECOVERIES.incr();
            RECOVERY_REPLAYED.record(replayed as f64);
        }
        let fold_span = SPAN_TICK_FOLD.start();
        let mut msgs: Vec<ShardMsg> = Vec::new();
        for (s, (mut shard_msgs, shard_lat)) in outcomes.into_iter().enumerate() {
            if msgs.is_empty() {
                std::mem::swap(&mut msgs, &mut shard_msgs); // adopt, don't copy
            }
            msgs.append(&mut shard_msgs);
            self.latencies[s].extend(shard_lat);
        }
        // Barrier: fold the tick's messages in (time, shard, seq) order —
        // a pure function of the trace, independent of scheduling. The key
        // is unique, so the in-place unstable sort is canonical.
        msgs.sort_unstable_by(|a, b| {
            let by_time = a.time.partial_cmp(&b.time).expect("trace times are finite");
            by_time.then(a.shard.cmp(&b.shard)).then(a.seq.cmp(&b.seq))
        });
        inject_and_recover_msgs(&self.plan.spec, tick, &mut msgs, &mut self.stats);
        for (fold_ix, msg) in msgs.iter().enumerate() {
            // The fold event's seq is the *global* fold index within the
            // tick (the per-shard seq is already spent by `msg_send`).
            let fold = TraceEventKind::MsgFold {
                msg: msg.event.label(),
            };
            trace_det(run, tick, msg.shard, fold_ix as u32, fold);
            match msg.event {
                ServeEvent::Rejected { tenant, .. } => {
                    self.reject_streak += 1;
                    self.enqueue_retry(tenant, msg.time);
                }
                ServeEvent::Admitted { .. } => self.reject_streak = 0,
                _ => {}
            }
            self.fold(msg);
        }
        drop(fold_span);
        self.batches.iter_mut().for_each(Vec::clear);
        // Sustained pressure ⇒ shed (at the barrier, so the decision is
        // a pure fold of the tick's canonical message stream).
        if let Some(last) = msgs.last() {
            self.degrade_if_pressed(last.time);
        }
        let end = LogicalTime::tick_end(tick);
        snsp_telemetry::trace::record(Class::Det, run, end, TraceEventKind::TickEnd);
    }

    /// Re-raises the jobs of `pool` that panicked, with `run_jobs`'s own
    /// message, after dumping the flight recorder so the crash scene
    /// survives.
    fn reraise(&mut self, pool: PoolStats, detail: &str) {
        if pool.panics > 0 {
            self.flight_dump("pool-panic", detail, None);
            panic!("{} pool job(s) panicked", pool.panics);
        }
    }

    /// Integrates the current global load up to `to`.
    fn advance(&mut self, to: f64) {
        let dt = to - self.last_t;
        let cost: u64 = self.loads.iter().map(|l| l.cost).sum();
        let speed: f64 = self.loads.iter().map(|l| l.speed).sum();
        let used: f64 = self.loads.iter().map(|l| l.used).sum();
        self.report.cost_time_integral += cost as f64 * dt;
        if speed > 0.0 {
            self.report.mean_utilization += used / speed * dt; // re-normalized at the end
        }
        self.last_t = to;
    }

    /// Folds one shard message: integrate up to its time, take its load
    /// as the shard's column, tally and log its event, update the peaks.
    fn fold(&mut self, msg: &ShardMsg) {
        self.advance(msg.time);
        self.loads[msg.shard] = msg.load;
        self.tally(&msg.event);
        let from = Some((msg.shard, &msg.load));
        msg.event.render(msg.time, from, &mut self.report.log);
        let cost = self.loads.iter().map(|l| l.cost).sum();
        let procs = self.loads.iter().map(|l| l.procs).sum();
        self.report.peak_cost = self.report.peak_cost.max(cost);
        self.report.peak_procs = self.report.peak_procs.max(procs);
    }

    /// Tallies and logs a coordinator event — one that changes no
    /// shard's load, so time does not advance.
    fn note(&mut self, time: f64, event: ServeEvent) {
        self.tally(&event);
        event.render(time, None, &mut self.report.log);
    }

    /// Reports a change the coordinator made on shard `s` at time `t`
    /// (failure, readmission, shed): records its Det trace event at
    /// `(tick, s, seq)`, then folds it with the shard's current load.
    fn emit(&mut self, t: f64, s: usize, seq: u32, event: ServeEvent) {
        if let Some(kind) = event.trace_kind() {
            trace_det(self.trace.seed, self.tick, s, seq, kind);
        }
        let load = ShardLoad::of(self.sharded.shard(s));
        let msg = ShardMsg {
            time: t,
            shard: s,
            seq,
            event,
            load,
        };
        self.fold(&msg);
    }

    /// The accounting every event feeds: report tallies, chaos stats and
    /// the `serve.*` / `fault.*` counters.
    fn tally(&mut self, event: &ServeEvent) {
        let (r, st) = (&mut self.report, &mut self.stats);
        match event {
            ServeEvent::Admitted { .. } => {
                r.arrivals += 1;
                r.admitted += 1;
                SERVE_ADMITTED.incr();
            }
            ServeEvent::Rejected { .. } => {
                r.arrivals += 1;
                r.rejected += 1;
                SERVE_REJECTED.incr();
            }
            ServeEvent::Departed { .. } => {
                r.departed += 1;
                SERVE_DEPARTED.incr();
            }
            ServeEvent::Failed { .. } => {
                r.failures += 1;
                SERVE_FAILURES.incr();
            }
            ServeEvent::Evicted { .. } => {
                r.evicted += 1;
                SERVE_EVICTED.incr();
            }
            ServeEvent::SloChecked { checks, violations } => {
                r.slo_checks += checks;
                r.slo_violations += violations.len();
            }
            ServeEvent::Readmitted { .. } => {
                st.readmitted += 1;
                RETRY_READMITTED.incr();
            }
            ServeEvent::Shed { .. } => {
                st.shed += 1;
                DEGRADE_SHED.incr();
            }
            ServeEvent::RetryExpired { .. } | ServeEvent::RetryDropped { .. } => {
                st.retry_dropped += 1;
                RETRY_DROPPED.incr();
            }
            ServeEvent::Revoked { .. } | ServeEvent::Restored | ServeEvent::FlightDump { .. } => {}
        }
    }

    /// Resolves a global slot-kill lottery (trace failures, rack bursts
    /// and revocation kills all share this path): folds the failure and
    /// its evictions, and queues the evicted tenants for retry.
    fn fail_global(&mut self, t: f64, lottery: u64, cause: FailCause) {
        let _fail = SPAN_FAIL.start();
        let Some((s, out)) = self.sharded.fail(lottery) else {
            return;
        };
        let failed = ServeEvent::Failed {
            cause,
            victim: out.victim.expect("fail_slot always names its victim"),
            remapped: out.remapped.len(),
            evicted: out.evicted.clone(),
        };
        self.emit(t, s, 0, failed);
        for (i, &tenant) in out.evicted.iter().enumerate() {
            self.emit(t, s, i as u32, ServeEvent::Evicted { tenant });
            self.enqueue_retry(tenant, t);
        }
    }

    /// After a barrier's global event: audit the tier (only when the
    /// plan injects faults), then run the retries now due.
    fn settle(&mut self, t: f64) {
        if !self.plan.events.is_empty() {
            self.audit_now(t);
        }
        self.drain_retries(t);
    }

    /// Applies one scheduled fault at its barrier, then settles.
    fn apply_fault(&mut self, ev: &FaultEvent) {
        let t = ev.time;
        if ev.kind != FaultKind::Barrier {
            self.stats.faults_injected += 1;
            FAULT_INJECTED.incr();
        }
        match &ev.kind {
            FaultKind::Barrier => self.flush(&[]),
            FaultKind::ShardCrash { draw } => {
                let victim = (*draw % self.sharded.shard_count() as u64) as usize;
                self.flush(&[victim]);
            }
            FaultKind::RackFailure { lotteries } => {
                self.flush(&[]);
                self.stats.rack_failures += 1;
                FAULT_RACKS.incr();
                for &lottery in lotteries {
                    self.fail_global(t, lottery, FailCause::Rack);
                }
            }
            FaultKind::CapacityRevoke { lotteries } => {
                self.flush(&[]);
                self.stats.revocations += 1;
                FAULT_REVOCATIONS.incr();
                let live = self.sharded.proc_count();
                let frac = self.plan.spec.revoke_frac;
                let killed = ((frac * live as f64).ceil() as usize).min(live);
                for &lottery in lotteries.iter().take(killed) {
                    self.fail_global(t, lottery, FailCause::Revocation);
                }
                for shard in self.sharded.shards_mut() {
                    shard.set_purchase_freeze(true);
                }
                self.note(t, ServeEvent::Revoked { frac, killed });
            }
            FaultKind::CapacityRestore => {
                self.flush(&[]);
                for shard in self.sharded.shards_mut() {
                    shard.set_purchase_freeze(false);
                }
                self.note(t, ServeEvent::Restored);
            }
        }
        self.settle(t);
    }

    /// Enters a displaced (evicted, rejected, or shed) tenant into the
    /// retry queue, if retries are enabled and its deadline has not
    /// passed.
    fn enqueue_retry(&mut self, tenant: TenantId, t: f64) {
        let retry = self.plan.spec.retry;
        if retry.max_attempts == 0 {
            return;
        }
        let Some(&(spec, deadline)) = self.specs.get(&tenant.0) else {
            return;
        };
        if deadline <= t || self.retry.iter().any(|e| e.tenant == tenant) {
            return;
        }
        self.stats.retry_enqueued += 1;
        RETRY_ENQUEUED.incr();
        self.retry.push(RetryEntry {
            next: t + retry.base,
            attempts: 0,
            tenant,
            spec,
            deadline,
        });
    }

    /// Runs every due retry at barrier time `t`, in deterministic
    /// `(next, tenant)` order: re-admit on the home shard, or back off
    /// exponentially until the attempt budget or the deadline runs out.
    fn drain_retries(&mut self, t: f64) {
        let policy = self.plan.spec.retry;
        let mut entries = std::mem::take(&mut self.retry);
        entries.sort_by(|a, b| {
            let by_next = a.next.partial_cmp(&b.next).expect("retry times are finite");
            by_next.then(a.tenant.0.cmp(&b.tenant.0))
        });
        for e in entries {
            if e.next > t {
                self.retry.push(e);
                continue;
            }
            let tenant = e.tenant;
            if t >= e.deadline {
                self.note(t, ServeEvent::RetryExpired { tenant });
                continue;
            }
            let s = self.sharded.route(tenant);
            if self.sharded.shard(s).tenant(tenant).is_some() {
                continue; // already resident again (defensive; never expected)
            }
            let seed = self.trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
            let attempt = e.attempts + 1;
            if self
                .sharded
                .admit_spec(tenant, &e.spec, &SubtreeBottomUp, seed, &self.config.opts)
                .is_ok()
            {
                self.emit(t, s, e.attempts, ServeEvent::Readmitted { tenant, attempt });
            } else if attempt >= policy.max_attempts {
                let attempts = attempt;
                self.note(t, ServeEvent::RetryDropped { tenant, attempts });
            } else {
                self.retry.push(RetryEntry {
                    next: t + policy.base * policy.factor.powi(attempt as i32),
                    attempts: attempt,
                    ..e
                });
            }
        }
    }

    /// Sheds the lowest-value residents (ties by ascending tenant id) if
    /// the rejection streak crossed the pressure threshold. Shed tenants
    /// re-enter via the retry queue.
    fn degrade_if_pressed(&mut self, t: f64) {
        let policy = self.plan.spec.degrade;
        if policy.pressure == 0 || self.reject_streak < policy.pressure {
            return;
        }
        for shed_ix in 0..policy.max_shed {
            let mut victim: Option<(f64, u32, usize)> = None;
            for s in 0..self.sharded.shard_count() {
                let shard = self.sharded.shard(s);
                for id in shard.tenant_ids() {
                    let v = shard.tenant_value(id).unwrap_or(0.0);
                    if victim.is_none_or(|(bv, bid, _)| v < bv || (v == bv && id.0 < bid)) {
                        victim = Some((v, id.0, s));
                    }
                }
            }
            let Some((value, id, s)) = victim else {
                break;
            };
            let tenant = TenantId(id);
            self.sharded.shard_mut(s).shed(tenant);
            self.emit(t, s, shed_ix as u32, ServeEvent::Shed { tenant, value });
            self.enqueue_retry(tenant, t);
        }
        self.reject_streak = 0;
    }

    /// Audits the whole tier, counting (never panicking on) violations —
    /// the report surfaces them and the tests assert zero. A violation
    /// also triggers a flight-recorder dump pointing at the suspect
    /// shard's first event in the retained window.
    fn audit_now(&mut self, t: f64) {
        let audit = {
            let _audit = SPAN_AUDIT.start();
            audit_platform_located(&self.sharded)
        };
        if let Err((shard, e)) = audit {
            self.stats.audit_failures += 1;
            AUDIT_FAILURES.incr();
            let first = &mut self.stats.audit_first;
            first.get_or_insert_with(|| format!("{t:.6}: {e}"));
            self.flight_dump("audit-failure", &e, shard);
        }
    }

    /// Dumps the flight-recorder window — the last
    /// [`FLIGHT_WINDOW_TICKS`] ticks of recorded trace events — as a
    /// crash-dump JSON artifact ([`flight_dump_json`]). Written to the
    /// path configured via
    /// [`set_flight_path`](snsp_telemetry::trace::set_flight_path), to
    /// stderr otherwise; a no-op while tracing is inactive (nothing was
    /// recorded, so there is nothing to dump).
    fn flight_dump(&mut self, reason: &str, detail: &str, suspect_shard: Option<usize>) {
        if !snsp_telemetry::trace::active() {
            return;
        }
        let snap = snsp_telemetry::trace::snapshot_now();
        let text = flight_dump_json(&snap, reason, detail, suspect_shard, self.tick).render();
        match snsp_telemetry::trace::flight_path() {
            Some(path) => {
                if std::fs::write(&path, &text).is_ok() {
                    let reason = reason.to_string();
                    self.note(self.last_t, ServeEvent::FlightDump { reason, path });
                }
            }
            None => eprintln!("flight-dump {reason}:\n{text}"),
        }
    }

    /// Closes the replay at `horizon`: final engine validation, the last
    /// integral step, and the per-replay telemetry. The validation runs
    /// one job per shard on the pool — on `workers` threads if a tick of
    /// this replay fanned out, else on this thread — and notes the
    /// verdicts in shard order.
    fn finish(mut self, horizon: f64) -> (TraceReport, ChaosStats, ShardedPlatform) {
        if self.config.final_validation {
            let _validate = SPAN_VALIDATE.start();
            let workers = if self.fanned_out { self.workers } else { 1 };
            let (sharded, config) = (&self.sharded, self.config);
            let (checked, pool) = run_jobs_checked(sharded.shard_count(), workers, |s| {
                validate_residents(sharded.shard(s), config)
            });
            self.reraise(pool, "worker panicked validating a shard");
            for checked in checked.into_iter().flatten() {
                self.note(horizon, checked);
            }
        }
        self.advance(horizon);
        for &count in &self.admitted {
            SHARD_ADMITTED.record(count as f64);
        }
        // Guarded: `peak_rss_kb` reads `/proc` and must stay off the
        // disabled path (the gauge's own check runs after the argument).
        if snsp_telemetry::enabled() {
            SERVE_PEAK_RSS.record_max(snsp_telemetry::peak_rss_kb());
        }
        let mut report = self.report;
        report.final_cost = self.sharded.cost();
        report.mean_utilization = if horizon > 0.0 {
            report.mean_utilization / horizon
        } else {
            0.0
        };
        report.admit_latencies_us = self.latencies.into_iter().flatten().collect();
        for &us in &report.admit_latencies_us {
            SERVE_ADMIT_LATENCY.record(us);
        }
        (report, self.stats, self.sharded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snsp_gen::{generate_trace, TraceParams};

    #[test]
    fn replay_is_deterministic_and_accounts_events() {
        let trace = generate_trace(&TraceParams::poisson(0.4, 6.0, 30.0), 3);
        let a = run_trace(&trace, &ServeConfig::default());
        let b = run_trace(&trace, &ServeConfig::default());
        assert_eq!(a.log, b.log, "event logs must replay identically");
        assert_eq!(a.arrivals, trace.arrivals());
        assert_eq!(a.admitted + a.rejected, a.arrivals);
        assert!(a.admitted > 0, "λ·T = 12 expected arrivals, some must fit");
        assert!(a.cost_time_integral > 0.0);
        assert!(a.mean_utilization > 0.0);
        assert_eq!(a.log_hash(), b.log_hash());
    }

    #[test]
    fn final_validation_passes_for_admitted_tenants() {
        let trace = generate_trace(&TraceParams::poisson(0.3, 8.0, 20.0), 5);
        let report = run_trace(&trace, &ServeConfig::default());
        assert!(report.slo_checks > 0, "residents were validated");
        assert_eq!(
            report.slo_violations, 0,
            "analytically-admitted tenants sustain the SLO in the engine"
        );
    }

    #[test]
    fn failures_flow_into_the_metrics() {
        let params = TraceParams::poisson(0.5, 10.0, 40.0).with_failures(0.2);
        let trace = generate_trace(&params, 8);
        let report = run_trace(&trace, &ServeConfig::default());
        assert!(report.failures > 0, "0.2·40 = 8 expected failures");
        assert!(
            report.log.iter().any(|line| line.contains(" s0 fail p")),
            "failures are logged"
        );
    }

    #[test]
    fn infeasible_tenants_are_rejected_not_crashed() {
        // ρ far past the catalog's fastest CPU (and any split made
        // infeasible by the 1 GB/s pair link at ρ·δ): every arrival must
        // be refused through the admission-control path, with the
        // platform left empty and the books still balancing.
        let params = TraceParams::poisson(0.5, 5.0, 20.0).with_tenant_rho(2_000.0, 3_000.0);
        let trace = generate_trace(&params, 4);
        let report = run_trace(&trace, &ServeConfig::default());
        assert!(report.arrivals > 0);
        assert_eq!(report.admitted, 0, "nothing this heavy fits any kind");
        assert_eq!(report.rejected, report.arrivals);
        assert_eq!(report.final_cost, 0);
        assert!(report.log.iter().all(|l| l.contains(" reject ")));
    }

    #[test]
    fn spot_checks_count_toward_slo_metrics() {
        let trace = generate_trace(&TraceParams::poisson(0.3, 6.0, 20.0), 9);
        let config = ServeConfig {
            spot_admissions: 1,
            final_validation: false,
            ..Default::default()
        };
        let report = run_trace(&trace, &config);
        if report.admitted > 0 {
            assert!(report.slo_checks >= report.admitted);
        }
    }
}
