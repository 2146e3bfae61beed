//! The fault model of the serve tier: deterministic fault injection,
//! crash recovery, and graceful degradation.
//!
//! Real platforms lose shards, drop cross-shard messages, get hit by
//! correlated rack failures, and have capacity revoked under them. This
//! module makes every one of those a **first-class, seeded, replayable
//! input** that the replay engine ([`crate::sim`]) applies at its tick
//! barriers — the screen-then-verify discipline the refinement layers
//! apply to moves, applied to faults:
//!
//! * A [`FaultPlan`] is instantiated from a [`FaultSpec`] as a pure
//!   function of `(spec, horizon)` — **never of the shard count** — so
//!   the same seed yields the same global fault schedule at 1, 2 or 64
//!   shards; shard-targeted faults are routed only at replay time
//!   (crash victim = `draw % shards`, slot kills resolve a *global*
//!   lottery over the concatenated live slots, exactly like trace
//!   failures).
//! * **Crash recovery is checkpoint/restore.** The engine treats the
//!   state at each barrier as the per-shard checkpoint. When a shard
//!   crashes mid-tick, its in-flight batch results are discarded, its
//!   platform is restored from the checkpoint, and the batch is
//!   re-replayed. Replay is deterministic, so the recovered shard emits
//!   identical messages and the run's event log and final
//!   [`fingerprint`](crate::shard::ShardedPlatform::fingerprint) equal
//!   an uninterrupted run's — the contract the chaos campaign asserts
//!   per run (`crash_fingerprint_match`).
//! * **Message faults are injected and then recovered at the barrier.**
//!   Dropped [`ShardMsg`]s are retransmitted from the sender's retained
//!   outbox (senders keep a tick's messages until the barrier acks),
//!   duplicates are discarded by their unique `(time, shard, seq)` key,
//!   and delayed messages simply arrive later *within* the tick — the
//!   barrier folds in canonical order regardless of arrival order. The
//!   fold input is therefore provably identical to the fault-free
//!   stream; the Det-class `fault.msg.*` counters record the traffic.
//! * **A bounded retry queue re-admits evicted and rejected tenants**
//!   with deterministic exponential backoff (`next = t + base·factorᵏ`),
//!   dropping entries after `max_attempts` tries or past their trace
//!   deadline.
//! * **Graceful degradation** sheds the lowest-value residents (value =
//!   `ρ·Σwork`, ascending) after a run of consecutive rejections,
//!   instead of failing admissions outright; shed tenants re-enter
//!   through the retry queue.
//! * [`audit_platform`] runs after every injected fault, and after every
//!   trace failure of a replay whose plan injects anything: per-shard
//!   structural invariants ([`LivePlatform::audit`] — live-slot
//!   assignments, resident aggregates, ledger conservation, and the
//!   joint capacities checked in place by `check_joint`) plus the
//!   cross-shard ones (home routing, no double residency). Violations
//!   are counted, surfaced in the report, and asserted zero by the
//!   integration tests.
//!
//! **The failure model** is [`LivePlatform::fail_slot`]'s. The dead
//! slot's download streams are released, and each displaced operator
//! block re-maps first-fit onto a live slot of the same shard, upgrading
//! that slot's kind if the joint demand needs it. Failing that, the
//! block moves to a newly bought machine of the cheapest fitting kind.
//! Failing that — or whenever a revocation froze purchases — its tenant
//! is evicted. Emptied slots are sold and the rest downgraded, so a
//! failure whose blocks fit a replacement of the same kind leaves the
//! platform cost unchanged.
//!
//! With a default (all-off) [`FaultSpec`] the plan is empty and the
//! chaos replay *is*
//! [`replay_trace_sharded`](crate::sim::replay_trace_sharded).

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use snsp_sweep::Json;
use snsp_telemetry::{Class, Counter};

#[cfg(doc)]
use crate::platform::LivePlatform;
use crate::report::TraceReport;
use crate::shard::{ShardMsg, ShardedPlatform};

// Det-class message-fault counters: pure functions of (trace, plan,
// config), so worker counts never move them.
static MSG_DROPPED: Counter = Counter::new("fault.msg.dropped", Class::Det);
static MSG_RETRANSMITTED: Counter = Counter::new("fault.msg.retransmitted", Class::Det);
static MSG_DUPLICATED: Counter = Counter::new("fault.msg.duplicated", Class::Det);
static MSG_DUPS_DISCARDED: Counter = Counter::new("fault.msg.dups_discarded", Class::Det);
static MSG_DELAYED: Counter = Counter::new("fault.msg.delayed", Class::Det);

// Disjoint seed streams so adding one fault class never perturbs the
// schedule of another.
const CRASH_STREAM: u64 = 0x9e37_79b9_7f4a_7c15;
const RACK_STREAM: u64 = 0xc2b2_ae3d_27d4_eb4f;
const REVOKE_STREAM: u64 = 0x1656_67b1_9e37_79f9;
const MSG_STREAM: u64 = 0x2545_f491_4f6c_dd1d;
/// Slot lotteries pre-drawn per revocation (the fraction of live slots
/// actually killed is only known at replay time).
const REVOKE_DRAWS: usize = 256;

/// Deterministic exponential backoff for the re-admission queue: retry
/// `k` of a tenant enqueued at `t₀` runs at the first tick barrier after
/// `t + base·factorᵏ`. `max_attempts == 0` disables the queue entirely
/// (evicted tenants stay gone, as in the plain sharded tier).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First-retry delay in trace time units.
    pub base: f64,
    /// Multiplicative backoff factor per failed attempt.
    pub factor: f64,
    /// Attempts before an entry is dropped; 0 disables retries.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: 0.5,
            factor: 2.0,
            max_attempts: 0,
        }
    }
}

impl RetryPolicy {
    /// The standard bounded queue: 0.5 time-unit first retry, doubling,
    /// six attempts (a 0.5·(2⁶−1) ≈ 31.5 time-unit backoff horizon).
    pub fn standard() -> Self {
        RetryPolicy {
            base: 0.5,
            factor: 2.0,
            max_attempts: 6,
        }
    }
}

/// Graceful-degradation policy: after `pressure` consecutive rejected
/// admissions, shed up to `max_shed` lowest-value residents (value =
/// `ρ·Σwork`, ascending; ties broken by ascending tenant id) instead of
/// continuing to fail admissions outright. Shed tenants re-enter via the
/// retry queue. `pressure == 0` disables shedding.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegradePolicy {
    /// Consecutive rejections that arm a shed pass; 0 disables.
    pub pressure: usize,
    /// Residents shed per pass.
    pub max_shed: usize,
}

/// Everything a chaos scenario may inject, all seeded and all off by
/// default (a default spec replays exactly like the fault-free sharded
/// tier). Rates are events per trace time unit; probabilities are per
/// message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Seed of every fault stream (crash times, victims, lotteries,
    /// message faults). Campaigns derive a per-trace-seed variant.
    pub seed: u64,
    /// Poisson rate of single-shard crashes (checkpoint/restore drill).
    pub crash_rate: f64,
    /// Poisson rate of correlated rack failures.
    pub rack_rate: f64,
    /// Processors killed per rack failure (global lotteries).
    pub rack_size: usize,
    /// Per-message drop probability (recovered by retransmit).
    pub msg_drop: f64,
    /// Per-message duplication probability (recovered by seq-dedup).
    pub msg_dup: f64,
    /// Per-message delay probability (recovered by the canonical fold).
    pub msg_delay: f64,
    /// Capacity-revocation window `(start, end)` in trace time.
    pub revoke_at: Option<(f64, f64)>,
    /// Fraction of live processors killed when the revocation starts
    /// (purchases stay frozen until the window ends).
    pub revoke_frac: f64,
    /// Extra tick barriers every `tick_every` time units (0 disables):
    /// they bound checkpoint intervals and give the retry queue
    /// deterministic chances to drain between faults.
    pub tick_every: f64,
    /// Re-admission backoff policy.
    pub retry: RetryPolicy,
    /// Load-shedding policy.
    pub degrade: DegradePolicy,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            crash_rate: 0.0,
            rack_rate: 0.0,
            rack_size: 0,
            msg_drop: 0.0,
            msg_dup: 0.0,
            msg_delay: 0.0,
            revoke_at: None,
            revoke_frac: 0.0,
            tick_every: 0.0,
            retry: RetryPolicy::default(),
            degrade: DegradePolicy::default(),
        }
    }
}

impl FaultSpec {
    /// A spec with only the seed set (everything off).
    pub fn seeded(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..Default::default()
        }
    }

    /// Enables shard crashes at `rate` per time unit.
    pub fn with_crashes(mut self, rate: f64) -> Self {
        self.crash_rate = rate;
        self
    }

    /// Enables correlated rack failures: `rate` bursts per time unit,
    /// each killing `size` processors by global lottery.
    pub fn with_racks(mut self, rate: f64, size: usize) -> Self {
        self.rack_rate = rate;
        self.rack_size = size;
        self
    }

    /// Enables message faults with the given per-message probabilities.
    pub fn with_msg_faults(mut self, drop: f64, dup: f64, delay: f64) -> Self {
        self.msg_drop = drop;
        self.msg_dup = dup;
        self.msg_delay = delay;
        self
    }

    /// Schedules a capacity revocation: at `start`, `frac` of the live
    /// processors are killed and purchases freeze; at `end` they thaw.
    pub fn with_revocation(mut self, start: f64, end: f64, frac: f64) -> Self {
        self.revoke_at = Some((start, end));
        self.revoke_frac = frac;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the degradation policy.
    pub fn with_degradation(mut self, pressure: usize, max_shed: usize) -> Self {
        self.degrade = DegradePolicy { pressure, max_shed };
        self
    }

    /// Adds periodic tick barriers every `dt` time units.
    pub fn with_ticks(mut self, dt: f64) -> Self {
        self.tick_every = dt;
        self
    }
}

/// One scheduled fault. Shard-targeted kinds carry raw draws, not shard
/// or slot indices — routing happens at replay time so the schedule
/// itself is shard-count-free.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A shard worker dies mid-tick; victim = `draw % shards` at replay.
    ShardCrash {
        /// Raw victim draw.
        draw: u64,
    },
    /// A correlated burst: each lottery kills one processor, drawn over
    /// the *global* concatenation of live slots (like trace failures).
    RackFailure {
        /// Global slot lotteries, applied in order.
        lotteries: Vec<u64>,
    },
    /// Capacity revocation starts: `⌈frac·live⌉` processors are killed
    /// by the first lotteries and purchases freeze platform-wide.
    CapacityRevoke {
        /// Pre-drawn global slot lotteries (only a prefix is used).
        lotteries: Vec<u64>,
    },
    /// The revocation window ends; purchases thaw.
    CapacityRestore,
    /// A pure tick barrier (flush + retry drain + audit), injected by
    /// [`FaultSpec::tick_every`].
    Barrier,
}

/// A scheduled fault at a trace time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Trace time of the fault.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// The full, deterministic fault schedule of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// The spec this plan was instantiated from.
    pub spec: FaultSpec,
    /// Scheduled faults, ascending in time.
    pub events: Vec<FaultEvent>,
}

fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -(1.0 - u).ln() / rate
}

impl FaultPlan {
    /// Draws the fault schedule for one replay: independent seeded
    /// Poisson streams per fault class, merged in time order. A pure
    /// function of `(spec, horizon)` — the shard count is deliberately
    /// **not** an input, so the same seed produces the same global
    /// schedule at every shard count (pinned by the shard-count
    /// independence tests).
    pub fn instantiate(spec: &FaultSpec, horizon: f64) -> FaultPlan {
        let mut events: Vec<(f64, u8, FaultKind)> = Vec::new();
        if spec.crash_rate > 0.0 {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ CRASH_STREAM);
            let mut t = 0.0;
            loop {
                t += exp_sample(&mut rng, spec.crash_rate);
                if t >= horizon {
                    break;
                }
                events.push((
                    t,
                    1,
                    FaultKind::ShardCrash {
                        draw: rng.next_u64(),
                    },
                ));
            }
        }
        if spec.rack_rate > 0.0 && spec.rack_size > 0 {
            let mut rng = StdRng::seed_from_u64(spec.seed ^ RACK_STREAM);
            let mut t = 0.0;
            loop {
                t += exp_sample(&mut rng, spec.rack_rate);
                if t >= horizon {
                    break;
                }
                let lotteries = (0..spec.rack_size).map(|_| rng.next_u64()).collect();
                events.push((t, 2, FaultKind::RackFailure { lotteries }));
            }
        }
        if let Some((start, end)) = spec.revoke_at {
            if start < horizon && spec.revoke_frac > 0.0 {
                let mut rng = StdRng::seed_from_u64(spec.seed ^ REVOKE_STREAM);
                let lotteries = (0..REVOKE_DRAWS).map(|_| rng.next_u64()).collect();
                events.push((start, 3, FaultKind::CapacityRevoke { lotteries }));
                events.push((end.min(horizon), 4, FaultKind::CapacityRestore));
            }
        }
        if spec.tick_every > 0.0 {
            let mut t = spec.tick_every;
            while t < horizon {
                events.push((t, 0, FaultKind::Barrier));
                t += spec.tick_every;
            }
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        FaultPlan {
            spec: *spec,
            events: events
                .into_iter()
                .map(|(time, _, kind)| FaultEvent { time, kind })
                .collect(),
        }
    }

    /// This plan with every [`FaultKind::ShardCrash`] removed — the
    /// *uninterrupted* reference: crashes are recovered to invisibility,
    /// so a chaos run must produce the same event log, final cost and
    /// platform fingerprint as its crash-free twin.
    pub fn without_crashes(&self) -> FaultPlan {
        FaultPlan {
            spec: self.spec,
            events: self
                .events
                .iter()
                .filter(|e| !matches!(e.kind, FaultKind::ShardCrash { .. }))
                .cloned()
                .collect(),
        }
    }

    /// The empty plan: nothing injected, every fault mechanism off —
    /// the plan of a plain replay.
    pub fn none() -> FaultPlan {
        FaultPlan {
            spec: FaultSpec::default(),
            events: Vec::new(),
        }
    }

    /// Number of scheduled shard crashes.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::ShardCrash { .. }))
            .count()
    }
}

/// Fault, recovery, retry and degradation accounting over one chaos
/// replay — all Det-class (worker-count independent).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosStats {
    /// Fault events applied (crashes + racks + revoke/restore; pure
    /// barriers excluded).
    pub faults_injected: usize,
    /// Shard crashes injected.
    pub crashes: usize,
    /// Crash recoveries completed (== `crashes` when every crash
    /// recovered).
    pub recoveries: usize,
    /// Events re-replayed from checkpoints across all recoveries.
    pub recovery_replayed: usize,
    /// Correlated rack failures applied.
    pub rack_failures: usize,
    /// Capacity revocations applied.
    pub revocations: usize,
    /// Messages dropped in transit.
    pub msgs_dropped: usize,
    /// Messages retransmitted from sender outboxes (must equal
    /// `msgs_dropped`).
    pub msgs_retransmitted: usize,
    /// Messages duplicated in transit.
    pub msgs_duplicated: usize,
    /// Duplicates discarded by `(time, shard, seq)` dedup (must equal
    /// `msgs_duplicated`).
    pub dups_discarded: usize,
    /// Messages delayed within their tick.
    pub msgs_delayed: usize,
    /// Tenants entered into the retry queue (evicted, rejected or shed).
    pub retry_enqueued: usize,
    /// Retry-queue re-admissions that committed.
    pub readmitted: usize,
    /// Retry entries dropped (attempts exhausted or deadline passed).
    pub retry_dropped: usize,
    /// Residents shed by graceful degradation.
    pub shed: usize,
    /// [`audit_platform`] violations observed (tests assert 0).
    pub audit_failures: usize,
    /// First audit violation, if any.
    pub audit_first: Option<String>,
}

impl ChaosStats {
    /// Adds `other`'s counts to these (campaign aggregation); keeps the
    /// first audit violation seen.
    pub fn absorb(&mut self, other: &ChaosStats) {
        self.faults_injected += other.faults_injected;
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.recovery_replayed += other.recovery_replayed;
        self.rack_failures += other.rack_failures;
        self.revocations += other.revocations;
        self.msgs_dropped += other.msgs_dropped;
        self.msgs_retransmitted += other.msgs_retransmitted;
        self.msgs_duplicated += other.msgs_duplicated;
        self.dups_discarded += other.dups_discarded;
        self.msgs_delayed += other.msgs_delayed;
        self.retry_enqueued += other.retry_enqueued;
        self.readmitted += other.readmitted;
        self.retry_dropped += other.retry_dropped;
        self.shed += other.shed;
        self.audit_failures += other.audit_failures;
        if self.audit_first.is_none() {
            self.audit_first.clone_from(&other.audit_first);
        }
    }
}

/// The result of one chaos replay: the ordinary serving metrics plus the
/// fault/recovery accounting and the final platform fingerprint.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The base serving metrics (same contract as the sharded tier).
    pub base: TraceReport,
    /// Fault/recovery/retry accounting.
    pub stats: ChaosStats,
    /// Final-state fingerprint
    /// ([`ShardedPlatform::fingerprint`](crate::shard::ShardedPlatform::fingerprint)).
    pub fingerprint: u64,
}

impl ChaosReport {
    /// `readmitted / retry_enqueued` (1 when nothing was enqueued) —
    /// the fraction of displaced tenants the retry queue brought back
    /// within its backoff horizon.
    pub fn readmission_rate(&self) -> f64 {
        if self.stats.retry_enqueued == 0 {
            1.0
        } else {
            self.stats.readmitted as f64 / self.stats.retry_enqueued as f64
        }
    }
}

/// Checks every platform invariant across the sharded tier: each
/// shard's [`LivePlatform::audit`] (live-slot assignments, no leaked
/// machines, resident aggregates equal to a tenant scan,
/// download-ledger conservation, and joint CPU, processor NIC and
/// server NIC capacity, which
/// [`check_joint`](snsp_core::multi::check_joint) sums over the live
/// shard in place, cloning no tenant) plus the
/// cross-shard invariants — every resident lives on its *home* shard
/// (the routing hash) and no tenant is resident on two shards. The
/// chaos replay runs this after every injected fault.
pub fn audit_platform(sharded: &ShardedPlatform) -> Result<(), String> {
    audit_platform_located(sharded).map_err(|(_, e)| e)
}

/// [`audit_platform`], additionally naming the shard on which the
/// violation was detected — the flight recorder uses it to point at the
/// first divergent event in its dump window.
pub(crate) fn audit_platform_located(
    sharded: &ShardedPlatform,
) -> Result<(), (Option<usize>, String)> {
    let mut seen: BTreeSet<u32> = BTreeSet::new();
    for s in 0..sharded.shard_count() {
        let shard = sharded.shard(s);
        shard
            .audit()
            .map_err(|e| (Some(s), format!("shard {s}: {e}")))?;
        for id in shard.tenant_ids() {
            let home = sharded.route(id);
            if home != s {
                return Err((
                    Some(s),
                    format!("tenant {id} resident on shard {s} but routes to {home}"),
                ));
            }
            if !seen.insert(id.0) {
                return Err((Some(s), format!("tenant {id} resident on multiple shards")));
            }
        }
    }
    Ok(())
}

/// Ticks of trace-event history the chaos flight recorder keeps in its
/// dump window. The per-thread rings retain far more; the window bounds
/// the crash-dump artifact to the recent past that plausibly explains
/// the failure.
pub const FLIGHT_WINDOW_TICKS: u64 = 8;

/// Renders a flight-recorder crash dump: the failure `reason`/`detail`,
/// the tick it surfaced at, the retained event window, and the **first
/// divergent event** — the earliest Det-class event on the suspect
/// shard inside the window (the window head when no shard is
/// attributable, `null` when the window is empty).
pub fn flight_dump_json(
    snap: &snsp_telemetry::trace::TraceSnapshot,
    reason: &str,
    detail: &str,
    suspect_shard: Option<usize>,
    tick: u64,
) -> Json {
    let window = snap.tail_window(FLIGHT_WINDOW_TICKS);
    let event_json = |ev: &snsp_telemetry::trace::TraceEvent| {
        let (label, det) = ev.kind.describe();
        Json::obj(vec![
            ("run", Json::Int(ev.run as i64)),
            ("tick", Json::Int(ev.time.tick as i64)),
            ("shard", Json::Int(ev.time.shard as i64)),
            ("seq", Json::Int(ev.time.seq as i64)),
            ("event", Json::Str(label.to_string())),
            ("detail", Json::Str(det)),
            (
                "class",
                Json::Str(
                    match ev.class {
                        Class::Det => "det",
                        Class::Overlay => "overlay",
                    }
                    .to_string(),
                ),
            ),
        ])
    };
    let first_divergent = window
        .iter()
        .find(|ev| {
            ev.class == Class::Det && suspect_shard.is_none_or(|s| ev.time.shard as usize == s)
        })
        .or(window.first());
    Json::obj(vec![
        ("kind", Json::Str("flight".to_string())),
        ("reason", Json::Str(reason.to_string())),
        ("detail", Json::Str(detail.to_string())),
        ("tick", Json::Int(tick as i64)),
        ("window_ticks", Json::Int(FLIGHT_WINDOW_TICKS as i64)),
        ("dropped", Json::Int(snap.dropped as i64)),
        (
            "first_divergent",
            first_divergent.map_or(Json::Null, event_json),
        ),
        ("window", Json::Arr(window.iter().map(event_json).collect())),
    ])
}

/// Injects transport faults into one tick's canonical message stream
/// and runs the barrier recovery protocol. The recovered stream is
/// provably the original: drops are retransmitted from the retained
/// outbox, duplicates carry an already-seen `(time, shard, seq)` key
/// and are discarded, delays reorder *within* the tick and the barrier
/// re-sorts canonically anyway.
pub(crate) fn inject_and_recover_msgs(
    spec: &FaultSpec,
    tick: u64,
    msgs: &mut Vec<ShardMsg>,
    stats: &mut ChaosStats,
) {
    let any = spec.msg_drop + spec.msg_dup + spec.msg_delay;
    if any <= 0.0 || msgs.is_empty() {
        return;
    }
    let mut rng =
        StdRng::seed_from_u64(spec.seed ^ MSG_STREAM ^ tick.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    // Senders retain the tick's outbox until the barrier acks it.
    let outbox: Vec<ShardMsg> = msgs.clone();
    let mut arrived: Vec<ShardMsg> = Vec::new();
    let mut late: Vec<ShardMsg> = Vec::new();
    for m in msgs.iter() {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < spec.msg_drop {
            stats.msgs_dropped += 1;
            MSG_DROPPED.incr();
            continue; // lost in transit
        }
        if u < spec.msg_drop + spec.msg_dup {
            stats.msgs_duplicated += 1;
            MSG_DUPLICATED.incr();
            arrived.push(m.clone());
            arrived.push(m.clone());
            continue;
        }
        if u < any {
            stats.msgs_delayed += 1;
            MSG_DELAYED.incr();
            late.push(m.clone()); // arrives at the end of the tick
            continue;
        }
        arrived.push(m.clone());
    }
    arrived.extend(late);
    // Barrier recovery. 1) canonical re-sort (absorbs delays),
    // 2) dedup by the unique (time, shard, seq) key (absorbs dups),
    // 3) gap detection against the outbox + retransmit (absorbs
    // drops).
    let key = |m: &ShardMsg| (m.time.to_bits(), m.shard, m.seq);
    arrived.sort_by_key(key);
    let before = arrived.len();
    arrived.dedup_by(|a, b| key(a) == key(b));
    let discarded = before - arrived.len();
    stats.dups_discarded += discarded;
    MSG_DUPS_DISCARDED.add(discarded as u64);
    let have: BTreeSet<(u64, usize, u32)> = arrived.iter().map(key).collect();
    for m in &outbox {
        if !have.contains(&key(m)) {
            stats.msgs_retransmitted += 1;
            MSG_RETRANSMITTED.incr();
            arrived.push(m.clone());
        }
    }
    arrived.sort_by_key(key);
    debug_assert_eq!(arrived.len(), outbox.len(), "recovery restores the stream");
    *msgs = arrived;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardOptions;
    use crate::sim::{replay_trace_chaos, ServeConfig};
    use snsp_gen::{generate_trace, Trace, TraceParams};

    fn trace(seed: u64) -> Trace {
        generate_trace(
            &TraceParams::poisson(0.6, 4.0, 25.0).with_failures(0.08),
            seed,
        )
    }

    #[test]
    fn plan_instantiation_is_deterministic_and_seed_sensitive() {
        let spec = FaultSpec::seeded(7)
            .with_crashes(0.2)
            .with_racks(0.05, 3)
            .with_revocation(8.0, 14.0, 0.4)
            .with_ticks(5.0);
        let a = FaultPlan::instantiate(&spec, 25.0);
        let b = FaultPlan::instantiate(&spec, 25.0);
        assert_eq!(a, b, "same spec, same schedule");
        assert!(a.crash_count() > 0, "λ·T = 5 expected crashes");
        assert!(a.events.windows(2).all(|w| w[0].time <= w[1].time));
        let other = FaultPlan::instantiate(&FaultSpec { seed: 8, ..spec }, 25.0);
        assert_ne!(a, other, "different seed, different schedule");
        // Stripping crashes keeps everything else.
        let clean = a.without_crashes();
        assert_eq!(clean.crash_count(), 0);
        assert_eq!(
            clean.events.len(),
            a.events.len() - a.crash_count(),
            "only crashes are stripped"
        );
    }

    #[test]
    fn an_all_off_spec_instantiates_the_empty_plan() {
        let plan = FaultPlan::instantiate(&FaultSpec::default(), 25.0);
        assert_eq!(plan, FaultPlan::none());
    }

    #[test]
    fn crash_recovery_is_invisible_in_log_cost_and_fingerprint() {
        let trace = trace(5);
        let spec = FaultSpec::seeded(11).with_crashes(0.3).with_ticks(2.0);
        let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
        assert!(plan.crash_count() >= 2, "enough crashes to mean something");
        let opts = ShardOptions {
            shards: 2,
            workers: 2,
        };
        let (chaos, state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
        let (clean, clean_state) = replay_trace_chaos(
            &trace,
            &ServeConfig::default(),
            &opts,
            &plan.without_crashes(),
        );
        assert_eq!(chaos.stats.crashes, plan.crash_count());
        assert_eq!(chaos.stats.recoveries, chaos.stats.crashes);
        assert_eq!(
            chaos.base.log, clean.base.log,
            "recovery must be unobservable"
        );
        assert_eq!(chaos.base.final_cost, clean.base.final_cost);
        assert_eq!(state.fingerprint(), clean_state.fingerprint());
        assert_eq!(
            chaos.stats.audit_failures, 0,
            "{:?}",
            chaos.stats.audit_first
        );
    }

    #[test]
    fn message_faults_are_fully_recovered_at_the_barrier() {
        let trace = trace(9);
        let spec = FaultSpec::seeded(13)
            .with_msg_faults(0.15, 0.1, 0.1)
            .with_ticks(3.0);
        let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
        let opts = ShardOptions {
            shards: 3,
            workers: 2,
        };
        let faulty = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan).0;
        let clean_plan =
            FaultPlan::instantiate(&FaultSpec::seeded(13).with_ticks(3.0), trace.params.horizon);
        let clean = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &clean_plan).0;
        assert!(faulty.stats.msgs_dropped > 0, "faults actually injected");
        assert_eq!(
            faulty.stats.msgs_retransmitted, faulty.stats.msgs_dropped,
            "every drop is retransmitted"
        );
        assert_eq!(
            faulty.stats.dups_discarded, faulty.stats.msgs_duplicated,
            "every duplicate is discarded"
        );
        assert_eq!(
            faulty.base.log, clean.base.log,
            "the fold input is unchanged"
        );
        assert_eq!(faulty.fingerprint, clean.fingerprint);
        assert_eq!(faulty.stats.audit_failures, 0);
    }

    #[test]
    fn revocation_freezes_then_retry_readmits() {
        // Heavy tenants (the platform buys real capacity), long holds
        // (deadlines outlive the freeze), a harsh mid-trace revocation,
        // retries enabled: displaced tenants must come back once
        // capacity thaws.
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
        let report = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan).0;
        assert_eq!(report.stats.revocations, 1);
        assert!(
            report.stats.retry_enqueued > 0,
            "the revocation displaced tenants"
        );
        assert!(
            report.readmission_rate() >= 0.9,
            "readmission {:.2} below bar ({} of {})",
            report.readmission_rate(),
            report.stats.readmitted,
            report.stats.retry_enqueued
        );
        assert!(report.base.log.iter().any(|l| l.contains(" readmit ")));
        assert_eq!(
            report.stats.audit_failures, 0,
            "{:?}",
            report.stats.audit_first
        );
    }

    #[test]
    fn degradation_sheds_lowest_value_and_audits_clean() {
        // Tight capacity (revocation with no thaw until late), heavy
        // tenants, pressure-triggered shedding.
        let params = TraceParams::poisson(1.5, 40.0, 24.0)
            .with_tenant_ops(12, 20)
            .with_tenant_rho(2.0, 4.0);
        let trace = generate_trace(&params, 6);
        let spec = FaultSpec::seeded(17)
            .with_revocation(6.0, 22.0, 0.7)
            .with_retry(RetryPolicy::standard())
            .with_degradation(2, 1)
            .with_ticks(1.0);
        let plan = FaultPlan::instantiate(&spec, params.horizon);
        let opts = ShardOptions {
            shards: 2,
            workers: 1,
        };
        let report = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan).0;
        assert!(report.stats.shed > 0, "pressure must trigger shedding");
        assert!(report.base.log.iter().any(|l| l.contains(" shed ")));
        assert_eq!(
            report.stats.audit_failures, 0,
            "{:?}",
            report.stats.audit_first
        );
    }

    #[test]
    fn chaos_replay_is_worker_count_independent() {
        let trace = trace(8);
        let spec = FaultSpec::seeded(31)
            .with_crashes(0.2)
            .with_racks(0.08, 2)
            .with_msg_faults(0.1, 0.05, 0.05)
            .with_retry(RetryPolicy::standard())
            .with_ticks(2.0);
        let plan = FaultPlan::instantiate(&spec, trace.params.horizon);
        let opts1 = ShardOptions {
            shards: 3,
            workers: 1,
        };
        let (base, base_state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts1, &plan);
        for workers in [2usize, 4] {
            let opts = ShardOptions { shards: 3, workers };
            let (other, state) = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan);
            assert_eq!(base.base.log, other.base.log, "{workers} workers");
            assert_eq!(base.stats, other.stats);
            assert_eq!(base_state.fingerprint(), state.fingerprint());
        }
    }

    #[test]
    fn fault_schedule_is_shard_count_independent() {
        // The satellite pin: the *schedule* (times, kinds, draws) never
        // depends on the shard count — only replay-time routing does.
        let spec = FaultSpec::seeded(41)
            .with_crashes(0.25)
            .with_racks(0.1, 2)
            .with_revocation(5.0, 9.0, 0.3);
        let plan = FaultPlan::instantiate(&spec, 20.0);
        let trace = generate_trace(&TraceParams::poisson(0.7, 5.0, 20.0), 12);
        let mut crash_counts = Vec::new();
        for shards in [1usize, 2, 4] {
            let opts = ShardOptions { shards, workers: 2 };
            let report = replay_trace_chaos(&trace, &ServeConfig::default(), &opts, &plan).0;
            assert_eq!(
                report.stats.crashes,
                plan.crash_count(),
                "{shards} shards replay the same crash schedule"
            );
            assert_eq!(report.stats.rack_failures, 2.min(plan.events.len()));
            crash_counts.push(report.stats.crashes);
        }
        assert!(crash_counts.windows(2).all(|w| w[0] == w[1]));
    }

    /// Builds a synthetic trace snapshot spanning `ticks` ticks with one
    /// Det admit per shard per tick plus an overlay steal marker.
    fn flight_snapshot(ticks: u64, shards: u32) -> snsp_telemetry::trace::TraceSnapshot {
        use snsp_telemetry::trace::{LogicalTime, TraceEvent, TraceEventKind};
        let mut events = Vec::new();
        for tick in 1..=ticks {
            for shard in 0..shards {
                events.push(TraceEvent {
                    run: 0,
                    time: LogicalTime {
                        tick,
                        shard,
                        seq: 0,
                    },
                    class: Class::Det,
                    kind: TraceEventKind::Admit {
                        tenant: u64::from(shard),
                        new_procs: 1,
                        reused_procs: 0,
                    },
                    wall_us: 0.0,
                });
            }
            events.push(TraceEvent {
                run: 0,
                time: LogicalTime {
                    tick,
                    shard: 0,
                    seq: 1,
                },
                class: Class::Overlay,
                kind: TraceEventKind::Steal { worker: 1 },
                wall_us: 0.0,
            });
        }
        snsp_telemetry::trace::TraceSnapshot { events, dropped: 0 }
    }

    #[test]
    fn flight_dump_retains_the_window_and_names_the_first_divergent_event() {
        // 12 ticks recorded, window of FLIGHT_WINDOW_TICKS: ticks 5..=12
        // survive, and the first divergent event is the earliest Det
        // event on the suspect shard inside the window.
        let snap = flight_snapshot(12, 2);
        let doc = flight_dump_json(&snap, "audit-failure", "s1: oversubscribed", Some(1), 12);
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("flight"));
        assert_eq!(
            doc.get("reason").and_then(Json::as_str),
            Some("audit-failure")
        );
        let window = doc.get("window").and_then(Json::as_arr).expect("window");
        let ticks: Vec<i64> = window
            .iter()
            .filter_map(|e| e.get("tick").and_then(Json::as_int))
            .collect();
        assert_eq!(ticks.iter().min(), Some(&5), "oldest retained tick");
        assert_eq!(ticks.iter().max(), Some(&12));
        let first = doc.get("first_divergent").expect("divergent event");
        assert_eq!(first.get("tick").and_then(Json::as_int), Some(5));
        assert_eq!(first.get("shard").and_then(Json::as_int), Some(1));
        assert_eq!(first.get("event").and_then(Json::as_str), Some("admit"));
        assert_eq!(first.get("class").and_then(Json::as_str), Some("det"));
    }

    #[test]
    fn flight_dump_without_a_suspect_falls_back_to_the_window_head() {
        let snap = flight_snapshot(3, 2);
        let doc = flight_dump_json(&snap, "pool-panic", "worker panicked", None, 3);
        let first = doc.get("first_divergent").expect("head event");
        assert_eq!(first.get("tick").and_then(Json::as_int), Some(1));
        assert_eq!(first.get("shard").and_then(Json::as_int), Some(0));
        // An empty window degrades to null, not a panic.
        let empty = snsp_telemetry::trace::TraceSnapshot {
            events: Vec::new(),
            dropped: 0,
        };
        let doc = flight_dump_json(&empty, "audit-failure", "x", Some(0), 0);
        assert!(matches!(doc.get("first_divergent"), Some(Json::Null)));
    }
}
