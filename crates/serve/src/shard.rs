//! The sharded serve tier: tenant-partitioned live platforms, and the
//! one typed event record their replay speaks.
//!
//! A single [`LivePlatform`] serializes
//! every admission, departure and failure through one mutable structure,
//! so replay is single-threaded no matter how many cores exist. This
//! module partitions that state the way Noria shards its dataflow: the
//! common case never takes a global lock.
//!
//! * **Tenants hash to a shard** ([`shard_of`], a pure FNV-1a routing
//!   function), and a tenant's whole lifetime — admission, packing,
//!   departure, consolidation — runs against that shard's private
//!   [`LivePlatform`]: its own purchased slot table, its own
//!   [`DownloadLedger`](snsp_core::multi::DownloadLedger), its own
//!   consolidation scratch.
//! * **The platform is statically partitioned.** Processor pools are
//!   disjoint by construction (each shard buys its own machines) and
//!   every processor-to-processor edge of one tenant stays inside one
//!   shard, so per-link bandwidths keep their full value. The only
//!   genuinely shared resource is each data server's NIC total, which is
//!   split evenly: a shard sees `Bs_l / shards` of every server card.
//!   One shard is therefore *identical* to the unsharded platform.
//! * **Cross-shard effects are messages, resolved at tick barriers.**
//!   Shards never read each other's state. During a tick every shard
//!   replays its private event batch and reports each
//!   committed event as a [`ShardMsg`]: a typed [`ServeEvent`] plus the
//!   shard's [`ShardLoad`] after it. The replay engine
//!   ([`crate::sim`]) folds the messages in `(time, shard, seq)` order
//!   and resolves the events that need a global view, such as a
//!   [`ProcessorFail`](snsp_gen::TraceEvent::ProcessorFail) lottery drawn
//!   over the concatenation of every shard's live slots
//!   ([`ShardedPlatform::fail`]).
//!
//! [`ServeEvent`] is the single record behind every serve log line
//! ([`ServeEvent::render`]), every Det trace event
//! ([`ServeEvent::trace_kind`]) and every `serve.*` counter, so the three
//! cannot disagree.
//!
//! Changing the *shard count* is a semantic configuration change (it
//! moves tenants between pools), like changing a grid point; the
//! determinism contract holds per shard count.
//!
//! ```
//! use snsp_gen::{generate_trace, TraceParams};
//! use snsp_serve::{replay_trace_sharded, ServeConfig, ShardOptions};
//!
//! let trace = generate_trace(&TraceParams::poisson(0.4, 4.0, 15.0), 7);
//! let opts = ShardOptions { shards: 2, workers: 2 };
//! let (a, _) = replay_trace_sharded(&trace, &ServeConfig::default(), &opts);
//! let (b, _) = replay_trace_sharded(&trace, &ServeConfig::default(), &opts);
//! assert_eq!(a.log, b.log); // deterministic replay, sharded or not
//! assert_eq!(a.admitted + a.rejected, a.arrivals);
//! ```

use std::path::PathBuf;
use std::time::Instant;

use snsp_core::heuristics::SubtreeBottomUp;
use snsp_core::ids::{ProcId, TenantId};
use snsp_core::object::ObjectCatalog;
use snsp_core::platform::Platform;
use snsp_gen::{tenant_instance, TenantSpec, TimedEvent, TraceEvent};
use snsp_sweep::PIPELINE_SEED_STRIDE;
use snsp_telemetry::trace::{LogicalTime, TraceEventKind};
use snsp_telemetry::Class;

use crate::platform::{AdmitError, AdmitOutcome, LivePlatform};
use crate::report::{fnv1a, FNV_OFFSET};
use crate::sim::{validate_residents, ServeConfig};

/// How a sharded replay is partitioned and driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Number of tenant shards (clamped to at least 1). One shard is
    /// semantically identical to the unsharded [`LivePlatform`] path.
    pub shards: usize,
    /// Worker threads driving the per-tick shard batches (clamped to at
    /// least 1). Affects wall-clock only — never results.
    pub workers: usize,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            workers: 1,
        }
    }
}

impl ShardOptions {
    /// Options with both fields clamped to at least 1.
    pub fn clamped(&self) -> Self {
        ShardOptions {
            shards: self.shards.max(1),
            workers: self.workers.max(1),
        }
    }
}

/// Routes a tenant to its shard: FNV-1a over the tenant id, modulo the
/// shard count. Pure and stable — the same tenant lands on the same
/// shard in every replay of every trace.
pub fn shard_of(tenant: TenantId, shards: usize) -> usize {
    (fnv1a(FNV_OFFSET, tenant.0.to_be_bytes()) % shards.max(1) as u64) as usize
}

/// What killed a processor: the verb of its log line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailCause {
    /// A trace `ProcessorFail` lottery (`fail`).
    Trace,
    /// One kill of a correlated rack burst (`rack-fail`).
    Rack,
    /// One kill of a capacity revocation (`revoke-kill`).
    Revocation,
}

/// One committed serve event. Shard events travel to the coordinator as
/// [`ShardMsg`]s; coordinator events (revocation markers, retry expiry,
/// flight dumps) change no shard's load.
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A tenant was admitted on its home shard.
    Admitted {
        /// The tenant.
        tenant: TenantId,
        /// Operator count of its tree.
        n_ops: usize,
        /// Its target throughput ρ.
        rho: f64,
        /// Trace time it departs.
        deadline: f64,
        /// Machines bought for it (a *buy* visible to the global ledger).
        new_procs: usize,
        /// Already-owned machines it was packed onto.
        reused_procs: usize,
    },
    /// An arrival was refused; no state changed.
    Rejected {
        /// The refused tenant (the retry queue may re-admit it later).
        tenant: TenantId,
        /// Operator count of its tree.
        n_ops: usize,
        /// Why admission control refused it.
        reason: AdmitError,
    },
    /// A tenant departed; machines and streams were reclaimed.
    Departed {
        /// The departed tenant.
        tenant: TenantId,
    },
    /// A processor died and its displaced blocks were resolved on the
    /// owning shard.
    Failed {
        /// What killed it.
        cause: FailCause,
        /// The dead slot.
        victim: ProcId,
        /// Tenants whose displaced blocks were re-mapped in-shard.
        remapped: usize,
        /// Tenants evicted (each also reported as [`ServeEvent::Evicted`]).
        evicted: Vec<TenantId>,
    },
    /// A failure evicted this tenant (the cross-shard *evict* notice).
    Evicted {
        /// The evicted tenant.
        tenant: TenantId,
    },
    /// Engine validation ran on one shard's residents.
    SloChecked {
        /// Projections validated.
        checks: usize,
        /// Residents below the SLO bar, with the engine's verdict.
        violations: Vec<(TenantId, String)>,
    },
    /// The retry queue re-admitted a displaced tenant.
    Readmitted {
        /// The tenant.
        tenant: TenantId,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
    /// Graceful degradation shed a resident.
    Shed {
        /// The shed tenant.
        tenant: TenantId,
        /// Its value `ρ·Σwork` (the shed order key).
        value: f64,
    },
    /// A retry entry reached its tenant's deadline before readmission.
    RetryExpired {
        /// The tenant.
        tenant: TenantId,
    },
    /// A retry entry ran out of attempts.
    RetryDropped {
        /// The tenant.
        tenant: TenantId,
        /// Attempts made.
        attempts: u32,
    },
    /// A capacity revocation killed processors and froze purchases.
    Revoked {
        /// Fraction of the live processors revoked.
        frac: f64,
        /// Processors killed.
        killed: usize,
    },
    /// The revocation window closed; purchases thawed.
    Restored,
    /// The flight recorder wrote a crash dump.
    FlightDump {
        /// What triggered it.
        reason: String,
        /// Where the dump went.
        path: PathBuf,
    },
}

impl ServeEvent {
    /// Appends this event's log lines at trace time `time` — the one
    /// place a serve log line is formatted. Shard events pass
    /// `(shard, load after the event)`; coordinator events pass `None`.
    pub fn render(&self, time: f64, from: Option<(usize, &ShardLoad)>, log: &mut Vec<String>) {
        let t = time;
        let (s, procs, cost) = from.map_or((0, 0, 0), |(s, l)| (s, l.procs, l.cost));
        log.push(match self {
            ServeEvent::Admitted {
                tenant,
                n_ops,
                rho,
                deadline,
                new_procs,
                reused_procs,
            } => format!(
                "{t:.6} s{s} admit t{tenant} n={n_ops} rho={rho:.3} until={deadline:.6} \
                 new={new_procs} reuse={reused_procs} procs={procs} cost={cost}"
            ),
            ServeEvent::Rejected {
                tenant,
                n_ops,
                reason,
            } => format!("{t:.6} s{s} reject t{tenant} n={n_ops} ({reason})"),
            ServeEvent::Departed { tenant } => {
                format!("{t:.6} s{s} depart t{tenant} procs={procs} cost={cost}")
            }
            ServeEvent::Failed {
                cause,
                victim,
                remapped,
                evicted,
            } => {
                let verb = match cause {
                    FailCause::Trace => "fail",
                    FailCause::Rack => "rack-fail",
                    FailCause::Revocation => "revoke-kill",
                };
                let evicted: Vec<String> = evicted.iter().map(|id| format!("t{id}")).collect();
                format!(
                    "{t:.6} s{s} {verb} p{victim} remapped={remapped} evicted=[{}] \
                     procs={procs} cost={cost}",
                    evicted.join(",")
                )
            }
            ServeEvent::Evicted { .. } => return,
            ServeEvent::SloChecked { violations, .. } => {
                log.extend(
                    violations
                        .iter()
                        .map(|(id, why)| format!("{t:.6} slo-violation t{id} ({why})")),
                );
                return;
            }
            ServeEvent::Readmitted { tenant, attempt } => {
                format!("{t:.6} s{s} readmit t{tenant} attempt={attempt} procs={procs} cost={cost}")
            }
            ServeEvent::Shed { tenant, value } => {
                format!("{t:.6} s{s} shed t{tenant} value={value:.3} procs={procs} cost={cost}")
            }
            ServeEvent::RetryExpired { tenant } => format!("{t:.6} retry-expire t{tenant}"),
            ServeEvent::RetryDropped { tenant, attempts } => {
                format!("{t:.6} retry-drop t{tenant} attempts={attempts}")
            }
            ServeEvent::Revoked { frac, killed } => {
                format!("{t:.6} revoke frac={frac:.3} killed={killed} frozen")
            }
            ServeEvent::Restored => format!("{t:.6} restore thawed"),
            ServeEvent::FlightDump { reason, path } => {
                format!("flight-dump {reason} -> {}", path.display())
            }
        });
    }

    /// The Det trace event this event records, if it has one.
    pub fn trace_kind(&self) -> Option<TraceEventKind> {
        Some(match *self {
            ServeEvent::Admitted {
                tenant,
                new_procs,
                reused_procs,
                ..
            } => TraceEventKind::Admit {
                tenant: tenant.0 as u64,
                new_procs: new_procs as u64,
                reused_procs: reused_procs as u64,
            },
            ServeEvent::Rejected { tenant, .. } => TraceEventKind::Reject {
                tenant: tenant.0 as u64,
            },
            ServeEvent::Departed { tenant } => TraceEventKind::Depart {
                tenant: tenant.0 as u64,
            },
            ServeEvent::Evicted { tenant } => TraceEventKind::Evict {
                tenant: tenant.0 as u64,
            },
            ServeEvent::Readmitted { tenant, attempt } => TraceEventKind::RetryAdmit {
                tenant: tenant.0 as u64,
                attempt: attempt as u64,
            },
            ServeEvent::Shed { tenant, .. } => TraceEventKind::Shed {
                tenant: tenant.0 as u64,
            },
            _ => return None,
        })
    }

    /// Static kind label, used by the trace layer's `msg_send`/`msg_fold`
    /// events.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            ServeEvent::Admitted { .. } => "admitted",
            ServeEvent::Rejected { .. } => "rejected",
            ServeEvent::Departed { .. } => "departed",
            ServeEvent::Failed { .. } => "failed",
            ServeEvent::Evicted { .. } => "evicted",
            ServeEvent::SloChecked { .. } => "slo_checked",
            ServeEvent::Readmitted { .. } => "readmitted",
            ServeEvent::Shed { .. } => "shed",
            ServeEvent::RetryExpired { .. } => "retry_expired",
            ServeEvent::RetryDropped { .. } => "retry_dropped",
            ServeEvent::Revoked { .. } => "revoked",
            ServeEvent::Restored => "restored",
            ServeEvent::FlightDump { .. } => "flight_dump",
        }
    }
}

/// A shard's accounting after an event: what the coordinator integrates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardLoad {
    /// Platform cost, in dollars.
    pub cost: u64,
    /// Live processors.
    pub procs: usize,
    /// Demanded Gop/s.
    pub used: f64,
    /// Purchased Gop/s.
    pub speed: f64,
}

impl ShardLoad {
    /// `live`'s current load.
    pub(crate) fn of(live: &LivePlatform) -> Self {
        let (used, speed) = live.cpu_load();
        ShardLoad {
            cost: live.cost(),
            procs: live.proc_count(),
            used,
            speed,
        }
    }
}

/// One message from a shard to the coordinator: a committed
/// [`ServeEvent`] and the shard's load after it, stamped for
/// deterministic folding.
#[derive(Debug, Clone)]
pub struct ShardMsg {
    /// Trace time of the event.
    pub time: f64,
    /// Originating shard.
    pub shard: usize,
    /// Per-shard, per-tick sequence number (tie-break for equal times).
    pub seq: u32,
    /// What happened.
    pub event: ServeEvent,
    /// The shard's load after the event.
    pub load: ShardLoad,
}

/// Records one Det-class trace event for this replay, stamped with the
/// run discriminator (the trace seed) and the logical time
/// `(tick, shard, seq)` (no-op while tracing is inactive).
pub(crate) fn trace_det(run: u64, tick: u64, shard: usize, seq: u32, kind: TraceEventKind) {
    let time = LogicalTime {
        tick,
        shard: shard as u32,
        seq,
    };
    snsp_telemetry::trace::record(Class::Det, run, time, kind);
}

/// A tenant-partitioned set of [`LivePlatform`]s over one shared trace
/// environment.
///
/// Construction splits each data server's NIC bandwidth evenly across
/// the shards (the only cross-shard-shared resource; see the module
/// docs); every other capacity keeps its full value. With `shards == 1`
/// the single shard is bit-identical to the unsharded platform.
#[derive(Debug, Clone)]
pub struct ShardedPlatform {
    shards: Vec<LivePlatform>,
}

impl ShardedPlatform {
    /// Partitions `platform` into `shards` (clamped to at least 1)
    /// private live platforms.
    pub fn new(objects: ObjectCatalog, platform: Platform, shards: usize) -> Self {
        let shards = shards.max(1);
        let mut view = platform;
        for server in &mut view.servers {
            server.nic_bandwidth /= shards as f64;
        }
        ShardedPlatform {
            shards: (0..shards)
                .map(|_| LivePlatform::new(objects.clone(), view.clone()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// One shard's live platform.
    pub fn shard(&self, s: usize) -> &LivePlatform {
        &self.shards[s]
    }

    /// Mutable access to one shard (chaos replay: checkpoint restore,
    /// shedding).
    pub(crate) fn shard_mut(&mut self, s: usize) -> &mut LivePlatform {
        &mut self.shards[s]
    }

    /// Mutable access to every shard at once (the engine hands each
    /// worker one exclusive cell).
    pub(crate) fn shards_mut(&mut self) -> &mut [LivePlatform] {
        &mut self.shards
    }

    /// The shard `tenant` routes to.
    pub fn route(&self, tenant: TenantId) -> usize {
        shard_of(tenant, self.shards.len())
    }

    /// Total platform cost across shards, in dollars.
    pub fn cost(&self) -> u64 {
        self.shards.iter().map(LivePlatform::cost).sum()
    }

    /// Total live processors across shards.
    pub fn proc_count(&self) -> usize {
        self.shards.iter().map(LivePlatform::proc_count).sum()
    }

    /// Total resident tenants across shards.
    pub fn tenant_count(&self) -> usize {
        self.shards.iter().map(LivePlatform::tenant_count).sum()
    }

    /// Admits `id` on its home shard, generating the tenant's instance
    /// against that shard's partitioned platform view.
    pub fn admit_spec(
        &mut self,
        id: TenantId,
        spec: &TenantSpec,
        heuristic: &dyn snsp_core::heuristics::Heuristic,
        seed: u64,
        opts: &snsp_core::heuristics::PipelineOptions,
    ) -> Result<AdmitOutcome, AdmitError> {
        let s = self.route(id);
        let shard = &mut self.shards[s];
        let inst = tenant_instance(shard.objects(), shard.platform(), spec);
        shard.admit(id, inst, heuristic, seed, opts)
    }

    /// Departs `id` from its home shard. `false` if not resident.
    pub fn depart(&mut self, id: TenantId) -> bool {
        let s = self.route(id);
        self.shards[s].depart(id)
    }

    /// Resolves a global failure lottery: the victim is drawn over the
    /// concatenation of every shard's live slots (in shard order) and the
    /// failure is executed on the owning shard. Returns the victim shard
    /// and its [`FailOutcome`](crate::platform::FailOutcome); `None` when
    /// no processor is live anywhere.
    pub fn fail(&mut self, lottery: u64) -> Option<(usize, crate::platform::FailOutcome)> {
        let total: usize = self.shards.iter().map(LivePlatform::proc_count).sum();
        if total == 0 {
            return None;
        }
        let mut idx = (lottery % total as u64) as usize;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let live = shard.proc_count();
            if idx < live {
                let victim = shard.live_slots()[idx];
                return Some((s, shard.fail_slot(victim)));
            }
            idx -= live;
        }
        unreachable!("lottery index within total live count")
    }

    /// A structural FNV-1a fingerprint of the final state: per shard (in
    /// shard order) the cost, purchased kinds, resident tenants with
    /// their full assignments, and the sorted download set. Two platforms
    /// fingerprint equal iff their compacted snapshots are identical.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut text = format!("shard {s} cost {}", shard.cost());
            if let Some((_, sol)) = shard.snapshot() {
                text.push_str(&format!(" kinds {:?}", sol.proc_kinds));
                for (id, assignment) in shard.tenant_ids().iter().zip(&sol.assignments) {
                    text.push_str(&format!(" t{id} {assignment:?}"));
                }
                text.push_str(&format!(" downloads {:?}", sol.downloads));
            }
            h = fnv1a(h, text.bytes().chain([b'\n']));
        }
        h
    }
}

/// Replays one shard's tick batch against its private platform — the
/// shard half of the protocol. Returns the messages it sends the
/// coordinator (recording each one's Det trace event and `msg_send` at
/// `(tick, shard, seq)`) and the wall-clock, thus unstable,
/// admission-latency samples.
pub(crate) fn replay_batch(
    shard: usize,
    live: &mut LivePlatform,
    batch: &[TimedEvent],
    run: u64,
    config: &ServeConfig,
    admitted: &mut usize,
    tick: u64,
) -> (Vec<ShardMsg>, Vec<f64>) {
    let mut msgs: Vec<ShardMsg> = Vec::new();
    let mut latencies = Vec::new();
    let mut send = |live: &LivePlatform, time: f64, event: ServeEvent| {
        let seq = msgs.len() as u32;
        if let Some(kind) = event.trace_kind() {
            trace_det(run, tick, shard, seq, kind);
        }
        let msg = event.label();
        trace_det(run, tick, shard, seq, TraceEventKind::MsgSend { msg });
        let load = ShardLoad::of(live);
        msgs.push(ShardMsg {
            time,
            shard,
            seq,
            event,
            load,
        });
    };
    for ev in batch {
        let t = ev.time;
        match ev.event {
            TraceEvent::Arrive {
                tenant,
                spec,
                deadline,
            } => {
                let inst = tenant_instance(live.objects(), live.platform(), &spec);
                let seed = run ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                let started = Instant::now();
                match live.admit(tenant, inst, &SubtreeBottomUp, seed, &config.opts) {
                    Ok(out) => {
                        latencies.push(started.elapsed().as_secs_f64() * 1e6);
                        *admitted += 1;
                        let event = ServeEvent::Admitted {
                            tenant,
                            n_ops: spec.n_ops,
                            rho: spec.rho,
                            deadline,
                            new_procs: out.new_procs,
                            reused_procs: out.reused_procs,
                        };
                        send(live, t, event);
                        if config.spot_admissions > 0
                            && admitted.is_multiple_of(config.spot_admissions)
                        {
                            send(live, t, validate_residents(live, config));
                        }
                    }
                    Err(reason) => {
                        let n_ops = spec.n_ops;
                        send(
                            live,
                            t,
                            ServeEvent::Rejected {
                                tenant,
                                n_ops,
                                reason,
                            },
                        );
                    }
                }
            }
            TraceEvent::Depart { tenant } => {
                if live.depart(tenant) {
                    send(live, t, ServeEvent::Departed { tenant });
                }
            }
            TraceEvent::ProcessorFail { .. } => {
                unreachable!("failures are barrier events, never batched")
            }
        }
    }
    (msgs, latencies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::audit_platform;
    use crate::sim::replay_trace_sharded;
    use proptest::prelude::*;
    use snsp_core::multi::verify_joint;
    use snsp_gen::{generate_trace, trace_environment, TraceParams, TreeShape};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sharded platform as its own model: random admit / depart /
        /// fail / shed / freeze-and-thaw sequences keep the audit clean
        /// after every step, a refused admission and a departure or shed
        /// of a non-resident change nothing, a failure loses exactly its
        /// evictions, and no step grows the cost while purchases are
        /// frozen.
        #[test]
        fn random_operation_sequences_keep_the_platform_consistent(
            env_seed in 0u64..1000,
            shards in 1usize..5,
            steps in collection::vec(0u64..1 << 32, 10..40),
        ) {
            let params = TraceParams::poisson(0.5, 5.0, 20.0);
            let (objects, platform) = trace_environment(&params, env_seed);
            let mut sharded = ShardedPlatform::new(objects, platform, shards);
            let mut frozen = false;
            for (k, &step) in steps.iter().enumerate() {
                // A small id pool, so departures and sheds often miss.
                let (op, arg) = (step % 6, step / 6);
                let id = TenantId((arg % 16) as u32);
                let home = sharded.route(id);
                let resident = sharded.shard(home).tenant(id).is_some();
                let (cost, tenants) = (sharded.cost(), sharded.tenant_count());
                let print = sharded.fingerprint();
                let unchanged = match op {
                    0 | 1 if resident => continue,
                    0 | 1 => {
                        let spec = TenantSpec {
                            n_ops: 3 + (arg % 10) as usize,
                            alpha: 1.0,
                            rho: 0.2 + (arg % 7) as f64 * 0.5,
                            shape: TreeShape::Random,
                            tree_seed: arg,
                        };
                        let opts = Default::default();
                        sharded.admit_spec(id, &spec, &SubtreeBottomUp, arg, &opts).is_err()
                    }
                    2 => {
                        prop_assert_eq!(sharded.depart(id), resident);
                        !resident
                    }
                    3 => {
                        if let Some((_, out)) = sharded.fail(arg) {
                            let after = sharded.tenant_count();
                            prop_assert_eq!(after, tenants - out.evicted.len(), "step {}", k);
                        }
                        false
                    }
                    4 => {
                        prop_assert_eq!(sharded.shard_mut(home).shed(id), resident);
                        !resident
                    }
                    _ => {
                        frozen = !frozen;
                        for s in 0..shards {
                            sharded.shard_mut(s).set_purchase_freeze(frozen);
                        }
                        false
                    }
                };
                let audit = audit_platform(&sharded);
                prop_assert!(audit.is_ok(), "step {}: {:?}", k, audit);
                if unchanged {
                    prop_assert_eq!(sharded.fingerprint(), print, "step {} mutated", k);
                }
                if frozen {
                    prop_assert!(sharded.cost() <= cost, "step {}: cost grew frozen", k);
                }
            }
        }
    }

    #[test]
    fn routing_is_stable_and_covers_all_shards() {
        for shards in [1usize, 2, 4, 8] {
            let mut hit = vec![false; shards];
            for t in 0..64u32 {
                let s = shard_of(TenantId(t), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(TenantId(t), shards), "routing is pure");
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "64 tenants cover {shards} shards");
        }
    }

    #[test]
    fn one_shard_platform_matches_the_unsharded_view() {
        let params = TraceParams::poisson(0.5, 5.0, 20.0);
        let (objects, platform) = trace_environment(&params, 3);
        let sharded = ShardedPlatform::new(objects, platform.clone(), 1);
        let shard = sharded.shard(0);
        for (a, b) in shard.platform().servers.iter().zip(&platform.servers) {
            assert_eq!(a.nic_bandwidth, b.nic_bandwidth);
            assert_eq!(a.link_bandwidth, b.link_bandwidth);
        }
    }

    #[test]
    fn nic_capacity_is_split_evenly() {
        let params = TraceParams::poisson(0.5, 5.0, 20.0);
        let (objects, platform) = trace_environment(&params, 3);
        let sharded = ShardedPlatform::new(objects, platform.clone(), 4);
        for s in 0..4 {
            for (a, b) in sharded
                .shard(s)
                .platform()
                .servers
                .iter()
                .zip(&platform.servers)
            {
                assert!((a.nic_bandwidth - b.nic_bandwidth / 4.0).abs() < 1e-9);
                assert_eq!(a.link_bandwidth, b.link_bandwidth, "links keep full value");
            }
        }
    }

    #[test]
    fn sharded_replay_is_deterministic_across_workers() {
        let params = TraceParams::poisson(0.6, 4.0, 25.0).with_failures(0.1);
        let trace = generate_trace(&params, 11);
        for shards in [1usize, 2, 4] {
            let base = replay_trace_sharded(
                &trace,
                &ServeConfig::default(),
                &ShardOptions { shards, workers: 1 },
            )
            .0;
            for workers in [2usize, 4] {
                let other = replay_trace_sharded(
                    &trace,
                    &ServeConfig::default(),
                    &ShardOptions { shards, workers },
                )
                .0;
                assert_eq!(base.log, other.log, "{shards} shards, {workers} workers");
                assert_eq!(base.log_hash(), other.log_hash());
                assert_eq!(base.final_cost, other.final_cost);
                assert_eq!(base.cost_time_integral, other.cost_time_integral);
                assert_eq!(base.mean_utilization, other.mean_utilization);
            }
        }
    }

    #[test]
    fn every_shard_snapshot_verifies_jointly() {
        let params = TraceParams::poisson(0.8, 6.0, 20.0);
        let trace = generate_trace(&params, 5);
        let (objects, platform) = trace_environment(&params, trace.seed);
        let mut sharded = ShardedPlatform::new(objects, platform, 3);
        for ev in &trace.events {
            if let TraceEvent::Arrive { tenant, spec, .. } = ev.event {
                let seed = trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                let _ = sharded.admit_spec(
                    tenant,
                    &spec,
                    &snsp_core::heuristics::SubtreeBottomUp,
                    seed,
                    &Default::default(),
                );
            }
        }
        assert!(sharded.tenant_count() > 0);
        let mut resident = 0;
        for s in 0..sharded.shard_count() {
            let Some((multi, sol)) = sharded.shard(s).snapshot() else {
                continue;
            };
            verify_joint(&multi, &sol).expect("shard snapshot verifies");
            resident += sol.assignments.len();
        }
        assert_eq!(resident, sharded.tenant_count());
    }

    #[test]
    fn global_failure_lottery_spans_shards() {
        let params = TraceParams::poisson(1.0, 8.0, 15.0);
        let trace = generate_trace(&params, 9);
        let (objects, platform) = trace_environment(&params, trace.seed);
        let mut sharded = ShardedPlatform::new(objects, platform, 2);
        for ev in &trace.events {
            if let TraceEvent::Arrive { tenant, spec, .. } = ev.event {
                let seed = trace.seed ^ (tenant.0 as u64 + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
                let _ = sharded.admit_spec(
                    tenant,
                    &spec,
                    &snsp_core::heuristics::SubtreeBottomUp,
                    seed,
                    &Default::default(),
                );
            }
        }
        let total = sharded.proc_count();
        assert!(total >= 2, "need processors on both shards");
        let mut hit = [false; 2];
        for lottery in 0..total as u64 {
            let mut probe = sharded.clone();
            let (s, out) = probe.fail(lottery).expect("processors are live");
            assert!(out.victim.is_some());
            hit[s] = true;
        }
        assert!(hit[0] && hit[1], "the lottery reaches every shard");
        // An empty platform has no victim to draw.
        let (objects, platform) = trace_environment(&params, 1);
        let mut empty = ShardedPlatform::new(objects, platform, 2);
        assert!(empty.fail(0).is_none());
    }
}
