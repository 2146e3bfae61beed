//! # snsp-serve — online multi-tenant serving over a shared platform
//!
//! The paper provisions a platform once, for one application. Its §6
//! names concurrent applications as the open direction, and
//! `snsp_core::multi` solves the *offline* version. This crate closes
//! the loop for a production setting: tenants **arrive and depart over
//! time** (`snsp_gen::arrival` traces — Poisson arrivals, heavy-tailed
//! holding times, bursts, processor failures), and the platform stays
//! paid-for and shared while it elastically grows and shrinks.
//!
//! ## Quick tour
//!
//! * [`LivePlatform`] — the live state: purchased processors, resident
//!   tenants, download streams. Each arrival runs **incremental
//!   placement**: the heuristic's groups are first-fit packed onto
//!   already-purchased machines (joint-demand feasibility via
//!   `snsp_core::multi::shared_demand`, shared downloads via the
//!   `DownloadLedger`) before any new machine is bought; departures
//!   reclaim streams and machines and trigger an opportunistic
//!   re-consolidation + downgrade pass; failures re-map displaced
//!   operators or evict their tenants (the failure model is spelled out
//!   in [`fault`]).
//! * **One replay engine** ([`sim`]). [`replay_trace_chaos`] walks a
//!   trace over a [`ShardedPlatform`] under a [`FaultPlan`]: tenants
//!   hash to shards that own disjoint processor pools, per-tick batches
//!   replay in parallel on `snsp-sweep`'s pool, and each committed event
//!   travels as a [`ShardMsg`] folded deterministically at tick barriers
//!   — same event log at any worker count. [`replay_trace_sharded`] is
//!   the engine under [`FaultPlan::none`], and [`run_trace`] is that at
//!   one shard. Every run yields a [`TraceReport`]: admission rate,
//!   `∫ cost dt`, utilization, SLO violations spot-validated by running
//!   `snsp_engine` on per-tenant projections of the platform snapshot.
//! * **One event record.** A [`ServeEvent`] is the single source of
//!   every serve log line ([`ServeEvent::render`]), every Det trace
//!   event ([`ServeEvent::trace_kind`]) and every `serve.*` counter.
//! * [`ServeCampaign`] / [`run_serve_campaign`] — whole trace grids on
//!   `snsp-sweep`'s pool. Each [`ServePoint`] carries its own
//!   [`FaultSpec`] (all off by default), and one
//!   [`ServeCampaignReport`] renders both the schema-v3 serve artifact
//!   ([`ArtifactKind::Serve`](snsp_sweep::ArtifactKind::Serve)) and
//!   the schema-v6 chaos artifact
//!   ([`ArtifactKind::Chaos`](snsp_sweep::ArtifactKind::Chaos)),
//!   whose stable forms are byte-identical at any worker count.
//!
//! ```
//! use snsp_gen::{generate_trace, TraceParams};
//! use snsp_serve::{run_trace, ServeConfig};
//!
//! let trace = generate_trace(&TraceParams::poisson(0.3, 5.0, 20.0), 42);
//! let report = run_trace(&trace, &ServeConfig::default());
//! assert_eq!(report.admitted + report.rejected, report.arrivals);
//! assert_eq!(report.slo_violations, 0); // admissions hold up in the engine
//! assert!(report.cost_time_integral >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod fault;
pub mod platform;
pub mod report;
pub mod shard;
pub mod sim;

pub use campaign::{
    run_serve_campaign, ServeCampaign, ServeCampaignReport, ServePoint, ServePointReport,
};
pub use fault::{
    audit_platform, ChaosReport, ChaosStats, DegradePolicy, FaultEvent, FaultKind, FaultPlan,
    FaultSpec, RetryPolicy,
};
pub use platform::{
    AdmitError, AdmitOutcome, FailOutcome, LivePlatform, Tenant, DEFAULT_DEPART_EVALS,
};
pub use report::{percentile, TraceReport};
pub use shard::{
    shard_of, FailCause, ServeEvent, ShardLoad, ShardMsg, ShardOptions, ShardedPlatform,
};
pub use sim::{replay_trace_chaos, replay_trace_sharded, run_trace, ServeConfig};
