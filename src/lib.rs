//! # snsp — constructive in-network stream processing
//!
//! A full reproduction of *"Resource Allocation Strategies for Constructive
//! In-Network Stream Processing"* (Benoit, Casanova, Rehn-Sonigo, Robert —
//! IPDPS 2009 / APDCM): given an application expressed as a binary tree of
//! operators over continuously-updated basic objects, **buy** processors
//! from a CPU/NIC price catalog and map the operators onto them so that a
//! target steady-state throughput ρ is guaranteed, at minimum platform
//! cost.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`core`] — models, the paper's constraints (1)–(5), the six
//!   placement heuristics, server selection and the downgrade pass;
//! * [`gen`] — random workloads following the paper's §5
//!   methodology;
//! * [`solver`] — an exact branch-and-bound in place of the
//!   paper's CPLEX comparison, analytic lower bounds, and the
//!   budgeted-throughput inverse;
//! * [`engine`] — a discrete-event steady-state engine that
//!   executes mappings and measures their achieved throughput;
//! * [`sweep`] — parallel scenario-grid campaigns with
//!   machine-readable, worker-count-independent JSON reports;
//! * [`search`] — anytime local-search refinement: typed
//!   neighborhood moves screened through the incremental demand engine,
//!   greedy/annealing/portfolio drivers, and schema-v4 refinement
//!   campaigns;
//! * [`serve`] — online multi-tenant serving: trace-driven
//!   admission, incremental placement and eviction over one shared
//!   elastic platform, with a sharded tier that replays tenant
//!   partitions in parallel under a deterministic message protocol, and
//!   a fault-injection tier (`serve::fault`) proving the sharded replay
//!   survives seeded shard crashes (checkpoint/restore recovery),
//!   message faults, rack bursts and capacity revocation with retry
//!   readmission and graceful degradation — schema-v6
//!   `BENCH_chaos.json`;
//! * [`telemetry`] — zero-overhead-when-disabled counters, histograms,
//!   gauges and spans wired through the pool, the exact solver, the
//!   search drivers and the serve tier, split into a deterministic core
//!   (worker-count-independent, safe in stable artifacts) and a
//!   wall-clock overlay (schema-v5 `TELEMETRY.json`); plus the causal
//!   trace layer (`telemetry::trace`) stamping typed events with
//!   logical time — rendered by `sweep` as a deterministic schema-v7
//!   `TRACE.json`, a Chrome `trace_event` timeline, and a chaos flight
//!   recorder, with `sweep::diff` structurally run-diffing any two
//!   same-kind report artifacts.
//!
//! ## Quickstart
//!
//! ```
//! use snsp::prelude::*;
//!
//! // A random 30-operator application at the paper's baseline settings.
//! let inst = snsp::gen::paper_instance(30, 0.9, 42);
//!
//! // Map it with the paper's winning heuristic.
//! let mut rng = StdRng::seed_from_u64(0);
//! let sol = solve(&SubtreeBottomUp, &inst, &mut rng, &PipelineOptions::default()).unwrap();
//! assert!(is_feasible(&inst, &sol.mapping));
//!
//! // Execute it: the engine must sustain the target throughput.
//! let report = simulate(&inst, &sol.mapping, &SimConfig::default()).unwrap();
//! assert!(report.achieved_throughput >= inst.rho * 0.95);
//! ```
//!
//! See `examples/` for end-to-end scenarios (video surveillance, network
//! monitoring, cloud budget planning) and `crates/experiments` for the
//! harness regenerating every figure of the paper.

pub use snsp_core as core;
pub use snsp_engine as engine;
pub use snsp_gen as gen;
pub use snsp_search as search;
pub use snsp_serve as serve;
pub use snsp_solver as solver;
pub use snsp_sweep as sweep;
pub use snsp_telemetry as telemetry;

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
    pub use snsp_core::constraints::{check, is_feasible, max_throughput};
    pub use snsp_core::heuristics::{
        all_heuristics, solve, solve_seeded, CommGreedy, CompGreedy, Heuristic, ObjectAvailability,
        ObjectGrouping, PipelineOptions, Random, Solution, SubtreeBottomUp,
    };
    pub use snsp_core::ids::{OpId, ProcId, ServerId, TenantId, TypeId};
    pub use snsp_core::instance::Instance;
    pub use snsp_core::mapping::{Download, Mapping};
    pub use snsp_core::multi::{
        shared_demand, solve_joint, verify_joint, DownloadLedger, MultiInstance, MultiSolution,
        SharedDemand,
    };
    pub use snsp_core::object::{ObjectCatalog, ObjectType};
    pub use snsp_core::platform::{Catalog, Platform, ProcessorKind, Server};
    pub use snsp_core::refine::{RefineDriver, RefineOptions};
    pub use snsp_core::rewrite::{rewrite, RewriteStrategy};
    pub use snsp_core::tree::OperatorTree;
    pub use snsp_core::work::WorkModel;
    pub use snsp_engine::{meets_slo, simulate, SimConfig};
    pub use snsp_gen::{
        generate_trace, paper_instance, tenant_instance, trace_environment, Burst, ScenarioParams,
        Trace, TraceEvent, TraceParams, TreeShape,
    };
    pub use snsp_search::{
        refine, refine_portfolio, run_refine_campaign, Budget, RefineCampaign, RefineOutcome,
        RefinePoint, SearchState,
    };
    pub use snsp_serve::{
        audit_platform, replay_trace_chaos, replay_trace_sharded, run_serve_campaign, run_trace,
        shard_of, ChaosReport, DegradePolicy, FaultPlan, FaultSpec, LivePlatform, RetryPolicy,
        ServeCampaign, ServeConfig, ServePoint, ShardOptions, ShardedPlatform, TraceReport,
    };
    pub use snsp_solver::{
        lower_bound, max_throughput_under_budget, solve_exact, BranchBoundConfig,
    };
    pub use snsp_sweep::{
        run_campaign, ArtifactKind, Campaign, CampaignReport, PointSpec, ReferenceConfig,
    };
    pub use snsp_telemetry::{capture, Class, Counter, Gauge, Histogram, Snapshot, Span};
}
