//! # snsp-sweep — parallel campaign subsystem
//!
//! The paper's results are whole scenario grids: feasibility walls and
//! cost curves swept over N, α and platform parameters. This crate turns
//! such a grid into a **campaign**: the cross product
//! `scenario point × heuristic × seed` flattened into independent jobs,
//! drained from the same task deque as the parallel branch-and-bound
//! ([`snsp_core::pool`]), and folded by a typed sink into a versioned,
//! machine-readable `BENCH_sweep.json`.
//!
//! [`run_grid`] is the driver every campaign kind shares — this crate's
//! sweep, `snsp-search`'s refinement campaigns and `snsp-serve`'s serve
//! and chaos campaigns. It resolves the worker count, lays each point's
//! cells out point-major on [`snsp_core::pool::run_jobs`] (which seeds
//! the deque with the job indices), folds each point in grid order and
//! times the phases ([`PhaseTiming`]). Their writers, and the perf
//! writer, fill one document skeleton
//! ([`ArtifactKind::document`]): the kind's header, `campaign`, `config`
//! with `seeds` first, `results`, and in timed form the `timing` block
//! ([`PhaseTiming::to_json`]).
//!
//! Three guarantees:
//!
//! * **Scheduling-independent determinism** — every job derives its RNG
//!   from its grid coordinates ([`solve_seeded`] under the hood), and
//!   aggregation runs in grid order, so the stable report is
//!   byte-identical at any worker count.
//! * **Machine-readable output** — schema v1 (see [`sink`]) is written
//!   by a hand-rolled serializer and checked against its field table
//!   ([`json`], [`schema`]); the offline vendor set has no serde.
//! * **Exact reference** — a campaign can carry a branch-and-bound
//!   reference column on small points ([`ReferenceConfig`]), reporting
//!   `optimal = false` whenever the node budget truncated the search.
//!
//! ```
//! use snsp_gen::ScenarioParams;
//! use snsp_sweep::{run_campaign, Campaign, PointSpec};
//!
//! let campaign = Campaign::new(
//!     "demo",
//!     (10..=20)
//!         .step_by(5)
//!         .map(|n| PointSpec::new(n.to_string(), ScenarioParams::paper(n, 0.9)))
//!         .collect(),
//!     3,
//! );
//! let report = run_campaign(&campaign);
//! assert_eq!(report.points.len(), 3);
//! snsp_sweep::ArtifactKind::Sweep.validate(&report.render_json(true)).unwrap();
//! ```
//!
//! [`solve_seeded`]: snsp_core::heuristics::solve_seeded

#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod json;
pub mod schema;
pub mod sink;
pub mod tracefile;

pub use campaign::{
    run_campaign, run_grid, Campaign, PointSpec, ReferenceConfig, PIPELINE_SEED_STRIDE,
};
pub use diff::{diff_reports, DiffEntry, DiffKind, DiffOptions, DiffReport};
pub use json::Json;
pub use schema::{validate, ArtifactKind};
pub use sink::{CampaignReport, HeurStats, PhaseTiming, PointReport, ReferenceStats};
pub use tracefile::{chrome_trace_json, trace_json};
