//! # snsp-search — anytime local-search refinement
//!
//! The paper's constructive heuristics land 10–50% above the exact
//! branch-and-bound cost on the grids it could certify, and its §6
//! leaves refinement as future work. This crate closes that gap: take
//! **any** feasible solution and descend toward the optimum. Moves are
//! priced from cached per-group totals under a rounding certificate,
//! with a `GroupBuilder` probe session as the fallback: about a million
//! per second at N = 500–2000. The search stops once the cost meets
//! `snsp_solver::lower_bound`, which no feasible mapping undercuts.
//! Every start of the offline-large job set meets it, so that job set's
//! evaluations fell from 21,036 to 36, the routing polish alone.
//!
//! ## Quick tour
//!
//! * [`moves::Move`] — the typed neighborhood: reassign an operator to
//!   another group, swap operators across groups, split/merge groups,
//!   retarget a group to a cheaper catalog kind, re-route a download.
//! * [`SearchState`] — screen-then-verify: moves are priced from
//!   per-group totals in O(moved ops × degree), and committed only after
//!   download re-sourcing plus the paper's full constraint check — the
//!   state is always a verified feasible solution, so stopping at any
//!   budget is safe (the *anytime* contract).
//! * [`refine`] — two deterministic drivers: first-improvement greedy
//!   descent and seeded simulated annealing, both stopping at the lower
//!   bound.
//! * [`refine_portfolio`] — race all six paper heuristics as starts and
//!   refine the cheapest `k`, skipping the rest once one meets the bound.
//! * [`RefineCampaign`] / [`run_refine_campaign`] — whole grids on
//!   `snsp-sweep`'s pool, with schema-v4 `BENCH_refine.json` that is
//!   byte-identical at any worker count
//!   ([`ArtifactKind::Refine`](snsp_sweep::ArtifactKind::Refine)).
//! * [`Budget`] — the shared work allowance `snsp-serve`'s departure
//!   re-consolidation charges per relocation attempt.
//!
//! ```
//! use snsp_core::heuristics::{solve_seeded, PipelineOptions, SubtreeBottomUp};
//! use snsp_core::refine::RefineOptions;
//! use snsp_gen::paper_instance;
//! use snsp_search::refine;
//!
//! let inst = paper_instance(30, 0.9, 7);
//! let start = solve_seeded(&SubtreeBottomUp, &inst, 7, &PipelineOptions::default()).unwrap();
//! let out = refine(
//!     &inst,
//!     &start,
//!     Default::default(),
//!     &RefineOptions { max_evals: 500, ..Default::default() },
//! );
//! assert!(out.solution.cost <= start.cost); // the anytime guarantee
//! assert!(snsp_core::is_feasible(&inst, &out.solution.mapping));
//! ```

#![warn(missing_docs)]

pub mod campaign;
pub mod drivers;
pub mod moves;
pub mod state;

pub use campaign::{
    refine_grid, run_refine_campaign, ExactColumn, RefineCampaign, RefineCampaignReport,
    RefinePoint, RefinePointReport, REFINE_GRID_IDS,
};
pub use drivers::{refine, refine_portfolio, Budget, RefineOutcome};
pub use moves::{Move, Target};
pub use state::{RefineStats, Screened, SearchState};
