//! # snsp-solver — exact solvers and bounds for the operator-mapping
//! problem
//!
//! The paper assesses its heuristics against CPLEX on small homogeneous
//! instances (§5, last experiment set), solving an ILP it leaves to a
//! research report. This crate substitutes:
//!
//! * [`bb`] — an exact branch-and-bound over operator groupings with
//!   per-group cost lower bounds, giving true optima for the instance
//!   sizes the paper could solve;
//! * [`bounds`] — analytic cost lower bounds valid for every instance,
//!   which certify a solution optimal when its cost meets them;
//! * [`inverse`] — the budgeted-throughput inverse problem (§6 future
//!   work): the highest ρ a heuristic can provision within a budget.
//!
//! ```
//! use snsp_gen::paper_instance;
//! use snsp_solver::{lower_bound, solve_exact, BranchBoundConfig};
//!
//! let inst = paper_instance(8, 0.9, 0);
//! let exact = solve_exact(&inst, &BranchBoundConfig::default());
//! assert!(exact.optimal);
//! assert!(exact.cost >= lower_bound(&inst).value());
//! ```

#![warn(missing_docs)]

pub mod bb;
pub mod bounds;
pub mod inverse;

pub use bb::{solve_exact, solve_exact_reference, BranchBoundConfig, ExactResult};
pub use bounds::{lower_bound, LowerBound};
pub use inverse::{max_throughput_under_budget, BudgetResult};
