//! # snsp-solver — exact solvers and bounds for the operator-mapping
//! problem
//!
//! The paper assesses its heuristics against CPLEX on small homogeneous
//! instances (§5, last experiment set). This crate substitutes:
//!
//! * [`ilp`] — the explicit ILP formulation, with CPLEX LP-format export
//!   and size accounting (reproducing the paper's observation that the
//!   model explodes beyond ~20 operators);
//! * [`bb`] — an exact branch-and-bound over operator groupings with
//!   per-group cost lower bounds, giving true optima for the instance
//!   sizes the paper could solve;
//! * [`bounds`] — analytic cost lower bounds valid for every instance.
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
pub mod ilp;
pub mod inverse;

pub use bb::{solve_exact, solve_exact_reference, BranchBoundConfig, ExactResult};
pub use bounds::{lower_bound, min_processors, LowerBound};
pub use ilp::{formulate, Ilp, IlpOptions};
pub use inverse::{max_throughput_under_budget, BudgetResult};
