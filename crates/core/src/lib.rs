//! # snsp-core — constructive in-network stream processing
//!
//! Models, constraints and placement heuristics from *"Resource Allocation
//! Strategies for Constructive In-Network Stream Processing"* (Benoit,
//! Casanova, Rehn-Sonigo, Robert — IPDPS 2009).
//!
//! An application is a binary [`tree::OperatorTree`] of operators whose
//! leaves are basic objects hosted on data servers. Processors are *bought*
//! from a price [`platform::Catalog`] (CPU + NIC, Table 1 of the paper) and
//! operators are mapped onto them so that a target steady-state throughput
//! ρ is met under the bounded multi-port model, at minimum platform cost.
//!
//! ## Quick tour
//!
//! * [`instance::Instance`] — one mapping problem (tree + platform + ρ).
//! * [`mapping::Mapping`] — a solution: purchases, allocation `a`, `DL(u)`.
//! * [`constraints`] — the paper's constraints (1)–(5), violation
//!   reporting and the analytic max-throughput of a mapping.
//! * [`heuristics`] — the six placement heuristics, server selection,
//!   downgrade and the verified [`heuristics::solve`] pipeline.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use snsp_core::heuristics::{solve, PipelineOptions, SubtreeBottomUp};
//! use snsp_core::ids::{ServerId, TypeId};
//! use snsp_core::instance::Instance;
//! use snsp_core::object::{ObjectCatalog, ObjectType};
//! use snsp_core::platform::Platform;
//! use snsp_core::tree::OperatorTree;
//! use snsp_core::work::WorkModel;
//!
//! // Two operators combining two 10/20 MB objects, updated every 2 s.
//! let mut objects = ObjectCatalog::new();
//! let video = objects.add(ObjectType::new(10.0, 0.5));
//! let audio = objects.add(ObjectType::new(20.0, 0.5));
//!
//! let mut b = OperatorTree::builder();
//! let correlate = b.add_root();
//! let filter = b.add_child(correlate).unwrap();
//! b.add_leaf(filter, video).unwrap();
//! b.add_leaf(filter, audio).unwrap();
//! b.add_leaf(correlate, video).unwrap();
//! let mut tree = b.finish().unwrap();
//! tree.apply_work_model(&objects, &WorkModel::paper(0.9));
//!
//! let mut platform = Platform::paper(2);
//! platform.placement.add_holder(video, ServerId(0));
//! platform.placement.add_holder(audio, ServerId(1));
//!
//! let inst = Instance::new(tree, objects, platform, 1.0).unwrap();
//! let mut rng = StdRng::seed_from_u64(0);
//! let sol = solve(&SubtreeBottomUp, &inst, &mut rng, &PipelineOptions::default()).unwrap();
//! assert!(sol.cost >= 7_548); // at least one chassis
//! ```

pub mod constraints;
pub mod heuristics;
pub mod ids;
pub mod index;
pub mod instance;
pub mod mapping;
pub mod multi;
pub mod object;
pub mod platform;
pub mod pool;
pub mod refine;
pub mod report;
pub mod rewrite;
pub mod tree;
pub mod work;

pub use constraints::{check, is_feasible, loads, max_throughput, LoadReport, Violation};
pub use ids::{OpId, ProcId, ServerId, TypeId};
pub use index::InstanceIndex;
pub use instance::Instance;
pub use mapping::{Download, Mapping};
pub use object::{ObjectCatalog, ObjectType};
pub use platform::{Catalog, ObjectPlacement, Platform, ProcessorKind, Server};
pub use pool::{run_jobs, run_jobs_checked, PoolStats};
pub use refine::{RefineDriver, RefineOptions};
pub use tree::{OperatorTree, TreeBuilder};
pub use work::WorkModel;
