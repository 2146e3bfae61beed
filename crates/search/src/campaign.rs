//! Refinement campaigns: heuristic-vs-refined-vs-exact grids on
//! [`snsp_sweep::run_grid`].
//!
//! A [`RefineCampaign`] crosses scenario points with seeds; every job is
//! a pure function of its grid coordinates (generate → constructive
//! start → portfolio refinement → optional exact reference), and
//! aggregation runs in grid order, so the **stable** JSON rendering of
//! the schema-v4 `BENCH_refine.json` is byte-identical at any worker
//! count — the same contract CI enforces for the sweep, serve and chaos
//! artifacts.
//!
//! The **start column is Subtree-Bottom-Up**, the paper's overall
//! winner (§5): the motivating gap is "the best constructive heuristic
//! still lands 10–50% above the exact optimum", so the campaign
//! measures what the refinement subsystem — the six-start portfolio
//! plus local search — buys over exactly that baseline. Because the
//! baseline is itself one of the portfolio's raced starts, every seed
//! satisfies `refined ≤ start` by construction, and the schema rejects
//! any report where it does not.

use snsp_core::heuristics::{solve_seeded, PipelineOptions, SubtreeBottomUp};
use snsp_core::platform::Catalog;
use snsp_core::refine::RefineOptions;
use snsp_gen::{generate, ScenarioParams, TreeShape};
use snsp_solver::{lower_bound, solve_exact};
use snsp_sweep::{run_grid, ArtifactKind, Json, PhaseTiming, ReferenceConfig};

use crate::drivers::certified_portfolio;

/// One labelled refinement scenario.
#[derive(Debug, Clone)]
pub struct RefinePoint {
    /// Row label in tables and JSON.
    pub label: String,
    /// Scenario parameters.
    pub params: ScenarioParams,
    /// Restrict the catalog to CONSTR-HOM (entry CPU, 1 Gbps NIC) — the
    /// regime where the paper measured its heuristics 10–50% above the
    /// exact optimum.
    pub homogeneous: bool,
}

/// A grid of refinement scenarios.
pub struct RefineCampaign {
    /// Campaign identifier.
    pub id: String,
    /// Scenario points (grid rows).
    pub points: Vec<RefinePoint>,
    /// Seeds `0..seeds` refined at every point.
    pub seeds: u64,
    /// Refinement policy shared by every job.
    pub refine: RefineOptions,
    /// How many of the cheapest constructive starts each job refines.
    pub top_k: usize,
    /// Exact reference on small points, if any.
    pub reference: Option<ReferenceConfig>,
    /// Worker threads; `None` uses available parallelism.
    pub workers: Option<usize>,
}

impl RefineCampaign {
    /// A campaign with the default refinement policy.
    pub fn new(id: impl Into<String>, points: Vec<RefinePoint>, seeds: u64) -> Self {
        RefineCampaign {
            id: id.into(),
            points,
            seeds,
            refine: RefineOptions::default(),
            top_k: 3,
            reference: None,
            workers: None,
        }
    }

    /// Overrides the refinement policy.
    pub fn with_refine(mut self, refine: RefineOptions) -> Self {
        self.refine = refine;
        self
    }

    /// Adds the exact reference column.
    pub fn with_reference(mut self, reference: ReferenceConfig) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Pins the worker count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }
}

/// One job's measurements.
#[derive(Debug, Clone, Copy)]
struct JobResult {
    start_cost: Option<u64>,
    refined_cost: Option<u64>,
    evals: u64,
    accepted: u64,
    exact: Option<ExactRun>,
    lb: u64,
}

/// One seed's exact-reference outcome (mapping found).
#[derive(Debug, Clone, Copy)]
struct ExactRun {
    cost: u64,
    optimal: bool,
    /// Nodes the branch-and-bound expanded before finishing (or before
    /// the node budget truncated it).
    nodes: u64,
    /// The certified lower bound: the cost itself when proven optimal,
    /// the analytic bound otherwise.
    bound: u64,
}

/// Aggregated refinement of one scenario point.
#[derive(Debug, Clone)]
pub struct RefinePointReport {
    /// The point's label.
    pub label: String,
    /// Seeds attempted.
    pub runs: usize,
    /// Seeds with a feasible constructive start.
    pub feasible: usize,
    /// Mean best-constructive cost over feasible seeds.
    pub mean_start_cost: Option<f64>,
    /// Mean refined cost over feasible seeds.
    pub mean_refined_cost: Option<f64>,
    /// Seeds where refinement strictly beat the best start.
    pub improved: usize,
    /// Whether `refined ≤ start` held on every seed (an algorithm
    /// invariant; the schema rejects reports violating it).
    pub never_worse: bool,
    /// Mean screened moves per feasible seed.
    pub mean_evals: f64,
    /// Mean committed moves per feasible seed.
    pub mean_accepted: f64,
    /// Exact column: `(solved, all optimal, mean exact cost, max gap %)`.
    pub exact: Option<ExactColumn>,
    /// Mean analytic lower bound over all seeds.
    pub mean_lower_bound: f64,
}

/// The exact-reference column of one point.
#[derive(Debug, Clone, Copy)]
pub struct ExactColumn {
    /// Seeds the branch-and-bound produced a mapping for.
    pub solved: usize,
    /// Whether every solved seed was proven optimal (untruncated).
    pub optimal: bool,
    /// Mean exact cost over solved seeds.
    pub mean_cost: Option<f64>,
    /// Largest per-seed `(refined − exact) / exact` in percent, over
    /// seeds where the search completed; `None` when none did.
    pub max_gap_pct: Option<f64>,
    /// Mean branch-and-bound nodes expanded per solved seed — on
    /// truncated seeds, how far the budget got before cutting off.
    pub mean_nodes: f64,
    /// Mean certified lower bound per solved seed (the optimum itself
    /// when proven, the analytic bound otherwise).
    pub mean_bound: Option<f64>,
    /// Solved seeds whose search the node budget truncated.
    pub truncated: usize,
}

impl RefinePointReport {
    fn from_runs(label: &str, runs: &[JobResult], with_exact: bool) -> Self {
        let feasible: Vec<&JobResult> = runs.iter().filter(|r| r.start_cost.is_some()).collect();
        let n = feasible.len();
        let mean = |f: &dyn Fn(&JobResult) -> f64| {
            (n > 0).then(|| feasible.iter().map(|r| f(r)).sum::<f64>() / n as f64)
        };
        let improved = feasible
            .iter()
            .filter(|r| r.refined_cost < r.start_cost)
            .count();
        let never_worse = feasible.iter().all(|r| r.refined_cost <= r.start_cost);
        let exact = with_exact.then(|| {
            let solved: Vec<ExactRun> = feasible.iter().filter_map(|r| r.exact).collect();
            // Vacuous truth guard: zero solved seeds certify nothing.
            let optimal = !solved.is_empty() && solved.iter().all(|e| e.optimal);
            let mean_over = |f: &dyn Fn(&ExactRun) -> f64| {
                (!solved.is_empty())
                    .then(|| solved.iter().map(f).sum::<f64>() / solved.len() as f64)
            };
            let gaps: Vec<f64> = feasible
                .iter()
                .filter_map(|r| r.exact.filter(|e| e.optimal).map(|e| (r, e)))
                .filter_map(|(r, e)| {
                    let exact = e.cost as f64;
                    r.refined_cost
                        .map(|c| 100.0 * (c as f64 - exact) / exact.max(1.0))
                })
                .collect();
            ExactColumn {
                solved: solved.len(),
                optimal,
                mean_cost: mean_over(&|e| e.cost as f64),
                max_gap_pct: gaps.iter().copied().reduce(f64::max),
                mean_nodes: mean_over(&|e| e.nodes as f64).unwrap_or(0.0),
                mean_bound: mean_over(&|e| e.bound as f64),
                truncated: solved.iter().filter(|e| !e.optimal).count(),
            }
        });
        RefinePointReport {
            label: label.to_string(),
            runs: runs.len(),
            feasible: n,
            mean_start_cost: mean(&|r| r.start_cost.unwrap() as f64),
            mean_refined_cost: mean(&|r| r.refined_cost.unwrap() as f64),
            improved,
            never_worse,
            mean_evals: mean(&|r| r.evals as f64).unwrap_or(0.0),
            mean_accepted: mean(&|r| r.accepted as f64).unwrap_or(0.0),
            exact,
            mean_lower_bound: runs.iter().map(|r| r.lb as f64).sum::<f64>()
                / runs.len().max(1) as f64,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("runs", Json::Int(self.runs as i64)),
            ("feasible", Json::Int(self.feasible as i64)),
            ("mean_start_cost", Json::opt_num(self.mean_start_cost)),
            ("mean_refined_cost", Json::opt_num(self.mean_refined_cost)),
            ("improved", Json::Int(self.improved as i64)),
            ("never_worse", Json::Bool(self.never_worse)),
            ("mean_evals", Json::Num(self.mean_evals)),
            ("mean_accepted", Json::Num(self.mean_accepted)),
            (
                "exact",
                match &self.exact {
                    None => Json::Null,
                    Some(e) => Json::obj(vec![
                        ("solved", Json::Int(e.solved as i64)),
                        ("optimal", Json::Bool(e.optimal)),
                        ("mean_cost", Json::opt_num(e.mean_cost)),
                        ("max_gap_pct", Json::opt_num(e.max_gap_pct)),
                    ]),
                },
            ),
            ("mean_lower_bound", Json::Num(self.mean_lower_bound)),
        ])
    }
}

/// The complete result of one refinement campaign.
#[derive(Debug, Clone)]
pub struct RefineCampaignReport {
    /// Campaign identifier.
    pub campaign: String,
    /// Seeds per point.
    pub seeds: u64,
    /// Refinement policy echoed from the campaign.
    pub refine: RefineOptions,
    /// Starts refined per job, echoed from the campaign.
    pub top_k: usize,
    /// The scenario grid, echoed for reproducibility.
    pub config_points: Vec<RefinePoint>,
    /// Per-point results, in grid order.
    pub points: Vec<RefinePointReport>,
    /// Wall-clock phases (never part of stable output).
    pub timing: Option<PhaseTiming>,
}

impl RefineCampaignReport {
    /// Serializes schema v4. With `include_timing = false` the output is
    /// the *stable* form: byte-identical at every worker count.
    pub fn to_json(&self, include_timing: bool) -> Json {
        let points = self.config_points.iter().map(|p| {
            Json::obj(vec![
                ("label", Json::Str(p.label.clone())),
                ("n_ops", Json::Int(p.params.n_ops as i64)),
                ("alpha", Json::Num(p.params.alpha)),
                ("homogeneous", Json::Bool(p.homogeneous)),
            ])
        });
        let config = vec![
            ("driver", Json::Str(self.refine.driver.name().to_string())),
            ("max_evals", Json::Int(self.refine.max_evals as i64)),
            ("top_k", Json::Int(self.top_k as i64)),
            ("points", Json::Arr(points.collect())),
        ];
        let results = Json::Arr(self.points.iter().map(|p| p.to_json()).collect());
        let timing = self.timing.filter(|_| include_timing);
        ArtifactKind::Refine.document(
            &self.campaign,
            self.seeds,
            config,
            results,
            timing.map(|t| t.to_json(None)),
        )
    }

    /// [`to_json`](Self::to_json) rendered to pretty-printed text.
    pub fn render_json(&self, include_timing: bool) -> String {
        self.to_json(include_timing).render()
    }
}

/// Runs one campaign job (pure function of its grid coordinates).
fn run_job(campaign: &RefineCampaign, point: &RefinePoint, seed: u64) -> JobResult {
    let mut inst = generate(&point.params, TreeShape::Random, seed);
    if point.homogeneous {
        inst.platform.catalog = Catalog::homogeneous(0, 0);
    }
    // The baseline: the paper's winning constructive heuristic, full
    // pipeline. Seeds it cannot solve are reported as infeasible (the
    // portfolio may still rescue them, but without a baseline there is
    // no defensible "refined vs start" row). The portfolio reuses the
    // baseline as its Subtree-Bottom-Up start instead of solving it again.
    let start = solve_seeded(&SubtreeBottomUp, &inst, seed, &PipelineOptions::default()).ok();
    let lb = lower_bound(&inst).value();
    let outcome = start.as_ref().and_then(|baseline| {
        certified_portfolio(
            &inst,
            seed,
            Some(baseline),
            &campaign.refine,
            campaign.top_k,
            lb,
        )
    });
    let (start_cost, refined_cost, evals, accepted) = match (&start, &outcome) {
        (Some(s), Some(o)) => (
            Some(s.cost),
            // The baseline is one of the portfolio's starts, so the
            // portfolio result can only match or beat it; min() guards
            // the invariant against future driver changes.
            Some(o.solution.cost.min(s.cost)),
            o.stats.evals,
            o.stats.accepted,
        ),
        _ => (None, None, 0, 0),
    };
    let exact = campaign
        .reference
        .filter(|r| r.covers(point.params.n_ops))
        .and_then(|r| {
            // The B&B prunes strictly below its incumbent, so seed one
            // dollar above the refined cost: the optimum stays reachable
            // even when the refinement already found it.
            let res = solve_exact(&inst, &r.branch_bound(refined_cost.map(|c| c + 1)));
            res.mapping.as_ref().map(|_| ExactRun {
                cost: res.cost,
                optimal: res.optimal,
                nodes: res.nodes,
                bound: res.bound,
            })
        });
    JobResult {
        start_cost,
        refined_cost,
        evals,
        accepted,
        exact,
        lb,
    }
}

/// Runs the campaign: `points × seeds` jobs on the sweep's grid
/// driver, aggregated in grid order.
pub fn run_refine_campaign(campaign: &RefineCampaign) -> RefineCampaignReport {
    let (points, timing) = run_grid(
        &campaign.points,
        |_| campaign.seeds as usize,
        campaign.workers,
        |point, seed| run_job(campaign, point, seed as u64),
        |point, runs| {
            let with_exact = campaign
                .reference
                .is_some_and(|r| r.covers(point.params.n_ops));
            RefinePointReport::from_runs(&point.label, runs, with_exact)
        },
    );
    RefineCampaignReport {
        campaign: campaign.id.clone(),
        seeds: campaign.seeds,
        refine: campaign.refine,
        top_k: campaign.top_k,
        config_points: campaign.points.clone(),
        points,
        timing: Some(timing),
    }
}

/// The named refinement grids behind `snsp-experiments refine --grid`
/// and the CI `refine-smoke` job. `ci` mixes CONSTR-HOM points the exact
/// solver can certify with heterogeneous consolidation-rich ones;
/// `fig2` refines the paper's cost-vs-N grid; `large-n` proves the
/// anytime contract at production scale.
pub fn refine_grid(id: &str, seeds: u64) -> Option<RefineCampaign> {
    let het = |n: usize, alpha: f64| RefinePoint {
        label: format!("het N={n} α={alpha}"),
        params: ScenarioParams::paper(n, alpha),
        homogeneous: false,
    };
    let hom = |n: usize, alpha: f64| RefinePoint {
        label: format!("hom N={n} α={alpha}"),
        params: ScenarioParams::paper(n, alpha),
        homogeneous: true,
    };
    let anneal = RefineOptions {
        driver: snsp_core::refine::RefineDriver::Anneal,
        max_evals: 3_000,
        ..Default::default()
    };
    let campaign = match id {
        "ci" => RefineCampaign::new(
            id,
            vec![
                hom(8, 0.9),
                hom(10, 1.3),
                hom(12, 0.9),
                het(12, 1.3),
                het(30, 0.9),
                het(40, 0.9),
                het(60, 0.9),
                het(100, 1.5),
            ],
            seeds,
        )
        .with_refine(anneal)
        .with_reference(ReferenceConfig {
            max_ops: 60,
            node_budget: 600_000,
        }),
        "fig2" => RefineCampaign::new(
            id,
            (20..=140).step_by(20).map(|n| het(n, 0.9)).collect(),
            seeds,
        ),
        "large-n" => RefineCampaign::new(
            id,
            [500usize, 1000, 2000]
                .into_iter()
                .map(|n| het(n, 0.9))
                .collect(),
            seeds,
        ),
        _ => return None,
    };
    Some(campaign)
}

/// Every grid id accepted by [`refine_grid`].
pub const REFINE_GRID_IDS: &[&str] = &["ci", "fig2", "large-n"];

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(workers: usize) -> RefineCampaign {
        let mut c = refine_grid("ci", 1).unwrap();
        c.points.truncate(3);
        c.refine.max_evals = 300;
        c.with_workers(workers)
    }

    #[test]
    fn every_refine_grid_id_builds_a_campaign() {
        for id in REFINE_GRID_IDS {
            let campaign = refine_grid(id, 2).unwrap_or_else(|| panic!("{id} should build"));
            assert_eq!(campaign.id, *id);
            assert!(!campaign.points.is_empty());
        }
        assert!(refine_grid("nope", 2).is_none());
    }

    #[test]
    fn report_shape_matches_grid_and_validates() {
        let report = run_refine_campaign(&small_campaign(2));
        assert_eq!(report.points.len(), 3);
        for p in &report.points {
            assert_eq!(p.runs, 1);
            assert!(p.never_worse, "{}: refinement regressed", p.label);
            if let Some(e) = &p.exact {
                if e.solved > 0 {
                    assert!(e.mean_nodes > 0.0, "{}: solved seeds expand nodes", p.label);
                    let bound = e.mean_bound.expect("solved seeds certify a bound");
                    assert!(bound > 0.0, "{}: certified bound is positive", p.label);
                    assert!(e.truncated <= e.solved);
                }
            }
        }
        ArtifactKind::Refine
            .validate(&report.render_json(true))
            .expect("schema v4 validates");
        ArtifactKind::Refine
            .validate(&report.render_json(false))
            .expect("stable form validates");
    }

    #[test]
    fn exact_column_certifies_heterogeneous_n40_and_n60() {
        // The tentpole's acceptance criterion: the ci grid's reference
        // column reaches N ≥ 40 heterogeneous points with a certified
        // (optimal, non-blank) gap entry.
        let mut c = refine_grid("ci", 1).unwrap();
        c.refine.max_evals = 300;
        let report = run_refine_campaign(&c.with_workers(1));
        let big_certified: Vec<&str> = report
            .points
            .iter()
            .filter(|p| {
                p.label.starts_with("het")
                    && p.exact.as_ref().is_some_and(|e| {
                        e.optimal && e.mean_cost.is_some() && e.max_gap_pct.is_some()
                    })
            })
            .filter(|p| {
                ["N=40", "N=60"]
                    .iter()
                    .any(|needle| p.label.contains(needle))
            })
            .map(|p| p.label.as_str())
            .collect();
        assert_eq!(
            big_certified.len(),
            2,
            "expected certified het N=40 and N=60 rows, got {big_certified:?}"
        );
    }
}
