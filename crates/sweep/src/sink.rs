//! The typed result sink: per-point statistics and the versioned
//! `BENCH_sweep.json` report.
//!
//! Schema version **1**. Everything outside the `"timing"` object is a
//! deterministic function of the campaign configuration; `"timing"`
//! carries the per-phase wall-clock (and the worker count that produced
//! it) and is omitted entirely in *stable* mode so reports can be
//! byte-compared across worker counts.

use snsp_gen::TreeShape;

use crate::campaign::{PointSpec, ReferenceConfig};
use crate::json::Json;
use crate::schema::ArtifactKind;

/// Aggregated outcome of one heuristic at one scenario point.
#[derive(Debug, Clone)]
pub struct HeurStats {
    /// Heuristic display name.
    pub name: &'static str,
    /// Seeds for which a feasible mapping was produced.
    pub feasible: usize,
    /// Total seeds attempted.
    pub runs: usize,
    /// Mean cost over feasible seeds.
    pub mean_cost: Option<f64>,
    /// Mean purchased-processor count over feasible seeds.
    pub mean_procs: Option<f64>,
}

impl HeurStats {
    /// Folds per-seed `(cost, proc_count)` outcomes into one stats row.
    pub fn from_outcomes(name: &'static str, runs: usize, feasible: &[(u64, usize)]) -> Self {
        let mean = |f: &dyn Fn(&(u64, usize)) -> f64| {
            (!feasible.is_empty())
                .then(|| feasible.iter().map(f).sum::<f64>() / feasible.len() as f64)
        };
        HeurStats {
            name,
            feasible: feasible.len(),
            runs,
            mean_cost: mean(&|o| o.0 as f64),
            mean_procs: mean(&|o| o.1 as f64),
        }
    }

    /// `feasible/runs` as a percentage.
    pub fn feasibility_pct(&self) -> f64 {
        100.0 * self.feasible as f64 / self.runs.max(1) as f64
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.to_string())),
            ("runs", Json::Int(self.runs as i64)),
            ("feasible", Json::Int(self.feasible as i64)),
            ("feasibility_pct", Json::Num(self.feasibility_pct())),
            ("mean_cost", Json::opt_num(self.mean_cost)),
            ("mean_procs", Json::opt_num(self.mean_procs)),
        ])
    }
}

/// Aggregated exact-solver reference column at one point.
#[derive(Debug, Clone)]
pub struct ReferenceStats {
    /// Seeds attempted.
    pub runs: usize,
    /// Seeds for which the B&B found any feasible mapping.
    pub solved: usize,
    /// Mean exact cost over solved seeds.
    pub mean_cost: Option<f64>,
    /// `true` only if every run exhausted its search space; a truncated
    /// B&B (node budget spent) demotes the whole column.
    pub optimal: bool,
}

impl ReferenceStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("runs", Json::Int(self.runs as i64)),
            ("solved", Json::Int(self.solved as i64)),
            ("mean_cost", Json::opt_num(self.mean_cost)),
            ("optimal", Json::Bool(self.optimal)),
        ])
    }
}

/// Everything measured at one scenario point.
#[derive(Debug, Clone)]
pub struct PointReport {
    /// The point's row label.
    pub label: String,
    /// Operator count N.
    pub n_ops: usize,
    /// Computation factor α.
    pub alpha: f64,
    /// One stats row per campaign heuristic, in campaign order.
    pub heuristics: Vec<HeurStats>,
    /// Exact-solver reference column, when configured and eligible.
    pub reference: Option<ReferenceStats>,
}

/// Wall-clock per campaign phase, plus the worker count that produced it.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTiming {
    /// Worker threads used by the pool.
    pub workers: usize,
    /// Total jobs in the flattened grid.
    pub jobs: usize,
    /// Seconds spent flattening the grid.
    pub flatten_s: f64,
    /// Seconds spent draining the job pool.
    pub run_s: f64,
    /// Seconds spent aggregating outcomes.
    pub aggregate_s: f64,
    /// End-to-end seconds.
    pub total_s: f64,
}

/// The complete, serializable result of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign identifier.
    pub campaign: String,
    /// Seeds per grid cell.
    pub seeds: u64,
    /// Heuristic names, in campaign (column) order.
    pub heuristic_names: Vec<&'static str>,
    /// Reference-column configuration, echoed for reproducibility.
    pub reference: Option<ReferenceConfig>,
    /// The scenario grid, echoed for reproducibility.
    pub config_points: Vec<PointSpec>,
    /// Per-point results, in grid order.
    pub points: Vec<PointReport>,
    /// Wall-clock phases (never part of stable output).
    pub timing: Option<PhaseTiming>,
}

impl PhaseTiming {
    /// The `timing` block every campaign report ends with; serve and
    /// chaos reports pass their per-replay worker count, which goes
    /// second.
    pub fn to_json(&self, replay_workers: Option<usize>) -> Json {
        let mut pairs = vec![("workers", Json::Int(self.workers as i64))];
        pairs.extend(replay_workers.map(|r| ("replay_workers", Json::Int(r as i64))));
        pairs.extend([
            ("jobs", Json::Int(self.jobs as i64)),
            ("flatten_s", Json::Num(self.flatten_s)),
            ("run_s", Json::Num(self.run_s)),
            ("aggregate_s", Json::Num(self.aggregate_s)),
            ("total_s", Json::Num(self.total_s)),
        ]);
        Json::obj(pairs)
    }
}

impl PointReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::Str(self.label.clone())),
            ("n_ops", Json::Int(self.n_ops as i64)),
            ("alpha", Json::Num(self.alpha)),
            (
                "heuristics",
                Json::Arr(self.heuristics.iter().map(HeurStats::to_json).collect()),
            ),
            (
                "reference",
                self.reference
                    .as_ref()
                    .map_or(Json::Null, ReferenceStats::to_json),
            ),
        ])
    }
}

impl CampaignReport {
    /// Serializes schema v1. With `include_timing = false` the
    /// `"timing"` key is omitted and the output is byte-identical for
    /// every worker count (the *stable* form used by tests and CI diffs).
    pub fn to_json(&self, include_timing: bool) -> Json {
        let names = self.heuristic_names.iter();
        let reference = self.reference.map_or(Json::Null, |r| {
            Json::obj(vec![
                ("max_ops", Json::Int(r.max_ops as i64)),
                ("node_budget", Json::Int(r.node_budget as i64)),
            ])
        });
        let config = vec![
            (
                "heuristics",
                Json::Arr(names.map(|n| Json::Str(n.to_string())).collect()),
            ),
            ("reference", reference),
            (
                "points",
                Json::Arr(self.config_points.iter().map(point_config_json).collect()),
            ),
        ];
        let results = Json::Arr(self.points.iter().map(PointReport::to_json).collect());
        let timing = self.timing.filter(|_| include_timing);
        ArtifactKind::Sweep.document(
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

fn point_config_json(point: &PointSpec) -> Json {
    let p = &point.params;
    Json::obj(vec![
        ("label", Json::Str(point.label.clone())),
        ("n_ops", Json::Int(p.n_ops as i64)),
        ("alpha", Json::Num(p.alpha)),
        ("kappa", Json::Num(p.kappa)),
        ("n_types", Json::Int(p.n_types as i64)),
        (
            "sizes_mb",
            Json::Arr(vec![Json::Num(p.sizes.min), Json::Num(p.sizes.max)]),
        ),
        ("freq_hz", Json::Num(p.freq.0)),
        ("servers", Json::Int(p.n_servers as i64)),
        (
            "replicas",
            Json::Arr(vec![
                Json::Int(p.min_replicas as i64),
                Json::Int(p.max_replicas as i64),
            ]),
        ),
        ("rho", Json::Num(p.rho)),
        (
            "shape",
            Json::Str(
                match point.shape {
                    TreeShape::Random => "random",
                    TreeShape::LeftDeep => "left-deep",
                }
                .to_string(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_outcomes_aggregates_means() {
        let stats = HeurStats::from_outcomes("X", 4, &[(100, 2), (200, 4)]);
        assert_eq!(stats.feasible, 2);
        assert_eq!(stats.runs, 4);
        assert_eq!(stats.mean_cost, Some(150.0));
        assert_eq!(stats.mean_procs, Some(3.0));
        assert!((stats.feasibility_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn infeasible_rows_serialize_null_means() {
        let stats = HeurStats::from_outcomes("X", 3, &[]);
        assert_eq!(stats.mean_cost, None);
        let json = stats.to_json().render();
        assert!(json.contains("\"mean_cost\": null"));
        assert!(json.contains("\"feasibility_pct\": 0.0"));
    }

    #[test]
    fn timing_is_excluded_in_stable_mode() {
        let report = CampaignReport {
            campaign: "t".into(),
            seeds: 1,
            heuristic_names: vec!["A"],
            reference: None,
            config_points: vec![],
            points: vec![],
            timing: Some(PhaseTiming {
                workers: 8,
                jobs: 0,
                flatten_s: 0.0,
                run_s: 0.1,
                aggregate_s: 0.0,
                total_s: 0.1,
            }),
        };
        assert!(report.render_json(true).contains("\"timing\""));
        assert!(!report.render_json(false).contains("\"timing\""));
        assert!(!report.render_json(false).contains("workers"));
    }
}
