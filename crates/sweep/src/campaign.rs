//! Campaign configuration and execution.
//!
//! [`run_grid`] is the one campaign driver: it lays a grid's points ×
//! cells out on the fixed-grid pool, folds each point back in grid
//! order and times the phases. The sweep, refinement and serve campaigns
//! all run on it.
//!
//! A [`Campaign`] is the sweep's grid: scenario points × the six paper
//! heuristics × seeds, plus an optional exact reference column. Every
//! job is a pure function of its grid coordinates: the instance comes from
//! `snsp_gen::generate(params, shape, seed)` and the pipeline RNG from
//! [`solve_seeded`] with a seed derived from the scenario seed alone,
//! exactly as the seed repository's serial loop did. Aggregation happens
//! in grid order after the pool drains, so the resulting
//! [`CampaignReport`] is identical at every worker count.

use std::time::Instant;

use snsp_core::heuristics::{all_heuristics, solve_seeded, PipelineOptions};
use snsp_core::platform::Catalog;
use snsp_core::pool::run_jobs;
use snsp_gen::{generate, ScenarioParams, TreeShape};
use snsp_solver::{solve_exact, BranchBoundConfig};

use crate::sink::{CampaignReport, HeurStats, PhaseTiming, PointReport, ReferenceStats};

/// The multiplier turning a scenario seed into the pipeline RNG seed
/// (kept identical to the seed repository's serial runner so calibrated
/// expectations — e.g. the N = 140 feasibility wall — are preserved).
pub const PIPELINE_SEED_STRIDE: u64 = 0x9E37_79B9;

/// One cell of the scenario grid: a labelled parameter set.
#[derive(Debug, Clone)]
pub struct PointSpec {
    /// Row label in tables and in the JSON report (e.g. `"60"` for N=60).
    pub label: String,
    /// Generator parameters for this point.
    pub params: ScenarioParams,
    /// Tree shape drawn at this point.
    pub shape: TreeShape,
}

impl PointSpec {
    /// A point with the default random tree shape.
    pub fn new(label: impl Into<String>, params: ScenarioParams) -> Self {
        PointSpec {
            label: label.into(),
            params,
            shape: TreeShape::Random,
        }
    }
}

/// Exact-solver reference column of a sweep or refinement campaign: run
/// the branch-and-bound on every seed of every small-enough point and
/// report the optimum next to the heuristics.
#[derive(Debug, Clone, Copy)]
pub struct ReferenceConfig {
    /// Only points with `n_ops <= max_ops` get a reference column (the
    /// default 20 is where an unseeded B&B blows up, as the paper
    /// observed of CPLEX).
    pub max_ops: usize,
    /// Search-node budget per instance; exhausting it demotes the column
    /// to `optimal = false`.
    pub node_budget: u64,
}

impl Default for ReferenceConfig {
    fn default() -> Self {
        ReferenceConfig {
            max_ops: 20,
            node_budget: 500_000,
        }
    }
}

impl ReferenceConfig {
    /// Whether the reference column covers a point of `n_ops` operators.
    pub fn covers(&self, n_ops: usize) -> bool {
        n_ops <= self.max_ops
    }

    /// The branch-and-bound configuration of one reference solve, seeded
    /// with an incumbent `upper_bound` when one is known.
    pub fn branch_bound(&self, upper_bound: Option<u64>) -> BranchBoundConfig {
        BranchBoundConfig {
            node_budget: self.node_budget,
            upper_bound,
        }
    }
}

/// A full campaign: the job grid plus execution knobs. Every point
/// evaluates all six paper heuristics ([`all_heuristics`], the grid
/// columns).
pub struct Campaign {
    /// Campaign identifier (becomes `"campaign"` in the JSON report).
    pub id: String,
    /// Scenario points (grid rows).
    pub points: Vec<PointSpec>,
    /// Seeds `0..seeds` evaluated at every (point, heuristic) cell.
    pub seeds: u64,
    /// Pipeline options shared by every job.
    pub opts: PipelineOptions,
    /// Replaces the generated platform catalog in every job (e.g.
    /// `Catalog::homogeneous` for the paper's CONSTR-HOM comparison).
    pub catalog_override: Option<Catalog>,
    /// Optional exact-solver reference column.
    pub reference: Option<ReferenceConfig>,
    /// Worker threads; `None` uses `std::thread::available_parallelism`.
    pub workers: Option<usize>,
}

impl Campaign {
    /// A campaign over all six paper heuristics with default options.
    pub fn new(id: impl Into<String>, points: Vec<PointSpec>, seeds: u64) -> Self {
        Campaign {
            id: id.into(),
            points,
            seeds,
            opts: PipelineOptions::default(),
            catalog_override: None,
            reference: None,
            workers: None,
        }
    }

    /// Overrides the pipeline options.
    pub fn with_opts(mut self, opts: PipelineOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Adds an exact-solver reference column.
    pub fn with_reference(mut self, reference: ReferenceConfig) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Replaces the platform catalog in every generated instance.
    pub fn with_catalog(mut self, catalog: Catalog) -> Self {
        self.catalog_override = Some(catalog);
        self
    }

    /// Pins the worker count (1 = serial baseline). A request for 0
    /// workers clamps to 1: a campaign always makes progress, rather than
    /// depending on whatever an empty pool would do.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }
}

/// Runs a scenario grid on the fixed-grid pool and folds it back
/// into one row per point — the driver under every campaign kind.
///
/// Point `p` owns `cells(p)` jobs, laid out point-major, and
/// `job(point, cell)` runs one of them; after the pool drains,
/// `fold(point, outcomes)` turns each point's outcomes (in cell order)
/// into its row, in grid order. Because every job is a pure function of
/// its coordinates, the rows are identical at every worker count.
/// `workers: None` uses the available parallelism and `Some(0)` runs
/// serially. The [`PhaseTiming`] counts `Σ cells` jobs.
pub fn run_grid<P, T, R>(
    points: &[P],
    cells: impl Fn(&P) -> usize,
    workers: Option<usize>,
    job: impl Fn(&P, usize) -> T + Sync,
    mut fold: impl FnMut(&P, &[T]) -> R,
) -> (Vec<R>, PhaseTiming)
where
    P: Sync,
    T: Send,
{
    let t0 = Instant::now();
    let workers = workers
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()))
        .max(1);
    let counts: Vec<usize> = points.iter().map(cells).collect();
    let coords: Vec<(usize, usize)> = counts
        .iter()
        .enumerate()
        .flat_map(|(p, &n)| (0..n).map(move |c| (p, c)))
        .collect();
    let flatten_s = t0.elapsed().as_secs_f64();

    let t_run = Instant::now();
    let outcomes = run_jobs(coords.len(), workers, |i| {
        let (p, c) = coords[i];
        job(&points[p], c)
    });
    let run_s = t_run.elapsed().as_secs_f64();

    let t_agg = Instant::now();
    let mut rest = outcomes.as_slice();
    let rows = points
        .iter()
        .zip(counts)
        .map(|(point, n)| {
            let (mine, tail) = rest.split_at(n);
            rest = tail;
            fold(point, mine)
        })
        .collect();
    let aggregate_s = t_agg.elapsed().as_secs_f64();
    let timing = PhaseTiming {
        workers,
        jobs: coords.len(),
        flatten_s,
        run_s,
        aggregate_s,
        total_s: t0.elapsed().as_secs_f64(),
    };
    (rows, timing)
}

/// One job's outcome: `(cost, proc_count)` of the mapping found, if
/// any, and — for reference jobs — whether the search ran to completion.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    found: Option<(u64, usize)>,
    optimal: bool,
}

/// Runs the campaign and aggregates a [`CampaignReport`].
///
/// Each point's cells are `heuristics × seeds` heuristic jobs followed,
/// on points the exact reference covers, by `seeds` branch-and-bound
/// jobs, all drained by one [`run_grid`] so reference work steals idle
/// workers too.
pub fn run_campaign(campaign: &Campaign) -> CampaignReport {
    let heuristics = all_heuristics();
    let n_seeds = campaign.seeds as usize;
    let heur_cells = heuristics.len() * n_seeds;
    let reference = |point: &PointSpec| campaign.reference.filter(|r| r.covers(point.params.n_ops));
    let (points, timing) = run_grid(
        &campaign.points,
        |point| heur_cells + reference(point).map_or(0, |_| n_seeds),
        campaign.workers,
        |point, cell| {
            let seed = (cell % n_seeds) as u64;
            let inst = instantiate(campaign, point, seed);
            if cell < heur_cells {
                let heur = &heuristics[cell / n_seeds];
                let solution = solve_seeded(
                    heur.as_ref(),
                    &inst,
                    seed.wrapping_mul(PIPELINE_SEED_STRIDE),
                    &campaign.opts,
                );
                Outcome {
                    found: solution.ok().map(|s| (s.cost, s.mapping.proc_count())),
                    optimal: false,
                }
            } else {
                let r = reference(point).expect("reference cells imply a config");
                let exact = solve_exact(&inst, &r.branch_bound(None));
                Outcome {
                    found: exact.mapping.map(|m| (exact.cost, m.proc_count())),
                    optimal: exact.optimal,
                }
            }
        },
        |point, outcomes| {
            let (heur, refs) = outcomes.split_at(heur_cells);
            let stats = heuristics.iter().enumerate().map(|(h, heuristic)| {
                let runs = &heur[h * n_seeds..(h + 1) * n_seeds];
                let feasible: Vec<(u64, usize)> = runs.iter().filter_map(|o| o.found).collect();
                HeurStats::from_outcomes(heuristic.name(), n_seeds, &feasible)
            });
            let reference = reference(point).map(|_| {
                let solved: Vec<u64> = refs.iter().filter_map(|o| o.found).map(|f| f.0).collect();
                ReferenceStats {
                    runs: refs.len(),
                    solved: solved.len(),
                    mean_cost: (!solved.is_empty())
                        .then(|| solved.iter().sum::<u64>() as f64 / solved.len() as f64),
                    optimal: refs.iter().all(|o| o.optimal),
                }
            });
            PointReport {
                label: point.label.clone(),
                n_ops: point.params.n_ops,
                alpha: point.params.alpha,
                heuristics: stats.collect(),
                reference,
            }
        },
    );
    CampaignReport {
        campaign: campaign.id.clone(),
        seeds: campaign.seeds,
        heuristic_names: heuristics.iter().map(|h| h.name()).collect(),
        reference: campaign.reference,
        config_points: campaign.points.clone(),
        points,
        timing: Some(timing),
    }
}

fn instantiate(campaign: &Campaign, point: &PointSpec, seed: u64) -> snsp_core::Instance {
    let mut inst = generate(&point.params, point.shape, seed);
    if let Some(catalog) = &campaign.catalog_override {
        inst.platform.catalog = catalog.clone();
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_grid_lays_out_uneven_points_and_folds_in_grid_order() {
        // (point id, cells): uneven, one point owning no cells at all.
        // Every job reports its coordinates and whether it ran on the
        // calling thread.
        let points = [(0, 3), (1, 0), (2, 1), (3, 5), (4, 2)];
        let caller = std::thread::current().id();
        let grid = |workers| {
            run_grid(
                &points,
                |&(_, cells)| cells,
                workers,
                |&(id, _), cell| (id, cell, std::thread::current().id() == caller),
                |&(id, _), outcomes| (id, outcomes.to_vec()),
            )
        };
        type Row = (usize, Vec<(usize, usize, bool)>);
        let layout = |rows: &[Row]| -> Vec<(usize, Vec<(usize, usize)>)> {
            let cells = |row: &[(usize, usize, bool)]| row.iter().map(|o| (o.0, o.1)).collect();
            rows.iter().map(|(id, row)| (*id, cells(row))).collect()
        };
        let expected: Vec<(usize, Vec<(usize, usize)>)> = points
            .iter()
            .map(|&(id, cells)| (id, (0..cells).map(|c| (id, c)).collect()))
            .collect();
        for workers in [1usize, 2, 4, 7] {
            let (rows, timing) = grid(Some(workers));
            assert_eq!(layout(&rows), expected, "{workers} workers");
            assert_eq!(timing.jobs, 11, "timing counts Σ cells");
            assert_eq!(timing.workers, workers);
        }
        let (rows, timing) = grid(Some(0));
        assert_eq!(layout(&rows), expected);
        assert_eq!(timing.workers, 1, "Some(0) clamps to one worker");
        assert!(
            rows.iter().flat_map(|(_, row)| row).all(|o| o.2),
            "Some(0) runs every job on the calling thread"
        );
    }

    fn small_campaign(workers: usize) -> Campaign {
        let points = vec![
            PointSpec::new("10", ScenarioParams::paper(10, 0.9)),
            PointSpec::new("14", ScenarioParams::paper(14, 1.3)),
        ];
        Campaign::new("unit", points, 3).with_workers(workers)
    }

    #[test]
    fn report_shape_matches_grid() {
        let report = run_campaign(&small_campaign(2));
        assert_eq!(report.campaign, "unit");
        assert_eq!(report.points.len(), 2);
        for point in &report.points {
            assert_eq!(point.heuristics.len(), 6);
            for h in &point.heuristics {
                assert_eq!(h.runs, 3);
                assert!(h.feasible <= h.runs);
            }
            assert!(point.reference.is_none());
        }
    }

    #[test]
    fn zero_workers_clamps_to_serial() {
        // Pin the contract: `with_workers(0)` must behave exactly like an
        // explicit serial run, not fall through to the pool's own
        // clamping (or worse, a stalled empty pool).
        let campaign = small_campaign(0);
        assert_eq!(campaign.workers, Some(1));
        let clamped = run_campaign(&campaign);
        let serial = run_campaign(&small_campaign(1));
        assert_eq!(clamped.render_json(false), serial.render_json(false));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let serial = run_campaign(&small_campaign(1));
        let parallel = run_campaign(&small_campaign(4));
        assert_eq!(serial.render_json(false), parallel.render_json(false));
    }

    #[test]
    fn reference_column_covers_small_points_only() {
        let points = vec![
            PointSpec::new("8", ScenarioParams::paper(8, 0.9)),
            PointSpec::new("30", ScenarioParams::paper(30, 0.9)),
        ];
        let campaign = Campaign::new("ref", points, 2)
            .with_reference(ReferenceConfig {
                max_ops: 10,
                node_budget: 200_000,
            })
            .with_workers(2);
        let report = run_campaign(&campaign);
        let small = report.points[0].reference.as_ref().expect("eligible");
        assert_eq!(small.runs, 2);
        assert!(small.solved > 0, "tiny instances are solvable");
        assert!(report.points[1].reference.is_none(), "30 ops is too big");
    }

    #[test]
    fn exhausted_node_budget_reports_not_optimal() {
        let points = vec![PointSpec::new("16", ScenarioParams::paper(16, 0.9))];
        let campaign = Campaign::new("truncated", points, 1)
            .with_reference(ReferenceConfig {
                max_ops: 16,
                node_budget: 1,
            })
            .with_workers(1);
        let report = run_campaign(&campaign);
        let reference = report.points[0].reference.as_ref().unwrap();
        assert!(
            !reference.optimal,
            "a 1-node budget cannot prove optimality"
        );
    }

    #[test]
    fn homogeneous_catalog_override_applies() {
        let points = vec![PointSpec::new("8", ScenarioParams::paper(8, 0.9))];
        let campaign = Campaign::new("hom", points, 2)
            .with_catalog(Catalog::homogeneous(0, 0))
            .with_workers(2);
        let report = run_campaign(&campaign);
        // With a single catalog kind, every feasible mapping prices as
        // chassis+upgrades of that one kind; just assert feasibility data
        // flowed through.
        assert!(report.points[0].heuristics.iter().any(|h| h.feasible > 0));
    }
}
