//! The offline workload: the paper's own problem at scale.
//!
//! Three heterogeneous paper instances (α = 0.9, N ∈ {500, 1000, 2000})
//! each run the six-heuristic portfolio through `solve_seeded`, then
//! first-improvement `snsp_search::refine` of the cheapest three starts —
//! the refine `large-n` recipe, on one thread. No serve layer runs.

use std::time::Instant;

use snsp::core::constraints::check;
use snsp::core::heuristics::{
    all_heuristics, solve_seeded, Heuristic, PipelineOptions, PlacementOptions, Solution,
};
use snsp::core::instance::Instance;
use snsp::core::refine::RefineOptions;
use snsp::gen::paper_instance;
use snsp::search::{refine, RefineOutcome};

use crate::layers::{fast, median, percentile, ratio, secs, TimedHeuristic};
use crate::{Args, Outcome};

const SIZES: [usize; 3] = [500, 1000, 2000];
const ALPHA: f64 = 0.9;
/// Cheapest constructive starts refined per instance.
const TOP_K: usize = 3;

/// One instance's portfolio: every start (feasible or not) and the
/// refinement of the cheapest [`TOP_K`].
struct Portfolio {
    starts: usize,
    feasible: Vec<Solution>,
    refined: Vec<RefineOutcome>,
    solve_us: Vec<f64>,
    refine_us: Vec<f64>,
}

impl Portfolio {
    fn best(&self) -> Option<u64> {
        self.refined.iter().map(|r| r.solution.cost).min()
    }
}

/// Runs the job set on every instance with the given heuristics.
fn solve_all(
    instances: &[Instance],
    seed: u64,
    heuristics: &[&dyn Heuristic],
) -> (Vec<Portfolio>, f64) {
    let started = Instant::now();
    let opts = PipelineOptions::default();
    let portfolios = instances
        .iter()
        .map(|inst| {
            let mut p = Portfolio {
                starts: heuristics.len(),
                feasible: Vec::new(),
                refined: Vec::new(),
                solve_us: Vec::new(),
                refine_us: Vec::new(),
            };
            for h in heuristics {
                let t0 = Instant::now();
                let start = solve_seeded(*h, inst, seed, &opts);
                p.solve_us.push(secs(t0) * 1e6);
                p.feasible.extend(start.ok());
            }
            p.feasible.sort_by_key(|s| s.cost);
            for start in p.feasible.iter().take(TOP_K) {
                let t0 = Instant::now();
                let out = refine(
                    inst,
                    start,
                    PlacementOptions::default(),
                    &RefineOptions::default(),
                );
                p.refine_us.push(secs(t0) * 1e6);
                p.refined.push(out);
            }
            p
        })
        .collect();
    (portfolios, secs(started))
}

/// The offline correctness gate: every refined solution passes the
/// paper's constraint check and costs no more than its start.
fn gate(instances: &[Instance], portfolios: &[Portfolio], out: &mut Outcome) {
    for (inst, p) in instances.iter().zip(portfolios) {
        let n = inst.tree.len();
        for (start, r) in p.feasible.iter().zip(&p.refined) {
            let violations = check(inst, &r.solution.mapping);
            out.check(
                violations.is_empty() && r.solution.cost <= start.cost,
                format!(
                    "N={n} {}: refined {} <= start {}, {} constraint violations",
                    start.heuristic,
                    r.solution.cost,
                    start.cost,
                    violations.len()
                ),
            );
        }
    }
}

fn bests(portfolios: &[Portfolio]) -> Vec<Option<u64>> {
    portfolios.iter().map(Portfolio::best).collect()
}

pub fn run(args: &Args) -> Outcome {
    println!(
        "config sizes={SIZES:?} alpha={ALPHA} heuristics=6 top_k={TOP_K} refine=first-improvement \
         threads=1"
    );
    let generate = || -> Vec<Instance> {
        SIZES
            .iter()
            .map(|&n| paper_instance(n, ALPHA, args.seed))
            .collect()
    };
    let started = Instant::now();
    let instances = generate();
    let mut setup = vec![secs(started)];
    let boxed = all_heuristics();
    let plain: Vec<&dyn Heuristic> = boxed.iter().map(|h| h.as_ref()).collect();
    let mut out = Outcome::default();

    let (first, first_wall) = solve_all(&instances, args.seed, &plain);
    // VmHWM after one job set, before the per-set bookkeeping grows.
    let peak_rss_mb = snsp::telemetry::peak_rss_kb() as f64 / 1024.0;
    gate(&instances, &first, &mut out);
    let expected = bests(&first);
    out.attempted = instances.len() as u64;
    out.failed = expected.iter().filter(|b| b.is_none()).count() as u64;

    if args.trace {
        traced_pass(args, &instances, &expected, &plain, first_wall, &mut out);
        return out;
    }

    // Job latencies in job order, one row per job set; a job's time is
    // the fast end of its repetitions, and the set's time their sum.
    let job_times = |ps: &[Portfolio]| -> Vec<f64> {
        ps.iter()
            .flat_map(|p| p.solve_us.iter().chain(&p.refine_us).copied())
            .collect()
    };
    let started = Instant::now();
    let mut sets = vec![job_times(&first)];
    let mut deterministic = true;
    while secs(started) < args.seconds {
        // One more timed generation per job set: the set-up samples
        // spread over the whole run like the job sets.
        let t0 = Instant::now();
        std::hint::black_box(generate());
        setup.push(secs(t0));
        let (again, _) = solve_all(&instances, args.seed, &plain);
        deterministic &= bests(&again) == expected;
        sets.push(job_times(&again));
    }
    out.check(
        deterministic,
        format!("{} job sets agree on every refined cost", sets.len()),
    );
    let jobs = sets[0].len();
    let fast_us: Vec<f64> = (0..jobs)
        .map(|j| fast(&sets.iter().map(|set| set[j]).collect::<Vec<_>>()))
        .collect();
    let starts: usize = first.iter().map(|p| p.starts).sum();
    let feasible: usize = first.iter().map(|p| p.feasible.len()).sum();
    let refined: Vec<f64> = expected.iter().flatten().map(|&c| c as f64).collect();
    let solve_s = fast_us.iter().sum::<f64>() / 1e6;
    println!(
        "job_sets={} jobs_per_set={jobs} first_set_wall_s={first_wall:.4} solve_s.fast={solve_s:.4} \
         feasible_starts={feasible}/{starts} refined_costs={expected:?}",
        sets.len()
    );
    out.set("replay_events_per_s", jobs as f64 / solve_s);
    out.set("admit_p50_us", percentile(&fast_us, 50.0));
    out.set("admit_p99_us", percentile(&fast_us, 99.0));
    out.set("admission_rate", ratio(feasible as f64, starts as f64));
    // Each instance's refined platform held for one time unit.
    out.set("cost_integral", refined.iter().sum());
    out.set("solve_s", solve_s);
    out.set(
        "refined_cost",
        ratio(refined.iter().sum(), refined.len() as f64),
    );
    out.set("setup_s", median(&setup));
    out.set("peak_rss_mb", peak_rss_mb);
    out
}

fn traced_pass(
    args: &Args,
    instances: &[Instance],
    expected: &[Option<u64>],
    plain: &[&dyn Heuristic],
    e2e_wall: f64,
    out: &mut Outcome,
) {
    // Traced and untraced job sets alternate, so both see the same load
    // from the rest of the machine.
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut e2e_walls = vec![e2e_wall];
    while runs.is_empty() || secs(started) < args.seconds {
        if !runs.is_empty() {
            e2e_walls.push(solve_all(instances, args.seed, plain).1);
        }
        let timed: Vec<TimedHeuristic> = all_heuristics()
            .into_iter()
            .map(TimedHeuristic::new)
            .collect();
        let wrapped: Vec<&dyn Heuristic> = timed.iter().map(|h| h as &dyn Heuristic).collect();
        let (portfolios, wall) = solve_all(instances, args.seed, &wrapped);
        let same = bests(&portfolios) == expected;
        out.check(
            same,
            format!(
                "traced job set {} reaches the untraced refined costs",
                runs.len() + 1
            ),
        );
        let place_us: Vec<f64> = timed.iter().flat_map(TimedHeuristic::samples).collect();
        runs.push((portfolios, wall, place_us));
        if !same {
            break;
        }
    }
    let per_run = |f: &dyn Fn(&[Portfolio]) -> f64| {
        fast(&runs.iter().map(|(p, _, _)| f(p)).collect::<Vec<_>>())
    };
    let place_us: Vec<f64> = runs.iter().flat_map(|(_, _, us)| us).copied().collect();
    let first = &runs[0].0;
    let refined = || first.iter().flat_map(|p| &p.refined);
    let evals: u64 = refined().map(|r| r.stats.evals).sum();
    let accepted: u64 = refined().map(|r| r.stats.accepted).sum();
    let rejected: u64 = refined().map(|r| r.stats.verify_rejected).sum();
    println!(
        "traced job_sets={} place.samples={} evals={evals} accepted={accepted} \
         verify_rejected={rejected}",
        runs.len(),
        place_us.len()
    );
    out.set("heuristics.place.calls", runs[0].2.len() as f64);
    out.set(
        "heuristics.place.ms",
        fast(
            &runs
                .iter()
                .map(|(_, _, us)| us.iter().sum::<f64>() / 1e3)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("heuristics.place.p99_us", percentile(&place_us, 99.0));
    out.set(
        "heuristics.solve.ms",
        per_run(&|ps| ps.iter().flat_map(|p| &p.solve_us).sum::<f64>() / 1e3),
    );
    out.set(
        "heuristics.solve.feasible",
        first.iter().map(|p| p.feasible.len()).sum::<usize>() as f64,
    );
    out.set(
        "search.refine.ms",
        per_run(&|ps| ps.iter().flat_map(|p| &p.refine_us).sum::<f64>() / 1e3),
    );
    out.set("search.evals", evals as f64);
    out.set("search.accept_ratio", ratio(accepted as f64, evals as f64));
    out.set(
        "search.verify_reject_ratio",
        ratio(rejected as f64, (accepted + rejected) as f64),
    );
    let traced_wall = fast(&runs.iter().map(|(_, w, _)| *w).collect::<Vec<_>>());
    out.set("trace.overhead_ms", (traced_wall - fast(&e2e_walls)) * 1e3);
}
