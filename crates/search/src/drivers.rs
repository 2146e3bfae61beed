//! The anytime drivers descending from a constructive start, and the
//! portfolio racing all six heuristics.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use snsp_core::heuristics::{
    all_heuristics, solve_seeded, PipelineOptions, PlacementOptions, Solution,
};
use snsp_core::instance::Instance;
use snsp_core::refine::{RefineDriver, RefineOptions};
use snsp_solver::lower_bound;

use crate::moves::{enumerate, propose, Move};
use crate::state::{telemetry_for, RefineStats, SearchState};

/// Initial annealing temperature in dollars. A chassis costs $7,548, so
/// early on uphill moves of about a quarter machine are still accepted.
const ANNEAL_T0: f64 = 2_000.0;

/// Multiplicative temperature decay per annealing proposal: near-greedy
/// within about 2k proposals.
const ANNEAL_COOLING: f64 = 0.996;

/// A shared, strictly-decreasing work allowance. One unit is one screened
/// candidate move (or annealing proposal); callers outside this crate —
/// `snsp-serve`'s departure re-consolidation — charge it per relocation
/// attempt. Exhaustion is a clean stop, never an error: anytime callers
/// keep whatever verified state they already hold.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    limit: u64,
    used: u64,
}

impl Budget {
    /// A budget of `limit` units.
    pub fn new(limit: u64) -> Self {
        Budget { limit, used: 0 }
    }

    /// Consumes `n` units; `false` (and no charge) when fewer remain.
    pub fn charge(&mut self, n: u64) -> bool {
        if self.used + n > self.limit {
            return false;
        }
        self.used += n;
        true
    }

    /// Units consumed so far.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Units still available.
    pub fn remaining(&self) -> u64 {
        self.limit - self.used
    }

    /// Whether nothing remains.
    pub fn exhausted(&self) -> bool {
        self.used >= self.limit
    }
}

/// A refined solution with its run statistics.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The best verified solution found (cost ≤ the start's).
    pub solution: Solution,
    /// What the search did to get there.
    pub stats: RefineStats,
}

/// Refines a feasible solution in place of the paper's future-work
/// paragraph: anytime local search over the typed neighborhood, screened
/// through the incremental demand engine and committed only past the
/// full constraint check. The result never costs more than `start`.
///
/// The search stops early at the certificate
/// [`snsp_solver::lower_bound`]: no feasible mapping costs less, so a
/// state that meets it is optimal. Stopping there returns the cost,
/// grouping and kinds of the full search in fewer evaluations, and its
/// downloads too unless the full search would have spent the whole
/// budget before its routing polish.
pub fn refine(
    inst: &Instance,
    start: &Solution,
    placement: PlacementOptions,
    opts: &RefineOptions,
) -> RefineOutcome {
    certified_refine(inst, start, placement, opts, lower_bound(inst).value())
}

/// [`refine`] against a given certificate, a cost no feasible mapping
/// undercuts. Certificate 0 is never met, which runs the full search.
fn certified_refine(
    inst: &Instance,
    start: &Solution,
    placement: PlacementOptions,
    opts: &RefineOptions,
    certificate: u64,
) -> RefineOutcome {
    let mut state = SearchState::new(inst, start, placement, opts.seed);
    let mut budget = Budget::new(opts.max_evals);
    let mut stats = RefineStats {
        start_cost: start.cost,
        final_cost: start.cost,
        ..Default::default()
    };
    let solution = match opts.driver {
        RefineDriver::FirstImprovement => {
            greedy(&mut state, &mut budget, &mut stats, certificate);
            state.solution(start.heuristic)
        }
        RefineDriver::Anneal => anneal(
            &mut state,
            &mut budget,
            &mut stats,
            opts.seed,
            start.heuristic,
            certificate,
        ),
    };
    stats.evals = budget.used();
    stats.final_cost = solution.cost;
    debug_assert!(solution.cost <= start.cost, "refinement never regresses");
    RefineOutcome { solution, stats }
}

/// First-improvement greedy descent: commits the first strictly
/// improving move of each sweep and restarts the sweep. Terminates at a
/// local optimum, at the `certificate` or on budget exhaustion, then
/// polishes the download routing. A sweep from a state at the
/// certificate could only screen moves that fail verification, so
/// skipping it leaves the state, and hence the polish, unchanged.
fn greedy(
    state: &mut SearchState<'_>,
    budget: &mut Budget,
    stats: &mut RefineStats,
    certificate: u64,
) {
    'descent: while state.cost() > certificate {
        for mv in &enumerate(state) {
            if !budget.charge(1) {
                break 'descent;
            }
            let Some(sc) = state.screen(mv) else { continue };
            if sc.delta >= 0 {
                continue;
            }
            if state.apply(&sc, budget.used()) {
                stats.accepted += 1;
                telemetry_for(mv).accepted.incr();
                continue 'descent;
            }
            stats.verify_rejected += 1;
            telemetry_for(mv).rejected.incr();
        }
        break; // full sweep, no commit: a local optimum
    }
    // Routing polish: seeded re-routes that strictly reduce the peak
    // relative server load (cost is already locally optimal).
    let mut k = 0u64;
    while budget.charge(1) {
        if state.try_reroute(state_reroute_seed(stats.start_cost, k)) {
            stats.rerouted += 1;
        }
        k += 1;
        if k >= 4 {
            break;
        }
    }
}

fn state_reroute_seed(base: u64, k: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ k
}

/// Simulated annealing with geometric cooling from [`ANNEAL_T0`] by
/// [`ANNEAL_COOLING`] per proposal. Every accepted state is fully
/// verified (the trajectory never leaves the feasible region), and the
/// best state along the way is snapshotted and returned. Stops once the
/// best meets the `certificate`: only a strictly cheaper state replaces
/// it, and none exists.
fn anneal(
    state: &mut SearchState<'_>,
    budget: &mut Budget,
    stats: &mut RefineStats,
    seed: u64,
    heuristic: &'static str,
    certificate: u64,
) -> Solution {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = ANNEAL_T0;
    let mut best = state.solution(heuristic);
    while best.cost > certificate && budget.charge(1) {
        let mv = propose(state, &mut rng);
        if let Move::Reroute { attempt } = mv {
            if state.try_reroute(seed ^ u64::from(attempt)) {
                stats.rerouted += 1;
            }
            t *= ANNEAL_COOLING;
            continue;
        }
        if let Some(sc) = state.screen(&mv) {
            let accept = sc.delta <= 0 || {
                let p = (-(sc.delta as f64) / t).exp();
                rng.gen_range(0.0..1.0) < p
            };
            if accept {
                if state.apply(&sc, budget.used()) {
                    stats.accepted += 1;
                    telemetry_for(&mv).accepted.incr();
                    if state.cost() < best.cost {
                        best = state.solution(heuristic);
                    }
                } else {
                    stats.verify_rejected += 1;
                    telemetry_for(&mv).rejected.incr();
                }
            }
        }
        t *= ANNEAL_COOLING;
    }
    best
}

/// The portfolio driver: race all six paper heuristics as starts (the
/// default pipeline), keep the feasible ones, refine the cheapest `top_k`
/// under `opts`, and return the best refined solution (never worse than
/// the best start). Once the best meets the [`refine`] certificate, no
/// later start can replace it, so none is refined. `None` when no
/// heuristic finds a feasible start.
pub fn refine_portfolio(
    inst: &Instance,
    seed: u64,
    opts: &RefineOptions,
    top_k: usize,
) -> Option<RefineOutcome> {
    certified_portfolio(inst, seed, opts, top_k, lower_bound(inst).value())
}

/// [`refine_portfolio`] against a given certificate, as
/// [`certified_refine`] is [`refine`].
fn certified_portfolio(
    inst: &Instance,
    seed: u64,
    opts: &RefineOptions,
    top_k: usize,
    certificate: u64,
) -> Option<RefineOutcome> {
    let pipeline = PipelineOptions::default();
    let mut starts: Vec<Solution> = all_heuristics()
        .iter()
        .filter_map(|h| solve_seeded(h.as_ref(), inst, seed, &pipeline).ok())
        .collect();
    starts.sort_by_key(|a| a.cost);
    if starts.is_empty() {
        return None;
    }
    let best_start = starts[0].clone();
    let mut best: Option<RefineOutcome> = None;
    for start in starts.into_iter().take(top_k.max(1)) {
        if best
            .as_ref()
            .is_some_and(|b| b.solution.cost <= certificate)
        {
            break;
        }
        let out = certified_refine(inst, &start, pipeline.placement, opts, certificate);
        let replace = best
            .as_ref()
            .is_none_or(|b| out.solution.cost < b.solution.cost);
        let evals = out.stats.evals + best.as_ref().map_or(0, |b| b.stats.evals);
        let accepted = out.stats.accepted + best.as_ref().map_or(0, |b| b.stats.accepted);
        let verify_rejected =
            out.stats.verify_rejected + best.as_ref().map_or(0, |b| b.stats.verify_rejected);
        let rerouted = out.stats.rerouted + best.as_ref().map_or(0, |b| b.stats.rerouted);
        let mut keep = if replace {
            out
        } else {
            best.expect("non-replacing iteration had a previous best")
        };
        keep.stats.evals = evals;
        keep.stats.accepted = accepted;
        keep.stats.verify_rejected = verify_rejected;
        keep.stats.rerouted = rerouted;
        best = Some(keep);
    }
    let mut out = best.expect("at least one start was refined");
    out.stats.start_cost = best_start.cost;
    out.stats.final_cost = out.solution.cost;
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snsp_core::constraints;
    use snsp_core::heuristics::heuristic_by_name;
    use snsp_core::refine::RefineDriver;
    use snsp_gen::{generate, ScenarioParams, TreeShape};

    fn opts_with(driver: RefineDriver, max_evals: u64) -> RefineOptions {
        RefineOptions {
            driver,
            max_evals,
            ..Default::default()
        }
    }

    #[test]
    fn every_driver_never_regresses_and_stays_feasible() {
        let drivers = [RefineDriver::FirstImprovement, RefineDriver::Anneal];
        for seed in 0..4u64 {
            let inst = generate(&ScenarioParams::paper(30, 0.9), TreeShape::Random, seed);
            let h = heuristic_by_name("Comp-Greedy").unwrap();
            let start = solve_seeded(h.as_ref(), &inst, seed, &PipelineOptions::default()).unwrap();
            for driver in drivers {
                let out = refine(
                    &inst,
                    &start,
                    PlacementOptions::default(),
                    &RefineOptions {
                        driver,
                        max_evals: 600,
                        ..Default::default()
                    },
                );
                assert!(
                    out.solution.cost <= start.cost,
                    "{} regressed: {} > {}",
                    driver.name(),
                    out.solution.cost,
                    start.cost
                );
                assert!(constraints::is_feasible(&inst, &out.solution.mapping));
                assert_eq!(out.stats.final_cost, out.solution.cost);
                assert!(out.stats.evals <= 600);
            }
        }
    }

    #[test]
    fn refinement_is_deterministic_per_seed() {
        let inst = generate(&ScenarioParams::paper(40, 0.9), TreeShape::Random, 3);
        let run = |seed: u64| {
            refine_portfolio(&inst, 3, &opts_with(RefineDriver::Anneal, 800), 2).map(|o| {
                (
                    o.solution.cost,
                    o.solution.mapping.assignment.clone(),
                    o.solution.mapping.downloads.clone(),
                    seed,
                )
            })
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a.map(|x| (x.0, x.1, x.2)), b.map(|x| (x.0, x.1, x.2)));
    }

    #[test]
    fn solve_refined_with_none_matches_solve_seeded() {
        // No evaluation budget: every driver hands back the constructive
        // solution unchanged.
        let inst = generate(&ScenarioParams::paper(20, 0.9), TreeShape::Random, 5);
        let h = heuristic_by_name("subtree-bottom-up").unwrap();
        let plain = solve_seeded(h.as_ref(), &inst, 5, &PipelineOptions::default()).unwrap();
        for driver in [RefineDriver::FirstImprovement, RefineDriver::Anneal] {
            let out = refine(
                &inst,
                &plain,
                PlacementOptions::default(),
                &opts_with(driver, 0),
            );
            assert_eq!(plain.cost, out.solution.cost);
            assert_eq!(plain.mapping.assignment, out.solution.mapping.assignment);
            assert_eq!(out.stats.evals, 0);
        }
    }

    #[test]
    fn portfolio_beats_or_matches_its_best_start() {
        for seed in 0..3u64 {
            let inst = generate(&ScenarioParams::paper(40, 1.2), TreeShape::Random, seed);
            let constructive = PipelineOptions::default();
            let best_start = all_heuristics()
                .iter()
                .filter_map(|h| solve_seeded(h.as_ref(), &inst, seed, &constructive).ok())
                .map(|s| s.cost)
                .min();
            let out = refine_portfolio(
                &inst,
                seed,
                &opts_with(RefineDriver::FirstImprovement, 1500),
                3,
            );
            match (best_start, out) {
                (Some(start), Some(out)) => {
                    assert!(out.solution.cost <= start);
                    assert_eq!(out.stats.start_cost, start);
                    assert!(constraints::is_feasible(&inst, &out.solution.mapping));
                }
                (None, None) => {}
                (a, b) => panic!("portfolio feasibility diverged: {a:?} vs {}", b.is_some()),
            }
        }
    }

    /// The certificate changes no refined solution, on paper instances
    /// of both tree shapes (see [`certificate_equivalence`]).
    #[test]
    fn the_certificate_changes_no_refined_solution() {
        let instances: Vec<(usize, TreeShape)> = [500, 100, 60, 30, 12, 8]
            .into_iter()
            .flat_map(|n| [(n, TreeShape::Random), (n, TreeShape::LeftDeep)])
            .collect();
        // One job per instance on two workers, the largest first: about
        // 12 s of debug-build refinement in all.
        let counts = snsp_core::pool::run_jobs(instances.len(), 2, |i| {
            let (n, shape) = instances[i];
            certificate_equivalence(n, shape)
        });
        let [runs, certified, polished] = counts
            .into_iter()
            .fold([0; 3], |acc, c| [0, 1, 2].map(|k| acc[k] + c[k]));
        assert!(runs >= 390, "only {runs} runs");
        assert!(
            certified > runs / 2,
            "{certified} of {runs} runs stopped early"
        );
        assert!(
            polished > 0,
            "no budget ran out inside an uncertified descent"
        );
    }

    /// Runs both drivers at budgets 50, 600 and 3,000 from every feasible
    /// start of one paper instance, and both portfolios at 600, with
    /// certificate 0, which is never met (the uncertified search), and
    /// with `lower_bound`. Cost,
    /// assignment and kinds are equal, and the certified run never
    /// evaluates more. Downloads are equal too, except where a
    /// first-improvement budget ran out inside the uncertified descent:
    /// the certified run skipped that descent, so it reached the routing
    /// polish and re-routed where the uncertified one could not. Returns
    /// the runs, those that stopped early and those that polished more.
    fn certificate_equivalence(n: usize, shape: TreeShape) -> [usize; 3] {
        let pipeline = PipelineOptions::default();
        let seed = n as u64;
        let inst = generate(&ScenarioParams::paper(n, 0.9), shape, seed);
        let certificate = lower_bound(&inst).value();
        let [mut runs, mut certified, mut polished] = [0; 3];
        for h in all_heuristics() {
            let Ok(start) = solve_seeded(h.as_ref(), &inst, seed, &pipeline) else {
                continue;
            };
            for driver in [RefineDriver::FirstImprovement, RefineDriver::Anneal] {
                for max_evals in [50, 600, 3_000] {
                    let opts = opts_with(driver, max_evals);
                    let run = |c| certified_refine(&inst, &start, pipeline.placement, &opts, c);
                    let (plain, fast) = (run(0), run(certificate));
                    let at = format!(
                        "N={n} {shape:?} {} {} max_evals={max_evals}",
                        h.name(),
                        driver.name()
                    );
                    let (a, b) = (&plain.solution, &fast.solution);
                    assert_eq!(a.cost, b.cost, "{at}");
                    assert_eq!(a.mapping.assignment, b.mapping.assignment, "{at}");
                    assert_eq!(a.mapping.proc_kinds, b.mapping.proc_kinds, "{at}");
                    assert!(fast.stats.evals <= plain.stats.evals, "{at}");
                    if a.mapping.downloads != b.mapping.downloads {
                        assert_eq!(driver, RefineDriver::FirstImprovement, "{at}");
                        assert_eq!(plain.stats.evals, max_evals, "{at}");
                        assert!(fast.stats.rerouted > plain.stats.rerouted, "{at}");
                        polished += 1;
                    }
                    certified += usize::from(fast.stats.evals < plain.stats.evals);
                    runs += 1;
                }
            }
        }
        for driver in [RefineDriver::FirstImprovement, RefineDriver::Anneal] {
            let opts = opts_with(driver, 600);
            let run = |c| certified_portfolio(&inst, seed, &opts, 3, c);
            let at = format!("N={n} {shape:?} portfolio {}", driver.name());
            let (plain, fast) = match (run(0), run(certificate)) {
                (Some(plain), Some(fast)) => (plain, fast),
                (plain, fast) => {
                    assert!(plain.is_none() && fast.is_none(), "{at}");
                    continue;
                }
            };
            let (a, b) = (&plain.solution, &fast.solution);
            assert_eq!(a.cost, b.cost, "{at}");
            assert_eq!(a.mapping.assignment, b.mapping.assignment, "{at}");
            assert_eq!(a.mapping.proc_kinds, b.mapping.proc_kinds, "{at}");
            assert!(fast.stats.evals <= plain.stats.evals, "{at}");
            if a.mapping.downloads != b.mapping.downloads {
                assert_eq!(driver, RefineDriver::FirstImprovement, "{at}");
                polished += 1;
            }
            certified += usize::from(fast.stats.evals < plain.stats.evals);
            runs += 1;
        }
        [runs, certified, polished]
    }

    #[test]
    fn budget_charges_and_exhausts() {
        let mut b = Budget::new(3);
        assert!(b.charge(2) && b.remaining() == 1);
        assert!(!b.charge(2), "over-charge refused");
        assert!(b.charge(1) && b.exhausted());
        assert_eq!(b.used(), 3);
    }
}
