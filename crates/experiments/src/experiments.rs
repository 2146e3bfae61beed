//! One function per paper table/figure; `run_one` in `main.rs` maps each
//! experiment id to its function.

use rand::rngs::StdRng;
use rand::SeedableRng;

use snsp_core::heuristics::{all_heuristics, solve, CommGreedy, PipelineOptions, SubtreeBottomUp};
use snsp_core::platform::{Catalog, MBPS_PER_GBPS};
use snsp_engine::{simulate, SimConfig};
use snsp_gen::{generate, Frequency, ScenarioParams, SizeRange, TreeShape};
use snsp_solver::lower_bound;
use snsp_sweep::{run_campaign, Campaign, CampaignReport, PointSpec, ReferenceConfig};

use crate::table::{fmt_cost, Table};

/// Renders the classic cost/feasibility table pair from a campaign
/// report (the human-readable view of `BENCH_sweep.json`).
pub fn report_tables(report: &CampaignReport, title: &str, axis: &str) -> Vec<Table> {
    let mut header = vec![axis.to_string()];
    header.extend(report.heuristic_names.iter().map(|s| s.to_string()));
    let has_reference = report.points.iter().any(|p| p.reference.is_some());
    if has_reference {
        header.push("exact".to_string());
        header.push("exact optimal?".to_string());
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut costs = Table::new(
        format!("{title} — mean cost ($) over feasible runs"),
        &header,
    );
    let mut feas = Table::new(
        format!("{title} — feasible runs out of {}", report.seeds),
        &header,
    );
    for point in &report.points {
        let mut cost_row = vec![point.label.clone()];
        let mut feas_row = vec![point.label.clone()];
        for s in &point.heuristics {
            cost_row.push(fmt_cost(s.mean_cost));
            feas_row.push(format!("{}", s.feasible));
        }
        if has_reference {
            match &point.reference {
                Some(r) => {
                    cost_row.push(fmt_cost(r.mean_cost));
                    cost_row.push(if r.optimal { "yes" } else { "truncated" }.into());
                    feas_row.push(format!("{}", r.solved));
                    feas_row.push("-".into());
                }
                None => {
                    cost_row.extend(["-".to_string(), "-".to_string()]);
                    feas_row.extend(["-".to_string(), "-".to_string()]);
                }
            }
        }
        costs.push(cost_row);
        feas.push(feas_row);
    }
    vec![costs, feas]
}

fn points_of(points: impl IntoIterator<Item = (String, ScenarioParams)>) -> Vec<PointSpec> {
    points
        .into_iter()
        .map(|(label, params)| PointSpec::new(label, params))
        .collect()
}

/// One point per operator count, labelled by it.
fn over_n(
    ns: impl IntoIterator<Item = usize>,
    params: impl Fn(usize) -> ScenarioParams,
) -> Vec<PointSpec> {
    points_of(ns.into_iter().map(|n| (n.to_string(), params(n))))
}

/// The table title and axis of the paper figures and §5 experiments
/// that are sweep grids: `snsp-experiments <id>` renders [`grid`]`(id)`
/// under them.
pub fn paper_title(id: &str) -> Option<(&'static str, &'static str)> {
    Some(match id {
        "fig2a" => ("Fig. 2 (α = 0.9) — high frequency, small objects", "N"),
        "fig2b" => ("Fig. 2 (α = 1.7) — high frequency, small objects", "N"),
        "fig3" => (
            "Fig. 3 (N = 60) — cost vs α, high frequency, small objects",
            "alpha",
        ),
        "fig3n20" => (
            "Fig. 3 (N = 20) — cost vs α, high frequency, small objects",
            "alpha",
        ),
        "large" => ("Large objects (450–530 MB), α = 0.9, high frequency", "N"),
        "lowfreq" => ("Low frequency (1/50 s), small objects, α = 0.9", "N"),
        _ => return None,
    })
}

/// The named campaign grids behind the `sweep` CLI subcommand, the paper
/// ids [`paper_title`] names and the CI `artifacts` sweep row:
///
/// * `fig2a`/`fig2b` — Fig. 2, cost vs N at α = 0.9 / 1.7, high
///   frequency, small objects;
/// * `fig3`/`fig3n20` — Fig. 3, cost vs α at N = 60 (the paper's plot)
///   and N = 20 (discussed in its text);
/// * `large` — §5 text, large objects (450–530 MB): feasibility
///   collapses past N ≈ 45;
/// * `lowfreq` — §5 text, low download frequency (1/50 s) mirrors the
///   high-frequency ranking with cheaper network cards;
/// * `ci` — a deliberately small fixed grid with an exact reference
///   column, cheap enough to run on every push;
/// * `large-n` — production-scale trees, practical only since the
///   incremental demand engine: a full six-heuristic sweep at N = 2000
///   runs in CI smoke time.
pub fn grid(id: &str, seeds: u64) -> Option<Campaign> {
    let alpha = |a: f64| move |n| ScenarioParams::paper(n, a);
    let over_alpha = |n: usize| {
        points_of((5..=25).map(|a| {
            let alpha = a as f64 / 10.0;
            (format!("{alpha:.1}"), ScenarioParams::paper(n, alpha))
        }))
    };
    let fig2_ns = || (20..=140).step_by(20);
    let points = match id {
        "fig2a" => over_n(fig2_ns(), alpha(0.9)),
        "fig2b" => over_n(fig2_ns(), alpha(1.7)),
        "fig3" => over_alpha(60),
        "fig3n20" => over_alpha(20),
        "large" => over_n((5..=65).step_by(10), |n| {
            ScenarioParams::paper(n, 0.9).with_sizes(SizeRange::LARGE)
        }),
        "lowfreq" => over_n(fig2_ns(), |n| {
            ScenarioParams::paper(n, 0.9).with_freq(Frequency::LOW)
        }),
        "ci" => over_n([8, 12, 20, 60], alpha(0.9)),
        "large-n" => over_n([250, 500, 1000, 2000], alpha(0.9)),
        _ => return None,
    };
    let campaign = Campaign::new(id, points, seeds);
    Some(match id {
        "ci" => campaign.with_reference(ReferenceConfig {
            max_ops: 12,
            node_budget: 200_000,
            workers: 1,
        }),
        _ => campaign,
    })
}

/// Every grid id accepted by [`grid`].
pub const GRID_IDS: &[&str] = &[
    "fig2a", "fig2b", "fig3", "fig3n20", "large", "lowfreq", "ci", "large-n",
];

/// The named trace grids behind the `serve` CLI subcommand and the CI
/// `serve-smoke` job. `serve-ci` is a deliberately small fixed grid cheap
/// enough to replay on every push. The `sharded-*` grids route replay
/// through the sharded tier (`sharded-ci` — small, 4 shards, the
/// committed `BENCH_serve.json` artifact; `sharded-100k` — a ~10⁵-tenant
/// stress trace over the dense 24-server environment, 16 shards).
pub fn serve_grid(id: &str, seeds: u64) -> Option<snsp_serve::ServeCampaign> {
    use snsp_gen::{Burst, TraceParams};
    use snsp_serve::{ServeCampaign, ServePoint};
    let shards = match id {
        "sharded-ci" => 4,
        "sharded-100k" => 16,
        _ => 1,
    };
    let points = match id {
        "sharded-ci" => vec![
            ServePoint::new("calm", TraceParams::poisson(0.6, 5.0, 20.0)),
            ServePoint::new(
                "flaky",
                TraceParams::poisson(0.8, 5.0, 20.0).with_failures(0.1),
            ),
        ],
        "sharded-100k" => vec![
            ServePoint::new("100k", TraceParams::heavy(2000.0, 0.25, 50.0)),
            ServePoint::new(
                "100k-flaky",
                TraceParams::heavy(2000.0, 0.25, 50.0).with_failures(0.2),
            ),
        ],
        "serve-ci" => vec![
            ServePoint::new("calm", TraceParams::poisson(0.3, 5.0, 20.0)),
            ServePoint::new(
                "flaky",
                TraceParams::poisson(0.4, 5.0, 20.0).with_failures(0.1),
            ),
        ],
        "poisson" => (1..=4)
            .map(|i| {
                let lambda = i as f64 * 0.2;
                ServePoint::new(
                    format!("lambda={lambda:.1}"),
                    TraceParams::poisson(lambda, 8.0, 60.0),
                )
            })
            .collect(),
        "burst" => [2.0f64, 4.0, 8.0]
            .into_iter()
            .map(|m| {
                ServePoint::new(
                    format!("x{m:.0}"),
                    TraceParams::poisson(0.3, 6.0, 60.0).with_burst(Burst {
                        period: 15.0,
                        width: 3.0,
                        multiplier: m,
                    }),
                )
            })
            .collect(),
        "churn" => [0.0f64, 0.05, 0.1, 0.2]
            .into_iter()
            .map(|f| {
                ServePoint::new(
                    format!("fail={f:.2}"),
                    TraceParams::poisson(0.4, 8.0, 60.0).with_failures(f),
                )
            })
            .collect(),
        _ => return None,
    };
    Some(ServeCampaign::new(id, points, seeds).with_shards(shards, 1))
}

/// Every grid id accepted by [`serve_grid`].
pub const SERVE_GRID_IDS: &[&str] = &[
    "serve-ci",
    "poisson",
    "burst",
    "churn",
    "sharded-ci",
    "sharded-100k",
];

/// Renders the service-metric table from a serve campaign report.
pub fn serve_tables(report: &snsp_serve::ServeCampaignReport, title: &str) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "{title} — online serving metrics over {} seeds",
            report.seeds
        ),
        &[
            "trace",
            "arrivals",
            "admit %",
            "evicted",
            "failures",
            "mean ∫cost dt",
            "mean util",
            "SLO viol.",
            "admit p50/p99 µs",
        ],
    );
    for p in &report.points {
        t.push(vec![
            p.label.clone(),
            p.arrivals.to_string(),
            format!("{:.0}%", 100.0 * p.admission_rate()),
            p.evicted.to_string(),
            p.failures.to_string(),
            format!("{:.0}", p.mean_cost_integral),
            format!("{:.3}", p.mean_utilization),
            format!("{}/{}", p.slo_violations, p.slo_checks),
            format!("{:.0}/{:.0}", p.admit_p50_us(), p.admit_p99_us()),
        ]);
    }
    vec![t]
}

/// The named fault-injection grids behind the `chaos` CLI subcommand and
/// the CI `chaos-smoke` job. `ci` is a small fixed grid — a
/// crash/message-fault point, a capacity-revocation point with retries,
/// and a degradation point — cheap enough to replay on every push (it is
/// the committed `BENCH_chaos.json` artifact). `racks` sweeps correlated
/// burst sizes; `msg-storm` sweeps transport-fault probabilities.
pub fn chaos_grid(id: &str, seeds: u64) -> Option<snsp_serve::ServeCampaign> {
    use snsp_gen::TraceParams;
    use snsp_serve::{FaultSpec, RetryPolicy, ServeCampaign, ServePoint};
    // Heavy tenants make faults bite: the platform must buy real
    // capacity, so revocations and crashes displace actual residents.
    let heavy = TraceParams::poisson(1.2, 50.0, 30.0)
        .with_tenant_ops(12, 20)
        .with_tenant_rho(8.0, 16.0);
    let points = match id {
        "ci" => vec![
            ServePoint::new(
                "crash-recovery",
                TraceParams::poisson(0.6, 5.0, 20.0).with_failures(0.05),
            )
            .with_fault(
                FaultSpec::seeded(101)
                    .with_crashes(0.25)
                    .with_msg_faults(0.05, 0.03, 0.03)
                    .with_retry(RetryPolicy::standard())
                    .with_ticks(2.0),
            ),
            ServePoint::new("revocation", heavy).with_fault(
                FaultSpec::seeded(202)
                    .with_revocation(10.0, 14.0, 0.6)
                    .with_retry(RetryPolicy::standard())
                    .with_ticks(1.0),
            ),
            ServePoint::new(
                "degrade",
                TraceParams::poisson(1.5, 40.0, 24.0)
                    .with_tenant_ops(12, 20)
                    .with_tenant_rho(2.0, 4.0),
            )
            .with_fault(
                FaultSpec::seeded(303)
                    .with_revocation(6.0, 22.0, 0.7)
                    .with_retry(RetryPolicy::standard())
                    .with_degradation(2, 1)
                    .with_ticks(1.0),
            ),
        ],
        "racks" => [1usize, 2, 4]
            .into_iter()
            .map(|size| {
                ServePoint::new(format!("rack={size}"), TraceParams::poisson(0.8, 8.0, 40.0))
                    .with_fault(
                        FaultSpec::seeded(404 + size as u64)
                            .with_racks(0.08, size)
                            .with_retry(RetryPolicy::standard())
                            .with_ticks(2.0),
                    )
            })
            .collect(),
        "msg-storm" => [0.05f64, 0.15, 0.3]
            .into_iter()
            .map(|p| {
                ServePoint::new(format!("drop={p:.2}"), TraceParams::poisson(0.8, 6.0, 30.0))
                    .with_fault(
                        FaultSpec::seeded(505)
                            .with_msg_faults(p, p / 2.0, p / 2.0)
                            .with_ticks(2.0),
                    )
            })
            .collect(),
        _ => return None,
    };
    Some(ServeCampaign::new(id, points, seeds).with_shards(2, 1))
}

/// Every grid id accepted by [`chaos_grid`].
pub const CHAOS_GRID_IDS: &[&str] = &["ci", "racks", "msg-storm"];

/// The most events one fault mechanism may schedule over a grid point's
/// horizon. Crashes, rack lotteries (bursts × rack size) and tick
/// barriers count separately; the Poisson mechanisms count by their
/// expected number. A plan past this bound only exhausts memory or time.
pub const MAX_FAULT_EVENTS: f64 = 100_000.0;

/// Parses a `--fault-plan` override: comma-separated `key=value` pairs
/// replacing every grid point's fault spec, range-checked against the
/// longest point `horizon` before any replay starts.
///
/// Keys: `seed=N`, `crash=RATE`, `rack=RATE:SIZE`,
/// `drop=P` / `dup=P` / `delay=P` (message faults),
/// `revoke=START:END:FRAC`, `tick=DT`, `retry=BASE:FACTOR:MAX`,
/// `degrade=PRESSURE:MAX_SHED`.
///
/// Every number must be finite and non-negative. Probabilities and the
/// revoke fraction must be at most 1, and counts (`seed`, rack size,
/// retry attempts, degrade pressure and shed) whole numbers. A revoke
/// window may not start after it ends, and no mechanism may schedule
/// more than [`MAX_FAULT_EVENTS`] events over `horizon`. Errors name the
/// offending key.
pub fn parse_fault_plan(text: &str, horizon: f64) -> Result<snsp_serve::FaultSpec, String> {
    use snsp_serve::{DegradePolicy, FaultSpec, RetryPolicy};
    let mut spec = FaultSpec::default();
    for part in text.split(',').filter(|p| !p.is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("--fault-plan entry {part:?} is not key=value"))?;
        let nums: Vec<f64> = value
            .split(':')
            .map(|v| {
                v.parse::<f64>()
                    .map_err(|_| format!("--fault-plan {key}: {v:?} is not a number"))
            })
            .collect::<Result<_, _>>()?;
        let arity = match key {
            "seed" | "crash" | "drop" | "dup" | "delay" | "tick" => 1,
            "rack" | "degrade" => 2,
            "revoke" | "retry" => 3,
            other => {
                return Err(format!(
                    "--fault-plan key {other:?} unknown (seed, crash, rack, drop, dup, delay, \
                     revoke, tick, retry, degrade)"
                ))
            }
        };
        let bad = |why: &str| format!("--fault-plan {key}={value}: {why}");
        if nums.len() != arity {
            let got = nums.len();
            return Err(bad(&format!(
                "needs {arity} colon-separated value(s), got {got}"
            )));
        }
        if nums.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(bad("every value must be finite and non-negative"));
        }
        let count = |x: f64, what: &str, max: f64| {
            if x.fract() != 0.0 || x > max {
                Err(bad(&format!("{what} must be a whole number <= {max}")))
            } else {
                Ok(x)
            }
        };
        let probability = |x: f64| {
            if x > 1.0 {
                Err(bad("a probability or fraction must be at most 1"))
            } else {
                Ok(x)
            }
        };
        let at_most = |events: f64, what: &str| {
            if events > MAX_FAULT_EVENTS {
                Err(bad(&format!(
                    "schedules about {events:.3e} {what} over a horizon of {horizon}, \
                     more than {MAX_FAULT_EVENTS}"
                )))
            } else {
                Ok(())
            }
        };
        match key {
            "seed" => spec.seed = count(nums[0], "the seed", u64::MAX as f64)? as u64,
            "crash" => {
                at_most(nums[0] * horizon, "crashes")?;
                spec.crash_rate = nums[0];
            }
            "rack" => {
                let size = count(nums[1], "the rack size", usize::MAX as f64)?;
                at_most(nums[0] * horizon * size, "rack lotteries")?;
                spec.rack_rate = nums[0];
                spec.rack_size = size as usize;
            }
            "drop" => spec.msg_drop = probability(nums[0])?,
            "dup" => spec.msg_dup = probability(nums[0])?,
            "delay" => spec.msg_delay = probability(nums[0])?,
            "revoke" => {
                if nums[0] > nums[1] {
                    return Err(bad("the window starts after it ends"));
                }
                spec.revoke_at = Some((nums[0], nums[1]));
                spec.revoke_frac = probability(nums[2])?;
            }
            "tick" => {
                if nums[0] > 0.0 {
                    at_most(horizon / nums[0], "barriers")?;
                }
                spec.tick_every = nums[0];
            }
            "retry" => {
                spec.retry = RetryPolicy {
                    base: nums[0],
                    factor: nums[1],
                    max_attempts: count(nums[2], "the attempt count", u32::MAX as f64)? as u32,
                };
            }
            "degrade" => {
                let max = usize::MAX as f64;
                spec.degrade = DegradePolicy {
                    pressure: count(nums[0], "the pressure", max)? as usize,
                    max_shed: count(nums[1], "the shed count", max)? as usize,
                };
            }
            _ => unreachable!("the arity match rejected every other key"),
        }
    }
    Ok(spec)
}

/// Renders the fault/recovery table from a chaos campaign report (the
/// human-readable view of `BENCH_chaos.json`).
pub fn chaos_tables(report: &snsp_serve::ServeCampaignReport, title: &str) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "{title} — fault injection and recovery over {} seeds",
            report.seeds
        ),
        &[
            "trace",
            "arrivals",
            "admit %",
            "faults",
            "crashes",
            "msg d/d/d",
            "readmit",
            "shed",
            "fp match",
            "audit",
        ],
    );
    for p in &report.points {
        let s = &p.stats;
        t.push(vec![
            p.label.clone(),
            p.arrivals.to_string(),
            format!("{:.0}%", 100.0 * p.admission_rate()),
            s.faults_injected.to_string(),
            format!("{}/{} rec.", s.recoveries, s.crashes),
            format!(
                "{}/{}/{}",
                s.msgs_dropped, s.msgs_duplicated, s.msgs_delayed
            ),
            format!(
                "{}/{} ({:.0}%)",
                s.readmitted,
                s.retry_enqueued,
                100.0 * p.readmission_rate()
            ),
            s.shed.to_string(),
            match p.crash_fingerprint_match {
                None => "-".into(),
                Some(true) => "yes".into(),
                Some(false) => "DIVERGED".into(),
            },
            if s.audit_failures == 0 {
                "clean".into()
            } else {
                format!("{} FAILED", s.audit_failures)
            },
        ]);
    }
    vec![t]
}

/// Renders the heuristic-vs-refined-vs-exact table from a refinement
/// campaign report (the human-readable view of `BENCH_refine.json`).
pub fn refine_tables(report: &snsp_search::RefineCampaignReport, title: &str) -> Vec<Table> {
    let mut t = Table::new(
        format!(
            "{title} — Subtree-Bottom-Up start vs refined vs exact over {} seeds ({}, {} evals, top-{})",
            report.seeds,
            report.refine.driver.name(),
            report.refine.max_evals,
            report.top_k
        ),
        &[
            "point",
            "feasible",
            "start ($)",
            "refined ($)",
            "improved",
            "exact ($)",
            "gap vs exact",
            "bb nodes",
            "certified bound",
            "lower bound",
        ],
    );
    for p in &report.points {
        let (exact_cost, gap, nodes, bound) = match &p.exact {
            Some(e) => (
                fmt_cost(e.mean_cost),
                // The gap is computed over certified (untruncated) seeds
                // only, so it stays meaningful even when other seeds
                // truncated — flag the partial coverage instead of
                // hiding the measurement.
                match (e.max_gap_pct, e.optimal) {
                    (Some(g), true) => format!("{g:.1}%"),
                    (Some(g), false) => format!("{g:.1}% (certified seeds)"),
                    (None, _) => "truncated".into(),
                },
                // Nodes expanded say how far the budget got; on
                // truncated seeds the certified bound is what the
                // incumbent is still provably above.
                if e.truncated > 0 {
                    format!(
                        "{:.0} (truncated {}/{})",
                        e.mean_nodes, e.truncated, e.solved
                    )
                } else {
                    format!("{:.0}", e.mean_nodes)
                },
                e.mean_bound
                    .map_or_else(|| "-".to_string(), |b| format!("{b:.0}")),
            ),
            None => ("-".into(), "-".into(), "-".into(), "-".into()),
        };
        t.push(vec![
            p.label.clone(),
            format!("{}/{}", p.feasible, p.runs),
            fmt_cost(p.mean_start_cost),
            fmt_cost(p.mean_refined_cost),
            format!("{}/{}", p.improved, p.feasible),
            exact_cost,
            gap,
            nodes,
            bound,
            format!("{:.0}", p.mean_lower_bound),
        ]);
    }
    vec![t]
}

/// Table 1: the purchase catalog with the paper's price/performance ratios.
pub fn table1() -> Vec<Table> {
    let catalog = Catalog::paper();
    let mut cpus = Table::new(
        "Table 1 — processor options (Dell PowerEdge R900, March 2008)",
        &["Performance (GHz)", "Cost ($)", "Ratio (GHz/$) ×10⁻³"],
    );
    for c in catalog.cpus() {
        let cost = catalog.chassis_cost() + c.upgrade_cost;
        cpus.push(vec![
            format!("{:.2}", c.speed),
            format!("7,548 + {}", c.upgrade_cost),
            format!("{:.2}", 1e3 * c.speed / cost as f64),
        ]);
    }
    let mut nics = Table::new(
        "Table 1 — network card options",
        &["Bandwidth (Gbps)", "Cost ($)", "Ratio (Gbps/$) ×10⁻⁴"],
    );
    for n in catalog.nics() {
        let cost = catalog.chassis_cost() + n.upgrade_cost;
        let gbps = n.bandwidth / MBPS_PER_GBPS;
        nics.push(vec![
            format!("{gbps:.0}"),
            format!("7,548 + {}", n.upgrade_cost),
            format!("{:.2}", 1e4 * gbps / cost as f64),
        ]);
    }
    vec![cpus, nics]
}

/// §5 text: download-rate sweep — frequencies below 1/10 s stop mattering.
pub fn rate_sweep(seeds: u64) -> Vec<Table> {
    let freqs = [
        ("1/2", 0.5),
        ("1/5", 0.2),
        ("1/10", 0.1),
        ("1/20", 0.05),
        ("1/50", 0.02),
    ];
    let mut tables = Vec::new();
    for n in [60usize, 160] {
        let points = points_of(freqs.iter().map(|&(label, f)| {
            (
                label.to_string(),
                ScenarioParams::paper(n, 0.9).with_freq(Frequency(f)),
            )
        }));
        tables.extend(report_tables(
            &run_campaign(&Campaign::new("rates", points, seeds)),
            &format!("Download-rate sweep, N = {n}, α = 0.9"),
            "freq (1/s)",
        ));
    }
    tables
}

/// §5 last experiment: heuristics vs the exact optimum on small
/// homogeneous (CONSTR-HOM) instances — a reference-column campaign over
/// a homogeneous catalog with the downgrade pass disabled (paper §5).
///
/// Unlike the seed harness, heuristic means cover *all* seeds rather
/// than only those the B&B solved; when the two column families average
/// different seed sets the `exact optimal?` column reads `truncated`,
/// flagging that they are not directly comparable.
pub fn vs_optimal(seeds: u64) -> Vec<Table> {
    let points = points_of([0.9, 1.3].into_iter().flat_map(|alpha| {
        [4usize, 8, 12, 16, 20]
            .into_iter()
            .map(move |n| (format!("N={n} α={alpha}"), ScenarioParams::paper(n, alpha)))
    }));
    let campaign = Campaign::new("vsopt", points, seeds)
        .with_catalog(Catalog::homogeneous(0, 0))
        .with_opts(PipelineOptions {
            downgrade: false,
            ..Default::default()
        })
        .with_reference(ReferenceConfig {
            max_ops: 20,
            node_budget: 500_000,
            workers: 1,
        });
    report_tables(
        &run_campaign(&campaign),
        "Heuristics vs exact optimum — CONSTR-HOM (entry CPU, 1 Gbps NIC)",
        "point",
    )
}

/// Engine validation (not in the paper): every mapping the heuristics call
/// feasible must sustain ρ in the discrete-event engine, and the measured
/// throughput must respect the analytic bound.
pub fn engine_validation(seeds: u64) -> Vec<Table> {
    let mut t = Table::new(
        "Engine validation — achieved throughput of produced mappings (ρ = 1)",
        &[
            "N",
            "heuristic",
            "runs",
            "min achieved",
            "mean achieved",
            "≤ analytic bound",
        ],
    );
    let heuristics: [(&str, &dyn snsp_core::heuristics::Heuristic); 2] = [
        ("Subtree-Bottom-Up", &SubtreeBottomUp),
        ("Comm-Greedy", &CommGreedy),
    ];
    for n in [20usize, 60, 100] {
        for (name, h) in heuristics {
            let mut achieved: Vec<f64> = Vec::new();
            let mut bounded = true;
            for seed in 0..seeds {
                let inst = generate(&ScenarioParams::paper(n, 0.9), TreeShape::Random, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                let Ok(sol) = solve(h, &inst, &mut rng, &PipelineOptions::default()) else {
                    continue;
                };
                let bound = snsp_core::max_throughput(&inst, &sol.mapping);
                if let Ok(report) = simulate(&inst, &sol.mapping, &SimConfig::default()) {
                    bounded &= report.achieved_throughput <= bound * 1.05;
                    achieved.push(report.achieved_throughput);
                }
            }
            let min = achieved.iter().copied().fold(f64::INFINITY, f64::min);
            let mean = achieved.iter().sum::<f64>() / achieved.len().max(1) as f64;
            t.push(vec![
                n.to_string(),
                name.to_string(),
                achieved.len().to_string(),
                if achieved.is_empty() {
                    "-".into()
                } else {
                    format!("{min:.3}")
                },
                if achieved.is_empty() {
                    "-".into()
                } else {
                    format!("{mean:.3}")
                },
                if bounded {
                    "yes".into()
                } else {
                    "VIOLATED".into()
                },
            ]);
        }
    }
    vec![t]
}

/// Extension (paper §6 future work): mutable applications. Rewrite each
/// random tree under associativity/commutativity and compare the platform
/// cost of the best mapping on each shape.
pub fn mutable_rewriting(seeds: u64) -> Vec<Table> {
    use snsp_core::rewrite::{rewrite, total_intermediate_size, RewriteStrategy};
    let mut t = Table::new(
        "Mutable applications — Subtree-Bottom-Up cost per tree shape",
        &[
            "N",
            "alpha",
            "original",
            "left-deep",
            "balanced",
            "huffman",
            "Σδ orig",
            "Σδ huffman",
        ],
    );
    for &(n, alpha) in &[(20usize, 1.7), (60, 1.5), (60, 1.7), (80, 1.7)] {
        let mut cols: [Vec<f64>; 4] = Default::default();
        let mut mass = (Vec::new(), Vec::new());
        for seed in 0..seeds {
            let inst = generate(&ScenarioParams::paper(n, alpha), TreeShape::Random, seed);
            let model = snsp_core::WorkModel::paper(alpha);
            let shapes: [Option<snsp_core::OperatorTree>; 4] = [
                None,
                Some(rewrite(
                    &inst.tree,
                    &inst.objects,
                    &model,
                    RewriteStrategy::LeftDeep,
                )),
                Some(rewrite(
                    &inst.tree,
                    &inst.objects,
                    &model,
                    RewriteStrategy::Balanced,
                )),
                Some(rewrite(
                    &inst.tree,
                    &inst.objects,
                    &model,
                    RewriteStrategy::HuffmanBySize,
                )),
            ];
            mass.0.push(total_intermediate_size(&inst.tree));
            if let Some(h) = &shapes[3] {
                mass.1.push(total_intermediate_size(h));
            }
            for (i, shape) in shapes.into_iter().enumerate() {
                let variant = match shape {
                    None => inst.clone(),
                    Some(tree) => snsp_core::Instance::new(
                        tree,
                        inst.objects.clone(),
                        inst.platform.clone(),
                        inst.rho,
                    )
                    .expect("rewritten instances validate"),
                };
                let mut rng = StdRng::seed_from_u64(seed);
                if let Ok(sol) = solve(
                    &SubtreeBottomUp,
                    &variant,
                    &mut rng,
                    &PipelineOptions::default(),
                ) {
                    cols[i].push(sol.cost as f64);
                }
            }
        }
        let mean = |v: &[f64]| (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64);
        let mut row = vec![n.to_string(), format!("{alpha}")];
        for col in &cols {
            row.push(fmt_cost(mean(col)));
        }
        row.push(format!("{:.0}", mean(&mass.0).unwrap_or(0.0)));
        row.push(format!("{:.0}", mean(&mass.1).unwrap_or(0.0)));
        t.push(row);
    }
    vec![t]
}

/// Extension (paper §6 future work): multiple applications sharing one
/// constructive platform — joint placement vs separate platforms.
pub fn multi_application(seeds: u64) -> Vec<Table> {
    use snsp_core::multi::{solve_joint, MultiInstance};
    let mut t = Table::new(
        "Multiple applications — joint vs separate platforms (Subtree-Bottom-Up)",
        &[
            "apps × N",
            "separate ($)",
            "joint ($)",
            "saving",
            "feasible",
        ],
    );
    for &(n_apps, n) in &[(2usize, 15usize), (3, 15), (3, 30), (4, 20)] {
        let mut seps = Vec::new();
        let mut joints = Vec::new();
        for seed in 0..seeds {
            // Shared objects/platform; per-app trees from offset seeds.
            let base = generate(&ScenarioParams::paper(n, 1.2), TreeShape::Random, seed);
            let mut apps = Vec::new();
            for k in 0..n_apps {
                let donor = generate(
                    &ScenarioParams::paper(n, 1.2),
                    TreeShape::Random,
                    seed * 101 + k as u64,
                );
                apps.push(
                    snsp_core::Instance::new(
                        donor.tree.clone(),
                        base.objects.clone(),
                        base.platform.clone(),
                        1.0,
                    )
                    .expect("apps over shared platform validate"),
                );
            }
            let multi = MultiInstance::new(apps).expect("valid bundle");

            let mut separate = 0u64;
            let mut all_ok = true;
            for app in &multi.apps {
                let mut rng = StdRng::seed_from_u64(seed);
                match solve(&SubtreeBottomUp, app, &mut rng, &PipelineOptions::default()) {
                    Ok(sol) => separate += sol.cost,
                    Err(_) => all_ok = false,
                }
            }
            let mut rng = StdRng::seed_from_u64(seed);
            let joint = solve_joint(
                &multi,
                &SubtreeBottomUp,
                &mut rng,
                &PipelineOptions::default(),
            );
            if let (true, Ok(j)) = (all_ok, joint) {
                seps.push(separate as f64);
                joints.push(j.cost as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let saving = if seps.is_empty() {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * (1.0 - mean(&joints) / mean(&seps)))
        };
        t.push(vec![
            format!("{n_apps} × {n}"),
            fmt_cost((!seps.is_empty()).then(|| mean(&seps))),
            fmt_cost((!joints.is_empty()).then(|| mean(&joints))),
            saving,
            format!("{}/{seeds}", seps.len()),
        ]);
    }
    vec![t]
}

/// Extension: the inverse (budgeted) problem — highest ρ per budget.
pub fn budget_sweep(seeds: u64) -> Vec<Table> {
    use snsp_solver::max_throughput_under_budget;
    let mut t = Table::new(
        "Budgeted throughput — max ρ affordable (Subtree-Bottom-Up, N = 40, α = 1.3)",
        &["budget ($)", "mean max ρ", "mean cost ($)", "feasible"],
    );
    for &budget in &[8_000u64, 16_000, 40_000, 120_000] {
        let mut rhos = Vec::new();
        let mut costs = Vec::new();
        for seed in 0..seeds {
            let inst = generate(&ScenarioParams::paper(40, 1.3), TreeShape::Random, seed);
            if let Some(res) =
                max_throughput_under_budget(&inst, &SubtreeBottomUp, budget, 0.02, seed)
            {
                rhos.push(res.rho);
                costs.push(res.solution.cost as f64);
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        t.push(vec![
            budget.to_string(),
            format!("{:.2}", mean(&rhos)),
            format!("{:.0}", mean(&costs)),
            format!("{}/{seeds}", rhos.len()),
        ]);
    }
    vec![t]
}

/// Cost lower-bound sanity table: every heuristic cost ≥ the analytic LB.
pub fn bounds_check(seeds: u64) -> Vec<Table> {
    let mut t = Table::new(
        "Analytic lower bound vs heuristic costs, α = 0.9",
        &["N", "lower bound", "best heuristic", "worst heuristic"],
    );
    for n in [20usize, 60, 100] {
        let mut lbs = Vec::new();
        let mut best = Vec::new();
        let mut worst = Vec::new();
        for seed in 0..seeds {
            let inst = generate(&ScenarioParams::paper(n, 0.9), TreeShape::Random, seed);
            lbs.push(lower_bound(&inst).value() as f64);
            let costs: Vec<f64> = all_heuristics()
                .iter()
                .filter_map(|h| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    solve(h.as_ref(), &inst, &mut rng, &PipelineOptions::default())
                        .ok()
                        .map(|s| s.cost as f64)
                })
                .collect();
            if !costs.is_empty() {
                best.push(costs.iter().copied().fold(f64::INFINITY, f64::min));
                worst.push(costs.iter().copied().fold(0.0, f64::max));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        t.push(vec![
            n.to_string(),
            format!("{:.0}", mean(&lbs)),
            format!("{:.0}", mean(&best)),
            format!("{:.0}", mean(&worst)),
        ]);
    }
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_grid_id_builds_a_campaign() {
        for id in GRID_IDS {
            let campaign = grid(id, 2).unwrap_or_else(|| panic!("{id} should build"));
            assert_eq!(campaign.id, *id);
            assert!(!campaign.points.is_empty());
        }
        assert!(grid("nope", 2).is_none());
        let titled = GRID_IDS.iter().filter(|id| paper_title(id).is_some());
        let paper = ["fig2a", "fig2b", "fig3", "fig3n20", "large", "lowfreq"];
        assert_eq!(titled.copied().collect::<Vec<_>>(), paper);
    }

    #[test]
    fn every_serve_grid_id_builds_a_campaign() {
        for id in SERVE_GRID_IDS {
            let campaign = serve_grid(id, 2).unwrap_or_else(|| panic!("{id} should build"));
            assert_eq!(campaign.id, *id);
            assert!(!campaign.points.is_empty());
            let expected_shards = match *id {
                "sharded-ci" => 4,
                "sharded-100k" => 16,
                _ => 1,
            };
            assert_eq!(campaign.shards, expected_shards, "{id}");
        }
        assert!(serve_grid("nope", 2).is_none());
    }

    #[test]
    fn sharded_ci_grid_replays_and_validates() {
        let campaign = serve_grid("sharded-ci", 1).unwrap().with_shards(4, 2);
        let report = snsp_serve::run_serve_campaign(&campaign);
        assert!(report.points.iter().any(|p| p.admitted > 0));
        snsp_sweep::ArtifactKind::Serve
            .validate(&report.render_json(true))
            .expect("v3 validates");
        let tables = serve_tables(&report, "sharded-ci");
        assert_eq!(tables[0].rows.len(), campaign.points.len());
    }

    #[test]
    fn every_chaos_grid_id_builds_a_campaign() {
        for id in CHAOS_GRID_IDS {
            let campaign = chaos_grid(id, 2).unwrap_or_else(|| panic!("{id} should build"));
            assert_eq!(campaign.id, *id);
            assert!(!campaign.points.is_empty());
            assert_eq!(campaign.shards, 2, "{id}");
        }
        assert!(chaos_grid("nope", 2).is_none());
    }

    #[test]
    fn chaos_ci_grid_replays_validates_and_certifies_recovery() {
        let campaign = chaos_grid("ci", 1).unwrap();
        let report = snsp_serve::run_serve_campaign(&campaign);
        snsp_sweep::ArtifactKind::Chaos
            .validate(&report.render_chaos_json(true))
            .expect("v6 validates");
        let tables = chaos_tables(&report, "chaos-ci");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), campaign.points.len());
        // The crash point injects crashes and every one recovers
        // fingerprint-identical to the crash-free reference replay; the
        // revocation point displaces tenants and re-admits them through
        // the retry queue; the invariant audit never fails.
        let crash = &report.points[0];
        assert!(crash.stats.crashes > 0, "crash point should inject crashes");
        assert_eq!(crash.crash_fingerprint_match, Some(true));
        let revoke = &report.points[1];
        assert!(
            revoke.stats.retry_enqueued > 0,
            "revocation should displace"
        );
        assert!(revoke.readmission_rate() >= 0.9);
        for p in &report.points {
            assert_eq!(p.stats.audit_failures, 0, "{}", p.label);
        }
    }

    #[test]
    fn fault_plan_strings_parse_and_reject_garbage() {
        // The chaos ci grid's longest horizon.
        let horizon = chaos_grid("ci", 1)
            .unwrap()
            .points
            .iter()
            .map(|p| p.params.horizon)
            .fold(0.0, f64::max);
        let parse = |text: &str| parse_fault_plan(text, horizon);
        let spec =
            parse("crash=0.2,rack=0.1:2,drop=0.05,dup=0.02,delay=0.03,revoke=10:14:0.5,tick=2,retry=0.5:2:6,degrade=4:2,seed=7")
                .expect("full spec parses");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.crash_rate, 0.2);
        assert_eq!(spec.rack_rate, 0.1);
        assert_eq!(spec.rack_size, 2);
        assert_eq!(spec.revoke_at, Some((10.0, 14.0)));
        assert_eq!(spec.revoke_frac, 0.5);
        assert_eq!(spec.retry.max_attempts, 6);
        assert_eq!(spec.degrade.pressure, 4);
        assert!(parse("").expect("empty spec is all-off").crash_rate == 0.0);
        parse("crash=0.4,drop=0.1,dup=0.05,delay=0.05,retry=0.5:2:6,tick=2,seed=9")
            .expect("CI's harsh plan parses");
        assert!(parse("crash").is_err(), "missing =");
        assert!(parse("crash=x").is_err(), "not a number");
        assert!(parse("rack=0.1").is_err(), "wrong arity");
        assert!(parse("warp=9").is_err(), "unknown key");
        for (text, why) in [
            ("crash=inf", "non-finite"),
            ("crash=nan", "non-finite"),
            ("drop=-1", "negative"),
            ("crash=1e7", "too many crashes"),
            ("tick=1e-300", "too many barriers"),
            ("tick=1e-6", "too many barriers"),
            ("rack=1:3000000", "too many rack lotteries"),
            ("rack=1:1e19", "too many rack lotteries"),
            ("rack=0.1:2.5", "fractional rack size"),
            ("revoke=5:3:2", "reversed window and fraction above 1"),
            ("revoke=5:3:0.5", "reversed window"),
            ("revoke=3:5:2", "fraction above 1"),
            ("dup=1.5", "probability above 1"),
            ("seed=1.5", "fractional seed"),
            ("retry=0.5:2:6.5", "fractional attempt count"),
            ("degrade=4.5:2", "fractional pressure"),
            ("degrade=4:0.5", "fractional shed count"),
        ] {
            let key = text.split('=').next().unwrap();
            let err = parse(text).expect_err(why);
            assert!(
                err.contains(key),
                "{text}: {why}: {err:?} does not name {key}"
            );
        }
    }

    #[test]
    fn refine_tables_mirror_the_grid() {
        let mut campaign = snsp_search::refine_grid("ci", 1).unwrap();
        campaign.points.truncate(2);
        campaign.refine.max_evals = 200;
        let report = snsp_search::run_refine_campaign(&campaign);
        let tables = refine_tables(&report, "refine-ci");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), campaign.points.len());
    }

    #[test]
    fn serve_tables_mirror_the_grid() {
        let campaign = serve_grid("serve-ci", 1).unwrap();
        let report = snsp_serve::run_serve_campaign(&campaign);
        let tables = serve_tables(&report, "serve-ci");
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].rows.len(), campaign.points.len());
    }

    #[test]
    fn single_point_campaign_reports_all_heuristics() {
        let campaign = Campaign::new(
            "point",
            vec![PointSpec::new("12", ScenarioParams::paper(12, 0.9))],
            3,
        );
        let report = run_campaign(&campaign);
        let stats = &report.points[0].heuristics;
        assert_eq!(stats.len(), 6);
        for s in stats {
            assert_eq!(s.runs, 3);
            assert!(s.feasible <= 3);
            if s.feasible > 0 {
                assert!(s.mean_cost.unwrap() >= 7_548.0);
            }
        }
    }

    #[test]
    fn infeasible_points_report_zero_feasible() {
        let campaign = Campaign::new(
            "wall",
            vec![PointSpec::new("60", ScenarioParams::paper(60, 2.5))],
            2,
        );
        let report = run_campaign(&campaign);
        for s in &report.points[0].heuristics {
            assert_eq!(s.feasible, 0, "{} should be infeasible", s.name);
            assert!(s.mean_cost.is_none());
            assert!((s.feasibility_pct() - 0.0).abs() < 1e-12);
        }
    }

    #[test]
    fn report_tables_mirror_the_grid() {
        let campaign = grid("ci", 1).unwrap();
        let report = run_campaign(&campaign);
        let tables = report_tables(&report, "ci", "N");
        assert_eq!(tables.len(), 2);
        for t in &tables {
            assert_eq!(t.rows.len(), campaign.points.len());
            // axis + 6 heuristics + exact + exact optimal?
            assert_eq!(t.header.len(), 1 + 6 + 2);
        }
    }
}
