//! Trace campaigns: whole grids of serving scenarios on
//! [`snsp_sweep::run_grid`].
//!
//! A [`ServeCampaign`] crosses scenario points with seeds and drains the
//! resulting replays through `snsp-sweep`'s grid driver. Every
//! point carries a [`FaultSpec`] — all off by default, so a plain point
//! is a plain replay — and every job is a pure function of its grid
//! coordinates (`generate_trace(point.params, seed)`, that seed's fault
//! plan, the deterministic replay). Aggregation runs in grid order, so
//! the **stable** renderings are byte-identical at any worker count,
//! campaign and replay workers alike.
//!
//! One report renders both artifacts; the CLI's `serve` and `chaos`
//! subcommands each pick one:
//!
//! * schema v3 (`kind: "serve"`, `BENCH_serve.json`,
//!   [`ArtifactKind::Serve`]): the
//!   service metrics, with admission-latency p50/p99 columns that render
//!   as `null` in the stable form;
//! * schema v6 (`kind: "chaos"`, `BENCH_chaos.json`,
//!   [`ArtifactKind::Chaos`]): the
//!   fault, recovery, retry and audit accounting. Every replay whose plan
//!   schedules a crash is shadowed by its crash-free twin, and the pair's
//!   event logs and final fingerprints must agree for
//!   `crash_fingerprint_match` to hold.

use snsp_gen::{generate_trace, TraceParams};
use snsp_sweep::{run_grid, ArtifactKind, Json, PhaseTiming, PIPELINE_SEED_STRIDE};

use crate::fault::{ChaosStats, FaultPlan, FaultSpec};
use crate::report::{fnv1a, percentile, TraceReport, FNV_OFFSET};
use crate::shard::ShardOptions;
use crate::sim::{replay, ServeConfig};

/// One labelled trace scenario and the faults injected into its replays.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Row label in tables and JSON.
    pub label: String,
    /// Trace generator parameters.
    pub params: TraceParams,
    /// Faults injected into every replay of this point, all off by
    /// default. Each seed derives its own fault-stream seed from it.
    pub fault: FaultSpec,
}

impl ServePoint {
    /// A labelled fault-free point.
    pub fn new(label: impl Into<String>, params: TraceParams) -> Self {
        ServePoint {
            label: label.into(),
            params,
            fault: FaultSpec::default(),
        }
    }

    /// This point with `fault` injected into every replay.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }
}

/// A grid of serving scenarios.
pub struct ServeCampaign {
    /// Campaign identifier.
    pub id: String,
    /// Scenario points (grid rows).
    pub points: Vec<ServePoint>,
    /// Seeds `0..seeds` replayed at every point.
    pub seeds: u64,
    /// Serving policy shared by every replay.
    pub config: ServeConfig,
    /// Worker threads; `None` uses available parallelism.
    pub workers: Option<usize>,
    /// Tenant shards per replay (1 is the unsharded platform).
    pub shards: usize,
    /// Worker threads driving each replay's per-tick shard batches
    /// (wall-clock only; never changes results).
    pub replay_workers: usize,
}

impl ServeCampaign {
    /// A campaign with the default serving policy on one shard.
    pub fn new(id: impl Into<String>, points: Vec<ServePoint>, seeds: u64) -> Self {
        ServeCampaign {
            id: id.into(),
            points,
            seeds,
            config: ServeConfig::default(),
            workers: None,
            shards: 1,
            replay_workers: 1,
        }
    }

    /// Pins the worker count (clamped to at least 1, as in `Campaign`).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Replays every trace over `shards` tenant shards, each replay
    /// driving its tick batches with `replay_workers` threads (both
    /// clamped to at least 1). Shard count changes packing (it is part
    /// of the scenario); replay workers never change results.
    pub fn with_shards(mut self, shards: usize, replay_workers: usize) -> Self {
        self.shards = shards.max(1);
        self.replay_workers = replay_workers.max(1);
        self
    }
}

/// One replay's outcome plus its crash-recovery verdict.
struct Run {
    base: TraceReport,
    stats: ChaosStats,
    /// `None` when the plan scheduled no crash; otherwise whether the
    /// event log and final fingerprint equal the crash-free twin's.
    crash_match: Option<bool>,
}

/// Aggregated replays of one scenario point.
#[derive(Debug, Clone)]
pub struct ServePointReport {
    /// The point's label.
    pub label: String,
    /// Replays aggregated (= campaign seeds).
    pub traces: usize,
    /// Summed arrivals over all replays.
    pub arrivals: usize,
    /// Summed admissions.
    pub admitted: usize,
    /// Summed rejections.
    pub rejected: usize,
    /// Summed departures.
    pub departed: usize,
    /// Summed evictions.
    pub evicted: usize,
    /// Summed effective processor failures (trace + rack + revocation).
    pub failures: usize,
    /// Summed engine spot-runs.
    pub slo_checks: usize,
    /// Summed SLO misses.
    pub slo_violations: usize,
    /// Mean `∫ cost dt` per replay.
    pub mean_cost_integral: f64,
    /// Mean time-weighted utilization per replay.
    pub mean_utilization: f64,
    /// Mean end-of-trace cost per replay.
    pub mean_final_cost: f64,
    /// Max concurrent processors over all replays.
    pub peak_procs: usize,
    /// Per-seed log digests folded in seed order (the replay fingerprint).
    pub log_hash: u64,
    /// Admission-latency samples pooled across the point's replays (µs,
    /// wall-clock — excluded from stable output).
    pub admit_latencies_us: Vec<f64>,
    /// Summed fault/recovery/retry accounting over all replays.
    pub stats: ChaosStats,
    /// Whether every crash-bearing replay matched its crash-free twin
    /// (`None` when no replay scheduled a crash).
    pub crash_fingerprint_match: Option<bool>,
}

impl ServePointReport {
    /// `admitted / arrivals` over all replays.
    pub fn admission_rate(&self) -> f64 {
        if self.arrivals == 0 {
            1.0
        } else {
            self.admitted as f64 / self.arrivals as f64
        }
    }

    /// `readmitted / retry_enqueued` over all replays (1 when nothing
    /// was enqueued).
    pub fn readmission_rate(&self) -> f64 {
        if self.stats.retry_enqueued == 0 {
            1.0
        } else {
            self.stats.readmitted as f64 / self.stats.retry_enqueued as f64
        }
    }

    /// Median admission latency over the pooled samples (µs,
    /// nearest-rank; 0 with no admissions).
    pub fn admit_p50_us(&self) -> f64 {
        percentile(&self.admit_latencies_us, 50.0)
    }

    /// 99th-percentile admission latency over the pooled samples (µs,
    /// nearest-rank; 0 with no admissions).
    pub fn admit_p99_us(&self) -> f64 {
        percentile(&self.admit_latencies_us, 99.0)
    }

    fn from_runs(label: &str, runs: &[Run]) -> Self {
        let n = runs.len().max(1) as f64;
        // Fold the per-seed fingerprints (in seed order) with the same
        // FNV-1a step the per-trace digest uses.
        let mut hash = FNV_OFFSET;
        let mut stats = ChaosStats::default();
        for r in runs {
            hash = fnv1a(hash, r.base.log_hash().to_be_bytes());
            stats.absorb(&r.stats);
        }
        let sum = |f: fn(&TraceReport) -> usize| -> usize { runs.iter().map(|r| f(&r.base)).sum() };
        let mean = |f: fn(&TraceReport) -> f64| runs.iter().map(|r| f(&r.base)).sum::<f64>() / n;
        let verdicts: Vec<bool> = runs.iter().filter_map(|r| r.crash_match).collect();
        ServePointReport {
            label: label.to_string(),
            traces: runs.len(),
            arrivals: sum(|r| r.arrivals),
            admitted: sum(|r| r.admitted),
            rejected: sum(|r| r.rejected),
            departed: sum(|r| r.departed),
            evicted: sum(|r| r.evicted),
            failures: sum(|r| r.failures),
            slo_checks: sum(|r| r.slo_checks),
            slo_violations: sum(|r| r.slo_violations),
            mean_cost_integral: mean(|r| r.cost_time_integral),
            mean_utilization: mean(|r| r.mean_utilization),
            mean_final_cost: mean(|r| r.final_cost as f64),
            peak_procs: runs.iter().map(|r| r.base.peak_procs).max().unwrap_or(0),
            log_hash: hash,
            admit_latencies_us: runs
                .iter()
                .flat_map(|r| r.base.admit_latencies_us.iter().copied())
                .collect(),
            stats,
            crash_fingerprint_match: (!verdicts.is_empty()).then(|| verdicts.iter().all(|&v| v)),
        }
    }

    /// Renders one results row: the shared columns, then the chaos (v6)
    /// or the serve (v3) ones. The stable serve form renders the
    /// wall-clock `admit_latency` column as `null`; the timed form
    /// carries its sample statistics.
    fn to_json(&self, chaos: bool, include_timing: bool) -> Json {
        let int = |v: usize| Json::Int(v as i64);
        let mut row = vec![
            ("label", Json::Str(self.label.clone())),
            ("traces", int(self.traces)),
            ("arrivals", int(self.arrivals)),
            ("admitted", int(self.admitted)),
            ("rejected", int(self.rejected)),
            ("departed", int(self.departed)),
            ("evicted", int(self.evicted)),
            ("failures", int(self.failures)),
            ("admission_rate", Json::Num(self.admission_rate())),
        ];
        if chaos {
            let s = &self.stats;
            let verdict = self.crash_fingerprint_match.map_or(Json::Null, Json::Bool);
            row.extend([
                ("faults_injected", int(s.faults_injected)),
                ("crashes", int(s.crashes)),
                ("recoveries", int(s.recoveries)),
                ("rack_failures", int(s.rack_failures)),
                ("revocations", int(s.revocations)),
                ("msgs_dropped", int(s.msgs_dropped)),
                ("msgs_retransmitted", int(s.msgs_retransmitted)),
                ("msgs_duplicated", int(s.msgs_duplicated)),
                ("dups_discarded", int(s.dups_discarded)),
                ("msgs_delayed", int(s.msgs_delayed)),
                ("retry_enqueued", int(s.retry_enqueued)),
                ("readmitted", int(s.readmitted)),
                ("retry_dropped", int(s.retry_dropped)),
                ("shed", int(s.shed)),
                ("readmission_rate", Json::Num(self.readmission_rate())),
                ("crash_fingerprint_match", verdict),
                ("audit_failures", int(s.audit_failures)),
                ("mean_final_cost", Json::Num(self.mean_final_cost)),
            ]);
        } else {
            let samples = &self.admit_latencies_us;
            let admit_latency = if include_timing && !samples.is_empty() {
                Json::obj(vec![
                    ("samples", int(samples.len())),
                    ("p50_us", Json::Num(self.admit_p50_us())),
                    ("p99_us", Json::Num(self.admit_p99_us())),
                    (
                        "max_us",
                        Json::Num(samples.iter().copied().fold(0.0, f64::max)),
                    ),
                ])
            } else {
                Json::Null
            };
            row.extend([
                ("mean_cost_integral", Json::Num(self.mean_cost_integral)),
                ("mean_utilization", Json::Num(self.mean_utilization)),
                ("mean_final_cost", Json::Num(self.mean_final_cost)),
                ("peak_procs", int(self.peak_procs)),
                ("slo_checks", int(self.slo_checks)),
                ("slo_violations", int(self.slo_violations)),
                ("admit_latency", admit_latency),
            ]);
        }
        row.push(("log_hash", Json::Str(format!("{:016x}", self.log_hash))));
        Json::obj(row)
    }
}

/// The complete result of one serve campaign — the source of both the
/// v3 serve and the v6 chaos artifact.
#[derive(Debug, Clone)]
pub struct ServeCampaignReport {
    /// Campaign identifier.
    pub campaign: String,
    /// Seeds per point.
    pub seeds: u64,
    /// SLO bar echoed from the config.
    pub slo_frac: f64,
    /// Tenant shards per replay, echoed from the campaign.
    pub shards: usize,
    /// Replay workers per replay, echoed from the campaign
    /// (wall-clock-only; part of the timed output, not the stable form).
    pub replay_workers: usize,
    /// The scenario grid, echoed for reproducibility.
    pub config_points: Vec<ServePoint>,
    /// Per-point results, in grid order.
    pub points: Vec<ServePointReport>,
    /// Wall-clock phases (never part of stable output).
    pub timing: Option<PhaseTiming>,
}

impl ServeCampaignReport {
    /// Serializes schema v3 (`kind: "serve"`). With `include_timing =
    /// false` the output is the *stable* form: byte-identical at every
    /// worker count (campaign workers and replay workers alike), with
    /// the wall-clock `admit_latency` column rendered as `null`.
    pub fn to_json(&self, include_timing: bool) -> Json {
        self.document(false, include_timing)
    }

    /// [`to_json`](Self::to_json) rendered to pretty-printed text.
    pub fn render_json(&self, include_timing: bool) -> String {
        self.to_json(include_timing).render()
    }

    /// Serializes schema v6 (`kind: "chaos"`): the point echo carries
    /// each point's fault spec and the rows the fault, recovery and
    /// retry accounting. Every column is Det-class, so the stable form
    /// (`include_timing = false`) is byte-identical at every worker
    /// count.
    pub fn to_chaos_json(&self, include_timing: bool) -> Json {
        self.document(true, include_timing)
    }

    /// [`to_chaos_json`](Self::to_chaos_json) rendered to pretty-printed
    /// text.
    pub fn render_chaos_json(&self, include_timing: bool) -> String {
        self.to_chaos_json(include_timing).render()
    }

    fn document(&self, chaos: bool, include_timing: bool) -> Json {
        let kind = if chaos {
            ArtifactKind::Chaos
        } else {
            ArtifactKind::Serve
        };
        let points = self.config_points.iter();
        let points = points.map(|p| point_config_json(p, chaos)).collect();
        let config = vec![
            ("slo_frac", Json::Num(self.slo_frac)),
            ("shards", Json::Int(self.shards as i64)),
            ("points", Json::Arr(points)),
        ];
        let results = self.points.iter();
        let results = results.map(|p| p.to_json(chaos, include_timing)).collect();
        let timing = self.timing.filter(|_| include_timing);
        kind.document(
            &self.campaign,
            self.seeds,
            config,
            Json::Arr(results),
            timing.map(|t| t.to_json(Some(self.replay_workers))),
        )
    }
}

/// The config echo of one point; the chaos form adds its fault spec.
fn point_config_json(point: &ServePoint, chaos: bool) -> Json {
    let p = &point.params;
    let mut pairs = vec![
        ("label", Json::Str(point.label.clone())),
        ("lambda", Json::Num(p.lambda)),
        ("mean_hold", Json::Num(p.mean_hold)),
        ("pareto_shape", Json::Num(p.pareto_shape)),
        ("horizon", Json::Num(p.horizon)),
        ("fail_rate", Json::Num(p.fail_rate)),
        (
            "n_ops",
            Json::Arr(vec![
                Json::Int(p.n_ops.0 as i64),
                Json::Int(p.n_ops.1 as i64),
            ]),
        ),
        (
            "alpha",
            Json::Arr(vec![Json::Num(p.alpha.0), Json::Num(p.alpha.1)]),
        ),
        (
            "rho",
            Json::Arr(vec![Json::Num(p.rho.0), Json::Num(p.rho.1)]),
        ),
        (
            "burst",
            match p.burst {
                None => Json::Null,
                Some(b) => Json::obj(vec![
                    ("period", Json::Num(b.period)),
                    ("width", Json::Num(b.width)),
                    ("multiplier", Json::Num(b.multiplier)),
                ]),
            },
        ),
    ];
    if chaos {
        pairs.push(("fault", fault_config_json(&point.fault)));
    }
    Json::obj(pairs)
}

fn fault_config_json(f: &FaultSpec) -> Json {
    let revoke = f.revoke_at.map_or(Json::Null, |(start, end)| {
        Json::obj(vec![
            ("start", Json::Num(start)),
            ("end", Json::Num(end)),
            ("frac", Json::Num(f.revoke_frac)),
        ])
    });
    Json::obj(vec![
        ("seed", Json::Int(f.seed as i64)),
        ("crash_rate", Json::Num(f.crash_rate)),
        ("rack_rate", Json::Num(f.rack_rate)),
        ("rack_size", Json::Int(f.rack_size as i64)),
        ("msg_drop", Json::Num(f.msg_drop)),
        ("msg_dup", Json::Num(f.msg_dup)),
        ("msg_delay", Json::Num(f.msg_delay)),
        ("revoke", revoke),
        ("tick_every", Json::Num(f.tick_every)),
        (
            "retry",
            Json::obj(vec![
                ("base", Json::Num(f.retry.base)),
                ("factor", Json::Num(f.retry.factor)),
                ("max_attempts", Json::Int(f.retry.max_attempts as i64)),
            ]),
        ),
        (
            "degrade",
            Json::obj(vec![
                ("pressure", Json::Int(f.degrade.pressure as i64)),
                ("max_shed", Json::Int(f.degrade.max_shed as i64)),
            ]),
        ),
    ])
}

/// Runs the campaign: `points × seeds` replays on the sweep's grid
/// driver, aggregated in grid order. Each seed instantiates its own
/// fault plan from the point's spec; a plan that schedules crashes also
/// replays its crash-free twin for the `crash_fingerprint_match` verdict.
pub fn run_serve_campaign(campaign: &ServeCampaign) -> ServeCampaignReport {
    let shard_opts = ShardOptions {
        shards: campaign.shards.max(1),
        workers: campaign.replay_workers.max(1),
    };
    let (points, timing) = run_grid(
        &campaign.points,
        |_| campaign.seeds as usize,
        campaign.workers,
        |point, seed| {
            let seed = seed as u64;
            let trace = generate_trace(&point.params, seed);
            // Each trace seed draws its own fault streams, same stride rule
            // as per-tenant admission seeds.
            let mut fault = point.fault;
            fault.seed ^= (seed + 1).wrapping_mul(PIPELINE_SEED_STRIDE);
            let plan = FaultPlan::instantiate(&fault, point.params.horizon);
            let (base, stats, state) = replay(&trace, &campaign.config, &shard_opts, &plan);
            let crash_match = (plan.crash_count() > 0).then(|| {
                let twin = plan.without_crashes();
                let (twin_base, _, twin_state) =
                    replay(&trace, &campaign.config, &shard_opts, &twin);
                base.log == twin_base.log && state.fingerprint() == twin_state.fingerprint()
            });
            Run {
                base,
                stats,
                crash_match,
            }
        },
        |point, runs| ServePointReport::from_runs(&point.label, runs),
    );
    ServeCampaignReport {
        campaign: campaign.id.clone(),
        seeds: campaign.seeds,
        slo_frac: campaign.config.slo_frac,
        shards: shard_opts.shards,
        replay_workers: shard_opts.workers,
        config_points: campaign.points.clone(),
        points,
        timing: Some(timing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RetryPolicy;

    fn small_campaign(workers: usize) -> ServeCampaign {
        let points = vec![
            ServePoint::new("calm", TraceParams::poisson(0.3, 5.0, 20.0)),
            ServePoint::new(
                "flaky",
                TraceParams::poisson(0.4, 5.0, 20.0).with_failures(0.1),
            ),
        ];
        ServeCampaign::new("unit", points, 2).with_workers(workers)
    }

    fn chaos_campaign(workers: usize) -> ServeCampaign {
        let crashy = FaultSpec::seeded(2)
            .with_crashes(0.25)
            .with_msg_faults(0.1, 0.05, 0.05)
            .with_retry(RetryPolicy::standard())
            .with_ticks(2.0);
        let points = vec![
            ServePoint::new("quiet", TraceParams::poisson(0.4, 4.0, 15.0))
                .with_fault(FaultSpec::seeded(1).with_ticks(3.0)),
            ServePoint::new(
                "crashy",
                TraceParams::poisson(0.5, 4.0, 15.0).with_failures(0.05),
            )
            .with_fault(crashy),
        ];
        ServeCampaign::new("unit-chaos", points, 2)
            .with_workers(workers)
            .with_shards(2, 2)
    }

    #[test]
    fn chaos_campaign_validates_and_certifies_crash_recovery() {
        let report = run_serve_campaign(&chaos_campaign(2));
        let quiet = &report.points[0];
        assert_eq!(quiet.crash_fingerprint_match, None, "no crashes scheduled");
        let crashy = &report.points[1];
        assert!(crashy.stats.crashes > 0, "the crashy point must crash");
        assert_eq!(
            crashy.crash_fingerprint_match,
            Some(true),
            "recovery must match the uninterrupted reference"
        );
        for p in &report.points {
            assert_eq!(p.admitted + p.rejected, p.arrivals);
            assert_eq!(p.stats.audit_failures, 0, "{:?}", p.stats.audit_first);
        }
        ArtifactKind::Chaos
            .validate(&report.render_chaos_json(true))
            .expect("timed form validates");
        let stable = report.render_chaos_json(false);
        ArtifactKind::Chaos
            .validate(&stable)
            .expect("stable form validates");
        for workers in [1usize, 4] {
            let other = run_serve_campaign(&chaos_campaign(workers));
            assert_eq!(
                stable,
                other.render_chaos_json(false),
                "{workers} workers diverged"
            );
        }
    }

    #[test]
    fn report_shape_matches_grid_and_validates() {
        let report = run_serve_campaign(&small_campaign(2));
        assert_eq!(report.points.len(), 2);
        for p in &report.points {
            assert_eq!(p.traces, 2);
            assert_eq!(p.admitted + p.rejected, p.arrivals);
            assert_eq!(p.crash_fingerprint_match, None, "plain points never crash");
        }
        ArtifactKind::Serve
            .validate(&report.render_json(true))
            .expect("schema v3 validates");
        ArtifactKind::Serve
            .validate(&report.render_json(false))
            .expect("stable form validates");
    }

    #[test]
    fn stable_json_is_identical_at_any_worker_count() {
        let serial = run_serve_campaign(&small_campaign(1));
        for workers in [2usize, 4, 7] {
            let parallel = run_serve_campaign(&small_campaign(workers));
            assert_eq!(
                serial.render_json(false),
                parallel.render_json(false),
                "{workers} workers diverged"
            );
        }
    }

    #[test]
    fn zero_workers_clamps_to_serial() {
        let campaign = small_campaign(0);
        assert_eq!(campaign.workers, Some(1));
    }

    #[test]
    fn latency_percentiles_surface_in_timed_output_only() {
        let report = run_serve_campaign(&small_campaign(1));
        let timed = report.render_json(true);
        let stable = report.render_json(false);
        assert!(timed.contains("\"p50_us\""));
        assert!(timed.contains("\"p99_us\""));
        assert!(
            stable.contains("\"admit_latency\": null"),
            "stable form must not carry wall-clock samples"
        );
        for p in &report.points {
            if p.admitted > 0 {
                assert_eq!(p.admit_latencies_us.len(), p.admitted);
                assert!(p.admit_p50_us() > 0.0);
                assert!(p.admit_p99_us() >= p.admit_p50_us());
            }
        }
    }

    #[test]
    fn sharded_campaign_is_stable_across_both_worker_axes() {
        let base = run_serve_campaign(&small_campaign(1).with_shards(2, 1));
        for (workers, replay_workers) in [(2usize, 1usize), (1, 4), (4, 2)] {
            let campaign = small_campaign(workers).with_shards(2, replay_workers);
            let other = run_serve_campaign(&campaign);
            assert_eq!(
                base.render_json(false),
                other.render_json(false),
                "{workers} campaign × {replay_workers} replay workers diverged"
            );
        }
        ArtifactKind::Serve
            .validate(&base.render_json(false))
            .expect("schema v3 validates");
    }

    #[test]
    fn shard_count_is_echoed_in_config() {
        let report = run_serve_campaign(&small_campaign(1).with_shards(2, 2));
        assert_eq!(report.shards, 2);
        assert!(report.render_json(false).contains("\"shards\": 2"));
    }
}
