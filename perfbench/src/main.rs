//! perfbench — one benchmark for the snsp serving tier and the offline
//! solver.
//!
//! ```text
//! perfbench --workload <serve-dense|serve-wide|serve-chaos|offline-large>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the end-to-end pass through the public entry points
//! with all instrumentation off; `--trace 1` runs the traced pass, which
//! times each layer from outside and reads the Det counters. Both passes
//! run the correctness gate. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are the human-readable report (configuration, gate, metrics, tail
//! exemplars). See `README.md` for the workloads and the metric map.

mod layers;
mod offline;
mod serve;

use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <serve-dense|serve-wide|serve-chaos|offline-large> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The end-to-end metrics `--trace 0` reports, with their units, in
/// `BENCHMARK.json` order. Every workload reports every one (README.md
/// gives the per-workload meaning).
pub const END_TO_END: &[(&str, &str)] = &[
    ("replay_events_per_s", "events/s"),
    ("admit_p50_us", "us"),
    ("admit_p99_us", "us"),
    ("admission_rate", "ratio"),
    ("cost_integral", "usd-time"),
    ("solve_s", "s"),
    ("refined_cost", "usd"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics `--trace 1` reports. A layer a workload never
/// calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("heuristics.place.calls", "count"),
    ("heuristics.place.ms", "ms"),
    ("heuristics.place.p99_us", "us"),
    ("heuristics.solve.ms", "ms"),
    ("heuristics.solve.feasible", "count"),
    ("platform.admit.calls", "count"),
    ("platform.admit.self_ms", "ms"),
    ("platform.admit.p99_us", "us"),
    ("platform.admit.pack_pruned", "count"),
    ("platform.admit.reuse_ratio", "ratio"),
    ("platform.depart.calls", "count"),
    ("platform.depart.ms", "ms"),
    ("platform.depart.p99_us", "us"),
    ("platform.resident_ops.max", "count"),
    ("platform.consolidate.evac_pruned", "count"),
    ("platform.consolidate.pruned_per_depart", "ratio"),
    ("platform.fail.calls", "count"),
    ("platform.fail.ms", "ms"),
    ("platform.fail.remapped", "count"),
    ("platform.fail.evicted", "count"),
    ("engine.meets_slo.calls", "count"),
    ("engine.meets_slo.ms", "ms"),
    ("shard.imbalance", "ratio"),
    ("shard.tick_batch_events.mean", "events"),
    ("shard.log_lines", "count"),
    ("shard.log_bytes", "bytes"),
    ("pool.steals", "count"),
    ("fault.checkpoint_clone_us", "us"),
    ("fault.audit_us", "us"),
    ("fault.recovery_replayed", "count"),
    ("fault.msg.retransmitted", "count"),
    ("fault.retry.readmit_ratio", "ratio"),
    ("fault.degrade.shed", "count"),
    ("search.refine.ms", "ms"),
    ("search.evals", "count"),
    ("search.accept_ratio", "ratio"),
    ("search.verify_reject_ratio", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// What one workload run reports: the failure accounting, the metric
/// values of the pass that ran, and every correctness check that failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    pub broken: Vec<String>,
}

impl Outcome {
    /// Sets a metric named in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the benchmark's tables"
        );
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        self.values.insert(name, value + 0.0);
    }

    /// Records one correctness check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        println!("gate {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.broken.push(what);
        }
    }
}

fn result_json(correct: bool, out: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = out.values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let revision = std::env::var("PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into());
    println!(
        "run workload={} seed={} seconds={} trace={} nproc={nproc} revision={revision}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = match args.workload.as_str() {
        "serve-dense" | "serve-wide" | "serve-chaos" => serve::run(&args, nproc),
        "offline-large" => offline::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in table {
        let value = out.values.get(name).copied().unwrap_or(0.0);
        println!("metric {name:<40} {value:>20} {unit}");
    }
    let non_finite: Vec<&str> = table
        .iter()
        .map(|(name, _)| *name)
        .filter(|name| out.values.get(name).is_some_and(|v| !v.is_finite()))
        .collect();
    out.check(
        non_finite.is_empty(),
        format!("every metric is finite (not: {non_finite:?})"),
    );
    let correct = out.broken.is_empty();
    println!("{}", result_json(correct, &out, table));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
