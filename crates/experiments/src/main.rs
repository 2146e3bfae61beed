//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (§5) and runs machine-readable parallel campaigns.
//!
//! ```text
//! snsp-experiments <id> [--seeds K] [--out DIR]
//!   ids: table1 fig2a fig2b fig3 fig3n20 large lowfreq rates vsopt
//!        engine bounds mutable budget multiapp all
//!
//! snsp-experiments sweep --grid <fig2a|fig2b|fig3|fig3n20|large|lowfreq|ci>
//!                        [--seeds K] [--workers W] [--reference]
//!                        [--bb-workers B] [--json PATH] [--stable-json]
//!                        [--out DIR]
//!   Runs the grid as one parallel campaign and writes BENCH_sweep.json
//!   (schema v1). --stable-json omits the timing block so the bytes are
//!   identical at every worker count; --reference adds a branch-and-bound
//!   column on small points; --bb-workers runs each reference solve with
//!   B parallel branch-and-bound threads (wall-clock only — the certified
//!   optimum is worker-count-independent).
//!
//! snsp-experiments serve --grid <serve-ci|poisson|burst|churn|sharded-ci|sharded-100k>
//!                        [--seeds K] [--workers W] [--replay-workers R]
//!                        [--json PATH] [--stable-json] [--out DIR]
//!   Replays the trace grid as one parallel online-serving campaign and
//!   writes BENCH_serve.json (schema v3 with admission-latency p50/p99
//!   columns, byte-identical at any worker count in --stable-json form).
//!   The sharded-* grids replay through the sharded tier;
//!   --replay-workers sets the per-replay tick-batch worker count
//!   (wall-clock only — never results).
//!
//! snsp-experiments chaos --grid <ci|racks|msg-storm>
//!                        [--seeds K] [--workers W] [--replay-workers R]
//!                        [--fault-plan SPEC] [--json PATH] [--stable-json]
//!                        [--out DIR]
//!   Replays the trace grid through the sharded tier under a seeded
//!   fault plan (shard crashes with checkpoint/restore recovery,
//!   dropped/duplicated/delayed shard messages, rack-correlated failure
//!   bursts, capacity revocation with retry-queue readmission, graceful
//!   degradation) and writes BENCH_chaos.json (schema v6, byte-identical
//!   at any worker count in --stable-json form). Every point with
//!   injected crashes is certified against a crash-free reference replay
//!   (the crash_fingerprint_match column), and the platform invariants
//!   are audited after every fault. --fault-plan overrides every point's
//!   fault spec with comma-separated key=value pairs
//!   (e.g. "crash=0.2,drop=0.05,revoke=10:14:0.5,retry=0.5:2:6,tick=2"),
//!   range-checked before any replay starts: an out-of-range value exits
//!   2 naming its key.
//!
//! snsp-experiments perf --grid <ci|large-n> [--seeds K] [--json PATH]
//!                       [--out DIR]
//!   Times the incremental demand engine against its retained reference
//!   oracles (heuristic pipelines, branch-and-bound, raw demand probes)
//!   and writes BENCH_perf.json (schema v4 with the peak-RSS gauge,
//!   byte-stable layout).
//!
//! snsp-experiments refine --grid <ci|fig2|large-n>
//!                         [--seeds K] [--workers W] [--bb-workers B]
//!                         [--json PATH] [--stable-json] [--out DIR]
//!   Races the six heuristics as starts, refines the best with the
//!   snsp-search portfolio and writes BENCH_refine.json (schema v4,
//!   byte-identical at any worker count in --stable-json form; the ci
//!   grid carries an exact branch-and-bound reference column, solved
//!   with B parallel threads under --bb-workers — same bytes at any B).
//!
//! snsp-experiments validate <PATH>
//!   Schema-checks a BENCH_sweep.json (v1), BENCH_serve.json (v3),
//!   BENCH_perf.json (v4), BENCH_refine.json (v4), TELEMETRY.json (v5),
//!   BENCH_chaos.json (v6) or TRACE.json (v7) against its kind's field
//!   table — the kind sniffed via the "kind" discriminator; exits
//!   non-zero on violations, including keys the table does not declare.
//!
//! snsp-experiments telemetry-summary <PATH>
//!   Renders a TELEMETRY.json as human-readable tables: deterministic
//!   counters and histograms, the executor-pool roll-up, then the
//!   wall-clock overlay (gauges, spans, latency percentiles).
//!
//! snsp-experiments report diff <A> <B> [--timing-tolerance FRAC]
//!   Structurally compares two same-kind report artifacts: strict on
//!   deterministic columns, toleranced (or informational, without a
//!   threshold) on wall-clock/RSS columns, each column classed by its
//!   kind's field table. Prints the regression table
//!   and exits non-zero when a deterministic column moved — the CI
//!   regression sentinel.
//!
//! The serve and chaos subcommands accept --trace-out PATH: record the
//! causal event trace across the run and write the deterministic
//! TRACE.json (schema v7, byte-identical at any worker count) plus a
//! Chrome trace_event timeline at <stem>.chrome.json (load it at
//! chrome://tracing or ui.perfetto.dev). Under chaos, the flight
//! recorder dumps to <stem>.flight.json on audit failure or a contained
//! pool panic.
//!
//! The sweep, serve, chaos, perf and refine subcommands accept --telemetry
//! (capture counters/histograms/spans across the run) and
//! --telemetry-out PATH (implies --telemetry; default
//! <out>/TELEMETRY.json). With --stable-json the wall-clock overlay is
//! nulled, leaving the deterministic core — byte-identical at any
//! worker count.
//! ```

mod experiments;
mod perf;
mod table;
mod telemetry;

use std::path::{Path, PathBuf};
use std::time::Instant;

use snsp_search::run_refine_campaign;
use snsp_serve::run_serve_campaign;
use snsp_sweep::{
    diff_reports, run_campaign, ArtifactKind, DiffOptions, PhaseTiming, ReferenceConfig,
};
use table::Table;

struct Args {
    experiment: String,
    seeds: u64,
    out_dir: PathBuf,
    workers: Option<usize>,
    replay_workers: Option<usize>,
    bb_workers: Option<usize>,
    grid: Option<String>,
    json: Option<PathBuf>,
    stable_json: bool,
    reference: bool,
    validate_path: Option<PathBuf>,
    telemetry: bool,
    telemetry_out: Option<PathBuf>,
    fault_plan: Option<String>,
    trace_out: Option<PathBuf>,
    diff_paths: Option<(PathBuf, PathBuf)>,
    timing_tolerance: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let experiment = args.next().ok_or_else(usage)?;
    let mut parsed = Args {
        experiment,
        seeds: 10,
        out_dir: PathBuf::from("results"),
        workers: None,
        replay_workers: None,
        bb_workers: None,
        grid: None,
        json: None,
        stable_json: false,
        reference: false,
        validate_path: None,
        telemetry: false,
        telemetry_out: None,
        fault_plan: None,
        trace_out: None,
        diff_paths: None,
        timing_tolerance: None,
    };
    if parsed.experiment == "validate" || parsed.experiment == "telemetry-summary" {
        parsed.validate_path =
            Some(PathBuf::from(args.next().ok_or_else(|| {
                format!("{} needs a JSON path", parsed.experiment)
            })?));
        return Ok(parsed);
    }
    if parsed.experiment == "report" {
        match args.next().as_deref() {
            Some("diff") => {}
            other => {
                return Err(format!(
                    "report needs the diff verb (got {:?})\n{}",
                    other.unwrap_or("nothing"),
                    usage()
                ))
            }
        }
        let a = PathBuf::from(args.next().ok_or("report diff needs two JSON paths")?);
        let b = PathBuf::from(args.next().ok_or("report diff needs two JSON paths")?);
        parsed.diff_paths = Some((a, b));
    }
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seeds" => parsed.seeds = positive(args.next(), &flag)? as u64,
            "--out" => {
                parsed.out_dir = PathBuf::from(args.next().ok_or("--out needs a directory")?);
            }
            "--workers" => parsed.workers = Some(positive(args.next(), &flag)?),
            "--replay-workers" => parsed.replay_workers = Some(positive(args.next(), &flag)?),
            "--bb-workers" => parsed.bb_workers = Some(positive(args.next(), &flag)?),
            "--grid" => {
                parsed.grid = Some(args.next().ok_or("--grid needs a grid id")?);
            }
            "--json" => {
                parsed.json = Some(PathBuf::from(args.next().ok_or("--json needs a path")?));
            }
            "--fault-plan" => {
                parsed.fault_plan = Some(args.next().ok_or("--fault-plan needs a spec string")?);
            }
            "--trace-out" => {
                parsed.trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a path")?,
                ));
            }
            "--timing-tolerance" => {
                parsed.timing_tolerance = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t: &f64| t >= 0.0)
                        .ok_or("--timing-tolerance needs a non-negative fraction")?,
                );
            }
            "--stable-json" => parsed.stable_json = true,
            "--reference" => parsed.reference = true,
            "--telemetry" => parsed.telemetry = true,
            "--telemetry-out" => {
                parsed.telemetry = true;
                parsed.telemetry_out = Some(PathBuf::from(
                    args.next().ok_or("--telemetry-out needs a path")?,
                ));
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(parsed)
}

/// The positive integer `flag` needs as its value.
fn positive(value: Option<String>, flag: &str) -> Result<usize, String> {
    value
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .ok_or_else(|| format!("{flag} needs a positive integer"))
}

fn usage() -> String {
    "usage: snsp-experiments <table1|fig2a|fig2b|fig3|fig3n20|large|lowfreq|rates|vsopt|engine|\
     bounds|mutable|budget|multiapp|all> [--seeds K] [--out DIR]\n\
     \u{20}      snsp-experiments sweep --grid <ID> [--seeds K] [--workers W] [--reference] \
     [--bb-workers B] [--json PATH] [--stable-json] [--out DIR] \
     [--telemetry] [--telemetry-out PATH]\n\
     \u{20}      snsp-experiments serve --grid <ID> [--seeds K] [--workers W] \
     [--replay-workers R] [--json PATH] [--stable-json] [--out DIR] \
     [--telemetry] [--telemetry-out PATH] [--trace-out PATH]\n\
     \u{20}      snsp-experiments chaos --grid <ci|racks|msg-storm> [--seeds K] [--workers W] \
     [--replay-workers R] [--fault-plan SPEC] [--json PATH] [--stable-json] [--out DIR] \
     [--telemetry] [--telemetry-out PATH] [--trace-out PATH]\n\
     \u{20}      snsp-experiments perf --grid <ci|large-n> [--seeds K] [--json PATH] [--out DIR] \
     [--telemetry] [--telemetry-out PATH]\n\
     \u{20}      snsp-experiments refine --grid <ci|fig2|large-n> [--seeds K] [--workers W] \
     [--bb-workers B] [--json PATH] [--stable-json] [--out DIR] \
     [--telemetry] [--telemetry-out PATH]\n\
     \u{20}      snsp-experiments validate <PATH>\n\
     \u{20}      snsp-experiments telemetry-summary <PATH>\n\
     \u{20}      snsp-experiments report diff <A> <B> [--timing-tolerance FRAC]"
        .to_string()
}

/// Runs `f` under an exclusive telemetry capture session when `--telemetry`
/// was passed; otherwise runs it bare.
fn run_captured<R>(on: bool, f: impl FnOnce() -> R) -> (R, Option<snsp_telemetry::Snapshot>) {
    if on {
        let (r, snap) = snsp_telemetry::capture(f);
        (r, Some(snap))
    } else {
        (f(), None)
    }
}

/// Validates `body` against the `kind` field table and writes it to
/// `path` (creating its directory): every artifact the CLI writes goes
/// through here.
fn write_artifact(kind: ArtifactKind, body: &str, path: &Path) -> Result<(), String> {
    kind.validate(body).map_err(|errors| {
        format!(
            "generated {} report failed validation: {errors:?}",
            kind.name()
        )
    })?;
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, body).map_err(|e| format!("could not write {}: {e}", path.display()))
}

/// Validates and writes `TELEMETRY.json` (schema v5) for a captured
/// snapshot. `--stable-json` nulls the wall-clock overlay, leaving only
/// the deterministic core — byte-identical at any worker count.
fn write_telemetry(
    args: &Args,
    snap: Option<snsp_telemetry::Snapshot>,
    campaign: &str,
) -> Result<(), String> {
    let Some(snap) = snap else {
        return Ok(());
    };
    let body = telemetry::telemetry_json(&snap, campaign, args.stable_json).render();
    let path = args
        .telemetry_out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("TELEMETRY.json"));
    write_artifact(ArtifactKind::Telemetry, &body, &path)?;
    println!("[telemetry] {}", path.display());
    Ok(())
}

/// Starts the causal trace layer when `--trace-out` was passed. The wall
/// overlay follows the telemetry discipline: stamped unless
/// `--stable-json` asked for the deterministic-only form.
fn trace_begin(args: &Args) {
    if args.trace_out.is_some() {
        snsp_telemetry::trace::start(snsp_telemetry::trace::DEFAULT_CAPACITY, !args.stable_json);
    }
}

/// The Chrome-timeline sibling of a `TRACE.json` path:
/// `results/TRACE.json` → `results/TRACE.chrome.json`.
fn trace_sibling(path: &std::path::Path, tag: &str) -> PathBuf {
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("TRACE");
    path.with_file_name(format!("{stem}.{tag}.json"))
}

/// Stops the trace layer and writes both timeline artifacts: the
/// deterministic `TRACE.json` (schema v7, validated before writing) and
/// the Chrome `trace_event` sibling at `<stem>.chrome.json`.
fn write_trace(args: &Args, campaign: &str) -> Result<(), String> {
    let Some(path) = &args.trace_out else {
        return Ok(());
    };
    let snap = snsp_telemetry::trace::stop();
    let doc = snsp_sweep::trace_json(&snap, campaign);
    write_artifact(ArtifactKind::Trace, &doc.render(), path)?;
    println!(
        "[trace] {} ({} det events, {} dropped)",
        path.display(),
        doc.get("det_events")
            .and_then(snsp_sweep::Json::as_arr)
            .map_or(0, |events| events.len()),
        snap.dropped
    );
    let chrome = trace_sibling(path, "chrome");
    std::fs::write(&chrome, snsp_sweep::chrome_trace_json(&snap).render())
        .map_err(|e| format!("could not write {}: {e}", chrome.display()))?;
    println!("[trace] {} (chrome trace_event timeline)", chrome.display());
    Ok(())
}

/// The `report diff` subcommand: structurally compares two same-kind
/// report artifacts and prints the regression table. Returns whether the
/// diff was clean of regressions.
fn run_report_diff(args: &Args) -> Result<bool, String> {
    let (a, b) = args
        .diff_paths
        .as_ref()
        .expect("diff_paths set by the report parser");
    let body_a =
        std::fs::read_to_string(a).map_err(|e| format!("could not read {}: {e}", a.display()))?;
    let body_b =
        std::fs::read_to_string(b).map_err(|e| format!("could not read {}: {e}", b.display()))?;
    let opts = DiffOptions {
        timing_tolerance: args.timing_tolerance,
    };
    let report = diff_reports(&body_a, &body_b, opts).map_err(|errors| errors.join("\n"))?;
    print!("{}", report.render_table());
    Ok(report.clean())
}

/// The `telemetry-summary` subcommand: validates a `TELEMETRY.json` and
/// prints its counters, histograms, gauges and spans as aligned tables.
fn run_summary(path: &PathBuf) -> Result<(), String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    ArtifactKind::Telemetry.validate(&body).map_err(|errors| {
        format!(
            "{}: not a valid telemetry report: {errors:?}",
            path.display()
        )
    })?;
    let doc = snsp_sweep::json::parse(&body).map_err(|e| format!("not JSON: {e}"))?;
    for t in telemetry::summary_tables(&doc) {
        println!("{}", t.render());
    }
    Ok(())
}

fn run_one(id: &str, seeds: u64) -> Result<Vec<Table>, String> {
    if let Some((title, axis)) = experiments::paper_title(id) {
        let campaign = experiments::grid(id, seeds).expect("every paper id has a grid");
        let report = run_campaign(&campaign);
        return Ok(experiments::report_tables(&report, title, axis));
    }
    Ok(match id {
        "table1" => experiments::table1(),
        "rates" => experiments::rate_sweep(seeds),
        "vsopt" => experiments::vs_optimal(seeds.min(5)),
        "engine" => experiments::engine_validation(seeds.min(5)),
        "bounds" => experiments::bounds_check(seeds.min(5)),
        "mutable" => experiments::mutable_rewriting(seeds),
        "budget" => experiments::budget_sweep(seeds.min(5)),
        "multiapp" => experiments::multi_application(seeds.min(5)),
        other => return Err(format!("unknown experiment {other}\n{}", usage())),
    })
}

fn write_tables(id: &str, tables: &[Table], out_dir: &std::path::Path) {
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.render());
        let file = if tables.len() == 1 {
            format!("{id}.csv")
        } else {
            format!("{id}_{i}.csv")
        };
        let path = out_dir.join(file);
        if let Err(e) = t.write_csv(&path) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("[csv] {}", path.display());
        }
    }
}

/// One campaign subcommand run, `<cmd> --grid <grid>`, timed from its
/// start.
struct GridRun<'a> {
    cmd: &'a str,
    grid: &'a str,
    started: Instant,
}

impl<'a> GridRun<'a> {
    fn start(args: &'a Args, cmd: &'a str) -> Result<Self, String> {
        let grid = args
            .grid
            .as_deref()
            .ok_or_else(|| format!("{cmd} needs --grid <id>\n{}", usage()))?;
        Ok(GridRun {
            cmd,
            grid,
            started: Instant::now(),
        })
    }

    /// The campaign built for this grid, or an error listing `ids`.
    fn campaign<C>(&self, built: Option<C>, ids: &[&str]) -> Result<C, String> {
        built.ok_or_else(|| {
            let (cmd, grid) = (self.cmd, self.grid);
            format!("unknown {cmd} grid {grid}; available: {}", ids.join(" "))
        })
    }

    /// The output tail every campaign subcommand shares: prints the
    /// tables and writes them to `<out>/<cmd>_<grid>*.csv`, validates and
    /// writes the artifact (`--json`, default `<out>/BENCH_<kind>.json`)
    /// and the telemetry, and prints one timing line.
    fn finish(
        &self,
        args: &Args,
        tables: &[Table],
        kind: ArtifactKind,
        body: &str,
        telem: Option<snsp_telemetry::Snapshot>,
        timing: Option<PhaseTiming>,
    ) -> Result<(), String> {
        let (cmd, grid) = (self.cmd, self.grid);
        write_tables(&format!("{cmd}_{grid}"), tables, &args.out_dir);
        let default_name = format!("BENCH_{}.json", kind.name());
        let json_path = args
            .json
            .clone()
            .unwrap_or_else(|| args.out_dir.join(default_name));
        write_artifact(kind, body, &json_path)?;
        println!("[json] {}", json_path.display());
        write_telemetry(args, telem, &format!("{cmd} {grid}"))?;
        let phases = timing.map_or(String::new(), |t| {
            format!(
                "{} jobs on {} workers: flatten {:.3}s, run {:.3}s, aggregate {:.3}s, ",
                t.jobs, t.workers, t.flatten_s, t.run_s, t.aggregate_s
            )
        });
        let total = self.started.elapsed().as_secs_f64();
        println!("[{cmd} {grid}] {phases}total {total:.3}s");
        Ok(())
    }
}

fn run_sweep(args: &Args) -> Result<(), String> {
    let run = GridRun::start(args, "sweep")?;
    let built = experiments::grid(run.grid, args.seeds);
    let mut campaign = run.campaign(built, experiments::GRID_IDS)?;
    if let Some(w) = args.workers {
        campaign = campaign.with_workers(w);
    }
    if args.reference && campaign.reference.is_none() {
        campaign = campaign.with_reference(ReferenceConfig::default());
    }
    if let (Some(b), Some(r)) = (args.bb_workers, campaign.reference.as_mut()) {
        r.workers = b;
    }

    let (report, telem) = run_captured(args.telemetry, || run_campaign(&campaign));
    let title = format!("campaign {}", run.grid);
    let tables = experiments::report_tables(&report, &title, "point");
    let body = report.render_json(!args.stable_json);
    run.finish(
        args,
        &tables,
        ArtifactKind::Sweep,
        &body,
        telem,
        report.timing,
    )
}

/// The `serve` and `chaos` subcommands: one campaign type and one
/// report. `chaos` picks the fault grids, honours `--fault-plan`, points
/// the flight recorder next to the trace, and writes the v6 artifact;
/// `serve` writes the v3 one.
fn run_serve(args: &Args, chaos: bool) -> Result<(), String> {
    let run = GridRun::start(args, if chaos { "chaos" } else { "serve" })?;
    let mut campaign = if chaos {
        let built = experiments::chaos_grid(run.grid, args.seeds);
        run.campaign(built, experiments::CHAOS_GRID_IDS)?
    } else {
        let built = experiments::serve_grid(run.grid, args.seeds);
        run.campaign(built, experiments::SERVE_GRID_IDS)?
    };
    if let Some(w) = args.workers {
        campaign = campaign.with_workers(w);
    }
    if let Some(r) = args.replay_workers {
        let shards = campaign.shards;
        campaign = campaign.with_shards(shards, r);
    }
    if let (true, Some(plan)) = (chaos, &args.fault_plan) {
        let horizon = campaign
            .points
            .iter()
            .map(|p| p.params.horizon)
            .fold(0.0, f64::max);
        let spec = experiments::parse_fault_plan(plan, horizon)?;
        for point in &mut campaign.points {
            point.fault = spec;
        }
    }

    // The flight recorder dumps next to the trace artifact; without
    // --trace-out the dump falls back to stderr.
    if let (true, Some(path)) = (chaos, &args.trace_out) {
        snsp_telemetry::trace::set_flight_path(Some(trace_sibling(path, "flight")));
    }
    trace_begin(args);
    let (report, telem) = run_captured(args.telemetry, || run_serve_campaign(&campaign));
    write_trace(args, &format!("{} {}", run.cmd, run.grid))?;
    snsp_telemetry::trace::set_flight_path(None);
    let title = format!("{} campaign {}", run.cmd, run.grid);
    let (tables, kind, body) = if chaos {
        let body = report.render_chaos_json(!args.stable_json);
        let tables = experiments::chaos_tables(&report, &title);
        (tables, ArtifactKind::Chaos, body)
    } else {
        let body = report.render_json(!args.stable_json);
        let tables = experiments::serve_tables(&report, &title);
        (tables, ArtifactKind::Serve, body)
    };
    run.finish(args, &tables, kind, &body, telem, report.timing)
}

fn run_refine(args: &Args) -> Result<(), String> {
    let run = GridRun::start(args, "refine")?;
    let built = snsp_search::refine_grid(run.grid, args.seeds);
    let mut campaign = run.campaign(built, snsp_search::REFINE_GRID_IDS)?;
    if let Some(w) = args.workers {
        campaign = campaign.with_workers(w);
    }
    if let (Some(b), Some(r)) = (args.bb_workers, campaign.reference.as_mut()) {
        r.workers = b;
    }

    let (report, telem) = run_captured(args.telemetry, || run_refine_campaign(&campaign));
    let title = format!("refine campaign {}", run.grid);
    let tables = experiments::refine_tables(&report, &title);
    let body = report.render_json(!args.stable_json);
    run.finish(
        args,
        &tables,
        ArtifactKind::Refine,
        &body,
        telem,
        report.timing,
    )
}

fn run_validate(path: &PathBuf) -> Result<(), String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    match snsp_sweep::validate(&body) {
        Ok(kind) => {
            let (name, version) = (kind.name(), kind.version());
            println!(
                "{}: valid {name} report (schema v{version})",
                path.display()
            );
            Ok(())
        }
        Err(errors) => {
            for e in &errors {
                eprintln!("{}: {e}", path.display());
            }
            Err(format!("{} schema violation(s)", errors.len()))
        }
    }
}

fn run_perf(args: &Args) -> Result<(), String> {
    let run = GridRun::start(args, "perf")?;
    let campaign = run.campaign(perf::perf_grid(run.grid, args.seeds), perf::PERF_GRID_IDS)?;
    let (report, telem) = run_captured(args.telemetry, || perf::run_perf(&campaign));
    let (tables, body) = (report.tables(), report.render_json());
    run.finish(args, &tables, ArtifactKind::Perf, &body, telem, None)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    if args.trace_out.is_some() && !matches!(args.experiment.as_str(), "serve" | "chaos") {
        eprintln!("--trace-out is only supported by the serve and chaos subcommands");
        std::process::exit(2);
    }
    if args.experiment == "report" {
        match run_report_diff(&args) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = &args.validate_path {
        let outcome = if args.experiment == "telemetry-summary" {
            run_summary(path)
        } else {
            run_validate(path)
        };
        if let Err(e) = outcome {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let campaign = match args.experiment.as_str() {
        "sweep" => Some(run_sweep(&args)),
        "serve" | "chaos" => Some(run_serve(&args, args.experiment == "chaos")),
        "perf" => Some(run_perf(&args)),
        "refine" => Some(run_refine(&args)),
        _ => None,
    };
    if let Some(outcome) = campaign {
        if let Err(e) = outcome {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }

    let ids: Vec<&str> = if args.experiment == "all" {
        vec![
            "table1", "fig2a", "fig2b", "fig3", "fig3n20", "large", "lowfreq", "rates", "vsopt",
            "engine", "bounds", "mutable", "budget", "multiapp",
        ]
    } else {
        vec![args.experiment.as_str()]
    };

    for id in ids {
        let started = Instant::now();
        match run_one(id, args.seeds) {
            Ok(tables) => {
                write_tables(id, &tables, &args.out_dir);
                println!("[{id}] done in {:.1}s\n", started.elapsed().as_secs_f64());
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }
}
