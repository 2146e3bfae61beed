//! Structural validation of `BENCH_sweep.json` and `BENCH_serve.json`
//! documents.
//!
//! CI uploads the reports as workflow artifacts and fails the build when
//! these checks reject them, so downstream tooling (perf dashboards,
//! diff scripts) can rely on the schemas without defensive parsing.
//! Campaign reports are **schema v1** ([`validate_report`]); online
//! serving reports are **schema v3** ([`validate_serve_report`]), which
//! adds the `kind: "serve"` discriminator, the trace-grid config echo
//! (including the shard count), the service-metric result rows and the
//! `admit_latency` p50/p99 column (v2 documents — pre-sharding, no
//! latency column — stay readable); perf reports are **schema v4**
//! ([`validate_perf_report`], `kind: "perf"`), recording the incremental
//! demand engine's measured speedups over the retained reference oracles
//! (heuristic pipelines, the branch-and-bound, and the raw demand probe)
//! plus the process peak-RSS gauge (v4); telemetry reports are
//! **schema v5** ([`validate_telemetry_report`], `kind: "telemetry"`),
//! carrying the deterministic counter/histogram core and the optional
//! wall-clock overlay written by `snsp-experiments --telemetry-out`.
//! The `kind` discriminator keeps every kinded document apart.

use crate::json::{parse, Json};
use crate::sink::SCHEMA_VERSION;

/// The schema version stamped into every new serve report.
/// [`validate_serve_report`] also still accepts v2 documents (written
/// before the sharded tier and the admission-latency columns).
pub const SERVE_SCHEMA_VERSION: i64 = 3;

/// The oldest serve schema version [`validate_serve_report`] accepts.
pub const SERVE_SCHEMA_VERSION_MIN: i64 = 2;

/// The schema version stamped into (and required of) every perf report.
/// v4 adds the `results.peak_rss_kb` gauge column.
pub const PERF_SCHEMA_VERSION: i64 = 4;

/// The schema version stamped into (and required of) every refine report.
pub const REFINE_SCHEMA_VERSION: i64 = 4;

/// The schema version stamped into (and required of) every telemetry
/// report (`TELEMETRY.json`, `kind: "telemetry"`).
pub const TELEMETRY_SCHEMA_VERSION: i64 = 5;

/// The schema version stamped into (and required of) every chaos report
/// (`BENCH_chaos.json`, `kind: "chaos"`): fault-injection campaigns over
/// the sharded serve tier, with per-point fault/recovery/retry counters,
/// the crash-recovery fingerprint verdict and the invariant-audit count.
pub const CHAOS_SCHEMA_VERSION: i64 = 6;

/// The schema version stamped into (and required of) every trace report
/// (`TRACE.json`, `kind: "trace"`): the deterministic causal event
/// stream of a replay — Det-class events only, stamped with logical
/// time `(run, tick, shard, seq)` — so the file is byte-identical at
/// any worker count (the wall-clock Chrome timeline is exported
/// separately and is never stable).
pub const TRACE_SCHEMA_VERSION: i64 = 7;

/// Checks the `kind` discriminator against the kind a validator expects,
/// producing an error that names **both** the expected and the found
/// kind — so a cross-kind mistake (validating a serve report with the
/// refine validator, say) reads as "wrong file", not as a pile of
/// missing-field noise. `expected = None` means the document must be
/// kindless (the original schema-v1 sweep report).
fn check_kind(doc: &Json, expected: Option<&str>, errors: &mut Vec<String>) {
    let found = doc.get("kind").and_then(Json::as_str);
    match (expected, found) {
        (Some(want), Some(got)) if want == got => {}
        (Some(want), Some(got)) => errors.push(format!(
            "kind mismatch: expected \"{want}\", found \"{got}\" — \
             this is a BENCH_{got}.json-style document, not BENCH_{want}.json"
        )),
        (Some(want), None) => errors.push(format!(
            "kind must be the string \"{want}\" (missing or not a string; \
             kindless documents are schema-v1 sweep reports)"
        )),
        (None, Some(got)) => errors.push(format!(
            "kind mismatch: expected a kindless schema-v1 sweep report, \
             found kind \"{got}\" — validate it as BENCH_{got}.json instead"
        )),
        (None, None) => {}
    }
}

/// Validates a serialized campaign report against schema v1.
///
/// Returns every violation found (empty ⇒ valid); a parse failure is a
/// single violation.
pub fn validate_report(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let mut errors = Vec::new();
    check_kind(&doc, None, &mut errors);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };

    check(
        doc.get("schema_version").and_then(Json::as_int) == Some(SCHEMA_VERSION),
        "schema_version must be the integer 1",
    );
    check(
        doc.get("generator")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("snsp-sweep")),
        "generator must be an snsp-sweep version string",
    );
    check(
        doc.get("campaign")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()),
        "campaign must be a non-empty string",
    );

    let heur_count = doc
        .get("config")
        .and_then(|c| c.get("heuristics"))
        .and_then(Json::as_arr)
        .map(<[Json]>::len);
    let point_count = match doc.get("config") {
        None => {
            errors.push("config object missing".to_string());
            None
        }
        Some(config) => {
            if config.get("seeds").and_then(Json::as_int).unwrap_or(0) < 1 {
                errors.push("config.seeds must be a positive integer".to_string());
            }
            match heur_count {
                None => errors.push("config.heuristics must be an array".to_string()),
                Some(0) => errors.push("config.heuristics must be non-empty".to_string()),
                Some(_) => {}
            }
            match config.get("points").and_then(Json::as_arr) {
                None => {
                    errors.push("config.points must be an array".to_string());
                    None
                }
                Some(points) => {
                    for (i, p) in points.iter().enumerate() {
                        for key in ["label", "shape"] {
                            if p.get(key).and_then(Json::as_str).is_none() {
                                errors.push(format!("config.points[{i}].{key} must be a string"));
                            }
                        }
                        for key in ["n_ops", "n_types", "servers"] {
                            if p.get(key).and_then(Json::as_int).unwrap_or(0) < 1 {
                                errors.push(format!(
                                    "config.points[{i}].{key} must be a positive integer"
                                ));
                            }
                        }
                        for key in ["alpha", "kappa", "freq_hz", "rho"] {
                            if p.get(key).and_then(Json::as_num).is_none() {
                                errors.push(format!("config.points[{i}].{key} must be a number"));
                            }
                        }
                        for key in ["sizes_mb", "replicas"] {
                            if p.get(key).and_then(Json::as_arr).map(<[Json]>::len) != Some(2) {
                                errors
                                    .push(format!("config.points[{i}].{key} must be a pair array"));
                            }
                        }
                    }
                    Some(points.len())
                }
            }
        }
    };

    match doc.get("results").and_then(Json::as_arr) {
        None => errors.push("results must be an array".to_string()),
        Some(results) => {
            if let Some(n) = point_count {
                if results.len() != n {
                    errors.push(format!(
                        "results has {} entries but config.points has {n}",
                        results.len()
                    ));
                }
            }
            for (i, point) in results.iter().enumerate() {
                if point.get("label").and_then(Json::as_str).is_none() {
                    errors.push(format!("results[{i}].label must be a string"));
                }
                match point.get("heuristics").and_then(Json::as_arr) {
                    None => errors.push(format!("results[{i}].heuristics must be an array")),
                    Some(rows) => {
                        if let Some(h) = heur_count {
                            if rows.len() != h {
                                errors.push(format!(
                                    "results[{i}] has {} heuristic rows, expected {h}",
                                    rows.len()
                                ));
                            }
                        }
                        for (j, row) in rows.iter().enumerate() {
                            validate_heur_row(row, i, j, &mut errors);
                        }
                    }
                }
                match point.get("reference") {
                    None => errors.push(format!("results[{i}].reference key missing")),
                    Some(Json::Null) => {}
                    Some(reference) => validate_reference(reference, i, &mut errors),
                }
            }
        }
    }

    if let Some(timing) = doc.get("timing") {
        if timing.get("workers").and_then(Json::as_int).unwrap_or(0) < 1 {
            errors.push("timing.workers must be a positive integer".to_string());
        }
        for key in ["flatten_s", "run_s", "aggregate_s", "total_s"] {
            if !timing
                .get(key)
                .and_then(Json::as_num)
                .is_some_and(|v| v >= 0.0)
            {
                errors.push(format!("timing.{key} must be a non-negative number"));
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a serialized online-serving campaign report (the
/// `BENCH_serve.json` document written by `snsp-serve`).
///
/// Accepts schema v3 (current: shard count in the config echo,
/// `admit_latency` column in every result row) and schema v2 (legacy:
/// neither), so archived artifacts keep validating.
///
/// Returns every violation found (empty ⇒ valid); a parse failure is a
/// single violation.
pub fn validate_serve_report(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let mut errors = Vec::new();
    check_kind(&doc, Some("serve"), &mut errors);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };

    let version = doc.get("schema_version").and_then(Json::as_int);
    check(
        version.is_some_and(|v| (SERVE_SCHEMA_VERSION_MIN..=SERVE_SCHEMA_VERSION).contains(&v)),
        "schema_version must be an integer in [2, 3]",
    );
    // v3 adds config.shards and the per-row admit_latency column.
    let v3 = version == Some(SERVE_SCHEMA_VERSION);
    check(
        doc.get("generator")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("snsp-serve")),
        "generator must be an snsp-serve version string",
    );
    check(
        doc.get("campaign")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()),
        "campaign must be a non-empty string",
    );

    let point_count = match doc.get("config") {
        None => {
            errors.push("config object missing".to_string());
            None
        }
        Some(config) => {
            if config.get("seeds").and_then(Json::as_int).unwrap_or(0) < 1 {
                errors.push("config.seeds must be a positive integer".to_string());
            }
            if !config
                .get("slo_frac")
                .and_then(Json::as_num)
                .is_some_and(|v| (0.0..=1.0).contains(&v))
            {
                errors.push("config.slo_frac must be a number in [0, 1]".to_string());
            }
            if v3 && config.get("shards").and_then(Json::as_int).unwrap_or(0) < 1 {
                errors.push("config.shards must be a positive integer".to_string());
            }
            match config.get("points").and_then(Json::as_arr) {
                None => {
                    errors.push("config.points must be an array".to_string());
                    None
                }
                Some(points) => {
                    for (i, p) in points.iter().enumerate() {
                        if p.get("label").and_then(Json::as_str).is_none() {
                            errors.push(format!("config.points[{i}].label must be a string"));
                        }
                        for key in ["lambda", "mean_hold", "pareto_shape", "horizon"] {
                            if !p.get(key).and_then(Json::as_num).is_some_and(|v| v > 0.0) {
                                errors.push(format!(
                                    "config.points[{i}].{key} must be a positive number"
                                ));
                            }
                        }
                        if !p
                            .get("fail_rate")
                            .and_then(Json::as_num)
                            .is_some_and(|v| v >= 0.0)
                        {
                            errors.push(format!(
                                "config.points[{i}].fail_rate must be a non-negative number"
                            ));
                        }
                        for key in ["n_ops", "alpha", "rho"] {
                            if p.get(key).and_then(Json::as_arr).map(<[Json]>::len) != Some(2) {
                                errors
                                    .push(format!("config.points[{i}].{key} must be a pair array"));
                            }
                        }
                        match p.get("burst") {
                            None => errors.push(format!("config.points[{i}].burst key missing")),
                            Some(Json::Null) => {}
                            Some(b) => {
                                for key in ["period", "width", "multiplier"] {
                                    if b.get(key).and_then(Json::as_num).is_none() {
                                        errors.push(format!(
                                            "config.points[{i}].burst.{key} must be a number"
                                        ));
                                    }
                                }
                            }
                        }
                    }
                    Some(points.len())
                }
            }
        }
    };

    match doc.get("results").and_then(Json::as_arr) {
        None => errors.push("results must be an array".to_string()),
        Some(results) => {
            if let Some(n) = point_count {
                if results.len() != n {
                    errors.push(format!(
                        "results has {} entries but config.points has {n}",
                        results.len()
                    ));
                }
            }
            for (i, point) in results.iter().enumerate() {
                let at = format!("results[{i}]");
                if point.get("label").and_then(Json::as_str).is_none() {
                    errors.push(format!("{at}.label must be a string"));
                }
                let mut int_of = |key: &str| -> Option<i64> {
                    let v = point.get(key).and_then(Json::as_int).filter(|&v| v >= 0);
                    if v.is_none() {
                        errors.push(format!("{at}.{key} must be a non-negative integer"));
                    }
                    v
                };
                let arrivals = int_of("arrivals");
                let admitted = int_of("admitted");
                let rejected = int_of("rejected");
                for key in [
                    "traces",
                    "departed",
                    "evicted",
                    "failures",
                    "peak_procs",
                    "slo_checks",
                    "slo_violations",
                ] {
                    int_of(key);
                }
                if let (Some(a), Some(ad), Some(r)) = (arrivals, admitted, rejected) {
                    if ad + r != a {
                        errors.push(format!("{at}: admitted + rejected must equal arrivals"));
                    }
                }
                if !point
                    .get("admission_rate")
                    .and_then(Json::as_num)
                    .is_some_and(|v| (0.0..=1.0).contains(&v))
                {
                    errors.push(format!("{at}.admission_rate must be a number in [0, 1]"));
                }
                for key in ["mean_cost_integral", "mean_utilization", "mean_final_cost"] {
                    if !point
                        .get(key)
                        .and_then(Json::as_num)
                        .is_some_and(|v| v >= 0.0)
                    {
                        errors.push(format!("{at}.{key} must be a non-negative number"));
                    }
                }
                if v3 {
                    match point.get("admit_latency") {
                        None => errors.push(format!("{at}.admit_latency key missing")),
                        // Stable renderings drop the wall-clock samples.
                        Some(Json::Null) => {}
                        Some(lat) => {
                            if lat.get("samples").and_then(Json::as_int).unwrap_or(0) < 1 {
                                errors.push(format!(
                                    "{at}.admit_latency.samples must be a positive integer"
                                ));
                            }
                            let mut num_of = |key: &str| -> f64 {
                                let v = lat.get(key).and_then(Json::as_num).filter(|&v| v >= 0.0);
                                if v.is_none() {
                                    errors.push(format!(
                                        "{at}.admit_latency.{key} must be a non-negative number"
                                    ));
                                }
                                v.unwrap_or(0.0)
                            };
                            let p50 = num_of("p50_us");
                            let p99 = num_of("p99_us");
                            let max = num_of("max_us");
                            if !(p50 <= p99 && p99 <= max) {
                                errors.push(format!(
                                    "{at}.admit_latency percentiles must be ordered \
                                     (p50 <= p99 <= max)"
                                ));
                            }
                        }
                    }
                }
                if point
                    .get("log_hash")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errors.push(format!("{at}.log_hash must be a non-empty string"));
                }
            }
        }
    }

    if let Some(timing) = doc.get("timing") {
        if timing.get("workers").and_then(Json::as_int).unwrap_or(0) < 1 {
            errors.push("timing.workers must be a positive integer".to_string());
        }
        for key in ["flatten_s", "run_s", "aggregate_s", "total_s"] {
            if !timing
                .get(key)
                .and_then(Json::as_num)
                .is_some_and(|v| v >= 0.0)
            {
                errors.push(format!("timing.{key} must be a non-negative number"));
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a serialized perf report against schema v4 (the
/// `BENCH_perf.json` document written by `snsp-experiments perf`;
/// v4 added `results.peak_rss_kb`, a process-level gauge that may be
/// `null` on platforms without `/proc/self/status`).
///
/// Beyond structure, the correctness invariants are enforced: every
/// engine-comparison row must declare `costs_match: true` — a perf
/// report documenting a semantic divergence between the incremental
/// engine and its reference oracle is invalid by definition.
///
/// Returns every violation found (empty ⇒ valid); a parse failure is a
/// single violation.
pub fn validate_perf_report(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let mut errors = Vec::new();
    check_kind(&doc, Some("perf"), &mut errors);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };

    check(
        doc.get("schema_version").and_then(Json::as_int) == Some(PERF_SCHEMA_VERSION),
        "schema_version must be the integer 4",
    );
    check(
        doc.get("generator")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("snsp-experiments")),
        "generator must be an snsp-experiments version string",
    );
    check(
        doc.get("campaign")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()),
        "campaign must be a non-empty string",
    );

    let mut point_count = None;
    let mut bb_count = None;
    match doc.get("config") {
        None => errors.push("config object missing".to_string()),
        Some(config) => {
            if config.get("seeds").and_then(Json::as_int).unwrap_or(0) < 1 {
                errors.push("config.seeds must be a positive integer".to_string());
            }
            match config.get("points").and_then(Json::as_arr) {
                None => errors.push("config.points must be an array".to_string()),
                Some(points) => {
                    for (i, p) in points.iter().enumerate() {
                        if p.get("label").and_then(Json::as_str).is_none() {
                            errors.push(format!("config.points[{i}].label must be a string"));
                        }
                        if p.get("n_ops").and_then(Json::as_int).unwrap_or(0) < 1 {
                            errors.push(format!(
                                "config.points[{i}].n_ops must be a positive integer"
                            ));
                        }
                        if p.get("alpha").and_then(Json::as_num).is_none() {
                            errors.push(format!("config.points[{i}].alpha must be a number"));
                        }
                    }
                    point_count = Some(points.len());
                }
            }
            match config.get("bb_points").and_then(Json::as_arr) {
                None => errors.push("config.bb_points must be an array".to_string()),
                Some(points) => {
                    for (i, p) in points.iter().enumerate() {
                        if p.get("label").and_then(Json::as_str).is_none() {
                            errors.push(format!("config.bb_points[{i}].label must be a string"));
                        }
                        for key in ["n_ops", "node_budget"] {
                            if p.get(key).and_then(Json::as_int).unwrap_or(0) < 1 {
                                errors.push(format!(
                                    "config.bb_points[{i}].{key} must be a positive integer"
                                ));
                            }
                        }
                        if p.get("homogeneous").and_then(Json::as_bool).is_none() {
                            errors.push(format!(
                                "config.bb_points[{i}].homogeneous must be a boolean"
                            ));
                        }
                    }
                    bb_count = Some(points.len());
                }
            }
            if config
                .get("probe_n_ops")
                .and_then(Json::as_int)
                .unwrap_or(0)
                < 1
            {
                errors.push("config.probe_n_ops must be a positive integer".to_string());
            }
        }
    }

    let ms = |obj: &Json, key: &str| -> bool {
        obj.get(key)
            .and_then(Json::as_num)
            .is_some_and(|v| v >= 0.0)
    };
    match doc.get("results") {
        None => errors.push("results object missing".to_string()),
        Some(results) => {
            match results.get("heuristics").and_then(Json::as_arr) {
                None => errors.push("results.heuristics must be an array".to_string()),
                Some(points) => {
                    if let Some(n) = point_count {
                        if points.len() != n {
                            errors.push(format!(
                                "results.heuristics has {} entries but config.points has {n}",
                                points.len()
                            ));
                        }
                    }
                    for (i, point) in points.iter().enumerate() {
                        let at = format!("results.heuristics[{i}]");
                        if point.get("label").and_then(Json::as_str).is_none() {
                            errors.push(format!("{at}.label must be a string"));
                        }
                        match point.get("rows").and_then(Json::as_arr) {
                            None => errors.push(format!("{at}.rows must be an array")),
                            Some(rows) => {
                                for (j, row) in rows.iter().enumerate() {
                                    let at = format!("{at}.rows[{j}]");
                                    if row.get("name").and_then(Json::as_str).is_none() {
                                        errors.push(format!("{at}.name must be a string"));
                                    }
                                    let runs = row.get("runs").and_then(Json::as_int);
                                    let feasible = row.get("feasible").and_then(Json::as_int);
                                    if !matches!((runs, feasible),
                                        (Some(r), Some(f)) if (0..=r).contains(&f))
                                    {
                                        errors.push(format!(
                                            "{at} needs integer runs >= feasible >= 0"
                                        ));
                                    }
                                    for key in ["incremental_ms", "oracle_ms"] {
                                        if !ms(row, key) {
                                            errors.push(format!(
                                                "{at}.{key} must be a non-negative number"
                                            ));
                                        }
                                    }
                                    if !row
                                        .get("speedup")
                                        .and_then(Json::as_num)
                                        .is_some_and(|v| v > 0.0)
                                    {
                                        errors.push(format!(
                                            "{at}.speedup must be a positive number"
                                        ));
                                    }
                                    if row.get("costs_match").and_then(Json::as_bool) != Some(true)
                                    {
                                        errors.push(format!("{at}.costs_match must be true"));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            match results.get("bb").and_then(Json::as_arr) {
                None => errors.push("results.bb must be an array".to_string()),
                Some(rows) => {
                    if let Some(n) = bb_count {
                        if rows.len() != n {
                            errors.push(format!(
                                "results.bb has {} entries but config.bb_points has {n}",
                                rows.len()
                            ));
                        }
                    }
                    for (i, row) in rows.iter().enumerate() {
                        let at = format!("results.bb[{i}]");
                        if row.get("label").and_then(Json::as_str).is_none() {
                            errors.push(format!("{at}.label must be a string"));
                        }
                        for engine in ["incremental", "reference"] {
                            match row.get(engine) {
                                None => errors.push(format!("{at}.{engine} object missing")),
                                Some(e) => {
                                    if e.get("nodes").and_then(Json::as_int).unwrap_or(-1) < 0 {
                                        errors.push(format!(
                                            "{at}.{engine}.nodes must be a non-negative integer"
                                        ));
                                    }
                                    if !ms(e, "ms") || !ms(e, "nodes_per_sec") {
                                        errors.push(format!(
                                            "{at}.{engine} needs non-negative ms and nodes_per_sec"
                                        ));
                                    }
                                }
                            }
                        }
                        for key in ["wall_speedup", "node_ratio"] {
                            if !row.get(key).and_then(Json::as_num).is_some_and(|v| v > 0.0) {
                                errors.push(format!("{at}.{key} must be a positive number"));
                            }
                        }
                        if row.get("costs_match").and_then(Json::as_bool) != Some(true) {
                            errors.push(format!("{at}.costs_match must be true"));
                        }
                    }
                }
            }
            match results.get("demand_probe") {
                None => errors.push("results.demand_probe object missing".to_string()),
                Some(probe) => {
                    if probe.get("probes").and_then(Json::as_int).unwrap_or(0) < 1 {
                        errors.push("results.demand_probe.probes must be positive".to_string());
                    }
                    for key in ["incremental_ms", "oracle_ms"] {
                        if !ms(probe, key) {
                            errors.push(format!(
                                "results.demand_probe.{key} must be a non-negative number"
                            ));
                        }
                    }
                    if !probe
                        .get("speedup")
                        .and_then(Json::as_num)
                        .is_some_and(|v| v > 0.0)
                    {
                        errors
                            .push("results.demand_probe.speedup must be a positive number".into());
                    }
                    if probe.get("accepted_match").and_then(Json::as_bool) != Some(true) {
                        errors.push("results.demand_probe.accepted_match must be true".into());
                    }
                }
            }
            // v4: the process peak-RSS high-water mark, null when the
            // platform offers no `/proc/self/status` to read it from.
            match results.get("peak_rss_kb") {
                None => errors.push("results.peak_rss_kb key missing".to_string()),
                Some(Json::Null) => {}
                Some(v) => {
                    if v.as_int().is_none_or(|kb| kb < 0) {
                        errors.push(
                            "results.peak_rss_kb must be a non-negative integer or null"
                                .to_string(),
                        );
                    }
                }
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a serialized telemetry report against schema v5 (the
/// `TELEMETRY.json` document written by `snsp-experiments
/// --telemetry-out`).
///
/// The document splits into a **deterministic core** (`deterministic`:
/// counters and histograms of `Class::Det` metrics — byte-identical at
/// any worker count) and a **wall-clock overlay** (`overlay`: the
/// scheduling- and clock-dependent rest), which stable renderings null
/// out entirely.
///
/// Returns every violation found (empty ⇒ valid); a parse failure is a
/// single violation.
pub fn validate_telemetry_report(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let mut errors = Vec::new();
    check_kind(&doc, Some("telemetry"), &mut errors);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };

    check(
        doc.get("schema_version").and_then(Json::as_int) == Some(TELEMETRY_SCHEMA_VERSION),
        "schema_version must be the integer 5",
    );
    check(
        doc.get("generator")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("snsp-")),
        "generator must be an snsp tool version string",
    );
    check(
        doc.get("campaign")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()),
        "campaign must be a non-empty string",
    );

    match doc.get("deterministic") {
        None => errors.push("deterministic object missing".to_string()),
        Some(det) => validate_metric_block(det, "deterministic", false, &mut errors),
    }
    match doc.get("overlay") {
        None => errors.push("overlay key missing (null it for the stable form)".to_string()),
        // Stable renderings drop the wall-clock overlay entirely.
        Some(Json::Null) => {}
        Some(overlay) => validate_metric_block(overlay, "overlay", true, &mut errors),
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates one telemetry metric block (`deterministic` or `overlay`).
/// Only the overlay may carry gauges and spans — the deterministic core
/// holds counters and histograms alone.
fn validate_metric_block(block: &Json, at: &str, overlay: bool, errors: &mut Vec<String>) {
    match block.get("counters").and_then(Json::as_arr) {
        None => errors.push(format!("{at}.counters must be an array")),
        Some(counters) => {
            for (i, c) in counters.iter().enumerate() {
                if c.get("name")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errors.push(format!(
                        "{at}.counters[{i}].name must be a non-empty string"
                    ));
                }
                if c.get("value").and_then(Json::as_int).is_none_or(|v| v < 0) {
                    errors.push(format!(
                        "{at}.counters[{i}].value must be a non-negative integer"
                    ));
                }
            }
        }
    }
    match block.get("histograms").and_then(Json::as_arr) {
        None => errors.push(format!("{at}.histograms must be an array")),
        Some(hists) => {
            for (i, h) in hists.iter().enumerate() {
                let at = format!("{at}.histograms[{i}]");
                if h.get("name")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errors.push(format!("{at}.name must be a non-empty string"));
                }
                if h.get("count").and_then(Json::as_int).is_none_or(|v| v < 1) {
                    errors.push(format!(
                        "{at}.count must be a positive integer \
                         (untouched histograms are not emitted)"
                    ));
                }
                let mut num_of = |key: &str| -> f64 {
                    let v = h.get(key).and_then(Json::as_num);
                    if v.is_none() {
                        errors.push(format!("{at}.{key} must be a number"));
                    }
                    v.unwrap_or(0.0)
                };
                let min = num_of("min");
                let p50 = num_of("p50");
                let p90 = num_of("p90");
                let p99 = num_of("p99");
                let max = num_of("max");
                if !(min <= p50 && p50 <= p90 && p90 <= p99 && p99 <= max) {
                    errors.push(format!(
                        "{at} percentiles must be ordered (min <= p50 <= p90 <= p99 <= max)"
                    ));
                }
            }
        }
    }
    if !overlay {
        for key in ["gauges", "spans"] {
            if block.get(key).is_some() {
                errors.push(format!(
                    "deterministic.{key} is not allowed — gauges and spans are \
                     wall-clock/scheduling state and belong to the overlay"
                ));
            }
        }
        return;
    }
    match block.get("gauges").and_then(Json::as_arr) {
        None => errors.push(format!("{at}.gauges must be an array")),
        Some(gauges) => {
            for (i, g) in gauges.iter().enumerate() {
                if g.get("name")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errors.push(format!("{at}.gauges[{i}].name must be a non-empty string"));
                }
                if g.get("value").and_then(Json::as_int).is_none_or(|v| v < 0) {
                    errors.push(format!(
                        "{at}.gauges[{i}].value must be a non-negative integer"
                    ));
                }
            }
        }
    }
    match block.get("spans").and_then(Json::as_arr) {
        None => errors.push(format!("{at}.spans must be an array")),
        Some(spans) => {
            for (i, s) in spans.iter().enumerate() {
                if s.get("name")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errors.push(format!("{at}.spans[{i}].name must be a non-empty string"));
                }
                if s.get("count").and_then(Json::as_int).is_none_or(|v| v < 1) {
                    errors.push(format!("{at}.spans[{i}].count must be a positive integer"));
                }
                if !s
                    .get("total_ms")
                    .and_then(Json::as_num)
                    .is_some_and(|v| v >= 0.0)
                {
                    errors.push(format!(
                        "{at}.spans[{i}].total_ms must be a non-negative number"
                    ));
                }
            }
        }
    }
}

/// Validates a serialized refinement report against schema v4 (the
/// `BENCH_refine.json` document written by `snsp-search` /
/// `snsp-experiments refine`).
///
/// Beyond structure, the algorithm's invariant is enforced: every result
/// row must declare `never_worse: true` — a refinement report
/// documenting a cost regression is invalid by definition — and the
/// mean refined cost may not exceed the mean starting cost.
///
/// Returns every violation found (empty ⇒ valid); a parse failure is a
/// single violation.
pub fn validate_refine_report(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let mut errors = Vec::new();
    check_kind(&doc, Some("refine"), &mut errors);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };

    check(
        doc.get("schema_version").and_then(Json::as_int) == Some(REFINE_SCHEMA_VERSION),
        "schema_version must be the integer 4",
    );
    check(
        doc.get("generator")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("snsp-search")),
        "generator must be an snsp-search version string",
    );
    check(
        doc.get("campaign")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()),
        "campaign must be a non-empty string",
    );

    let point_count = match doc.get("config") {
        None => {
            errors.push("config object missing".to_string());
            None
        }
        Some(config) => {
            if config.get("seeds").and_then(Json::as_int).unwrap_or(0) < 1 {
                errors.push("config.seeds must be a positive integer".to_string());
            }
            if config
                .get("driver")
                .and_then(Json::as_str)
                .is_none_or(str::is_empty)
            {
                errors.push("config.driver must be a non-empty string".to_string());
            }
            for key in ["max_evals", "top_k"] {
                if config.get(key).and_then(Json::as_int).unwrap_or(0) < 1 {
                    errors.push(format!("config.{key} must be a positive integer"));
                }
            }
            match config.get("points").and_then(Json::as_arr) {
                None => {
                    errors.push("config.points must be an array".to_string());
                    None
                }
                Some(points) => {
                    for (i, p) in points.iter().enumerate() {
                        if p.get("label").and_then(Json::as_str).is_none() {
                            errors.push(format!("config.points[{i}].label must be a string"));
                        }
                        if p.get("n_ops").and_then(Json::as_int).unwrap_or(0) < 1 {
                            errors.push(format!(
                                "config.points[{i}].n_ops must be a positive integer"
                            ));
                        }
                        if p.get("alpha").and_then(Json::as_num).is_none() {
                            errors.push(format!("config.points[{i}].alpha must be a number"));
                        }
                        if p.get("homogeneous").and_then(Json::as_bool).is_none() {
                            errors
                                .push(format!("config.points[{i}].homogeneous must be a boolean"));
                        }
                    }
                    Some(points.len())
                }
            }
        }
    };

    match doc.get("results").and_then(Json::as_arr) {
        None => errors.push("results must be an array".to_string()),
        Some(results) => {
            if let Some(n) = point_count {
                if results.len() != n {
                    errors.push(format!(
                        "results has {} entries but config.points has {n}",
                        results.len()
                    ));
                }
            }
            for (i, point) in results.iter().enumerate() {
                let at = format!("results[{i}]");
                if point.get("label").and_then(Json::as_str).is_none() {
                    errors.push(format!("{at}.label must be a string"));
                }
                let runs = point.get("runs").and_then(Json::as_int);
                let feasible = point.get("feasible").and_then(Json::as_int);
                if !matches!((runs, feasible), (Some(r), Some(f)) if (0..=r).contains(&f)) {
                    errors.push(format!("{at} needs integer runs >= feasible >= 0"));
                }
                let feasible = feasible.unwrap_or(0);
                let cost = |key: &str| point.get(key).and_then(Json::as_num);
                for key in ["mean_start_cost", "mean_refined_cost"] {
                    match point.get(key) {
                        Some(Json::Null) if feasible == 0 => {}
                        Some(Json::Num(_)) | Some(Json::Int(_)) if feasible > 0 => {}
                        _ => errors.push(format!(
                            "{at}.{key} must be a number iff feasible > 0 (else null)"
                        )),
                    }
                }
                if let (Some(start), Some(refined)) =
                    (cost("mean_start_cost"), cost("mean_refined_cost"))
                {
                    if refined > start + 1e-9 {
                        errors.push(format!("{at}: mean_refined_cost exceeds mean_start_cost"));
                    }
                }
                match point.get("improved").and_then(Json::as_int) {
                    Some(imp) if (0..=feasible).contains(&imp) => {}
                    _ => errors.push(format!("{at}.improved must be an integer in [0, feasible]")),
                }
                if point.get("never_worse").and_then(Json::as_bool) != Some(true) {
                    errors.push(format!("{at}.never_worse must be true"));
                }
                for key in ["mean_evals", "mean_accepted", "mean_lower_bound"] {
                    if !point
                        .get(key)
                        .and_then(Json::as_num)
                        .is_some_and(|v| v >= 0.0)
                    {
                        errors.push(format!("{at}.{key} must be a non-negative number"));
                    }
                }
                match point.get("exact") {
                    None => errors.push(format!("{at}.exact key missing")),
                    Some(Json::Null) => {}
                    Some(e) => {
                        let solved = e.get("solved").and_then(Json::as_int);
                        if solved.is_none_or(|s| s < 0) {
                            errors
                                .push(format!("{at}.exact.solved must be a non-negative integer"));
                        }
                        if e.get("optimal").and_then(Json::as_bool).is_none() {
                            errors.push(format!("{at}.exact.optimal must be a boolean"));
                        }
                        for key in ["mean_cost", "max_gap_pct"] {
                            match e.get(key) {
                                Some(Json::Null) | Some(Json::Num(_)) | Some(Json::Int(_)) => {}
                                _ => errors
                                    .push(format!("{at}.exact.{key} must be a number or null")),
                            }
                        }
                    }
                }
            }
        }
    }

    if let Some(timing) = doc.get("timing") {
        if timing.get("workers").and_then(Json::as_int).unwrap_or(0) < 1 {
            errors.push("timing.workers must be a positive integer".to_string());
        }
        for key in ["flatten_s", "run_s", "aggregate_s", "total_s"] {
            if !timing
                .get(key)
                .and_then(Json::as_num)
                .is_some_and(|v| v >= 0.0)
            {
                errors.push(format!("timing.{key} must be a non-negative number"));
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn validate_heur_row(row: &Json, i: usize, j: usize, errors: &mut Vec<String>) {
    let at = format!("results[{i}].heuristics[{j}]");
    if row.get("name").and_then(Json::as_str).is_none() {
        errors.push(format!("{at}.name must be a string"));
    }
    let runs = row.get("runs").and_then(Json::as_int);
    let feasible = row.get("feasible").and_then(Json::as_int);
    match (runs, feasible) {
        (Some(r), Some(f)) if (0..=r).contains(&f) => {
            let has_cost = !matches!(row.get("mean_cost"), Some(Json::Null) | None);
            if has_cost != (f > 0) {
                errors.push(format!("{at}.mean_cost must be present iff feasible > 0"));
            }
        }
        _ => errors.push(format!("{at} needs integer runs >= feasible >= 0")),
    }
    if !row
        .get("feasibility_pct")
        .and_then(Json::as_num)
        .is_some_and(|v| (0.0..=100.0).contains(&v))
    {
        errors.push(format!("{at}.feasibility_pct must be in [0, 100]"));
    }
    for key in ["mean_cost", "mean_procs"] {
        match row.get(key) {
            Some(Json::Null) | Some(Json::Num(_)) | Some(Json::Int(_)) => {}
            _ => errors.push(format!("{at}.{key} must be a number or null")),
        }
    }
}

fn validate_reference(reference: &Json, i: usize, errors: &mut Vec<String>) {
    let at = format!("results[{i}].reference");
    let runs = reference.get("runs").and_then(Json::as_int);
    let solved = reference.get("solved").and_then(Json::as_int);
    if !matches!((runs, solved), (Some(r), Some(s)) if (0..=r).contains(&s)) {
        errors.push(format!("{at} needs integer runs >= solved >= 0"));
    }
    if reference.get("optimal").and_then(Json::as_bool).is_none() {
        errors.push(format!("{at}.optimal must be a boolean"));
    }
    match reference.get("mean_cost") {
        Some(Json::Null) | Some(Json::Num(_)) | Some(Json::Int(_)) => {}
        _ => errors.push(format!("{at}.mean_cost must be a number or null")),
    }
}

/// Validates a serialized chaos campaign report against schema v6 (the
/// `BENCH_chaos.json` document written by `snsp-serve`'s fault-injection
/// campaigns; `kind: "chaos"`).
///
/// Beyond structure, this enforces the recovery *semantics* the chaos
/// tier promises: every drop retransmitted, every duplicate discarded,
/// every crash recovered, `crash_fingerprint_match` true wherever
/// crashes were scheduled, and zero invariant-audit failures.
///
/// Returns every violation found (empty ⇒ valid); a parse failure is a
/// single violation.
pub fn validate_chaos_report(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let mut errors = Vec::new();
    check_kind(&doc, Some("chaos"), &mut errors);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };

    check(
        doc.get("schema_version").and_then(Json::as_int) == Some(CHAOS_SCHEMA_VERSION),
        "schema_version must be the integer 6",
    );
    check(
        doc.get("generator")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("snsp-serve")),
        "generator must be an snsp-serve version string",
    );
    check(
        doc.get("campaign")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()),
        "campaign must be a non-empty string",
    );

    let point_count = match doc.get("config") {
        None => {
            errors.push("config object missing".to_string());
            None
        }
        Some(config) => {
            if config.get("seeds").and_then(Json::as_int).unwrap_or(0) < 1 {
                errors.push("config.seeds must be a positive integer".to_string());
            }
            if config.get("shards").and_then(Json::as_int).unwrap_or(0) < 1 {
                errors.push("config.shards must be a positive integer".to_string());
            }
            match config.get("points").and_then(Json::as_arr) {
                None => {
                    errors.push("config.points must be an array".to_string());
                    None
                }
                Some(points) => {
                    for (i, p) in points.iter().enumerate() {
                        if p.get("label").and_then(Json::as_str).is_none() {
                            errors.push(format!("config.points[{i}].label must be a string"));
                        }
                        for key in ["lambda", "mean_hold", "horizon"] {
                            if !p.get(key).and_then(Json::as_num).is_some_and(|v| v > 0.0) {
                                errors.push(format!(
                                    "config.points[{i}].{key} must be a positive number"
                                ));
                            }
                        }
                        match p.get("fault") {
                            None => {
                                errors.push(format!("config.points[{i}].fault object missing"));
                            }
                            Some(fault) => {
                                for key in [
                                    "crash_rate",
                                    "rack_rate",
                                    "msg_drop",
                                    "msg_dup",
                                    "msg_delay",
                                ] {
                                    if !fault
                                        .get(key)
                                        .and_then(Json::as_num)
                                        .is_some_and(|v| v >= 0.0)
                                    {
                                        errors.push(format!(
                                            "config.points[{i}].fault.{key} must be a \
                                             non-negative number"
                                        ));
                                    }
                                }
                                match fault.get("revoke") {
                                    None => errors.push(format!(
                                        "config.points[{i}].fault.revoke key missing"
                                    )),
                                    Some(Json::Null) => {}
                                    Some(r) => {
                                        for key in ["start", "end", "frac"] {
                                            if r.get(key).and_then(Json::as_num).is_none() {
                                                errors.push(format!(
                                                    "config.points[{i}].fault.revoke.{key} \
                                                     must be a number"
                                                ));
                                            }
                                        }
                                    }
                                }
                                if fault
                                    .get("retry")
                                    .and_then(|r| r.get("max_attempts"))
                                    .and_then(Json::as_int)
                                    .is_none()
                                {
                                    errors.push(format!(
                                        "config.points[{i}].fault.retry.max_attempts must be \
                                         an integer"
                                    ));
                                }
                            }
                        }
                    }
                    Some(points.len())
                }
            }
        }
    };

    match doc.get("results").and_then(Json::as_arr) {
        None => errors.push("results must be an array".to_string()),
        Some(results) => {
            if let Some(n) = point_count {
                if results.len() != n {
                    errors.push(format!(
                        "results has {} entries but config.points has {n}",
                        results.len()
                    ));
                }
            }
            for (i, point) in results.iter().enumerate() {
                let at = format!("results[{i}]");
                if point.get("label").and_then(Json::as_str).is_none() {
                    errors.push(format!("{at}.label must be a string"));
                }
                let mut int_of = |key: &str| -> Option<i64> {
                    let v = point.get(key).and_then(Json::as_int).filter(|&v| v >= 0);
                    if v.is_none() {
                        errors.push(format!("{at}.{key} must be a non-negative integer"));
                    }
                    v
                };
                let arrivals = int_of("arrivals");
                let admitted = int_of("admitted");
                let rejected = int_of("rejected");
                let crashes = int_of("crashes");
                let recoveries = int_of("recoveries");
                let dropped = int_of("msgs_dropped");
                let retransmitted = int_of("msgs_retransmitted");
                let duplicated = int_of("msgs_duplicated");
                let discarded = int_of("dups_discarded");
                let audit_failures = int_of("audit_failures");
                for key in [
                    "traces",
                    "departed",
                    "evicted",
                    "failures",
                    "faults_injected",
                    "rack_failures",
                    "revocations",
                    "msgs_delayed",
                    "retry_enqueued",
                    "readmitted",
                    "retry_dropped",
                    "shed",
                ] {
                    int_of(key);
                }
                if let (Some(a), Some(ad), Some(r)) = (arrivals, admitted, rejected) {
                    if ad + r != a {
                        errors.push(format!("{at}: admitted + rejected must equal arrivals"));
                    }
                }
                if let (Some(c), Some(r)) = (crashes, recoveries) {
                    if c != r {
                        errors.push(format!(
                            "{at}: every crash must recover (crashes == recoveries)"
                        ));
                    }
                }
                if let (Some(d), Some(r)) = (dropped, retransmitted) {
                    if d != r {
                        errors.push(format!(
                            "{at}: every dropped message must be retransmitted \
                             (msgs_dropped == msgs_retransmitted)"
                        ));
                    }
                }
                if let (Some(d), Some(x)) = (duplicated, discarded) {
                    if d != x {
                        errors.push(format!(
                            "{at}: every duplicated message must be discarded \
                             (msgs_duplicated == dups_discarded)"
                        ));
                    }
                }
                if audit_failures.is_some_and(|v| v != 0) {
                    errors.push(format!(
                        "{at}.audit_failures must be 0 — a platform invariant broke under faults"
                    ));
                }
                for (key, lo, hi) in [("admission_rate", 0.0, 1.0), ("readmission_rate", 0.0, 1.0)]
                {
                    if !point
                        .get(key)
                        .and_then(Json::as_num)
                        .is_some_and(|v| (lo..=hi).contains(&v))
                    {
                        errors.push(format!("{at}.{key} must be a number in [{lo}, {hi}]"));
                    }
                }
                match point.get("crash_fingerprint_match") {
                    // Null ⇒ no crashes were scheduled at this point.
                    Some(Json::Null) => {
                        if crashes.is_some_and(|c| c > 0) {
                            errors.push(format!(
                                "{at}.crash_fingerprint_match must not be null when crashes > 0"
                            ));
                        }
                    }
                    Some(Json::Bool(true)) => {}
                    Some(Json::Bool(false)) => errors.push(format!(
                        "{at}.crash_fingerprint_match is false — a crash recovery diverged \
                         from the uninterrupted replay"
                    )),
                    _ => errors.push(format!(
                        "{at}.crash_fingerprint_match must be a boolean or null"
                    )),
                }
                if !point
                    .get("mean_final_cost")
                    .and_then(Json::as_num)
                    .is_some_and(|v| v >= 0.0)
                {
                    errors.push(format!(
                        "{at}.mean_final_cost must be a non-negative number"
                    ));
                }
                if point
                    .get("log_hash")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errors.push(format!("{at}.log_hash must be a non-empty string"));
                }
            }
        }
    }

    if let Some(timing) = doc.get("timing") {
        if timing.get("workers").and_then(Json::as_int).unwrap_or(0) < 1 {
            errors.push("timing.workers must be a positive integer".to_string());
        }
        for key in ["flatten_s", "run_s", "aggregate_s", "total_s"] {
            if !timing
                .get(key)
                .and_then(Json::as_num)
                .is_some_and(|v| v >= 0.0)
            {
                errors.push(format!("timing.{key} must be a non-negative number"));
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

/// Validates a serialized trace report (`TRACE.json`) against schema v7
/// (the deterministic event stream written by
/// `snsp-experiments --trace-out`).
///
/// Beyond structure, the stream's ordering invariant is enforced: the
/// `(run, tick, shard, seq)` stamps must be lexicographically
/// non-decreasing — the canonical sort every exporter applies, and the
/// property that makes two trace files byte-comparable.
///
/// Returns every violation found (empty ⇒ valid); a parse failure is a
/// single violation.
pub fn validate_trace_report(text: &str) -> Result<(), Vec<String>> {
    let doc = match parse(text) {
        Ok(doc) => doc,
        Err(e) => return Err(vec![format!("not JSON: {e}")]),
    };
    let mut errors = Vec::new();
    check_kind(&doc, Some("trace"), &mut errors);
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };

    check(
        doc.get("schema_version").and_then(Json::as_int) == Some(TRACE_SCHEMA_VERSION),
        "schema_version must be the integer 7",
    );
    check(
        doc.get("generator")
            .and_then(Json::as_str)
            .is_some_and(|s| s.starts_with("snsp-")),
        "generator must be an snsp tool version string",
    );
    check(
        doc.get("campaign")
            .and_then(Json::as_str)
            .is_some_and(|s| !s.is_empty()),
        "campaign must be a non-empty string",
    );
    check(
        doc.get("dropped")
            .and_then(Json::as_int)
            .is_some_and(|v| v >= 0),
        "dropped must be a non-negative integer",
    );

    match doc.get("det_events").and_then(Json::as_arr) {
        None => errors.push("det_events must be an array".to_string()),
        Some(events) => {
            let mut prev: Option<(i64, i64, i64, i64)> = None;
            for (i, ev) in events.iter().enumerate() {
                let at = format!("det_events[{i}]");
                let mut int_of = |key: &str| -> i64 {
                    let v = ev.get(key).and_then(Json::as_int).filter(|&v| v >= 0);
                    if v.is_none() {
                        errors.push(format!("{at}.{key} must be a non-negative integer"));
                    }
                    v.unwrap_or(0)
                };
                let stamp = (
                    int_of("run"),
                    int_of("tick"),
                    int_of("shard"),
                    int_of("seq"),
                );
                if ev
                    .get("event")
                    .and_then(Json::as_str)
                    .is_none_or(str::is_empty)
                {
                    errors.push(format!("{at}.event must be a non-empty string"));
                }
                if ev.get("detail").and_then(Json::as_str).is_none() {
                    errors.push(format!("{at}.detail must be a string (may be empty)"));
                }
                if prev.is_some_and(|p| stamp < p) {
                    errors.push(format!(
                        "{at}: (run, tick, shard, seq) must be non-decreasing \
                         (the canonical deterministic sort)"
                    ));
                }
                prev = Some(stamp);
            }
        }
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, Campaign, PointSpec, ReferenceConfig};
    use snsp_gen::ScenarioParams;

    fn rendered(include_timing: bool) -> String {
        let campaign = Campaign::new(
            "schema-test",
            vec![
                PointSpec::new("8", ScenarioParams::paper(8, 0.9)),
                PointSpec::new("12", ScenarioParams::paper(12, 1.3)),
            ],
            2,
        )
        .with_reference(ReferenceConfig {
            max_ops: 10,
            node_budget: 100_000,
            workers: 1,
        })
        .with_workers(2);
        run_campaign(&campaign).render_json(include_timing)
    }

    #[test]
    fn real_reports_validate() {
        validate_report(&rendered(true)).expect("timed report validates");
        validate_report(&rendered(false)).expect("stable report validates");
    }

    #[test]
    fn non_json_is_one_violation() {
        let errors = validate_report("{oops").unwrap_err();
        assert_eq!(errors.len(), 1);
        assert!(errors[0].starts_with("not JSON"));
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let text = rendered(false).replace("\"schema_version\": 1", "\"schema_version\": 2");
        let errors = validate_report(&text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
    }

    #[test]
    fn missing_results_is_rejected() {
        let text = "{\"schema_version\": 1, \"generator\": \"snsp-sweep 0\", \
                    \"campaign\": \"x\"}";
        let errors = validate_report(text).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("config")));
        assert!(errors.iter().any(|e| e.contains("results")));
    }

    /// A minimal well-formed serve document (what `snsp-serve` renders;
    /// kept in sync by snsp-serve's own round-trip tests).
    /// A legacy v2 document (pre-sharding: no `config.shards`, no
    /// `admit_latency` rows) — must stay readable forever.
    fn serve_doc_v2() -> String {
        serve_doc()
            .replace("\"schema_version\": 3", "\"schema_version\": 2")
            .replace("    \"shards\": 4,\n", "")
            .replace(
                "      \"admit_latency\": {\"samples\": 18, \"p50_us\": 850.0, \
                 \"p99_us\": 2300.0, \"max_us\": 2400.0},\n",
                "",
            )
    }

    fn serve_doc() -> String {
        r#"{
  "schema_version": 3,
  "generator": "snsp-serve 0.1.0",
  "kind": "serve",
  "campaign": "unit",
  "config": {
    "seeds": 2,
    "slo_frac": 0.95,
    "shards": 4,
    "points": [
      {
        "label": "poisson",
        "lambda": 0.5,
        "mean_hold": 4.0,
        "pareto_shape": 2.5,
        "horizon": 40.0,
        "fail_rate": 0.1,
        "n_ops": [8, 20],
        "alpha": [0.9, 1.2],
        "rho": [0.5, 1.5],
        "burst": {"period": 10.0, "width": 2.0, "multiplier": 4.0}
      }
    ]
  },
  "results": [
    {
      "label": "poisson",
      "traces": 2,
      "arrivals": 20,
      "admitted": 18,
      "rejected": 2,
      "departed": 12,
      "evicted": 1,
      "failures": 3,
      "admission_rate": 0.9,
      "mean_cost_integral": 301920.0,
      "mean_utilization": 0.42,
      "mean_final_cost": 15096.0,
      "peak_procs": 6,
      "slo_checks": 18,
      "slo_violations": 0,
      "admit_latency": {"samples": 18, "p50_us": 850.0, "p99_us": 2300.0, "max_us": 2400.0},
      "log_hash": "9f3cafc4"
    }
  ]
}"#
        .to_string()
    }

    #[test]
    fn serve_schema_accepts_well_formed_documents() {
        validate_serve_report(&serve_doc()).expect("serve v3 doc validates");
    }

    #[test]
    fn serve_schema_keeps_v2_documents_readable() {
        let v2 = serve_doc_v2();
        assert!(v2.contains("\"schema_version\": 2"), "substitution applied");
        assert!(!v2.contains("shards"), "substitution applied");
        assert!(!v2.contains("admit_latency"), "substitution applied");
        validate_serve_report(&v2).expect("legacy v2 doc validates");
    }

    #[test]
    fn serve_v3_requires_the_new_columns() {
        // A v3 stamp without the v3 fields is invalid...
        let broken = serve_doc_v2().replace("\"schema_version\": 2", "\"schema_version\": 3");
        let errors = validate_serve_report(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("config.shards")));
        assert!(errors.iter().any(|e| e.contains("admit_latency")));
        // ...but a stable rendering may null the wall-clock column.
        let stable = serve_doc().replace(
            "{\"samples\": 18, \"p50_us\": 850.0, \"p99_us\": 2300.0, \"max_us\": 2400.0}",
            "null",
        );
        validate_serve_report(&stable).expect("null admit_latency is the stable form");
        // Percentiles must be ordered.
        let unordered = serve_doc().replace("\"p99_us\": 2300.0", "\"p99_us\": 9300.0");
        let errors = validate_serve_report(&unordered).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("ordered")), "{errors:?}");
        // Versions past the current one are rejected.
        let future = serve_doc().replace("\"schema_version\": 3", "\"schema_version\": 4");
        let errors = validate_serve_report(&future).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
    }

    #[test]
    fn serve_schema_rejects_v1_and_broken_documents() {
        // A campaign (v1) report is not a serve report.
        let errors = validate_serve_report(&rendered(false)).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        assert!(errors.iter().any(|e| e.contains("kind")));
        // Admissions must reconcile with arrivals.
        let broken = serve_doc().replace("\"admitted\": 18", "\"admitted\": 19");
        let errors = validate_serve_report(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("admitted + rejected")));
        // A missing burst key (as opposed to an explicit null) is flagged.
        let broken = serve_doc().replace(
            "\"burst\": {\"period\": 10.0, \"width\": 2.0, \"multiplier\": 4.0}\n",
            "\"unrelated\": 1\n",
        );
        let errors = validate_serve_report(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("burst")), "{errors:?}");
    }

    /// A minimal well-formed perf document (what `snsp-experiments perf`
    /// renders; kept in sync by that crate's own round-trip test).
    fn perf_doc() -> String {
        r#"{
  "schema_version": 4,
  "generator": "snsp-experiments 0.1.0",
  "kind": "perf",
  "campaign": "perf-ci",
  "config": {
    "seeds": 2,
    "points": [
      {"label": "140", "n_ops": 140, "alpha": 0.9}
    ],
    "bb_points": [
      {"label": "hom-16", "n_ops": 16, "alpha": 0.9, "homogeneous": true, "node_budget": 500000}
    ],
    "probe_n_ops": 500
  },
  "results": {
    "heuristics": [
      {
        "label": "140",
        "rows": [
          {
            "name": "Subtree-Bottom-Up",
            "runs": 2,
            "feasible": 2,
            "incremental_ms": 0.08,
            "oracle_ms": 0.12,
            "speedup": 1.5,
            "costs_match": true
          }
        ]
      }
    ],
    "bb": [
      {
        "label": "hom-16",
        "incremental": {"nodes": 17, "ms": 0.02, "nodes_per_sec": 850000.0},
        "reference": {"nodes": 170, "ms": 0.2, "nodes_per_sec": 850000.0},
        "wall_speedup": 10.0,
        "node_ratio": 10.0,
        "costs_match": true
      }
    ],
    "demand_probe": {
      "probes": 499,
      "incremental_ms": 0.05,
      "oracle_ms": 5.0,
      "speedup": 100.0,
      "accepted_match": true
    },
    "peak_rss_kb": 14336
  }
}"#
        .to_string()
    }

    #[test]
    fn perf_schema_accepts_well_formed_documents() {
        validate_perf_report(&perf_doc()).expect("perf doc validates");
    }

    #[test]
    fn perf_schema_rejects_divergence_and_other_kinds() {
        // A v1 campaign report is not a perf report.
        let errors = validate_perf_report(&rendered(false)).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        assert!(errors.iter().any(|e| e.contains("kind")));
        // An engine divergence invalidates the document outright.
        let broken = perf_doc().replacen("\"costs_match\": true", "\"costs_match\": false", 1);
        let errors = validate_perf_report(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("costs_match")),
            "{errors:?}"
        );
        // Zero or negative speedups are structural nonsense.
        let broken = perf_doc().replace("\"speedup\": 100.0", "\"speedup\": 0.0");
        let errors = validate_perf_report(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("speedup")), "{errors:?}");
        // A missing probe block is flagged.
        let broken = perf_doc().replace("\"demand_probe\"", "\"unrelated\"");
        let errors = validate_perf_report(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("demand_probe")),
            "{errors:?}"
        );
    }

    #[test]
    fn perf_v4_requires_the_rss_column_but_tolerates_null() {
        // v3 documents (no peak_rss_kb) no longer validate...
        let v3 = perf_doc()
            .replace("\"schema_version\": 4", "\"schema_version\": 3")
            .replace(",\n    \"peak_rss_kb\": 14336", "");
        let errors = validate_perf_report(&v3).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        assert!(errors.iter().any(|e| e.contains("peak_rss_kb")));
        // ...but a platform without /proc may null the gauge.
        let nulled = perf_doc().replace("\"peak_rss_kb\": 14336", "\"peak_rss_kb\": null");
        validate_perf_report(&nulled).expect("null RSS is the no-procfs form");
        // Negative high-water marks are nonsense.
        let broken = perf_doc().replace("\"peak_rss_kb\": 14336", "\"peak_rss_kb\": -1");
        let errors = validate_perf_report(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("peak_rss_kb")),
            "{errors:?}"
        );
    }

    /// A minimal well-formed telemetry document (what `snsp-experiments
    /// --telemetry-out` renders; kept in sync by that crate's tests).
    fn telemetry_doc() -> String {
        r#"{
  "schema_version": 5,
  "generator": "snsp-experiments 0.1.0",
  "kind": "telemetry",
  "campaign": "serve sharded-ci",
  "deterministic": {
    "counters": [
      {"name": "serve.admitted", "value": 42},
      {"name": "serve.departed", "value": 42}
    ],
    "histograms": [
      {"name": "serve.shard.admitted", "count": 4, "min": 8.0, "p50": 10.0, "p90": 12.0, "p99": 12.0, "max": 12.0}
    ]
  },
  "overlay": {
    "counters": [
      {"name": "pool.steals", "value": 7}
    ],
    "histograms": [
      {"name": "serve.admit.latency_us", "count": 42, "min": 120.0, "p50": 850.0, "p90": 1900.0, "p99": 2300.0, "max": 2400.0}
    ],
    "gauges": [
      {"name": "serve.peak_rss_kb", "value": 14336}
    ],
    "spans": [
      {"name": "pool.busy", "count": 4, "total_ms": 12.5}
    ]
  }
}"#
        .to_string()
    }

    #[test]
    fn telemetry_schema_accepts_well_formed_documents() {
        validate_telemetry_report(&telemetry_doc()).expect("telemetry doc validates");
        // The stable form nulls the whole wall-clock overlay.
        let (head, _) = telemetry_doc()
            .split_once("\"overlay\"")
            .map(|(h, t)| (h.to_string(), t.to_string()))
            .unwrap();
        let stable = format!("{head}\"overlay\": null\n}}");
        validate_telemetry_report(&stable).expect("null overlay is the stable form");
    }

    #[test]
    fn telemetry_schema_rejects_misfiled_metrics_and_cross_kinds() {
        // Wall-clock state may not masquerade as deterministic: a span
        // or gauge array inside the deterministic core is an error.
        let broken = telemetry_doc().replace(
            "\"deterministic\": {\n    \"counters\"",
            "\"deterministic\": {\n    \"spans\": [],\n    \"counters\"",
        );
        let errors = validate_telemetry_report(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("deterministic.spans")),
            "{errors:?}"
        );
        // Percentiles must be ordered.
        let broken = telemetry_doc().replace("\"p50\": 850.0", "\"p50\": 9850.0");
        let errors = validate_telemetry_report(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("ordered")), "{errors:?}");
        // Other kinds are rejected by name, and vice versa.
        let errors = validate_telemetry_report(&perf_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("expected \"telemetry\"") && e.contains("found \"perf\"")),
            "{errors:?}"
        );
        let telemetry = telemetry_doc();
        assert!(validate_report(&telemetry).is_err());
        assert!(validate_serve_report(&telemetry).is_err());
        assert!(validate_perf_report(&telemetry).is_err());
        assert!(validate_refine_report(&telemetry).is_err());
    }

    /// A minimal well-formed refine document (what `snsp-search`
    /// renders; kept in sync by that crate's own round-trip tests).
    fn refine_doc() -> String {
        r#"{
  "schema_version": 4,
  "generator": "snsp-search 0.1.0",
  "kind": "refine",
  "campaign": "refine-ci",
  "config": {
    "seeds": 2,
    "driver": "first-improvement",
    "max_evals": 4096,
    "top_k": 3,
    "points": [
      {"label": "hom N=8", "n_ops": 8, "alpha": 0.9, "homogeneous": true},
      {"label": "het N=30", "n_ops": 30, "alpha": 0.9, "homogeneous": false}
    ]
  },
  "results": [
    {
      "label": "hom N=8",
      "runs": 2,
      "feasible": 2,
      "mean_start_cost": 16982.0,
      "mean_refined_cost": 15096.0,
      "improved": 1,
      "never_worse": true,
      "mean_evals": 120.0,
      "mean_accepted": 2.5,
      "exact": {"solved": 2, "optimal": true, "mean_cost": 15096.0, "max_gap_pct": 0.0},
      "mean_lower_bound": 7548.0
    },
    {
      "label": "het N=30",
      "runs": 2,
      "feasible": 2,
      "mean_start_cost": 30192.0,
      "mean_refined_cost": 28306.0,
      "improved": 2,
      "never_worse": true,
      "mean_evals": 800.0,
      "mean_accepted": 4.0,
      "exact": null,
      "mean_lower_bound": 15096.0
    }
  ]
}"#
        .to_string()
    }

    #[test]
    fn refine_schema_accepts_well_formed_documents() {
        validate_refine_report(&refine_doc()).expect("refine doc validates");
    }

    #[test]
    fn refine_schema_rejects_regressions_and_cross_kind_files() {
        // A v1 campaign report is not a refine report.
        let errors = validate_refine_report(&rendered(false)).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("schema_version")));
        assert!(errors.iter().any(|e| e.contains("kind")));
        // Nor are serve (v2) and perf (v3) documents.
        let errors = validate_refine_report(&serve_doc()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("kind")), "{errors:?}");
        let errors = validate_refine_report(&perf_doc()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("kind")), "{errors:?}");
        // A cost regression invalidates the document outright.
        let broken = refine_doc().replacen("\"never_worse\": true", "\"never_worse\": false", 1);
        let errors = validate_refine_report(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("never_worse")),
            "{errors:?}"
        );
        // So does a refined mean above the starting mean.
        let broken = refine_doc().replace(
            "\"mean_refined_cost\": 15096.0",
            "\"mean_refined_cost\": 17000.0",
        );
        let errors = validate_refine_report(&broken).unwrap_err();
        assert!(
            errors.iter().any(|e| e.contains("exceeds mean_start_cost")),
            "{errors:?}"
        );
        // A missing exact key (as opposed to an explicit null) is flagged.
        let broken = refine_doc().replacen("\"exact\": null", "\"unrelated\": null", 1);
        let errors = validate_refine_report(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("exact")), "{errors:?}");
        // `improved` cannot exceed `feasible`.
        let broken = refine_doc().replacen("\"improved\": 1", "\"improved\": 3", 1);
        let errors = validate_refine_report(&broken).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("improved")), "{errors:?}");
    }

    #[test]
    fn other_validators_reject_refine_documents() {
        // Cross-kind sniffing must fail loudly in every direction.
        let refine = refine_doc();
        assert!(validate_report(&refine).is_err());
        assert!(validate_serve_report(&refine).is_err());
        assert!(validate_perf_report(&refine).is_err());
    }

    #[test]
    fn cross_kind_errors_name_expected_and_found_kinds() {
        // Wrong-validator mistakes must read as "wrong file": the error
        // names the kind the validator wanted AND the kind it found.
        let errors = validate_serve_report(&refine_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("expected \"serve\"") && e.contains("found \"refine\"")),
            "{errors:?}"
        );
        let errors = validate_refine_report(&perf_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("expected \"refine\"") && e.contains("found \"perf\"")),
            "{errors:?}"
        );
        // The kindless v1 validator names the found kind too, and points
        // at the right validator.
        let errors = validate_report(&serve_doc()).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("found kind \"serve\"") && e.contains("kindless")),
            "{errors:?}"
        );
        // A kinded validator fed a kindless document says what kindless
        // documents are, instead of a bare rejection.
        let errors = validate_perf_report(&rendered(false)).unwrap_err();
        assert!(
            errors
                .iter()
                .any(|e| e.contains("\"perf\"") && e.contains("schema-v1")),
            "{errors:?}"
        );
    }

    #[test]
    fn feasible_without_cost_is_rejected() {
        let text = rendered(false);
        // Break one heuristic row: claim feasibility but null the cost.
        let broken = text.replacen("\"mean_cost\": 1", "\"mean_cost\": null, \"x\": 1", 1);
        if broken != text {
            let errors = validate_report(&broken).unwrap_err();
            assert!(errors.iter().any(|e| e.contains("mean_cost")), "{errors:?}");
        }
    }
}
