//! Integration tests for the run-diff regression sentinel: the
//! committed report artifacts must self-diff clean, a deterministic
//! column injection must be flagged as a regression, and wall-clock
//! drift must stay on the informational side of the gate.

use snsp::sweep::{diff_reports, DiffKind, DiffOptions};

fn committed(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed artifact {} unreadable: {e}", path.display()))
}

/// Every committed artifact is its own baseline: zero regressions,
/// zero informational drift.
#[test]
fn committed_artifacts_self_diff_clean() {
    for name in [
        "BENCH_serve.json",
        "BENCH_chaos.json",
        "BENCH_perf.json",
        "BENCH_refine.json",
        "TELEMETRY.json",
    ] {
        let body = committed(name);
        let report = diff_reports(&body, &body, DiffOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(report.clean(), "{name}: {}", report.render_table());
        assert!(
            report.informational.is_empty(),
            "{name} self-diff must not even drift"
        );
        assert!(report.compared > 10, "{name}: diff walked the document");
    }
}

/// Injecting a change into a deterministic column of the committed
/// serve report must trip the sentinel — this is the exact negative
/// check CI runs against a perturbed copy.
#[test]
fn injected_det_column_regression_is_flagged() {
    let body = committed("BENCH_serve.json");
    let needle = "\"admitted\": ";
    let at = body
        .find(needle)
        .expect("serve report has admission counts");
    let (head, tail) = body.split_at(at + needle.len());
    let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
    let bumped: u64 = digits.parse::<u64>().expect("integer column") + 1;
    let perturbed = format!("{head}{bumped}{}", &tail[digits.len()..]);
    let report = diff_reports(&body, &perturbed, DiffOptions::default()).expect("same kind");
    assert!(!report.clean(), "perturbed det column must be a regression");
    assert!(
        report
            .regressions
            .iter()
            .any(|e| e.path.contains("admitted")),
        "{}",
        report.render_table()
    );
    assert!(report.render_table().contains("REGRESSION"));
}

/// Replaces the scalar value of `key`'s first occurrence.
fn with_value(body: &str, key: &str, replacement: &str) -> String {
    let needle = format!("\"{key}\": ");
    let at = body.find(&needle).expect("key present in artifact") + needle.len();
    let end = at + body[at..].find([',', '\n']).expect("value terminated");
    format!("{}{replacement}{}", &body[..at], &body[end..])
}

/// Wall-clock columns never gate by default, and a tolerance turns
/// outsized drift into a failure while forgiving noise. The committed
/// serve artifact is the timed form, so its own timing block is the
/// fixture.
#[test]
fn timing_columns_are_toleranced_not_strict() {
    let body = committed("BENCH_serve.json");
    let drifted = with_value(&body, "total_s", "9.5");
    assert_ne!(body, drifted);
    let report = diff_reports(&body, &drifted, DiffOptions::default()).expect("same kind");
    assert!(report.clean(), "untoleranced timing drift is informational");
    assert_eq!(report.informational.len(), 1);
    let tight = DiffOptions {
        timing_tolerance: Some(0.5),
    };
    let report = diff_reports(&body, &drifted, tight).expect("same kind");
    assert!(
        !report.clean(),
        "outsized drift must breach a 50% tolerance"
    );
    // The stable-vs-timed form split (value nulled on one side) never
    // gates, even with a tolerance configured.
    let stable = with_value(&body, "run_s", "null");
    let report = diff_reports(&body, &stable, tight).expect("same kind");
    assert!(report.clean(), "null-vs-value on timing is the form split");
}

/// The field table, not the key name, decides a column's class: a
/// deterministic column whose key merely ends in `_s` (here one the serve
/// table does not declare) gates strictly.
#[test]
fn det_column_named_like_a_timing_column_is_strict() {
    let body = committed("BENCH_serve.json");
    let with = |v: &str| {
        let column = format!("\"drain_s\": {v},\n      \"traces\": ");
        body.replacen("\"traces\": ", &column, 1)
    };
    let report =
        diff_reports(&with("1.0"), &with("2.0"), DiffOptions::default()).expect("same kind");
    assert!(
        report
            .regressions
            .iter()
            .any(|e| e.path == "results[0].drain_s" && e.kind == DiffKind::Strict),
        "{}",
        report.render_table()
    );
}

/// Wall-clock columns the table declares as timing are informational
/// whatever their key name: the perf B&B `ms` and `nodes_per_sec`.
#[test]
fn perf_wall_clock_columns_are_informational() {
    let body = committed("BENCH_perf.json");
    let drifted = with_value(&with_value(&body, "ms", "999.0"), "nodes_per_sec", "1.0");
    let report = diff_reports(&body, &drifted, DiffOptions::default()).expect("same kind");
    assert!(report.clean(), "{}", report.render_table());
    let paths: Vec<&str> = report
        .informational
        .iter()
        .map(|e| e.path.as_str())
        .collect();
    assert_eq!(
        paths,
        [
            "results.bb[0].incremental.ms",
            "results.bb[0].incremental.nodes_per_sec"
        ]
    );
}

/// Cross-kind comparisons refuse instead of reporting nonsense.
#[test]
fn cross_kind_diffs_are_refused() {
    let serve = committed("BENCH_serve.json");
    let telemetry = committed("TELEMETRY.json");
    let err = diff_reports(&serve, &telemetry, DiffOptions::default()).unwrap_err();
    assert!(err[0].contains("kind mismatch"), "{err:?}");
}
