//! Integration tests for the run-diff regression sentinel: the
//! committed report artifacts must self-diff clean, a deterministic
//! column injection must be flagged as a regression, and wall-clock
//! drift must stay on the informational side of the gate.

use snsp::sweep::{diff_reports, DiffEntry};

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
        "BENCH_refine.json",
        "TELEMETRY.json",
    ] {
        let body = committed(name);
        let report = diff_reports(&body, &body).unwrap_or_else(|e| panic!("{name}: {e:?}"));
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
    let report = diff_reports(&body, &perturbed).expect("same kind");
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

/// Wall-clock columns never gate, however far they drift: perfbench,
/// not `report diff`, judges wall-clock time. The committed serve
/// artifact is the timed form, so its own timing block is the fixture.
#[test]
fn timing_columns_are_toleranced_not_strict() {
    let body = committed("BENCH_serve.json");
    let drifted = with_value(&body, "total_s", "9.5");
    assert_ne!(body, drifted);
    let report = diff_reports(&body, &drifted).expect("same kind");
    assert!(report.clean(), "timing drift is informational");
    assert_eq!(report.informational.len(), 1);
    // The stable-vs-timed form split (value nulled on one side) never
    // gates either.
    let stable = with_value(&body, "run_s", "null");
    let report = diff_reports(&body, &stable).expect("same kind");
    assert!(report.clean(), "null-vs-value on timing is the form split");
    assert_eq!(report.informational.len(), 1);
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
    let report = diff_reports(&with("1.0"), &with("2.0")).expect("same kind");
    assert!(
        report
            .regressions
            .iter()
            .any(|e| e.path == "results[0].drain_s"),
        "{}",
        report.render_table()
    );
}

/// The table path, not the key name, decides a column's class: the
/// telemetry overlay's counter `value` is wall-clock, so its drift is an
/// info row, while the same key in the deterministic core gates.
#[test]
fn telemetry_overlay_columns_are_informational() {
    let body = committed("TELEMETRY.json");
    let paths =
        |entries: &[DiffEntry]| -> Vec<String> { entries.iter().map(|e| e.path.clone()).collect() };
    let at = body
        .find("\"overlay\"")
        .expect("the committed file keeps its overlay");
    let (core, overlay) = body.split_at(at);
    let drifted = format!("{core}{}", with_value(overlay, "value", "999"));
    let report = diff_reports(&body, &drifted).expect("same kind");
    assert!(report.clean(), "{}", report.render_table());
    assert_eq!(paths(&report.informational), ["overlay.counters[0].value"]);
    let drifted = with_value(&body, "value", "999");
    let report = diff_reports(&body, &drifted).expect("same kind");
    assert_eq!(
        paths(&report.regressions),
        ["deterministic.counters[0].value"]
    );
    assert!(report.informational.is_empty(), "{}", report.render_table());
}

/// A new span whose name sorts first shifts every later span one index
/// along, so each `overlay.spans[i]` row differs; all of it is
/// wall-clock overlay, so the diff stays clean with info rows only.
#[test]
fn span_inserted_before_the_others_is_informational() {
    let body = committed("TELEMETRY.json");
    let needle = "\"spans\": [\n";
    let at = body.find(needle).expect("the committed overlay has spans") + needle.len();
    let span = "      {\n        \"name\": \"aaa.first\",\n        \"count\": 1,\n        \
                \"total_ms\": 0.5\n      },\n";
    let inserted = format!("{}{span}{}", &body[..at], &body[at..]);
    let report = diff_reports(&body, &inserted).expect("same kind");
    assert!(report.clean(), "{}", report.render_table());
    assert!(
        report
            .informational
            .iter()
            .any(|e| e.path == "overlay.spans[0].name"),
        "{}",
        report.render_table()
    );
    assert!(report
        .informational
        .iter()
        .any(|e| e.path == "overlay.spans.len()"));
}

/// Cross-kind comparisons refuse instead of reporting nonsense.
#[test]
fn cross_kind_diffs_are_refused() {
    let serve = committed("BENCH_serve.json");
    let telemetry = committed("TELEMETRY.json");
    let err = diff_reports(&serve, &telemetry).unwrap_err();
    assert!(err[0].contains("kind mismatch"), "{err:?}");
}
