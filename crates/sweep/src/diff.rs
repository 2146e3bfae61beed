//! Structural run-to-run comparison of report artifacts — the
//! regression sentinel behind `snsp-experiments report diff`.
//!
//! A byte-for-byte `cmp` of two `BENCH_*.json` files breaks the moment
//! any wall-clock column moves, so CI could only ever gate *stable*
//! renderings. This module compares two same-kind documents
//! **structurally** instead, and takes each value's class from the
//! kind's field table ([`schema`](crate::schema)):
//!
//! * **Deterministic values are strict** — any type or value mismatch,
//!   missing key, or array-length change is a regression. A path the
//!   table does not declare is deterministic too.
//! * **Wall-clock/RSS values are toleranced** — compared against a
//!   configurable relative threshold; absent a threshold they are
//!   informational only. A `null`-vs-value difference on such a path is
//!   the stable-vs-timed rendering split and is never a finding.
//! * **Identity metadata is informational** — `generator`,
//!   `schema_version` and worker counts may differ between runs; when the
//!   schema versions differ, missing keys degrade to informational too,
//!   so an old artifact can be diffed against a new one without drowning
//!   in structure noise.
//!
//! The result is a [`DiffReport`]: regressions (fail the build),
//! informational drifts (print and move on), and a human-readable
//! table. Works on every artifact kind.

use crate::json::{parse, Json};
use crate::schema::{join, ArtifactKind, Class};

/// Options for [`diff_reports`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DiffOptions {
    /// Relative tolerance for wall-clock/RSS columns (e.g. `0.25` =
    /// ±25%). `None` makes toleranced columns informational only.
    pub timing_tolerance: Option<f64>,
}

/// Why a difference was classified the way it was.
#[derive(Debug, Clone, PartialEq)]
pub enum DiffKind {
    /// Deterministic column mismatch — always a regression.
    Strict,
    /// Toleranced column moved beyond the configured threshold.
    ToleranceBreach {
        /// The observed relative change (|b−a| / max(|a|, ε)).
        rel: f64,
    },
    /// Informational drift (timing column within/without threshold,
    /// identity metadata, cross-version structure).
    Info,
}

/// One observed difference between the two documents.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Dotted path of the differing value (`results[3].mean_cost`).
    pub path: String,
    /// Rendered value in the first document (`-` when absent).
    pub a: String,
    /// Rendered value in the second document (`-` when absent).
    pub b: String,
    /// Classification.
    pub kind: DiffKind,
}

/// Outcome of a structural diff.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// The shared `kind` discriminator (`"sweep"` for kindless v1).
    pub kind: String,
    /// Leaf values compared.
    pub compared: usize,
    /// Differences that must fail the build.
    pub regressions: Vec<DiffEntry>,
    /// Differences worth printing but not failing on.
    pub informational: Vec<DiffEntry>,
}

impl DiffReport {
    /// `true` when no regressions were found (informational drift is
    /// still allowed).
    pub fn clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// The human-readable regression table: a one-line verdict followed
    /// by one row per difference, regressions first.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "report diff: kind \"{}\", {} values compared, {} regression(s), {} informational\n",
            self.kind,
            self.compared,
            self.regressions.len(),
            self.informational.len()
        );
        for e in &self.regressions {
            let tag = match e.kind {
                DiffKind::ToleranceBreach { rel } => {
                    format!("TOLERANCE({:+.1}%)", rel * 100.0)
                }
                _ => "REGRESSION".to_string(),
            };
            out.push_str(&format!("  {tag:<18} {}: {} -> {}\n", e.path, e.a, e.b));
        }
        for e in &self.informational {
            out.push_str(&format!(
                "  {:<18} {}: {} -> {}\n",
                "info", e.path, e.a, e.b
            ));
        }
        out
    }
}

/// Structurally compares two same-kind report documents. Returns the
/// classified differences, or the parse/kind errors that prevented a
/// comparison.
pub fn diff_reports(a: &str, b: &str, opts: DiffOptions) -> Result<DiffReport, Vec<String>> {
    let a = parse(a).map_err(|e| vec![format!("first document is not JSON: {e}")])?;
    let b = parse(b).map_err(|e| vec![format!("second document is not JSON: {e}")])?;
    let kind = ArtifactKind::of(&a).map_err(|e| vec![format!("first document: {e}")])?;
    let kind_b = ArtifactKind::of(&b).map_err(|e| vec![format!("second document: {e}")])?;
    if kind != kind_b {
        return Err(vec![format!(
            "kind mismatch: cannot diff a \"{}\" report against a \"{}\" report",
            kind.name(),
            kind_b.name()
        )]);
    }
    let cross_version = a.get("schema_version").and_then(Json::as_int)
        != b.get("schema_version").and_then(Json::as_int);
    let mut cx = DiffCx {
        kind,
        opts,
        cross_version,
        compared: 0,
        regressions: Vec::new(),
        informational: Vec::new(),
    };
    cx.walk("", "", &a, &b);
    Ok(DiffReport {
        kind: kind.name().to_string(),
        compared: cx.compared,
        regressions: cx.regressions,
        informational: cx.informational,
    })
}

struct DiffCx {
    kind: ArtifactKind,
    opts: DiffOptions,
    cross_version: bool,
    compared: usize,
    regressions: Vec<DiffEntry>,
    informational: Vec<DiffEntry>,
}

impl DiffCx {
    fn push(&mut self, path: &str, a: String, b: String, kind: DiffKind) {
        let entry = DiffEntry {
            path: path.to_string(),
            a,
            b,
            kind,
        };
        match entry.kind {
            DiffKind::Info => self.informational.push(entry),
            _ => self.regressions.push(entry),
        }
    }

    /// A key present on one side only: strict on deterministic paths of
    /// same-version documents, informational otherwise.
    fn missing(&mut self, path: &str, pattern: &str, present_in_a: bool, value: &Json) {
        let kind = if self.cross_version || self.kind.class_of(pattern) != Class::Det {
            DiffKind::Info
        } else {
            DiffKind::Strict
        };
        let (v, absent) = (render_leaf(value), "-".to_string());
        let (a, b) = if present_in_a {
            (v, absent)
        } else {
            (absent, v)
        };
        self.push(path, a, b, kind);
    }

    /// Compares the values at concrete `path`, whose table pattern is
    /// `pattern` (`results[3].label` ↔ `results[].label`).
    fn walk(&mut self, path: &str, pattern: &str, a: &Json, b: &Json) {
        match (a, b) {
            (Json::Obj(pa), Json::Obj(pb)) => {
                for (k, va) in pa {
                    let (sub, sub_pattern) = (join(path, k), join(pattern, k));
                    match b.get(k) {
                        Some(vb) => self.walk(&sub, &sub_pattern, va, vb),
                        None => self.missing(&sub, &sub_pattern, true, va),
                    }
                }
                for (k, vb) in pb {
                    if a.get(k).is_none() {
                        self.missing(&join(path, k), &join(pattern, k), false, vb);
                    }
                }
            }
            (Json::Arr(xa), Json::Arr(xb)) => {
                if xa.len() != xb.len() {
                    let kind = match self.kind.class_of(pattern) {
                        Class::Det => DiffKind::Strict,
                        _ => DiffKind::Info,
                    };
                    let (la, lb) = (xa.len().to_string(), xb.len().to_string());
                    self.push(&format!("{path}.len()"), la, lb, kind);
                }
                let items = format!("{pattern}[]");
                for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                    self.walk(&format!("{path}[{i}]"), &items, va, vb);
                }
            }
            _ => self.leaf(path, pattern, a, b),
        }
    }

    fn leaf(&mut self, path: &str, pattern: &str, a: &Json, b: &Json) {
        self.compared += 1;
        let class = self.kind.class_of(pattern);
        let kind = match (class, a.as_num(), b.as_num()) {
            (Class::Timing, Some(na), Some(nb)) => {
                if na == nb {
                    return;
                }
                let rel = (nb - na) / na.abs().max(1e-9);
                match self.opts.timing_tolerance {
                    Some(tol) if rel.abs() > tol => DiffKind::ToleranceBreach { rel },
                    _ => DiffKind::Info,
                }
            }
            _ if render_leaf(a) == render_leaf(b) => return,
            // The stable rendering nulls wall-clock values; a
            // null-vs-value pair is the two forms, not a drift.
            (Class::Timing, ..) if *a == Json::Null || *b == Json::Null => DiffKind::Info,
            (Class::Meta, ..) => DiffKind::Info,
            _ => DiffKind::Strict,
        };
        self.push(path, render_leaf(a), render_leaf(b), kind);
    }
}

/// Renders one scalar the way the document does (so `5` and `5.0`
/// stay distinguishable, matching the serializer's int/float split).
fn render_leaf(v: &Json) -> String {
    let mut s = v.render();
    if s.ends_with('\n') {
        s.pop();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(mean: f64, total_s: f64) -> String {
        Json::obj(vec![
            ("schema_version", Json::Int(1)),
            ("generator", Json::Str("snsp-sweep 0.1.0".to_string())),
            ("campaign", Json::Str("unit".to_string())),
            (
                "results",
                Json::Arr(vec![Json::obj(vec![
                    ("label", Json::Str("8".to_string())),
                    ("mean_cost", Json::Num(mean)),
                    ("admit_p50_us", Json::Num(850.0)),
                ])]),
            ),
            (
                "timing",
                Json::obj(vec![
                    ("workers", Json::Int(4)),
                    ("total_s", Json::Num(total_s)),
                ]),
            ),
        ])
        .render()
    }

    #[test]
    fn self_diff_is_clean() {
        let d = doc(7548.5, 1.25);
        let report = diff_reports(&d, &d, DiffOptions::default()).unwrap();
        assert!(report.clean());
        assert!(report.informational.is_empty());
        assert!(report.compared > 0);
    }

    #[test]
    fn det_column_change_is_a_regression() {
        let report = diff_reports(
            &doc(7548.5, 1.25),
            &doc(7600.0, 1.25),
            DiffOptions::default(),
        )
        .unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].path.contains("mean_cost"));
        assert!(report.render_table().contains("REGRESSION"));
    }

    #[test]
    fn timing_drift_is_informational_without_a_threshold() {
        let report = diff_reports(
            &doc(7548.5, 1.25),
            &doc(7548.5, 9.0),
            DiffOptions::default(),
        )
        .unwrap();
        assert!(report.clean());
        assert_eq!(report.informational.len(), 1);
    }

    #[test]
    fn timing_drift_breaches_a_tight_threshold() {
        let opts = DiffOptions {
            timing_tolerance: Some(0.10),
        };
        let report = diff_reports(&doc(7548.5, 1.0), &doc(7548.5, 2.0), opts).unwrap();
        assert_eq!(report.regressions.len(), 1);
        assert!(matches!(
            report.regressions[0].kind,
            DiffKind::ToleranceBreach { .. }
        ));
        // Within threshold stays informational.
        let report = diff_reports(&doc(7548.5, 1.0), &doc(7548.5, 1.05), opts).unwrap();
        assert!(report.clean());
    }

    #[test]
    fn null_vs_value_on_timing_is_the_stable_form_split() {
        let stable = doc(7548.5, 1.0).replace("\"total_s\": 1.0", "\"total_s\": null");
        let report = diff_reports(&stable, &doc(7548.5, 1.0), DiffOptions::default()).unwrap();
        assert!(report.clean());
    }

    #[test]
    fn kind_mismatch_refuses_to_diff() {
        let serve = doc(1.0, 1.0).replace(
            "\"campaign\": \"unit\"",
            "\"kind\": \"serve\", \"campaign\": \"unit\"",
        );
        let err = diff_reports(&doc(1.0, 1.0), &serve, DiffOptions::default()).unwrap_err();
        assert!(err[0].contains("kind mismatch"));
    }

    #[test]
    fn missing_key_is_strict_same_version_info_across_versions() {
        let trimmed = doc(7548.5, 1.0).replace("    \"label\": \"8\",\n", "");
        let report = diff_reports(&doc(7548.5, 1.0), &trimmed, DiffOptions::default()).unwrap();
        assert!(!report.clean());
        let v2 = trimmed.replace("\"schema_version\": 1", "\"schema_version\": 2");
        let report = diff_reports(&doc(7548.5, 1.0), &v2, DiffOptions::default()).unwrap();
        assert!(report.clean(), "{}", report.render_table());
    }

    #[test]
    fn array_length_change_is_strict() {
        let a = doc(7548.5, 1.0);
        let b = a.replace(
            "\"admit_p50_us\": 850.0\n    }",
            "\"admit_p50_us\": 850.0\n    }, {\"label\": \"9\", \"mean_cost\": 1.0, \
             \"admit_p50_us\": 1.0}",
        );
        let report = diff_reports(&a, &b, DiffOptions::default()).unwrap();
        assert!(!report.clean());
        assert!(report.regressions.iter().any(|e| e.path.contains("len()")));
    }
}
