//! `TELEMETRY.json` (schema v5) emission and the human-readable
//! `telemetry-summary` tables.
//!
//! The document splits a [`Snapshot`] by [`Class`]:
//!
//! * `deterministic` — `Class::Det` counters and histograms. Counter
//!   sums commute and histograms sort their sample multiset before
//!   summarizing, so this block is byte-identical at any worker count
//!   and safe to diff in CI.
//! * `overlay` — everything scheduling- or wall-clock-dependent:
//!   `Class::Overlay` counters/histograms, every gauge and every span.
//!   `--stable-json` nulls the whole block.

use snsp_sweep::{ArtifactKind, Json};
use snsp_telemetry::{Class, HistogramSnap, Snapshot};

use crate::table::Table;

/// Serializes a snapshot as a schema-v5 telemetry document.
/// `stable` nulls the wall-clock overlay so the rendering is
/// byte-identical at any worker count.
pub fn telemetry_json(snap: &Snapshot, campaign: &str, stable: bool) -> Json {
    let counters = |class: Class| -> Json {
        Json::Arr(
            snap.counters
                .iter()
                .filter(|c| c.class == class)
                .map(|c| {
                    Json::obj(vec![
                        ("name", Json::Str(c.name.to_string())),
                        ("value", Json::Int(c.value as i64)),
                    ])
                })
                .collect(),
        )
    };
    let histograms = |class: Class| -> Json {
        Json::Arr(
            snap.histograms
                .iter()
                .filter(|h| h.class == class && h.count > 0)
                .map(histogram_json)
                .collect(),
        )
    };
    let overlay = if stable {
        Json::Null
    } else {
        Json::obj(vec![
            ("counters", counters(Class::Overlay)),
            ("histograms", histograms(Class::Overlay)),
            (
                "gauges",
                Json::Arr(
                    snap.gauges
                        .iter()
                        .map(|g| {
                            Json::obj(vec![
                                ("name", Json::Str(g.name.to_string())),
                                ("value", Json::Int(g.value as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Arr(
                    snap.spans
                        .iter()
                        .filter(|s| s.count > 0)
                        .map(|s| {
                            Json::obj(vec![
                                ("name", Json::Str(s.name.to_string())),
                                ("count", Json::Int(s.count as i64)),
                                ("total_ms", Json::Num(s.total_ms)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    };
    let mut pairs = ArtifactKind::Telemetry.header();
    pairs.extend([
        ("campaign", Json::Str(campaign.to_string())),
        (
            "deterministic",
            Json::obj(vec![
                ("counters", counters(Class::Det)),
                ("histograms", histograms(Class::Det)),
            ]),
        ),
        ("overlay", overlay),
    ]);
    Json::obj(pairs)
}

fn histogram_json(h: &HistogramSnap) -> Json {
    Json::obj(vec![
        ("name", Json::Str(h.name.to_string())),
        ("count", Json::Int(h.count as i64)),
        ("min", Json::Num(h.min)),
        ("p50", Json::Num(h.p50)),
        ("p90", Json::Num(h.p90)),
        ("p99", Json::Num(h.p99)),
        ("max", Json::Num(h.max)),
    ])
}

/// The subsystem prefix of a dotted metric name (`serve.admitted` →
/// `serve`), used to group the summary tables.
fn subsystem(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Renders a parsed telemetry document as human-readable tables: one
/// counter table per block (grouped by subsystem prefix), one histogram
/// table per block, plus gauges and spans for the overlay.
pub fn summary_tables(doc: &Json) -> Vec<Table> {
    let campaign = doc
        .get("campaign")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let mut tables = Vec::new();
    for (block, title) in [
        ("deterministic", "deterministic core"),
        ("overlay", "wall-clock overlay"),
    ] {
        let Some(section) = doc.get(block) else {
            continue;
        };
        if matches!(section, Json::Null) {
            // Stable renderings drop the overlay; say so rather than
            // silently omitting the table.
            let mut t = Table::new(
                format!("telemetry {campaign} — {title}"),
                &["subsystem", "metric", "value"],
            );
            t.push(vec![
                "-".into(),
                "(stable form: overlay nulled)".into(),
                "-".into(),
            ]);
            tables.push(t);
            continue;
        }
        if let Some(counters) = section.get("counters").and_then(Json::as_arr) {
            let mut t = Table::new(
                format!("telemetry {campaign} — {title}: counters"),
                &["subsystem", "counter", "value"],
            );
            for c in counters {
                let name = c.get("name").and_then(Json::as_str).unwrap_or("?");
                let value = c.get("value").and_then(Json::as_int).unwrap_or(0);
                t.push(vec![
                    subsystem(name).to_string(),
                    name.to_string(),
                    value.to_string(),
                ]);
            }
            if !t.rows.is_empty() {
                tables.push(t);
            }
        }
        if let Some(hists) = section.get("histograms").and_then(Json::as_arr) {
            let mut t = Table::new(
                format!("telemetry {campaign} — {title}: histograms (nearest-rank)"),
                &["histogram", "count", "min", "p50", "p90", "p99", "max"],
            );
            for h in hists {
                let num = |key: &str| h.get(key).and_then(Json::as_num).unwrap_or(0.0);
                t.push(vec![
                    h.get("name").and_then(Json::as_str).unwrap_or("?").into(),
                    h.get("count")
                        .and_then(Json::as_int)
                        .unwrap_or(0)
                        .to_string(),
                    format!("{:.1}", num("min")),
                    format!("{:.1}", num("p50")),
                    format!("{:.1}", num("p90")),
                    format!("{:.1}", num("p99")),
                    format!("{:.1}", num("max")),
                ]);
            }
            if !t.rows.is_empty() {
                tables.push(t);
            }
        }
        if let Some(gauges) = section.get("gauges").and_then(Json::as_arr) {
            let mut t = Table::new(
                format!("telemetry {campaign} — {title}: gauges (high-water marks)"),
                &["gauge", "value"],
            );
            for g in gauges {
                t.push(vec![
                    g.get("name").and_then(Json::as_str).unwrap_or("?").into(),
                    g.get("value")
                        .and_then(Json::as_int)
                        .unwrap_or(0)
                        .to_string(),
                ]);
            }
            if !t.rows.is_empty() {
                tables.push(t);
            }
        }
        if let Some(spans) = section.get("spans").and_then(Json::as_arr) {
            let mut t = Table::new(
                format!("telemetry {campaign} — {title}: spans"),
                &["span", "count", "total ms", "mean ms"],
            );
            for s in spans {
                let count = s.get("count").and_then(Json::as_int).unwrap_or(0);
                let total = s.get("total_ms").and_then(Json::as_num).unwrap_or(0.0);
                t.push(vec![
                    s.get("name").and_then(Json::as_str).unwrap_or("?").into(),
                    count.to_string(),
                    format!("{total:.2}"),
                    format!("{:.3}", total / count.max(1) as f64),
                ]);
            }
            if !t.rows.is_empty() {
                tables.push(t);
            }
        }
    }
    tables.push(pool_stats_table(campaign, doc.get("overlay")));
    tables
}

/// The executor-pool roll-up (the pool's `PoolStats` mirrored through
/// its overlay metrics). Always printed — an uncontended run shows
/// explicit zeros rather than silently missing rows, and the stable
/// form (overlay nulled) shows `-` so the reader knows the numbers were
/// dropped, not zero.
fn pool_stats_table(campaign: &str, overlay: Option<&Json>) -> Table {
    let overlay = overlay.filter(|o| !matches!(o, Json::Null));
    let lookup = |section: &str, name: &str| -> String {
        match overlay {
            None => "-".to_string(),
            Some(o) => o
                .get(section)
                .and_then(Json::as_arr)
                .and_then(|entries| {
                    entries
                        .iter()
                        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                })
                .and_then(|e| e.get("value").and_then(Json::as_int))
                .unwrap_or(0)
                .to_string(),
        }
    };
    let mut t = Table::new(
        format!("telemetry {campaign} — executor pool (PoolStats)"),
        &["metric", "value"],
    );
    for name in ["pool.steals", "pool.donations", "pool.panics"] {
        t.push(vec![name.to_string(), lookup("counters", name)]);
    }
    t.push(vec![
        "pool.peak_queue_depth".to_string(),
        lookup("gauges", "pool.peak_queue_depth"),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use snsp_telemetry::{Class, Counter, Histogram};

    static T_DET: Counter = Counter::new("exp.det_events", Class::Det);
    static T_OVER: Counter = Counter::new("exp.over_events", Class::Overlay);
    static T_HIST: Histogram = Histogram::new("exp.costs", Class::Det);

    #[test]
    fn captured_snapshots_render_valid_v5_documents() {
        let (_, snap) = snsp_telemetry::capture(|| {
            T_DET.add(3);
            T_OVER.incr();
            T_HIST.record(7.0);
            T_HIST.record(5.0);
        });
        for stable in [false, true] {
            let body = telemetry_json(&snap, "unit", stable).render();
            ArtifactKind::Telemetry
                .validate(&body)
                .expect("rendered document validates");
            assert_eq!(body.contains("exp.over_events"), !stable);
            assert!(body.contains("exp.det_events"));
        }
    }

    #[test]
    fn summary_tables_cover_both_blocks() {
        let (_, snap) = snsp_telemetry::capture(|| {
            T_DET.add(2);
            T_OVER.incr();
            T_HIST.record(1.0);
        });
        let doc = telemetry_json(&snap, "unit", false);
        let tables = summary_tables(&doc);
        let titles: Vec<&str> = tables.iter().map(|t| t.title.as_str()).collect();
        assert!(titles.iter().any(|t| t.contains("deterministic core")));
        assert!(titles.iter().any(|t| t.contains("wall-clock overlay")));
        // The stable form names the nulled overlay instead of dropping it.
        let stable = telemetry_json(&snap, "unit", true);
        let tables = summary_tables(&stable);
        assert!(tables.iter().any(|t| t
            .rows
            .iter()
            .flatten()
            .any(|c| c.contains("overlay nulled"))));
    }

    #[test]
    fn pool_stats_table_always_prints() {
        let (_, snap) = snsp_telemetry::capture(|| {
            T_DET.incr();
        });
        // No pool metrics recorded: the roll-up still prints, with zeros.
        let doc = telemetry_json(&snap, "unit", false);
        let tables = summary_tables(&doc);
        let pool = tables
            .iter()
            .find(|t| t.title.contains("executor pool"))
            .expect("pool table present");
        assert!(pool
            .rows
            .iter()
            .any(|r| r[0] == "pool.steals" && r[1] == "0"));
        assert!(pool
            .rows
            .iter()
            .any(|r| r[0] == "pool.panics" && r[1] == "0"));
        // Stable form nulls the overlay: the numbers become `-`.
        let stable = telemetry_json(&snap, "unit", true);
        let tables = summary_tables(&stable);
        let pool = tables
            .iter()
            .find(|t| t.title.contains("executor pool"))
            .expect("pool table present in stable form");
        assert!(pool.rows.iter().all(|r| r[1] == "-"));
    }
}
