//! Timeline export for the causal trace layer: the deterministic
//! `TRACE.json` artifact (schema v7) and the Chrome/Perfetto
//! `trace_event` timeline.
//!
//! Two files, two contracts:
//!
//! * [`trace_json`] renders the **Det-class event stream only** —
//!   `(run, tick, shard, seq)`-stamped, canonically sorted, crash
//!   re-replay duplicates collapsed — so the file is **byte-identical
//!   at any worker count** and can be `cmp`'d or
//!   [`diff`](crate::diff)'d across runs. Validated against
//!   [`ArtifactKind::Trace`].
//! * [`chrome_trace_json`] renders *everything* (overlay events and the
//!   optional wall-clock stamps included) in the Chrome `trace_event`
//!   array format: one process per run, one thread lane per shard,
//!   complete (`"X"`) spans for ticks, instant (`"i"`) events for
//!   admissions, folds and faults. Load it at `chrome://tracing` or
//!   <https://ui.perfetto.dev>. Wall-clock timelines are never stable;
//!   when the wall overlay was off, events are laid out on a synthetic
//!   equal-spacing clock so the causal order still reads left-to-right.

use snsp_telemetry::trace::{TraceEvent, TraceEventKind, TraceSnapshot};
use snsp_telemetry::Class;

use crate::json::Json;
use crate::schema::ArtifactKind;

/// Renders the deterministic `TRACE.json` document (schema v7) from a
/// merged trace snapshot: Det events only, in canonical order, with the
/// ring-overflow count surfaced (`dropped > 0` voids cross-worker-count
/// byte-identity, and CI asserts it is zero).
pub fn trace_json(snap: &TraceSnapshot, campaign: &str) -> Json {
    let det = snap.det_events();
    let mut pairs = ArtifactKind::Trace.header();
    pairs.extend([
        ("campaign", Json::Str(campaign.to_string())),
        ("dropped", Json::Int(snap.dropped as i64)),
        (
            "det_events",
            Json::Arr(
                det.iter()
                    .map(|ev| {
                        let (label, detail) = ev.kind.describe();
                        Json::obj(vec![
                            ("run", Json::Int(ev.run as i64)),
                            ("tick", Json::Int(ev.time.tick as i64)),
                            ("shard", Json::Int(ev.time.shard as i64)),
                            ("seq", Json::Int(ev.time.seq as i64)),
                            ("event", Json::Str(label.to_string())),
                            ("detail", Json::Str(detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Json::obj(pairs)
}

/// The synthetic-clock spacing (microseconds) between consecutive
/// events when the wall overlay was not recorded.
const SYNTHETIC_STEP_US: f64 = 10.0;

/// The `tid` of the coordinator lane carrying tick spans (shard lanes
/// use the shard index; `u32` shard stamps never reach this value).
const COORDINATOR_TID: i64 = 1_000_000;

/// Renders the full event stream (Det + overlay) as a Chrome
/// `trace_event` JSON document. Events with a wall-clock stamp use it;
/// otherwise each event advances a synthetic clock by a fixed step,
/// preserving the canonical order visually.
/// Tick spans (`TickStart`..`TickEnd`, per run) become complete `"X"`
/// events on the run's coordinator lane; everything else is an instant.
pub fn chrome_trace_json(snap: &TraceSnapshot) -> Json {
    let wall = snap.events.iter().any(|e| e.wall_us > 0.0);
    let ts_of = |ev: &TraceEvent, ix: usize| -> f64 {
        if wall {
            ev.wall_us
        } else {
            ix as f64 * SYNTHETIC_STEP_US
        }
    };
    let mut out: Vec<Json> = Vec::new();
    // Open tick spans per run: run -> (tick, start ts).
    let mut open: Vec<(u64, u64, f64)> = Vec::new();
    for (ix, ev) in snap.events.iter().enumerate() {
        let ts = ts_of(ev, ix);
        match ev.kind {
            TraceEventKind::TickStart { .. } => {
                open.retain(|&(r, _, _)| r != ev.run);
                open.push((ev.run, ev.time.tick, ts));
            }
            TraceEventKind::TickEnd => {
                if let Some(pos) = open.iter().position(|&(r, _, _)| r == ev.run) {
                    let (run, tick, start) = open.remove(pos);
                    out.push(chrome_event(
                        &format!("tick {tick}"),
                        "X",
                        start,
                        Some((ts - start).max(SYNTHETIC_STEP_US)),
                        run,
                        COORDINATOR_TID,
                        String::new(),
                    ));
                }
            }
            _ => {
                let (label, detail) = ev.kind.describe();
                let tid = match ev.class {
                    Class::Det => ev.time.shard as i64,
                    // Overlay lanes (steals, splits): keep them off the
                    // shard lanes so the Det timeline stays readable.
                    Class::Overlay => COORDINATOR_TID + 1 + ev.time.shard as i64,
                };
                out.push(chrome_event(label, "i", ts, None, ev.run, tid, detail));
            }
        }
    }
    // A crash mid-run can leave a tick span open; close it at the end.
    for &(run, tick, start) in &open {
        out.push(chrome_event(
            &format!("tick {tick} (unclosed)"),
            "X",
            start,
            Some(SYNTHETIC_STEP_US),
            run,
            COORDINATOR_TID,
            String::new(),
        ));
    }
    Json::obj(vec![
        ("traceEvents", Json::Arr(out)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

fn chrome_event(
    name: &str,
    ph: &str,
    ts: f64,
    dur: Option<f64>,
    pid: u64,
    tid: i64,
    detail: String,
) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str(ph.to_string())),
        ("ts", Json::Num(ts)),
    ];
    if let Some(d) = dur {
        pairs.push(("dur", Json::Num(d)));
    }
    if ph == "i" {
        // Thread-scoped instants render as small arrows on their lane.
        pairs.push(("s", Json::Str("t".to_string())));
    }
    pairs.push(("pid", Json::Int(pid as i64)));
    pairs.push(("tid", Json::Int(tid)));
    if !detail.is_empty() {
        pairs.push(("args", Json::obj(vec![("detail", Json::Str(detail))])));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snsp_telemetry::trace::{LogicalTime, TraceEventKind};

    fn sample_snapshot() -> TraceSnapshot {
        let mk = |run, tick, shard, seq, class, kind| TraceEvent {
            run,
            time: LogicalTime { tick, shard, seq },
            class,
            kind,
            wall_us: 0.0,
        };
        TraceSnapshot {
            events: vec![
                mk(
                    3,
                    1,
                    0,
                    0,
                    Class::Det,
                    TraceEventKind::TickStart { events: 2 },
                ),
                mk(
                    3,
                    1,
                    0,
                    0,
                    Class::Det,
                    TraceEventKind::Admit {
                        tenant: 5,
                        new_procs: 2,
                        reused_procs: 0,
                    },
                ),
                mk(
                    3,
                    1,
                    1,
                    0,
                    Class::Overlay,
                    TraceEventKind::Steal { worker: 1 },
                ),
                mk(
                    3,
                    1,
                    u32::MAX,
                    u32::MAX,
                    Class::Det,
                    TraceEventKind::TickEnd,
                ),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn trace_json_round_trips_through_the_validator() {
        let doc = trace_json(&sample_snapshot(), "unit");
        ArtifactKind::Trace
            .validate(&doc.render())
            .expect("valid v7 document");
        // Det events only: the overlay steal is excluded.
        let events = doc.get("det_events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn chrome_export_pairs_tick_spans() {
        let doc = chrome_trace_json(&sample_snapshot());
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(spans.len(), 1, "one tick span");
        assert!(spans[0].get("dur").and_then(Json::as_num).unwrap() > 0.0);
        let instants = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .count();
        assert_eq!(instants, 2, "admit + steal");
    }

    #[test]
    fn unclosed_tick_spans_are_flushed() {
        let mut snap = sample_snapshot();
        snap.events.pop(); // drop the TickEnd
        let doc = chrome_trace_json(&snap);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert!(events.iter().any(|e| {
            e.get("name")
                .and_then(Json::as_str)
                .is_some_and(|n| n.contains("unclosed"))
        }));
    }
}
