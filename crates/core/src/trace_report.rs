//! Sinks for collected trace data.
//!
//! A [`crate::campaign::Report`] produced by a campaign with
//! [`crate::campaign::Campaign::trace`] enabled carries the raw
//! [`musa_trace::TraceData`] out-of-band (it never appears in the text
//! or `musa.campaign.v1` outputs, preserving bit-identity with
//! trace-off runs). This module renders that data three ways:
//!
//! * [`trace_json`] — the `musa.trace.v1` document, emitted with the
//!   same hand-rolled [`crate::json`] writer every other schema uses,
//!   so it round-trips through [`crate::json::parse`].
//! * [`chrome_json`] — Chrome `trace_event`-format export (an object
//!   with a `traceEvents` array of `ph: "X"` complete events), loadable
//!   in Perfetto / `chrome://tracing`. Each distinct context path maps
//!   to its own track (`tid`).
//! * [`render_profile`] — the `--profile` text table: per-phase span
//!   count, *busy* (self) time, and a wall-scaled estimate whose column
//!   sums to the run's `wall_ms` even when phases overlapped across
//!   worker threads.
//!
//! [`validate_trace_document`] is the read side: it parses a
//! `musa.trace.v1` document and checks the required keys, and backs the
//! CI trace-smoke job.

use crate::campaign::Report;
use crate::json::{self, Json, JsonValue};
use musa_trace::{SpanRecord, TraceData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema tag of the trace document.
pub const TRACE_SCHEMA: &str = "musa.trace.v1";

// ---------------------------------------------------------------------
// musa.trace.v1
// ---------------------------------------------------------------------

/// Renders the report's trace as a `musa.trace.v1` document, or `None`
/// if the campaign ran without tracing.
pub fn trace_json(report: &Report) -> Option<String> {
    trace_json_with(report, false)
}

/// [`trace_json`] with an option to zero every time-dependent field
/// (`start_ns`, `dur_ns`, meta `wall_ms`). The golden structure test
/// uses this so the document is byte-stable across machines while still
/// pinning span names, paths, sequence numbers, and counters.
pub fn trace_json_with(report: &Report, normalize_times: bool) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let wall_ms = if normalize_times {
        0
    } else {
        report.wall.as_millis() as usize
    };
    let spans = trace
        .spans
        .iter()
        .map(|span| span_json(span, normalize_times))
        .collect();
    let counters = trace
        .counters
        .iter()
        .map(|&(name, value)| (name, Json::UInt(value)))
        .collect();
    Some(
        Json::Obj(vec![
            ("schema", Json::str(TRACE_SCHEMA)),
            (
                "meta",
                Json::Obj(vec![
                    ("task", Json::str(report.plan.task.slug())),
                    (
                        "benches",
                        Json::Arr(
                            report.plan.benches.iter().map(|b| Json::str(b.name())).collect(),
                        ),
                    ),
                    ("seed", Json::UInt(report.plan.config.seed)),
                    ("jobs", Json::count(report.plan.config.jobs)),
                    ("wall_ms", Json::count(wall_ms)),
                ]),
            ),
            ("spans", Json::Arr(spans)),
            ("counters", Json::Obj(counters)),
        ])
        .render(),
    )
}

fn span_json(span: &SpanRecord, normalize_times: bool) -> Json {
    let (start_ns, dur_ns) = if normalize_times {
        (0, 0)
    } else {
        (span.start_ns, span.dur_ns)
    };
    Json::Obj(vec![
        ("name", Json::str(span.name)),
        (
            "detail",
            span.detail.as_deref().map_or(Json::Null, Json::str),
        ),
        (
            "path",
            Json::Arr(span.path.iter().map(|&p| Json::count(p as usize)).collect()),
        ),
        ("seq", Json::count(span.seq as usize)),
        ("depth", Json::count(span.depth as usize)),
        (
            "parent_seq",
            Json::opt_count(span.parent.as_ref().map(|&(_, seq)| seq as usize)),
        ),
        ("start_ns", Json::UInt(start_ns)),
        ("dur_ns", Json::UInt(dur_ns)),
    ])
}

/// Parses a `musa.trace.v1` document and checks its required keys
/// (schema tag, meta, well-formed span records, counters object).
///
/// # Errors
///
/// Returns a human-readable description of the first problem found —
/// either a JSON parse error or a missing/mistyped key.
pub fn validate_trace_document(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(TRACE_SCHEMA) => {}
        Some(other) => return Err(format!("schema is {other:?}, expected {TRACE_SCHEMA:?}")),
        None => return Err("missing string key \"schema\"".into()),
    }
    let meta = doc.get("meta").ok_or("missing key \"meta\"")?;
    for key in ["task"] {
        if meta.get(key).and_then(JsonValue::as_str).is_none() {
            return Err(format!("meta is missing string key {key:?}"));
        }
    }
    for key in ["seed", "jobs", "wall_ms"] {
        if meta.get(key).and_then(JsonValue::as_u64).is_none() {
            return Err(format!("meta is missing integer key {key:?}"));
        }
    }
    let spans = doc
        .get("spans")
        .and_then(JsonValue::as_arr)
        .ok_or("missing array key \"spans\"")?;
    for (i, span) in spans.iter().enumerate() {
        if span.get("name").and_then(JsonValue::as_str).is_none() {
            return Err(format!("span {i} is missing string key \"name\""));
        }
        for key in ["seq", "depth", "start_ns", "dur_ns"] {
            if span.get(key).and_then(JsonValue::as_u64).is_none() {
                return Err(format!("span {i} is missing integer key {key:?}"));
            }
        }
        if span.get("path").and_then(JsonValue::as_arr).is_none() {
            return Err(format!("span {i} is missing array key \"path\""));
        }
    }
    match doc.get("counters") {
        Some(JsonValue::Obj(_)) => Ok(()),
        _ => Err("missing object key \"counters\"".into()),
    }
}

// ---------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------

/// Renders the report's trace in Chrome `trace_event` format (one
/// `ph: "X"` complete event per span, microsecond timestamps), or
/// `None` if the campaign ran without tracing.
///
/// Each distinct context path becomes its own track: `tid` is the
/// path's index in sorted path order, and a `thread_name` metadata
/// event labels the track with the path itself, so forked work lines up
/// as parallel lanes in Perfetto / `chrome://tracing`.
pub fn chrome_json(report: &Report) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let mut tids: BTreeMap<&[u32], usize> = BTreeMap::new();
    for span in &trace.spans {
        let next = tids.len();
        tids.entry(&span.path).or_insert(next);
    }
    let mut events = Vec::with_capacity(tids.len() + trace.spans.len() + 1);
    for (path, tid) in &tids {
        events.push(Json::Obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::count(1)),
            ("tid", Json::count(*tid)),
            (
                "args",
                Json::Obj(vec![("name", Json::str(path_label(path)))]),
            ),
        ]));
    }
    for span in &trace.spans {
        let name = match &span.detail {
            Some(detail) => format!("{} ({detail})", span.name),
            None => span.name.to_string(),
        };
        events.push(Json::Obj(vec![
            ("name", Json::str(name)),
            ("cat", Json::str("musa")),
            ("ph", Json::str("X")),
            ("ts", Json::Float(span.start_ns as f64 / 1000.0)),
            ("dur", Json::Float(span.dur_ns as f64 / 1000.0)),
            ("pid", Json::count(1)),
            ("tid", Json::count(tids[span.path.as_slice()])),
        ]));
    }
    for &(name, value) in &trace.counters {
        events.push(Json::Obj(vec![
            ("name", Json::str(name)),
            ("ph", Json::str("C")),
            ("ts", Json::Float(0.0)),
            ("pid", Json::count(1)),
            ("args", Json::Obj(vec![("total", Json::UInt(value))])),
        ]));
    }
    Some(Json::Obj(vec![("traceEvents", Json::Arr(events))]).render())
}

fn path_label(path: &[u32]) -> String {
    if path.is_empty() {
        return "root".to_string();
    }
    let mut label = String::from("fork");
    for pair in path.chunks(2) {
        // Paths grow by [fork_id, item_index] per nesting level; the
        // item index is the half a reader cares about.
        let _ = write!(label, " {}", pair.last().unwrap());
    }
    label
}

// ---------------------------------------------------------------------
// --profile table
// ---------------------------------------------------------------------

/// One aggregated row of the profile table.
struct PhaseRow {
    name: &'static str,
    count: u64,
    self_ns: u64,
}

/// Renders the `--profile` per-phase breakdown, or `None` if the
/// campaign ran without tracing.
///
/// `busy ms` is each phase's *self* time — span duration minus the
/// durations of its child spans (children in forked contexts are
/// attributed through their recorded parent key) — summed over every
/// span with that name across all worker threads. Busy time measures
/// thread-occupancy, so with `--jobs N` it can exceed wall time; the
/// `wall ms` column scales each phase's busy share to the run's
/// measured wall clock, which is why that column sums to `wall_ms`
/// (the property the acceptance check pins).
pub fn render_profile(report: &Report) -> Option<String> {
    let trace = report.trace.as_ref()?;
    Some(render_profile_data(trace, report.wall))
}

/// [`render_profile`] over raw trace data plus an externally measured
/// wall clock — for front ends (like the `musa` binary's non-campaign
/// subcommands) that host a [`musa_trace::Tracer`] themselves instead
/// of going through a [`crate::campaign::Campaign`].
pub fn render_profile_data(trace: &TraceData, wall: std::time::Duration) -> String {
    let wall_ms = wall.as_secs_f64() * 1e3;
    let rows = aggregate_self_time(trace);
    let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();

    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(["phase".len(), "total".len()])
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>7}  {:>10}  {:>6}  {:>9}",
        "phase", "count", "busy ms", "%", "wall ms"
    );
    for row in &rows {
        let busy_ms = row.self_ns as f64 / 1e6;
        let share = if total_self == 0 {
            0.0
        } else {
            row.self_ns as f64 / total_self as f64
        };
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>7}  {:>10.2}  {:>5.1}%  {:>9.1}",
            row.name,
            row.count,
            busy_ms,
            share * 100.0,
            share * wall_ms
        );
    }
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>7}  {:>10.2}  {:>5.1}%  {:>9.1}",
        "total",
        rows.iter().map(|r| r.count).sum::<u64>(),
        total_self as f64 / 1e6,
        100.0,
        wall_ms
    );
    if !trace.counters.is_empty() {
        let counter_w = trace
            .counters
            .iter()
            .map(|(name, _)| name.len())
            .chain(["counter".len()])
            .max()
            .unwrap_or(7);
        let _ = writeln!(out);
        let _ = writeln!(out, "{:<counter_w$}  {:>12}", "counter", "total");
        for &(name, value) in &trace.counters {
            let _ = writeln!(out, "{name:<counter_w$}  {value:>12}");
        }
    }
    out
}

/// Aggregates per-name span counts and self time (duration minus child
/// durations), sorted by self time descending then name.
fn aggregate_self_time(trace: &TraceData) -> Vec<PhaseRow> {
    // Key every span by (context path, seq) — unique by construction —
    // and charge each span's duration to the parent key it recorded,
    // however many fork levels up that parent sits.
    let mut child_ns: BTreeMap<(&[u32], u32), u64> = BTreeMap::new();
    for span in &trace.spans {
        if let Some((path, seq)) = &span.parent {
            *child_ns.entry((path.as_slice(), *seq)).or_insert(0) += span.dur_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, PhaseRow> = BTreeMap::new();
    for span in &trace.spans {
        let children = child_ns
            .get(&(span.path.as_slice(), span.seq))
            .copied()
            .unwrap_or(0);
        let row = by_name.entry(span.name).or_insert(PhaseRow {
            name: span.name,
            count: 0,
            self_ns: 0,
        });
        row.count += 1;
        // Children that ran in parallel can out-sum their parent's
        // wall duration; clamp so busy time never goes negative.
        row.self_ns += span.dur_ns.saturating_sub(children);
    }
    let mut rows: Vec<PhaseRow> = by_name.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, Report, ReportData, Task};
    use std::time::Duration;

    fn record(
        name: &'static str,
        path: &[u32],
        seq: u32,
        depth: u32,
        parent: Option<(&[u32], u32)>,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            detail: None,
            path: path.to_vec(),
            seq,
            depth,
            parent: parent.map(|(path, seq)| (path.to_vec(), seq)),
            start_ns,
            dur_ns,
        }
    }

    fn report_with(trace: TraceData) -> Report {
        Report {
            plan: Campaign::named("b01")
                .fast()
                .seed(7)
                .jobs(1)
                .task(Task::MutationGuided)
                .plan()
                .unwrap(),
            wall: Duration::from_millis(100),
            data: ReportData::MutationGuided(vec![]),
            trace: Some(trace),
        }
    }

    fn sample_trace() -> TraceData {
        TraceData {
            spans: vec![
                record("campaign", &[], 0, 0, None, 0, 100_000_000),
                record("bench", &[], 1, 1, Some((&[], 0)), 1_000, 90_000_000),
                // Two forked children of the bench span, overlapping in
                // time as parallel workers would.
                record("work", &[2, 0], 0, 0, Some((&[], 1)), 2_000, 60_000_000),
                record("work", &[2, 1], 0, 0, Some((&[], 1)), 2_000, 60_000_000),
            ],
            counters: vec![("lane_passes", 12), ("screened", 3)],
        }
    }

    #[test]
    fn trace_document_round_trips_and_validates() {
        let report = report_with(sample_trace());
        let text = trace_json(&report).unwrap();
        validate_trace_document(&text).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").and_then(JsonValue::as_str),
            Some(TRACE_SCHEMA)
        );
        assert_eq!(
            doc.get("spans").and_then(JsonValue::as_arr).unwrap().len(),
            4
        );
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("lane_passes").and_then(JsonValue::as_u64),
            Some(12)
        );
    }

    #[test]
    fn normalized_document_zeroes_every_clock_field() {
        let report = report_with(sample_trace());
        let text = trace_json_with(&report, true).unwrap();
        let doc = json::parse(&text).unwrap();
        assert_eq!(
            doc.get("meta")
                .and_then(|m| m.get("wall_ms"))
                .and_then(JsonValue::as_u64),
            Some(0)
        );
        for span in doc.get("spans").and_then(JsonValue::as_arr).unwrap() {
            assert_eq!(span.get("start_ns").and_then(JsonValue::as_u64), Some(0));
            assert_eq!(span.get("dur_ns").and_then(JsonValue::as_u64), Some(0));
        }
    }

    #[test]
    fn validator_rejects_wrong_schema_and_truncated_spans() {
        assert!(validate_trace_document("{}").is_err());
        assert!(validate_trace_document("not json").is_err());
        let wrong = "{\"schema\": \"musa.bench.v1\"}";
        assert!(validate_trace_document(wrong)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn chrome_export_assigns_one_tid_per_path() {
        let report = report_with(sample_trace());
        let text = chrome_json(&report).unwrap();
        let doc = json::parse(&text).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .unwrap();
        // 3 distinct paths ([], [2,0], [2,1]) → 3 thread_name metadata
        // events + 4 span events + 2 counter events.
        assert_eq!(events.len(), 9);
        let tids: Vec<u64> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .map(|e| e.get("tid").and_then(JsonValue::as_u64).unwrap())
            .collect();
        assert_eq!(tids, vec![0, 0, 1, 2]);
    }

    #[test]
    fn profile_self_time_subtracts_children_across_forks() {
        let report = report_with(sample_trace());
        let rows = aggregate_self_time(report.trace.as_ref().unwrap());
        let get = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        // campaign: 100ms minus its 90ms child.
        assert_eq!(get("campaign").self_ns, 10_000_000);
        // bench: 90ms minus 2×60ms of forked children, clamped at 0.
        assert_eq!(get("bench").self_ns, 0);
        // work: two leaves, 60ms each.
        assert_eq!(get("work").self_ns, 120_000_000);
        assert_eq!(get("work").count, 2);
    }

    #[test]
    fn profile_wall_column_sums_to_wall_ms() {
        let report = report_with(sample_trace());
        let table = render_profile(&report).unwrap();
        // The total row closes the phase table at exactly wall_ms.
        assert!(table.contains("total"), "{table}");
        let total_line = table
            .lines()
            .find(|l| l.starts_with("total"))
            .unwrap();
        assert!(total_line.trim_end().ends_with("100.0"), "{total_line}");
        assert!(table.contains("lane_passes"), "{table}");
    }

    #[test]
    fn every_sink_is_none_without_trace_data() {
        let mut report = report_with(TraceData::default());
        report.trace = None;
        assert!(trace_json(&report).is_none());
        assert!(chrome_json(&report).is_none());
        assert!(render_profile(&report).is_none());
    }
}
