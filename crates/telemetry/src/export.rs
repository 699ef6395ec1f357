//! Trace exporters: Chrome/Perfetto `trace_event` JSON and CSV.
//!
//! The JSON exporter emits the "JSON array format" both `chrome://tracing`
//! and [ui.perfetto.dev](https://ui.perfetto.dev) load directly:
//!
//! * each unique `(scope, component)` pair becomes a process (`pid`),
//!   named via `process_name` metadata events,
//! * tracks become thread ids (`tid`),
//! * spans are `ph:"X"` complete events, instants `ph:"i"`, and
//!   counter/gauge/value samples `ph:"C"` counter tracks (counters are
//!   exported as running totals so the counter track shows the
//!   cumulative count over time),
//! * timestamps are microseconds (`ts`), converted from the simulated
//!   picosecond clock.
//!
//! The JSON goes through [`crate::json`], like every other artifact:
//! names are escaped and samples follow its number rule, so a non-finite
//! gauge value is written as `0` rather than as invalid JSON.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::json::Layout::{Rows, Tight};
use crate::json::{WriteJson, Writer};
use crate::streaming::StreamAggregate;
use crate::{EventKind, Time, TraceEvent};

fn ts_us(t: Time) -> f64 {
    t as f64 / 1e6
}

/// Render `events` as Chrome `trace_event` JSON (array format).
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_with_aggregates(events, &[])
}

/// [`chrome_trace_json`] plus `ph:"C"` counter tracks rendered from
/// streaming aggregates: one `<name>_busy_frac` track per busy series
/// (span overlap per bucket, as a fraction of the bucket) and one
/// `<name>_peak` track per gauge-peak series. `aggs` pairs each
/// aggregate with the scope its samples should appear under (use the
/// strategy label, or `""`). Raw events can be empty — a pure
/// streaming capture still yields a loadable trace.
pub fn chrome_trace_json_with_aggregates(
    events: &[TraceEvent],
    aggs: &[(&str, &StreamAggregate)],
) -> String {
    // Stable pid per (scope, component), in first-appearance order.
    let series_keys = aggs.iter().flat_map(|&(scope, agg)| {
        let busy = agg.busy_series_iter().map(|((c, _, _), _)| c);
        let peak = agg.gauge_peak_iter().map(|((c, _, _), _)| c);
        busy.chain(peak).map(move |c| (scope, c))
    });
    let mut pids: HashMap<(&str, &str), u32> = HashMap::new();
    let mut processes: Vec<(&str, &str)> = Vec::new();
    for key in events
        .iter()
        .map(|ev| (ev.scope, ev.component))
        .chain(series_keys)
    {
        pids.entry(key).or_insert_with(|| {
            processes.push(key);
            processes.len() as u32
        });
    }

    let mut w = Writer::default();
    w.array(Rows, |w| {
        for (i, (scope, component)) in processes.iter().enumerate() {
            let name = if scope.is_empty() {
                component.to_string()
            } else {
                format!("{scope}/{component}")
            };
            w.object(Tight, |w| {
                w.field("ph", "M")
                    .field("pid", i + 1)
                    .field("name", "process_name")
                    .key("args")
                    .object(Tight, |w| {
                        w.field("name", &name);
                    });
            });
        }

        // Counter tracks show cumulative totals.
        let mut totals: HashMap<(&str, &str, &str, u64), u64> = HashMap::new();
        for ev in events {
            let at = (pids[&(ev.scope, ev.component)], ev.track, ev.time);
            match &ev.kind {
                EventKind::Span { end } => event(w, "X", at, |w| {
                    w.field("dur", ts_us(end.saturating_sub(ev.time)))
                        .field("name", ev.name)
                        .field("cat", ev.component);
                }),
                EventKind::Instant => event(w, "i", at, |w| {
                    w.field("name", ev.name).field("s", "t");
                }),
                EventKind::Counter { delta } => {
                    let total = totals
                        .entry((ev.scope, ev.component, ev.name, ev.track))
                        .and_modify(|t| *t += delta)
                        .or_insert(*delta);
                    sample(w, at, ev.name, *total)
                }
                EventKind::Gauge { value } | EventKind::Value { value } => {
                    sample(w, at, ev.name, *value)
                }
                // A distribution snapshot renders as one summary counter
                // sample so Perfetto shows the percentiles on a track.
                EventKind::Hist { hist } => event(w, "C", at, |w| {
                    w.field("name", ev.name).key("args").object(Tight, |w| {
                        w.field("count", hist.count())
                            .field("p50", hist.percentile_ps(50.0))
                            .field("p90", hist.percentile_ps(90.0))
                            .field("p99", hist.percentile_ps(99.0));
                    });
                }),
            }
        }

        // Streaming time series: one counter sample per bucket.
        for (scope, agg) in aggs {
            let bp = agg.bucket_ps();
            for ((comp, name, track), series) in agg.busy_series_iter() {
                let pid = pids[&(*scope, comp)];
                let tname = format!("{name}_busy_frac");
                for (b, &busy) in series.iter().enumerate() {
                    let frac = busy as f64 / bp as f64;
                    sample(w, (pid, track, b as Time * bp), &tname, frac);
                }
            }
            for ((comp, name, track), series) in agg.gauge_peak_iter() {
                let pid = pids[&(*scope, comp)];
                let tname = format!("{name}_peak");
                for (b, &peak) in series.iter().enumerate() {
                    // A non-finite peak marks a bucket without a sample.
                    if peak.is_finite() {
                        sample(w, (pid, track, b as Time * bp), &tname, peak);
                    }
                }
            }
        }
    });
    w.finish()
}

/// One trace event at `(pid, tid, time)`: the members every event
/// starts with, then the ones `rest` writes.
fn event(
    w: &mut Writer,
    ph: &str,
    (pid, tid, t): (u32, u64, Time),
    rest: impl FnOnce(&mut Writer),
) {
    w.object(Tight, |w| {
        w.field("ph", ph)
            .field("pid", pid)
            .field("tid", tid)
            .field("ts", ts_us(t));
        rest(w);
    });
}

/// One `ph:"C"` counter-track sample named `name` with value `v`.
fn sample(w: &mut Writer, at: (u32, u64, Time), name: &str, v: impl WriteJson) {
    event(w, "C", at, |w| {
        w.field("name", name).key("args").object(Tight, |w| {
            w.field(name, v);
        });
    });
}

/// Render `events` as CSV (`time_ps,scope,component,name,track,kind,value,end_ps`).
pub fn csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("time_ps,scope,component,name,track,kind,value,end_ps\n");
    for ev in events {
        let (kind, value, end) = match &ev.kind {
            EventKind::Counter { delta } => ("counter", *delta as f64, String::new()),
            EventKind::Gauge { value } => ("gauge", *value, String::new()),
            EventKind::Value { value } => ("value", *value, String::new()),
            EventKind::Span { end } => ("span", 0.0, end.to_string()),
            EventKind::Instant => ("instant", 0.0, String::new()),
            // Only the sample count survives the flat CSV form; the
            // full distribution lives in the JSON run report.
            EventKind::Hist { hist } => ("hist", hist.count() as f64, String::new()),
        };
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{}",
            ev.time, ev.scope, ev.component, ev.name, ev.track, kind, value, end
        );
    }
    out
}

/// An owned row parsed back from [`csv`] output (for round-trip tests
/// and offline analysis scripts).
#[derive(Debug, Clone, PartialEq)]
pub struct CsvRow {
    /// Timestamp (ps).
    pub time: Time,
    /// Scope column.
    pub scope: String,
    /// Component column.
    pub component: String,
    /// Name column.
    pub name: String,
    /// Track column.
    pub track: u64,
    /// Kind column (`counter`/`gauge`/`value`/`span`/`instant`).
    pub kind: String,
    /// Value column (delta for counters, 0 for spans/instants).
    pub value: f64,
    /// Span end (ps), if the row is a span.
    pub end: Option<Time>,
}

/// Parse [`csv`] output back into rows. Returns `None` on malformed
/// input (wrong column count or unparsable numbers).
pub fn csv_parse(text: &str) -> Option<Vec<CsvRow>> {
    let mut rows = Vec::new();
    for line in text.lines().skip(1) {
        if line.is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 8 {
            return None;
        }
        rows.push(CsvRow {
            time: cols[0].parse().ok()?,
            scope: cols[1].to_string(),
            component: cols[2].to_string(),
            name: cols[3].to_string(),
            track: cols[4].parse().ok()?,
            kind: cols[5].to_string(),
            value: cols[6].parse().ok()?,
            end: if cols[7].is_empty() {
                None
            } else {
                Some(cols[7].parse().ok()?)
            },
        });
    }
    Some(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent {
                scope: "RW-CP",
                component: "spin",
                name: "handler",
                track: 3,
                time: 1_000_000,
                kind: EventKind::Span { end: 2_500_000 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "spin",
                name: "dma_queue",
                track: 0,
                time: 1_200_000,
                kind: EventKind::Gauge { value: 4.0 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "core",
                name: "checkpoint_revert",
                track: 1,
                time: 2_000_000,
                kind: EventKind::Instant,
            },
            TraceEvent {
                scope: "RW-CP",
                component: "sim",
                name: "events",
                track: 0,
                time: 500_000,
                kind: EventKind::Counter { delta: 2 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "sim",
                name: "events",
                track: 0,
                time: 900_000,
                kind: EventKind::Counter { delta: 3 },
            },
            TraceEvent {
                scope: "RW-CP",
                component: "spin",
                name: "handler_ps",
                track: 0,
                time: 3_000_000,
                kind: EventKind::Hist {
                    hist: std::sync::Arc::new({
                        let mut h = crate::hist::LogHistogram::new();
                        h.record_n(100, 9);
                        h.record(1_000_000);
                        h
                    }),
                },
            },
        ]
    }

    #[test]
    fn chrome_json_has_processes_spans_counters_instants() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains(r#""name":"process_name""#));
        assert!(json.contains(r#""name":"RW-CP/spin""#));
        assert!(json.contains(r#""ph":"X""#), "span events present");
        assert!(json.contains(r#""ph":"C""#), "counter samples present");
        assert!(json.contains(r#""ph":"i""#), "instant events present");
        // Span: ts 1 µs, dur 1.5 µs.
        assert!(
            json.contains(r#""ts":1,"dur":1.5"#),
            "ps→µs conversion: {json}"
        );
        // Counter totals accumulate: 2 then 5.
        assert!(json.contains(r#"{"events":2}"#));
        assert!(json.contains(r#"{"events":5}"#));
        // Balanced braces (cheap well-formedness check; no serde offline).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn json_escapes_special_characters() {
        let evs = vec![TraceEvent {
            scope: "",
            component: "x",
            name: "weird\"name\\with\nstuff",
            track: 0,
            time: 0,
            kind: EventKind::Instant,
        }];
        let json = chrome_trace_json(&evs);
        assert!(json.contains(r#"weird\"name\\with\nstuff"#));
    }

    #[test]
    fn csv_round_trips() {
        let events = sample_events();
        let text = csv(&events);
        let rows = csv_parse(&text).expect("parsable");
        assert_eq!(rows.len(), events.len());
        for (row, ev) in rows.iter().zip(&events) {
            assert_eq!(row.time, ev.time);
            assert_eq!(row.scope, ev.scope);
            assert_eq!(row.component, ev.component);
            assert_eq!(row.name, ev.name);
            assert_eq!(row.track, ev.track);
            match &ev.kind {
                EventKind::Counter { delta } => {
                    assert_eq!(row.kind, "counter");
                    assert_eq!(row.value, *delta as f64);
                }
                EventKind::Gauge { value } => {
                    assert_eq!(row.kind, "gauge");
                    assert_eq!(row.value, *value);
                }
                EventKind::Value { value } => {
                    assert_eq!(row.kind, "value");
                    assert_eq!(row.value, *value);
                }
                EventKind::Span { end } => {
                    assert_eq!(row.kind, "span");
                    assert_eq!(row.end, Some(*end));
                }
                EventKind::Instant => assert_eq!(row.kind, "instant"),
                EventKind::Hist { hist } => {
                    assert_eq!(row.kind, "hist");
                    assert_eq!(row.value, hist.count() as f64);
                }
            }
        }
    }

    #[test]
    fn chrome_json_renders_histogram_percentiles() {
        let json = chrome_trace_json(&sample_events());
        // p50 is the upper bound of the bucket holding 100 (≤3.1% off).
        assert!(
            json.contains(r#""count":10,"p50":101,"#),
            "histogram summary exported: {json}"
        );
    }

    #[test]
    fn streaming_aggregates_render_counter_tracks() {
        let mut agg = StreamAggregate::new(1_000_000);
        agg.fold(&TraceEvent {
            scope: "",
            component: "spin",
            name: "handler",
            track: 2,
            time: 500_000,
            kind: EventKind::Span { end: 1_500_000 },
        });
        agg.fold(&TraceEvent {
            scope: "",
            component: "spin",
            name: "dma_queue",
            track: 0,
            time: 100_000,
            kind: EventKind::Gauge { value: 3.0 },
        });
        let json = chrome_trace_json_with_aggregates(&[], &[("RW-CP", &agg)]);
        assert!(json.contains(r#""name":"RW-CP/spin""#), "{json}");
        assert!(json.contains("handler_busy_frac"), "{json}");
        assert!(json.contains("dma_queue_peak"), "{json}");
        // The [0.5 µs, 1.5 µs) span half-fills both buckets.
        assert!(json.contains(r#"{"handler_busy_frac":0.5}"#), "{json}");
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' => d + 1,
            '}' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn non_finite_samples_keep_the_trace_valid_json() {
        let (tel, sink) = crate::Telemetry::ring(16);
        tel.gauge("spin", "dma_queue", 0, 1_000, f64::NAN);
        tel.value("spin", "handler_ps", 0, 2_000, f64::INFINITY);
        let json = chrome_trace_json(&sink.events());
        let v = crate::json::Json::parse(&json).expect("trace must be JSON");
        assert_eq!(v.as_arr().map(<[_]>::len), Some(3), "{json}");
        assert!(json.contains(r#""args":{"dma_queue":0}"#), "{json}");
        assert!(json.contains(r#""args":{"handler_ps":0}"#), "{json}");
    }

    #[test]
    fn csv_parse_rejects_malformed_input() {
        assert_eq!(csv_parse("header\n1,2,3\n"), None);
        assert_eq!(csv_parse("h\nnot_a_number,,c,n,0,instant,0,\n"), None);
    }
}
