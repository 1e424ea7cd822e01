//! Exporters: JSONL event log, Prometheus-style text exposition, and a
//! flamegraph-style self-time tree.
//!
//! All output is produced by hand (the workspace is hermetic — no serde);
//! the JSON subset emitted here is deliberately tiny: objects with string,
//! integer, and float values only.

use crate::bus::BusEvent;
use crate::hist::LatencyHistogram;
use crate::metrics::MetricsSnapshot;
use crate::tracer::{PhaseQueryStats, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// Escapes a string for inclusion inside a JSON string literal (without
/// the surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Escapes a string for use as a Prometheus exposition label *value*
/// (inside the surrounding quotes). The exposition format escapes exactly
/// three characters: backslash, double quote, and line feed — applying
/// JSON escaping here would corrupt values containing tabs or carriage
/// returns, and applying nothing (the old behaviour) produced malformed
/// exposition for values containing `"` or `\`.
pub fn prom_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fields_to_json(fields: &[(String, String)]) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

/// Renders one trace event as a single-line JSON object.
pub fn event_to_json(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Enter {
            span,
            parent,
            path,
            name,
            thread,
            at,
            fields,
        } => {
            let parent = match parent {
                Some(p) => p.to_string(),
                None => "null".to_owned(),
            };
            format!(
                "{{\"type\":\"enter\",\"span\":{span},\"parent\":{parent},\
                 \"path\":\"{}\",\"name\":\"{}\",\"thread\":{thread},\
                 \"at_us\":{},\"fields\":{}}}",
                json_escape(path),
                json_escape(name),
                at.as_micros(),
                fields_to_json(fields),
            )
        }
        TraceEvent::Exit {
            span,
            path,
            thread,
            at,
            wall,
            self_time,
            fields,
        } => {
            // annotation-free exits keep the line format older logs have
            let fields = if fields.is_empty() {
                String::new()
            } else {
                format!(",\"fields\":{}", fields_to_json(fields))
            };
            format!(
                "{{\"type\":\"exit\",\"span\":{span},\"path\":\"{}\",\
                 \"thread\":{thread},\"at_us\":{},\"wall_us\":{},\"self_us\":{}{fields}}}",
                json_escape(path),
                at.as_micros(),
                wall.as_micros(),
                self_time.as_micros(),
            )
        }
        TraceEvent::Query {
            path,
            kind,
            thread,
            at,
            latency,
        } => format!(
            "{{\"type\":\"query\",\"path\":\"{}\",\"kind\":\"{}\",\
             \"thread\":{thread},\"at_us\":{},\"latency_us\":{}}}",
            json_escape(path),
            kind.as_str(),
            at.as_micros(),
            latency.as_micros(),
        ),
        TraceEvent::Cache {
            path,
            hit,
            thread,
            at,
        } => format!(
            "{{\"type\":\"cache\",\"path\":\"{}\",\"hit\":{hit},\
             \"thread\":{thread},\"at_us\":{}}}",
            json_escape(path),
            at.as_micros(),
        ),
    }
}

/// Renders one bus event as a single-line JSON object. Trace events use
/// the [`event_to_json`] encoding; metric deltas get their own `type`s.
pub fn bus_event_to_json(event: &BusEvent) -> String {
    match event {
        BusEvent::Trace(e) => event_to_json(e),
        BusEvent::Counter { name, delta, at } => format!(
            "{{\"type\":\"counter\",\"name\":\"{}\",\"delta\":{delta},\"at_us\":{}}}",
            json_escape(name),
            at.as_micros(),
        ),
        BusEvent::Gauge { name, value, at } => format!(
            "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{value},\"at_us\":{}}}",
            json_escape(name),
            at.as_micros(),
        ),
        BusEvent::Observe { name, latency, at } => format!(
            "{{\"type\":\"observe\",\"name\":\"{}\",\"latency_us\":{},\"at_us\":{}}}",
            json_escape(name),
            latency.as_micros(),
            at.as_micros(),
        ),
    }
}

/// Renders a bus event log as JSONL — the `repro watch` recording format.
pub fn bus_events_to_jsonl(events: &[BusEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&bus_event_to_json(event));
        out.push('\n');
    }
    out
}

/// Renders an event log as JSONL (one JSON object per line, trailing
/// newline included when non-empty).
pub fn events_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_to_json(event));
        out.push('\n');
    }
    out
}

fn prom_name(name: &str) -> String {
    // Prometheus metric names allow [a-zA-Z0-9_:]; labels in braces pass
    // through untouched.
    match name.find('{') {
        Some(i) => {
            let (base, labels) = name.split_at(i);
            format!("{}{}", sanitize(base), labels)
        }
        None => sanitize(name),
    }
}

fn sanitize(base: &str) -> String {
    base.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn prom_histogram(out: &mut String, name: &str, hist: &LatencyHistogram, sum: Duration) {
    // A labeled registration (`serve_round_latency{tenant="t0"}`) must fold
    // its labels into each series — `base{tenant}_bucket{le}` would be
    // malformed exposition, so emit `base_bucket{tenant,le}` instead.
    let (base, labels) = match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    };
    let with = |extra: &str| -> String {
        match (labels.is_empty(), extra.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("{{{extra}}}"),
            (false, true) => format!("{{{labels}}}"),
            (false, false) => format!("{{{labels},{extra}}}"),
        }
    };
    let mut cumulative = 0u64;
    for (bound, count) in hist.buckets() {
        cumulative += count;
        let _ = writeln!(
            out,
            "{base}_bucket{} {cumulative}",
            with(&format!("le=\"{}\"", bound.as_secs_f64()))
        );
    }
    let _ = writeln!(out, "{base}_bucket{} {}", with("le=\"+Inf\""), hist.count());
    let _ = writeln!(out, "{base}_sum{} {}", with(""), sum.as_secs_f64());
    let _ = writeln!(out, "{base}_count{} {}", with(""), hist.count());
}

/// Renders a metrics snapshot plus the query-provenance table as a
/// Prometheus-style text exposition.
pub fn prometheus_exposition(
    metrics: &MetricsSnapshot,
    provenance: &[(String, PhaseQueryStats)],
) -> String {
    let mut out = String::new();
    for (name, value) in &metrics.counters {
        let _ = writeln!(
            out,
            "# TYPE {} counter",
            prom_name(name).split('{').next().unwrap_or("")
        );
        let _ = writeln!(out, "{} {value}", prom_name(name));
    }
    for (name, value) in &metrics.gauges {
        let _ = writeln!(
            out,
            "# TYPE {} gauge",
            prom_name(name).split('{').next().unwrap_or("")
        );
        let _ = writeln!(out, "{} {value}", prom_name(name));
    }
    for (name, snap) in &metrics.histograms {
        let base = prom_name(name);
        let _ = writeln!(
            out,
            "# TYPE {} histogram",
            base.split('{').next().unwrap_or("")
        );
        prom_histogram(&mut out, &base, &snap.histogram, snap.sum);
    }
    if !provenance.is_empty() {
        let _ = writeln!(out, "# TYPE re2x_phase_queries counter");
        for (path, stats) in provenance {
            let phase = prom_escape(path);
            let _ = writeln!(
                out,
                "re2x_phase_queries{{phase=\"{phase}\",kind=\"select\"}} {}",
                stats.selects
            );
            let _ = writeln!(
                out,
                "re2x_phase_queries{{phase=\"{phase}\",kind=\"ask\"}} {}",
                stats.asks
            );
            let _ = writeln!(
                out,
                "re2x_phase_queries{{phase=\"{phase}\",kind=\"keyword\"}} {}",
                stats.keyword_searches
            );
        }
        let _ = writeln!(out, "# TYPE re2x_phase_busy_seconds counter");
        for (path, stats) in provenance {
            let _ = writeln!(
                out,
                "re2x_phase_busy_seconds{{phase=\"{}\"}} {}",
                prom_escape(path),
                stats.busy.as_secs_f64()
            );
        }
        let _ = writeln!(out, "# TYPE re2x_phase_cache_events counter");
        for (path, stats) in provenance {
            if stats.cache_hits + stats.cache_misses == 0 {
                continue;
            }
            let phase = prom_escape(path);
            let _ = writeln!(
                out,
                "re2x_phase_cache_events{{phase=\"{phase}\",outcome=\"hit\"}} {}",
                stats.cache_hits
            );
            let _ = writeln!(
                out,
                "re2x_phase_cache_events{{phase=\"{phase}\",outcome=\"miss\"}} {}",
                stats.cache_misses
            );
        }
    }
    out
}

/// Aggregate cost of one span *path* (all spans sharing that path folded
/// together), produced by [`aggregate_spans`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Full `/`-joined path.
    pub path: String,
    /// Number of spans with this path.
    pub count: u64,
    /// Summed wall time.
    pub wall: Duration,
    /// Summed self time (wall minus same-thread children).
    pub self_time: Duration,
}

/// Folds an event log into per-path aggregates, sorted by path. Because
/// paths are `/`-joined, lexicographic order lists every parent directly
/// before its children — the tree shape falls out of a flat sort.
pub fn aggregate_spans(events: &[TraceEvent]) -> Vec<SpanAgg> {
    let mut by_path: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for event in events {
        if let TraceEvent::Exit {
            path,
            wall,
            self_time,
            ..
        } = event
        {
            let agg = by_path.entry(path).or_insert_with(|| SpanAgg {
                path: path.clone(),
                ..SpanAgg::default()
            });
            agg.count += 1;
            agg.wall += *wall;
            agg.self_time += *self_time;
        }
    }
    by_path.into_values().collect()
}

/// Formats a duration compactly for human-readable reports.
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_micros();
    if us < 1_000 {
        format!("{us}µs")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

/// Renders the span aggregates as an indented flamegraph-style tree:
/// one line per path, indented by depth, with count, wall, and self time.
/// Self-time percentages are relative to the total wall time of the root
/// spans.
pub fn render_self_time_tree(events: &[TraceEvent]) -> String {
    render_self_time_tree_from(&aggregate_spans(events))
}

/// [`render_self_time_tree`] over pre-folded aggregates (sorted by path),
/// for consumers that maintain aggregates incrementally — the live
/// dashboard folds bus events into its own `SpanAgg` map and renders from
/// there without keeping the whole event log.
pub fn render_self_time_tree_from(aggs: &[SpanAgg]) -> String {
    let root_wall: Duration = aggs
        .iter()
        .filter(|a| !a.path.contains('/'))
        .map(|a| a.wall)
        .sum();
    let mut out = String::new();
    for agg in aggs {
        let depth = agg.path.matches('/').count();
        let name = agg.path.rsplit('/').next().unwrap_or(&agg.path);
        let pct = if root_wall > Duration::ZERO {
            100.0 * agg.self_time.as_secs_f64() / root_wall.as_secs_f64()
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{}{} ×{}  wall {}  self {} ({:.1}%)",
            "  ".repeat(depth),
            name,
            agg.count,
            fmt_duration(agg.wall),
            fmt_duration(agg.self_time),
            pct,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use crate::tracer::{QueryKind, Tracer};

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prom_escape_covers_exactly_the_exposition_specials() {
        assert_eq!(prom_escape("plain"), "plain");
        assert_eq!(prom_escape("a\"b"), "a\\\"b");
        assert_eq!(prom_escape("a\\b"), "a\\\\b");
        assert_eq!(prom_escape("a\nb"), "a\\nb");
        // unlike JSON escaping, tabs and control chars pass through
        assert_eq!(prom_escape("a\tb"), "a\tb");
    }

    #[test]
    fn quoted_tenant_id_yields_wellformed_exposition_labels() {
        // regression: a label value containing a quote used to be
        // interpolated raw (phase labels) or JSON-escaped (tabs became
        // \t, which the exposition format does not define)
        let metrics = Metrics::new();
        let name = crate::metrics::label("serve.sessions", &[("tenant", "ten\"ant\\x")]);
        metrics.counter_add(&name, 1);
        let stats = PhaseQueryStats {
            selects: 1,
            ..Default::default()
        };
        let text = prometheus_exposition(&metrics.snapshot(), &[("phase\"q".to_owned(), stats)]);
        assert!(
            text.contains("serve_sessions{tenant=\"ten\\\"ant\\\\x\"} 1"),
            "label builder escapes quotes and backslashes: {text}"
        );
        assert!(
            text.contains("re2x_phase_queries{phase=\"phase\\\"q\",kind=\"select\"} 1"),
            "provenance phase labels escape quotes: {text}"
        );
    }

    #[test]
    fn cache_events_serialize_and_bus_events_round_out_the_jsonl() {
        let tracer = Tracer::enabled();
        tracer.record_cache(true);
        let events = tracer.events();
        assert_eq!(events.len(), 1);
        let json = event_to_json(&events[0]);
        assert!(json.contains("\"type\":\"cache\""));
        assert!(json.contains("\"hit\":true"));

        let bus_events = vec![
            BusEvent::Trace(events[0].clone()),
            BusEvent::Counter {
                name: "c".to_owned(),
                delta: 2,
                at: Duration::from_micros(10),
            },
            BusEvent::Gauge {
                name: "g".to_owned(),
                value: 1.5,
                at: Duration::from_micros(11),
            },
            BusEvent::Observe {
                name: "h".to_owned(),
                latency: Duration::from_micros(7),
                at: Duration::from_micros(12),
            },
        ];
        let jsonl = bus_events_to_jsonl(&bus_events);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"type\":\"cache\""));
        assert!(lines[1].contains("\"type\":\"counter\""));
        assert!(lines[1].contains("\"delta\":2"));
        assert!(lines[2].contains("\"type\":\"gauge\""));
        assert!(lines[2].contains("\"value\":1.5"));
        assert!(lines[3].contains("\"type\":\"observe\""));
        assert!(lines[3].contains("\"latency_us\":7"));
    }

    #[test]
    fn events_serialize_to_one_json_object_per_line() {
        let tracer = Tracer::enabled();
        {
            let mut a = tracer.span_with("phase", &[("dim", "birthPlace")]);
            tracer.record_query(QueryKind::Select, Duration::from_micros(7));
            a.record("rows", 3);
        }
        let jsonl = events_to_jsonl(&tracer.events());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"enter\""));
        assert!(lines[0].contains("\"fields\":{\"dim\":\"birthPlace\"}"));
        assert!(lines[1].contains("\"type\":\"query\""));
        assert!(lines[1].contains("\"kind\":\"select\""));
        assert!(lines[1].contains("\"latency_us\":7"));
        assert!(lines[2].contains("\"type\":\"exit\""));
        assert!(lines[2].contains("\"wall_us\""));
        assert!(lines[2].ends_with(",\"fields\":{\"rows\":\"3\"}}"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn prometheus_exposition_covers_all_metric_kinds() {
        let metrics = Metrics::new();
        metrics.counter_add("bootstrap.dimensions", 4);
        metrics.gauge_set("cube.cells", 128.0);
        metrics.observe("endpoint.latency", Duration::from_micros(3));
        let stats = PhaseQueryStats {
            selects: 2,
            cache_hits: 1,
            busy: Duration::from_micros(10),
            ..Default::default()
        };
        let text = prometheus_exposition(&metrics.snapshot(), &[("bootstrap".to_owned(), stats)]);
        assert!(text.contains("bootstrap_dimensions 4"));
        assert!(text.contains("cube_cells 128"));
        assert!(text.contains("endpoint_latency_count 1"));
        assert!(text.contains("endpoint_latency_sum"));
        assert!(text.contains("re2x_phase_queries{phase=\"bootstrap\",kind=\"select\"} 2"));
        assert!(text.contains("re2x_phase_cache_events{phase=\"bootstrap\",outcome=\"hit\"} 1"));
        assert!(text.contains("re2x_phase_busy_seconds{phase=\"bootstrap\"} 0.00001"));
    }

    #[test]
    fn labeled_histograms_fold_labels_into_each_series() {
        let metrics = Metrics::new();
        let name = crate::metrics::label("serve.round_latency", &[("tenant", "t0")]);
        metrics.observe(&name, Duration::from_micros(250));
        let text = prometheus_exposition(&metrics.snapshot(), &[]);
        // labels merge with `le` instead of producing `…{tenant}_bucket{le}`
        assert!(text.contains("serve_round_latency_bucket{tenant=\"t0\",le=\"+Inf\"} 1"));
        assert!(text.contains("serve_round_latency_sum{tenant=\"t0\"} 0.00025"));
        assert!(text.contains("serve_round_latency_count{tenant=\"t0\"} 1"));
        assert!(!text.contains("}_bucket"));
        assert!(!text.contains("}_sum"));
        assert!(!text.contains("}_count"));
    }

    #[test]
    fn aggregates_fold_spans_by_path_in_tree_order() {
        let tracer = Tracer::enabled();
        {
            let _root = tracer.span("root");
            for _ in 0..3 {
                let _c = tracer.span("child");
            }
        }
        let aggs = aggregate_spans(&tracer.events());
        assert_eq!(aggs.len(), 2);
        assert_eq!(aggs[0].path, "root");
        assert_eq!(aggs[0].count, 1);
        assert_eq!(aggs[1].path, "root/child");
        assert_eq!(aggs[1].count, 3);
        assert!(aggs[1].wall <= aggs[0].wall);
    }

    #[test]
    fn self_time_tree_indents_by_depth() {
        let tracer = Tracer::enabled();
        {
            let _root = tracer.span("pipeline");
            let _child = tracer.span("bootstrap");
        }
        let tree = render_self_time_tree(&tracer.events());
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("pipeline ×1"));
        assert!(lines[1].starts_with("  bootstrap ×1"));
        assert!(lines[0].contains('%'));
    }

    #[test]
    fn duration_formatting_scales() {
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12µs");
        assert_eq!(fmt_duration(Duration::from_micros(3_500)), "3.50ms");
        assert_eq!(fmt_duration(Duration::from_millis(2_250)), "2.25s");
    }
}
