//! The renderer: a pure function from [`DashboardState`] to [`Frame`].
//!
//! Purity is the whole point — the renderer reads *only* the state (no
//! `Instant::now`, no environment, no I/O), so the same folded event log
//! always renders byte-identical frames. The dashboard clock is the
//! largest event timestamp seen, not wall time; golden tests and the
//! `no-wallclock` lint both hold the line.

use crate::frame::{Frame, Style};
use crate::state::DashboardState;
use re2x_obs::{fmt_duration, render_self_time_tree_from, LatencyHistogram};

/// Layout knobs for [`render_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderOptions {
    /// Total frame width in characters (clamped to at least 40).
    pub width: usize,
    /// Maximum self-time-tree rows before truncation.
    pub tree_rows: usize,
}

impl Default for RenderOptions {
    fn default() -> RenderOptions {
        RenderOptions {
            width: 72,
            tree_rows: 12,
        }
    }
}

/// Renders the dashboard at the default layout.
pub fn render(state: &DashboardState) -> Frame {
    render_with(state, RenderOptions::default())
}

fn quantiles(hist: &LatencyHistogram) -> String {
    match (hist.p50(), hist.p99()) {
        (Some(p50), Some(p99)) => {
            format!("p50 {} · p99 {}", fmt_duration(p50), fmt_duration(p99))
        }
        _ => "p50 – · p99 –".to_owned(),
    }
}

/// Renders the dashboard. Pure: same state, same frame, always.
pub fn render_with(state: &DashboardState, opts: RenderOptions) -> Frame {
    let width = opts.width.max(40);
    let mut frame = Frame::new(width);
    let inner = width - 4; // "│ " + " │"

    let clip = |s: &str| -> String {
        if s.chars().count() <= inner {
            return s.to_owned();
        }
        let mut out: String = s.chars().take(inner.saturating_sub(1)).collect();
        out.push('…');
        out
    };
    let boxed = |s: &str| -> String {
        let content = clip(s);
        let pad = inner.saturating_sub(content.chars().count());
        format!("│ {content}{} │", " ".repeat(pad))
    };
    let rule = |left: char, title: &str, right: char| -> String {
        let head = if title.is_empty() {
            String::new()
        } else {
            format!("─ {title} ")
        };
        let used = 1 + head.chars().count();
        let fill = width.saturating_sub(used + 1);
        format!("{left}{head}{}{right}", "─".repeat(fill))
    };

    let title = format!(
        "re2x live ── t={} ── {} events · {} dropped",
        fmt_duration(state.clock),
        state.events_seen,
        state.dropped,
    );
    frame.push(Style::Title, rule('┌', &title, '┐'));

    frame.push(
        Style::Text,
        boxed(&format!(
            "queries {}  (select {} · ask {} · keyword {})  busy {}",
            state.queries(),
            state.selects,
            state.asks,
            state.keywords,
            fmt_duration(state.endpoint_busy),
        )),
    );
    frame.push(
        Style::Text,
        boxed(&format!(
            "endpoint {}  ·  spans open {}",
            quantiles(&state.endpoint_latency),
            state.open_spans,
        )),
    );
    let looked = state.cache_hits + state.cache_misses;
    let hit_rate = if looked > 0 {
        format!("{:.1}%", 100.0 * state.cache_hits as f64 / looked as f64)
    } else {
        "–".to_owned()
    };
    frame.push(
        Style::Text,
        boxed(&format!(
            "cache hit {} · miss {} · evict {}  (hit rate {hit_rate})",
            state.cache_hits,
            state.cache_misses,
            state.cache_evictions(),
        )),
    );

    let aggs = state.span_aggs();
    if !aggs.is_empty() {
        frame.push(Style::Section, rule('├', "self time by phase", '┤'));
        let tree = render_self_time_tree_from(&aggs);
        let lines: Vec<&str> = tree.lines().collect();
        for line in lines.iter().take(opts.tree_rows) {
            frame.push(Style::Text, boxed(line));
        }
        if lines.len() > opts.tree_rows {
            frame.push(
                Style::Text,
                boxed(&format!("… +{} more paths", lines.len() - opts.tree_rows)),
            );
        }
    }

    let tenants = state.tenants();
    if !tenants.is_empty() {
        frame.push(Style::Section, rule('├', "tenants", '┤'));
        for t in &tenants {
            frame.push(
                Style::Text,
                boxed(&format!(
                    "{}  active {:.0} · admitted {} · done {} · rejected {}",
                    t.tenant, t.active, t.admitted, t.completed, t.rejected,
                )),
            );
            frame.push(
                Style::Text,
                boxed(&format!(
                    "  queue {}  ·  round {} ({} rounds)",
                    quantiles(&t.queue_wait),
                    quantiles(&t.round_latency),
                    t.rounds,
                )),
            );
            if t.budget_exhausted + t.worker_panics + t.failed > 0 {
                frame.push(
                    Style::Text,
                    boxed(&format!(
                        "  budget exhausted {} · worker panics {} · failed {}",
                        t.budget_exhausted, t.worker_panics, t.failed,
                    )),
                );
            }
        }
    }

    if let Some(shards) = state.shards() {
        frame.push(Style::Section, rule('├', "shards", '┤'));
        frame.push(
            Style::Text,
            boxed(&format!(
                "skew {:.2} · scatter {} · fallback {}",
                shards.skew, shards.scatter, shards.fallback,
            )),
        );
    }

    frame.push(Style::Title, rule('└', "", '┘'));
    frame
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_obs::{BusEvent, QueryKind, TraceEvent};
    use std::time::Duration;

    fn sample_state() -> DashboardState {
        let mut state = DashboardState::new();
        state.apply_all(&[
            BusEvent::Trace(TraceEvent::Enter {
                span: 1,
                parent: None,
                path: "session".to_owned(),
                name: "session".to_owned(),
                thread: 0,
                at: Duration::from_micros(10),
                fields: Vec::new(),
            }),
            BusEvent::Trace(TraceEvent::Query {
                path: "session".to_owned(),
                kind: QueryKind::Select,
                thread: 0,
                at: Duration::from_micros(50),
                latency: Duration::from_micros(40),
            }),
            BusEvent::Trace(TraceEvent::Exit {
                span: 1,
                path: "session".to_owned(),
                thread: 0,
                at: Duration::from_micros(100),
                wall: Duration::from_micros(90),
                self_time: Duration::from_micros(90),
                fields: Vec::new(),
            }),
            BusEvent::Counter {
                name: "serve.sessions_admitted{tenant=\"adhoc\"}".to_owned(),
                delta: 2,
                at: Duration::from_micros(120),
            },
        ]);
        state
    }

    #[test]
    fn rendering_is_pure_and_deterministic() {
        let state = sample_state();
        let a = render(&state);
        let b = render(&state);
        assert_eq!(a, b);
        assert_eq!(a.to_plain(), b.to_plain());
    }

    #[test]
    fn frame_shows_every_section_that_has_data() {
        let plain = render(&sample_state()).to_plain();
        assert!(plain.contains("re2x live"));
        assert!(plain.contains("t=120µs"), "clock is event time: {plain}");
        assert!(plain.contains("queries 1"));
        assert!(plain.contains("self time by phase"));
        assert!(plain.contains("session ×1"));
        assert!(plain.contains("tenants"));
        assert!(plain.contains("adhoc"));
        assert!(!plain.contains("shards"), "no shard metrics seen");
    }

    #[test]
    fn every_line_has_the_same_width() {
        let frame = render(&sample_state());
        for line in frame.lines() {
            assert_eq!(line.chars().count(), frame.width, "ragged line: {line:?}");
        }
    }

    #[test]
    fn long_content_is_clipped_not_wrapped() {
        let mut state = DashboardState::new();
        state.apply(&BusEvent::Trace(TraceEvent::Exit {
            span: 1,
            path: "x".repeat(500),
            thread: 0,
            at: Duration::from_micros(1),
            wall: Duration::from_micros(1),
            self_time: Duration::from_micros(1),
            fields: Vec::new(),
        }));
        let frame = render_with(
            &state,
            RenderOptions {
                width: 48,
                tree_rows: 2,
            },
        );
        for line in frame.lines() {
            assert_eq!(line.chars().count(), 48);
        }
    }

    #[test]
    fn tree_rows_truncate_with_a_note() {
        let mut state = DashboardState::new();
        for i in 0..10 {
            state.apply(&BusEvent::Trace(TraceEvent::Exit {
                span: i,
                path: format!("p{i}"),
                thread: 0,
                at: Duration::from_micros(1),
                wall: Duration::from_micros(1),
                self_time: Duration::from_micros(1),
                fields: Vec::new(),
            }));
        }
        let frame = render_with(
            &state,
            RenderOptions {
                width: 72,
                tree_rows: 4,
            },
        );
        assert!(frame.to_plain().contains("+6 more paths"));
    }
}
