//! Property: the JSONL exporters and the parser are exact inverses —
//! `events_to_jsonl → parse → events_to_jsonl` is byte-identical on
//! seeded random event streams (and likewise for bus-event logs). This is
//! what makes `repro watch` replay trustworthy: a recorded log re-renders
//! to exactly the frames the live run would have shown.

use re2x_obs::{
    bus_events_to_jsonl, events_to_jsonl, parse_bus_events, parse_trace_events, BusEvent,
    QueryKind, TraceEvent,
};
use re2x_testkit::{check, TestRng};
use std::time::Duration;

/// Paths/names that exercise every escape class the exporter emits,
/// including quotes, backslashes, newlines, tabs, and control chars.
fn gen_string(rng: &mut TestRng) -> String {
    const NASTY: [&str; 8] = ["\"", "\\", "\n", "\t", "\r", "\u{1}", "µ", "/"];
    let mut s = rng.string_from("abcdefgh0123456789._-", 1..8);
    for _ in 0..rng.gen_range(0..3usize) {
        s.push_str(NASTY[rng.gen_range(0..NASTY.len())]);
        s.push_str(&rng.string_from("xyz", 0..3));
    }
    s
}

fn gen_trace_event(rng: &mut TestRng) -> TraceEvent {
    let at = Duration::from_micros(rng.gen_range(0..5_000_000u64));
    let thread = rng.gen_range(0..16u64);
    match rng.gen_range(0..4u32) {
        0 => TraceEvent::Enter {
            span: rng.gen_range(1..10_000u64),
            parent: if rng.gen_bool(0.5) {
                Some(rng.gen_range(1..10_000u64))
            } else {
                None
            },
            path: gen_string(rng),
            name: gen_string(rng),
            thread,
            at,
            fields: (0..rng.gen_range(0..3usize))
                .map(|_| (gen_string(rng), gen_string(rng)))
                .collect(),
        },
        1 => TraceEvent::Exit {
            span: rng.gen_range(1..10_000u64),
            path: gen_string(rng),
            thread,
            at,
            wall: Duration::from_micros(rng.gen_range(0..1_000_000u64)),
            self_time: Duration::from_micros(rng.gen_range(0..1_000_000u64)),
            fields: (0..rng.gen_range(0..3usize))
                .map(|_| (gen_string(rng), gen_string(rng)))
                .collect(),
        },
        2 => TraceEvent::Query {
            path: gen_string(rng),
            kind: *rng.pick(&[QueryKind::Select, QueryKind::Ask, QueryKind::Keyword]),
            thread,
            at,
            latency: Duration::from_micros(rng.gen_range(0..500_000u64)),
        },
        _ => TraceEvent::Cache {
            path: gen_string(rng),
            hit: rng.gen_bool(0.5),
            thread,
            at,
        },
    }
}

fn gen_bus_event(rng: &mut TestRng) -> BusEvent {
    let at = Duration::from_micros(rng.gen_range(0..5_000_000u64));
    match rng.gen_range(0..4u32) {
        0 => BusEvent::Trace(gen_trace_event(rng)),
        1 => BusEvent::Counter {
            name: gen_string(rng),
            delta: rng.gen_range(0..1_000u64),
            at,
        },
        // f64 gauge values built from small integer halves round-trip
        // exactly through Rust's shortest-repr Display
        2 => BusEvent::Gauge {
            name: gen_string(rng),
            value: rng.gen_range(-200i64..200i64) as f64 / 2.0,
            at,
        },
        _ => BusEvent::Observe {
            name: gen_string(rng),
            latency: Duration::from_micros(rng.gen_range(0..500_000u64)),
            at,
        },
    }
}

#[test]
fn trace_jsonl_roundtrips_byte_identically() {
    check("trace_jsonl_roundtrip", |rng| {
        let events: Vec<TraceEvent> = (0..rng.gen_range(0..40usize))
            .map(|_| gen_trace_event(rng))
            .collect();
        let jsonl = events_to_jsonl(&events);
        let parsed = parse_trace_events(&jsonl).expect("exporter output parses");
        assert_eq!(parsed, events, "micros-granularity events parse exactly");
        assert_eq!(
            events_to_jsonl(&parsed),
            jsonl,
            "serialize → parse → serialize is the identity on bytes"
        );
    });
}

#[test]
fn bus_jsonl_roundtrips_byte_identically() {
    check("bus_jsonl_roundtrip", |rng| {
        let events: Vec<BusEvent> = (0..rng.gen_range(0..40usize))
            .map(|_| gen_bus_event(rng))
            .collect();
        let jsonl = bus_events_to_jsonl(&events);
        let parsed = parse_bus_events(&jsonl).expect("exporter output parses");
        assert_eq!(parsed, events);
        assert_eq!(bus_events_to_jsonl(&parsed), jsonl);
    });
}
