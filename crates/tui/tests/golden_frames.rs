//! Golden-frame tests: a hand-scripted, fully deterministic event log is
//! rendered through the replay pipeline and pinned byte-for-byte against
//! committed fixtures. Regenerate with `RE2X_UPDATE_GOLDENS=1 cargo test
//! -p re2x-tui` after an intentional layout change.

use re2x_obs::{bus_events_to_jsonl, parse_bus_events, BusEvent, QueryKind, TraceEvent};
use re2x_tui::{render_script, render_with, DashboardState, RenderOptions};
use std::path::Path;
use std::time::Duration;

const SESSION_FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/watch_session.jsonl"
);
const FRAMES_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/watch_frames.golden.txt"
);

/// The goldens replay at the default cadence ([`re2x_tui::FRAME_INTERVAL`],
/// 250ms) — the same invocation `repro watch --headless` uses.
const SCRIPT_INTERVAL: Duration = re2x_tui::FRAME_INTERVAL;

fn us(micros: u64) -> Duration {
    Duration::from_micros(micros)
}

/// Event-time offset: the scripted session spans ~900ms so the default
/// 250ms cadence produces several frames.
fn at(micros: u64) -> Duration {
    Duration::from_micros(micros * 300)
}

/// A deterministic synthetic session exercising every dashboard section:
/// nested spans, all three query kinds, cache hits/misses/evictions,
/// two tenants' serve metrics, and the shard panel.
fn scripted_events() -> Vec<BusEvent> {
    let enter = |span, parent, path: &str, name: &str, at| {
        BusEvent::Trace(TraceEvent::Enter {
            span,
            parent,
            path: path.to_owned(),
            name: name.to_owned(),
            thread: 0,
            at,
            fields: Vec::new(),
        })
    };
    let exit = |span, path: &str, at, wall, self_time| {
        BusEvent::Trace(TraceEvent::Exit {
            span,
            path: path.to_owned(),
            thread: 0,
            at,
            wall,
            self_time,
            fields: Vec::new(),
        })
    };
    let query = |path: &str, kind, at, latency| {
        BusEvent::Trace(TraceEvent::Query {
            path: path.to_owned(),
            kind,
            thread: 0,
            at,
            latency,
        })
    };
    let cache = |path: &str, hit, at| {
        BusEvent::Trace(TraceEvent::Cache {
            path: path.to_owned(),
            hit,
            thread: 0,
            at,
        })
    };
    let counter = |name: &str, delta, at| BusEvent::Counter {
        name: name.to_owned(),
        delta,
        at,
    };

    vec![
        enter(1, None, "session", "session", at(100)),
        enter(2, Some(1), "session/discover", "discover", at(200)),
        query("session/discover", QueryKind::Select, at(900), us(650)),
        cache("session/discover", false, at(950)),
        counter("cache.evictions", 1, at(960)),
        exit(2, "session/discover", at(1_200), us(1_000), us(1_000)),
        enter(3, Some(1), "session/expand", "expand", at(1_300)),
        query("session/expand", QueryKind::Keyword, at(1_900), us(400)),
        cache("session/expand", true, at(2_000)),
        exit(3, "session/expand", at(2_100), us(800), us(800)),
        counter("serve.sessions_admitted{tenant=\"adhoc\"}", 2, at(2_200)),
        counter(
            "serve.rounds{tenant=\"adhoc\",phase=\"execute\"}",
            3,
            at(2_300),
        ),
        BusEvent::Gauge {
            name: "serve.sessions_active{tenant=\"adhoc\"}".to_owned(),
            value: 1.0,
            at: at(2_400),
        },
        BusEvent::Observe {
            name: "serve.queue_wait{tenant=\"adhoc\"}".to_owned(),
            latency: us(120),
            at: at(2_500),
        },
        BusEvent::Observe {
            name: "serve.round_latency{tenant=\"adhoc\"}".to_owned(),
            latency: us(2_000),
            at: at(2_600),
        },
        counter("serve.sessions_admitted{tenant=\"batch\"}", 1, at(2_700)),
        counter(
            "serve.sessions_budget_exhausted{tenant=\"batch\"}",
            1,
            at(2_750),
        ),
        BusEvent::Gauge {
            name: "shard_skew".to_owned(),
            value: 1.18,
            at: at(2_800),
        },
        counter("sharded_scatter_queries", 5, at(2_850)),
        counter("sharded_fallback_queries", 1, at(2_900)),
        query("session", QueryKind::Ask, at(2_950), us(50)),
        exit(1, "session", at(3_000), us(2_900), us(1_100)),
    ]
}

fn check_golden(path: &str, actual: &str) {
    if std::env::var_os("RE2X_UPDATE_GOLDENS").is_some() {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!("missing golden {path} ({e}); regenerate with RE2X_UPDATE_GOLDENS=1")
    });
    assert_eq!(
        actual,
        expected,
        "golden mismatch for {}; regenerate with RE2X_UPDATE_GOLDENS=1 if intentional",
        Path::new(path)
            .file_name()
            .map_or(path, |f| f.to_str().unwrap_or(path)),
    );
}

#[test]
fn scripted_session_fixture_is_pinned() {
    check_golden(SESSION_FIXTURE, &bus_events_to_jsonl(&scripted_events()));
}

#[test]
fn scripted_replay_matches_the_golden_script() {
    let script = render_script(
        &scripted_events(),
        SCRIPT_INTERVAL,
        RenderOptions::default(),
    );
    check_golden(FRAMES_GOLDEN, &script);
}

#[test]
fn replaying_the_jsonl_fixture_reproduces_the_golden_script() {
    // The exact path `repro watch --headless` takes: read JSONL from disk,
    // parse, replay — no live tracer involved.
    // In regeneration mode don't race the test that writes the fixture —
    // produce the identical bytes in memory instead.
    let jsonl = if std::env::var_os("RE2X_UPDATE_GOLDENS").is_some() {
        bus_events_to_jsonl(&scripted_events())
    } else {
        std::fs::read_to_string(SESSION_FIXTURE).expect("fixture exists")
    };
    let events = parse_bus_events(&jsonl).expect("fixture parses");
    assert_eq!(events, scripted_events(), "fixture drifted from script");
    let script = render_script(&events, SCRIPT_INTERVAL, RenderOptions::default());
    check_golden(FRAMES_GOLDEN, &script);
}

#[test]
fn final_frame_is_invariant_under_chunked_application() {
    // Property: folding the log in arbitrary batch sizes (as a live
    // subscriber would, polling at unpredictable times) renders the same
    // final frame as one-shot application. Runs under seeded RE2X_TEST_SEED
    // variation, so it also proves the golden does not depend on the seed.
    let events = scripted_events();
    let mut reference = DashboardState::new();
    reference.apply_all(&events);
    let reference_frame = render_with(&reference, RenderOptions::default());

    re2x_testkit::check("tui.chunked_apply_invariance", |rng| {
        let mut state = DashboardState::new();
        let mut rest = events.as_slice();
        while !rest.is_empty() {
            let take = rng.gen_range(1..rest.len() + 1);
            state.apply_all(&rest[..take]);
            rest = &rest[take..];
        }
        let frame = render_with(&state, RenderOptions::default());
        assert_eq!(frame, reference_frame);
        assert_eq!(frame.to_plain(), reference_frame.to_plain());
    });
}
