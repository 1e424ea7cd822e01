//! The span-based tracer: RAII span guards, per-thread nesting, wall- and
//! self-time accounting, query provenance, and a thread-safe collector.
//!
//! ## Span model
//!
//! A [`Tracer`] hands out [`SpanGuard`]s from [`Tracer::span`]; dropping
//! the guard closes the span. Spans nest **per thread**: each thread keeps
//! its own stack, so a span opened on a worker thread nests under
//! whatever that worker opened, never under another thread's spans.
//!
//! A span's **path** is the `/`-joined chain of span names from its root
//! (`"pipeline/bootstrap/bootstrap.crawl_dimension"`). The path is what
//! query provenance attributes costs to.
//!
//! ## Cost accounting
//!
//! * **wall time** — guard creation to guard drop,
//! * **self time** — wall time minus the wall time of child spans,
//! * **query provenance** — [`Tracer::record_query`] attributes a SPARQL
//!   query (and [`Tracer::record_cache`] a cache hit/miss) to the
//!   innermost span open on the calling thread.
//!
//! ## Disabled fast path
//!
//! [`Tracer::disabled`] (the `Default`) carries no collector at all:
//! `span()` returns an inert guard and every `record_*` call returns
//! immediately — no allocation, no lock, no thread-local access. The
//! micro-bench `crates/bench/benches/obs_overhead.rs` pins this with a
//! counting global allocator.

// lint:allow-file(no-wallclock, the tracer IS the timing layer: spans and events measure real wall time)

use crate::bus::{BusEvent, EventBus, EventStream, DEFAULT_SUBSCRIBER_CAPACITY};
use crate::hist::LatencyHistogram;
use crate::metrics::Metrics;
use crate::sync::lock_or_recover;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Provenance bucket for queries issued outside any open span.
pub const UNATTRIBUTED: &str = "(unattributed)";

static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small sequential per-thread id (stable within the process) used in
    /// trace events instead of the opaque `std::thread::ThreadId`.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Per-thread span stacks, one per tracer that has an open span on
    /// this thread (normally zero or one).
    static STACKS: RefCell<Vec<TracerStack>> = const { RefCell::new(Vec::new()) };
}

struct TracerStack {
    tracer: u64,
    frames: Vec<Frame>,
}

struct Frame {
    span: u64,
    path: String,
    start: Instant,
    /// Accumulated wall time of already-closed same-thread children.
    child: Duration,
}

fn current_thread() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// Index of the calling thread's stack for `tracer`, creating it when
/// this is the tracer's first frame on the thread. The returned index is
/// always in bounds: either `position` found it or `push` just added it.
fn stack_slot(stacks: &mut Vec<TracerStack>, tracer: u64) -> usize {
    match stacks.iter().position(|s| s.tracer == tracer) {
        Some(i) => i,
        None => {
            stacks.push(TracerStack {
                tracer,
                frames: Vec::new(),
            });
            stacks.len() - 1
        }
    }
}

/// Kind of endpoint call attributed by query provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// A `SELECT` query.
    Select,
    /// An `ASK` query.
    Ask,
    /// A full-text keyword lookup.
    Keyword,
}

impl QueryKind {
    /// Stable lowercase name used in exports.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryKind::Select => "select",
            QueryKind::Ask => "ask",
            QueryKind::Keyword => "keyword",
        }
    }
}

/// Per-span-path query statistics: which phase issued how many queries of
/// which kind, how much endpoint time they cost, and how the latency was
/// distributed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseQueryStats {
    /// `SELECT` queries attributed to this path.
    pub selects: u64,
    /// `ASK` queries attributed to this path.
    pub asks: u64,
    /// Keyword searches attributed to this path.
    pub keyword_searches: u64,
    /// Total endpoint time of the attributed queries.
    pub busy: Duration,
    /// Latency distribution of the attributed queries.
    pub latency: LatencyHistogram,
    /// Cache hits observed while this path was the innermost span.
    pub cache_hits: u64,
    /// Cache misses observed while this path was the innermost span.
    pub cache_misses: u64,
}

impl PhaseQueryStats {
    /// Total queries of all kinds attributed to this path.
    pub fn queries(&self) -> u64 {
        self.selects + self.asks + self.keyword_searches
    }

    /// Folds `other` into `self` (used to roll paths up into phases).
    pub fn merge(&mut self, other: &PhaseQueryStats) {
        self.selects += other.selects;
        self.asks += other.asks;
        self.keyword_searches += other.keyword_searches;
        self.busy += other.busy;
        self.latency.merge(&other.latency);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
    }
}

/// One entry of the trace event log. All timestamps (`at`) are offsets
/// from the tracer's construction instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span was opened.
    Enter {
        /// Process-unique span id.
        span: u64,
        /// Id of the parent span (the same-thread enclosing span).
        parent: Option<u64>,
        /// Full `/`-joined path of the span.
        path: String,
        /// The span's own name (last path segment).
        name: String,
        /// Sequential id of the opening thread.
        thread: u64,
        /// Offset from tracer construction.
        at: Duration,
        /// Key/value annotations given at creation.
        fields: Vec<(String, String)>,
    },
    /// A span was closed.
    Exit {
        /// Id of the span being closed.
        span: u64,
        /// Full path of the span.
        path: String,
        /// Sequential id of the closing thread.
        thread: u64,
        /// Offset from tracer construction.
        at: Duration,
        /// Creation-to-drop wall time.
        wall: Duration,
        /// Wall time minus same-thread children's wall time.
        self_time: Duration,
        /// Outcome annotations added through [`SpanGuard::record`] while
        /// the span was open.
        fields: Vec<(String, String)>,
    },
    /// A SPARQL query (or keyword lookup) was answered.
    Query {
        /// Path of the innermost open span on the issuing thread.
        path: String,
        /// Query kind.
        kind: QueryKind,
        /// Sequential id of the issuing thread.
        thread: u64,
        /// Offset from tracer construction.
        at: Duration,
        /// Endpoint time of this query.
        latency: Duration,
    },
    /// A cache lookup resolved (hit or miss).
    Cache {
        /// Path of the innermost open span on the issuing thread.
        path: String,
        /// Whether the lookup was a hit.
        hit: bool,
        /// Sequential id of the issuing thread.
        thread: u64,
        /// Offset from tracer construction.
        at: Duration,
    },
}

struct TracerCore {
    id: u64,
    epoch: Instant,
    next_span: AtomicU64,
    // lock-order: obs.tracer.events
    events: Mutex<Vec<TraceEvent>>,
    // lock-order: obs.tracer.provenance
    provenance: Mutex<BTreeMap<String, PhaseQueryStats>>,
    metrics: Metrics,
}

impl TracerCore {
    fn push_event(&self, event: TraceEvent) {
        // With no live subscriber the closure never runs (no clone, no
        // allocation); with one, the event fans out before it is archived.
        self.metrics
            .bus()
            .publish_with(|_| BusEvent::Trace(event.clone()));
        lock_or_recover("obs.tracer.events", &self.events).push(event);
    }

    fn now(&self) -> Duration {
        Instant::now().saturating_duration_since(self.epoch)
    }

    /// Path of the innermost span open on the calling thread, if any.
    fn current_path(&self) -> Option<String> {
        STACKS.with(|stacks| {
            stacks
                .borrow()
                .iter()
                .find(|s| s.tracer == self.id)
                .and_then(|s| s.frames.last())
                .map(|f| f.path.clone())
        })
    }
}

/// The span tracer. Cheap to clone (clones share one collector); the
/// `Default` tracer is disabled.
#[derive(Clone, Default)]
pub struct Tracer {
    core: Option<Arc<TracerCore>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that collects spans, events, provenance, and metrics.
    pub fn enabled() -> Tracer {
        // Trace events and metric deltas share one timebase: the tracer
        // epoch is the bus epoch.
        let bus = EventBus::new();
        Tracer {
            core: Some(Arc::new(TracerCore {
                id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
                epoch: bus.epoch(),
                next_span: AtomicU64::new(1),
                events: Mutex::new(Vec::new()),
                provenance: Mutex::new(BTreeMap::new()),
                metrics: Metrics::with_bus(bus),
            })),
        }
    }

    /// A tracer whose every operation is a no-op (no allocation, no lock).
    pub fn disabled() -> Tracer {
        Tracer { core: None }
    }

    /// [`Tracer::enabled`] when the `RE2X_TRACE` environment variable is
    /// set to anything but `0`, [`Tracer::disabled`] otherwise.
    pub fn from_env() -> Tracer {
        match std::env::var_os("RE2X_TRACE") {
            Some(v) if v != "0" => Tracer::enabled(),
            _ => Tracer::disabled(),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Opens a span nested under the calling thread's innermost open span.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        self.span_with(name, &[])
    }

    /// [`Tracer::span`] with key/value annotations on the enter event.
    pub fn span_with(&self, name: &str, fields: &[(&str, &str)]) -> SpanGuard<'_> {
        let Some(core) = self.core.as_deref() else {
            return SpanGuard {
                core: None,
                span: 0,
                fields: Vec::new(),
            };
        };
        let span = core.next_span.fetch_add(1, Ordering::Relaxed);
        let thread = current_thread();
        let start = Instant::now();
        let (parent, path) = STACKS.with(|stacks| {
            let mut stacks = stacks.borrow_mut();
            let idx = stack_slot(&mut stacks, core.id);
            let stack = &mut stacks[idx];
            let top = stack.frames.last();
            let parent = top.map(|f| f.span);
            let path = match top {
                Some(top) => format!("{}/{name}", top.path),
                None => name.to_owned(),
            };
            stack.frames.push(Frame {
                span,
                path: path.clone(),
                start,
                child: Duration::ZERO,
            });
            (parent, path)
        });
        core.push_event(TraceEvent::Enter {
            span,
            parent,
            path,
            name: name.to_owned(),
            thread,
            at: start.saturating_duration_since(core.epoch),
            fields: fields
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        });
        SpanGuard {
            core: Some(core),
            span,
            fields: Vec::new(),
        }
    }

    /// Path of the innermost span open on the calling thread, if any.
    pub fn current_path(&self) -> Option<String> {
        self.core.as_deref().and_then(TracerCore::current_path)
    }

    /// Attributes one endpoint query to the innermost open span on the
    /// calling thread (or to [`UNATTRIBUTED`]). No-op when disabled.
    pub fn record_query(&self, kind: QueryKind, latency: Duration) {
        let Some(core) = self.core.as_deref() else {
            return;
        };
        let path = core
            .current_path()
            .unwrap_or_else(|| UNATTRIBUTED.to_owned());
        {
            let mut prov = lock_or_recover("obs.tracer.provenance", &core.provenance);
            let stats = prov.entry(path.clone()).or_default();
            match kind {
                QueryKind::Select => stats.selects += 1,
                QueryKind::Ask => stats.asks += 1,
                QueryKind::Keyword => stats.keyword_searches += 1,
            }
            stats.busy += latency;
            stats.latency.record(latency);
        }
        let at = core.now();
        core.push_event(TraceEvent::Query {
            path,
            kind,
            thread: current_thread(),
            at,
            latency,
        });
    }

    /// Attributes one cache hit (or miss) to the innermost open span on the
    /// calling thread. No-op when disabled.
    pub fn record_cache(&self, hit: bool) {
        let Some(core) = self.core.as_deref() else {
            return;
        };
        let path = core
            .current_path()
            .unwrap_or_else(|| UNATTRIBUTED.to_owned());
        {
            let mut prov = lock_or_recover("obs.tracer.provenance", &core.provenance);
            let stats = prov.entry(path.clone()).or_default();
            if hit {
                stats.cache_hits += 1;
            } else {
                stats.cache_misses += 1;
            }
        }
        let at = core.now();
        core.push_event(TraceEvent::Cache {
            path,
            hit,
            thread: current_thread(),
            at,
        });
    }

    /// The metrics registry, if enabled. Instrumentation sites that only
    /// bump counters can use [`Tracer::counter_add`] instead.
    pub fn metrics(&self) -> Option<&Metrics> {
        self.core.as_deref().map(|c| &c.metrics)
    }

    /// The tracer's event bus, if enabled. Trace events and every metric
    /// delta recorded through this tracer's registry fan out on it.
    pub fn bus(&self) -> Option<&EventBus> {
        self.core.as_deref().map(|c| c.metrics.bus())
    }

    /// Subscribes to the live event stream with the default ring capacity
    /// ([`DEFAULT_SUBSCRIBER_CAPACITY`]). Disabled tracers return an
    /// inert stream that yields nothing.
    pub fn subscribe(&self) -> EventStream {
        self.subscribe_with_capacity(DEFAULT_SUBSCRIBER_CAPACITY)
    }

    /// [`Tracer::subscribe`] with an explicit bounded ring capacity; when
    /// the subscriber falls behind, the oldest events are dropped and
    /// counted in [`EventStream::dropped_events`].
    pub fn subscribe_with_capacity(&self, capacity: usize) -> EventStream {
        match self.core.as_deref() {
            Some(core) => core.metrics.bus().subscribe(capacity),
            None => EventStream::inert(),
        }
    }

    /// Adds to a named counter in the tracer's metrics registry. No-op
    /// when disabled.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(core) = self.core.as_deref() {
            core.metrics.counter_add(name, delta);
        }
    }

    /// Sets a named gauge in the tracer's metrics registry. No-op when
    /// disabled.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(core) = self.core.as_deref() {
            core.metrics.gauge_set(name, value);
        }
    }

    /// Records a latency observation in the tracer's metrics registry.
    /// No-op when disabled.
    pub fn observe(&self, name: &str, latency: Duration) {
        if let Some(core) = self.core.as_deref() {
            core.metrics.observe(name, latency);
        }
    }

    /// Copy of the event log in record order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.core
            .as_deref()
            .map(|c| lock_or_recover("obs.tracer.events", &c.events).clone())
            .unwrap_or_default()
    }

    /// Drains the event log (for long-running processes that export
    /// incrementally).
    pub fn take_events(&self) -> Vec<TraceEvent> {
        self.core
            .as_deref()
            .map(|c| std::mem::take(&mut *lock_or_recover("obs.tracer.events", &c.events)))
            .unwrap_or_default()
    }

    /// Snapshot of the query-provenance table, sorted by span path.
    pub fn provenance(&self) -> Vec<(String, PhaseQueryStats)> {
        self.core
            .as_deref()
            .map(|c| {
                lock_or_recover("obs.tracer.provenance", &c.provenance)
                    .iter()
                    .map(|(k, &v)| (k.clone(), v))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// RAII guard for an open span; dropping it closes the span. Created by
/// [`Tracer::span`] and friends.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    core: Option<&'a TracerCore>,
    span: u64,
    fields: Vec<(String, String)>,
}

impl SpanGuard<'_> {
    /// Annotates the span with an outcome only known once its work is done
    /// (rows fetched, branch taken); carried on the exit event. Inert — the
    /// value is not even formatted — for disabled tracers.
    pub fn record(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.core.is_some() {
            self.fields.push((key.to_owned(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(core) = self.core else {
            return;
        };
        let end = Instant::now();
        let popped = STACKS.with(|stacks| {
            let mut stacks = stacks.borrow_mut();
            let pos = stacks.iter().position(|s| s.tracer == core.id)?;
            let stack = &mut stacks[pos];
            // Normally ours is the top frame; tolerate out-of-order drops
            // (e.g. a guard stored past its siblings) by searching.
            let idx = stack.frames.iter().rposition(|f| f.span == self.span)?;
            let frame = stack.frames.remove(idx);
            let wall = end.saturating_duration_since(frame.start);
            if let Some(parent) = stack.frames.last_mut() {
                parent.child += wall;
            }
            if stack.frames.is_empty() {
                stacks.swap_remove(pos);
            }
            Some((frame, wall))
        });
        // A guard moved to (and dropped on) a different thread finds no
        // frame; the span then simply records no exit.
        if let Some((frame, wall)) = popped {
            let self_time = wall.saturating_sub(frame.child);
            core.push_event(TraceEvent::Exit {
                span: self.span,
                path: frame.path,
                thread: current_thread(),
                at: end.saturating_duration_since(core.epoch),
                wall,
                self_time,
                fields: std::mem::take(&mut self.fields),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exits(events: &[TraceEvent]) -> Vec<&TraceEvent> {
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exit { .. }))
            .collect()
    }

    #[test]
    fn spans_nest_and_compose_paths() {
        let tracer = Tracer::enabled();
        {
            let _a = tracer.span("a");
            assert_eq!(tracer.current_path().as_deref(), Some("a"));
            {
                let _b = tracer.span("b");
                assert_eq!(tracer.current_path().as_deref(), Some("a/b"));
            }
            assert_eq!(tracer.current_path().as_deref(), Some("a"));
        }
        assert_eq!(tracer.current_path(), None);
        let events = tracer.events();
        assert_eq!(events.len(), 4, "two enters, two exits");
        match &events[1] {
            TraceEvent::Enter {
                path, parent, name, ..
            } => {
                assert_eq!(path, "a/b");
                assert_eq!(name, "b");
                assert!(parent.is_some());
            }
            other => panic!("expected enter, got {other:?}"),
        }
    }

    #[test]
    fn self_time_excludes_children_and_stays_below_wall() {
        let tracer = Tracer::enabled();
        {
            let _outer = tracer.span("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = tracer.span("inner");
                std::thread::sleep(Duration::from_millis(4));
            }
        }
        let events = tracer.events();
        for e in exits(&events) {
            if let TraceEvent::Exit {
                path,
                wall,
                self_time,
                ..
            } = e
            {
                assert!(
                    self_time <= wall,
                    "{path}: self {self_time:?} > wall {wall:?}"
                );
                if path == "outer" {
                    assert!(
                        *self_time < *wall,
                        "outer self time must exclude inner's 4 ms"
                    );
                    assert!(*wall >= Duration::from_millis(6));
                    assert!(*self_time < Duration::from_millis(5));
                }
            }
        }
    }

    #[test]
    fn every_exit_matches_an_enter() {
        let tracer = Tracer::enabled();
        {
            let _a = tracer.span("a");
            let _b = tracer.span("b");
        }
        let events = tracer.events();
        let mut open: Vec<u64> = Vec::new();
        for e in &events {
            match e {
                TraceEvent::Enter { span, .. } => open.push(*span),
                TraceEvent::Exit { span, .. } => {
                    let last = open.pop().expect("exit without open span");
                    assert_eq!(last, *span, "exits must be LIFO per thread");
                }
                TraceEvent::Query { .. } | TraceEvent::Cache { .. } => {}
            }
        }
        assert!(open.is_empty(), "all spans closed");
    }

    #[test]
    fn queries_are_attributed_to_the_innermost_span() {
        let tracer = Tracer::enabled();
        tracer.record_query(QueryKind::Select, Duration::from_micros(5));
        {
            let _a = tracer.span("phase_a");
            tracer.record_query(QueryKind::Select, Duration::from_micros(10));
            tracer.record_query(QueryKind::Ask, Duration::from_micros(10));
            {
                let _b = tracer.span("inner");
                tracer.record_query(QueryKind::Keyword, Duration::from_micros(20));
            }
        }
        let prov = tracer.provenance();
        let by_path: BTreeMap<&str, &PhaseQueryStats> =
            prov.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(by_path[UNATTRIBUTED].selects, 1);
        assert_eq!(by_path["phase_a"].selects, 1);
        assert_eq!(by_path["phase_a"].asks, 1);
        assert_eq!(by_path["phase_a"].busy, Duration::from_micros(20));
        assert_eq!(by_path["phase_a/inner"].keyword_searches, 1);
        let total: u64 = prov.iter().map(|(_, s)| s.queries()).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn cache_events_are_attributed_per_phase() {
        let tracer = Tracer::enabled();
        {
            let _a = tracer.span("phase_a");
            tracer.record_cache(false);
            tracer.record_cache(true);
            tracer.record_cache(true);
        }
        let prov = tracer.provenance();
        assert_eq!(prov.len(), 1);
        assert_eq!(prov[0].1.cache_hits, 2);
        assert_eq!(prov[0].1.cache_misses, 1);
        assert_eq!(prov[0].1.queries(), 0, "cache events are not queries");
        // cache lookups also land in the event log for live consumers
        let hits = tracer
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Cache { hit: true, .. }))
            .count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn subscribers_see_spans_queries_and_metric_deltas_live() {
        let tracer = Tracer::enabled();
        let stream = tracer.subscribe();
        {
            let _a = tracer.span("phase_a");
            tracer.record_query(QueryKind::Select, Duration::from_micros(7));
            tracer.record_cache(true);
            tracer.counter_add("c", 3);
        }
        let events = stream.poll();
        assert!(events
            .iter()
            .any(|e| matches!(e, crate::bus::BusEvent::Trace(TraceEvent::Enter { .. }))));
        assert!(events
            .iter()
            .any(|e| matches!(e, crate::bus::BusEvent::Trace(TraceEvent::Query { .. }))));
        assert!(events.iter().any(|e| matches!(
            e,
            crate::bus::BusEvent::Trace(TraceEvent::Cache { hit: true, .. })
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e, crate::bus::BusEvent::Trace(TraceEvent::Exit { .. }))));
        assert!(events.iter().any(
            |e| matches!(e, crate::bus::BusEvent::Counter { name, delta: 3, .. } if name == "c")
        ));
        assert_eq!(stream.dropped_events(), 0);
        // the archived log is unaffected by live subscription
        assert_eq!(tracer.events().len(), 4, "enter, query, cache, exit");
    }

    #[test]
    fn disabled_tracer_subscription_is_inert() {
        let tracer = Tracer::disabled();
        assert!(tracer.bus().is_none());
        let stream = tracer.subscribe();
        assert!(!stream.is_live());
        drop(tracer.span("a"));
        assert!(stream.poll().is_empty());
    }

    #[test]
    fn phase_stats_merge_preserves_counts() {
        let mut a = PhaseQueryStats {
            selects: 1,
            busy: Duration::from_micros(5),
            ..Default::default()
        };
        a.latency.record(Duration::from_micros(5));
        let mut b = PhaseQueryStats {
            asks: 2,
            cache_hits: 3,
            busy: Duration::from_micros(7),
            ..Default::default()
        };
        b.latency.record(Duration::from_micros(7));
        a.merge(&b);
        assert_eq!(a.queries(), 3);
        assert_eq!(a.busy, Duration::from_micros(12));
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.cache_hits, 3);
    }

    #[test]
    fn recorded_outcomes_ride_on_the_exit_event() {
        let tracer = Tracer::enabled();
        {
            let mut fetch = tracer.span("fetch");
            fetch.record("rows", 42);
            fetch.record("truncated", false);
            let _plain = tracer.span("plain");
        }
        let exits: Vec<(String, Vec<(String, String)>)> = tracer
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Exit { path, fields, .. } => Some((path, fields)),
                _ => None,
            })
            .collect();
        let field = |k: &str, v: &str| (k.to_owned(), v.to_owned());
        assert_eq!(
            exits,
            vec![
                ("fetch/plain".to_owned(), Vec::new()),
                (
                    "fetch".to_owned(),
                    vec![field("rows", "42"), field("truncated", "false")]
                ),
            ]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        {
            let mut guard = tracer.span("a");
            guard.record("rows", 1);
            tracer.record_query(QueryKind::Select, Duration::from_micros(1));
            tracer.record_cache(true);
            tracer.counter_add("c", 1);
            assert_eq!(tracer.current_path(), None);
        }
        assert!(tracer.events().is_empty());
        assert!(tracer.provenance().is_empty());
        assert!(tracer.metrics().is_none());
    }

    #[test]
    fn clones_share_the_collector() {
        let tracer = Tracer::enabled();
        let clone = tracer.clone();
        {
            let _a = clone.span("a");
            tracer.record_query(QueryKind::Select, Duration::ZERO);
        }
        assert_eq!(tracer.events().len(), 3);
        assert_eq!(clone.provenance().len(), 1);
        assert_eq!(clone.provenance()[0].0, "a");
    }

    #[test]
    fn take_events_drains() {
        let tracer = Tracer::enabled();
        drop(tracer.span("a"));
        assert_eq!(tracer.take_events().len(), 2);
        assert!(tracer.events().is_empty());
    }

    #[test]
    fn concurrent_tracing_is_consistent() {
        let tracer = Tracer::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tracer = &tracer;
                scope.spawn(move || {
                    for _ in 0..25 {
                        let _s = tracer.span("work");
                        tracer.record_query(QueryKind::Select, Duration::from_micros(1));
                    }
                });
            }
        });
        let events = tracer.events();
        let enters = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Enter { .. }))
            .count();
        let exits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Exit { .. }))
            .count();
        assert_eq!(enters, 100);
        assert_eq!(exits, 100);
        let total: u64 = tracer.provenance().iter().map(|(_, s)| s.queries()).sum();
        assert_eq!(total, 100);
    }
}
