//! # re2x-obs — observability for the RE2X pipeline
//!
//! A zero-dependency tracing and metrics layer:
//!
//! * [`Tracer`] — span-based tracer with RAII guards ([`SpanGuard`]),
//!   per-thread nesting, and wall-/self-time accounting;
//! * query provenance — [`Tracer::record_query`] attributes every SPARQL
//!   query to the pipeline phase (innermost span path) that issued it,
//!   with per-phase counts and latency quantiles ([`PhaseQueryStats`]);
//! * [`Metrics`] — a registry of named counters, gauges, and latency
//!   histograms built on the fixed-bucket [`LatencyHistogram`] (moved
//!   here from `re2x-sparql`, which re-exports it);
//! * exporters ([`export`]) — JSONL event log, Prometheus-style text
//!   exposition, and a flamegraph-style self-time tree;
//! * [`EventBus`] — a bounded, poison-tolerant live fan-out of trace
//!   events and metric deltas ([`Tracer::subscribe`]); producers never
//!   block and pay nothing (one atomic load) while nobody listens;
//! * a JSONL parser ([`parse`]) — the exporters' inverse, so recorded
//!   logs replay offline (`repro watch`);
//! * poison-tolerant locking ([`sync`]) — [`lock_or_recover`] /
//!   [`wait_or_recover`] strip poison instead of cascading panics, and
//!   with `RE2X_LOCK_WITNESS=1` double as a runtime **lock witness**:
//!   each acquisition records the nesting edges real threads perform
//!   ([`witness_edges`]), which the `re2x-lint` witness gate checks
//!   against the static `// lock-order:` registry.
//!
//! The crate is a dependency *leaf*: every layer of the workspace,
//! including `re2x-sparql` at the bottom of the stack, can depend on it
//! without cycles. A disabled tracer ([`Tracer::disabled`], the default)
//! costs nothing — no allocation, no locking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod export;
pub mod hist;
pub mod metrics;
pub mod parse;
pub mod sync;
pub mod tracer;

pub use bus::{BusEvent, EventBus, EventStream, DEFAULT_SUBSCRIBER_CAPACITY};
pub use export::{
    aggregate_spans, bus_event_to_json, bus_events_to_jsonl, event_to_json, events_to_jsonl,
    fmt_duration, json_escape, prom_escape, prometheus_exposition, render_self_time_tree,
    render_self_time_tree_from, SpanAgg,
};
pub use hist::LatencyHistogram;
pub use metrics::{label, HistogramSnapshot, Metrics, MetricsSnapshot};
pub use parse::{
    parse_bus_event, parse_bus_events, parse_trace_event, parse_trace_events, ParseError,
};
pub use sync::{
    lock_or_recover, wait_or_recover, witness_edges, witness_enable_for_tests, witness_enabled,
    witness_reset, ObservedEdge, WitnessGuard,
};
pub use tracer::{PhaseQueryStats, QueryKind, SpanGuard, TraceEvent, Tracer, UNATTRIBUTED};
