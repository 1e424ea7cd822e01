//! The `trace` experiment: runs the full pipeline — bootstrap, synthesis,
//! execution, refinement — with the tracer enabled over an endpoint with
//! injected latency, and emits a machine-readable phase-attributed cost
//! breakdown (`bench_results/trace.json`).
//!
//! This reproduces the paper's Figs. 6–9 observation in one artifact:
//! under realistic endpoint latency, endpoint time dominates the total
//! pipeline wall time (the emitted `endpoint_fraction` is expected to be
//! ≥ 0.8 with even 1–2 ms of injected latency).
//!
//! The [`TracingEndpoint`] sits directly over the [`LocalEndpoint`] — no
//! cache in between — so the per-phase query counts in the provenance
//! table sum *exactly* to the endpoint's own [`EndpointStats`], which the
//! integration tests assert.

use crate::report::{fmt_duration, Table};
use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_obs::export::{aggregate_spans, events_to_jsonl, json_escape, render_self_time_tree};
use re2x_obs::{PhaseQueryStats, TraceEvent, Tracer};
use re2x_sparql::{EndpointStats, LocalEndpoint, SparqlEndpoint, TracingEndpoint};
use re2xolap::{RefineOp, Session, SessionConfig};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The coarse pipeline phases the span paths are classified into.
pub const PHASES: [&str; 4] = ["bootstrap", "synthesis", "execution", "refinement"];

/// Classifies a span path into one of [`PHASES`] (or `"other"`).
pub fn phase_of(path: &str) -> &'static str {
    // The span path is a '/'-joined chain; the phase is decided by the
    // outermost phase-bearing segment so nested spans (e.g.
    // `session.synthesize/reolap/reolap.validate`) attribute to the phase
    // that initiated them.
    for segment in path.split('/') {
        if segment.starts_with("bootstrap") {
            return "bootstrap";
        }
        if segment.starts_with("session.synthesize") || segment.starts_with("reolap") {
            return "synthesis";
        }
        if segment.starts_with("session.execute") {
            return "execution";
        }
        if segment.starts_with("session.refine") {
            return "refinement";
        }
    }
    "other"
}

/// Everything one traced pipeline run produced.
pub struct TraceReport {
    /// Wall-clock time of the whole pipeline (the root span).
    pub pipeline_wall: Duration,
    /// Injected per-query endpoint latency.
    pub injected: Duration,
    /// Endpoint statistics of the run.
    pub stats: EndpointStats,
    /// Query provenance by full span path.
    pub provenance: Vec<(String, PhaseQueryStats)>,
    /// The raw trace event log.
    pub events: Vec<TraceEvent>,
}

impl TraceReport {
    /// Fraction of the pipeline wall time spent inside the endpoint. The
    /// pipeline issues every query on one thread, so the busy intervals are
    /// disjoint sub-intervals of the wall time and the fraction lies in
    /// `[0, 1]`.
    pub fn endpoint_fraction(&self) -> f64 {
        if self.pipeline_wall.is_zero() {
            return 0.0;
        }
        self.stats.busy.as_secs_f64() / self.pipeline_wall.as_secs_f64()
    }

    /// Provenance rolled up into the coarse [`PHASES`].
    pub fn phase_rollup(&self) -> Vec<(&'static str, PhaseQueryStats)> {
        let mut rollup: Vec<(&'static str, PhaseQueryStats)> = PHASES
            .iter()
            .map(|&p| (p, PhaseQueryStats::default()))
            .chain(std::iter::once(("other", PhaseQueryStats::default())))
            .collect();
        for (path, stats) in &self.provenance {
            let phase = phase_of(path);
            let slot = rollup
                .iter_mut()
                .find(|(p, _)| *p == phase)
                .expect("phase slot exists");
            slot.1.merge(stats);
        }
        rollup.retain(|(_, s)| s.queries() + s.cache_hits + s.cache_misses > 0);
        rollup
    }

    /// The machine-readable `trace.json` artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"pipeline_wall_us\": {},",
            self.pipeline_wall.as_micros()
        );
        let _ = writeln!(
            out,
            "  \"injected_latency_us\": {},",
            self.injected.as_micros()
        );
        let _ = writeln!(
            out,
            "  \"endpoint_busy_us\": {},",
            self.stats.busy.as_micros()
        );
        let _ = writeln!(
            out,
            "  \"endpoint_queries\": {},",
            self.stats.total_queries()
        );
        let _ = writeln!(
            out,
            "  \"endpoint_fraction\": {:.4},",
            self.endpoint_fraction()
        );
        out.push_str("  \"phases\": [\n");
        let rollup = self.phase_rollup();
        for (i, (phase, stats)) in rollup.iter().enumerate() {
            let comma = if i + 1 < rollup.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"phase\": \"{}\", \"selects\": {}, \"asks\": {}, \
                 \"keyword_searches\": {}, \"busy_us\": {}, \"p50_us\": {}, \
                 \"p99_us\": {}, \"cache_hits\": {}, \"cache_misses\": {}}}{comma}",
                json_escape(phase),
                stats.selects,
                stats.asks,
                stats.keyword_searches,
                stats.busy.as_micros(),
                stats.latency.p50().unwrap_or_default().as_micros(),
                stats.latency.p99().unwrap_or_default().as_micros(),
                stats.cache_hits,
                stats.cache_misses,
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"spans\": [\n");
        let aggs = aggregate_spans(&self.events);
        for (i, agg) in aggs.iter().enumerate() {
            let comma = if i + 1 < aggs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"path\": \"{}\", \"count\": {}, \"wall_us\": {}, \"self_us\": {}}}{comma}",
                json_escape(&agg.path),
                agg.count,
                agg.wall.as_micros(),
                agg.self_time.as_micros(),
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// The raw event log as JSONL (for `RE2X_TRACE`).
    pub fn events_jsonl(&self) -> String {
        events_to_jsonl(&self.events)
    }

    /// Human-readable summary: per-phase table plus the self-time tree.
    pub fn summary(&self) -> String {
        let mut t = Table::new(["phase", "queries", "endpoint busy", "p50", "p99"]);
        for (phase, stats) in self.phase_rollup() {
            t.row([
                phase.to_owned(),
                stats.queries().to_string(),
                fmt_duration(stats.busy),
                stats.latency.p50().map_or("—".to_owned(), fmt_duration),
                stats.latency.p99().map_or("—".to_owned(), fmt_duration),
            ]);
        }
        let mut out = t.render();
        let _ = writeln!(
            out,
            "\npipeline wall {}  endpoint busy {}  endpoint fraction {:.1}%\n",
            fmt_duration(self.pipeline_wall),
            fmt_duration(self.stats.busy),
            100.0 * self.endpoint_fraction(),
        );
        out.push_str("Self-time tree:\n\n");
        out.push_str(&render_self_time_tree(&self.events));
        out
    }
}

/// Runs the traced end-to-end pipeline on the running-example dataset with
/// `injected` per-query endpoint latency.
pub fn run(injected: Duration) -> TraceReport {
    let tracer = Tracer::enabled();
    let mut dataset = re2x_datagen::running::generate();
    let graph = std::mem::take(&mut dataset.graph);
    // Tracing sits directly over the local endpoint — no cache — so the
    // provenance table reconciles exactly with EndpointStats.
    let endpoint = TracingEndpoint::new(
        LocalEndpoint::new(graph).with_latency(injected),
        tracer.clone(),
    );

    let start = Instant::now();
    let pipeline_wall;
    {
        let _pipeline = tracer.span("pipeline");
        let bootstrap_config =
            BootstrapConfig::new(dataset.observation_class.clone()).with_tracer(tracer.clone());
        let report = bootstrap(&endpoint, &bootstrap_config).expect("bootstrap");

        let session_config = SessionConfig {
            tracer: tracer.clone(),
            ..SessionConfig::default()
        };
        let mut session = Session::new(&endpoint, &report.schema, session_config);
        let outcome = session
            .synthesize(&["Germany", "2014"])
            .expect("synthesis on the running example");
        session
            .choose(outcome.queries[0].clone())
            .expect("query runs");
        let refinements = session
            .refinements(RefineOp::Disaggregate)
            .expect("refinements");
        if let Some(refinement) = refinements.into_iter().next() {
            session.apply(refinement).expect("refined query runs");
        }
        let tops = session.refinements(RefineOp::TopK).expect("top-k");
        if let Some(top) = tops.into_iter().next() {
            session.apply(top).expect("top-k query runs");
        }
        pipeline_wall = start.elapsed();
    }

    TraceReport {
        pipeline_wall,
        injected,
        stats: endpoint.stats(),
        provenance: tracer.provenance(),
        events: tracer.take_events(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_classification_covers_the_span_vocabulary() {
        assert_eq!(phase_of("pipeline/bootstrap"), "bootstrap");
        assert_eq!(
            phase_of("pipeline/bootstrap/bootstrap.crawl_dimension"),
            "bootstrap"
        );
        assert_eq!(phase_of("pipeline/session.synthesize"), "synthesis");
        assert_eq!(
            phase_of("pipeline/session.synthesize/reolap/reolap.validate"),
            "synthesis"
        );
        assert_eq!(phase_of("pipeline/session.execute"), "execution");
        assert_eq!(phase_of("pipeline/session.refine"), "refinement");
        assert_eq!(phase_of("(unattributed)"), "other");
    }

    #[test]
    fn traced_run_reconciles_and_emits_json() {
        let report = run(Duration::ZERO);
        // provenance counts sum exactly to the endpoint's own stats
        let attributed: u64 = report.provenance.iter().map(|(_, s)| s.queries()).sum();
        assert_eq!(attributed, report.stats.total_queries());
        assert!(report.stats.total_queries() > 10, "full pipeline ran");
        // every phase of the pipeline issued at least one query
        let rollup = report.phase_rollup();
        for phase in ["bootstrap", "synthesis", "execution"] {
            assert!(
                rollup.iter().any(|(p, s)| *p == phase && s.queries() > 0),
                "phase {phase} missing from {rollup:?}"
            );
        }
        // the artifact is structurally sound
        let json = report.to_json();
        assert!(json.contains("\"endpoint_fraction\""));
        assert!(json.contains("\"phase\": \"bootstrap\""));
        assert!(json.contains("\"spans\""));
        let fraction = report.endpoint_fraction();
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "serial pipeline: endpoint_fraction {fraction} must lie in (0, 1]"
        );
        let summary = report.summary();
        assert!(summary.contains("endpoint fraction"));
        assert!(summary.contains("pipeline"));
    }
}
