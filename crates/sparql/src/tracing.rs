//! A query-provenance endpoint decorator.
//!
//! [`TracingEndpoint`] wraps any [`SparqlEndpoint`] and attributes every
//! query passing through it to the pipeline phase that issued it — the
//! innermost span open on the calling thread of the wrapped
//! [`Tracer`] — along with its latency. The result is the per-phase
//! query-count and latency-quantile table ([`Tracer::provenance`]) that the
//! paper's cost-attribution figures (bootstrap vs. synthesis vs.
//! refinement, "endpoint performance dominates") are built from.
//!
//! With a disabled tracer the decorator is transparent: it delegates
//! without timing, locking, or allocating. Place it directly over the
//! endpoint whose `stats()` you want provenance to reconcile with —
//! outermost in the stack, so that per-phase counts sum exactly to the
//! queries the stack answered (over a [`crate::CachingEndpoint`] that is
//! hits + misses; over a bare [`crate::LocalEndpoint`],
//! `EndpointStats::total_queries`).

// lint:allow-file(no-wallclock, measures per-query endpoint latency for span attribution)

use crate::ast::Query;
use crate::endpoint::{EndpointStats, SparqlEndpoint};
use crate::error::SparqlError;
use crate::value::Solutions;
use re2x_obs::{QueryKind, Tracer};
use re2x_rdf::{Graph, TermId};
use std::time::Instant;

/// A [`SparqlEndpoint`] decorator that attributes every query to the
/// current tracer span (query provenance).
pub struct TracingEndpoint<E> {
    inner: E,
    tracer: Tracer,
}

impl<E: SparqlEndpoint> TracingEndpoint<E> {
    /// Wraps `inner`, attributing its queries through `tracer`.
    pub fn new(inner: E, tracer: Tracer) -> TracingEndpoint<E> {
        TracingEndpoint { inner, tracer }
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// The tracer queries are attributed through.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }
}

impl<E: SparqlEndpoint> SparqlEndpoint for TracingEndpoint<E> {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        if !self.tracer.is_enabled() {
            return self.inner.select(query);
        }
        let start = Instant::now();
        let result = self.inner.select(query);
        self.tracer.record_query(QueryKind::Select, start.elapsed());
        result
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        if !self.tracer.is_enabled() {
            return self.inner.ask(query);
        }
        let start = Instant::now();
        let result = self.inner.ask(query);
        self.tracer.record_query(QueryKind::Ask, start.elapsed());
        result
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        if !self.tracer.is_enabled() {
            return self.inner.keyword_search(keyword, exact);
        }
        let start = Instant::now();
        let hits = self.inner.keyword_search(keyword, exact);
        self.tracer
            .record_query(QueryKind::Keyword, start.elapsed());
        hits
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn stats(&self) -> EndpointStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::LocalEndpoint;
    use re2x_obs::UNATTRIBUTED;
    use re2x_rdf::io::parse_turtle;

    fn local() -> LocalEndpoint {
        let mut g = Graph::new();
        parse_turtle(
            r#"@prefix ex: <http://ex/> .
            ex:o1 ex:dest ex:Germany .
            ex:Germany ex:label "Germany" .
            "#,
            &mut g,
        )
        .expect("parse");
        LocalEndpoint::new(g)
    }

    #[test]
    fn queries_are_attributed_to_the_open_span() {
        let tracer = Tracer::enabled();
        let ep = TracingEndpoint::new(local(), tracer.clone());
        {
            let _phase = tracer.span("bootstrap");
            let _ = ep
                .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                .expect("query");
            let _ = ep
                .ask_text("ASK { ?o <http://ex/dest> <http://ex/Germany> }")
                .expect("ask");
        }
        let _ = ep.keyword_search("germany", true);
        let prov = tracer.provenance();
        let by_path: std::collections::BTreeMap<&str, _> =
            prov.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(by_path["bootstrap"].selects, 1);
        assert_eq!(by_path["bootstrap"].asks, 1);
        assert_eq!(by_path[UNATTRIBUTED].keyword_searches, 1);
    }

    #[test]
    fn provenance_counts_reconcile_with_endpoint_stats() {
        let tracer = Tracer::enabled();
        let ep = TracingEndpoint::new(local(), tracer.clone());
        {
            let _a = tracer.span("a");
            for _ in 0..3 {
                let _ = ep
                    .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                    .expect("query");
            }
        }
        {
            let _b = tracer.span("b");
            let _ = ep.keyword_search("germany", false);
        }
        let attributed: u64 = tracer.provenance().iter().map(|(_, s)| s.queries()).sum();
        assert_eq!(attributed, ep.stats().total_queries());
    }

    #[test]
    fn disabled_tracer_decorates_transparently() {
        let ep = TracingEndpoint::new(local(), Tracer::disabled());
        let _ = ep
            .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
            .expect("query");
        assert_eq!(ep.stats().selects, 1);
        assert!(ep.tracer().provenance().is_empty());
    }

    #[test]
    fn stats_and_graph_pass_through() {
        let tracer = Tracer::enabled();
        let ep = TracingEndpoint::new(local(), tracer);
        assert_eq!(ep.stats(), EndpointStats::default());
        assert!(!ep.graph().is_empty());
        ep.reset_stats();
        assert_eq!(ep.into_inner().stats(), EndpointStats::default());
    }
}
