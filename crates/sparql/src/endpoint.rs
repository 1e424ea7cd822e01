//! The SPARQL endpoint seam.
//!
//! RE²xOLAP interacts with the triplestore *only* through a standard SPARQL
//! interface (the paper runs against Virtuoso). [`SparqlEndpoint`] is that
//! seam; [`LocalEndpoint`] implements it over an in-memory [`Graph`] and
//! additionally records per-query statistics and can inject an artificial
//! per-query latency, which the experiment harness uses to reproduce the
//! paper's observations about endpoint performance dominating bootstrap and
//! refinement costs.
//!
//! Endpoints compose as a decorator stack: [`LocalEndpoint`] at the bottom,
//! [`crate::CachingEndpoint`] memoizing repeated queries above it, and — as
//! the architecture scales out — sharded/multi-backend decorators above
//! that. The trait therefore requires `Send + Sync`: every decorator and
//! backend must be shareable across the crawler's worker threads.

// lint:allow-file(no-wallclock, endpoint latency accounting and the injected-latency test layer)

use crate::ast::Query;
use crate::error::SparqlError;
use crate::eval::{evaluate, evaluate_ask, evaluate_ids, Selected};
use crate::parser::parse_query;
use crate::value::{Solutions, Value};
use re2x_obs::lock_or_recover;
use re2x_rdf::{Graph, TermId};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// The histogram moved to the zero-dependency `re2x-obs` crate so that
// endpoint statistics, the metrics registry, and per-phase query
// provenance all bucket latencies identically; the old path keeps working
// through this re-export.
pub use re2x_obs::LatencyHistogram;

/// Cumulative statistics of an endpoint.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EndpointStats {
    /// Number of `SELECT` queries answered.
    pub selects: u64,
    /// Number of `ASK` queries answered.
    pub asks: u64,
    /// Number of keyword-search calls answered.
    pub keyword_searches: u64,
    /// Total rows returned by `SELECT` queries.
    pub rows_returned: u64,
    /// Total evaluation time (including injected latency).
    pub busy: Duration,
    /// Queries answered from a cache decorator without reaching this
    /// endpoint (zero on an undecorated endpoint).
    pub cache_hits: u64,
    /// Queries that missed every cache decorator and were evaluated.
    pub cache_misses: u64,
    /// Cache entries evicted by the decorators' LRU bound.
    pub cache_evictions: u64,
    /// Per-query latency distribution (including injected latency).
    pub latency: LatencyHistogram,
}

impl EndpointStats {
    /// Total number of queries answered *by this endpoint* (cache hits in a
    /// decorator above it never reach it and are not included).
    pub fn total_queries(&self) -> u64 {
        self.selects + self.asks + self.keyword_searches
    }

    /// Folds `other` into `self`, field by field. Merging is commutative
    /// and associative, so decorator stacks and per-shard statistics can be
    /// combined in any order into one report.
    pub fn merge(&mut self, other: &EndpointStats) {
        self.selects += other.selects;
        self.asks += other.asks;
        self.keyword_searches += other.keyword_searches;
        self.rows_returned += other.rows_returned;
        self.busy += other.busy;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.latency.merge(&other.latency);
    }
}

/// A standard SPARQL query interface plus the full-text keyword lookup the
/// paper assumes of the triplestore.
///
/// `Send + Sync` is part of the contract: the parallel bootstrap crawler
/// and any future sharded decorator issue queries from multiple threads
/// against one shared endpoint reference.
pub trait SparqlEndpoint: Send + Sync {
    /// Answers a `SELECT` query.
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError>;

    /// Answers an `ASK` query (any query form is tested for non-emptiness).
    fn ask(&self, query: &Query) -> Result<bool, SparqlError>;

    /// Full-text keyword resolution: literal terms matching the keyword.
    /// With `exact`, the whole normalized lexical form must match; without,
    /// all tokens of the keyword must occur in the literal.
    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId>;

    /// Term-resolution surface for interpreting the [`TermId`]s inside
    /// returned [`Solutions`]. (A remote implementation would resolve ids
    /// from its response bindings; the seam keeps ids for efficiency.)
    fn graph(&self) -> &Graph;

    /// Snapshot of the endpoint's cumulative statistics. Decorators merge
    /// their own accounting (e.g. cache hit/miss counters) into the
    /// snapshot of the endpoint they wrap.
    fn stats(&self) -> EndpointStats;

    /// Resets the statistics (e.g. between experiment phases).
    fn reset_stats(&self);

    /// Answers a `SELECT` query with the first column of its rows as term
    /// ids, in row order — `None` if some row's first cell is not a
    /// [`Value::Term`]. By default exactly that mapping over
    /// [`SparqlEndpoint::select`], so a decorator sees, caches, charges and
    /// counts a `select`; [`LocalEndpoint`] reads the ids of a plain one-
    /// variable `SELECT` without building its rows, accounted as the
    /// `select` it answers.
    fn select_ids(&self, query: &Query) -> Result<Option<Vec<TermId>>, SparqlError> {
        Ok(first_column_ids(&self.select(query)?))
    }

    /// Parses and answers a `SELECT` query given as text.
    fn select_text(&self, text: &str) -> Result<Solutions, SparqlError> {
        self.select(&parse_query(text)?)
    }

    /// Parses and answers an `ASK` query given as text.
    fn ask_text(&self, text: &str) -> Result<bool, SparqlError> {
        self.ask(&parse_query(text)?)
    }
}

/// The first cell of every row as a term id, `None` if some row's is not
/// a [`Value::Term`]: what [`SparqlEndpoint::select_ids`] answers.
fn first_column_ids(solutions: &Solutions) -> Option<Vec<TermId>> {
    solutions
        .rows
        .iter()
        .map(|row| match row.first() {
            Some(Some(Value::Term(id))) => Some(*id),
            _ => None,
        })
        .collect()
}

/// Delegates every [`SparqlEndpoint`] method to the pointee, so decorator
/// stacks can be composed *dynamically* — per tenant, from configuration —
/// as `Box<dyn SparqlEndpoint>` layers instead of a statically known
/// generic tower. `&E`, [`Box`], and [`std::sync::Arc`] all forward.
macro_rules! delegate_endpoint {
    ($($ptr:ty),*) => {$(
        impl<E: SparqlEndpoint + ?Sized> SparqlEndpoint for $ptr {
            fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
                (**self).select(query)
            }
            fn select_ids(&self, query: &Query) -> Result<Option<Vec<TermId>>, SparqlError> {
                (**self).select_ids(query)
            }
            fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
                (**self).ask(query)
            }
            fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
                (**self).keyword_search(keyword, exact)
            }
            fn graph(&self) -> &Graph {
                (**self).graph()
            }
            fn stats(&self) -> EndpointStats {
                (**self).stats()
            }
            fn reset_stats(&self) {
                (**self).reset_stats()
            }
        }
    )*};
}

delegate_endpoint!(&E, Box<E>, std::sync::Arc<E>);

/// [`SparqlEndpoint`] over an in-memory graph with statistics and optional
/// injected latency.
#[derive(Debug)]
pub struct LocalEndpoint {
    graph: Graph,
    // lock-order: sparql.local.stats
    stats: Mutex<EndpointStats>,
    latency: Option<Duration>,
    row_latency: Option<Duration>,
}

impl LocalEndpoint {
    /// Wraps a graph.
    pub fn new(graph: Graph) -> Self {
        LocalEndpoint {
            graph,
            stats: Mutex::new(EndpointStats::default()),
            latency: None,
            row_latency: None,
        }
    }

    /// Adds a fixed artificial latency to every query (simulating a slower
    /// or remote endpoint).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Adds an artificial per-result-row latency to every `SELECT`
    /// (simulating a remote endpoint's response serialization and transfer
    /// cost, which scales with the number of rows shipped). Combined with
    /// [`LocalEndpoint::with_latency`] this models the classic
    /// `round-trip + rows × transfer` cost of a network SPARQL endpoint.
    pub fn with_row_latency(mut self, per_row: Duration) -> Self {
        self.row_latency = Some(per_row);
        self
    }

    /// Snapshot of the statistics.
    pub fn stats(&self) -> EndpointStats {
        *lock_or_recover("sparql.local.stats", &self.stats)
    }

    /// Resets the statistics (e.g. between experiment phases).
    pub fn reset_stats(&self) {
        *lock_or_recover("sparql.local.stats", &self.stats) = EndpointStats::default();
    }

    /// Consumes the endpoint, returning the graph.
    pub fn into_graph(self) -> Graph {
        self.graph
    }

    fn pay_latency(&self) {
        if let Some(latency) = self.latency {
            std::thread::sleep(latency);
        }
    }

    /// Answers one `SELECT` through `run`, which returns the answer and
    /// its row count: the injected latencies paid and the query accounted
    /// the same way whatever form the answer takes.
    fn timed_select<T>(
        &self,
        run: impl FnOnce(&Graph) -> Result<(T, usize), SparqlError>,
    ) -> Result<T, SparqlError> {
        let start = Instant::now();
        self.pay_latency();
        let result = run(&self.graph);
        if let (Some(per_row), Ok((_, rows))) = (self.row_latency, &result) {
            if *rows > 0 {
                std::thread::sleep(per_row * *rows as u32);
            }
        }
        let elapsed = start.elapsed();
        let mut stats = lock_or_recover("sparql.local.stats", &self.stats);
        stats.selects += 1;
        stats.busy += elapsed;
        stats.latency.record(elapsed);
        if let Ok((_, rows)) = &result {
            stats.rows_returned += *rows as u64;
        }
        result.map(|(answer, _)| answer)
    }
}

impl SparqlEndpoint for LocalEndpoint {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        self.timed_select(|graph| {
            let solutions = evaluate(graph, query)?;
            let rows = solutions.len();
            Ok((solutions, rows))
        })
    }

    fn select_ids(&self, query: &Query) -> Result<Option<Vec<TermId>>, SparqlError> {
        self.timed_select(|graph| {
            Ok(match evaluate_ids(graph, query)? {
                Selected::Ids(ids) => {
                    let rows = ids.len();
                    (Some(ids), rows)
                }
                Selected::Rows(solutions) => (first_column_ids(&solutions), solutions.len()),
            })
        })
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        let start = Instant::now();
        self.pay_latency();
        let result = evaluate_ask(&self.graph, query);
        let elapsed = start.elapsed();
        let mut stats = lock_or_recover("sparql.local.stats", &self.stats);
        stats.asks += 1;
        stats.busy += elapsed;
        stats.latency.record(elapsed);
        result
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        let start = Instant::now();
        self.pay_latency();
        let hits = if exact {
            self.graph.literals_matching_exact(keyword)
        } else {
            self.graph.literals_matching_keywords(keyword)
        };
        let elapsed = start.elapsed();
        let mut stats = lock_or_recover("sparql.local.stats", &self.stats);
        stats.keyword_searches += 1;
        stats.busy += elapsed;
        stats.latency.record(elapsed);
        hits
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn stats(&self) -> EndpointStats {
        LocalEndpoint::stats(self)
    }

    fn reset_stats(&self) {
        LocalEndpoint::reset_stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::io::parse_turtle;

    fn endpoint() -> LocalEndpoint {
        let mut g = Graph::new();
        parse_turtle(
            r#"@prefix ex: <http://ex/> .
            ex:o1 ex:dest ex:Germany ; ex:value 5 .
            ex:o2 ex:dest ex:France ; ex:value 7 .
            ex:Germany ex:label "Germany" .
            ex:France ex:label "France" .
            "#,
            &mut g,
        )
        .expect("parse");
        LocalEndpoint::new(g)
    }

    #[test]
    fn select_and_stats() {
        let ep = endpoint();
        let sols = ep
            .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
            .expect("query");
        assert_eq!(sols.len(), 2);
        let stats = ep.stats();
        assert_eq!(stats.selects, 1);
        assert_eq!(stats.rows_returned, 2);
        assert_eq!(stats.total_queries(), 1);
    }

    /// A plain `SELECT` of one variable its patterns bind is read as ids;
    /// every other shape is evaluated as rows.
    #[test]
    fn only_plain_single_variable_selects_are_read_as_ids() {
        let ep = endpoint();
        let by_ids = |text: &str| {
            let query = parse_query(text).expect("parses");
            match evaluate_ids(ep.graph(), &query).expect("evaluates") {
                Selected::Ids(ids) => Some(ids.len()),
                Selected::Rows(_) => None,
            }
        };
        let block = "?o <http://ex/dest> ?d . ?o <http://ex/value> ?v";
        assert_eq!(by_ids(&format!("SELECT ?o WHERE {{ {block} }}")), Some(2));
        assert_eq!(
            by_ids(&format!("SELECT ?d WHERE {{ {block} }} LIMIT 1")),
            Some(1)
        );
        assert_eq!(
            by_ids(&format!("SELECT ?v WHERE {{ {block} }} OFFSET 1")),
            Some(1)
        );
        for row_path in [
            format!("SELECT DISTINCT ?o WHERE {{ {block} }}"),
            format!("SELECT ?o WHERE {{ {block} }} ORDER BY ?o"),
            format!("SELECT (COUNT(?o) AS ?n) WHERE {{ {block} }}"),
            format!("SELECT ?d WHERE {{ {block} }} GROUP BY ?d"),
            format!("SELECT ?o ?d WHERE {{ {block} }}"),
            format!("SELECT * WHERE {{ {block} }}"),
            format!("SELECT ?x WHERE {{ {block} }}"),
            "SELECT ?o WHERE { ?o <http://ex/dest> ?d OPTIONAL { ?o <http://ex/value> ?v } }"
                .into(),
            "SELECT ?o WHERE { { ?o <http://ex/dest> ?d } UNION { ?o <http://ex/value> ?v } }"
                .into(),
            format!("ASK {{ {block} }}"),
        ] {
            assert_eq!(by_ids(&row_path), None, "{row_path}");
        }
    }

    #[test]
    fn ask_via_text() {
        let ep = endpoint();
        assert!(ep
            .ask_text("ASK { ?o <http://ex/dest> <http://ex/Germany> }")
            .expect("ask"));
        assert!(!ep
            .ask_text("ASK { ?o <http://ex/dest> <http://ex/Spain> }")
            .expect("ask"));
        assert_eq!(ep.stats().asks, 2);
    }

    #[test]
    fn keyword_search_modes() {
        let ep = endpoint();
        assert_eq!(ep.keyword_search("germany", true).len(), 1);
        assert_eq!(ep.keyword_search("germany", false).len(), 1);
        assert!(ep.keyword_search("ger", true).is_empty());
        assert_eq!(ep.stats().keyword_searches, 3);
    }

    #[test]
    fn boxed_and_shared_endpoints_delegate() {
        let boxed: Box<dyn SparqlEndpoint> = Box::new(endpoint());
        let sols = boxed
            .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
            .expect("boxed select");
        assert_eq!(sols.len(), 2);
        assert_eq!(boxed.stats().selects, 1);
        boxed.reset_stats();
        assert_eq!(boxed.stats(), EndpointStats::default());

        let shared: std::sync::Arc<dyn SparqlEndpoint> = std::sync::Arc::new(endpoint());
        assert!(shared
            .ask_text("ASK { ?o <http://ex/dest> <http://ex/Germany> }")
            .expect("arc ask"));
        // a decorator generic over E composes over the boxed layer
        let cached = crate::CachingEndpoint::with_capacity(boxed, 4);
        assert_eq!(
            cached
                .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                .expect("cached over boxed")
                .len(),
            2
        );
    }

    #[test]
    fn reset_stats_clears_counts() {
        let ep = endpoint();
        let _ = ep.keyword_search("germany", true);
        ep.reset_stats();
        assert_eq!(ep.stats(), EndpointStats::default());
    }

    #[test]
    fn latency_is_accounted_in_busy_time() {
        let ep = endpoint().with_latency(Duration::from_millis(5));
        let _ = ep
            .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
            .expect("query");
        assert!(ep.stats().busy >= Duration::from_millis(5));
    }

    #[test]
    fn endpoint_is_shareable_across_threads() {
        let ep = endpoint();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        let _ = ep
                            .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                            .expect("query");
                    }
                });
            }
        });
        let stats = ep.stats();
        assert_eq!(stats.selects, 100);
        assert_eq!(stats.rows_returned, 200);
        assert_eq!(stats.latency.count(), 100);
    }

    #[test]
    fn histogram_records_injected_latency() {
        let ep = endpoint().with_latency(Duration::from_millis(5));
        for _ in 0..4 {
            let _ = ep
                .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                .expect("query");
        }
        let p50 = ep.stats().latency.p50().expect("recorded");
        assert!(p50 >= Duration::from_millis(5), "{p50:?}");
    }

    fn sample_stats(selects: u64, rows: u64, busy_us: u64, hits: u64) -> EndpointStats {
        let mut s = EndpointStats {
            selects,
            asks: selects / 2,
            keyword_searches: 1,
            rows_returned: rows,
            busy: Duration::from_micros(busy_us),
            cache_hits: hits,
            cache_misses: hits + 1,
            cache_evictions: hits / 2,
            ..EndpointStats::default()
        };
        for _ in 0..selects {
            s.latency.record(Duration::from_micros(busy_us.max(1)));
        }
        s
    }

    #[test]
    fn stats_merge_preserves_counts() {
        let a = sample_stats(4, 40, 10, 2);
        let b = sample_stats(6, 15, 7, 0);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.selects, 10);
        assert_eq!(merged.asks, a.asks + b.asks);
        assert_eq!(merged.keyword_searches, 2);
        assert_eq!(merged.rows_returned, 55);
        assert_eq!(merged.busy, Duration::from_micros(17));
        assert_eq!(merged.cache_hits, 2);
        assert_eq!(merged.cache_misses, 4);
        assert_eq!(
            merged.total_queries(),
            a.total_queries() + b.total_queries()
        );
        assert_eq!(
            merged.latency.count(),
            a.latency.count() + b.latency.count()
        );
    }

    #[test]
    fn stats_merge_is_associative_and_commutative() {
        let a = sample_stats(1, 2, 3, 4);
        let b = sample_stats(5, 6, 7, 8);
        let c = sample_stats(9, 10, 11, 12);

        // (a ⊕ b) ⊕ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);

        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);

        assert_eq!(left, right);

        // b ⊕ a == a ⊕ b
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_with_default_is_identity() {
        let a = sample_stats(3, 30, 9, 1);
        let mut merged = a;
        merged.merge(&EndpointStats::default());
        assert_eq!(merged, a);
    }
}
