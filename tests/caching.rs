//! Differential and accounting tests for the caching endpoint decorator:
//! a `CachingEndpoint` must be observably identical to the bare
//! `LocalEndpoint` it wraps (same schema, same solutions, same ASK
//! answers), and a warm cache must measurably reduce the number of
//! queries that reach the inner endpoint during a ReOLAP workload.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_datagen::{eurostat, example_workload_on};
use re2x_sparql::{CachingEndpoint, LocalEndpoint, SparqlEndpoint};
use re2xolap::{refine, reolap, ReolapConfig};

const OBSERVATIONS: usize = 500;
const SEED: u64 = 42;

fn fresh_endpoint() -> (LocalEndpoint, re2x_datagen::Dataset) {
    let mut dataset = eurostat::generate(OBSERVATIONS, SEED);
    let graph = std::mem::take(&mut dataset.graph);
    (LocalEndpoint::new(graph), dataset)
}

/// Bootstrap + fig8-style workload (synthesize, execute, disaggregate,
/// execute again) evaluated twice through a cache must produce bit-for-bit
/// the answers of an undecorated endpoint.
#[test]
fn caching_endpoint_is_transparent() {
    let (plain, dataset) = fresh_endpoint();
    let (inner, _) = fresh_endpoint();
    let cached = CachingEndpoint::new(inner);

    let config = BootstrapConfig::new(&dataset.observation_class);
    let plain_schema = bootstrap(&plain, &config).expect("bootstrap").schema;
    let cached_schema = bootstrap(&cached, &config).expect("bootstrap").schema;
    assert_eq!(plain_schema, cached_schema, "schema differs through cache");

    let workload = example_workload_on(plain.graph(), &dataset, 1, 4, SEED);
    let reolap_config = ReolapConfig::default();
    let mut compared = 0usize;
    // two passes: the second answers from a warm cache and must still agree
    for _pass in 0..2 {
        for tuple in &workload {
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            let Ok(outcome) = reolap(&plain, &plain_schema, &refs, &reolap_config) else {
                continue;
            };
            for q in &outcome.queries {
                let expected = plain.select(&q.query).expect("plain select");
                let got = cached.select(&q.query).expect("cached select");
                assert_eq!(expected, got, "solutions differ for {}", q.sparql());
                compared += 1;
                for r in refine::disaggregate::disaggregate(&plain_schema, q) {
                    let expected = plain.select(&r.query.query).expect("plain select");
                    let got = cached.select(&r.query.query).expect("cached select");
                    assert_eq!(expected, got, "disaggregated solutions differ");
                    compared += 1;
                }
            }
        }
    }
    assert!(
        compared >= 4,
        "workload produced too few queries ({compared})"
    );
    let stats = cached.stats();
    assert!(stats.cache_hits > 0, "second pass should hit the cache");
}

/// Re-running the same ReOLAP workload against a warm cache must issue
/// measurably fewer queries to the wrapped endpoint (ISSUE acceptance
/// criterion), visible through `EndpointStats`.
#[test]
fn warm_cache_reolap_issues_fewer_endpoint_queries() {
    let (inner, dataset) = fresh_endpoint();
    let endpoint = CachingEndpoint::new(inner);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;

    let workload = example_workload_on(endpoint.inner().graph(), &dataset, 2, 5, SEED);
    let reolap_config = ReolapConfig::default();
    let run = || {
        for tuple in &workload {
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            if let Ok(outcome) = reolap(&endpoint, &schema, &refs, &reolap_config) {
                for q in outcome.queries.iter().take(2) {
                    let _ = endpoint.select(&q.query);
                }
            }
        }
    };

    endpoint.reset_stats();
    run();
    let cold = endpoint.inner().stats().total_queries();
    let cold_hits = endpoint.stats().cache_hits;

    endpoint.reset_stats();
    run();
    let warm = endpoint.inner().stats().total_queries();
    let warm_stats = endpoint.stats();

    assert!(cold > 0, "cold run must reach the endpoint");
    assert!(
        warm * 2 < cold,
        "warm run should issue well under half the endpoint queries (cold={cold}, warm={warm})"
    );
    assert!(
        warm_stats.cache_hits > cold_hits,
        "warm run answers mostly from cache (cold hits={cold_hits}, warm hits={})",
        warm_stats.cache_hits
    );
    // the merged query counters come from the inner endpoint, which only
    // ever sees cache misses
    assert_eq!(
        warm_stats.cache_misses,
        warm_stats.total_queries(),
        "every inner-endpoint query corresponds to exactly one cache miss"
    );
}

/// ASK and keyword answers must also round-trip the cache unchanged.
#[test]
fn ask_and_keyword_answers_match_through_the_cache() {
    let (plain, dataset) = fresh_endpoint();
    let (inner, _) = fresh_endpoint();
    let cached = CachingEndpoint::new(inner);

    let ask = re2x_sparql::parse_query(&format!("ASK {{ ?o a <{}> }}", dataset.observation_class))
        .expect("parses");
    for _ in 0..2 {
        assert_eq!(
            plain.ask(&ask).expect("ask"),
            cached.ask(&ask).expect("ask")
        );
    }

    for tuple in example_workload_on(plain.graph(), &dataset, 1, 3, SEED) {
        for keyword in &tuple {
            for _ in 0..2 {
                let expected = plain.keyword_search(keyword, true);
                let got = cached.keyword_search(keyword, true);
                assert_eq!(expected, got, "exact search differs for {keyword:?}");
                let expected = plain.keyword_search(keyword, false);
                let got = cached.keyword_search(keyword, false);
                assert_eq!(expected, got, "substring search differs for {keyword:?}");
            }
        }
    }
    let stats = cached.stats();
    assert!(stats.cache_hits > 0 && stats.cache_misses > 0);
}

/// A warm crawl through the cache is answered from it: the second
/// bootstrap finds the same schema and sends the inner endpoint nothing.
#[test]
fn warm_bootstrap_is_answered_from_the_cache() {
    let (inner, dataset) = fresh_endpoint();
    let endpoint = CachingEndpoint::new(inner);
    let config = BootstrapConfig::new(&dataset.observation_class);

    let cold = bootstrap(&endpoint, &config).expect("cold bootstrap");
    let inner_after_cold = endpoint.stats().total_queries();
    let warm = bootstrap(&endpoint, &config).expect("warm bootstrap");

    assert_eq!(warm.schema, cold.schema);
    assert_eq!(warm.endpoint_queries, cold.endpoint_queries);
    assert_eq!(
        endpoint.stats().total_queries(),
        inner_after_cold,
        "the warm crawl reached the inner endpoint"
    );
    assert!(endpoint.stats().cache_hits >= warm.endpoint_queries);
}
