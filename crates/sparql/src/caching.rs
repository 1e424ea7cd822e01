//! A memoizing endpoint decorator.
//!
//! ReOLAP's candidate validation (Algorithm 1) and the bootstrap crawler
//! issue many near-duplicate `ASK`/`SELECT` probes per keyword tuple, and
//! the paper attributes most of both phases' cost to endpoint round-trips.
//! [`CachingEndpoint`] wraps any [`SparqlEndpoint`] and memoizes query
//! results in a bounded LRU keyed by the *pretty-printed canonical query
//! text* ([`query_to_sparql`]): two structurally identical queries share a
//! key regardless of how they were built, and the key is exactly what a
//! remote endpoint would receive, so caching is transparent to the seam.
//!
//! Hit/miss/eviction counters are folded into the [`EndpointStats`]
//! snapshot of the wrapped endpoint, so one `stats()` call describes the
//! whole decorator stack (Local → Caching → future Sharded).

use crate::ast::Query;
use crate::endpoint::{EndpointStats, SparqlEndpoint};
use crate::error::SparqlError;
use crate::pretty::query_to_sparql;
use crate::value::Solutions;
use re2x_obs::{lock_or_recover, Tracer};
use re2x_rdf::{Graph, TermId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const NIL: usize = usize::MAX;

/// A bounded least-recently-used map from canonical query text to a cached
/// result. Intrusive doubly-linked order over a slot vector: `get` and
/// `insert` are O(1) amortized.
struct Lru<V> {
    capacity: usize,
    map: HashMap<String, usize>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

struct Slot<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

impl<V: Clone> Lru<V> {
    fn new(capacity: usize) -> Lru<V> {
        assert!(capacity > 0, "cache capacity must be positive");
        Lru {
            capacity,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    /// Looks a key up, marking it most recently used.
    fn get(&mut self, key: &str) -> Option<V> {
        let slot = *self.map.get(key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(self.slots[slot].value.clone())
    }

    /// Inserts (or refreshes) an entry; returns `true` if a *different*
    /// entry was evicted to make room.
    fn insert(&mut self, key: String, value: V) -> bool {
        if let Some(&slot) = self.map.get(&key) {
            self.slots[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return false;
        }
        let mut evicted = false;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
            evicted = true;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        evicted
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

struct CacheState {
    /// Shared, so a hit holds the lock only for a refcount bump and the
    /// caller copies the result set after releasing it.
    selects: Lru<Arc<Solutions>>,
    asks: Lru<bool>,
    keywords: Lru<Vec<TermId>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A [`SparqlEndpoint`] decorator memoizing `SELECT`, `ASK`, and
/// keyword-search results in bounded LRU caches.
///
/// Results are cached per canonical query text; errors are never cached.
/// The decorator assumes the underlying data does not change while it is
/// in place — after updating the store, call [`CachingEndpoint::clear`]
/// (mirroring how the schema requires a fresh bootstrap after structural
/// changes).
pub struct CachingEndpoint<E> {
    inner: E,
    // lock-order: sparql.cache.state
    state: Mutex<CacheState>,
    tracer: Tracer,
}

impl<E: SparqlEndpoint> CachingEndpoint<E> {
    /// Default per-cache entry bound: large enough for every distinct query
    /// of a bootstrap crawl plus an interactive session on the paper's
    /// datasets, small enough to bound memory under adversarial workloads.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Wraps an endpoint with the default capacity.
    pub fn new(inner: E) -> CachingEndpoint<E> {
        CachingEndpoint::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// Wraps an endpoint with an explicit per-cache entry bound.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn with_capacity(inner: E, capacity: usize) -> CachingEndpoint<E> {
        CachingEndpoint {
            inner,
            state: Mutex::new(CacheState {
                selects: Lru::new(capacity),
                asks: Lru::new(capacity),
                keywords: Lru::new(capacity),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            tracer: Tracer::disabled(),
        }
    }

    /// Attributes every cache hit/miss to the pipeline phase (innermost
    /// span of `tracer` on the calling thread) that issued the query.
    pub fn with_tracer(mut self, tracer: Tracer) -> CachingEndpoint<E> {
        self.tracer = tracer;
        self
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps the decorator.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Number of currently cached entries across all three caches.
    pub fn cached_entries(&self) -> usize {
        let state = lock_or_recover("sparql.cache.state", &self.state);
        state.selects.len() + state.asks.len() + state.keywords.len()
    }

    /// Drops every cached entry (counters are kept; use
    /// [`SparqlEndpoint::reset_stats`] to zero those). Required after the
    /// underlying store changes.
    pub fn clear(&self) {
        let mut state = lock_or_recover("sparql.cache.state", &self.state);
        state.selects.clear();
        state.asks.clear();
        state.keywords.clear();
    }

    /// Snapshot of the merged statistics (inherent mirror of the trait
    /// method, callable without importing the trait).
    pub fn stats(&self) -> EndpointStats {
        let mut stats = self.inner.stats();
        let state = lock_or_recover("sparql.cache.state", &self.state);
        stats.merge(&EndpointStats {
            cache_hits: state.hits,
            cache_misses: state.misses,
            cache_evictions: state.evictions,
            ..EndpointStats::default()
        });
        stats
    }
}

impl<E: SparqlEndpoint> SparqlEndpoint for CachingEndpoint<E> {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        let key = query_to_sparql(query);
        {
            let mut state = lock_or_recover("sparql.cache.state", &self.state);
            if let Some(cached) = state.selects.get(&key) {
                state.hits += 1;
                drop(state);
                self.tracer.record_cache(true);
                return Ok(Solutions::clone(&cached));
            }
            state.misses += 1;
        }
        self.tracer.record_cache(false);
        // the lock is released while the inner endpoint evaluates, so
        // concurrent misses proceed in parallel (at worst re-evaluating)
        let solutions = self.inner.select(query)?;
        let cached = Arc::new(solutions.clone());
        let mut state = lock_or_recover("sparql.cache.state", &self.state);
        let evicted = state.selects.insert(key, cached);
        if evicted {
            state.evictions += 1;
        }
        drop(state);
        if evicted {
            self.tracer.counter_add("cache.evictions", 1);
        }
        Ok(solutions)
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        let key = query_to_sparql(query);
        {
            let mut state = lock_or_recover("sparql.cache.state", &self.state);
            if let Some(cached) = state.asks.get(&key) {
                state.hits += 1;
                drop(state);
                self.tracer.record_cache(true);
                return Ok(cached);
            }
            state.misses += 1;
        }
        self.tracer.record_cache(false);
        let answer = self.inner.ask(query)?;
        let mut state = lock_or_recover("sparql.cache.state", &self.state);
        let evicted = state.asks.insert(key, answer);
        if evicted {
            state.evictions += 1;
        }
        drop(state);
        if evicted {
            self.tracer.counter_add("cache.evictions", 1);
        }
        Ok(answer)
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        // '\u{1}' cannot occur in a keyword's normalized form, keeping the
        // exact/substring namespaces disjoint
        let key = format!("{exact}\u{1}{keyword}");
        {
            let mut state = lock_or_recover("sparql.cache.state", &self.state);
            if let Some(cached) = state.keywords.get(&key) {
                state.hits += 1;
                drop(state);
                self.tracer.record_cache(true);
                return cached;
            }
            state.misses += 1;
        }
        self.tracer.record_cache(false);
        let hits = self.inner.keyword_search(keyword, exact);
        let mut state = lock_or_recover("sparql.cache.state", &self.state);
        let evicted = state.keywords.insert(key, hits.clone());
        if evicted {
            state.evictions += 1;
        }
        drop(state);
        if evicted {
            self.tracer.counter_add("cache.evictions", 1);
        }
        hits
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn stats(&self) -> EndpointStats {
        CachingEndpoint::stats(self)
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
        let mut state = lock_or_recover("sparql.cache.state", &self.state);
        state.hits = 0;
        state.misses = 0;
        state.evictions = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::LocalEndpoint;
    use re2x_rdf::io::parse_turtle;

    fn caching_endpoint() -> CachingEndpoint<LocalEndpoint> {
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
        CachingEndpoint::new(LocalEndpoint::new(g))
    }

    #[test]
    fn repeated_select_hits_the_cache() {
        let ep = caching_endpoint();
        let text = "SELECT ?d WHERE { ?o <http://ex/dest> ?d }";
        let first = ep.select_text(text).expect("query");
        let second = ep.select_text(text).expect("query");
        assert_eq!(first, second);
        let stats = ep.stats();
        assert_eq!(stats.selects, 1, "inner answered once");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }

    #[test]
    fn ask_and_keyword_results_are_memoized() {
        let ep = caching_endpoint();
        for _ in 0..3 {
            assert!(ep
                .ask_text("ASK { ?o <http://ex/dest> <http://ex/Germany> }")
                .expect("ask"));
            assert_eq!(ep.keyword_search("germany", true).len(), 1);
        }
        let stats = ep.stats();
        assert_eq!(stats.asks, 1);
        assert_eq!(stats.keyword_searches, 1);
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn exact_and_substring_keyword_lookups_do_not_collide() {
        let ep = caching_endpoint();
        assert!(ep.keyword_search("ger", true).is_empty());
        // a substring search for the same keyword is a different cache key
        assert!(ep.keyword_search("ger", false).is_empty());
        assert_eq!(ep.stats().keyword_searches, 2);
    }

    #[test]
    fn structurally_identical_queries_share_an_entry() {
        let ep = caching_endpoint();
        // same canonical form, different surface text
        let a = "SELECT ?d WHERE { ?o <http://ex/dest> ?d }";
        let b = "SELECT  ?d  WHERE  {  ?o  <http://ex/dest>  ?d  }";
        let _ = ep.select_text(a).expect("query");
        let _ = ep.select_text(b).expect("query");
        assert_eq!(ep.stats().selects, 1);
        assert_eq!(ep.stats().cache_hits, 1);
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let ep = {
            let mut g = Graph::new();
            parse_turtle(
                "@prefix ex: <http://ex/> . ex:o1 ex:dest ex:Germany .",
                &mut g,
            )
            .expect("parse");
            CachingEndpoint::with_capacity(LocalEndpoint::new(g), 2)
        };
        for i in 0..4 {
            let _ = ep
                .select_text(&format!("SELECT ?d WHERE {{ ?o <http://ex/p{i}> ?d }}"))
                .expect("query");
        }
        let stats = ep.stats();
        assert_eq!(stats.cache_misses, 4);
        assert_eq!(stats.cache_evictions, 2);
        // the two oldest entries are gone: re-asking them misses again
        let _ = ep
            .select_text("SELECT ?d WHERE { ?o <http://ex/p0> ?d }")
            .expect("query");
        assert_eq!(ep.stats().cache_misses, 5);
        // while the newest is still cached
        let _ = ep
            .select_text("SELECT ?d WHERE { ?o <http://ex/p3> ?d }")
            .expect("query");
        assert_eq!(ep.stats().cache_hits, 1);
    }

    #[test]
    fn lru_get_refreshes_recency() {
        let mut lru: Lru<u32> = Lru::new(2);
        assert!(!lru.insert("a".into(), 1));
        assert!(!lru.insert("b".into(), 2));
        assert_eq!(lru.get("a"), Some(1)); // a becomes MRU
        assert!(lru.insert("c".into(), 3)); // evicts b, not a
        assert_eq!(lru.get("a"), Some(1));
        assert_eq!(lru.get("b"), None);
        assert_eq!(lru.get("c"), Some(3));
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinserting_a_key_updates_without_eviction() {
        let mut lru: Lru<u32> = Lru::new(2);
        lru.insert("a".into(), 1);
        lru.insert("a".into(), 2);
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.get("a"), Some(2));
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let ep = caching_endpoint();
        let text = "SELECT ?d WHERE { ?o <http://ex/dest> ?d }";
        let _ = ep.select_text(text).expect("query");
        assert!(ep.cached_entries() > 0);
        ep.clear();
        assert_eq!(ep.cached_entries(), 0);
        let _ = ep.select_text(text).expect("query");
        let stats = ep.stats();
        assert_eq!(stats.selects, 2, "second call re-evaluates");
        assert_eq!(stats.cache_misses, 2);
    }

    #[test]
    fn reset_stats_zeroes_counters_but_keeps_entries() {
        let ep = caching_endpoint();
        let text = "SELECT ?d WHERE { ?o <http://ex/dest> ?d }";
        let _ = ep.select_text(text).expect("query");
        ep.reset_stats();
        assert_eq!(ep.stats(), EndpointStats::default());
        let _ = ep.select_text(text).expect("query");
        assert_eq!(ep.stats().cache_hits, 1, "entry survived the reset");
    }

    #[test]
    fn cache_outcomes_are_attributed_to_the_open_span() {
        let tracer = re2x_obs::Tracer::enabled();
        let ep = caching_endpoint().with_tracer(tracer.clone());
        let text = "SELECT ?d WHERE { ?o <http://ex/dest> ?d }";
        {
            let _warm = tracer.span("warmup");
            let _ = ep.select_text(text).expect("query");
        }
        {
            let _probe = tracer.span("probe");
            let _ = ep.select_text(text).expect("query");
            let _ = ep.select_text(text).expect("query");
        }
        let prov = tracer.provenance();
        let by_path: std::collections::BTreeMap<&str, _> =
            prov.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(by_path["warmup"].cache_misses, 1);
        assert_eq!(by_path["warmup"].cache_hits, 0);
        assert_eq!(by_path["probe"].cache_hits, 2);
        assert_eq!(by_path["probe"].cache_misses, 0);
        // per-phase outcomes sum to the aggregate counters
        let stats = ep.stats();
        let (hits, misses) = prov.iter().fold((0, 0), |(h, m), (_, s)| {
            (h + s.cache_hits, m + s.cache_misses)
        });
        assert_eq!(hits, stats.cache_hits);
        assert_eq!(misses, stats.cache_misses);
    }

    #[test]
    fn concurrent_access_stays_consistent() {
        let ep = caching_endpoint();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..20 {
                        let q = format!("SELECT ?d WHERE {{ ?o <http://ex/q{}> ?d }}", i % 5);
                        let _ = ep.select_text(&q).expect("query");
                    }
                });
            }
        });
        let stats = ep.stats();
        assert_eq!(stats.cache_hits + stats.cache_misses, 80);
        // every distinct query was evaluated at least once, and no more
        // often than once per racing thread
        assert!(stats.selects >= 5 && stats.selects <= 20, "{stats:?}");
    }
}
