//! Hash partitioner for cube-shaped graphs.
//!
//! Splits a graph into `n` shards following the classic data-cube layout for
//! distributed analytical stores: *fact* triples — those whose subject is an
//! instance of the observation class (`?s rdf:type qb:Observation` by
//! default) — are hash-partitioned by subject, while everything else
//! (dimension members, hierarchy edges, labels, schema) is replicated to
//! every shard. Star-shaped patterns anchored on an observation subject
//! therefore evaluate entirely shard-locally: all triples of one observation
//! live on one shard, and every dimension triple a star joins against is
//! present on all shards.
//!
//! Shards are built from [`crate::Graph::term_shell`] clones, so `TermId`s
//! are identical across shards and the source graph — partial results
//! produced on different shards can be merged and resolved against the
//! source interner directly.

use crate::graph::Graph;
use crate::hash::{FxHashMap, FxHashSet};
use crate::interner::TermId;
use crate::vocab::{qb, rdf};

/// How a predicate's triples were routed by the partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateRole {
    /// Every triple with this predicate has a fact subject: the triples are
    /// hash-partitioned and each lives on exactly one shard.
    Fact,
    /// Every triple with this predicate has a non-fact subject: the triples
    /// are replicated to all shards.
    Replicated,
    /// The predicate appears with both fact and non-fact subjects (e.g.
    /// `rdf:type`, which types observations *and* dimension members).
    Mixed,
    /// The predicate does not occur in the partitioned graph.
    Unused,
}

/// Summary of how a graph was split: shard count, routing statistics, and
/// the per-predicate roles a query decomposer needs to prove that a pattern
/// evaluates shard-locally.
#[derive(Debug, Clone)]
pub struct PartitionLayout {
    /// Number of shards.
    pub shards: usize,
    /// Resolved observation-class term, if present in the graph.
    pub class: Option<TermId>,
    /// Resolved `rdf:type` term, if present in the graph.
    pub type_predicate: Option<TermId>,
    /// Number of distinct fact subjects.
    pub fact_subject_count: usize,
    /// Total fact triples (hash-partitioned; each on exactly one shard).
    pub fact_triples: usize,
    /// Total replicated triples (each present on every shard).
    pub replicated_triples: usize,
    /// Fact triples routed to each shard.
    pub shard_fact_triples: Vec<usize>,
    /// Sorted predicates that occurred with a fact subject.
    fact_predicates: Vec<TermId>,
    /// Sorted predicates that occurred with a non-fact subject.
    replicated_predicates: Vec<TermId>,
}

impl PartitionLayout {
    /// The routing role of a predicate in this layout.
    pub fn predicate_role(&self, p: TermId) -> PredicateRole {
        let fact = self.fact_predicates.binary_search(&p).is_ok();
        let replicated = self.replicated_predicates.binary_search(&p).is_ok();
        match (fact, replicated) {
            (true, true) => PredicateRole::Mixed,
            (true, false) => PredicateRole::Fact,
            (false, true) => PredicateRole::Replicated,
            (false, false) => PredicateRole::Unused,
        }
    }

    /// Load skew of the fact partitioning: the largest shard's fact-triple
    /// count divided by the mean (1.0 = perfectly balanced). Returns 1.0
    /// for an empty fact set.
    pub fn skew(&self) -> f64 {
        let total: usize = self.shard_fact_triples.iter().sum();
        if total == 0 || self.shard_fact_triples.is_empty() {
            return 1.0;
        }
        let mean = total as f64 / self.shard_fact_triples.len() as f64;
        let max = self.shard_fact_triples.iter().max().copied().unwrap_or(0) as f64;
        max / mean
    }
}

/// A graph split into hash-partitioned fact shards with replicated
/// dimension/schema triples, plus the layout metadata describing the split.
#[derive(Debug)]
pub struct Partitioned {
    /// The shards, each a complete [`Graph`] sharing the source's term table.
    pub shards: Vec<Graph>,
    /// Routing metadata.
    pub layout: PartitionLayout,
}

/// FNV-1a hash of a subject's string form, reduced to a shard index.
///
/// Hashing the *string* form (not the [`TermId`]) makes the placement
/// independent of interning order: the same subject lands on the same shard
/// no matter how or when the graph was loaded.
pub fn shard_of_subject(subject_text: &str, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in subject_text.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// One routing pass over `graph`: classifies every triple as fact (calling
/// `on_fact` with its shard) or replicated (calling `on_repl`) and returns
/// the resulting [`PartitionLayout`]. The shard-building [`partition`] and
/// the layout-only [`partition_layout`] share this scan, so a layout
/// re-derived for snapshot-loaded shards is byte-for-byte the one the
/// original split produced.
fn route(
    graph: &Graph,
    observation_class: &str,
    shards: usize,
    mut on_fact: impl FnMut(crate::graph::Triple, usize),
    mut on_repl: impl FnMut(crate::graph::Triple),
) -> PartitionLayout {
    assert!(shards > 0, "cannot partition into zero shards");
    let type_predicate = graph.iri_id(rdf::TYPE);
    let class = graph.iri_id(observation_class);
    let fact_subjects: FxHashSet<TermId> = match (type_predicate, class) {
        (Some(tp), Some(c)) => graph.subjects(tp, c).iter().copied().collect(),
        _ => FxHashSet::default(),
    };

    let mut shard_fact_triples = vec![0usize; shards];
    let mut fact_triples = 0usize;
    let mut replicated_triples = 0usize;
    let mut fact_predicates: FxHashSet<TermId> = FxHashSet::default();
    let mut replicated_predicates: FxHashSet<TermId> = FxHashSet::default();
    // Subject shard placements are cached per subject: hashing the string
    // form once per fact subject, not once per triple.
    let mut placement: FxHashMap<TermId, usize> = FxHashMap::default();

    for triple in graph.iter() {
        if fact_subjects.contains(&triple.s) {
            let shard = *placement
                .entry(triple.s)
                .or_insert_with(|| shard_of_subject(&graph.term(triple.s).to_string(), shards));
            shard_fact_triples[shard] += 1;
            fact_triples += 1;
            fact_predicates.insert(triple.p);
            on_fact(triple, shard);
        } else {
            replicated_triples += 1;
            replicated_predicates.insert(triple.p);
            on_repl(triple);
        }
    }

    let mut fact_predicates: Vec<TermId> = fact_predicates.into_iter().collect();
    fact_predicates.sort_unstable();
    let mut replicated_predicates: Vec<TermId> = replicated_predicates.into_iter().collect();
    replicated_predicates.sort_unstable();

    PartitionLayout {
        shards,
        class,
        type_predicate,
        fact_subject_count: fact_subjects.len(),
        fact_triples,
        replicated_triples,
        shard_fact_triples,
        fact_predicates,
        replicated_predicates,
    }
}

/// Splits `graph` into `shards` partitions, treating instances of
/// `observation_class` (found via `rdf:type`) as fact subjects.
///
/// If the class or `rdf:type` is absent the fact set is empty and every
/// triple is replicated — the partitioning degenerates to `n` full replicas,
/// which is always correct (if pointless), so callers never need a special
/// case for schema-less graphs.
pub fn partition(graph: &Graph, observation_class: &str, shards: usize) -> Partitioned {
    // Route fact triples and bulk-build the replicated part once as an index
    // base: shards are then clones that share that base (and the source's
    // term table, and its text index unless that had an overlay to fold)
    // through `Arc`s, each holding only its fact share in its overlay.
    let mut fact_routes: Vec<(crate::graph::Triple, usize)> = Vec::new();
    let mut replicated = Vec::new();
    let layout = route(
        graph,
        observation_class,
        shards,
        |triple, shard| fact_routes.push((triple, shard)),
        |triple| replicated.push(triple),
    );
    let mut base = graph.term_shell();
    base.extend_ids(replicated);
    let mut parts: Vec<Graph> = (1..shards).map(|_| base.clone()).collect();
    parts.push(base);
    for (triple, shard) in fact_routes {
        parts[shard].insert_ids(triple.s, triple.p, triple.o);
    }
    Partitioned {
        shards: parts,
        layout,
    }
}

/// The [`PartitionLayout`] that [`partition`] would produce, without
/// building any shard graph — what a caller re-assembling a sharded
/// deployment from per-shard snapshot artifacts needs: the shards already
/// exist on disk, only the routing metadata has to be re-derived from the
/// replica.
pub fn partition_layout(graph: &Graph, observation_class: &str, shards: usize) -> PartitionLayout {
    route(graph, observation_class, shards, |_, _| {}, |_| {})
}

/// [`partition`] specialized to the W3C Data Cube observation class the
/// generators and the paper's datasets use.
pub fn partition_observations(graph: &Graph, shards: usize) -> Partitioned {
    partition(graph, qb::OBSERVATION, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::parse_turtle;

    fn cube() -> Graph {
        let mut g = Graph::new();
        parse_turtle(
            r#"@prefix ex: <http://ex/> .
            @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
            @prefix qb: <http://purl.org/linked-data/cube#> .
            ex:obs1 rdf:type qb:Observation ; ex:dest ex:Germany ; ex:value 5 .
            ex:obs2 rdf:type qb:Observation ; ex:dest ex:France ; ex:value 7 .
            ex:obs3 rdf:type qb:Observation ; ex:dest ex:Germany ; ex:value 11 .
            ex:Germany ex:inContinent ex:Europe ; ex:label "Germany" .
            ex:France ex:inContinent ex:Europe ; ex:label "France" .
            ex:Europe rdf:type ex:Continent .
            "#,
            &mut g,
        )
        .expect("parse");
        g
    }

    #[test]
    fn facts_partitioned_dimensions_replicated() {
        let g = cube();
        let parts = partition_observations(&g, 2);
        assert_eq!(parts.layout.fact_subject_count, 3);
        assert_eq!(parts.layout.fact_triples, 9);
        assert_eq!(parts.layout.replicated_triples, 5);
        assert_eq!(parts.layout.shard_fact_triples.iter().sum::<usize>(), 9);
        // Every shard carries all replicated triples — one shared copy —
        // plus its fact share.
        for (i, shard) in parts.shards.iter().enumerate() {
            assert_eq!(
                shard.len(),
                5 + parts.layout.shard_fact_triples[i],
                "shard {i}"
            );
            assert!(shard.shares_base_with(&parts.shards[0]), "shard {i}");
            assert!(shard.shares_terms_with(&g), "shard {i}");
        }
        // Union of shard fact triples = source fact triples, no loss.
        let total: usize = parts.shards.iter().map(Graph::len).sum();
        assert_eq!(total, 9 + 2 * 5);
    }

    #[test]
    fn observation_star_is_shard_local() {
        let g = cube();
        let parts = partition_observations(&g, 4);
        let type_p = parts.layout.type_predicate.expect("rdf:type interned");
        let class = parts.layout.class.expect("qb:Observation interned");
        for shard in &parts.shards {
            for &obs in shard.subjects(type_p, class) {
                // All triples of an observation present wherever its type
                // triple landed.
                assert_eq!(shard.count_matching(Some(obs), None, None), 3);
            }
        }
    }

    #[test]
    fn predicate_roles() {
        let g = cube();
        let parts = partition_observations(&g, 2);
        let p = |iri: &str| g.iri_id(iri).expect("interned");
        assert_eq!(
            parts.layout.predicate_role(p("http://ex/dest")),
            PredicateRole::Fact
        );
        assert_eq!(
            parts.layout.predicate_role(p("http://ex/inContinent")),
            PredicateRole::Replicated
        );
        // rdf:type types both observations and ex:Europe.
        assert_eq!(
            parts.layout.predicate_role(p(rdf::TYPE)),
            PredicateRole::Mixed
        );
        assert_eq!(
            parts.layout.predicate_role(p("http://ex/Germany")),
            PredicateRole::Unused
        );
    }

    #[test]
    fn placement_is_deterministic_and_interning_independent() {
        let g = cube();
        let a = partition_observations(&g, 4);
        // Same subjects, different interning order: rebuild from scratch.
        let mut g2 = Graph::new();
        parse_turtle(
            r#"@prefix ex: <http://ex/> .
            @prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
            @prefix qb: <http://purl.org/linked-data/cube#> .
            ex:Europe rdf:type ex:Continent .
            ex:obs3 rdf:type qb:Observation ; ex:dest ex:Germany ; ex:value 11 .
            ex:obs2 rdf:type qb:Observation ; ex:dest ex:France ; ex:value 7 .
            ex:obs1 rdf:type qb:Observation ; ex:dest ex:Germany ; ex:value 5 .
            ex:Germany ex:inContinent ex:Europe ; ex:label "Germany" .
            ex:France ex:inContinent ex:Europe ; ex:label "France" .
            "#,
            &mut g2,
        )
        .expect("parse");
        let b = partition_observations(&g2, 4);
        for name in ["http://ex/obs1", "http://ex/obs2", "http://ex/obs3"] {
            let shard_a = (0..4)
                .find(|&i| a.shards[i].count_matching(a.shards[i].iri_id(name), None, None) > 0);
            let shard_b = (0..4)
                .find(|&i| b.shards[i].count_matching(b.shards[i].iri_id(name), None, None) > 0);
            assert_eq!(shard_a, shard_b, "{name} moved between builds");
        }
    }

    #[test]
    fn no_observation_class_degenerates_to_replicas() {
        let mut g = Graph::new();
        parse_turtle(
            r#"@prefix ex: <http://ex/> .
            ex:a ex:p ex:b . ex:b ex:p ex:c .
            "#,
            &mut g,
        )
        .expect("parse");
        let parts = partition_observations(&g, 3);
        assert_eq!(parts.layout.fact_triples, 0);
        assert_eq!(parts.layout.skew(), 1.0);
        for shard in &parts.shards {
            assert_eq!(shard.len(), g.len());
        }
    }

    #[test]
    fn skew_is_max_over_mean() {
        let layout = PartitionLayout {
            shards: 4,
            class: None,
            type_predicate: None,
            fact_subject_count: 0,
            fact_triples: 8,
            replicated_triples: 0,
            shard_fact_triples: vec![4, 2, 1, 1],
            fact_predicates: Vec::new(),
            replicated_predicates: Vec::new(),
        };
        assert!((layout.skew() - 2.0).abs() < 1e-9);
    }
}
