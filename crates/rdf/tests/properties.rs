//! Property-based tests of the store's core invariants: index agreement
//! under arbitrary insert/remove interleavings, serialization round-trips
//! for arbitrary terms, and text-index consistency.
//!
//! Run on the in-repo [`re2x_testkit`] harness: deterministic per-case
//! seeds, `RE2X_TEST_CASES` budget, `RE2X_TEST_SEED` replay.

mod common;

use common::{assert_graphs_identical, tmp_path};
use re2x_rdf::io::{parse_ntriples, to_ntriples};
use re2x_rdf::{Graph, Literal, PredicateStats, Term, TermId, Triple};
use re2x_testkit::{check, TestRng};
use std::collections::{BTreeMap, BTreeSet};

// ---- generators -----------------------------------------------------------

const IRI_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.#/:-";
const ALNUM: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

/// Printable ASCII (the `[ -~]` class), including characters that need
/// escaping in N-Triples.
fn printable(rng: &mut TestRng, len: std::ops::Range<usize>) -> String {
    let ascii: String = (' '..='~').collect();
    rng.string_from(&ascii, len)
}

/// IRIs without angle brackets / whitespace / control characters.
fn gen_iri(rng: &mut TestRng) -> Term {
    Term::iri(format!(
        "http://ex/{}",
        rng.string_from(IRI_ALPHABET, 1..25)
    ))
}

fn gen_literal(rng: &mut TestRng) -> Literal {
    match rng.pick_weighted(&[1, 1, 1, 1]) {
        0 => Literal::simple(printable(rng, 0..17)),
        1 => Literal::integer(rng.next_u64() as i64),
        2 => Literal::double(rng.gen_range(-1.0e9f64..1.0e9)),
        _ => Literal::tagged(
            printable(rng, 1..9),
            rng.string_from("abcdefghijklmnopqrstuvwxyz", 2..3),
        ),
    }
}

fn gen_term(rng: &mut TestRng) -> Term {
    match rng.pick_weighted(&[4, 1, 3]) {
        0 => gen_iri(rng),
        1 => Term::blank(rng.string_from(ALNUM, 1..9)),
        _ => Term::from(gen_literal(rng)),
    }
}

fn gen_triple(rng: &mut TestRng) -> (Term, Term, Term) {
    (gen_iri(rng), gen_iri(rng), gen_term(rng))
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Term, Term, Term),
    /// Remove the i-th triple currently in the graph (mod size).
    RemoveNth(usize),
}

fn gen_ops(rng: &mut TestRng) -> Vec<Op> {
    let n = rng.gen_range(1usize..60);
    (0..n)
        .map(|_| match rng.pick_weighted(&[4, 1]) {
            0 => {
                let (s, p, o) = gen_triple(rng);
                Op::Insert(s, p, o)
            }
            _ => Op::RemoveNth(rng.gen_range(0usize..64)),
        })
        .collect()
}

// ---- properties -----------------------------------------------------------

/// After any interleaving of inserts and removes, the graph agrees with a
/// naive set-of-triples model on every access path.
#[test]
fn indexes_agree_with_set_model() {
    check("indexes_agree_with_set_model", |rng| {
        let ops = gen_ops(rng);
        let mut graph = Graph::new();
        let mut model: Vec<(Term, Term, Term)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(s, p, o) => {
                    let inserted = graph.insert(s.clone(), p.clone(), o.clone());
                    let fresh = !model.contains(&(s.clone(), p.clone(), o.clone()));
                    assert_eq!(inserted, fresh);
                    if fresh {
                        model.push((s, p, o));
                    }
                }
                Op::RemoveNth(i) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (s, p, o) = model.remove(i % model.len());
                    let sid = graph.term_id(&s).expect("inserted");
                    let pid = graph.term_id(&p).expect("inserted");
                    let oid = graph.term_id(&o).expect("inserted");
                    assert!(graph.remove_ids(sid, pid, oid));
                }
            }
        }
        assert_eq!(graph.len(), model.len());
        // every model triple is found through every single-bound pattern
        for (s, p, o) in &model {
            let sid = graph.term_id(s).expect("known");
            let pid = graph.term_id(p).expect("known");
            let oid = graph.term_id(o).expect("known");
            assert!(graph.contains_ids(sid, pid, oid));
            assert!(graph.objects(sid, pid).contains(&oid));
            assert!(graph.subjects(pid, oid).contains(&sid));
            assert!(graph.predicates_between(sid, oid).contains(&pid));
        }
        // pattern counts are consistent with full materialization
        assert_eq!(graph.count_matching(None, None, None), model.len());
        assert_eq!(graph.iter().len(), model.len());
    });
}

/// The incrementally maintained per-predicate statistics agree with a full
/// recount after any interleaving of inserts and removes, and every
/// posting list stays sorted (the invariant the vectorized merge-join
/// executor in `re2x-sparql` intersects on).
#[test]
fn predicate_stats_and_sortedness_survive_interleavings() {
    check("predicate_stats_incremental", |rng| {
        let ops = gen_ops(rng);
        let mut graph = Graph::new();
        let mut model: Vec<(Term, Term, Term)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(s, p, o) => {
                    if graph.insert(s.clone(), p.clone(), o.clone()) {
                        model.push((s, p, o));
                    }
                }
                Op::RemoveNth(i) => {
                    if model.is_empty() {
                        continue;
                    }
                    let (s, p, o) = model.remove(i % model.len());
                    let sid = graph.term_id(&s).expect("inserted");
                    let pid = graph.term_id(&p).expect("inserted");
                    let oid = graph.term_id(&o).expect("inserted");
                    assert!(graph.remove_ids(sid, pid, oid));
                }
            }
        }
        // stats agree with a recount for every predicate ever seen
        let mut preds: Vec<Term> = model.iter().map(|(_, p, _)| p.clone()).collect();
        preds.sort_unstable_by_key(|a| a.to_string());
        preds.dedup();
        for p in &preds {
            let pid = graph.term_id(p).expect("known");
            let triples = graph.matching(None, Some(pid), None);
            let mut subjects: Vec<_> = triples.iter().map(|t| t.s).collect();
            subjects.sort_unstable();
            subjects.dedup();
            let mut objects: Vec<_> = triples.iter().map(|t| t.o).collect();
            objects.sort_unstable();
            objects.dedup();
            let stats = graph.predicate_stats(pid);
            assert_eq!(stats.triples, triples.len(), "triples for {p}");
            assert_eq!(stats.distinct_subjects, subjects.len(), "subjects for {p}");
            assert_eq!(stats.distinct_objects, objects.len(), "objects for {p}");
            assert_eq!(graph.predicate_cardinality(pid), triples.len());
        }
        // sorted adjacency views
        for (s, p, o) in &model {
            let sid = graph.term_id(s).expect("known");
            let pid = graph.term_id(p).expect("known");
            let oid = graph.term_id(o).expect("known");
            assert!(graph.objects(sid, pid).windows(2).all(|w| w[0] < w[1]));
            assert!(graph.subjects(pid, oid).windows(2).all(|w| w[0] < w[1]));
            assert!(graph
                .predicates_between(sid, oid)
                .windows(2)
                .all(|w| w[0] < w[1]));
        }
    });
}

/// The small term universe of [`overlay_agrees_with_set_model`]: few
/// enough terms that random writes keep hitting the same index keys.
struct Universe {
    subjects: Vec<TermId>,
    predicates: Vec<TermId>,
    /// Every subject (IRIs are objects too) plus a few literals.
    objects: Vec<TermId>,
}

impl Universe {
    fn random_triple(&self, rng: &mut TestRng) -> Triple {
        Triple {
            s: *rng.pick(&self.subjects),
            p: *rng.pick(&self.predicates),
            o: *rng.pick(&self.objects),
        }
    }
}

fn sorted(mut ids: Vec<TermId>) -> Vec<TermId> {
    ids.sort_unstable();
    ids
}

/// Every read the store offers, on every key of the universe, against the
/// set model.
fn assert_agrees_with_model(graph: &Graph, model: &BTreeSet<Triple>, universe: &Universe) {
    fn distinct(
        model: &BTreeSet<Triple>,
        keep: impl Fn(&Triple) -> bool,
        key: impl Fn(&Triple) -> TermId,
    ) -> Vec<TermId> {
        let set: BTreeSet<TermId> = model.iter().filter(|t| keep(t)).map(key).collect();
        set.into_iter().collect()
    }
    let wild = |ids: &[TermId]| -> Vec<Option<TermId>> {
        std::iter::once(None)
            .chain(ids.iter().copied().map(Some))
            .collect()
    };
    assert_eq!(graph.len(), model.len());
    assert_eq!(
        graph.iter_sorted(),
        model.iter().copied().collect::<Vec<_>>()
    );
    // all eight access paths, materialized and counted
    for &s in &wild(&universe.subjects) {
        for &p in &wild(&universe.predicates) {
            for &o in &wild(&universe.objects) {
                let expected: Vec<Triple> = model
                    .iter()
                    .filter(|t| {
                        s.is_none_or(|s| t.s == s)
                            && p.is_none_or(|p| t.p == p)
                            && o.is_none_or(|o| t.o == o)
                    })
                    .copied()
                    .collect();
                let mut found = graph.matching(s, p, o);
                found.sort_unstable();
                assert_eq!(found, expected, "pattern {s:?} {p:?} {o:?}");
                assert_eq!(graph.count_matching(s, p, o), expected.len());
            }
        }
    }
    // posting lists are exactly the model's, in ascending id order
    for &s in &universe.subjects {
        for &p in &universe.predicates {
            let objects = distinct(model, |t| t.s == s && t.p == p, |t| t.o);
            assert_eq!(graph.objects(s, p), objects);
        }
        for &o in &universe.objects {
            let predicates = distinct(model, |t| t.s == s && t.o == o, |t| t.p);
            assert_eq!(graph.predicates_between(s, o), predicates);
        }
        let from = distinct(model, |t| t.s == s, |t| t.p);
        assert_eq!(sorted(graph.predicates_from(s)), from);
        // the subject's SPO runs: one per predicate, each its object list
        let mut runs: Vec<(TermId, Vec<TermId>)> = Vec::new();
        graph.predicate_runs_until(s, |p, objects| {
            runs.push((p, objects.to_vec()));
            false
        });
        runs.sort_unstable();
        let expected: Vec<(TermId, Vec<TermId>)> = from
            .iter()
            .map(|&p| (p, distinct(model, |t| t.s == s && t.p == p, |t| t.o)))
            .collect();
        assert_eq!(runs, expected);
    }
    for &o in &universe.objects {
        let into = distinct(model, |t| t.o == o, |t| t.p);
        assert_eq!(sorted(graph.predicates_into(o)), into);
    }
    // a cursor answers what the plain lookup answers, walked over every
    // key pair ascending (outer keys no triple has included), descending,
    // and each pair twice running
    let walk = |outer: &[TermId], inner: &[TermId]| -> Vec<(TermId, TermId)> {
        let pairs = outer
            .iter()
            .flat_map(|&a| inner.iter().map(move |&b| (a, b)));
        let mut pairs: Vec<(TermId, TermId)> = pairs.collect();
        pairs.sort_unstable();
        let mut walk = pairs.clone();
        walk.extend(pairs.iter().rev());
        walk.extend(pairs.iter().flat_map(|&pair| [pair, pair]));
        walk
    };
    let mut cursor = graph.objects_cursor();
    for (s, p) in walk(&universe.objects, &universe.predicates) {
        assert_eq!(cursor.get(s, p), graph.objects(s, p), "objects {s:?} {p:?}");
    }
    let mut cursor = graph.subjects_cursor();
    for (p, o) in walk(&universe.predicates, &universe.objects) {
        assert_eq!(
            cursor.get(p, o),
            graph.subjects(p, o),
            "subjects {p:?} {o:?}"
        );
    }
    let mut cursor = graph.predicates_cursor();
    for (o, s) in walk(&universe.objects, &universe.subjects) {
        let between = graph.predicates_between(s, o);
        assert_eq!(cursor.get(o, s), between, "predicates {s:?} {o:?}");
    }
    // per-predicate enumerations and the incremental statistics
    assert_eq!(graph.predicates(), distinct(model, |_| true, |t| t.p));
    for &p in &universe.predicates {
        for &o in &universe.objects {
            let subjects = distinct(model, |t| t.p == p && t.o == o, |t| t.s);
            assert_eq!(graph.subjects(p, o), subjects);
        }
        let objects = distinct(model, |t| t.p == p, |t| t.o);
        assert_eq!(sorted(graph.objects_of_predicate(p)), objects);
        // the predicate's POS runs: one per object, each its subject list,
        // and a `true` stops the walk at the first run
        let mut runs: Vec<(TermId, Vec<TermId>)> = Vec::new();
        graph.object_runs_until(p, |o, subjects| {
            runs.push((o, subjects.to_vec()));
            false
        });
        runs.sort_unstable();
        let expected: Vec<(TermId, Vec<TermId>)> = objects
            .iter()
            .map(|&o| (o, distinct(model, |t| t.p == p && t.o == o, |t| t.s)))
            .collect();
        assert_eq!(runs, expected);
        let mut seen = 0;
        let stopped = graph.object_runs_until(p, |_, _| {
            seen += 1;
            true
        });
        assert_eq!(
            (stopped, seen),
            (!objects.is_empty(), usize::from(!objects.is_empty()))
        );
        let stats = PredicateStats {
            triples: model.iter().filter(|t| t.p == p).count(),
            distinct_subjects: distinct(model, |t| t.p == p, |t| t.s).len(),
            distinct_objects: objects.len(),
        };
        assert_eq!(graph.predicate_stats(p), stats);
        assert_eq!(graph.predicate_cardinality(p), stats.triples);
    }
}

/// A snapshot-loaded graph (index base) and a clone of it, written
/// independently, each agree with their own set model after every write:
/// the overlay hides, replaces and extends base posting lists exactly,
/// clones are isolated, `compact()` changes no answer, and what is
/// snapshotted is what a from-scratch graph of the same triples holds.
#[test]
fn overlay_agrees_with_set_model() {
    check("overlay_agrees_with_set_model", |rng| {
        let mut built = Graph::new();
        let subjects: Vec<TermId> = (0..rng.gen_range(2usize..6))
            .map(|i| built.intern_iri(format!("http://ex/s{i}")))
            .collect();
        let predicates: Vec<TermId> = (0..rng.gen_range(1usize..4))
            .map(|i| built.intern_iri(format!("http://ex/p{i}")))
            .collect();
        let mut objects = subjects.clone();
        for i in 0..rng.gen_range(1usize..4) {
            objects.push(built.intern_literal(Literal::simple(format!("label {i}"))));
        }
        let universe = Universe {
            subjects,
            predicates,
            objects,
        };
        let mut model: BTreeSet<Triple> = BTreeSet::new();
        for _ in 0..rng.gen_range(0usize..50) {
            let t = universe.random_triple(rng);
            assert_eq!(built.insert_ids(t.s, t.p, t.o), model.insert(t));
        }
        // objects that have ever been used: a literal among them that no
        // triple uses any more has been dropped from the text index
        let mut adopted: BTreeSet<TermId> = model.iter().map(|t| t.o).collect();

        let path = tmp_path(&format!("overlay-{}", rng.next_u64()));
        built.write_snapshot(&path, "prop/overlay").expect("write");
        let mut graph = Graph::load_snapshot(&path, Some("prop/overlay")).expect("load");
        assert_agrees_with_model(&graph, &model, &universe);

        let steps = rng.gen_range(2usize..40);
        let fork_at = rng.gen_range(0usize..steps);
        let mut fork: Option<(Graph, BTreeSet<Triple>)> = None;
        let mut drained: Vec<Triple> = Vec::new();
        for step in 0..steps {
            if step == fork_at {
                fork = Some((graph.clone(), model.clone()));
            }
            // write to the fork or to the original, the other must not move
            let on_fork = fork.is_some() && rng.gen_bool(0.5);
            let (g, m) = match &mut fork {
                Some((g, m)) if on_fork => (g, m),
                _ => (&mut graph, &mut model),
            };
            match rng.pick_weighted(&[5, 3, 1, 1]) {
                // insert (a duplicate now and then)
                0 => {
                    let t = universe.random_triple(rng);
                    assert_eq!(g.insert_ids(t.s, t.p, t.o), m.insert(t));
                    if !on_fork {
                        adopted.insert(t.o);
                    }
                }
                // remove (a miss now and then)
                1 => {
                    let t = universe.random_triple(rng);
                    assert_eq!(g.remove_ids(t.s, t.p, t.o), m.remove(&t));
                }
                // empty one (s, p) key completely — a tombstone over a base key
                2 => {
                    let (s, p) = (
                        *rng.pick(&universe.subjects),
                        *rng.pick(&universe.predicates),
                    );
                    drained = m.iter().filter(|t| t.s == s && t.p == p).copied().collect();
                    for t in &drained {
                        assert!(g.remove_ids(t.s, t.p, t.o));
                        m.remove(t);
                    }
                }
                // re-add what was last drained (from either graph)
                _ => {
                    for t in &drained {
                        assert_eq!(g.insert_ids(t.s, t.p, t.o), m.insert(*t));
                        if !on_fork {
                            adopted.insert(t.o);
                        }
                    }
                }
            }
            assert_agrees_with_model(&graph, &model, &universe);
            if let Some((fork_graph, fork_model)) = &fork {
                assert_agrees_with_model(fork_graph, fork_model, &universe);
                assert!(fork_graph.shares_base_with(&graph));
            }
        }

        // compaction changes no answer
        let mut compacted = graph.clone();
        compacted.compact();
        assert_agrees_with_model(&compacted, &model, &universe);
        assert_graphs_identical(&graph, &compacted);

        // the written graph's snapshot is a from-scratch graph's snapshot
        let mut scratch = Graph::new();
        for (_, term) in graph.interner().iter() {
            scratch.intern(term.clone());
        }
        for t in &model {
            assert!(scratch.insert_ids(t.s, t.p, t.o));
        }
        let (s0, p0) = (universe.subjects[0], universe.predicates[0]);
        for &o in &adopted {
            if !model.iter().any(|t| t.o == o) {
                // adopt and orphan it, as the written graph has at some point
                assert!(scratch.insert_ids(s0, p0, o));
                assert!(scratch.remove_ids(s0, p0, o));
            }
        }
        graph
            .write_snapshot(&path, "prop/overlay")
            .expect("rewrite");
        let reloaded = Graph::load_snapshot(&path, Some("prop/overlay")).expect("reload");
        let _ = std::fs::remove_file(&path);
        assert_graphs_identical(&scratch, &reloaded);
        assert_graphs_identical(&graph, &reloaded);
    });
}

/// A few random inserts and removes; removing every use of a literal
/// unindexes it.
fn random_writes(graph: &mut Graph, universe: &Universe, rng: &mut TestRng) {
    for _ in 0..rng.gen_range(0usize..10) {
        let t = universe.random_triple(rng);
        if rng.gen_bool(0.5) {
            graph.insert_ids(t.s, t.p, t.o);
        } else {
            graph.remove_ids(t.s, t.p, t.o);
        }
    }
}

/// `extend_ids` is exactly "`insert_ids` on each triple, then `compact()`"
/// — on an empty graph, on a snapshot-loaded graph carrying overlay writes
/// (removals orphaning literals the batch may re-adopt), and on a live
/// clone taken mid-way through such writes, with batches holding
/// duplicates and already-present triples. The bulk-built graph equals the
/// per-triple oracle on every access path, the statistics of every
/// predicate, text search, the returned count and the snapshot bytes; it
/// is all bases; and the graph the clone was taken from does not move.
#[test]
fn extend_ids_is_insert_ids_then_compact() {
    check("extend_ids_is_insert_ids_then_compact", |rng| {
        let mut built = Graph::new();
        let subjects: Vec<TermId> = (0..rng.gen_range(1usize..6))
            .map(|i| built.intern_iri(format!("http://ex/s{i}")))
            .collect();
        let predicates: Vec<TermId> = (0..rng.gen_range(1usize..4))
            .map(|i| built.intern_iri(format!("http://ex/p{i}")))
            .collect();
        let mut objects = subjects.clone();
        for i in 0..rng.gen_range(1usize..5) {
            let label = LABELS[i % LABELS.len()];
            objects.push(built.intern_literal(Literal::simple(format!("{label} {i}"))));
        }
        let universe = Universe {
            subjects,
            predicates,
            objects,
        };
        let path = tmp_path(&format!("extend-{}", rng.next_u64()));

        // the graph the batch goes into: empty, loaded + overlay, or a
        // clone of that whose source writes on
        let mut start = built.clone();
        let mut source: Option<(Graph, Vec<Triple>)> = None;
        let shape = rng.pick_weighted(&[1, 1, 1]);
        if shape > 0 {
            for _ in 0..rng.gen_range(0usize..30) {
                let t = universe.random_triple(rng);
                built.insert_ids(t.s, t.p, t.o);
            }
            built.write_snapshot(&path, "prop/extend").expect("write");
            start = Graph::load_snapshot(&path, Some("prop/extend")).expect("load");
            random_writes(&mut start, &universe, rng);
            if shape == 2 {
                let mut fork = start.clone();
                random_writes(&mut fork, &universe, rng);
                random_writes(&mut start, &universe, rng);
                let source_graph = std::mem::replace(&mut start, fork);
                let triples = source_graph.iter_sorted();
                source = Some((source_graph, triples));
            }
        }

        // a batch with duplicates and (when there are any) present triples
        let present = start.iter_sorted();
        let mut batch: Vec<Triple> = Vec::new();
        for _ in 0..rng.gen_range(0usize..40) {
            let t = match rng.pick_weighted(&[4, 1, 1]) {
                1 if !batch.is_empty() => *rng.pick(&batch),
                2 if !present.is_empty() => *rng.pick(&present),
                _ => universe.random_triple(rng),
            };
            batch.push(t);
        }

        let mut oracle = start.clone();
        let new = batch
            .iter()
            .filter(|t| oracle.insert_ids(t.s, t.p, t.o))
            .count();
        oracle.compact();
        let mut bulk = start.clone();
        assert_eq!(bulk.extend_ids(batch), new);
        assert_graphs_identical(&bulk, &oracle);
        for &p in &universe.predicates {
            assert_eq!(bulk.predicate_stats(p), oracle.predicate_stats(p));
        }
        for &o in &universe.objects {
            if let Some(literal) = bulk.term(o).as_literal() {
                for word in re2x_rdf::text::tokenize(literal.lexical()) {
                    assert_eq!(
                        bulk.literals_matching_keywords(&word),
                        oracle.literals_matching_keywords(&word),
                        "{word:?}"
                    );
                }
            }
        }
        // all bases: a live write to a clone leaves the base shared
        let mut written = bulk.clone();
        let t = universe.random_triple(rng);
        written.insert_ids(t.s, t.p, t.o);
        assert!(written.shares_base_with(&bulk));

        let other = tmp_path(&format!("extend-oracle-{}", rng.next_u64()));
        bulk.write_snapshot(&path, "prop/extend")
            .expect("write bulk");
        oracle
            .write_snapshot(&other, "prop/extend")
            .expect("write oracle");
        let (a, b) = (std::fs::read(&path), std::fs::read(&other));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&other);
        assert!(
            a.expect("read bulk") == b.expect("read oracle"),
            "snapshot bytes differ"
        );

        if let Some((source, triples)) = &source {
            assert_eq!(&source.iter_sorted(), triples);
        }
    });
}

/// Lexical forms of the text universe: shared tokens, a zero-token form,
/// one normal form spelled two ways, non-ASCII words (`İ` lowercases to
/// two chars).
const LABELS: [&str; 9] = [
    "Germany",
    "germany 2014",
    "October 2014",
    "2014",
    "—",
    "North  America",
    "NORTH america",
    "İstanbul 2014",
    "Straße õü",
];

/// One graph of [`text_overlay_agrees_with_model`] and its models.
#[derive(Clone)]
struct TextSide {
    graph: Graph,
    triples: BTreeSet<Triple>,
    /// Every literal currently indexed, with its lexical form.
    indexed: BTreeMap<TermId, String>,
    /// Literals the side's triples may use: the universe's and its own.
    literals: Vec<TermId>,
    /// Terms only this side interned.
    fresh: Vec<Term>,
}

impl TextSide {
    fn intern_fresh(&mut self, literal: Literal) {
        let lexical = literal.lexical().to_owned();
        let term = Term::from(literal);
        assert_eq!(self.graph.term_id(&term), None);
        let id = self.graph.intern(term.clone());
        self.indexed.insert(id, lexical);
        self.literals.push(id);
        self.fresh.push(term);
    }

    /// A literal is indexed from interning until no triple uses it, and
    /// again once one does.
    fn insert(&mut self, t: Triple) {
        assert_eq!(self.graph.insert_ids(t.s, t.p, t.o), self.triples.insert(t));
        let lexical = self
            .graph
            .term(t.o)
            .as_literal()
            .map(|l| l.lexical().to_owned());
        self.indexed.extend(lexical.map(|l| (t.o, l)));
    }

    fn remove(&mut self, t: Triple) {
        let removed = self.triples.remove(&t);
        assert_eq!(self.graph.remove_ids(t.s, t.p, t.o), removed);
        if removed && !self.triples.iter().any(|u| u.o == t.o) {
            self.indexed.remove(&t.o);
        }
    }

    /// Exact and all-token search for every query against the model, and
    /// the term table's lookups: every term of the side round-trips, no
    /// term only the other side interned is found.
    fn assert_agrees(&self, queries: &[String], foreign: &[Term]) {
        use re2x_rdf::text::{normalize, tokenize};
        assert_eq!(self.graph.text_index().len(), self.indexed.len());
        for query in queries {
            let key = normalize(query);
            let words = tokenize(query);
            let exact: Vec<TermId> = self
                .indexed
                .iter()
                .filter(|(_, l)| normalize(l) == key)
                .map(|(&id, _)| id)
                .collect();
            let all: Vec<TermId> = self
                .indexed
                .iter()
                .filter(|(_, l)| {
                    let tokens = tokenize(l);
                    !words.is_empty() && words.iter().all(|w| tokens.contains(w))
                })
                .map(|(&id, _)| id)
                .collect();
            assert_eq!(
                self.graph.literals_matching_exact(query),
                exact,
                "exact {query:?}"
            );
            assert_eq!(
                self.graph.literals_matching_keywords(query),
                all,
                "all tokens of {query:?}"
            );
        }
        let interner = self.graph.interner();
        for (id, term) in interner.iter() {
            assert_eq!(interner.get(term), Some(id), "{term}");
        }
        for term in foreign {
            assert_eq!(interner.get(term), None, "{term}");
        }
    }
}

/// The text index of a snapshot-loaded graph (base) and of a clone of it,
/// written independently — triples adopting and orphaning literals, fresh
/// literals interned — agrees with a `BTreeMap` model after every write:
/// exact and all-token search for every key, token, a few absent keys
/// and `""`; the clones are isolated (a fresh term or literal of one is
/// invisible to the other), and `compact()` and a snapshot round trip
/// change no answer.
#[test]
fn text_overlay_agrees_with_model() {
    check("text_overlay_agrees_with_model", |rng| {
        let mut graph = Graph::new();
        let subjects: Vec<TermId> = (0..rng.gen_range(1usize..4))
            .map(|i| graph.intern_iri(format!("http://ex/s{i}")))
            .collect();
        let predicate = graph.intern_iri("http://ex/label");
        let mut literals: Vec<Literal> = LABELS.iter().map(|&l| Literal::simple(l)).collect();
        literals.push(Literal::tagged("Straße õü", "de"));
        literals.push(Literal::typed(
            "2014",
            "http://www.w3.org/2001/XMLSchema#gYear",
        ));
        let mut side = TextSide {
            graph,
            triples: BTreeSet::new(),
            indexed: BTreeMap::new(),
            literals: Vec::new(),
            fresh: Vec::new(),
        };
        for literal in literals {
            side.intern_fresh(literal);
        }
        side.fresh.clear();
        let random_triple = |rng: &mut TestRng, side: &TextSide| Triple {
            s: *rng.pick(&subjects),
            p: predicate,
            o: *rng.pick(&side.literals),
        };
        // some labels in use, some orphaned, before the snapshot
        for _ in 0..rng.gen_range(0usize..12) {
            let t = random_triple(rng, &side);
            if rng.gen_bool(0.7) {
                side.insert(t);
            } else {
                side.remove(t);
            }
        }
        let mut queries: Vec<String> = LABELS.iter().map(|&l| l.to_owned()).collect();
        queries.extend(LABELS.iter().flat_map(|l| re2x_rdf::text::tokenize(l)));
        queries.extend(
            [
                "",
                " – ",
                "absent",
                "2015",
                "germany october",
                "istanbul",
                "i",
            ]
            .map(String::from),
        );

        let path = tmp_path(&format!("text-overlay-{}", rng.next_u64()));
        side.graph
            .write_snapshot(&path, "prop/text")
            .expect("write");
        side.graph = Graph::load_snapshot(&path, Some("prop/text")).expect("load");
        side.assert_agrees(&queries, &[]);

        let steps = rng.gen_range(2usize..30);
        let fork_at = rng.gen_range(0usize..steps);
        let mut fork: Option<TextSide> = None;
        for n in 0..steps {
            if n == fork_at {
                side.fresh.clear();
                fork = Some(side.clone());
            }
            let on_fork = fork.is_some() && rng.gen_bool(0.5);
            let target = match &mut fork {
                Some(fork) if on_fork => fork,
                _ => &mut side,
            };
            match rng.pick_weighted(&[4, 3, 2]) {
                0 => {
                    let t = random_triple(rng, target);
                    target.insert(t);
                }
                1 => {
                    let t = random_triple(rng, target);
                    target.remove(t);
                }
                // a fresh literal (unique per step): new words, or a
                // universe label's key under a new term
                _ => {
                    let label = *rng.pick(&LABELS);
                    let literal = match rng.pick_weighted(&[2, 1, 1]) {
                        0 => Literal::simple(format!("{label} fresh{n}")),
                        1 => Literal::tagged(label, format!("x{n}")),
                        _ => Literal::simple(format!("Ünïcode {n} —")),
                    };
                    queries.push(literal.lexical().to_owned());
                    target.intern_fresh(literal);
                }
            }
            let no_terms: &[Term] = &[];
            let fork_fresh = fork.as_ref().map_or(no_terms, |f| &f.fresh);
            side.assert_agrees(&queries, fork_fresh);
            if let Some(fork) = &fork {
                fork.assert_agrees(&queries, &side.fresh);
            }
        }

        let mut compacted = side.clone();
        compacted.graph.compact();
        compacted.assert_agrees(&queries, &[]);
        side.graph
            .write_snapshot(&path, "prop/text")
            .expect("rewrite");
        side.graph = Graph::load_snapshot(&path, Some("prop/text")).expect("reload");
        let _ = std::fs::remove_file(&path);
        side.assert_agrees(&queries, &[]);
    });
}

/// N-Triples serialization round-trips arbitrary graphs bytewise.
#[test]
fn ntriples_round_trip() {
    check("ntriples_round_trip", |rng| {
        let mut graph = Graph::new();
        for _ in 0..rng.gen_range(0usize..40) {
            let (s, p, o) = gen_triple(rng);
            graph.insert(s, p, o);
        }
        let text = to_ntriples(&graph);
        let mut reloaded = Graph::new();
        let inserted = parse_ntriples(&text, &mut reloaded).expect("reparse");
        assert_eq!(inserted, graph.len());
        assert_eq!(to_ntriples(&reloaded), text);
    });
}

/// Exact text search finds precisely the literals whose normalized form
/// matches.
#[test]
fn text_index_exact_matches_normalization() {
    check("text_index_exact_matches_normalization", |rng| {
        let count = rng.gen_range(1usize..20);
        let literals: Vec<String> = (0..count)
            .map(|_| {
                rng.string_from(
                    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ",
                    1..13,
                )
            })
            .collect();
        let probe = rng.gen_range(0usize..20);
        let mut graph = Graph::new();
        let subject = graph.intern_iri("http://ex/s");
        let pred = graph.intern_iri("http://ex/label");
        for lit in &literals {
            let id = graph.intern_literal(Literal::simple(lit.clone()));
            graph.insert_ids(subject, pred, id);
        }
        let needle = &literals[probe % literals.len()];
        let hits = graph.literals_matching_exact(needle);
        // expected: the number of *distinct literal terms* whose normalized
        // lexical form equals the needle's (identical strings intern to one
        // term; differently-spaced variants stay distinct)
        let mut expected: Vec<&String> = literals
            .iter()
            .filter(|l| re2x_rdf::text::normalize(l) == re2x_rdf::text::normalize(needle))
            .collect();
        expected.sort();
        expected.dedup();
        assert_eq!(hits.len(), expected.len());
    });
}

/// Numeric literal caching agrees with on-demand parsing.
#[test]
fn numeric_cache_is_correct() {
    check("numeric_cache_is_correct", |rng| {
        let n = rng.next_u64() as i64;
        let mut graph = Graph::new();
        let id = graph.intern_literal(Literal::integer(n));
        assert_eq!(graph.numeric_value(id), Some(n as f64));
    });
}
