//! Helpers shared by the snapshot round-trip and property suites.

use re2x_rdf::snapshot::graph_digest;
use re2x_rdf::Graph;

pub fn tmp_path(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("re2x-snap-{}-{name}.snap", std::process::id()));
    p
}

pub fn assert_graphs_identical(a: &Graph, b: &Graph) {
    // triple set + iteration order over the canonical sorted stream
    assert_eq!(a.len(), b.len());
    assert_eq!(a.iter_sorted(), b.iter_sorted());
    // interning order: same id ⇔ same term, both directions
    assert_eq!(a.interner().len(), b.interner().len());
    for (id, term) in a.interner().iter() {
        assert_eq!(b.interner().resolve(id), term);
        assert_eq!(b.term_id(term), Some(id));
        assert_eq!(a.numeric_value(id), b.numeric_value(id));
    }
    // per-predicate incremental statistics
    assert_eq!(a.predicates(), b.predicates());
    for p in a.predicates() {
        assert_eq!(a.predicate_stats(p), b.predicate_stats(p));
    }
    // posting-list views agree (sorted slices, compared directly)
    for t in a.iter_sorted() {
        assert_eq!(a.objects(t.s, t.p), b.objects(t.s, t.p));
        assert_eq!(a.subjects(t.p, t.o), b.subjects(t.p, t.o));
        assert_eq!(
            a.predicates_between(t.s, t.o),
            b.predicates_between(t.s, t.o)
        );
    }
    // text index: same size and identical hits for every literal's lexical
    assert_eq!(a.text_index().len(), b.text_index().len());
    for (_, term) in a.interner().iter() {
        if let Some(lit) = term.as_literal() {
            assert_eq!(
                a.literals_matching_exact(lit.lexical()),
                b.literals_matching_exact(lit.lexical())
            );
            assert_eq!(
                a.literals_matching_keywords(lit.lexical()),
                b.literals_matching_keywords(lit.lexical())
            );
        }
    }
    // and the digest agrees with all of the above
    assert_eq!(graph_digest(a), graph_digest(b));
}
