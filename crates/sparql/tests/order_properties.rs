//! Property suite: `ORDER BY` must be deterministic under shuffled input
//! row order, including NaN-valued keys.
//!
//! Regression guard for the former `partial_cmp(..).unwrap_or(Equal)`
//! comparator in `Value::compare`, which was non-total once a NaN reached
//! it — `sort_by` output (and thus Top-k/Percentile refinements downstream)
//! became implementation-defined. NaN now has a pinned position: after
//! every finite value ascending, with all NaNs mutually equal.
//!
//! Per-case seeds come from the testkit harness (`RE2X_TEST_SEED` /
//! `RE2X_TEST_CASES` reproduce a failure exactly).

use re2x_rdf::{vocab, Graph, Literal, Term};
use re2x_sparql::{evaluate, parse_query, Solutions};
use re2x_testkit::check;

/// Builds a graph inserting one `<eN> <http://ex/val> "lexical"^^xsd:double`
/// observation per entry, in the given order.
fn graph_from(entries: &[(String, String)]) -> Graph {
    let mut g = Graph::new();
    for (iri, lexical) in entries {
        g.insert(
            Term::iri(iri),
            Term::iri("http://ex/val"),
            Term::from(Literal::typed(lexical, vocab::xsd::DOUBLE)),
        );
    }
    g
}

/// The `?v` key column of the result as lexical strings (NaN rows all
/// render identically, so this sequence is insertion-order independent
/// even though NaN keys tie with each other).
fn key_column(solutions: &Solutions, graph: &Graph) -> Vec<String> {
    (0..solutions.len())
        .map(|row| {
            solutions
                .value(row, "v")
                .expect("key column bound")
                .string_form(graph)
                .into_owned()
        })
        .collect()
}

#[test]
fn order_by_is_deterministic_under_shuffled_input_with_nan_keys() {
    check("order_by_shuffled_nan", |rng| {
        // distinct finite values so every non-NaN key is unique, plus a
        // few NaN rows (which compare equal to each other)
        let finite = rng.gen_range(3usize..12);
        let mut entries: Vec<(String, String)> = (0..finite)
            .map(|i| {
                let value = (i as f64) * 1.5 - 4.0 + rng.gen_f64() * 0.5;
                (format!("http://ex/e{i}"), format!("{value}"))
            })
            .collect();
        for j in 0..rng.gen_range(1usize..4) {
            entries.push((format!("http://ex/nan{j}"), "NaN".to_owned()));
        }

        let query =
            parse_query("SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY ?v").expect("parse");
        let reference_graph = graph_from(&entries);
        let reference = evaluate(&reference_graph, &query).expect("evaluate");
        assert_eq!(reference.len(), entries.len());

        let mut shuffled = entries.clone();
        rng.shuffle(&mut shuffled);
        let shuffled_graph = graph_from(&shuffled);
        let sorted = evaluate(&shuffled_graph, &query).expect("evaluate");

        assert_eq!(
            key_column(&sorted, &shuffled_graph),
            key_column(&reference, &reference_graph),
            "ORDER BY key sequence depends on input row order"
        );

        // NaN's pinned position: all NaN keys sort after every finite key
        let keys = key_column(&sorted, &shuffled_graph);
        let first_nan = keys.iter().position(|k| k == "NaN").expect("NaN present");
        assert!(
            keys[first_nan..].iter().all(|k| k == "NaN"),
            "NaN keys must form the tail: {keys:?}"
        );

        // descending flips the pin: NaNs first
        let desc = parse_query("SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY DESC(?v)")
            .expect("parse");
        let desc_keys = key_column(
            &evaluate(&shuffled_graph, &desc).expect("evaluate"),
            &shuffled_graph,
        );
        let nans = keys.len() - first_nan;
        assert!(
            desc_keys[..nans].iter().all(|k| k == "NaN"),
            "DESC must lead with the NaN keys: {desc_keys:?}"
        );
        let mut reversed_finite: Vec<String> = keys[..first_nan].to_vec();
        reversed_finite.reverse();
        assert_eq!(&desc_keys[nans..], &reversed_finite[..]);
    });
}

#[test]
fn order_by_ties_resolve_identically_for_numerically_equal_literals() {
    // "5"^^xsd:integer, "5.0"^^xsd:decimal, "05"^^xsd:integer are one
    // equivalence class for both compare and equals, so ORDER BY treats
    // them as ties and DISTINCT on a computed key collapses them —
    // the comparator and the equality must agree on that class.
    check("order_by_coerced_ties", |rng| {
        let spellings = [
            ("5", vocab::xsd::INTEGER),
            ("5.0", vocab::xsd::DECIMAL),
            ("05", vocab::xsd::INTEGER),
            ("5.00", vocab::xsd::DOUBLE),
        ];
        let mut entries: Vec<(String, (&str, &str))> = spellings
            .iter()
            .enumerate()
            .map(|(i, &s)| (format!("http://ex/tie{i}"), s))
            .collect();
        entries.push(("http://ex/low".to_owned(), ("1", vocab::xsd::INTEGER)));
        entries.push(("http://ex/high".to_owned(), ("9", vocab::xsd::INTEGER)));
        rng.shuffle(&mut entries);

        let mut g = Graph::new();
        for (iri, (lexical, datatype)) in &entries {
            g.insert(
                Term::iri(iri),
                Term::iri("http://ex/val"),
                Term::from(Literal::typed(*lexical, *datatype)),
            );
        }
        let query =
            parse_query("SELECT ?s ?v WHERE { ?s <http://ex/val> ?v } ORDER BY ?v").expect("parse");
        let solutions = evaluate(&g, &query).expect("evaluate");
        assert_eq!(solutions.len(), entries.len());
        // the tie class lands contiguously between the two extremes,
        // regardless of insertion order
        let subjects: Vec<String> = (0..solutions.len())
            .map(|row| {
                solutions
                    .value(row, "s")
                    .expect("bound")
                    .string_form(&g)
                    .into_owned()
            })
            .collect();
        assert_eq!(subjects.first().map(String::as_str), Some("http://ex/low"));
        assert_eq!(subjects.last().map(String::as_str), Some("http://ex/high"));
        assert!(
            subjects[1..subjects.len() - 1]
                .iter()
                .all(|s| s.starts_with("http://ex/tie")),
            "numerically-equal spellings must tie contiguously: {subjects:?}"
        );
    });
}
