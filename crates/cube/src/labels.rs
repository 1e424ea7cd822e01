//! Human-readable labels for IRIs, used when presenting query
//! interpretations ("Return SUM(Num Applicants) grouped by Country of
//! Destination", Section 5.1).
//!
//! RDF keeps schema annotations alongside the data, so we first look for an
//! `rdfs:label` (or another configured label predicate) on the IRI and fall
//! back to a humanized local name.

use re2x_sparql::{PatternElement, Query, SparqlEndpoint, TermPattern, TriplePattern};

/// The local name of an IRI: everything after the last `#`, `/` or `:`.
pub fn local_name(iri: &str) -> &str {
    let cut = iri
        .rfind(['#', '/'])
        .or_else(|| iri.rfind(':'))
        .map_or(0, |i| i + 1);
    &iri[cut..]
}

/// Turns a local name into words: splits on `_`, `-` and camelCase
/// boundaries, capitalizing each word. `"Country_Origin"` → `"Country
/// Origin"`, `"inContinent"` → `"In Continent"`.
pub fn humanize(name: &str) -> String {
    let mut words: Vec<String> = Vec::new();
    let mut current = String::new();
    let mut prev_lower = false;
    for c in name.chars() {
        if c == '_' || c == '-' || c == ' ' {
            if !current.is_empty() {
                words.push(std::mem::take(&mut current));
            }
            prev_lower = false;
        } else {
            if c.is_uppercase() && prev_lower && !current.is_empty() {
                words.push(std::mem::take(&mut current));
            }
            prev_lower = c.is_lowercase() || c.is_ascii_digit();
            current.push(c);
        }
    }
    if !current.is_empty() {
        words.push(current);
    }
    words
        .iter()
        .map(|w| {
            let mut chars = w.chars();
            match chars.next() {
                Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// `SELECT ?l WHERE { <iri> <predicate> ?l }` — one step of a label
/// lookup chain (shared by [`label_of`] and the async bootstrap crawl).
pub fn label_query(iri: &str, predicate: &str) -> Query {
    Query::select_all(vec![PatternElement::Triple(TriplePattern::new(
        TermPattern::Iri(iri.to_owned()),
        predicate.to_owned(),
        TermPattern::Var("l".to_owned()),
    ))])
}

/// Looks up a label for `iri` on the endpoint using the given label
/// predicates, falling back to the humanized local name.
pub fn label_of(endpoint: &dyn SparqlEndpoint, iri: &str, label_predicates: &[String]) -> String {
    label_of_counted(endpoint, iri, label_predicates, &mut 0)
}

/// [`label_of`], adding to `queries` every query it issues: one per label
/// predicate tried, up to and including the one that answers.
pub fn label_of_counted(
    endpoint: &dyn SparqlEndpoint,
    iri: &str,
    label_predicates: &[String],
    queries: &mut u64,
) -> String {
    for pred in label_predicates {
        *queries += 1;
        if let Ok(solutions) = endpoint.select(&label_query(iri, pred)) {
            if let Some(value) = solutions.value(0, "l") {
                return value.string_form(endpoint.graph()).into_owned();
            }
        }
    }
    humanize(local_name(iri))
}

/// Default label predicates: `rdfs:label` plus the informal `label` IRIs
/// common in exported statistical data.
pub fn default_label_predicates() -> Vec<String> {
    vec![
        re2x_rdf::vocab::rdfs::LABEL.to_owned(),
        "http://www.w3.org/2004/02/skos/core#prefLabel".to_owned(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::{Graph, Literal, Term};
    use re2x_sparql::LocalEndpoint;

    #[test]
    fn local_name_extraction() {
        assert_eq!(local_name("http://ex/ns#CountryOrigin"), "CountryOrigin");
        assert_eq!(
            local_name("http://ex/path/Num_Applicants"),
            "Num_Applicants"
        );
        assert_eq!(local_name("urn:x:thing"), "thing");
        assert_eq!(local_name("plain"), "plain");
    }

    #[test]
    fn humanize_splits_words() {
        assert_eq!(humanize("Country_Origin"), "Country Origin");
        assert_eq!(humanize("inContinent"), "In Continent");
        assert_eq!(humanize("refPeriod"), "Ref Period");
        assert_eq!(humanize("num-applicants"), "Num Applicants");
        assert_eq!(humanize("AGE"), "AGE");
        assert_eq!(humanize("age18to34"), "Age18to34");
    }

    #[test]
    fn label_of_prefers_graph_labels() {
        let mut g = Graph::new();
        g.insert(
            Term::iri("http://ex/p1"),
            Term::iri(re2x_rdf::vocab::rdfs::LABEL),
            Term::from(Literal::simple("Country of Destination")),
        );
        let ep = LocalEndpoint::new(g);
        let preds = default_label_predicates();
        assert_eq!(
            label_of(&ep, "http://ex/p1", &preds),
            "Country of Destination"
        );
        assert_eq!(label_of(&ep, "http://ex/refPeriod", &preds), "Ref Period");
    }
}
