//! The `MATCHES` step of Algorithm 1 (lines 2–5): resolving an example
//! keyword to dimension members and the hierarchy levels they belong to.
//!
//! Procedure (all through the endpoint, as the paper's system does):
//! 1. full-text search resolves the keyword to literal terms,
//! 2. the literals' subjects are candidate members (with the connecting
//!    predicate as the attribute predicate),
//! 3. for each candidate member, the predicates arriving at it are matched
//!    against the Virtual Schema Graph's level paths, and each candidate
//!    (member, level) pair is verified with an `ASK` that some observation
//!    reaches the member over the level's path.

use crate::query_model::ExampleBinding;
use re2x_cube::{patterns, LevelId, VirtualSchemaGraph};
use re2x_rdf::hash::FxHashSet;
use re2x_sparql::{
    PatternElement, Query, SparqlEndpoint, SparqlError, TermPattern, TriplePattern, Value,
};

/// How keywords are matched against member attributes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// The whole normalized attribute value must equal the keyword
    /// (`"2014"` matches the year member labelled "2014" but not the month
    /// "October 2014"). The default, mirroring entity lookup.
    #[default]
    Exact,
    /// All tokens of the keyword must occur in the attribute value
    /// (classic full-text containment).
    Keyword,
}

/// A keyword resolved to a member at a level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberMatch {
    /// The resolved binding (keyword, member, label, level).
    pub binding: ExampleBinding,
    /// The attribute predicate that connected the keyword literal to the
    /// member.
    pub attribute_predicate: String,
}

/// Resolves a keyword to all `(member, level)` interpretations.
pub fn matches(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    keyword: &str,
    mode: MatchMode,
) -> Result<Vec<MemberMatch>, SparqlError> {
    let literals = endpoint.keyword_search(keyword, mode == MatchMode::Exact);
    let graph = endpoint.graph();
    let mut out = Vec::new();
    // (member, attribute predicate, label, level) already emitted — all
    // borrowed from the graph, so deduplication clones nothing
    let mut seen: FxHashSet<(&str, &str, &str, LevelId)> = FxHashSet::default();
    for literal in literals {
        let Some(literal_term) = graph.term(literal).as_literal() else {
            continue;
        };
        let lexical = literal_term.lexical();
        // candidate members: subjects of any predicate pointing at the
        // literal — asked through the endpoint so the caching/tracing/
        // sharding decorators observe (and can answer) the probe
        let mut probe =
            Query::select_all(vec![PatternElement::Triple(TriplePattern::with_pred_var(
                TermPattern::Var("x".to_owned()),
                "p",
                TermPattern::Literal(literal_term.clone()),
            ))]);
        probe
            .select
            .push(re2x_sparql::SelectItem::Var("x".to_owned()));
        probe
            .select
            .push(re2x_sparql::SelectItem::Var("p".to_owned()));
        let solutions = endpoint.select(&probe)?;
        // candidate members with the attribute predicate that reached them
        for row in &solutions.rows {
            let (Some(Value::Term(s)), Some(Value::Term(p))) = (row[0].as_ref(), row[1].as_ref())
            else {
                continue;
            };
            let (Some(member_iri), Some(attribute_predicate)) =
                (graph.term(*s).as_iri(), graph.term(*p).as_iri())
            else {
                continue;
            };
            for level in member_levels(endpoint, schema, member_iri)? {
                if seen.insert((member_iri, attribute_predicate, lexical, level)) {
                    out.push(MemberMatch {
                        binding: ExampleBinding {
                            keyword: keyword.to_owned(),
                            member_iri: member_iri.to_owned(),
                            label: lexical.to_owned(),
                            level,
                        },
                        attribute_predicate: attribute_predicate.to_owned(),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// The levels a member node belongs to: levels whose final path predicate
/// arrives at the member, verified by an `ASK` over the full path from the
/// observation class.
pub fn member_levels(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    member_iri: &str,
) -> Result<Vec<LevelId>, SparqlError> {
    // predicates arriving at the member
    let mut incoming =
        Query::select_all(vec![PatternElement::Triple(TriplePattern::with_pred_var(
            TermPattern::Var("x".to_owned()),
            "p",
            TermPattern::Iri(member_iri.to_owned()),
        ))]);
    incoming.distinct = true;
    incoming
        .select
        .push(re2x_sparql::SelectItem::Var("p".to_owned()));
    let solutions = endpoint.select(&incoming)?;
    let graph = endpoint.graph();
    let predicates: Vec<String> = solutions
        .rows
        .iter()
        .filter_map(|row| match row[0].as_ref() {
            Some(Value::Term(id)) => graph.term(*id).as_iri().map(str::to_owned),
            _ => None,
        })
        .collect();

    let mut levels = Vec::new();
    for predicate in &predicates {
        for level in schema.levels_with_last_predicate(predicate) {
            if levels.contains(&level) {
                continue;
            }
            // verify the member is reachable from observations over the
            // complete level path
            let ask = Query::ask(vec![
                patterns::observation_type("o", &schema.observation_class),
                patterns::path_to_concrete_member("o", &schema.level(level).path, member_iri),
            ]);
            if endpoint.ask(&ask)? {
                levels.push(level);
            }
        }
    }
    Ok(levels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_cube::{bootstrap, BootstrapConfig};
    use re2x_rdf::io::parse_turtle;
    use re2x_rdf::Graph;
    use re2x_sparql::LocalEndpoint;

    /// KG where "Germany" is both a destination and an origin country, and
    /// "2014" labels a year member (and occurs inside month labels).
    fn fixture() -> (LocalEndpoint, VirtualSchemaGraph) {
        let mut g = Graph::new();
        parse_turtle(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:Germany rdfs:label "Germany" .
            ex:Syria rdfs:label "Syria" .
            ex:m2014_10 ex:inYear ex:y2014 ; rdfs:label "October 2014" .
            ex:y2014 rdfs:label "2014" .

            ex:o1 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:Syria ;
                  ex:refPeriod ex:m2014_10 ; ex:applicants 10 .
            ex:o2 a ex:Obs ; ex:dest ex:Syria ; ex:origin ex:Germany ;
                  ex:refPeriod ex:m2014_10 ; ex:applicants 3 .
            "#,
            &mut g,
        )
        .expect("fixture parses");
        let ep = LocalEndpoint::new(g);
        let report = bootstrap(&ep, &BootstrapConfig::new("http://ex/Obs")).expect("bootstrap");
        (ep, report.schema)
    }

    #[test]
    fn ambiguous_member_matches_both_dimensions() {
        let (ep, schema) = fixture();
        let hits = matches(&ep, &schema, "Germany", MatchMode::Exact).expect("matches");
        let mut levels: Vec<String> = hits
            .iter()
            .map(|m| schema.level(m.binding.level).path[0].clone())
            .collect();
        levels.sort();
        assert_eq!(levels, vec!["http://ex/dest", "http://ex/origin"]);
        for m in &hits {
            assert_eq!(m.binding.member_iri, "http://ex/Germany");
            assert_eq!(m.attribute_predicate, re2x_rdf::vocab::rdfs::LABEL);
        }
    }

    #[test]
    fn exact_mode_distinguishes_year_from_month() {
        let (ep, schema) = fixture();
        let exact = matches(&ep, &schema, "2014", MatchMode::Exact).expect("matches");
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].binding.member_iri, "http://ex/y2014");
        assert_eq!(
            schema.level(exact[0].binding.level).path,
            vec![
                "http://ex/refPeriod".to_owned(),
                "http://ex/inYear".to_owned()
            ]
        );

        let keyword = matches(&ep, &schema, "2014", MatchMode::Keyword).expect("matches");
        assert_eq!(keyword.len(), 2, "year member and the October month member");
    }

    #[test]
    fn unmatched_keyword_yields_empty() {
        let (ep, schema) = fixture();
        assert!(matches(&ep, &schema, "Atlantis", MatchMode::Exact)
            .expect("matches")
            .is_empty());
    }

    #[test]
    fn member_levels_requires_observation_reachability() {
        let (ep, schema) = fixture();
        // y2014 is only reachable through refPeriod/inYear
        let levels = member_levels(&ep, &schema, "http://ex/y2014").expect("levels");
        assert_eq!(levels.len(), 1);
        // an IRI that exists but is not a member of anything
        let levels = member_levels(&ep, &schema, "http://ex/Obs").expect("levels");
        assert!(levels.is_empty());
    }
}
