//! System bootstrap: automatic discovery of the multidimensional schema
//! (Section 5.2, "Construction and use").
//!
//! The crawler is given *only* a SPARQL endpoint and the RDF class
//! identifying observation nodes. It discovers, via standard SPARQL
//! queries:
//!
//! 1. measure predicates — observation edges to numeric literals,
//! 2. dimension predicates — observation edges to IRI nodes,
//! 3. hierarchy levels — by recursively following predicates from dimension
//!    members to further IRI nodes (depth-first with cycle protection: a
//!    predicate may not repeat within one path, and depth is bounded),
//! 4. level attributes — predicates from members to literals,
//! 5. member counts per level.
//!
//! The result is the [`VirtualSchemaGraph`]; everything downstream (query
//! synthesis, refinements) navigates it instead of the triplestore.

use crate::labels::{default_label_predicates, label_of_counted};
use crate::model::DimensionId;
use crate::patterns::{observation_type, path_to_member};
use crate::vgraph::VirtualSchemaGraph;
use re2x_obs::Tracer;
use re2x_rdf::vocab;
use re2x_sparql::{
    AggFunc, Expr, Func, PatternElement, Query, SelectItem, SparqlEndpoint, SparqlError,
    TermPattern, TriplePattern,
};
use std::time::{Duration, Instant};

/// Configuration of the bootstrap crawl.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// The RDF class whose instances are observations (e.g.
    /// `qb:Observation`). The only dataset knowledge the system needs.
    pub observation_class: String,
    /// Maximum hierarchy depth to explore below the observation root.
    pub max_depth: usize,
    /// Predicates never treated as dimension or roll-up predicates
    /// (typing and bookkeeping edges).
    pub excluded_predicates: Vec<String>,
    /// Predicates consulted for human-readable labels.
    pub label_predicates: Vec<String>,
    /// Tracer receiving per-phase spans (`bootstrap`, `bootstrap.prelude`,
    /// one `bootstrap.crawl_dimension` per dimension). Disabled by default.
    pub tracer: Tracer,
}

impl BootstrapConfig {
    /// Defaults for a QB-style statistical KG.
    pub fn new(observation_class: impl Into<String>) -> Self {
        BootstrapConfig {
            observation_class: observation_class.into(),
            max_depth: 4,
            excluded_predicates: vec![
                vocab::rdf::TYPE.to_owned(),
                vocab::qb::DATASET_PROP.to_owned(),
                vocab::qb4o::MEMBER_OF.to_owned(),
                vocab::qb4o::IN_HIERARCHY.to_owned(),
            ],
            label_predicates: default_label_predicates(),
            tracer: Tracer::disabled(),
        }
    }

    /// Routes bootstrap spans (and the queries issued inside them) through
    /// `tracer`.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    fn is_excluded(&self, predicate: &str) -> bool {
        self.excluded_predicates.iter().any(|p| p == predicate)
    }
}

/// Outcome of a bootstrap run: the schema plus cost accounting (the paper
/// reports bootstrap time in Figure 6c and attributes it to endpoint
/// performance).
#[derive(Debug, Clone)]
pub struct BootstrapReport {
    /// The discovered schema.
    pub schema: VirtualSchemaGraph,
    /// Wall-clock time of the crawl.
    pub elapsed: Duration,
    /// Number of SPARQL queries issued.
    pub endpoint_queries: u64,
}

/// Crawls the endpoint and builds the Virtual Schema Graph, one dimension
/// at a time.
pub fn bootstrap(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
) -> Result<BootstrapReport, SparqlError> {
    // lint:allow(no-wallclock, bootstrap phase timing feeds BootstrapReport durations)
    let start = Instant::now();
    let _root = config.tracer.span("bootstrap");
    let mut queries = 0u64;
    let mut schema = VirtualSchemaGraph::new(config.observation_class.clone());

    let dim_predicates: Vec<String> = {
        let _span = config.tracer.span("bootstrap.prelude");
        // 1. observation count
        schema.observation_count = count_observations(endpoint, config, &mut queries)?;

        // 2. measures: observation predicates with numeric-literal objects
        for predicate in typed_object_predicates(endpoint, config, Func::IsNumeric, &mut queries)? {
            if config.is_excluded(&predicate) {
                continue;
            }
            let label =
                label_of_counted(endpoint, &predicate, &config.label_predicates, &mut queries);
            schema.add_measure(predicate, label);
        }

        // 3. dimensions: observation predicates with IRI objects
        typed_object_predicates(endpoint, config, Func::IsIri, &mut queries)?
            .into_iter()
            .filter(|p| !config.is_excluded(p))
            .collect()
    };

    // 4. each dimension's hierarchy, depth-first
    for predicate in dim_predicates {
        let _dim = config.tracer.span_with(
            "bootstrap.crawl_dimension",
            &[("dimension", predicate.as_str())],
        );
        let label = label_of_counted(endpoint, &predicate, &config.label_predicates, &mut queries);
        let path = vec![predicate.clone()];
        let dim = schema.add_dimension(predicate, label);
        collect_levels(endpoint, config, &mut schema, dim, path, &mut queries)?;
    }

    Ok(BootstrapReport {
        schema,
        elapsed: start.elapsed(),
        endpoint_queries: queries,
    })
}

/// Outcome of an incremental refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshReport {
    /// Observations before the refresh.
    pub observations_before: usize,
    /// Observations after the refresh.
    pub observations_after: usize,
    /// Number of levels whose member counts changed.
    pub levels_changed: usize,
    /// SPARQL queries issued.
    pub endpoint_queries: u64,
}

/// Incrementally refreshes an existing schema after data was *added* to
/// the store (the paper: "if the schema does not change and only new data
/// is added, all the in-memory data structures are updated efficiently
/// without the need for re-computation").
///
/// Recounts observations and per-level members — one query per level
/// instead of the full recursive crawl. Structural changes (new
/// predicates, new hierarchy steps) require a fresh [`bootstrap`].
pub fn refresh(
    endpoint: &dyn SparqlEndpoint,
    schema: &mut VirtualSchemaGraph,
) -> Result<RefreshReport, SparqlError> {
    let config = BootstrapConfig::new(schema.observation_class.clone());
    let mut queries = 0u64;
    let observations_before = schema.observation_count;
    schema.observation_count = count_observations(endpoint, &config, &mut queries)?;
    let mut levels_changed = 0usize;
    let paths: Vec<(crate::model::LevelId, Vec<String>)> = schema
        .levels()
        .iter()
        .map(|l| (l.id, l.path.clone()))
        .collect();
    for (id, path) in paths {
        let count = count_level_members(endpoint, &config, &path, &mut queries)?;
        if count != schema.level(id).member_count {
            schema.set_member_count(id, count);
            levels_changed += 1;
        }
    }
    Ok(RefreshReport {
        observations_before,
        observations_after: schema.observation_count,
        levels_changed,
        endpoint_queries: queries,
    })
}

fn count_observations(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    queries: &mut u64,
) -> Result<usize, SparqlError> {
    let mut query = Query::select_all(vec![observation_type("o", &config.observation_class)]);
    query.select.push(SelectItem::Agg {
        func: AggFunc::Count,
        expr: Expr::Number(1.0),
        alias: "n".to_owned(),
    });
    select_count(endpoint, &query, queries)
}

/// `SELECT DISTINCT ?p WHERE { ?o a C . ?o ?p ?x . FILTER(kind(?x)) }`.
fn typed_object_predicates(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    kind: Func,
    queries: &mut u64,
) -> Result<Vec<String>, SparqlError> {
    let query = Query::select_all(vec![
        observation_type("o", &config.observation_class),
        PatternElement::Triple(TriplePattern::with_pred_var(
            TermPattern::Var("o".to_owned()),
            "p",
            TermPattern::Var("x".to_owned()),
        )),
        PatternElement::Filter(Expr::Call(kind, vec![Expr::var("x")])),
    ]);
    select_predicates(endpoint, query, "p", queries)
}

/// Records the level reached by `path` in `dimension` and recurses into
/// its roll-ups, depth-first.
fn collect_levels(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    schema: &mut VirtualSchemaGraph,
    dimension: DimensionId,
    path: Vec<String>,
    queries: &mut u64,
) -> Result<(), SparqlError> {
    // distinct members at this level
    let member_count = count_level_members(endpoint, config, &path, queries)?;
    if member_count == 0 {
        return Ok(());
    }
    // literal-valued predicates on this level's members are its attributes
    let attributes = member_predicates(endpoint, config, &path, Func::IsLiteral, queries)?;
    let label = label_of_counted(
        endpoint,
        path.last().map(String::as_str).unwrap_or_default(),
        &config.label_predicates,
        queries,
    );
    schema.add_level(dimension, path.clone(), member_count, attributes, label);

    if path.len() >= config.max_depth {
        return Ok(());
    }
    // IRI-valued predicates lead to coarser levels
    for rollup in member_predicates(endpoint, config, &path, Func::IsIri, queries)? {
        if config.is_excluded(&rollup) || path.contains(&rollup) {
            continue; // cycle protection: a predicate may not repeat in a path
        }
        let mut child = path.clone();
        child.push(rollup);
        if schema.level_by_path(&child).is_some() {
            continue;
        }
        collect_levels(endpoint, config, schema, dimension, child, queries)?;
    }
    Ok(())
}

/// `SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE { ?o a C . ?o <path> ?m }`:
/// one result row instead of one per member.
fn count_level_members(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    path: &[String],
    queries: &mut u64,
) -> Result<usize, SparqlError> {
    let mut query = Query::select_all(vec![
        observation_type("o", &config.observation_class),
        path_to_member("o", path, "m"),
    ]);
    query.select.push(SelectItem::Agg {
        func: AggFunc::CountDistinct,
        expr: Expr::var("m"),
        alias: "n".to_owned(),
    });
    select_count(endpoint, &query, queries)
}

/// `SELECT DISTINCT ?q WHERE { ?o a C . ?o <path> ?m . ?m ?q ?x . FILTER(kind(?x)) }`.
fn member_predicates(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    path: &[String],
    kind: Func,
    queries: &mut u64,
) -> Result<Vec<String>, SparqlError> {
    let query = Query::select_all(vec![
        observation_type("o", &config.observation_class),
        path_to_member("o", path, "m"),
        PatternElement::Triple(TriplePattern::with_pred_var(
            TermPattern::Var("m".to_owned()),
            "q",
            TermPattern::Var("x".to_owned()),
        )),
        PatternElement::Filter(Expr::Call(kind, vec![Expr::var("x")])),
    ]);
    select_predicates(endpoint, query, "q", queries)
}

/// Answers a one-row `?n` count query.
fn select_count(
    endpoint: &dyn SparqlEndpoint,
    query: &Query,
    queries: &mut u64,
) -> Result<usize, SparqlError> {
    *queries += 1;
    let solutions = endpoint.select(query)?;
    Ok(solutions
        .value(0, "n")
        .and_then(|v| v.as_number(endpoint.graph()))
        .unwrap_or(0.0) as usize)
}

/// Answers `query` as `SELECT DISTINCT ?var`, the values sorted.
fn select_predicates(
    endpoint: &dyn SparqlEndpoint,
    mut query: Query,
    var: &str,
    queries: &mut u64,
) -> Result<Vec<String>, SparqlError> {
    query.select.push(SelectItem::Var(var.to_owned()));
    query.distinct = true;
    *queries += 1;
    let solutions = endpoint.select(&query)?;
    let graph = endpoint.graph();
    let mut predicates: Vec<String> = solutions
        .rows
        .iter()
        .filter_map(|row| row[0].as_ref().map(|v| v.string_form(graph).into_owned()))
        .collect();
    predicates.sort_unstable();
    Ok(predicates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::io::parse_turtle;
    use re2x_rdf::Graph;
    use re2x_sparql::LocalEndpoint;

    /// Tiny asylum KG with typed observations, two-level hierarchies, and a
    /// cycle (partnerCountry ↔ partnerCountry) to exercise protection.
    fn fixture() -> LocalEndpoint {
        let mut g = Graph::new();
        parse_turtle(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:origin rdfs:label "Country of Origin" .
            ex:applicants rdfs:label "Num Applicants" .

            ex:Syria ex:inContinent ex:Asia ; rdfs:label "Syria" ; ex:partner ex:Iraq .
            ex:Iraq ex:inContinent ex:Asia ; rdfs:label "Iraq" ; ex:partner ex:Syria .
            ex:Asia rdfs:label "Asia" .
            ex:Germany rdfs:label "Germany" .
            ex:France rdfs:label "France" .
            ex:m2014 ex:inYear ex:y2014 ; rdfs:label "October 2014" .
            ex:y2014 rdfs:label "2014" .

            ex:o1 a ex:Observation ; ex:origin ex:Syria ; ex:dest ex:Germany ;
                  ex:refPeriod ex:m2014 ; ex:applicants 300 .
            ex:o2 a ex:Observation ; ex:origin ex:Iraq ; ex:dest ex:France ;
                  ex:refPeriod ex:m2014 ; ex:applicants 120 .
            "#,
            &mut g,
        )
        .expect("fixture parses");
        LocalEndpoint::new(g)
    }

    #[test]
    fn discovers_full_schema_from_class_only() {
        let ep = fixture();
        let config = BootstrapConfig::new("http://ex/Observation");
        let report = bootstrap(&ep, &config).expect("bootstrap");
        let s = &report.schema;
        assert_eq!(s.observation_count, 2);
        // measures
        assert_eq!(s.measures().len(), 1);
        assert_eq!(s.measures()[0].predicate, "http://ex/applicants");
        assert_eq!(s.measures()[0].label, "Num Applicants");
        // dimensions: origin, dest, refPeriod
        assert_eq!(s.dimensions().len(), 3);
        assert_eq!(
            s.dimension_by_predicate("http://ex/origin")
                .map(|d| s.dimension(d).label.as_str()),
            Some("Country of Origin")
        );
        // levels: origin (+continent, +partner, +partner/continent...),
        // dest, refPeriod (+year)
        let origin_base = s
            .level_by_path(&["http://ex/origin".to_owned()])
            .expect("base level");
        assert_eq!(s.level(origin_base).member_count, 2);
        let continent = s
            .level_by_path(&[
                "http://ex/origin".to_owned(),
                "http://ex/inContinent".to_owned(),
            ])
            .expect("continent level");
        assert_eq!(s.level(continent).member_count, 1);
        let year = s
            .level_by_path(&[
                "http://ex/refPeriod".to_owned(),
                "http://ex/inYear".to_owned(),
            ])
            .expect("year level");
        assert_eq!(s.level(year).member_count, 1);
        // attributes discovered on members
        assert!(s
            .level(origin_base)
            .attribute_predicates
            .contains(&re2x_rdf::vocab::rdfs::LABEL.to_owned()));
        assert!(report.endpoint_queries > 5);
        assert!(report.elapsed > Duration::ZERO);
    }

    #[test]
    fn cycle_protection_terminates_partner_loop() {
        let ep = fixture();
        let config = BootstrapConfig::new("http://ex/Observation");
        let report = bootstrap(&ep, &config).expect("bootstrap");
        let s = &report.schema;
        // partner chain exists but `partner` never repeats within a path
        let partner = s.level_by_path(&[
            "http://ex/origin".to_owned(),
            "http://ex/partner".to_owned(),
        ]);
        assert!(partner.is_some(), "one partner hop explored");
        for level in s.levels() {
            let mut seen = std::collections::HashSet::new();
            for p in &level.path {
                assert!(seen.insert(p), "predicate repeated in {:?}", level.path);
            }
            assert!(level.depth() <= config.max_depth);
        }
    }

    #[test]
    fn excluded_predicates_do_not_become_dimensions() {
        let ep = fixture();
        let config = BootstrapConfig::new("http://ex/Observation");
        let report = bootstrap(&ep, &config).expect("bootstrap");
        assert!(report
            .schema
            .dimension_by_predicate(vocab::rdf::TYPE)
            .is_none());
    }

    #[test]
    fn max_depth_limits_exploration() {
        let ep = fixture();
        let mut config = BootstrapConfig::new("http://ex/Observation");
        config.max_depth = 1;
        let report = bootstrap(&ep, &config).expect("bootstrap");
        assert!(report.schema.levels().iter().all(|l| l.depth() == 1));
    }

    #[test]
    fn refresh_recounts_without_recrawling() {
        let ep = fixture();
        let config = BootstrapConfig::new("http://ex/Observation");
        let report = bootstrap(&ep, &config).expect("bootstrap");
        let mut schema = report.schema;

        // add an observation over a *new* origin member to the store
        let mut graph = ep.into_graph();
        re2x_rdf::io::parse_turtle(
            r#"@prefix ex: <http://ex/> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               ex:Eritrea ex:inContinent ex:Africa ; rdfs:label "Eritrea" .
               ex:o3 a ex:Observation ; ex:origin ex:Eritrea ; ex:dest ex:Germany ;
                     ex:refPeriod ex:m2014 ; ex:applicants 42 ."#,
            &mut graph,
        )
        .expect("update parses");
        let ep = LocalEndpoint::new(graph);

        let refresh_report = refresh(&ep, &mut schema).expect("refresh");
        assert_eq!(refresh_report.observations_before, 2);
        assert_eq!(refresh_report.observations_after, 3);
        assert_eq!(schema.observation_count, 3);
        assert!(
            refresh_report.levels_changed >= 2,
            "origin country + continent grew"
        );
        let origin = schema
            .level_by_path(&["http://ex/origin".to_owned()])
            .expect("level kept");
        assert_eq!(schema.level(origin).member_count, 3, "Syria, Iraq, Eritrea");
        // refresh is much cheaper than the crawl: one query per level + 1
        assert_eq!(
            refresh_report.endpoint_queries,
            schema.levels().len() as u64 + 1
        );
        assert!(refresh_report.endpoint_queries < report.endpoint_queries);
    }

    /// `endpoint_queries` is what the endpoint answered — label lookups
    /// included, which try one predicate after another: the fixture's
    /// `dest` / `refPeriod` dimensions and `inContinent` / `partner` /
    /// `inYear` levels carry no label, so theirs take two queries each.
    #[test]
    fn endpoint_queries_counts_every_query_issued() {
        let config = BootstrapConfig::new("http://ex/Observation");
        let ep = fixture();
        let before = ep.stats().total_queries();
        let report = bootstrap(&ep, &config).expect("bootstrap");
        let issued = ep.stats().total_queries() - before;
        assert_eq!(report.endpoint_queries, issued);
        // an unlabeled IRI costs one query per label predicate tried
        let mut single = config.clone();
        single.label_predicates.truncate(1);
        let single = bootstrap(&fixture(), &single).expect("bootstrap");
        assert!(issued > single.endpoint_queries);
    }

    #[test]
    fn empty_class_yields_empty_schema() {
        let ep = fixture();
        let config = BootstrapConfig::new("http://ex/NoSuchClass");
        let report = bootstrap(&ep, &config).expect("bootstrap");
        assert_eq!(report.schema.observation_count, 0);
        assert!(report.schema.dimensions().is_empty());
        assert!(report.schema.measures().is_empty());
    }
}
