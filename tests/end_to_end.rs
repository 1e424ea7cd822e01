//! End-to-end reproduction checks across crates: the running example must
//! yield the paper's Table 2 numbers through the complete stack
//! (generator → store → SPARQL engine → bootstrap → ReOLAP → session), and
//! the Figure 10 comparison properties must hold.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_sparql::{CachingEndpoint, EndpointStats, LocalEndpoint, SparqlEndpoint, Value};
use re2xolap::{RefineOp, ReolapConfig, Session, SessionConfig};

fn running_endpoint() -> (LocalEndpoint, re2x_cube::VirtualSchemaGraph) {
    let mut dataset = re2x_datagen::running::generate();
    let graph = std::mem::take(&mut dataset.graph);
    let endpoint = LocalEndpoint::new(graph);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;
    (endpoint, schema)
}

fn label_of(endpoint: &LocalEndpoint, value: Option<&Value>) -> String {
    let graph = endpoint.graph();
    match value {
        Some(Value::Term(id)) => {
            let label_p = graph.iri_id(re2x_rdf::vocab::rdfs::LABEL).expect("labels");
            graph
                .objects(*id, label_p)
                .first()
                .and_then(|&l| graph.term(l).as_literal())
                .map(|l| l.lexical().to_owned())
                .unwrap_or_default()
        }
        Some(v) => v.string_form(graph).into_owned(),
        None => String::new(),
    }
}

#[test]
fn table2_numbers_through_the_full_stack() {
    let (endpoint, schema) = running_endpoint();
    let mut session = Session::new(&endpoint, &schema, SessionConfig::default());
    let outcome = session.synthesize(&["Germany", "2014"]).expect("synthesis");
    // Germany appears only as destination in the running example
    assert_eq!(outcome.queries.len(), 1);
    let q = outcome.queries[0].clone();
    assert!(q.description.contains("Country of Destination"));
    let step = session.choose(q).expect("runs");

    // collect (destination, year) → SUM
    let sols = &step.solutions;
    let dest_col = &step.query.group_columns[0].var;
    let year_col = &step.query.group_columns[1].var;
    let sum_col = step
        .query
        .measure_columns
        .iter()
        .find(|m| m.alias.starts_with("sum"))
        .expect("sum column");
    let mut sums = std::collections::BTreeMap::new();
    for row in 0..sols.len() {
        let dest = label_of(&endpoint, sols.value(row, dest_col));
        let year = label_of(&endpoint, sols.value(row, year_col));
        let total = sols
            .value(row, &sum_col.alias)
            .and_then(|v| v.as_number(endpoint.graph()))
            .expect("sum bound");
        sums.insert((dest, year), total);
    }
    // Table 2 of the paper
    assert_eq!(sums[&("Germany".into(), "2014".into())], 8030.0);
    assert_eq!(sums[&("France".into(), "2014".into())], 5011.0);
    assert_eq!(sums[&("Italy".into(), "2014".into())], 1220.0);
    assert_eq!(sums[&("Austria".into(), "2014".into())], 120.0);
}

#[test]
fn synthesized_queries_always_contain_the_example() {
    let (endpoint, schema) = running_endpoint();
    for example in [
        vec!["Syria"],
        vec!["Asia"],
        vec!["Germany", "Syria"],
        vec!["2013"],
    ] {
        let outcome = re2xolap::reolap(&endpoint, &schema, &example, &ReolapConfig::default())
            .expect("synthesis");
        assert!(!outcome.queries.is_empty(), "{example:?} yields queries");
        for q in &outcome.queries {
            let sols = endpoint.select(&q.query).expect("runs");
            assert!(
                !q.matching_rows(&sols, endpoint.graph()).is_empty(),
                "example {example:?} missing from results of {}",
                q.sparql()
            );
            // minimality: exactly the matched levels are grouped
            assert_eq!(q.group_columns.len(), q.query.group_by.len());
        }
    }
}

#[test]
fn figure10_baseline_vs_reolap() {
    let (endpoint, schema) = running_endpoint();
    let example = ["Asia", "2014"];

    let baseline = re2x_baselines::reverse_engineer(&endpoint, &example, true).expect("baseline");
    assert!(!baseline.queries.is_empty());
    assert!(!baseline.reaches_observations);
    assert!(!baseline.has_aggregates);
    for q in &baseline.queries {
        assert!(!q.is_aggregate(), "SPARQLByE never aggregates");
        // flat: no query variable co-occurs across the two example parts
        let text = re2x_sparql::query_to_sparql(q);
        assert!(!text.contains("GROUP BY"), "{text}");
        assert!(
            !text.contains("numApplicants"),
            "never reaches measures: {text}"
        );
    }

    let outcome =
        re2xolap::reolap(&endpoint, &schema, &example, &ReolapConfig::default()).expect("reolap");
    assert!(!outcome.queries.is_empty());
    for q in &outcome.queries {
        assert!(q.query.is_aggregate(), "ReOLAP aggregates");
        let text = q.sparql();
        assert!(text.contains("GROUP BY"), "{text}");
        assert!(
            text.contains(&schema.observation_class),
            "ReOLAP reaches observations: {text}"
        );
        // the ⟨Asia, 2014⟩ interpretation uses 2-hop paths — exactly what
        // the baseline cannot produce
        assert!(text.contains(" / "), "sequence path present: {text}");
    }
}

#[test]
fn alex_workflow_is_reproducible_and_backtrackable() {
    let (endpoint, schema) = running_endpoint();
    let mut session = Session::new(&endpoint, &schema, SessionConfig::default());
    let outcome = session.synthesize(&["Germany", "2014"]).expect("synthesis");
    session.choose(outcome.queries[0].clone()).expect("runs");
    let base_rows = session.current().expect("step").solutions.len();

    // drill-down by continent of origin exists and grows the result
    let refinements = session.refinements(RefineOp::Disaggregate).expect("dis");
    let continent = refinements
        .into_iter()
        .find(|r| r.explanation.contains("Continent"))
        .expect("continent offer");
    session.apply(continent).expect("runs");
    let after_dis = session.current().expect("step").solutions.len();
    assert!(after_dis >= base_rows);

    // top-k restricts
    let tops = session.refinements(RefineOp::TopK).expect("topk");
    assert!(!tops.is_empty());
    session
        .apply(tops.into_iter().next().expect("one"))
        .expect("runs");
    assert!(session.current().expect("step").solutions.len() <= after_dis);

    // backtracking returns to the disaggregated view
    assert!(session.backtrack());
    assert_eq!(session.current().expect("step").solutions.len(), after_dis);

    let metrics = session.metrics();
    assert!(metrics.paths_offered > 0);
    assert!(metrics.tuples_accessible as usize >= base_rows);
}

/// Endpoint accounting stays monotone and internally consistent while a
/// scripted ReOLAP session runs through a caching decorator: counters only
/// grow, hits+misses cover every issued query, the latency histogram counts
/// one sample per query that reached the inner endpoint, and rows_returned
/// never decreases.
#[test]
fn endpoint_stats_are_monotone_through_a_scripted_session() {
    let mut dataset = re2x_datagen::running::generate();
    let graph = std::mem::take(&mut dataset.graph);
    let endpoint = CachingEndpoint::new(LocalEndpoint::new(graph));
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;

    let monotone = |before: &EndpointStats, after: &EndpointStats, when: &str| {
        assert!(after.selects >= before.selects, "selects shrank {when}");
        assert!(after.asks >= before.asks, "asks shrank {when}");
        assert!(
            after.keyword_searches >= before.keyword_searches,
            "keyword searches shrank {when}"
        );
        assert!(
            after.rows_returned >= before.rows_returned,
            "rows_returned shrank {when}"
        );
        assert!(after.cache_hits >= before.cache_hits, "hits shrank {when}");
        assert!(
            after.cache_misses >= before.cache_misses,
            "misses shrank {when}"
        );
        assert!(after.busy >= before.busy, "busy time shrank {when}");
        assert!(
            after.latency.count() >= before.latency.count(),
            "latency samples shrank {when}"
        );
    };
    let consistent = |stats: &EndpointStats, when: &str| {
        // only misses reach the inner endpoint, which records one latency
        // sample per query it answers
        assert_eq!(
            stats.cache_misses,
            stats.total_queries(),
            "miss accounting {when}"
        );
        assert_eq!(
            stats.latency.count(),
            stats.total_queries(),
            "one latency sample per inner query {when}"
        );
        if stats.latency.count() > 0 {
            let p50 = stats.latency.p50().expect("p50");
            let p99 = stats.latency.p99().expect("p99");
            assert!(p50 <= p99, "quantiles ordered {when}");
        }
    };

    let mut previous = endpoint.stats();
    consistent(&previous, "after bootstrap");
    assert!(previous.total_queries() > 0, "bootstrap issues queries");

    // scripted session: synthesize → run → drill down → top-k → backtrack
    let mut session = Session::new(&endpoint, &schema, SessionConfig::default());
    let outcome = session.synthesize(&["Germany", "2014"]).expect("synthesis");
    session.choose(outcome.queries[0].clone()).expect("runs");
    let mut checkpoint = |when: &str| {
        let now = endpoint.stats();
        monotone(&previous, &now, when);
        consistent(&now, when);
        previous = now;
    };
    checkpoint("after first query");

    let r = session.refinements(RefineOp::Disaggregate).expect("dis");
    session
        .apply(r.into_iter().next().expect("offer"))
        .expect("runs");
    checkpoint("after disaggregate");

    let r = session.refinements(RefineOp::TopK).expect("topk");
    session
        .apply(r.into_iter().next().expect("offer"))
        .expect("runs");
    checkpoint("after top-k");

    assert!(session.backtrack());
    checkpoint("after backtrack");

    // replaying the same synthesis against the warm cache gains hits but no
    // (or almost no) new inner-endpoint work
    let replayed = session.synthesize(&["Germany", "2014"]).expect("synthesis");
    assert_eq!(replayed.queries.len(), outcome.queries.len());
    let now = endpoint.stats();
    monotone(&previous, &now, "after replay");
    consistent(&now, "after replay");
    assert!(
        now.cache_hits > previous.cache_hits,
        "replay hits the cache"
    );
}

#[test]
fn multi_tuple_synthesis_on_running_example() {
    let (endpoint, schema) = running_endpoint();
    let tuples = vec![
        vec!["Germany".to_owned(), "Syria".to_owned()],
        vec!["France".to_owned(), "Iraq".to_owned()],
    ];
    let outcome = re2xolap::reolap_multi(&endpoint, &schema, &tuples, &ReolapConfig::default())
        .expect("synthesis");
    assert_eq!(outcome.queries.len(), 1);
    let q = &outcome.queries[0];
    let sols = endpoint.select(&q.query).expect("runs");
    // both tuples must be represented in the result
    assert!(q.matching_rows(&sols, endpoint.graph()).len() >= 2);
}
