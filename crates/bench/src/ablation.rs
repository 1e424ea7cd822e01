//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Virtual Schema Graph vs. direct triplestore navigation** — the
//!    paper's central optimization claim: member→level resolution via the
//!    in-memory virtual graph versus rediscovering the observation-to-member
//!    paths from the store on every lookup.
//! 2. **Interpretation validity check on/off** — the `ASK` probe that
//!    guarantees non-empty results costs endpoint round-trips.
//! 3. **Full-text index vs. literal scan** — keyword resolution through the
//!    inverted index versus scanning every literal.
//! 4. **Endpoint latency** — bootstrap time under injected per-query
//!    latency: the store's speed, not the crawl, dominates (§7.1).

use crate::env::PreparedDataset;
use crate::report::{fmt_duration, mean, Table};
use re2x_cube::patterns;
use re2x_datagen::example_workload_on;
use re2x_rdf::text::normalize;
use re2x_sparql::{Query, SparqlEndpoint};
use re2xolap::{reolap, ReolapConfig};
use std::time::{Duration, Instant};

/// Resolves the levels of a member *without* the Virtual Schema Graph:
/// breadth-first search of inbound predicate paths from the member until
/// observation nodes of `observation_class` are reached, querying the
/// endpoint at every step — what a system without the paper's optimization
/// has to do.
pub fn member_paths_direct(
    endpoint: &dyn SparqlEndpoint,
    observation_class: &str,
    member_iri: &str,
    max_depth: usize,
) -> Vec<Vec<String>> {
    let mut found = Vec::new();
    // frontier entries: the path (observation → … → member) discovered so
    // far, and the IRI at its head (whose inbound edges we expand next)
    let mut frontier: Vec<(Vec<String>, String)> = vec![(Vec::new(), member_iri.to_owned())];
    for _ in 0..max_depth {
        let mut next = Vec::new();
        for (path, head) in frontier {
            // SELECT DISTINCT ?p WHERE { ?x ?p <head> }
            let mut q = Query::select_all(vec![re2x_sparql::PatternElement::Triple(
                re2x_sparql::TriplePattern::with_pred_var(
                    re2x_sparql::TermPattern::Var("x".to_owned()),
                    "p",
                    re2x_sparql::TermPattern::Iri(head.clone()),
                ),
            )]);
            q.distinct = true;
            q.select.push(re2x_sparql::SelectItem::Var("p".to_owned()));
            let Ok(solutions) = endpoint.select(&q) else {
                continue;
            };
            let graph = endpoint.graph();
            for row in &solutions.rows {
                let Some(re2x_sparql::Value::Term(id)) = row[0] else {
                    continue;
                };
                let Some(pred) = graph.term(id).as_iri() else {
                    continue;
                };
                if pred == re2x_rdf::vocab::rdf::TYPE || path.iter().any(|p| p == pred) {
                    continue;
                }
                let mut extended = vec![pred.to_owned()];
                extended.extend(path.iter().cloned());
                // does an observation reach the member over this path?
                let ask = Query::ask(vec![
                    patterns::observation_type("o", observation_class),
                    patterns::path_to_concrete_member("o", &extended, member_iri),
                ]);
                if endpoint.ask(&ask).unwrap_or(false) {
                    if !found.contains(&extended) {
                        found.push(extended.clone());
                    }
                } else {
                    // keep expanding upstream of this predicate: find one
                    // subject to continue from (sampling the fan-in)
                    let sources = Query::select_all(vec![re2x_sparql::PatternElement::Triple(
                        re2x_sparql::TriplePattern::new(
                            re2x_sparql::TermPattern::Var("x".to_owned()),
                            pred.to_owned(),
                            re2x_sparql::TermPattern::Iri(head.clone()),
                        ),
                    )]);
                    let mut sources = sources;
                    sources.limit = Some(1);
                    if let Ok(s) = endpoint.select(&sources) {
                        if let Some(re2x_sparql::Value::Term(src)) =
                            s.rows.first().and_then(|r| r[0].clone())
                        {
                            if let Some(iri) = graph.term(src).as_iri() {
                                next.push((extended, iri.to_owned()));
                            }
                        }
                    }
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    found
}

/// Ablation 1: time to resolve the levels of each workload member with the
/// virtual graph vs. direct navigation.
pub fn ablation_vgraph(prepared: &PreparedDataset, seed: u64) -> String {
    let workload = example_workload_on(prepared.endpoint.graph(), &prepared.dataset, 1, 8, seed);
    let schema = &prepared.report.schema;
    let mut with_vgraph = Vec::new();
    let mut direct = Vec::new();
    for tuple in &workload {
        let keyword = &tuple[0];
        // resolve keyword to a member first (shared cost, not measured)
        let hits = re2xolap::matches(
            &prepared.endpoint,
            schema,
            keyword,
            re2xolap::MatchMode::Exact,
        )
        .expect("matching");
        let Some(hit) = hits.first() else { continue };
        let member = hit.binding.member_iri.clone();

        let start = Instant::now();
        let levels =
            re2xolap::member_levels(&prepared.endpoint, schema, &member).expect("vgraph lookup");
        with_vgraph.push(start.elapsed());

        let start = Instant::now();
        let paths = member_paths_direct(&prepared.endpoint, &schema.observation_class, &member, 4);
        direct.push(start.elapsed());
        assert!(
            !levels.is_empty() && !paths.is_empty(),
            "both strategies find the member's levels"
        );
    }
    let mut t = Table::new(["strategy", "avg member→level resolution", "samples"]);
    t.row([
        "Virtual Schema Graph".to_owned(),
        fmt_duration(mean(&with_vgraph)),
        with_vgraph.len().to_string(),
    ]);
    t.row([
        "direct navigation".to_owned(),
        fmt_duration(mean(&direct)),
        direct.len().to_string(),
    ]);
    let mut out = t.render();

    // The vgraph's larger payoff is at refinement time: Disaggregate
    // enumerates all drill-down paths from the in-memory graph in O(|L̄|),
    // while a system without it would re-crawl the schema from the store
    // (≈ one bootstrap) to enumerate the same paths.
    let queries = reolap(
        &prepared.endpoint,
        schema,
        &[workload[0][0].as_str()],
        &ReolapConfig::default(),
    )
    .ok()
    .map(|o| o.queries)
    .unwrap_or_default();
    if let Some(query) = queries.first() {
        let start = Instant::now();
        let refinements = re2xolap::refine::disaggregate::disaggregate(schema, query);
        let dis_time = start.elapsed();
        let start = Instant::now();
        let config = re2x_cube::BootstrapConfig::new(schema.observation_class.clone());
        let _ = re2x_cube::bootstrap(&prepared.endpoint, &config);
        let crawl_time = start.elapsed();
        let mut t2 = Table::new(["drill-down path enumeration", "time"]);
        t2.row([
            format!("Virtual Schema Graph ({} paths)", refinements.len()),
            fmt_duration(dis_time),
        ]);
        t2.row([
            "re-crawling the store (≈ bootstrap)".to_owned(),
            fmt_duration(crawl_time),
        ]);
        out.push('\n');
        out.push_str(&t2.render());
    }
    out
}

/// Ablation 2: synthesis with and without the validity `ASK` probe.
pub fn ablation_validate(prepared: &PreparedDataset, seed: u64) -> String {
    let workload = example_workload_on(prepared.endpoint.graph(), &prepared.dataset, 2, 10, seed);
    let mut rows = Vec::new();
    for validate in [true, false] {
        let config = ReolapConfig {
            validate,
            ..Default::default()
        };
        let mut times = Vec::new();
        let mut queries = 0usize;
        for tuple in &workload {
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            let start = Instant::now();
            if let Ok(outcome) = reolap(&prepared.endpoint, &prepared.report.schema, &refs, &config)
            {
                queries += outcome.queries.len();
            }
            times.push(start.elapsed());
        }
        rows.push((validate, mean(&times), queries));
    }
    let mut t = Table::new(["validity check", "avg synthesis time", "total queries"]);
    for (validate, time, queries) in rows {
        t.row([
            if validate { "on (paper)" } else { "off" }.to_owned(),
            fmt_duration(time),
            queries.to_string(),
        ]);
    }
    t.render()
}

/// Ablation 3: keyword resolution through the inverted text index vs. a
/// linear scan over every literal in the store.
pub fn ablation_text_index(prepared: &PreparedDataset, seed: u64) -> String {
    let workload = example_workload_on(prepared.endpoint.graph(), &prepared.dataset, 1, 10, seed);
    let graph = prepared.endpoint.graph();
    let mut indexed = Vec::new();
    let mut scanned = Vec::new();
    for tuple in &workload {
        let keyword = &tuple[0];
        let start = Instant::now();
        let via_index = graph.literals_matching_exact(keyword);
        indexed.push(start.elapsed());

        let start = Instant::now();
        let needle = normalize(keyword);
        let mut via_scan = Vec::new();
        for (id, term) in graph.interner().iter() {
            if let Some(l) = term.as_literal() {
                if normalize(l.lexical()) == needle {
                    via_scan.push(id);
                }
            }
        }
        scanned.push(start.elapsed());
        assert_eq!(
            via_index.len(),
            via_scan.len(),
            "both find the same literals"
        );
    }
    let mut t = Table::new(["strategy", "avg keyword lookup", "samples"]);
    t.row([
        "full-text index".to_owned(),
        fmt_duration(mean(&indexed)),
        indexed.len().to_string(),
    ]);
    t.row([
        "literal scan".to_owned(),
        fmt_duration(mean(&scanned)),
        scanned.len().to_string(),
    ]);
    t.render()
}

/// Endpoint-performance study (Section 7.1, "the triplestore performance
/// in serving the data is the determining factor and dominates the
/// bootstrap time"): bootstraps the same store with increasing injected
/// per-query latency and reports how bootstrap time scales with the
/// number of endpoint queries.
pub fn ablation_endpoint_latency(prepared: &PreparedDataset) -> String {
    use re2x_cube::{bootstrap, BootstrapConfig};
    use re2x_sparql::LocalEndpoint;
    let graph = prepared.endpoint.graph().clone();
    let config = BootstrapConfig::new(prepared.dataset.observation_class.clone());
    let mut t = Table::new([
        "injected latency / query",
        "bootstrap time",
        "endpoint queries",
    ]);
    for latency_ms in [0u64, 1, 5] {
        let endpoint = if latency_ms == 0 {
            LocalEndpoint::new(graph.clone())
        } else {
            LocalEndpoint::new(graph.clone()).with_latency(Duration::from_millis(latency_ms))
        };
        let report = bootstrap(&endpoint, &config).expect("bootstrap");
        t.row([
            format!("{latency_ms} ms"),
            fmt_duration(report.elapsed),
            report.endpoint_queries.to_string(),
        ]);
    }
    t.render()
}
