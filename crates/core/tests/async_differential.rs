//! Differential tests: session refinement previews over the async adapter
//! must be byte-identical to their serial equivalents — same result sets,
//! same issued-query counts, and reconciling provenance.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_obs::Tracer;
use re2x_sparql::{LocalEndpoint, TracingEndpoint};
use re2xolap::{RefineOp, Session, SessionConfig};

fn eurostat_fixture() -> (LocalEndpoint, re2x_cube::VirtualSchemaGraph) {
    let dataset = re2x_datagen::eurostat::generate(500, 7);
    let endpoint = LocalEndpoint::new(dataset.graph);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(dataset.observation_class))
        .expect("bootstrap")
        .schema;
    (endpoint, schema)
}

/// Queries in the tracer's unattributed bucket (bootstrap lands there; the
/// async batch must not add to it).
fn unattributed(tracer: &Tracer) -> u64 {
    tracer
        .provenance()
        .iter()
        .find(|(path, _)| path == re2x_obs::UNATTRIBUTED)
        .map(|(_, s)| s.queries())
        .unwrap_or(0)
}

#[test]
fn session_preview_async_equals_serial() {
    let (endpoint, schema) = eurostat_fixture();
    let mut session = Session::new(&endpoint, &schema, SessionConfig::default());
    let outcome = session.synthesize(&["Germany", "2014"]).expect("synthesis");
    session.choose(outcome.queries[0].clone()).expect("runs");
    let refinements = session
        .refinements(RefineOp::Disaggregate)
        .expect("refinements");
    assert!(refinements.len() > 1, "need a real batch to preview");

    let before = endpoint.stats().total_queries();
    let serial = session.preview(&refinements, 0).expect("serial preview");
    let serial_queries = endpoint.stats().total_queries() - before;

    let before = endpoint.stats().total_queries();
    let overlapped = session.preview(&refinements, 4).expect("async preview");
    let async_queries = endpoint.stats().total_queries() - before;

    assert_eq!(
        overlapped, serial,
        "previewed result sets must be identical"
    );
    assert_eq!(serial.len(), refinements.len());
    assert_eq!(async_queries, serial_queries);
}

#[test]
fn session_preview_attributes_to_its_own_span() {
    let dataset = re2x_datagen::eurostat::generate(400, 3);
    let tracer = Tracer::enabled();
    let endpoint = TracingEndpoint::new(LocalEndpoint::new(dataset.graph), tracer.clone());
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(dataset.observation_class))
        .expect("bootstrap")
        .schema;
    let config = SessionConfig {
        tracer: tracer.clone(),
        ..Default::default()
    };
    let mut session = Session::new(&endpoint, &schema, config);
    let outcome = session.synthesize(&["Germany"]).expect("synthesis");
    session.choose(outcome.queries[0].clone()).expect("runs");
    let refinements = session
        .refinements(RefineOp::Disaggregate)
        .expect("refinements");
    assert!(refinements.len() > 1);
    let stray_before = unattributed(&tracer);
    session.preview(&refinements, 4).expect("async preview");

    let provenance = tracer.provenance();
    let preview_selects: u64 = provenance
        .iter()
        .filter(|(path, _)| path.ends_with("session.preview"))
        .map(|(_, s)| s.selects)
        .sum();
    assert_eq!(preview_selects, refinements.len() as u64);
    assert_eq!(
        unattributed(&tracer),
        stray_before,
        "the preview batch must not add unattributed queries: {provenance:?}"
    );
}
