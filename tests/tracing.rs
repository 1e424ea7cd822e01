//! Integration tests of the observability layer (`re2x-obs`) threaded
//! through the whole pipeline: span nesting in the exported JSONL event
//! log, query provenance reconciling exactly with [`EndpointStats`] —
//! over the whole pipeline and through set-path candidate validation —
//! per-phase cache accounting, and the `trace` experiment's
//! "endpoint dominates" claim.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_obs::{events_to_jsonl, TraceEvent, Tracer};
use re2x_sparql::{CachingEndpoint, LocalEndpoint, SparqlEndpoint, TracingEndpoint};
use re2xolap::{reolap, reolap_multi, RefineOp, ReolapConfig, Session, SessionConfig};
use std::collections::HashMap;
use std::time::Duration;

/// Runs the full pipeline (bootstrap → synthesize → choose → refine →
/// apply) over the running-example dataset with the given tracer.
fn run_pipeline(tracer: &Tracer) -> re2x_sparql::EndpointStats {
    let mut dataset = re2x_datagen::running::generate();
    let graph = std::mem::take(&mut dataset.graph);
    let endpoint = TracingEndpoint::new(LocalEndpoint::new(graph), tracer.clone());

    let config = BootstrapConfig::new(&dataset.observation_class).with_tracer(tracer.clone());
    let report = bootstrap(&endpoint, &config).expect("bootstrap");

    let mut session = Session::new(
        &endpoint,
        &report.schema,
        SessionConfig {
            tracer: tracer.clone(),
            ..SessionConfig::default()
        },
    );
    let outcome = session.synthesize(&["Germany", "2014"]).expect("synthesis");
    session.choose(outcome.queries[0].clone()).expect("runs");
    let dis = session.refinements(RefineOp::Disaggregate).expect("refine");
    session
        .apply(dis.into_iter().next().expect("one"))
        .expect("runs");
    endpoint.stats()
}

#[test]
fn jsonl_spans_nest_and_self_is_bounded_by_wall() {
    let tracer = Tracer::enabled();
    run_pipeline(&tracer);
    let events = tracer.take_events();

    // every exit matches exactly one enter, with the same path
    let mut entered: HashMap<u64, &str> = HashMap::new();
    let mut exited = 0usize;
    for event in &events {
        match event {
            TraceEvent::Enter { span, path, .. } => {
                let fresh = entered.insert(*span, path).is_none();
                assert!(fresh, "span id {span} entered twice");
            }
            TraceEvent::Exit {
                span,
                path,
                wall,
                self_time,
                ..
            } => {
                let enter_path = entered
                    .get(span)
                    .unwrap_or_else(|| panic!("exit of span {span} without an enter"));
                assert_eq!(enter_path, path, "exit path mismatch for span {span}");
                assert!(
                    self_time <= wall,
                    "span {path}: self {self_time:?} > wall {wall:?}"
                );
                exited += 1;
            }
            TraceEvent::Query { .. } | TraceEvent::Cache { .. } => {}
        }
    }
    assert_eq!(exited, entered.len(), "every entered span also exited");
    assert!(entered.len() >= 10, "pipeline produced a real span tree");

    // parent links nest: every child's path extends its parent's path
    let paths: HashMap<u64, String> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Enter { span, path, .. } => Some((*span, path.clone())),
            _ => None,
        })
        .collect();
    for event in &events {
        if let TraceEvent::Enter {
            path,
            parent: Some(parent),
            ..
        } = event
        {
            let parent_path = &paths[parent];
            assert!(
                path.starts_with(&format!("{parent_path}/")),
                "child {path} does not extend parent {parent_path}"
            );
        }
    }

    // the JSONL export carries one object per event
    let jsonl = events_to_jsonl(&events);
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), events.len());
    for line in lines {
        assert!(line.starts_with("{\"type\":\""), "not an object: {line}");
        assert!(line.ends_with('}'), "truncated line: {line}");
    }
}

#[test]
fn provenance_sums_to_endpoint_stats_serial() {
    let tracer = Tracer::enabled();
    let stats = run_pipeline(&tracer);
    let provenance = tracer.provenance();
    let attributed: u64 = provenance.iter().map(|(_, s)| s.queries()).sum();
    assert_eq!(attributed, stats.total_queries());
    // the dimension crawls attribute to the bootstrap subtree
    let bootstrap_queries: u64 = provenance
        .iter()
        .filter(|(path, _)| path.contains("bootstrap"))
        .map(|(_, s)| s.queries())
        .sum();
    assert!(bootstrap_queries > 0, "bootstrap spans carry queries");
    // per-kind totals reconcile too, not just the grand total
    let selects: u64 = provenance.iter().map(|(_, s)| s.selects).sum();
    let asks: u64 = provenance.iter().map(|(_, s)| s.asks).sum();
    let keywords: u64 = provenance.iter().map(|(_, s)| s.keyword_searches).sum();
    assert_eq!(selects, stats.selects);
    assert_eq!(asks, stats.asks);
    assert_eq!(keywords, stats.keyword_searches);
}

/// An ambiguous tuple is validated over shared observation sets: the capped
/// fetches are SELECTs like any other — attributed to their own span and
/// counted — and the trace says per candidate which branch decided it.
#[test]
fn set_path_validation_reconciles_and_names_its_branch() {
    let tracer = Tracer::enabled();
    let dataset = re2x_datagen::eurostat::generate(400, 3);
    let endpoint = TracingEndpoint::new(LocalEndpoint::new(dataset.graph), tracer.clone());
    let config = BootstrapConfig::new(&dataset.observation_class).with_tracer(tracer.clone());
    let schema = bootstrap(&endpoint, &config).expect("bootstrap").schema;
    let mut session = Session::new(
        &endpoint,
        &schema,
        SessionConfig {
            tracer: tracer.clone(),
            ..SessionConfig::default()
        },
    );
    // Germany is a destination and an origin country: candidates ⟨a,a⟩,
    // ⟨a,b⟩, ⟨b,b⟩ over two interpretations
    let outcome = session
        .synthesize(&["Germany", "Germany"])
        .expect("synthesis");
    assert_eq!(outcome.queries.len(), 3);

    let stats = endpoint.stats();
    let provenance = tracer.provenance();
    let attributed: u64 = provenance.iter().map(|(_, s)| s.queries()).sum();
    assert_eq!(attributed, stats.total_queries());
    let under = |suffix: &str| {
        provenance
            .iter()
            .filter(|(path, _)| path.ends_with(suffix))
            .fold((0, 0), |(selects, asks), (_, s)| {
                (selects + s.selects, asks + s.asks)
            })
    };
    assert_eq!(under("reolap/reolap.observations"), (2, 0));
    assert_eq!(under("reolap/reolap.validate"), (0, 0), "decided in core");
    let metrics = tracer.metrics().expect("enabled");
    assert_eq!(metrics.counter("reolap.validation.sets"), 2);
    assert_eq!(metrics.counter("reolap.validation.sets_truncated"), 0);
    assert_eq!(metrics.counter("reolap.validation.asks"), 0);

    let events = tracer.take_events();
    let validated_via: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Enter { name, fields, .. } if name == "reolap.validate" => fields
                .iter()
                .find(|(k, _)| k == "via")
                .map(|(_, v)| v.as_str()),
            _ => None,
        })
        .collect();
    assert_eq!(validated_via, ["sets"; 3]);
    let fetched: Vec<&[(String, String)]> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Exit { path, fields, .. } if path.ends_with("reolap.observations") => {
                Some(fields.as_slice())
            }
            _ => None,
        })
        .collect();
    assert_eq!(fetched.len(), 2);
    for fields in fetched {
        let field = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
        };
        assert!(field("rows").is_some_and(|rows| rows.parse::<usize>().is_ok_and(|n| n > 0)));
        assert_eq!(field("truncated"), Some("false"));
    }
}

/// Every synthesis opens one `reolap.enumerate` and one `reolap.build`
/// under its `reolap` span, beside the per-keyword, per-set and
/// per-candidate spans — for one example tuple and for several.
#[test]
fn every_synthesis_enumerates_and_builds_once() {
    let tracer = Tracer::enabled();
    let dataset = re2x_datagen::eurostat::generate(400, 3);
    let endpoint = LocalEndpoint::new(dataset.graph);
    let config = BootstrapConfig::new(&dataset.observation_class);
    let schema = bootstrap(&endpoint, &config).expect("bootstrap").schema;
    let config = ReolapConfig {
        tracer: tracer.clone(),
        ..ReolapConfig::default()
    };
    // set-path and ASK-path validation, then two tuples no level combo
    // explains: its phases run once all the same
    for example in [["Germany", "Germany"], ["Germany", "France"]] {
        let outcome = reolap(&endpoint, &schema, &example, &config).expect("synthesis");
        assert!(!outcome.queries.is_empty(), "{example:?}");
    }
    let tuples =
        [["Germany", "France"], ["France", "Germany"]].map(|t| t.map(str::to_owned).to_vec());
    reolap_multi(&endpoint, &schema, &tuples, &config).expect("synthesis");

    let events = tracer.take_events();
    let entered = |wanted: &str| {
        let paths = events.iter().filter_map(|e| match e {
            TraceEvent::Enter { path, .. } => Some(path),
            _ => None,
        });
        paths.filter(|path| *path == wanted).count()
    };
    assert_eq!(entered("reolap"), 3);
    assert_eq!(entered("reolap/reolap.enumerate"), 3);
    assert_eq!(entered("reolap/reolap.build"), 3);
    assert!(entered("reolap/reolap.match") >= 6);
    assert!(entered("reolap/reolap.observations") > 0);
    assert!(entered("reolap/reolap.validate") > 0);
}

/// `run_script` opens one `serve.digest` span per digested round, named
/// by the round's kind: a synthesize or refine round that executed a
/// query, and every preview round. Rounds that digest nothing (backtrack,
/// think) open none, and a disabled tracer changes no digest.
#[test]
fn every_digested_round_opens_one_digest_span() {
    use re2x_serve::{run_script, RoundOp, SessionScript};
    let mut dataset = re2x_datagen::running::generate();
    let endpoint = LocalEndpoint::new(std::mem::take(&mut dataset.graph));
    let config = BootstrapConfig::new(&dataset.observation_class);
    let schema = bootstrap(&endpoint, &config).expect("bootstrap").schema;
    let refine = |op, pick| RoundOp::Refine { op, pick };
    let preview = |op| RoundOp::Preview { op };
    let script = SessionScript {
        tenant: "t0".to_owned(),
        rounds: vec![
            RoundOp::Synthesize {
                example: vec!["Germany".to_owned(), "2014".to_owned()],
                pick: 0,
            },
            refine(RefineOp::Disaggregate, 0),
            preview(RefineOp::TopK),
            refine(RefineOp::TopK, 1),
            RoundOp::Think { millis: 0 },
            RoundOp::Backtrack,
            preview(RefineOp::Similarity),
            refine(RefineOp::Similarity, 0),
        ],
    };
    let tracer = Tracer::enabled();
    let session = SessionConfig {
        tracer: tracer.clone(),
        ..SessionConfig::default()
    };
    let traced = run_script(&endpoint, &schema, &script, &session).expect("script runs");
    let untraced =
        run_script(&endpoint, &schema, &script, &SessionConfig::default()).expect("script runs");
    assert_eq!(traced, untraced);

    let events = tracer.take_events();
    let spans = |kind: &str| {
        let digests = events.iter().filter(|e| match e {
            TraceEvent::Enter { path, fields, .. } => {
                path == "serve.digest" && fields == &[("round".to_owned(), kind.to_owned())]
            }
            _ => false,
        });
        digests.count()
    };
    let digested = |prefix: &str| {
        let rounds = traced.rounds.iter();
        rounds
            .filter(|r| r.op.starts_with(prefix) && (prefix == "preview:" || r.op.ends_with(']')))
            .count()
    };
    assert_eq!(spans("synthesize"), digested("synthesize"));
    assert_eq!(spans("refine"), digested("refine:"));
    assert_eq!(spans("preview"), digested("preview:"));
    assert_eq!((digested("synthesize"), digested("preview:")), (1, 2));
    assert!(digested("refine:") >= 2, "{traced:?}");
    let all = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Enter { name, .. } if name == "serve.digest"));
    assert_eq!(
        all.count(),
        digested("synthesize") + digested("refine:") + 2
    );
}

#[test]
fn cache_outcomes_attribute_per_phase() {
    let tracer = Tracer::enabled();
    let mut dataset = re2x_datagen::running::generate();
    let graph = std::mem::take(&mut dataset.graph);
    let endpoint = CachingEndpoint::new(LocalEndpoint::new(graph)).with_tracer(tracer.clone());

    let query = re2x_sparql::parse_query("SELECT ?s WHERE { ?s ?p ?o } LIMIT 3").expect("parses");
    {
        let _warm = tracer.span("phase.warmup");
        endpoint.select(&query).expect("runs");
    }
    {
        let _probe = tracer.span("phase.probe");
        endpoint.select(&query).expect("hit");
        endpoint.select(&query).expect("hit");
    }

    let provenance = tracer.provenance();
    let of = |phase: &str| {
        provenance
            .iter()
            .find(|(p, _)| p == phase)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    };
    assert_eq!(of("phase.warmup").cache_misses, 1);
    assert_eq!(of("phase.warmup").cache_hits, 0);
    assert_eq!(of("phase.probe").cache_hits, 2);
    assert_eq!(of("phase.probe").cache_misses, 0);

    // per-phase cache events sum to the endpoint's aggregate counters
    let stats = endpoint.stats();
    let hits: u64 = provenance.iter().map(|(_, s)| s.cache_hits).sum();
    let misses: u64 = provenance.iter().map(|(_, s)| s.cache_misses).sum();
    assert_eq!(hits, stats.cache_hits);
    assert_eq!(misses, stats.cache_misses);
}

#[test]
fn trace_experiment_endpoint_dominates() {
    // With injected per-query latency the endpoint accounts for ≥ 80% of
    // pipeline wall time — the paper's motivating observation, and the
    // acceptance bar for the `repro trace` artifact.
    let report = re2x_bench::trace::run(Duration::from_millis(2));
    assert!(
        (0.8..=1.0).contains(&report.endpoint_fraction()),
        "endpoint fraction {:.2} outside [0.8, 1] (wall {:?}, busy {:?})",
        report.endpoint_fraction(),
        report.pipeline_wall,
        report.stats.busy,
    );
    let json = report.to_json();
    assert!(json.contains("\"endpoint_fraction\""));
    assert!(json.contains("\"phases\""));
}
