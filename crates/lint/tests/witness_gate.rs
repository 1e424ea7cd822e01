//! The runtime half of the lock-order cross-check: drive real concurrent
//! workloads — bus fan-out, cache hammering, and a sharded scatter — with the lock witness recording, then assert that
//! every nesting edge threads actually performed is present in the
//! static registry graph (extracted ∪ declared `// lock-order:` edges)
//! and that the combined graph stays acyclic. A deliberate runtime cycle
//! driven through the same witness is still detected and reported with
//! lock names and acquiring call sites, so the check has teeth.

use re2x_lint::engine::{collect_files, lint_files};
use re2x_lint::rules::lock_order::{find_cycles, LockEdge};
use re2x_obs::{lock_or_recover, witness_edges, witness_enable_for_tests, BusEvent, EventBus};
use re2x_rdf::io::parse_turtle;
use re2x_rdf::Graph;
use re2x_sparql::{parse_query, CachingEndpoint, LocalEndpoint, ShardedEndpoint, SparqlEndpoint};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Asylum micro-cube with observation-typed facts, matching the sharded
/// endpoint's default fact class so group-by queries scatter.
fn graph() -> Graph {
    let mut g = Graph::new();
    parse_turtle(
        r#"
        @prefix ex: <http://ex/> .
        @prefix qb: <http://purl.org/linked-data/cube#> .
        ex:o1 a qb:Observation ; ex:dest ex:Germany ; ex:applicants 300 .
        ex:o2 a qb:Observation ; ex:dest ex:Germany ; ex:applicants 600 .
        ex:o3 a qb:Observation ; ex:dest ex:France ; ex:applicants 100 .
        ex:Germany ex:label "Germany" .
        ex:France ex:label "France" .
        "#,
        &mut g,
    )
    .expect("parse fixture");
    g
}

/// Concurrent publishers fanning out to two subscribers: the one intended
/// nesting in the workspace (`obs.bus.subscribers -> obs.bus.ring`).
fn drive_bus() {
    let bus = EventBus::new();
    let streams: Vec<_> = (0..2).map(|_| bus.subscribe(64)).collect();
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let bus = bus.clone();
            scope.spawn(move || {
                for i in 0..20 {
                    bus.publish(&BusEvent::Counter {
                        name: format!("witness.gate.{t}"),
                        delta: i,
                        at: Duration::from_micros(i),
                    });
                }
            });
        }
    });
    for stream in &streams {
        assert!(!stream.poll().is_empty(), "fan-out delivered");
    }
}

/// Hammers one caching endpoint from three threads (cache state + local
/// stats locks).
fn drive_cache() {
    let ep = CachingEndpoint::new(LocalEndpoint::new(graph()));
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let ep = &ep;
            scope.spawn(move || {
                for _ in 0..10 {
                    ep.select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                        .expect("select");
                    ep.ask_text("ASK { ?o <http://ex/dest> <http://ex/Germany> }")
                        .expect("ask");
                }
            });
        }
    });
}

/// A group-by aggregate scatters across shard threads (per-shard local
/// stats plus the sharded scatter counter).
fn drive_sharded() {
    let ep = ShardedEndpoint::new(graph(), 3);
    let query = parse_query(
        "SELECT ?d (SUM(?n) AS ?total) WHERE {
            ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n
         } GROUP BY ?d",
    )
    .expect("parse");
    ep.select(&query).expect("scatter select");
    assert!(ep.scatter_count() >= 1, "the aggregate must scatter");
}

#[test]
fn observed_nesting_is_a_subset_of_the_static_registry() {
    witness_enable_for_tests();
    drive_bus();
    drive_cache();
    drive_sharded();

    let files = collect_files(workspace_root()).expect("workspace sources readable");
    let result = lint_files(&files);
    let allowed: Vec<(&str, &str)> = result
        .edges
        .iter()
        .chain(result.declared.iter())
        .map(|e| (e.from.as_str(), e.to.as_str()))
        .collect();

    // `gate.cycle.*` locks belong to the deliberate-cycle test below,
    // which shares this process's witness state.
    let observed: Vec<_> = witness_edges()
        .into_iter()
        .filter(|e| !e.from.starts_with("gate.cycle.") && !e.to.starts_with("gate.cycle."))
        .collect();
    assert!(
        observed
            .iter()
            .any(|e| e.from == "obs.bus.subscribers" && e.to == "obs.bus.ring"),
        "the bus fan-out nesting must be witnessed: {observed:?}"
    );
    for edge in &observed {
        assert!(
            allowed
                .iter()
                .any(|(f, t)| *f == edge.from && *t == edge.to),
            "runtime nesting `{} -> {}` (acquired at {}) is not in the static \
             lock-order registry; declare `// lock-order: {} -> {}` if it is \
             intended, or drop the outer guard first",
            edge.from,
            edge.to,
            edge.site(),
            edge.from,
            edge.to,
        );
    }

    // The union of what the lint extracted, what the code declares, and
    // what threads actually did must stay one acyclic graph.
    let mut combined: Vec<LockEdge> = result.edges.clone();
    combined.extend(result.declared.iter().cloned());
    combined.extend(observed.iter().map(|e| LockEdge {
        from: e.from.to_owned(),
        to: e.to.to_owned(),
        file: e.file.to_owned(),
        line: e.line,
    }));
    let cycles = find_cycles(&combined);
    assert!(
        cycles.is_empty(),
        "static ∪ observed lock graph has a cycle: {:?}",
        cycles
            .iter()
            .map(|c| c.path.join(" -> "))
            .collect::<Vec<_>>()
    );
}

#[test]
fn a_runtime_cycle_is_still_detected() {
    witness_enable_for_tests();
    let a = Mutex::new(0u32);
    let b = Mutex::new(0u32);
    {
        let _a = lock_or_recover("gate.cycle.a", &a);
        let _b = lock_or_recover("gate.cycle.b", &b);
    }
    {
        let _b = lock_or_recover("gate.cycle.b", &b);
        let _a = lock_or_recover("gate.cycle.a", &a);
    }

    let cycle_edges: Vec<LockEdge> = witness_edges()
        .into_iter()
        .filter(|e| e.from.starts_with("gate.cycle."))
        .map(|e| LockEdge {
            from: e.from.to_owned(),
            to: e.to.to_owned(),
            file: e.file.to_owned(),
            line: e.line,
        })
        .collect();
    assert_eq!(
        cycle_edges.len(),
        2,
        "both nesting orders observed: {cycle_edges:?}"
    );
    assert!(
        cycle_edges
            .iter()
            .all(|e| e.file.ends_with("witness_gate.rs")),
        "edges carry the acquiring call site: {cycle_edges:?}"
    );

    let cycles = find_cycles(&cycle_edges);
    assert_eq!(cycles.len(), 1, "the A->B->A cycle is found: {cycles:?}");
    let path = cycles[0].path.join(" -> ");
    assert!(
        path.contains("gate.cycle.a") && path.contains("gate.cycle.b"),
        "the report names both locks: {path}"
    );
}
