//! Differential proof that [`SparqlEndpoint::select_ids`] answers what it
//! is defined to answer — the first cell of every row `select` returns, as
//! a term id, `None` if some row's is not a term — and costs every
//! endpoint exactly the accounting of that `select`: equal
//! [`EndpointStats`] deltas (query, row, cache and latency-sample counts;
//! busy time is a clock reading and is only checked to cover injected
//! latency).
//!
//! Every stack is compared: [`LocalEndpoint`], which reads the ids of a
//! plain one-variable `SELECT` without building rows, plain and with
//! injected latency; the `&` / [`Box`] / [`Arc`] forwarding layers;
//! [`CachingEndpoint`] on a miss and then a hit; [`TracingEndpoint`]; and
//! [`ShardedEndpoint`] over 2 and 4 shards. The shapes are the observation
//! set fetches ReOLAP validation issues on every level of the
//! bootstrapped schema of all four datasets, `LIMIT` / `OFFSET` slices,
//! the shapes that must take the row path (`DISTINCT`, `ORDER BY`,
//! aggregates, `OPTIONAL`, `UNION`, two projected columns), a
//! literal-valued variable, a projected variable the block never binds,
//! an absent IRI constant and an invalid query.

use re2x_cube::{bootstrap, patterns, BootstrapConfig, VirtualSchemaGraph};
use re2x_datagen::common::Dataset;
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_obs::Tracer;
use re2x_rdf::TermId;
use re2x_sparql::{
    parse_query, CachingEndpoint, EndpointStats, LocalEndpoint, Query, QueryForm, SelectItem,
    ShardedEndpoint, Solutions, SparqlEndpoint, SparqlError, TracingEndpoint, Value,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One more row than ReOLAP's observation-set cap: what its fetch asks.
const SET_FETCH_LIMIT: usize = 4097;

/// Injected per-query latency of the slow local endpoint.
const LATENCY: Duration = Duration::from_micros(20);

/// The definition `select_ids` is held to.
fn first_column(solutions: &Solutions) -> Option<Vec<TermId>> {
    solutions
        .rows
        .iter()
        .map(|row| match row.first() {
            Some(Some(Value::Term(id))) => Some(*id),
            _ => None,
        })
        .collect()
}

/// The counters of `after` minus those of `before`.
fn delta(before: &EndpointStats, after: &EndpointStats) -> [u64; 8] {
    let counts = |s: &EndpointStats| {
        [
            s.selects,
            s.asks,
            s.keyword_searches,
            s.rows_returned,
            s.cache_hits,
            s.cache_misses,
            s.cache_evictions,
            s.latency.count(),
        ]
    };
    let (b, a) = (counts(before), counts(after));
    std::array::from_fn(|i| a[i] - b[i])
}

/// Builds one instance of an endpoint stack.
type Make<'a> = Box<dyn Fn() -> Box<dyn SparqlEndpoint + 'a> + 'a>;

/// A dataset behind every endpoint stack the comparison runs.
struct World {
    dataset: Dataset,
    schema: VirtualSchemaGraph,
    local: LocalEndpoint,
    slow: LocalEndpoint,
    sharded: Vec<(usize, ShardedEndpoint)>,
}

impl World {
    fn new(dataset: Dataset) -> World {
        let local = LocalEndpoint::new(dataset.graph.clone());
        let schema = bootstrap(&local, &BootstrapConfig::new(&dataset.observation_class))
            .expect("bootstraps")
            .schema;
        let slow = LocalEndpoint::new(dataset.graph.clone())
            .with_latency(LATENCY)
            .with_row_latency(Duration::from_nanos(50));
        let sharded = [2, 4]
            .into_iter()
            .map(|shards| {
                let sharded = ShardedEndpoint::with_observation_class(
                    dataset.graph.clone(),
                    &dataset.observation_class,
                    shards,
                );
                (shards, sharded)
            })
            .collect();
        World {
            dataset,
            schema,
            local,
            slow,
            sharded,
        }
    }

    /// Every decorated stack, by name, as a factory of fresh instances (a
    /// cache starts empty; the other layers share their endpoint).
    fn stacks(&self) -> Vec<(String, Make<'_>)> {
        let local = &self.local;
        let mut stacks: Vec<(String, Make<'_>)> = vec![
            ("&local".into(), Box::new(move || Box::new(local))),
            (
                "Box<dyn>".into(),
                Box::new(move || {
                    let inner: Box<dyn SparqlEndpoint> = Box::new(local);
                    Box::new(inner)
                }),
            ),
            (
                "Arc<dyn>".into(),
                Box::new(move || {
                    let inner: Arc<dyn SparqlEndpoint> = Arc::new(local);
                    Box::new(inner)
                }),
            ),
            (
                "caching".into(),
                Box::new(move || Box::new(CachingEndpoint::with_capacity(local, 64))),
            ),
            (
                "tracing".into(),
                Box::new(move || Box::new(TracingEndpoint::new(local, Tracer::enabled()))),
            ),
        ];
        for (shards, sharded) in &self.sharded {
            let name = format!("sharded × {shards}");
            stacks.push((name, Box::new(move || Box::new(sharded))));
        }
        stacks
    }
}

/// Calls `select` on `by_rows` and `select_ids` on `by_ids`, twice each
/// (a cache misses, then hits), asserting equal answers and equal
/// statistics deltas call by call; returns the first `select_ids` answer
/// and the busy time each call added.
fn compare(
    by_rows: &dyn SparqlEndpoint,
    by_ids: &dyn SparqlEndpoint,
    query: &Query,
    what: &str,
) -> (Result<Option<Vec<TermId>>, SparqlError>, Vec<Duration>) {
    let mut first = None;
    let mut busy = Vec::new();
    for call in ["first", "second"] {
        let before = by_rows.stats();
        let rows = by_rows.select(query);
        let after = by_rows.stats();
        let rows_delta = delta(&before, &after);
        busy.push(after.busy - before.busy);
        let expected = rows.map(|solutions| first_column(&solutions));

        let before = by_ids.stats();
        let ids = by_ids.select_ids(query);
        let after = by_ids.stats();
        busy.push(after.busy - before.busy);
        assert_eq!(ids, expected, "{what} ({call} call): answers differ");
        assert_eq!(
            delta(&before, &after),
            rows_delta,
            "{what} ({call} call): statistics differ"
        );
        first.get_or_insert(ids);
    }
    (first.expect("two calls"), busy)
}

/// Runs `query` through [`compare`] on the local endpoints and on fresh
/// instance pairs of every decorated stack. Returns the local answer.
fn assert_seam(world: &World, query: &Query, what: &str) -> Option<Vec<TermId>> {
    let (answer, _) = compare(
        &world.local,
        &world.local,
        query,
        &format!("{what} on local"),
    );
    let (_, busy) = compare(&world.slow, &world.slow, query, &format!("{what} on slow"));
    assert!(busy.iter().all(|&b| b >= LATENCY), "{what}: {busy:?}");
    for (name, make) in world.stacks() {
        let (by_rows, by_ids) = (make(), make());
        let _ = compare(&*by_rows, &*by_ids, query, &format!("{what} on {name}"));
    }
    answer.ok().flatten()
}

/// ReOLAP's observation-set fetch for one member of one level:
/// `SELECT ?o { ?o a <class> . ?o <path> <member> } LIMIT 4097`.
fn set_fetch(schema: &VirtualSchemaGraph, path: &[String], member: &str) -> Query {
    let mut query = Query::ask(vec![
        patterns::observation_type("o", &schema.observation_class),
        patterns::path_to_concrete_member("o", path, member),
    ]);
    query.form = QueryForm::Select;
    query.select = vec![SelectItem::Var("o".to_owned())];
    query.limit = Some(SET_FETCH_LIMIT);
    query
}

/// The observation-set fetch of the first, middle and last member of every
/// level, and of an IRI no level holds. Returns how many fetches came back
/// with more rows than distinct observations (an M-to-N path).
fn assert_validation_shapes(world: &World) -> usize {
    let schema = &world.schema;
    let class = &world.dataset.observation_class;
    let name = &world.dataset.name;
    assert!(!schema.levels().is_empty(), "{name}");
    let mut repeated = 0;
    for level in schema.levels() {
        let path: Vec<String> = level.path.iter().map(|p| format!("<{p}>")).collect();
        let members = parse_query(&format!(
            "SELECT DISTINCT ?m WHERE {{ ?o a <{class}> . ?o {} ?m }}",
            path.join(" / ")
        ))
        .expect("parses");
        let members = world.local.select(&members).expect("members");
        let members: Vec<String> = members
            .rows
            .iter()
            .filter_map(|row| match row[0] {
                Some(Value::Term(id)) => world.local.graph().term(id).as_iri().map(str::to_owned),
                _ => None,
            })
            .collect();
        assert!(!members.is_empty(), "{name}: {path:?}");
        let picks = [0, members.len() / 2, members.len() - 1];
        for member in picks.iter().map(|&i| members[i].as_str()) {
            let what = format!("{name}: {path:?} = <{member}>");
            let ids = assert_seam(world, &set_fetch(schema, &level.path, member), &what)
                .expect("observations are terms");
            assert!(!ids.is_empty(), "{what}: a member is reached");
            let mut distinct = ids.clone();
            distinct.sort_unstable();
            distinct.dedup();
            repeated += usize::from(distinct.len() < ids.len());
        }
        let absent = set_fetch(schema, &level.path, "http://absent.example/member");
        let ids = assert_seam(world, &absent, &format!("{name}: {path:?} absent member"));
        assert_eq!(ids, Some(Vec::new()), "{name}: an absent member");
    }
    repeated
}

/// Shapes around the id path's admission: slices it reads, shapes it
/// must leave to the row path, and answers that are not ids.
fn assert_edge_shapes(world: &World) {
    let class = &world.dataset.observation_class;
    let name = &world.dataset.name;
    let dim = &world.dataset.dimension_predicates[0];
    let measure = &world.schema.measures()[0].predicate;
    let block = format!("?o a <{class}> . ?o <{dim}> ?d");
    let texts = [
        // slices
        format!("SELECT ?o WHERE {{ {block} }}"),
        format!("SELECT ?o WHERE {{ {block} }} LIMIT 5"),
        format!("SELECT ?o WHERE {{ {block} }} LIMIT 5 OFFSET 3"),
        format!("SELECT ?o WHERE {{ {block} }} OFFSET 7"),
        format!("SELECT ?o WHERE {{ {block} }} LIMIT 0"),
        format!("SELECT ?o WHERE {{ {block} }} LIMIT 3 OFFSET 100000000"),
        format!("SELECT ?d WHERE {{ {block} }} LIMIT 40 OFFSET 2"),
        format!("SELECT ?d WHERE {{ {block} . FILTER(?d != <{class}>) }} LIMIT 9"),
        // the row path
        format!("SELECT DISTINCT ?d WHERE {{ {block} }}"),
        format!("SELECT DISTINCT ?d WHERE {{ {block} }} LIMIT 3"),
        format!("SELECT ?d WHERE {{ {block} }} ORDER BY ?d LIMIT 10"),
        format!("SELECT ?d WHERE {{ {block} }} ORDER BY DESC(?d)"),
        format!("SELECT (COUNT(?o) AS ?n) WHERE {{ {block} }}"),
        format!("SELECT ?d WHERE {{ {block} }} GROUP BY ?d"),
        format!("SELECT ?d (SUM(?m) AS ?s) WHERE {{ {block} . ?o <{measure}> ?m }} GROUP BY ?d"),
        format!("SELECT ?o WHERE {{ ?o a <{class}> OPTIONAL {{ ?o <{dim}> ?d }} }} LIMIT 20"),
        format!("SELECT ?d WHERE {{ ?o a <{class}> OPTIONAL {{ ?o <{dim}> ?d }} }} LIMIT 20"),
        format!("SELECT ?o WHERE {{ {{ ?o <{dim}> ?d }} UNION {{ ?o a <{class}> }} }} LIMIT 30"),
        format!("SELECT ?o ?d WHERE {{ {block} }} LIMIT 12"),
        format!("SELECT ?d ?o WHERE {{ {block} }}"),
        format!("SELECT * WHERE {{ {block} }} LIMIT 4"),
        // answers that are not ids, or none
        format!("SELECT ?m WHERE {{ ?o <{measure}> ?m }} LIMIT 25"),
        format!("SELECT ?never WHERE {{ {block} }} LIMIT 3"),
        format!("SELECT ?never WHERE {{ {block} . FILTER(?d != ?never) }} LIMIT 3"),
        "SELECT ?o WHERE { ?o a <http://absent.example/Class> }".to_owned(),
        format!("SELECT ?o WHERE {{ ?o <http://absent.example/p> ?d . {block} }} LIMIT 2"),
        format!("ASK {{ {block} }}"),
        // an error: ORDER BY a column the query does not project
        format!("SELECT ?o WHERE {{ {block} }} ORDER BY ?d"),
    ];
    for text in &texts {
        let query = parse_query(text).expect("parses");
        assert_seam(world, &query, &format!("{name}: {text}"));
    }
}

fn assert_dataset(dataset: Dataset) -> usize {
    let world = World::new(dataset);
    assert_edge_shapes(&world);
    assert_validation_shapes(&world)
}

#[test]
fn select_ids_agree_on_the_running_example() {
    assert_dataset(running::generate());
}

#[test]
fn select_ids_agree_on_eurostat() {
    assert_dataset(eurostat::generate(500, 7));
}

#[test]
fn select_ids_agree_on_production() {
    assert_dataset(production::generate(400, 11));
}

#[test]
fn select_ids_agree_on_dbpedia() {
    let repeated = assert_dataset(dbpedia::generate(400, 13));
    assert!(
        repeated > 0,
        "no M-to-N fetch returned an observation twice"
    );
}

/// An endpoint whose `select_ids` counts the calls that reach it.
struct Probe {
    inner: LocalEndpoint,
    select_ids: AtomicUsize,
}

impl SparqlEndpoint for Probe {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        self.inner.select(query)
    }
    fn select_ids(&self, query: &Query) -> Result<Option<Vec<TermId>>, SparqlError> {
        self.select_ids.fetch_add(1, Ordering::Relaxed);
        self.inner.select_ids(query)
    }
    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        self.inner.ask(query)
    }
    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        self.inner.keyword_search(keyword, exact)
    }
    fn graph(&self) -> &re2x_rdf::Graph {
        self.inner.graph()
    }
    fn stats(&self) -> EndpointStats {
        self.inner.stats()
    }
    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

/// `&`, `Box` and `Arc` hand `select_ids` to the pointee's own method
/// rather than answering it through their `select`.
#[test]
fn pointer_layers_forward_select_ids() {
    let dataset = running::generate();
    let probe = Arc::new(Probe {
        inner: LocalEndpoint::new(dataset.graph),
        select_ids: AtomicUsize::new(0),
    });
    let query = parse_query(&format!(
        "SELECT ?o WHERE {{ ?o a <{}> }}",
        dataset.observation_class
    ))
    .expect("parses");
    let by_ref: &dyn SparqlEndpoint = &&*probe;
    let boxed: Box<dyn SparqlEndpoint> = Box::new(&*probe);
    let shared: Arc<dyn SparqlEndpoint> = probe.clone();
    let layers: [&dyn SparqlEndpoint; 3] = [by_ref, &boxed, &shared];
    for (i, layer) in layers.into_iter().enumerate() {
        let ids = layer.select_ids(&query).expect("select_ids");
        assert!(ids.is_some_and(|ids| !ids.is_empty()));
        assert_eq!(probe.select_ids.load(Ordering::Relaxed), i + 1);
    }
}
