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

use crate::labels::{default_label_predicates, humanize, label_of_counted, local_name};
use crate::patterns::{observation_type, path_to_member};
use crate::vgraph::VirtualSchemaGraph;
use re2x_obs::Tracer;
use re2x_rdf::vocab;
use re2x_sparql::{
    with_async_endpoint, AggFunc, AsyncAdapter, AsyncResponse, AsyncSparqlEndpoint, Expr, Func,
    PatternElement, Query, SelectItem, Solutions, SparqlEndpoint, SparqlError, TermPattern, Ticket,
    TriplePattern,
};
use std::collections::{BTreeMap, HashSet};
use std::task::Poll;
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
    let (mut schema, dim_predicates, mut queries) = bootstrap_prelude(endpoint, config)?;

    for predicate in dim_predicates {
        let crawl = {
            let _dim = config.tracer.span_with(
                "bootstrap.crawl_dimension",
                &[("dimension", predicate.as_str())],
            );
            crawl_dimension(endpoint, config, predicate)?
        };
        queries += crawl.queries;
        apply_dimension(&mut schema, crawl);
    }

    Ok(BootstrapReport {
        schema,
        elapsed: start.elapsed(),
        endpoint_queries: queries,
    })
}

/// [`bootstrap`] with the per-dimension hierarchy crawls fanned out over
/// scoped threads, one per dimension.
///
/// Per-dimension crawls are independent — every level path starts with its
/// dimension's predicate, so no discovery in one crawl can affect another —
/// and their results are applied to the schema in dimension order, making
/// the produced [`VirtualSchemaGraph`] *identical* to the serial one (and
/// `endpoint_queries` equal; only `elapsed` differs). Requires an endpoint
/// that tolerates concurrent queries, which [`SparqlEndpoint`]'s `Send +
/// Sync` bound guarantees.
pub fn bootstrap_parallel(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
) -> Result<BootstrapReport, SparqlError> {
    // lint:allow(no-wallclock, bootstrap phase timing feeds BootstrapReport durations)
    let start = Instant::now();
    let root = config.tracer.span("bootstrap");
    let (mut schema, dim_predicates, mut queries) = bootstrap_prelude(endpoint, config)?;

    // Worker threads have no span context of their own; each per-dimension
    // span is explicitly parented under the root via its handle, so paths
    // (and query provenance) nest identically to the serial variant.
    let root_handle = root.handle();
    let crawls: Vec<Result<DimensionCrawl, SparqlError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = dim_predicates
            .into_iter()
            .map(|predicate| {
                let root_handle = root_handle.clone();
                scope.spawn(move || {
                    let _dim = config.tracer.span_under_with(
                        &root_handle,
                        "bootstrap.crawl_dimension",
                        &[("dimension", predicate.as_str())],
                    );
                    crawl_dimension(endpoint, config, predicate)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                // contain a worker panic as a crawl failure instead of
                // re-panicking at scope exit and killing the session
                Err(_) => Err(SparqlError::Endpoint(
                    "dimension crawl thread panicked".into(),
                )),
            })
            .collect()
    });
    for crawl in crawls {
        let crawl = crawl?;
        queries += crawl.queries;
        apply_dimension(&mut schema, crawl);
    }

    Ok(BootstrapReport {
        schema,
        elapsed: start.elapsed(),
        endpoint_queries: queries,
    })
}

/// [`bootstrap`] with the per-level member/attribute crawl fanned out
/// through the poll-based [`AsyncSparqlEndpoint`] adapter: every level's
/// count, attribute, label, and roll-up queries — across *all* dimensions
/// at once — are in flight concurrently on `workers` pool threads, so the
/// crawl pays for round-trip *depth*, not round-trip *count*.
///
/// The produced [`VirtualSchemaGraph`] and `endpoint_queries` are
/// **identical** to the serial [`bootstrap`] (differential-tested): the
/// crawl issues exactly the queries the serial recursion would (including
/// the short-circuiting label-predicate chains), records what each level
/// discovered, and then replays the serial depth-first emission order
/// from the recorded answers. Query provenance reconciles identically
/// too: each submission carries its dimension's span context, which the
/// pool workers adopt while servicing it.
pub fn bootstrap_async(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    workers: usize,
) -> Result<BootstrapReport, SparqlError> {
    // lint:allow(no-wallclock, bootstrap phase timing feeds BootstrapReport durations)
    let start = Instant::now();
    let root = config.tracer.span("bootstrap");
    let (mut schema, dim_predicates, mut queries) = bootstrap_prelude(endpoint, config)?;

    let root_handle = root.handle();
    let graph = endpoint.graph();
    let crawls = with_async_endpoint(endpoint, workers, |pool| {
        crawl_dimensions_async(pool, graph, config, &root_handle, dim_predicates)
    })?;
    for crawl in crawls {
        queries += crawl.queries;
        apply_dimension(&mut schema, crawl);
    }

    Ok(BootstrapReport {
        schema,
        elapsed: start.elapsed(),
        endpoint_queries: queries,
    })
}

/// The serial head of both bootstrap variants: observation count, measure
/// discovery, and the dimension-predicate scan. Returns the partially
/// built schema, the (non-excluded) dimension predicates in discovery
/// order, and the queries spent so far.
fn bootstrap_prelude(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
) -> Result<(VirtualSchemaGraph, Vec<String>, u64), SparqlError> {
    let _span = config.tracer.span("bootstrap.prelude");
    let mut queries = 0u64;
    let mut schema = VirtualSchemaGraph::new(config.observation_class.clone());

    // 1. observation count
    schema.observation_count = count_observations(endpoint, config, &mut queries)?;

    // 2. measures: observation predicates with numeric-literal objects
    for predicate in typed_object_predicates(endpoint, config, Func::IsNumeric, &mut queries)? {
        if config.is_excluded(&predicate) {
            continue;
        }
        let label = label_of_counted(endpoint, &predicate, &config.label_predicates, &mut queries);
        schema.add_measure(predicate, label);
    }

    // 3. dimensions: observation predicates with IRI objects
    let dim_predicates = typed_object_predicates(endpoint, config, Func::IsIri, &mut queries)?
        .into_iter()
        .filter(|p| !config.is_excluded(p))
        .collect();
    Ok((schema, dim_predicates, queries))
}

/// One discovered hierarchy level, pending insertion into the schema.
struct PendingLevel {
    path: Vec<String>,
    member_count: usize,
    attributes: Vec<String>,
    label: String,
}

/// Everything one dimension's crawl discovered, plus its query count.
struct DimensionCrawl {
    predicate: String,
    label: String,
    levels: Vec<PendingLevel>,
    queries: u64,
}

/// Crawls the hierarchy below one dimension predicate. Self-contained (own
/// query counter, no schema access) so crawls can run on separate threads.
fn crawl_dimension(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    predicate: String,
) -> Result<DimensionCrawl, SparqlError> {
    let mut queries = 0u64;
    let label = label_of_counted(endpoint, &predicate, &config.label_predicates, &mut queries);
    let mut levels = Vec::new();
    collect_levels(
        endpoint,
        config,
        &mut levels,
        vec![predicate.clone()],
        &mut queries,
    )?;
    Ok(DimensionCrawl {
        predicate,
        label,
        levels,
        queries,
    })
}

/// Inserts a finished crawl into the schema, preserving depth-first
/// discovery order within the dimension.
fn apply_dimension(schema: &mut VirtualSchemaGraph, crawl: DimensionCrawl) {
    let dim = schema.add_dimension(crawl.predicate, crawl.label);
    for level in crawl.levels {
        schema.add_level(
            dim,
            level.path,
            level.member_count,
            level.attributes,
            level.label,
        );
    }
}

/// Everything one level's fan-out discovered, keyed by path in
/// [`AsyncCrawl::info`]; only levels with members are recorded, mirroring
/// the serial early return on `member_count == 0`.
struct LevelInfo {
    member_count: usize,
    attributes: Vec<String>,
    label: String,
    /// IRI-valued member predicates (empty when the level sits at
    /// `max_depth`, where the serial crawl never asks for roll-ups).
    rollups: Vec<String>,
}

/// One in-flight response: a submitted ticket, then its answer.
enum Slot {
    Pending(Ticket),
    Ready(AsyncResponse),
}

impl Slot {
    /// Polls a pending ticket. `Ok(true)` once the answer is in; a failed
    /// query aborts the crawl like its serial counterpart would.
    fn advance(&mut self, pool: &AsyncAdapter) -> Result<bool, SparqlError> {
        if let Slot::Pending(ticket) = self {
            match pool.poll(ticket) {
                Poll::Ready(result) => *self = Slot::Ready(result?),
                Poll::Pending => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Consumes a completed slot. Taking a still-pending slot (a crawl
    /// bookkeeping bug) or a shape mismatch surfaces as a typed error that
    /// aborts the crawl, like any failed query would.
    fn take_select(self) -> Result<Solutions, SparqlError> {
        match self {
            Slot::Ready(response) => response.into_select(),
            Slot::Pending(_) => Err(SparqlError::Endpoint(
                "bootstrap slot taken before completion".into(),
            )),
        }
    }
}

/// Asynchronous replica of [`label_of_counted`]'s short-circuit chain: one
/// label predicate is probed at a time and a hit (or a failed probe, which
/// serial ignores too) moves the chain along, so the queries issued — and
/// counted, one per probe submitted — match the serial lookup exactly.
struct LabelChain {
    iri: String,
    next_pred: usize,
    ticket: Option<Ticket>,
    label: Option<String>,
}

/// Shared state of the in-flight crawl across all dimensions.
struct AsyncCrawl<'a> {
    pool: &'a AsyncAdapter,
    tracer: &'a Tracer,
    config: &'a BootstrapConfig,
    graph: &'a re2x_rdf::Graph,
    /// Per-dimension span handles; submissions adopt their dimension's
    /// context so pool workers attribute queries like serial code would.
    handles: Vec<re2x_obs::SpanHandle>,
    /// Per-dimension counters of the queries submitted.
    queries: Vec<u64>,
    /// Discovered levels per dimension, keyed by path.
    info: Vec<BTreeMap<Vec<String>, LevelInfo>>,
    /// Paths already submitted for exploration (defensive; serial paths
    /// are unique by construction).
    seen: Vec<HashSet<Vec<String>>>,
}

impl AsyncCrawl<'_> {
    /// Submits under the dimension's adopted span context, counting the
    /// query against the dimension.
    fn submit(&mut self, dim: usize, query: Query) -> Ticket {
        self.queries[dim] += 1;
        let _context = self.tracer.adopt(&self.handles[dim]);
        self.pool.submit_select(query)
    }

    fn start_label(&mut self, dim: usize, iri: String) -> LabelChain {
        let preds = &self.config.label_predicates;
        if preds.is_empty() {
            return LabelChain {
                label: Some(humanize(local_name(&iri))),
                iri,
                next_pred: 0,
                ticket: None,
            };
        }
        let ticket = self.submit(dim, crate::labels::label_query(&iri, &preds[0]));
        LabelChain {
            iri,
            next_pred: 0,
            ticket: Some(ticket),
            label: None,
        }
    }

    fn advance_label(&mut self, dim: usize, chain: &mut LabelChain) -> bool {
        while chain.label.is_none() {
            let Some(ticket) = &chain.ticket else {
                // an unresolved chain always has a probe in flight; if the
                // invariant ever breaks, fall back to the local-name label
                // (what the chain running dry would produce) instead of
                // panicking mid-crawl
                chain.label = Some(humanize(local_name(&chain.iri)));
                return true;
            };
            match self.pool.poll(ticket) {
                Poll::Pending => return false,
                Poll::Ready(result) => {
                    chain.ticket = None;
                    let solutions = result.and_then(AsyncResponse::into_select).ok();
                    if let Some(value) = solutions.as_ref().and_then(|s| s.value(0, "l")) {
                        chain.label = Some(value.string_form(self.graph).into_owned());
                        return true;
                    }
                    chain.next_pred += 1;
                    match self.config.label_predicates.get(chain.next_pred) {
                        Some(pred) => {
                            let query = crate::labels::label_query(&chain.iri, pred);
                            chain.ticket = Some(self.submit(dim, query));
                        }
                        None => {
                            chain.label = Some(humanize(local_name(&chain.iri)));
                            return true;
                        }
                    }
                }
            }
        }
        true
    }

    /// Submits the member count for a new level path.
    fn start_count(&mut self, dim: usize, path: Vec<String>) -> CrawlTask {
        let slot = Slot::Pending(self.submit(dim, count_members_query(self.config, &path)));
        CrawlTask::Count { dim, path, slot }
    }

    /// Fans out a non-empty level's attribute/label/roll-up queries.
    fn start_detail(&mut self, dim: usize, path: Vec<String>, member_count: usize) -> CrawlTask {
        let attrs = Slot::Pending(self.submit(
            dim,
            member_predicates_query(self.config, &path, Func::IsLiteral),
        ));
        let label = self.start_label(dim, path.last().cloned().unwrap_or_default());
        let rollups = (path.len() < self.config.max_depth).then(|| {
            Slot::Pending(self.submit(
                dim,
                member_predicates_query(self.config, &path, Func::IsIri),
            ))
        });
        CrawlTask::Detail {
            dim,
            path,
            member_count,
            attrs,
            label,
            rollups,
        }
    }
}

/// One in-flight unit of the crawl's dependency graph.
enum CrawlTask {
    /// The dimension predicate's own label lookup.
    DimLabel { dim: usize, chain: LabelChain },
    /// A level path waiting for its member count.
    Count {
        dim: usize,
        path: Vec<String>,
        slot: Slot,
    },
    /// A non-empty level waiting for attributes, label, and roll-ups.
    Detail {
        dim: usize,
        path: Vec<String>,
        member_count: usize,
        attrs: Slot,
        label: LabelChain,
        rollups: Option<Slot>,
    },
}

/// Drives every dimension's hierarchy crawl through the async pool at
/// once, then reassembles per-dimension results in serial order.
fn crawl_dimensions_async(
    pool: &AsyncAdapter,
    graph: &re2x_rdf::Graph,
    config: &BootstrapConfig,
    root_handle: &re2x_obs::SpanHandle,
    dim_predicates: Vec<String>,
) -> Result<Vec<DimensionCrawl>, SparqlError> {
    // One span per dimension, parented under the root like the serial and
    // parallel variants; guards stay open for the whole crawl and their
    // handles carry the attribution context into every submission.
    let spans: Vec<_> = dim_predicates
        .iter()
        .map(|predicate| {
            config.tracer.span_under_with(
                root_handle,
                "bootstrap.crawl_dimension",
                &[("dimension", predicate.as_str())],
            )
        })
        .collect();
    let dims = dim_predicates.len();
    let mut crawl = AsyncCrawl {
        pool,
        tracer: &config.tracer,
        config,
        graph,
        handles: spans.iter().map(|s| s.handle()).collect(),
        queries: vec![0; dims],
        info: (0..dims).map(|_| BTreeMap::new()).collect(),
        seen: (0..dims).map(|_| HashSet::new()).collect(),
    };

    let mut dim_labels: Vec<Option<String>> = vec![None; dims];
    let mut tasks: Vec<CrawlTask> = Vec::new();
    for (dim, predicate) in dim_predicates.iter().enumerate() {
        let chain = crawl.start_label(dim, predicate.clone());
        tasks.push(CrawlTask::DimLabel { dim, chain });
        crawl.seen[dim].insert(vec![predicate.clone()]);
        let count = crawl.start_count(dim, vec![predicate.clone()]);
        tasks.push(count);
    }

    while !tasks.is_empty() {
        let mut completed_any = false;
        let mut remaining: Vec<CrawlTask> = Vec::with_capacity(tasks.len());
        for task in tasks {
            match advance_task(task, &mut crawl)? {
                TaskStep::Done { dim, label } => {
                    completed_any = true;
                    if let Some(label) = label {
                        dim_labels[dim] = Some(label);
                    }
                }
                TaskStep::Spawned(spawned) => {
                    completed_any = true;
                    remaining.extend(spawned);
                }
                TaskStep::Pending(task) => remaining.push(task),
            }
        }
        tasks = remaining;
        if !completed_any && !tasks.is_empty() {
            // everything in flight is waiting on pool workers
            std::thread::yield_now();
        }
    }
    drop(spans);

    // Reassemble each dimension in serial depth-first order from the
    // recorded answers — byte-identical to `crawl_dimension`.
    Ok(dim_predicates
        .into_iter()
        .enumerate()
        .map(|(dim, predicate)| {
            let mut levels = Vec::new();
            replay_levels(
                config,
                &crawl.info[dim],
                vec![predicate.clone()],
                &mut levels,
            );
            DimensionCrawl {
                predicate,
                // A chain that somehow failed to resolve degrades to an
                // unlabelled dimension, never a crash.
                label: dim_labels[dim].take().unwrap_or_default(),
                levels,
                queries: crawl.queries[dim],
            }
        })
        .collect())
}

/// Outcome of one advance attempt on a task.
enum TaskStep {
    /// Finished; a dimension-label task also yields its label.
    Done { dim: usize, label: Option<String> },
    /// Finished and scheduled follow-up work.
    Spawned(Vec<CrawlTask>),
    /// Still waiting on at least one response.
    Pending(CrawlTask),
}

fn advance_task(task: CrawlTask, crawl: &mut AsyncCrawl<'_>) -> Result<TaskStep, SparqlError> {
    match task {
        CrawlTask::DimLabel { dim, mut chain } => {
            if crawl.advance_label(dim, &mut chain) {
                Ok(TaskStep::Done {
                    dim,
                    label: chain.label,
                })
            } else {
                Ok(TaskStep::Pending(CrawlTask::DimLabel { dim, chain }))
            }
        }
        CrawlTask::Count {
            dim,
            path,
            mut slot,
        } => {
            if !slot.advance(crawl.pool)? {
                return Ok(TaskStep::Pending(CrawlTask::Count { dim, path, slot }));
            }
            let member_count = count_from(&slot.take_select()?, crawl.graph);
            if member_count == 0 {
                // mirrors the serial early return: no detail queries
                return Ok(TaskStep::Spawned(Vec::new()));
            }
            let detail = crawl.start_detail(dim, path, member_count);
            Ok(TaskStep::Spawned(vec![detail]))
        }
        CrawlTask::Detail {
            dim,
            path,
            member_count,
            mut attrs,
            mut label,
            mut rollups,
        } => {
            let mut done = attrs.advance(crawl.pool)?;
            done &= crawl.advance_label(dim, &mut label);
            if let Some(slot) = &mut rollups {
                done &= slot.advance(crawl.pool)?;
            }
            if !done {
                return Ok(TaskStep::Pending(CrawlTask::Detail {
                    dim,
                    path,
                    member_count,
                    attrs,
                    label,
                    rollups,
                }));
            }
            let attributes = predicates_from(&attrs.take_select()?, crawl.graph);
            let rollups = match rollups {
                Some(slot) => predicates_from(&slot.take_select()?, crawl.graph),
                None => Vec::new(),
            };
            // explore children exactly as the serial recursion would
            let mut spawned = Vec::new();
            for rollup in &rollups {
                if crawl.config.is_excluded(rollup) || path.contains(rollup) {
                    continue;
                }
                let mut child = path.clone();
                child.push(rollup.clone());
                if !crawl.seen[dim].insert(child.clone()) {
                    continue;
                }
                spawned.push(crawl.start_count(dim, child));
            }
            crawl.info[dim].insert(
                path,
                LevelInfo {
                    member_count,
                    attributes,
                    label: label.label.unwrap_or_default(),
                    rollups,
                },
            );
            Ok(TaskStep::Spawned(spawned))
        }
    }
}

/// Emits the recorded levels of one dimension in the exact order the
/// serial `collect_levels` recursion would have pushed them.
fn replay_levels(
    config: &BootstrapConfig,
    info: &BTreeMap<Vec<String>, LevelInfo>,
    path: Vec<String>,
    levels: &mut Vec<PendingLevel>,
) {
    let Some(level) = info.get(&path) else {
        return; // count was zero: serial records nothing and stops
    };
    levels.push(PendingLevel {
        path: path.clone(),
        member_count: level.member_count,
        attributes: level.attributes.clone(),
        label: level.label.clone(),
    });
    if path.len() >= config.max_depth {
        return;
    }
    for rollup in &level.rollups {
        if config.is_excluded(rollup) || path.contains(rollup) {
            continue;
        }
        let mut child = path.clone();
        child.push(rollup.clone());
        if levels.iter().any(|l| l.path == child) {
            continue;
        }
        replay_levels(config, info, child, levels);
    }
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
    *queries += 1;
    let solutions = endpoint.select(&query)?;
    Ok(solutions
        .value(0, "n")
        .and_then(|v| v.as_number(endpoint.graph()))
        .unwrap_or(0.0) as usize)
}

/// `SELECT DISTINCT ?p WHERE { ?o a C . ?o ?p ?x . FILTER(kind(?x)) }`.
fn typed_object_predicates(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    kind: Func,
    queries: &mut u64,
) -> Result<Vec<String>, SparqlError> {
    let mut query = Query::select_all(vec![
        observation_type("o", &config.observation_class),
        PatternElement::Triple(TriplePattern::with_pred_var(
            TermPattern::Var("o".to_owned()),
            "p",
            TermPattern::Var("x".to_owned()),
        )),
        PatternElement::Filter(Expr::Call(kind, vec![Expr::var("x")])),
    ]);
    query.select.push(SelectItem::Var("p".to_owned()));
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

/// Records the level reached by `path` and recurses into its roll-ups,
/// depth-first.
fn collect_levels(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    levels: &mut Vec<PendingLevel>,
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
    levels.push(PendingLevel {
        path: path.clone(),
        member_count,
        attributes,
        label,
    });

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
        if levels.iter().any(|l| l.path == child) {
            continue;
        }
        collect_levels(endpoint, config, levels, child, queries)?;
    }
    Ok(())
}

/// `SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE { ?o a C . ?o <path> ?m }`.
fn count_members_query(config: &BootstrapConfig, path: &[String]) -> Query {
    let mut query = Query::select_all(vec![
        observation_type("o", &config.observation_class),
        path_to_member("o", path, "m"),
    ]);
    query.select.push(SelectItem::Agg {
        func: AggFunc::CountDistinct,
        expr: Expr::var("m"),
        alias: "n".to_owned(),
    });
    query
}

fn count_from(solutions: &Solutions, graph: &re2x_rdf::Graph) -> usize {
    solutions
        .value(0, "n")
        .and_then(|v| v.as_number(graph))
        .unwrap_or(0.0) as usize
}

/// `SELECT DISTINCT ?q WHERE { ?o a C . ?o <path> ?m . ?m ?q ?x . FILTER(kind(?x)) }`.
fn member_predicates_query(config: &BootstrapConfig, path: &[String], kind: Func) -> Query {
    let mut query = Query::select_all(vec![
        observation_type("o", &config.observation_class),
        path_to_member("o", path, "m"),
        PatternElement::Triple(TriplePattern::with_pred_var(
            TermPattern::Var("m".to_owned()),
            "q",
            TermPattern::Var("x".to_owned()),
        )),
        PatternElement::Filter(Expr::Call(kind, vec![Expr::var("x")])),
    ]);
    query.select.push(SelectItem::Var("q".to_owned()));
    query.distinct = true;
    query
}

fn predicates_from(solutions: &Solutions, graph: &re2x_rdf::Graph) -> Vec<String> {
    let mut predicates: Vec<String> = solutions
        .rows
        .iter()
        .filter_map(|row| row[0].as_ref().map(|v| v.string_form(graph).into_owned()))
        .collect();
    predicates.sort_unstable();
    predicates
}

fn count_level_members(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    path: &[String],
    queries: &mut u64,
) -> Result<usize, SparqlError> {
    // COUNT(DISTINCT ?m): one result row instead of one per member
    *queries += 1;
    let solutions = endpoint.select(&count_members_query(config, path))?;
    Ok(count_from(&solutions, endpoint.graph()))
}

fn member_predicates(
    endpoint: &dyn SparqlEndpoint,
    config: &BootstrapConfig,
    path: &[String],
    kind: Func,
    queries: &mut u64,
) -> Result<Vec<String>, SparqlError> {
    *queries += 1;
    let solutions = endpoint.select(&member_predicates_query(config, path, kind))?;
    Ok(predicates_from(&solutions, endpoint.graph()))
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
        type Bootstrap = fn(&LocalEndpoint, &BootstrapConfig) -> BootstrapReport;
        let variants: [(&str, Bootstrap); 3] = [
            ("serial", |ep, config| {
                bootstrap(ep, config).expect("bootstrap")
            }),
            ("parallel", |ep, config| {
                bootstrap_parallel(ep, config).expect("bootstrap")
            }),
            ("async", |ep, config| {
                bootstrap_async(ep, config, 3).expect("bootstrap")
            }),
        ];
        let config = BootstrapConfig::new("http://ex/Observation");
        let mut counts = Vec::new();
        for (name, run) in variants {
            let ep = fixture();
            let before = ep.stats().total_queries();
            let report = run(&ep, &config);
            let issued = ep.stats().total_queries() - before;
            assert_eq!(report.endpoint_queries, issued, "{name}");
            counts.push(issued);
        }
        assert_eq!(counts[0], counts[1]);
        assert_eq!(counts[0], counts[2]);
        // an unlabeled IRI costs one query per label predicate tried
        let mut single = config.clone();
        single.label_predicates.truncate(1);
        let single = bootstrap(&fixture(), &single).expect("bootstrap");
        assert!(counts[0] > single.endpoint_queries);
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
