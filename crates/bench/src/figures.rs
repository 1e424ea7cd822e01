//! The per-table / per-figure experiment functions.
//!
//! Every function regenerates one table or figure of the paper's
//! evaluation (Section 7) and returns the result as rendered text plus, for
//! figures consumed by other experiments, structured data.

use crate::env::PreparedDataset;
use crate::report::{fmt_bytes, fmt_duration, mean, Table};
use re2x_baselines::TABLE1;
use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_datagen::{example_workload_on, running};
use re2x_sparql::AggFunc;
use re2x_sparql::{LocalEndpoint, SparqlEndpoint};
use re2xolap::{
    refine::subset::DEFAULT_PERCENTILES, reolap, OlapQuery, RefineOp, ReolapConfig, Session,
    SessionConfig,
};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Input sizes used by the Figure 7–9 experiments.
pub const INPUT_SIZES: [usize; 4] = [1, 2, 3, 4];
/// Example tuples per input size (the paper uses 10).
pub const INPUTS_PER_SIZE: usize = 10;

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: capability matrix of the compared approaches.
pub fn table1() -> String {
    let mut t = Table::new([
        "",
        "RDF",
        "Large KGs",
        "Aggregations",
        "Reformulations",
        "User Input",
        "Partial Input",
    ]);
    let mark = |b: bool| if b { "yes" } else { "—" };
    for c in TABLE1 {
        t.row([
            c.system,
            mark(c.rdf),
            mark(c.large_kgs),
            mark(c.aggregations),
            mark(c.reformulations),
            mark(c.user_input),
            mark(c.partial_input),
        ]);
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Table 2
// ---------------------------------------------------------------------------

/// Table 2: result set of `⟨"Germany", "2014"⟩` on the running example,
/// interpreting Germany as Country of Destination.
pub fn table2() -> String {
    let mut dataset = running::generate();
    let graph = std::mem::take(&mut dataset.graph);
    let endpoint = LocalEndpoint::new(graph);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;
    let config = ReolapConfig {
        aggregates: vec![AggFunc::Sum],
        ..Default::default()
    };
    let outcome =
        reolap(&endpoint, &schema, &["Germany", "2014"], &config).expect("synthesis succeeds");
    let mut body = String::new();
    for q in &outcome.queries {
        body.push_str(&format!("{}\n\n", q.description));
        let mut query = q.query.clone();
        // Table 2 orders by descending SUM
        query.order_by = vec![re2x_sparql::OrderKey {
            column: q.measure_columns[0].alias.clone(),
            order: re2x_sparql::Order::Desc,
        }];
        let solutions = endpoint.select(&query).expect("query runs");
        // resolve member IRIs to labels for presentation
        let mut t = Table::new(["Country of Destination", "Year", "SUM(# Applicants)"]);
        for row in 0..solutions.len() {
            let label = |col: &str| -> String {
                let value = solutions.value(row, col);
                match value {
                    Some(re2x_sparql::Value::Term(id)) => member_label(&endpoint, *id),
                    Some(v) => v.string_form(endpoint.graph()).into_owned(),
                    None => "—".to_owned(),
                }
            };
            t.row([
                label(&q.group_columns[0].var),
                label(&q.group_columns[1].var),
                label(&q.measure_columns[0].alias),
            ]);
        }
        body.push_str(&t.render());
        body.push('\n');
    }
    body
}

fn member_label(endpoint: &LocalEndpoint, id: re2x_rdf::TermId) -> String {
    let graph = endpoint.graph();
    if let Some(label_p) = graph.iri_id(re2x_rdf::vocab::rdfs::LABEL) {
        if let Some(&lit) = graph.objects(id, label_p).first() {
            if let Some(l) = graph.term(lit).as_literal() {
                return l.lexical().to_owned();
            }
        }
    }
    graph.term(id).to_string()
}

// ---------------------------------------------------------------------------
// Table 3 + Figure 6
// ---------------------------------------------------------------------------

/// Table 3: dataset characteristics as discovered by the bootstrap crawler,
/// against the generator's specification.
pub fn table3(prepared: &[PreparedDataset]) -> String {
    let mut t = Table::new([
        "",
        "|D|",
        "|M|",
        "|H|",
        "|L|",
        "|N_D|",
        "Store (mem)",
        "VGraph (mem)",
        "spec |D|/|M|/|L|/|N_D|",
    ]);
    for p in prepared {
        let stats = p.report.schema.stats();
        let spec = p.dataset.expected;
        t.row([
            p.kind.name().to_owned(),
            stats.dimensions.to_string(),
            stats.measures.to_string(),
            stats.hierarchies.to_string(),
            stats.levels.to_string(),
            stats.members.to_string(),
            fmt_bytes(p.endpoint.graph().heap_bytes()),
            fmt_bytes(stats.vgraph_bytes),
            format!(
                "{}/{}/{}/{}",
                spec.dimensions, spec.measures, spec.levels, spec.members
            ),
        ]);
    }
    t.render()
}

/// Figure 6: (a) observations, (b) triples, (c) bootstrap time — beside
/// it the crawl's time by query class ([`crawl_classes`]) — then the same
/// classes at the dataset sizes the benchmark's workloads load.
pub fn fig6(prepared: &[PreparedDataset], seed: u64) -> String {
    use crate::env::{prepare, DatasetKind, Scales};
    let mut header = vec![
        "",
        "# Observations (a)",
        "# Triples (b)",
        "Bootstrap time (c)",
    ];
    header.extend(CRAWL_CLASSES.map(|(_, name)| name));
    header.extend(["Bootstrap queries", "Generation time"]);
    let mut t = Table::new(header);
    for p in prepared {
        let mut row = vec![
            p.kind.name().to_owned(),
            p.report.schema.observation_count.to_string(),
            p.endpoint.graph().len().to_string(),
            fmt_duration(p.report.elapsed),
        ];
        row.extend(crawl_classes(&p.endpoint, &p.dataset.observation_class));
        row.extend([
            p.report.endpoint_queries.to_string(),
            fmt_duration(p.generation_time),
        ]);
        t.row(row);
    }
    let mut header = vec!["benchmark dataset", "# Triples", "Bootstrap time"];
    header.extend(CRAWL_CLASSES.map(|(_, name)| name));
    let mut sizes = Table::new(header);
    for (kind, observations) in [
        (DatasetKind::Eurostat, 6_000),
        (DatasetKind::Eurostat, 100_000),
        (DatasetKind::Production, 8_000),
        (DatasetKind::Dbpedia, 4_000),
        (DatasetKind::Dbpedia, 16_000),
    ] {
        let scales = Scales {
            eurostat: observations,
            production: observations,
            dbpedia: observations,
        };
        let p = prepare(kind, &scales, seed);
        let mut row = vec![
            format!("{}-{}k", p.kind.name(), observations / 1_000),
            p.endpoint.graph().len().to_string(),
            fmt_duration(p.report.elapsed),
        ];
        row.extend(crawl_classes(&p.endpoint, &p.dataset.observation_class));
        sizes.row(row);
    }
    format!(
        "{}\nBy query class at the benchmark's dataset sizes:\n{}",
        t.render(),
        sizes.render()
    )
}

/// The crawl's query classes [`crawl_classes`] reports, with their column
/// names.
const CRAWL_CLASSES: [(Shape, &str); 4] = [
    (Shape::ObservationPredicates, "observation predicates"),
    (Shape::MemberCounts, "member counts"),
    (Shape::MemberPredicates, "member predicates"),
    (Shape::Labels, "labels"),
];

/// Bootstraps served by `endpoint` re-run through a [`ShapeTimer`]: per
/// crawl class the median over [`CRAWL_RUNS`] bootstraps of the time one
/// spends there, with the calls it makes (`"1.2 ms (2)"`).
fn crawl_classes(endpoint: &dyn SparqlEndpoint, class: &str) -> Vec<String> {
    let mut spent: Vec<Vec<Duration>> = vec![Vec::new(); CRAWL_CLASSES.len()];
    let mut calls = [0u32; CRAWL_CLASSES.len()];
    for _ in 0..CRAWL_RUNS {
        let timer = ShapeTimer::new(endpoint);
        bootstrap(&timer, &BootstrapConfig::new(class.to_owned()))
            .expect("bootstrap succeeds on generated data");
        for (i, (shape, _)) in CRAWL_CLASSES.iter().enumerate() {
            let (time, n) = timer.spent(*shape);
            spent[i].push(time);
            calls[i] = n;
        }
    }
    spent
        .iter_mut()
        .zip(calls)
        .map(|(times, n)| {
            times.sort_unstable();
            format!("{} ({n})", fmt_duration(times[times.len() / 2]))
        })
        .collect()
}

/// Bootstraps [`crawl_classes`] takes the median of.
const CRAWL_RUNS: usize = 5;

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// One measured synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisSample {
    /// The example tuple used.
    pub example: Vec<String>,
    /// Synthesis wall-clock time.
    pub elapsed: Duration,
    /// Queries produced.
    pub queries: Vec<OlapQuery>,
    /// Interpretation combinations enumerated (Section 5.3's search-space
    /// measure).
    pub interpretations: usize,
}

/// Per-(dataset, size) synthesis measurements.
#[derive(Debug, Clone)]
pub struct Fig7Series {
    /// Input size (1–4).
    pub size: usize,
    /// Samples (one per workload tuple).
    pub samples: Vec<SynthesisSample>,
}

impl Fig7Series {
    /// Mean synthesis time.
    pub fn mean_time(&self) -> Duration {
        mean(&self.samples.iter().map(|s| s.elapsed).collect::<Vec<_>>())
    }

    /// Mean number of queries produced.
    pub fn mean_queries(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.queries.len()).sum::<usize>() as f64
            / self.samples.len() as f64
    }

    /// Mean number of interpretation combinations enumerated.
    pub fn mean_interpretations(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.interpretations)
            .sum::<usize>() as f64
            / self.samples.len() as f64
    }
}

/// Runs the Figure 7 workload on one dataset: REOLAP over
/// [`INPUTS_PER_SIZE`] random example tuples per input size.
pub fn fig7_measure(prepared: &PreparedDataset, seed: u64) -> Vec<Fig7Series> {
    let config = ReolapConfig::default();
    let mut series = Vec::new();
    for size in INPUT_SIZES {
        let workload = example_workload_on(
            prepared.endpoint.graph(),
            &prepared.dataset,
            size,
            INPUTS_PER_SIZE,
            seed + size as u64,
        );
        let mut samples = Vec::new();
        for example in workload {
            let refs: Vec<&str> = example.iter().map(String::as_str).collect();
            let start = Instant::now();
            let outcome = reolap(&prepared.endpoint, &prepared.report.schema, &refs, &config);
            let elapsed = start.elapsed();
            let (queries, interpretations) = match outcome {
                Ok(o) => (o.queries, o.interpretations_considered),
                // ambiguity explosions count as a sample with 0 queries
                Err(_) => (Vec::new(), 0),
            };
            samples.push(SynthesisSample {
                example,
                elapsed,
                queries,
                interpretations,
            });
        }
        series.push(Fig7Series { size, samples });
    }
    series
}

/// Renders Figure 7a (running time) and 7b (#queries) rows for a set of
/// datasets.
pub fn fig7(results: &[(&str, Vec<Fig7Series>)]) -> String {
    let mut t = Table::new([
        "dataset",
        "input size",
        "avg time (a)",
        "avg #queries (b)",
        "avg #interpretations",
    ]);
    for (name, series) in results {
        for s in series {
            t.row([
                (*name).to_owned(),
                format!("{} Ex.", s.size),
                fmt_duration(s.mean_time()),
                format!("{:.1}", s.mean_queries()),
                format!("{:.1}", s.mean_interpretations()),
            ]);
        }
    }
    t.render()
}

/// Scaling study (Section 5.3's claim, checked directly): synthesis time
/// at several observation counts of the same schema. "Time complexity is
/// independent of the actual number of observations" — the per-scale means
/// should stay flat while the store grows. Beside the mean, synthesis's
/// queries are timed by shape ([`ShapeTimer`]): the `ASK`s (validation and
/// member-level checks) and the `SELECT DISTINCT ?p { ?x ?p <member> }` of
/// member matching, per call. The bootstrap crawl is timed beside it on the
/// 1-to-N eurostat hierarchies and on the M-to-N dbpedia ones, whose member
/// tables grow with the observations.
pub fn scaling(seed: u64) -> String {
    use crate::env::{prepare, DatasetKind, Scales};
    let mut t = Table::new([
        "observations",
        "triples",
        "avg synthesis time (2 Ex.)",
        "ASK per call (calls/synthesis, share)",
        "predicates_into per call",
        "bootstrap time",
        "dbpedia triples",
        "dbpedia bootstrap time",
    ]);
    for scale in [2_000usize, 10_000, 40_000] {
        let scales = Scales {
            eurostat: scale,
            production: scale,
            dbpedia: scale,
        };
        let prepared = prepare(DatasetKind::Eurostat, &scales, seed);
        let workload = example_workload_on(
            prepared.endpoint.graph(),
            &prepared.dataset,
            2,
            INPUTS_PER_SIZE,
            seed,
        );
        let config = ReolapConfig::default();
        let endpoint = ShapeTimer::new(&prepared.endpoint);
        let mut times = Vec::new();
        for tuple in &workload {
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            let start = Instant::now();
            let _ = reolap(&endpoint, &prepared.report.schema, &refs, &config);
            times.push(start.elapsed());
        }
        let (ask, asks) = endpoint.spent(Shape::Ask);
        let (into, intos) = endpoint.spent(Shape::PredicatesInto);
        let total: Duration = times.iter().sum();
        let dbpedia = prepare(DatasetKind::Dbpedia, &scales, seed);
        t.row([
            scale.to_string(),
            prepared.endpoint.graph().len().to_string(),
            fmt_duration(mean(&times)),
            format!(
                "{} ({:.1}, {:.0} %)",
                fmt_duration(ask / asks.max(1)),
                f64::from(asks) / times.len().max(1) as f64,
                100.0 * ask.as_secs_f64() / total.as_secs_f64().max(f64::MIN_POSITIVE)
            ),
            fmt_duration(into / intos.max(1)),
            fmt_duration(prepared.report.elapsed),
            dbpedia.endpoint.graph().len().to_string(),
            fmt_duration(dbpedia.report.elapsed),
        ]);
    }
    t.render()
}

/// The query shapes [`ShapeTimer`] times apart: synthesis's two, and the
/// bootstrap crawl's classes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Every `ASK`: interpretation validation and member-level checks.
    Ask,
    /// `SELECT DISTINCT ?p { ?x ?p <member> }`, answered by
    /// `Graph::predicates_into`.
    PredicatesInto,
    /// Measure and dimension discovery: `SELECT DISTINCT ?p { ?o a C .
    /// ?o ?p ?x . FILTER(…) }`.
    ObservationPredicates,
    /// A level's `COUNT(DISTINCT ?m)` behind its path.
    MemberCounts,
    /// A level's attribute and roll-up discovery: `SELECT DISTINCT ?q
    /// { … ?m ?q ?x . FILTER(…) }`.
    MemberPredicates,
    /// `SELECT * { <iri> <label predicate> ?l }`.
    Labels,
    /// Every other `SELECT`.
    Other,
}

/// Number of [`Shape`]s.
const SHAPES: usize = Shape::Other as usize + 1;

/// An endpoint decorator that times every query by its [`Shape`].
struct ShapeTimer<'a> {
    inner: &'a dyn SparqlEndpoint,
    /// Per shape: nanoseconds spent and calls (statistics only).
    nanos: [AtomicU64; SHAPES],
    calls: [AtomicU32; SHAPES],
}

impl<'a> ShapeTimer<'a> {
    fn new(inner: &'a dyn SparqlEndpoint) -> Self {
        ShapeTimer {
            inner,
            nanos: Default::default(),
            calls: Default::default(),
        }
    }

    fn timed<T>(&self, shape: Shape, run: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = run();
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos[shape as usize].fetch_add(nanos, Ordering::Relaxed);
        self.calls[shape as usize].fetch_add(1, Ordering::Relaxed);
        out
    }

    /// Time spent in and calls of one shape.
    fn spent(&self, shape: Shape) -> (Duration, u32) {
        let nanos = self.nanos[shape as usize].load(Ordering::Relaxed);
        let calls = self.calls[shape as usize].load(Ordering::Relaxed);
        (Duration::from_nanos(nanos), calls)
    }
}

fn select_shape(query: &re2x_sparql::Query) -> Shape {
    use re2x_sparql::{PatternElement, Predicate, SelectItem, TermPattern};
    let triples: Vec<_> = query
        .wher
        .iter()
        .filter_map(|element| match element {
            PatternElement::Triple(t) => Some(t),
            _ => None,
        })
        .collect();
    match (triples.as_slice(), query.select.as_slice()) {
        ([t], _)
            if query.distinct
                && matches!(t.predicate, Predicate::Var(_))
                && matches!(t.object, TermPattern::Iri(_)) =>
        {
            Shape::PredicatesInto
        }
        ([t], [])
            if matches!(t.subject, TermPattern::Iri(_))
                && matches!(t.predicate, Predicate::Path(_)) =>
        {
            Shape::Labels
        }
        (
            _,
            [SelectItem::Agg {
                func: AggFunc::CountDistinct,
                ..
            }],
        ) => Shape::MemberCounts,
        (_, [SelectItem::Var(target)]) if query.distinct => {
            // the pattern whose predicate is the target: behind a path
            // (its subject some pattern's object) it asks about members
            let arm = triples
                .iter()
                .find(|t| matches!(&t.predicate, Predicate::Var(v) if v == target));
            match arm {
                Some(arm) if triples.iter().any(|t| t.object == arm.subject) => {
                    Shape::MemberPredicates
                }
                Some(_) => Shape::ObservationPredicates,
                None => Shape::Other,
            }
        }
        _ => Shape::Other,
    }
}

impl SparqlEndpoint for ShapeTimer<'_> {
    fn select(
        &self,
        query: &re2x_sparql::Query,
    ) -> Result<re2x_sparql::Solutions, re2x_sparql::SparqlError> {
        self.timed(select_shape(query), || self.inner.select(query))
    }

    fn ask(&self, query: &re2x_sparql::Query) -> Result<bool, re2x_sparql::SparqlError> {
        self.timed(Shape::Ask, || self.inner.ask(query))
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<re2x_rdf::TermId> {
        self.inner.keyword_search(keyword, exact)
    }

    fn graph(&self) -> &re2x_rdf::Graph {
        self.inner.graph()
    }

    fn stats(&self) -> re2x_sparql::EndpointStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

// ---------------------------------------------------------------------------
// Figure 8 (a, b) — Orig / Dis.1 / Dis.2 execution
// ---------------------------------------------------------------------------

/// Measurements for one disaggregation depth.
#[derive(Debug, Clone, Default)]
pub struct DepthStats {
    /// Query execution times.
    pub times: Vec<Duration>,
    /// Result-set sizes.
    pub tuples: Vec<usize>,
}

/// Per-(dataset, size) Figure 8 measurements: index 0 = Orig., 1 = Dis.1,
/// 2 = Dis.2.
#[derive(Debug, Clone)]
pub struct Fig8Series {
    /// Input size.
    pub size: usize,
    /// Stats per disaggregation depth (0..=2).
    pub depths: [DepthStats; 3],
}

/// Executes every synthesized query of the Figure 7 samples at
/// disaggregation depths 0–2, measuring endpoint time and result size.
/// Also returns the queries+solutions at each depth for the Figure 9
/// refinement experiment.
pub type ExecutedQuery = (OlapQuery, re2x_sparql::Solutions);

/// Result sets larger than this are excluded from the Figure 9 refinement
/// pool — the analog of the paper's 15-minute endpoint timeout, which the
/// DBpedia M-to-N blow-ups trigger for similarity search (§7.1).
pub const FIG9_ROW_CAP: usize = 120_000;

/// Runs Figure 8 on one dataset, returning the rendered series plus the
/// executed Dis.1/Dis.2 queries for reuse.
pub fn fig8_measure(
    prepared: &PreparedDataset,
    fig7: &[Fig7Series],
) -> (Vec<Fig8Series>, Vec<ExecutedQuery>) {
    let schema = &prepared.report.schema;
    let mut out = Vec::new();
    let mut executed = Vec::new();
    for series in fig7 {
        let mut depths: [DepthStats; 3] = Default::default();
        for sample in &series.samples {
            // the paper's user picks one interpretation; we take the first
            let Some(query) = sample.queries.first() else {
                continue;
            };
            let mut current = query.clone();
            #[allow(clippy::needless_range_loop)] // depth doubles as loop state
            for depth in 0..3 {
                if depth > 0 {
                    let refinements =
                        re2xolap::refine::disaggregate::disaggregate(schema, &current);
                    let Some(r) = refinements.into_iter().next() else {
                        break;
                    };
                    current = r.query;
                }
                let start = Instant::now();
                let solutions = match prepared.endpoint.select(&current.query) {
                    Ok(s) => s,
                    Err(_) => break,
                };
                depths[depth].times.push(start.elapsed());
                depths[depth].tuples.push(solutions.len());
                if depth > 0 && solutions.len() <= FIG9_ROW_CAP {
                    executed.push((current.clone(), solutions));
                }
            }
        }
        out.push(Fig8Series {
            size: series.size,
            depths,
        });
    }
    (out, executed)
}

/// Renders Figure 8a (execution time) and 8b (#result tuples).
pub fn fig8(results: &[(&str, Vec<Fig8Series>)]) -> String {
    let mut t = Table::new([
        "dataset",
        "input size",
        "Orig. time",
        "Dis.1 time",
        "Dis.2 time",
        "Orig. #tuples",
        "Dis.1 #tuples",
        "Dis.2 #tuples",
    ]);
    for (name, series) in results {
        for s in series {
            let avg_tuples = |d: &DepthStats| {
                if d.tuples.is_empty() {
                    "—".to_owned()
                } else {
                    format!(
                        "{:.0}",
                        d.tuples.iter().sum::<usize>() as f64 / d.tuples.len() as f64
                    )
                }
            };
            let avg_time = |d: &DepthStats| {
                if d.times.is_empty() {
                    "—".to_owned()
                } else {
                    fmt_duration(mean(&d.times))
                }
            };
            t.row([
                (*name).to_owned(),
                format!("{} Ex.", s.size),
                avg_time(&s.depths[0]),
                avg_time(&s.depths[1]),
                avg_time(&s.depths[2]),
                avg_tuples(&s.depths[0]),
                avg_tuples(&s.depths[1]),
                avg_tuples(&s.depths[2]),
            ]);
        }
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Figure 8c — exploration workflow accounting
// ---------------------------------------------------------------------------

/// Figure 8c: the cumulative exploration paths and accessible tuples over
/// the paper's 5-interaction workflow (ReOLAP → Dis → Dis → Sim → TopK) on
/// the Eurostat dataset with a single example entity.
pub fn fig8c(prepared: &PreparedDataset, seed: u64) -> String {
    let workload = example_workload_on(prepared.endpoint.graph(), &prepared.dataset, 1, 1, seed);
    let example: Vec<&str> = workload[0].iter().map(String::as_str).collect();
    let mut session = Session::new(
        &prepared.endpoint,
        &prepared.report.schema,
        SessionConfig::default(),
    );
    let mut t = Table::new([
        "interaction",
        "operation",
        "paths offered (cum.)",
        "tuples (cum.)",
    ]);
    let outcome = session.synthesize(&example).expect("synthesis");
    let mut record = |session: &Session, step: usize, op: &str| {
        let m = session.metrics();
        t.row([
            step.to_string(),
            op.to_owned(),
            m.paths_offered.to_string(),
            m.tuples_accessible.to_string(),
        ]);
    };
    record(&session, 1, &format!("ReOLAP({:?})", example));
    session
        .choose(outcome.queries.first().expect("≥1 interpretation").clone())
        .expect("runs");
    for (step, op) in [
        (2, RefineOp::Disaggregate),
        (3, RefineOp::Disaggregate),
        (4, RefineOp::Similarity),
        (5, RefineOp::TopK),
    ] {
        let refinements = session.refinements(op).expect("refinements");
        record(&session, step, &format!("{op:?}"));
        if let Some(r) = refinements.into_iter().next() {
            session.apply(r).expect("runs");
        }
    }
    record(&session, 6, "final");
    t.render()
}

// ---------------------------------------------------------------------------
// Figure 9 — refinement generation
// ---------------------------------------------------------------------------

/// Per-method refinement measurements.
#[derive(Debug, Clone, Default)]
pub struct RefineStats {
    /// Generation times.
    pub times: Vec<Duration>,
    /// Number of refinements produced.
    pub counts: Vec<usize>,
}

/// Runs the three post-hoc refinement methods over executed queries
/// (Dis.1/Dis.2 from Figure 8), measuring generation time and output count.
pub fn fig9_measure(
    prepared: &PreparedDataset,
    executed: &[ExecutedQuery],
    similarity_k: usize,
) -> [RefineStats; 3] {
    let schema = &prepared.report.schema;
    let graph = prepared.endpoint.graph();
    let mut stats: [RefineStats; 3] = Default::default();
    for (query, solutions) in executed {
        let start = Instant::now();
        let topk = re2xolap::refine::subset::topk(schema, query, solutions, graph);
        stats[0].times.push(start.elapsed());
        stats[0].counts.push(topk.len());

        let start = Instant::now();
        let perc = re2xolap::refine::subset::percentile(
            schema,
            query,
            solutions,
            graph,
            &DEFAULT_PERCENTILES,
        );
        stats[1].times.push(start.elapsed());
        stats[1].counts.push(perc.len());

        let start = Instant::now();
        let sim =
            re2xolap::refine::similar::similarity(schema, query, solutions, graph, similarity_k);
        stats[2].times.push(start.elapsed());
        stats[2].counts.push(sim.len());
    }
    stats
}

/// Renders Figure 9a (generation time) and 9b (#refinements).
pub fn fig9(results: &[(&str, [RefineStats; 3])]) -> String {
    let mut t = Table::new([
        "dataset",
        "method",
        "avg time (a)",
        "avg #refinements (b)",
        "queries refined",
    ]);
    for (name, stats) in results {
        for (mi, method) in ["Top-k", "Perc.", "Sim."].iter().enumerate() {
            let s = &stats[mi];
            let avg_count = if s.counts.is_empty() {
                "—".to_owned()
            } else {
                format!(
                    "{:.1}",
                    s.counts.iter().sum::<usize>() as f64 / s.counts.len() as f64
                )
            };
            t.row([
                (*name).to_owned(),
                (*method).to_owned(),
                fmt_duration(mean(&s.times)),
                avg_count,
                s.times.len().to_string(),
            ]);
        }
    }
    t.render()
}

// ---------------------------------------------------------------------------
// Endpoint latency profile (cached decorator stack)
// ---------------------------------------------------------------------------

/// Per-phase endpoint profile under injected latency: query counts, cache
/// hit rates, and p50/p99 latency quantiles from the endpoint's
/// [`re2x_sparql::LatencyHistogram`], measured through the decorator stack
/// `LocalEndpoint (+latency) → CachingEndpoint`.
///
/// Each phase is run cold (empty cache) and warm (same work repeated); the
/// warm rows show the caching layer absorbing endpoint round-trips —
/// the paper attributes most of the bootstrap and validation cost to
/// exactly those round-trips.
pub fn latency_profile(seed: u64) -> String {
    use re2x_sparql::CachingEndpoint;

    let injected = Duration::from_millis(1);
    let mut dataset = re2x_datagen::eurostat::generate(2_000, seed);
    let graph = std::mem::take(&mut dataset.graph);
    let endpoint = CachingEndpoint::new(LocalEndpoint::new(graph).with_latency(injected));
    let config = BootstrapConfig::new(dataset.observation_class.clone());

    let mut t = Table::new([
        "phase",
        "endpoint queries",
        "cache hits",
        "cache misses",
        "p50",
        "p99",
    ]);
    let fmt_quantile = |q: Option<Duration>| q.map_or("—".to_owned(), fmt_duration);
    let mut record = |phase: &str| {
        let stats = endpoint.stats();
        t.row([
            phase.to_owned(),
            stats.total_queries().to_string(),
            stats.cache_hits.to_string(),
            stats.cache_misses.to_string(),
            fmt_quantile(stats.latency.p50()),
            fmt_quantile(stats.latency.p99()),
        ]);
        endpoint.reset_stats();
    };

    let report = bootstrap(&endpoint, &config).expect("bootstrap");
    record("bootstrap (cold)");
    bootstrap(&endpoint, &config).expect("bootstrap");
    record("bootstrap (warm)");

    let schema = report.schema;
    let workload = example_workload_on(endpoint.graph(), &dataset, 2, 5, seed);
    let reolap_config = ReolapConfig::default();
    let synthesize_all = || {
        for tuple in &workload {
            let refs: Vec<&str> = tuple.iter().map(String::as_str).collect();
            let _ = reolap(&endpoint, &schema, &refs, &reolap_config);
        }
    };
    synthesize_all();
    record("synthesis (cold)");
    synthesize_all();
    record("synthesis (warm)");

    format!(
        "injected endpoint latency: {}\n\n{}",
        fmt_duration(injected),
        t.render()
    )
}

// ---------------------------------------------------------------------------
// Figure 10 — comparison with SPARQLByE
// ---------------------------------------------------------------------------

/// Figure 10: the queries SPARQLByE-style reverse engineering and ReOLAP
/// produce for the same example on the running-example KG.
pub fn fig10() -> String {
    let mut dataset = running::generate();
    let graph = std::mem::take(&mut dataset.graph);
    let endpoint = LocalEndpoint::new(graph);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;
    let example = ["Asia", "2014"];

    let mut body = String::new();
    body.push_str(&format!("Example: {example:?}\n\n"));
    body.push_str("(a) SPARQLByE-style minimal BGP (flat, no observations, no aggregates):\n\n");
    let baseline =
        re2x_baselines::reverse_engineer(&endpoint, &example, true).expect("baseline runs");
    match baseline.queries.first() {
        Some(q) => body.push_str(&re2x_sparql::query_to_sparql(q)),
        None => body.push_str("(no query)"),
    }
    body.push_str("\n\n(b) ReOLAP (connects members to observations, aggregates measures):\n\n");
    let config = ReolapConfig {
        aggregates: vec![AggFunc::Sum],
        ..Default::default()
    };
    let outcome = reolap(&endpoint, &schema, &example, &config).expect("synthesis");
    match outcome.queries.first() {
        Some(q) => {
            body.push_str(&q.sparql());
            body.push_str(&format!("\n\n   described as: {}", q.description));
        }
        None => body.push_str("(no query)"),
    }
    body.push('\n');
    body
}
