//! Scatter-gather evaluation over hash-partitioned shards.
//!
//! [`ShardedEndpoint`] is a [`SparqlEndpoint`] decorator over N
//! hash-partitioned [`Graph`] shards built by `re2x_rdf::partition`:
//! qb:Observation subjects are hash-partitioned while dimension, hierarchy
//! and schema triples are replicated to every shard, so the star-shaped
//! patterns RE²xOLAP emits evaluate entirely shard-locally. A query the
//! decomposer can prove mergeable *scatters* to all shards in parallel
//! (scoped threads) and the partial results
//! *gather* through a merge layer:
//!
//! * SUM/COUNT/MIN/MAX partial-merge by group key,
//! * AVG is rewritten to SUM + COUNT_NUMERIC on the shards and recombined,
//! * ORDER BY + LIMIT/OFFSET applies after a canonically-ordered merge,
//! * DISTINCT deduplicates with exactly the local `DedupKey` semantics,
//! * HAVING evaluates at the gather over the merged aggregates.
//!
//! Everything else — ASK, keyword lookups, predicate-variable probes,
//! OPTIONAL/UNION, `COUNT(DISTINCT …)`, queries that would be rejected by
//! the local validator, unordered LIMIT — conservatively falls back to a
//! single full *replica*, which also serves [`SparqlEndpoint::graph`] term
//! resolution. Results are proven byte-identical to [`LocalEndpoint`] by
//! the differential suite (`tests/sharded_differential.rs`): scattered
//! queries against the canonical reference order
//! ([`reference_solutions`]), replica-routed queries raw.
//!
//! Merged rows always come back in a *canonical* deterministic order: the
//! query's ORDER BY keys first (exactly the local comparator), then a
//! structural whole-row tiebreak — so scatter results do not depend on
//! shard completion order or shard count.
//!
//! Floating-point caveat: partial SUM/AVG re-associates additions. For
//! integer-valued measures (all bundled generators) f64 addition is exact
//! and the merge is bit-identical to local evaluation; for non-integer
//! measures it is correct up to floating-point re-association.

// lint:allow-file(no-wallclock, times scatter legs to expose per-shard busy/skew metrics)

use crate::ast::{
    AggFunc, Expr, Order, OrderKey, PatternElement, Predicate, Query, QueryForm, SelectItem,
    TermPattern,
};
use crate::endpoint::{EndpointStats, LocalEndpoint, SparqlEndpoint};
use crate::error::SparqlError;
use crate::eval::DedupKey;
use crate::expr::{eval_expr, EvalContext};
use crate::value::{total_compare_numeric, Solutions, Value};
use re2x_obs::{label, lock_or_recover, Metrics};
use re2x_rdf::hash::FxHashMap;
use re2x_rdf::partition::{partition, partition_layout, PartitionLayout, PredicateRole};
use re2x_rdf::vocab::{qb, rdf};
use re2x_rdf::{Graph, TermId};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the decomposer routes a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Proven mergeable: scattered to all shards and gathered.
    Scatter,
    /// Conservative fallback: answered by the single full replica.
    Replica,
}

/// Scatter-gather [`SparqlEndpoint`] over hash-partitioned shards.
///
/// Composes anywhere in the decorator stack (under
/// [`crate::CachingEndpoint`] / [`crate::TracingEndpoint`]); per-shard
/// activity is surfaced through optional [`re2x_obs::Metrics`]
/// (`shard_busy{shard="i"}` gauges, per-shard query/row counters, a
/// `shard_skew` gauge).
pub struct ShardedEndpoint {
    shards: Vec<LocalEndpoint>,
    replica: LocalEndpoint,
    layout: PartitionLayout,
    class_iri: String,
    latency: Option<Duration>,
    row_latency: Option<Duration>,
    // lock-order: sparql.sharded.stats
    stats: Mutex<EndpointStats>,
    scatters: AtomicU64,
    fallbacks: AtomicU64,
    metrics: Option<Arc<Metrics>>,
}

impl ShardedEndpoint {
    /// Partitions `graph` into `shards` shards on the W3C Data Cube
    /// observation class and keeps a full replica for fallback queries.
    pub fn new(graph: Graph, shards: usize) -> Self {
        Self::with_observation_class(graph, qb::OBSERVATION, shards)
    }

    /// Like [`ShardedEndpoint::new`] with an explicit fact class.
    pub fn with_observation_class(graph: Graph, class: &str, shards: usize) -> Self {
        let parts = partition(&graph, class, shards);
        let endpoint = ShardedEndpoint {
            shards: parts.shards.into_iter().map(LocalEndpoint::new).collect(),
            replica: LocalEndpoint::new(graph),
            layout: parts.layout,
            class_iri: class.to_owned(),
            latency: None,
            row_latency: None,
            stats: Mutex::new(EndpointStats::default()),
            scatters: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            metrics: None,
        };
        endpoint.publish_layout_metrics();
        endpoint
    }

    /// Re-assembles a sharded endpoint from already-built shard graphs —
    /// the per-shard artifacts of `re2x_rdf::load_shard_snapshot` — plus
    /// the full replica, instead of re-partitioning the replica from
    /// scratch. Only the routing layout is re-derived (one scan of the
    /// replica, no shard graphs built); the shard graphs are trusted to be
    /// the partition of the replica, which the snapshot key scheme stamps
    /// and the differential suite proves.
    pub fn from_loaded_shards(replica: Graph, class: &str, shard_graphs: Vec<Graph>) -> Self {
        let layout = partition_layout(&replica, class, shard_graphs.len());
        let endpoint = ShardedEndpoint {
            shards: shard_graphs.into_iter().map(LocalEndpoint::new).collect(),
            replica: LocalEndpoint::new(replica),
            layout,
            class_iri: class.to_owned(),
            latency: None,
            row_latency: None,
            stats: Mutex::new(EndpointStats::default()),
            scatters: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            metrics: None,
        };
        endpoint.publish_layout_metrics();
        endpoint
    }

    /// Injects a fixed per-query latency into every shard *and* the replica
    /// (each stands in for a remote endpoint round-trip).
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = Some(latency);
        self.rebuild_backends()
    }

    /// Injects a per-result-row latency into every shard and the replica
    /// (simulating response serialization/transfer of remote endpoints —
    /// the cost the scatter actually parallelizes).
    pub fn with_row_latency(mut self, per_row: Duration) -> Self {
        self.row_latency = Some(per_row);
        self.rebuild_backends()
    }

    /// Attaches a metrics registry receiving per-shard gauges/counters.
    pub fn with_metrics(mut self, metrics: Arc<Metrics>) -> Self {
        self.metrics = Some(metrics);
        self.publish_layout_metrics();
        self
    }

    fn rebuild_backends(mut self) -> Self {
        let apply = |endpoint: LocalEndpoint, lat: Option<Duration>, row: Option<Duration>| {
            let mut rebuilt = LocalEndpoint::new(endpoint.into_graph());
            if let Some(l) = lat {
                rebuilt = rebuilt.with_latency(l);
            }
            if let Some(r) = row {
                rebuilt = rebuilt.with_row_latency(r);
            }
            rebuilt
        };
        let (lat, row) = (self.latency, self.row_latency);
        self.shards = self
            .shards
            .into_iter()
            .map(|s| apply(s, lat, row))
            .collect();
        self.replica = apply(self.replica, lat, row);
        self
    }

    fn publish_layout_metrics(&self) {
        if let Some(metrics) = &self.metrics {
            metrics.gauge_set("shard_skew", self.layout.skew());
            for (i, &facts) in self.layout.shard_fact_triples.iter().enumerate() {
                metrics.gauge_set(
                    &label("shard_fact_triples", &[("shard", &i.to_string())]),
                    facts as f64,
                );
            }
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The partition layout (per-shard fact counts, skew, predicate roles).
    pub fn layout(&self) -> &PartitionLayout {
        &self.layout
    }

    /// Statistics of one shard's backend endpoint.
    pub fn shard_stats(&self, shard: usize) -> EndpointStats {
        self.shards[shard].stats()
    }

    /// Statistics of the fallback replica endpoint.
    pub fn replica_stats(&self) -> EndpointStats {
        self.replica.stats()
    }

    /// Number of queries answered by scatter-gather so far.
    pub fn scatter_count(&self) -> u64 {
        self.scatters.load(AtomicOrdering::Relaxed)
    }

    /// Number of queries answered by the replica fallback so far.
    pub fn fallback_count(&self) -> u64 {
        self.fallbacks.load(AtomicOrdering::Relaxed)
    }

    /// How this endpoint would route `query` (decomposition dry-run).
    pub fn route(&self, query: &Query) -> Route {
        if self.decompose(query).is_some() {
            Route::Scatter
        } else {
            Route::Replica
        }
    }

    // ---- decomposer -------------------------------------------------------

    /// Proves a query mergeable and builds its scatter plan, or returns
    /// `None` for the conservative replica fallback. Soundness argument:
    /// a plan exists only when every WHERE pattern is either *fact-anchored*
    /// (first path predicate routes only fact-subject triples, all later
    /// path hops replicated) on one shared subject, or fully replicated.
    /// Every solution therefore commits all its fact triples to one fact
    /// subject `s`, and shard `hash(s)` holds exactly those triples plus all
    /// replicated ones — the solution materializes on exactly one shard,
    /// with local multiplicity.
    fn decompose(&self, query: &Query) -> Option<ScatterPlan> {
        if query.form != QueryForm::Select || self.layout.fact_triples == 0 {
            return None;
        }
        // Flat conjunctive WHERE only; aggregate-in-filter must surface the
        // local validator's error, so it falls back too.
        let mut patterns = Vec::new();
        for element in &query.wher {
            match element {
                PatternElement::Triple(t) => patterns.push(t),
                PatternElement::Filter(f) => {
                    if f.has_aggregate() {
                        return None;
                    }
                }
                PatternElement::Optional(_) | PatternElement::Union(_) => return None,
            }
        }
        if patterns.is_empty() {
            return None;
        }

        // Classify each pattern; all fact-anchored patterns must share one
        // subject term so the whole star hashes to a single shard.
        let graph = self.replica.graph();
        let mut fact_subject: Option<&TermPattern> = None;
        for t in &patterns {
            let path = match &t.predicate {
                Predicate::Path(p) => p,
                Predicate::Var(_) => return None,
            };
            let role = |iri: &str| match graph.iri_id(iri) {
                Some(id) => self.layout.predicate_role(id),
                None => PredicateRole::Unused,
            };
            let first_is_fact = match role(&path[0]) {
                PredicateRole::Fact => true,
                // The one mergeable Mixed shape: the observation-class type
                // probe itself, whose matches are exactly the fact subjects.
                PredicateRole::Mixed => {
                    let is_class_probe = path.len() == 1
                        && path[0] == rdf::TYPE
                        && matches!(&t.object, TermPattern::Iri(c) if *c == self.class_iri);
                    if !is_class_probe {
                        return None;
                    }
                    true
                }
                PredicateRole::Replicated | PredicateRole::Unused => false,
            };
            // Later path hops traverse objects of the first hop; only
            // replicated continuations are provably shard-local.
            for hop in &path[1..] {
                match role(hop) {
                    PredicateRole::Replicated | PredicateRole::Unused => {}
                    PredicateRole::Fact | PredicateRole::Mixed => return None,
                }
            }
            if first_is_fact {
                if !matches!(&t.subject, TermPattern::Var(_) | TermPattern::Iri(_)) {
                    return None;
                }
                match fact_subject {
                    None => fact_subject = Some(&t.subject),
                    Some(existing) if *existing == t.subject => {}
                    Some(_) => return None,
                }
            }
        }
        // Without a fact-anchored pattern every shard would return the full
        // (replicated) result and the gather would multiply rows.
        fact_subject?;

        // Mirror the local validator: any shape it rejects must fall back so
        // the replica reproduces the exact error.
        let aggregating = query.is_aggregate();
        let items = effective_items(query);
        if aggregating {
            let pattern_vars = query.pattern_variables();
            for g in &query.group_by {
                if !pattern_vars.iter().any(|v| v == g) {
                    return None;
                }
            }
            for item in &items {
                match item {
                    SelectItem::Var(v) => {
                        if !query.group_by.iter().any(|g| g == v) {
                            return None;
                        }
                    }
                    SelectItem::Agg { func, .. } => {
                        MergeFunc::of(*func)?;
                    }
                }
            }
        } else if query.having.is_some() {
            return None;
        }
        for key in &query.order_by {
            if !items.iter().any(|i| i.name() == key.column) {
                return None;
            }
        }
        // An unordered LIMIT/OFFSET picks an arbitrary subset locally; no
        // deterministic merge reproduces that choice.
        if (query.limit.is_some() || query.offset.is_some()) && query.order_by.is_empty() {
            return None;
        }

        if aggregating {
            self.decompose_aggregate(query, items)
        } else {
            let shard_query = Query {
                form: QueryForm::Select,
                select: query.select.clone(),
                distinct: query.distinct,
                wher: query.wher.clone(),
                group_by: Vec::new(),
                having: None,
                order_by: Vec::new(),
                limit: None,
                offset: None,
            };
            Some(ScatterPlan {
                shard_query,
                merge: MergeSpec::Rows {
                    distinct: query.distinct,
                },
            })
        }
    }

    fn decompose_aggregate(&self, query: &Query, items: Vec<SelectItem>) -> Option<ScatterPlan> {
        // Distinct original aggregates from the projection and HAVING.
        let mut aggs: Vec<(AggFunc, Expr)> = Vec::new();
        let mut push_agg =
            |func: AggFunc, expr: &Expr| position_or_push(&mut aggs, (func, expr.clone()));
        let mut outputs = Vec::with_capacity(items.len());
        for item in &items {
            match item {
                SelectItem::Var(v) => {
                    let key = query.group_by.iter().position(|g| g == v)?;
                    outputs.push(OutputCol::Key(key));
                }
                SelectItem::Agg { func, expr, .. } => {
                    outputs.push(OutputCol::Agg(push_agg(*func, expr)));
                }
            }
        }
        if let Some(having) = &query.having {
            let mut nodes = Vec::new();
            collect_aggregates(having, &mut nodes);
            for (func, expr) in nodes {
                push_agg(func, &expr);
            }
        }

        // Rewrite to shard-local partials: AVG becomes SUM + COUNT_NUMERIC,
        // everything else merges as itself; an aggregate without a merge
        // (COUNT(DISTINCT) — not partial-mergeable) refuses the scatter.
        let mut partials: Vec<(AggFunc, Expr)> = Vec::new();
        let recipes: Vec<AggRecipe> = aggs
            .iter()
            .map(|(func, expr)| {
                let merge = MergeFunc::of(*func)?;
                Some(match merge {
                    MergeFunc::Avg => AggRecipe {
                        merge,
                        partial_a: position_or_push(&mut partials, (AggFunc::Sum, expr.clone())),
                        partial_b: position_or_push(
                            &mut partials,
                            (AggFunc::CountNumeric, expr.clone()),
                        ),
                    },
                    _ => {
                        let a = position_or_push(&mut partials, (*func, expr.clone()));
                        AggRecipe {
                            merge,
                            partial_a: a,
                            partial_b: a,
                        }
                    }
                })
            })
            .collect::<Option<_>>()?;

        let shard_select: Vec<SelectItem> = query
            .group_by
            .iter()
            .map(|g| SelectItem::Var(g.clone()))
            .chain(partials.iter().enumerate().map(|(i, (func, expr))| {
                SelectItem::Agg {
                    func: *func,
                    expr: expr.clone(),
                    // `\u{1}` prefix: can never collide with user columns.
                    alias: format!("\u{1}pm{i}"),
                }
            }))
            .collect();
        let shard_query = Query {
            form: QueryForm::Select,
            select: shard_select,
            distinct: false,
            wher: query.wher.clone(),
            group_by: query.group_by.clone(),
            having: None,
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        Some(ScatterPlan {
            shard_query,
            merge: MergeSpec::Groups(GroupMerge {
                key_len: query.group_by.len(),
                group_by: query.group_by.clone(),
                aggs,
                recipes,
                outputs,
                names: items.iter().map(|i| i.name().to_owned()).collect(),
                having: query.having.clone(),
                distinct: query.distinct,
            }),
        })
    }

    // ---- scatter / gather -------------------------------------------------

    fn scatter(&self, shard_query: &Query) -> Result<Vec<Solutions>, SparqlError> {
        let results: Vec<Result<Solutions, SparqlError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|shard| scope.spawn(move || shard.select(shard_query)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(result) => result,
                    // contain a shard panic as a failed scatter instead of
                    // re-panicking at scope exit and killing the caller
                    Err(_) => Err(SparqlError::Endpoint("shard thread panicked".into())),
                })
                .collect()
        });
        results.into_iter().collect()
    }

    fn scatter_and_merge(
        &self,
        query: &Query,
        plan: &ScatterPlan,
    ) -> Result<Solutions, SparqlError> {
        let shard_results = self.scatter(&plan.shard_query)?;
        self.publish_shard_metrics(&shard_results);
        let graph = self.replica.graph();
        let mut merged = match &plan.merge {
            MergeSpec::Rows { distinct } => merge_rows(shard_results, *distinct),
            MergeSpec::Groups(spec) => merge_groups(shard_results, spec, graph),
        };
        canonical_order(&mut merged, &query.order_by, graph);
        let offset = query.offset.unwrap_or(0);
        if offset > 0 {
            merged.rows.drain(..offset.min(merged.rows.len()));
        }
        if let Some(limit) = query.limit {
            merged.rows.truncate(limit);
        }
        Ok(merged)
    }

    fn publish_shard_metrics(&self, shard_results: &[Solutions]) {
        let Some(metrics) = &self.metrics else {
            return;
        };
        for (i, (shard, result)) in self.shards.iter().zip(shard_results).enumerate() {
            let shard_label = i.to_string();
            let labels = [("shard", shard_label.as_str())];
            metrics.gauge_set(
                &label("shard_busy", &labels),
                shard.stats().busy.as_secs_f64(),
            );
            metrics.counter_add(&label("shard_queries", &labels), 1);
            metrics.counter_add(&label("shard_rows", &labels), result.len() as u64);
        }
    }

    fn record(&self, elapsed: Duration, rows: Option<u64>, kind: QueryKind) {
        let mut stats = lock_or_recover("sparql.sharded.stats", &self.stats);
        match kind {
            QueryKind::Select => stats.selects += 1,
            QueryKind::Ask => stats.asks += 1,
            QueryKind::Keyword => stats.keyword_searches += 1,
        }
        if let Some(rows) = rows {
            stats.rows_returned += rows;
        }
        stats.busy += elapsed;
        stats.latency.record(elapsed);
    }
}

enum QueryKind {
    Select,
    Ask,
    Keyword,
}

impl SparqlEndpoint for ShardedEndpoint {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        let start = Instant::now();
        let result = match self.decompose(query) {
            Some(plan) => {
                self.scatters.fetch_add(1, AtomicOrdering::Relaxed);
                if let Some(metrics) = &self.metrics {
                    metrics.counter_add("sharded_scatter_queries", 1);
                }
                self.scatter_and_merge(query, &plan)
            }
            None => {
                self.fallbacks.fetch_add(1, AtomicOrdering::Relaxed);
                if let Some(metrics) = &self.metrics {
                    metrics.counter_add("sharded_fallback_queries", 1);
                }
                self.replica.select(query)
            }
        };
        let rows = result.as_ref().ok().map(|s| s.len() as u64);
        self.record(start.elapsed(), rows, QueryKind::Select);
        result
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        let start = Instant::now();
        let result = self.replica.ask(query);
        self.record(start.elapsed(), None, QueryKind::Ask);
        result
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        let start = Instant::now();
        let hits = self.replica.keyword_search(keyword, exact);
        self.record(start.elapsed(), None, QueryKind::Keyword);
        hits
    }

    fn graph(&self) -> &Graph {
        self.replica.graph()
    }

    /// Gather-level statistics: one `select` per logical query with the
    /// scatter's wall time, *not* the sum over shards (use
    /// [`ShardedEndpoint::shard_stats`] / [`ShardedEndpoint::replica_stats`]
    /// for per-backend accounting — `EndpointStats::merge` folds them).
    fn stats(&self) -> EndpointStats {
        *lock_or_recover("sparql.sharded.stats", &self.stats)
    }

    fn reset_stats(&self) {
        *lock_or_recover("sparql.sharded.stats", &self.stats) = EndpointStats::default();
        for shard in &self.shards {
            shard.reset_stats();
        }
        self.replica.reset_stats();
    }
}

// ---- merge layer ----------------------------------------------------------

struct ScatterPlan {
    shard_query: Query,
    merge: MergeSpec,
}

enum MergeSpec {
    Rows { distinct: bool },
    Groups(GroupMerge),
}

/// Indexes into [`GroupMerge::aggs`] / key columns for one output column.
enum OutputCol {
    Key(usize),
    Agg(usize),
}

/// How a partial-mergeable aggregate recombines across shards. Chosen
/// when the scatter is planned ([`MergeFunc::of`]), so an aggregate
/// without a merge never reaches the gather: its query takes the replica.
#[derive(Clone, Copy)]
enum MergeFunc {
    /// Sum of the partial sums; unbound if every partial is.
    Sum,
    /// Sum of the partial counts (`COUNT` and `COUNT_NUMERIC` alike).
    Count,
    /// Least partial minimum.
    Min,
    /// Greatest partial maximum.
    Max,
    /// Sum of the partial sums over the sum of the partial numeric counts.
    Avg,
}

impl MergeFunc {
    /// The merge of `func`'s shard partials; `None` for `COUNT(DISTINCT)`,
    /// whose per-shard counts do not add up to the distinct count.
    fn of(func: AggFunc) -> Option<MergeFunc> {
        match func {
            AggFunc::Sum => Some(MergeFunc::Sum),
            AggFunc::Count | AggFunc::CountNumeric => Some(MergeFunc::Count),
            AggFunc::Min => Some(MergeFunc::Min),
            AggFunc::Max => Some(MergeFunc::Max),
            AggFunc::Avg => Some(MergeFunc::Avg),
            AggFunc::CountDistinct => None,
        }
    }
}

/// How one original aggregate recombines from shard partial columns.
struct AggRecipe {
    merge: MergeFunc,
    /// Index into the partial columns (after the key columns).
    partial_a: usize,
    /// Second partial (COUNT_NUMERIC) for AVG; equals `partial_a` otherwise.
    partial_b: usize,
}

struct GroupMerge {
    key_len: usize,
    group_by: Vec<String>,
    /// Distinct original aggregates, from projection and HAVING.
    aggs: Vec<(AggFunc, Expr)>,
    recipes: Vec<AggRecipe>,
    outputs: Vec<OutputCol>,
    names: Vec<String>,
    having: Option<Expr>,
    distinct: bool,
}

fn position_or_push<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
    match list.iter().position(|x| *x == item) {
        Some(i) => i,
        None => {
            list.push(item);
            list.len() - 1
        }
    }
}

/// Collects every `Expr::Agg` node (HAVING can nest them arbitrarily).
fn collect_aggregates(expr: &Expr, out: &mut Vec<(AggFunc, Expr)>) {
    match expr {
        Expr::Agg(func, inner) => out.push((*func, (**inner).clone())),
        Expr::Not(e) => collect_aggregates(e, out),
        Expr::And(a, b) | Expr::Or(a, b) => {
            collect_aggregates(a, out);
            collect_aggregates(b, out);
        }
        Expr::Cmp(a, _, b) | Expr::Arith(a, _, b) => {
            collect_aggregates(a, out);
            collect_aggregates(b, out);
        }
        Expr::In(e, list) => {
            collect_aggregates(e, out);
            for item in list {
                collect_aggregates(item, out);
            }
        }
        Expr::Call(_, args) => {
            for arg in args {
                collect_aggregates(arg, out);
            }
        }
        Expr::Var(_) | Expr::Iri(_) | Expr::Literal(_) | Expr::Number(_) | Expr::Bool(_) => {}
    }
}

/// The projection the local evaluator would use for this query.
fn effective_items(query: &Query) -> Vec<SelectItem> {
    if query.select.is_empty() && query.is_aggregate() {
        query
            .group_by
            .iter()
            .map(|v| SelectItem::Var(v.clone()))
            .collect()
    } else {
        query.select.clone()
    }
}

fn merge_rows(shard_results: Vec<Solutions>, distinct: bool) -> Solutions {
    let mut iter = shard_results.into_iter();
    let Some(mut merged) = iter.next() else {
        return Solutions::default();
    };
    for part in iter {
        merged.rows.extend(part.rows);
    }
    if distinct {
        let mut seen: re2x_rdf::hash::FxHashSet<Vec<DedupKey>> = Default::default();
        merged.rows.retain(|row| {
            let key: Vec<DedupKey> = row.iter().map(DedupKey::of).collect();
            seen.insert(key)
        });
    }
    merged
}

/// One merged group: the representative key cells plus every shard's
/// partial-aggregate row for that key.
type GroupAcc = (Vec<Option<Value>>, Vec<Vec<Option<Value>>>);

fn merge_groups(shard_results: Vec<Solutions>, spec: &GroupMerge, graph: &Graph) -> Solutions {
    // Gather the partial rows of each group key across shards.
    let mut groups: FxHashMap<Vec<DedupKey>, GroupAcc> = FxHashMap::default();
    let mut group_order: Vec<Vec<DedupKey>> = Vec::new();
    for part in shard_results {
        for row in part.rows {
            let key_cells = row[..spec.key_len].to_vec();
            let key: Vec<DedupKey> = key_cells.iter().map(DedupKey::of).collect();
            groups
                .entry(key.clone())
                .or_insert_with(|| {
                    group_order.push(key);
                    (key_cells, Vec::new())
                })
                .1
                .push(row[spec.key_len..].to_vec());
        }
    }
    // An aggregate without GROUP BY has exactly one (implicit) group; every
    // shard reported one partial row, merged above into one group.
    let mut out_rows: Vec<Vec<Option<Value>>> = Vec::new();
    for key in &group_order {
        let (key_cells, partial_rows) = &groups[key];
        let merged_aggs: Vec<Option<Value>> = spec
            .recipes
            .iter()
            .map(|recipe| merge_one_aggregate(recipe, partial_rows))
            .collect();
        if let Some(having) = &spec.having {
            let ctx = MergedGroupContext {
                graph,
                group_by: &spec.group_by,
                key: key_cells,
                aggs: &spec.aggs,
                values: &merged_aggs,
            };
            let keep = eval_expr(having, &ctx, &())
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            if !keep {
                continue;
            }
        }
        let row: Vec<Option<Value>> = spec
            .outputs
            .iter()
            .map(|col| match col {
                OutputCol::Key(i) => key_cells[*i].clone(),
                OutputCol::Agg(i) => merged_aggs[*i].clone(),
            })
            .collect();
        out_rows.push(row);
    }
    let mut merged = Solutions {
        vars: spec.names.clone(),
        rows: out_rows,
    };
    if spec.distinct {
        let mut seen: re2x_rdf::hash::FxHashSet<Vec<DedupKey>> = Default::default();
        merged.rows.retain(|row| {
            let key: Vec<DedupKey> = row.iter().map(DedupKey::of).collect();
            seen.insert(key)
        });
    }
    merged
}

fn merge_one_aggregate(recipe: &AggRecipe, partial_rows: &[Vec<Option<Value>>]) -> Option<Value> {
    let number = |row: &[Option<Value>], col: usize| -> Option<f64> {
        match row.get(col) {
            Some(Some(Value::Number(n))) => Some(*n),
            _ => None,
        }
    };
    match recipe.merge {
        MergeFunc::Sum => {
            let mut total = 0.0;
            let mut any = false;
            for row in partial_rows {
                if let Some(n) = number(row, recipe.partial_a) {
                    total += n;
                    any = true;
                }
            }
            any.then_some(Value::Number(total))
        }
        MergeFunc::Count => {
            let total: f64 = partial_rows
                .iter()
                .filter_map(|row| number(row, recipe.partial_a))
                .sum();
            Some(Value::Number(total))
        }
        MergeFunc::Min => partial_rows
            .iter()
            .filter_map(|row| number(row, recipe.partial_a))
            .reduce(f64::min)
            .map(Value::Number),
        MergeFunc::Max => partial_rows
            .iter()
            .filter_map(|row| number(row, recipe.partial_a))
            .reduce(f64::max)
            .map(Value::Number),
        MergeFunc::Avg => {
            let sum: f64 = partial_rows
                .iter()
                .filter_map(|row| number(row, recipe.partial_a))
                .sum();
            let count: f64 = partial_rows
                .iter()
                .filter_map(|row| number(row, recipe.partial_b))
                .sum();
            (count > 0.0).then_some(Value::Number(sum / count))
        }
    }
}

/// HAVING evaluation context over one *merged* group: group variables
/// resolve from the merged key cells, aggregate calls from the merged
/// aggregate values (matched structurally, exactly as they were collected).
struct MergedGroupContext<'a> {
    graph: &'a Graph,
    group_by: &'a [String],
    key: &'a [Option<Value>],
    aggs: &'a [(AggFunc, Expr)],
    values: &'a [Option<Value>],
}

impl EvalContext for MergedGroupContext<'_> {
    type Row = ();

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn lookup(&self, name: &str, _row: &()) -> Option<Value> {
        let pos = self.group_by.iter().position(|g| g == name)?;
        self.key.get(pos).cloned().flatten()
    }

    fn aggregate(&self, func: AggFunc, expr: &Expr, _row: &()) -> Option<Value> {
        let pos = self
            .aggs
            .iter()
            .position(|(f, e)| *f == func && e == expr)?;
        self.values.get(pos).cloned().flatten()
    }
}

// ---- canonical ordering ---------------------------------------------------

/// Sorts solutions into the canonical deterministic order the sharded merge
/// emits: the query's ORDER BY keys first (the exact local comparator —
/// unbound before bound, `DESC` reversed), then a structural whole-row
/// tiebreak that is total over every [`Value`] (including NaN, by bit
/// pattern). Exposed so differential tests and benchmarks can canonicalize
/// a [`LocalEndpoint`] result for comparison.
pub fn canonical_order(solutions: &mut Solutions, order_by: &[OrderKey], graph: &Graph) {
    let key_cols: Vec<(usize, Order)> = order_by
        .iter()
        .filter_map(|k| {
            solutions
                .vars
                .iter()
                .position(|v| *v == k.column)
                .map(|i| (i, k.order))
        })
        .collect();
    solutions.rows.sort_by(|a, b| {
        for &(col, order) in &key_cols {
            let ord = match (&a[col], &b[col]) {
                (Some(x), Some(y)) => x.compare(y, graph),
                (None, Some(_)) => Ordering::Less,
                (Some(_), None) => Ordering::Greater,
                (None, None) => Ordering::Equal,
            };
            let ord = if order == Order::Desc {
                ord.reverse()
            } else {
                ord
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        structural_row_cmp(a, b)
    });
}

fn structural_row_cmp(a: &[Option<Value>], b: &[Option<Value>]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let ord = structural_cell_cmp(x, y);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

fn structural_cell_cmp(a: &Option<Value>, b: &Option<Value>) -> Ordering {
    fn rank(cell: &Option<Value>) -> u8 {
        match cell {
            None => 0,
            Some(Value::Term(_)) => 1,
            Some(Value::Number(_)) => 2,
            Some(Value::Bool(_)) => 3,
            Some(Value::Str(_)) => 4,
        }
    }
    match (a, b) {
        (Some(Value::Term(x)), Some(Value::Term(y))) => x.cmp(y),
        (Some(Value::Number(x)), Some(Value::Number(y))) => {
            total_compare_numeric(*x, *y).then_with(|| x.to_bits().cmp(&y.to_bits()))
        }
        (Some(Value::Bool(x)), Some(Value::Bool(y))) => x.cmp(y),
        (Some(Value::Str(x)), Some(Value::Str(y))) => x.cmp(y),
        _ => rank(a).cmp(&rank(b)),
    }
}

/// The canonical reference a scattered query is differentially tested
/// against: local evaluation with LIMIT/OFFSET stripped, sorted by
/// [`canonical_order`], then OFFSET/LIMIT re-applied. For queries without
/// ties under ORDER BY (or without LIMIT at all) this is local evaluation
/// up to SPARQL's unspecified tie order; with ties it pins the same
/// deterministic total order the merge layer uses.
pub fn reference_solutions(
    endpoint: &dyn SparqlEndpoint,
    query: &Query,
) -> Result<Solutions, SparqlError> {
    let mut unlimited = query.clone();
    unlimited.limit = None;
    unlimited.offset = None;
    let mut solutions = endpoint.select(&unlimited)?;
    canonical_order(&mut solutions, &query.order_by, endpoint.graph());
    let offset = query.offset.unwrap_or(0);
    if offset > 0 {
        solutions.rows.drain(..offset.min(solutions.rows.len()));
    }
    if let Some(limit) = query.limit {
        solutions.rows.truncate(limit);
    }
    Ok(solutions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use re2x_rdf::io::parse_turtle;

    /// Asylum micro-cube with qb:Observation-typed facts, one replicated
    /// hierarchy hop (origin → continent) and an integer measure.
    fn fixture() -> Graph {
        let mut g = Graph::new();
        parse_turtle(
            r#"
            @prefix ex: <http://ex/> .
            @prefix qb: <http://purl.org/linked-data/cube#> .
            ex:Syria ex:inContinent ex:Asia ; ex:label "Syria" .
            ex:China ex:inContinent ex:Asia ; ex:label "China" .
            ex:Ukraine ex:inContinent ex:Europe ; ex:label "Ukraine" .
            ex:Asia ex:label "Asia" .
            ex:Europe ex:label "Europe" .
            ex:Germany ex:label "Germany" .
            ex:France ex:label "France" .

            ex:o1 a qb:Observation ; ex:dest ex:Germany ; ex:origin ex:Syria ;
                  ex:year 2013 ; ex:applicants 300 .
            ex:o2 a qb:Observation ; ex:dest ex:Germany ; ex:origin ex:Syria ;
                  ex:year 2014 ; ex:applicants 600 .
            ex:o3 a qb:Observation ; ex:dest ex:Germany ; ex:origin ex:China ;
                  ex:year 2014 ; ex:applicants 100 .
            ex:o4 a qb:Observation ; ex:dest ex:France ; ex:origin ex:Syria ;
                  ex:year 2014 ; ex:applicants 300 .
            ex:o5 a qb:Observation ; ex:dest ex:France ; ex:origin ex:Ukraine ;
                  ex:year 2014 ; ex:applicants 50 .
            "#,
            &mut g,
        )
        .expect("parse fixture");
        g
    }

    fn sharded(n: usize) -> ShardedEndpoint {
        ShardedEndpoint::new(fixture(), n)
    }

    fn q(text: &str) -> Query {
        parse_query(text).expect("parse")
    }

    fn assert_differential(text: &str, expect: Route) {
        let local = LocalEndpoint::new(fixture());
        for n in [1, 2, 3, 4, 8] {
            let endpoint = sharded(n);
            let query = q(text);
            assert_eq!(endpoint.route(&query), expect, "route of {text} at n={n}");
            match expect {
                Route::Scatter => {
                    let got = endpoint.select(&query).expect("sharded select");
                    let want = reference_solutions(&local, &query).expect("local select");
                    assert_eq!(got, want, "{text} at n={n}");
                }
                Route::Replica => {
                    assert_eq!(
                        endpoint.select(&query),
                        local.select(&query),
                        "{text} at n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_by_sum_scatters_and_matches_local() {
        assert_differential(
            "SELECT ?d (SUM(?n) AS ?total) WHERE {
                ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n
             } GROUP BY ?d ORDER BY DESC(?total)",
            Route::Scatter,
        );
    }

    #[test]
    fn avg_recombines_from_sum_and_count() {
        assert_differential(
            "SELECT ?d (AVG(?n) AS ?a) (COUNT(?o) AS ?c) WHERE {
                ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n
             } GROUP BY ?d ORDER BY ?d",
            Route::Scatter,
        );
    }

    #[test]
    fn implicit_group_merges_to_one_row() {
        assert_differential(
            "SELECT (SUM(?n) AS ?total) (MIN(?n) AS ?lo) (MAX(?n) AS ?hi) (AVG(?n) AS ?mean)
             WHERE { ?o <http://ex/applicants> ?n }",
            Route::Scatter,
        );
    }

    #[test]
    fn rollup_path_through_replicated_hierarchy() {
        assert_differential(
            "SELECT ?cont (SUM(?n) AS ?total) WHERE {
                ?o <http://ex/origin> / <http://ex/inContinent> ?cont .
                ?o <http://ex/applicants> ?n
             } GROUP BY ?cont ORDER BY ?cont",
            Route::Scatter,
        );
    }

    #[test]
    fn having_filters_merged_groups() {
        assert_differential(
            "SELECT ?d (SUM(?n) AS ?total) WHERE {
                ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n
             } GROUP BY ?d HAVING (SUM(?n) > 500) ORDER BY ?d",
            Route::Scatter,
        );
        // HAVING over an aggregate that is not projected.
        assert_differential(
            "SELECT ?d WHERE {
                ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n
             } GROUP BY ?d HAVING (AVG(?n) >= 175) ORDER BY ?d",
            Route::Scatter,
        );
    }

    #[test]
    fn distinct_and_order_limit_merge() {
        assert_differential(
            "SELECT DISTINCT ?d WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/year> 2014 }
             ORDER BY ?d",
            Route::Scatter,
        );
        assert_differential(
            "SELECT ?o ?n WHERE { ?o <http://ex/applicants> ?n } ORDER BY DESC(?n) ?o LIMIT 3",
            Route::Scatter,
        );
    }

    #[test]
    fn class_probe_counts_observations_once() {
        assert_differential(
            "SELECT (COUNT(?o) AS ?c) WHERE {
                ?o <http://www.w3.org/1999/02/22-rdf-syntax-ns#type>
                   <http://purl.org/linked-data/cube#Observation>
             }",
            Route::Scatter,
        );
    }

    #[test]
    fn unmergeable_shapes_fall_back_to_replica() {
        // Replicated-only pattern: every shard would return the full result.
        assert_differential(
            "SELECT ?m ?l WHERE { ?m <http://ex/label> ?l } ORDER BY ?l",
            Route::Replica,
        );
        // Predicate variable (schema discovery).
        assert_differential(
            "SELECT DISTINCT ?p WHERE { <http://ex/o1> ?p ?x }",
            Route::Replica,
        );
        // COUNT(DISTINCT …) is not partial-mergeable.
        assert_differential(
            "SELECT (COUNT(DISTINCT ?d) AS ?c) WHERE { ?o <http://ex/dest> ?d }",
            Route::Replica,
        );
        // Unordered LIMIT has no deterministic merge.
        assert_differential(
            "SELECT ?o WHERE { ?o <http://ex/dest> <http://ex/Germany> } LIMIT 2",
            Route::Replica,
        );
    }

    #[test]
    fn invalid_queries_reproduce_local_errors() {
        for text in [
            // Projected but neither grouped nor aggregated.
            "SELECT ?o ?d (SUM(?n) AS ?t) WHERE {
                ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n } GROUP BY ?d",
            // GROUP BY variable not in WHERE.
            "SELECT (SUM(?n) AS ?t) WHERE { ?o <http://ex/applicants> ?n } GROUP BY ?zzz",
            // ORDER BY column not projected.
            "SELECT ?d WHERE { ?o <http://ex/dest> ?d } ORDER BY ?nope",
        ] {
            assert_differential(text, Route::Replica);
        }
    }

    #[test]
    fn ask_and_keyword_use_replica() {
        let endpoint = sharded(4);
        assert!(endpoint
            .ask(&q("ASK { ?o <http://ex/dest> <http://ex/Germany> }"))
            .unwrap());
        assert_eq!(endpoint.keyword_search("germany", true).len(), 1);
        let stats = endpoint.stats();
        assert_eq!((stats.asks, stats.keyword_searches), (1, 1));
    }

    #[test]
    fn gather_stats_count_logical_queries_not_shard_fanout() {
        let endpoint = sharded(4);
        let query = q("SELECT ?d (SUM(?n) AS ?t) WHERE {
                ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n } GROUP BY ?d");
        let rows = endpoint.select(&query).unwrap().len() as u64;
        let stats = endpoint.stats();
        assert_eq!((stats.selects, stats.rows_returned), (1, rows));
        assert_eq!(endpoint.scatter_count(), 1);
        assert_eq!(endpoint.fallback_count(), 0);
        // Every shard saw exactly one scattered sub-query.
        let shard_selects: u64 = (0..endpoint.num_shards())
            .map(|i| endpoint.shard_stats(i).selects)
            .sum();
        assert_eq!(shard_selects, 4);
        assert_eq!(endpoint.replica_stats().selects, 0);

        endpoint.reset_stats();
        assert_eq!(endpoint.stats(), EndpointStats::default());
        assert_eq!(endpoint.shard_stats(0), EndpointStats::default());
    }

    #[test]
    fn per_shard_metrics_appear_in_prometheus_exposition() {
        let metrics = Arc::new(Metrics::new());
        let endpoint = sharded(2).with_metrics(Arc::clone(&metrics));
        endpoint
            .select(&q(
                "SELECT ?d (SUM(?n) AS ?t) WHERE {
                    ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n } GROUP BY ?d",
            ))
            .unwrap();
        let exposition = re2x_obs::prometheus_exposition(&metrics.snapshot(), &[]);
        for needle in [
            "shard_busy{shard=\"0\"}",
            "shard_busy{shard=\"1\"}",
            "shard_queries{shard=\"0\"}",
            "shard_rows{shard=\"1\"}",
            "shard_skew",
            "sharded_scatter_queries 1",
        ] {
            assert!(
                exposition.contains(needle),
                "missing {needle} in exposition:\n{exposition}"
            );
        }
    }

    #[test]
    fn composes_under_caching_and_tracing() {
        let cached = crate::CachingEndpoint::new(sharded(3));
        let query = q("SELECT ?d (AVG(?n) AS ?a) WHERE {
                ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?n } GROUP BY ?d ORDER BY ?d");
        let first = cached.select(&query).unwrap();
        let second = cached.select(&query).unwrap();
        assert_eq!(first, second);
        assert_eq!(cached.stats().cache_hits, 1);
    }

    #[test]
    fn injected_latencies_rebuild_all_backends() {
        let endpoint = sharded(2)
            .with_latency(Duration::from_millis(1))
            .with_row_latency(Duration::from_micros(10));
        let query = q("SELECT ?o ?n WHERE { ?o <http://ex/applicants> ?n } ORDER BY ?o");
        let got = endpoint.select(&query).unwrap();
        let want = reference_solutions(&LocalEndpoint::new(fixture()), &query).unwrap();
        assert_eq!(got, want);
        assert!(endpoint.stats().busy >= Duration::from_millis(1));
    }
}
