//! Query evaluation: BGP matching with greedy join ordering, filters,
//! grouping, aggregation, and solution modifiers.
//!
//! The evaluator extends partial bindings pattern by pattern. Patterns are
//! ordered greedily by estimated selectivity (constant-bound index counts),
//! the classic heuristic that makes star-shaped OLAP patterns over
//! observations run in time proportional to the matching observations
//! rather than the full store.

mod columnar;

use crate::ast::*;
use crate::error::SparqlError;
use crate::expr::{eval_expr, EvalContext};
use crate::value::{Solutions, Value};
use re2x_rdf::hash::FxHashMap;
use re2x_rdf::{Graph, Term, TermId};

/// Join-order planning strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanMode {
    /// Greedy selectivity-based ordering from index statistics (the
    /// default).
    #[default]
    Planned,
    /// Evaluate patterns in textual order (the ablation baseline).
    InOrder,
}

/// Physical execution strategy for flat basic graph patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Sorted-ID merge joins over columnar batches of interned term ids
    /// (the default). Falls back to [`ExecMode::Row`] automatically for
    /// shapes the columnar kernel does not cover (FILTER-interleaved
    /// blocks, OPTIONAL/UNION children).
    #[default]
    Columnar,
    /// Binding-at-a-time row extension (the reference executor).
    Row,
}

/// Evaluates a query against a graph.
pub fn evaluate(graph: &Graph, query: &Query) -> Result<Solutions, SparqlError> {
    evaluate_full(graph, query, PlanMode::Planned, ExecMode::Columnar)
}

/// Evaluates a query with an explicit planning strategy.
pub fn evaluate_with(
    graph: &Graph,
    query: &Query,
    mode: PlanMode,
) -> Result<Solutions, SparqlError> {
    evaluate_full(graph, query, mode, ExecMode::Columnar)
}

/// Evaluates a query with explicit planning and execution strategies.
pub fn evaluate_full(
    graph: &Graph,
    query: &Query,
    mode: PlanMode,
    exec: ExecMode,
) -> Result<Solutions, SparqlError> {
    if let Some(solutions) = try_index_only_distinct(graph, query) {
        return Ok(solutions);
    }
    let compiled = Compiled::with_modes(graph, query, mode, exec)?;
    if query.form == QueryForm::Select {
        // Index-statistic fast paths, applied identically in every
        // PlanMode × ExecMode combination so the cross-mode byte-identity
        // guarantee holds:
        //
        // * single-pattern `COUNT` answered from `Graph::count_matching`
        //   without materializing a single row;
        // * single-variable DISTINCT / COUNT(DISTINCT) shapes answered by
        //   candidate enumeration + existence probes instead of a full join.
        if let Some(solutions) = compiled.try_pattern_count(graph) {
            return Ok(solutions);
        }
        if let Some(rows) = compiled.try_distinct_probe(graph) {
            return compiled.project(graph, rows);
        }
    }
    let first = match query.form {
        QueryForm::Ask => Some(1),
        QueryForm::Select => compiled.pushed_down_limit(),
    };
    let rows = compiled.run_bgp(graph, first)?;
    match query.form {
        QueryForm::Ask => Ok(Solutions {
            vars: vec!["ask".to_owned()],
            rows: vec![vec![Some(Value::Bool(!rows.is_empty()))]],
        }),
        QueryForm::Select => compiled.project(graph, rows),
    }
}

/// Evaluates an `ASK` query (or any query, testing for non-emptiness).
pub fn evaluate_ask(graph: &Graph, query: &Query) -> Result<bool, SparqlError> {
    let compiled = Compiled::new(graph, query)?;
    let rows = compiled.run_bgp(graph, Some(1))?;
    Ok(!rows.is_empty())
}

/// Renders the evaluation plan of a query without executing it: the chosen
/// join order with per-pattern index-cardinality estimates and the step at
/// which each filter applies.
pub fn explain(graph: &Graph, query: &Query) -> Result<String, SparqlError> {
    use std::fmt::Write as _;
    let compiled = Compiled::new(graph, query)?;
    let prebound = vec![false; compiled.var_names.len()];
    let order = compiled.plan_block(graph, &compiled.root, &prebound);
    let filter_step = compiled.filter_schedule(&compiled.root, &order, &prebound);
    let mut bound = prebound;
    let mut out = String::new();
    let slot_name = |slot: Slot, bound: &[bool]| match slot {
        Slot::Const(id) => graph.term(id).to_string(),
        Slot::Absent => "<absent-constant>".to_owned(),
        Slot::Var(v) => {
            let name = &compiled.var_names[v];
            let display = match name.strip_prefix('\u{1}') {
                Some(internal) => format!("?_{internal}"),
                None => format!("?{name}"),
            };
            if bound[v] {
                format!("{display}*")
            } else {
                display
            }
        }
    };
    for (step, &pi) in order.iter().enumerate() {
        let p = compiled.root.patterns[pi];
        let estimate = compiled.pattern_cost(graph, p, &bound);
        let _ = writeln!(
            out,
            "{step:>2}. {} {} {}   (cost estimate {estimate})",
            slot_name(p.s, &bound),
            slot_name(p.p, &bound),
            slot_name(p.o, &bound),
        );
        for slot in [p.s, p.p, p.o] {
            if let Slot::Var(v) = slot {
                bound[v] = true;
            }
        }
        for (fi, filter) in compiled.root.filters.iter().enumerate() {
            if filter_step[fi] == step {
                let _ = writeln!(out, "    filter {}", crate::pretty::expr(&filter.expr));
            }
        }
    }
    for (fi, filter) in compiled.root.filters.iter().enumerate() {
        if filter_step[fi] == usize::MAX {
            let _ = writeln!(out, "then: filter {}", crate::pretty::expr(&filter.expr));
        }
    }
    for child in &compiled.root.children {
        match child {
            Child::Optional(inner) => {
                let _ = writeln!(
                    out,
                    "then: left-join OPTIONAL block ({} pattern(s))",
                    inner.patterns.len()
                );
            }
            Child::Union(branches) => {
                let _ = writeln!(out, "then: UNION of {} branch(es)", branches.len());
            }
        }
    }
    if query.is_aggregate() {
        let _ = writeln!(out, "then: group by {:?} + aggregate", query.group_by);
    }
    if query.having.is_some() {
        let _ = writeln!(out, "then: HAVING");
    }
    if !query.order_by.is_empty() {
        let _ = writeln!(out, "then: sort");
    }
    Ok(out)
}

/// Index-only answering of `SELECT DISTINCT ?x WHERE { <one pattern> }`
/// shapes whose answer is a key set of one of the store's indexes — the
/// schema-discovery probes RE²xOLAP issues per interaction ("which
/// predicates arrive at this member?") stay O(distinct answers) instead of
/// O(triples), exactly as predicate-indexed stores answer them.
fn try_index_only_distinct(graph: &Graph, query: &Query) -> Option<Solutions> {
    if query.form != QueryForm::Select
        || !query.distinct
        || query.select.len() != 1
        || !query.group_by.is_empty()
        || query.having.is_some()
        || !query.order_by.is_empty()
        || query.limit.is_some()
        || query.offset.is_some()
        || query.wher.len() != 1
    {
        return None;
    }
    let SelectItem::Var(projected) = &query.select[0] else {
        return None;
    };
    let PatternElement::Triple(t) = &query.wher[0] else {
        return None;
    };
    let ids = match (&t.subject, &t.predicate, &t.object) {
        // DISTINCT ?p WHERE { ?x ?p <o> }  → OSP key union (predicates into o)
        (TermPattern::Var(s), Predicate::Var(p), TermPattern::Iri(o))
            if p == projected && s != p =>
        {
            graph.predicates_into(graph.iri_id(o)?)
        }
        // DISTINCT ?p WHERE { <s> ?p ?x } → SPO keys (predicates from s)
        (TermPattern::Iri(s), Predicate::Var(p), TermPattern::Var(o))
            if p == projected && o != p =>
        {
            graph.predicates_from(graph.iri_id(s)?)
        }
        // DISTINCT ?o WHERE { ?x <p> ?o } → POS keys (objects of p)
        (TermPattern::Var(s), Predicate::Path(path), TermPattern::Var(o))
            if o == projected && s != o && path.len() == 1 =>
        {
            let mut objects = graph.objects_of_predicate(graph.iri_id(&path[0])?);
            objects.sort_unstable();
            objects
        }
        _ => return None,
    };
    Some(Solutions {
        vars: vec![projected.clone()],
        rows: ids
            .into_iter()
            .map(|id| vec![Some(Value::Term(id))])
            .collect(),
    })
}

/// A term slot of a flattened triple pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// A constant already interned in the graph.
    Const(TermId),
    /// A constant that is *not* in the graph: the pattern cannot match.
    Absent,
    /// A variable, by registry index.
    Var(usize),
}

/// A triple pattern flattened to slots (paths desugared to chains).
#[derive(Debug, Clone, Copy)]
struct FlatPattern {
    s: Slot,
    p: Slot,
    o: Slot,
}

impl FlatPattern {
    /// The index lookup key of the pattern under `row`'s bindings (`None`
    /// positions are wildcards), or `None` when a constant is absent from
    /// the graph and nothing can match.
    fn resolve(&self, row: &[Option<TermId>]) -> Option<[Option<TermId>; 3]> {
        let resolve = |slot: Slot| match slot {
            Slot::Const(id) => Some(Some(id)),
            Slot::Absent => None,
            Slot::Var(v) => Some(row[v]),
        };
        Some([resolve(self.s)?, resolve(self.p)?, resolve(self.o)?])
    }

    /// Binds the pattern's still-unbound variables in `row` to the matched
    /// triple, returning the variables it bound — or `None`, with `row`
    /// restored, when a variable repeated inside the pattern would take
    /// two different values.
    fn bind(&self, row: &mut [Option<TermId>], t: re2x_rdf::Triple) -> Option<Bound> {
        let mut bound = Bound::default();
        for (slot, value) in [(self.s, t.s), (self.p, t.p), (self.o, t.o)] {
            if let Slot::Var(v) = slot {
                match row[v] {
                    Some(existing) if existing != value => {
                        bound.unbind(row);
                        return None;
                    }
                    Some(_) => {}
                    None => {
                        row[v] = Some(value);
                        bound.vars[bound.len] = v;
                        bound.len += 1;
                    }
                }
            }
        }
        Some(bound)
    }
}

/// The (at most three) variables one [`FlatPattern::bind`] call bound.
#[derive(Default)]
struct Bound {
    vars: [usize; 3],
    len: usize,
}

impl Bound {
    fn unbind(&self, row: &mut [Option<TermId>]) {
        for &v in &self.vars[..self.len] {
            row[v] = None;
        }
    }
}

/// Candidate-enumeration guard: probing must be estimated at least this
/// many times cheaper than the best single-pattern scan before it is
/// preferred over the ordinary join.
const PROBE_COST_FACTOR: u64 = 8;

/// Upper bound on recursive probe steps before the fast path abandons the
/// query back to the ordinary executor (a deterministic escape hatch for
/// adversarial shapes whose estimates mislead).
const PROBE_STEP_BUDGET: u64 = 1 << 20;

/// Residual scan size below which an existence probe stops recursing into
/// candidate domains and just runs the seeded depth-first search — at this
/// size the search is cheaper than any further estimation.
const PROBE_SEEDED_THRESHOLD: u64 = 64;

/// An enumerable candidate domain for one unbound variable, chosen by
/// [`Compiled::best_domain`] from O(1) index statistics and materialized
/// lazily by [`Compiled::materialize_domain`].
#[derive(Debug, Clone, Copy)]
enum DomainSource {
    /// Objects of `(s, p, ?v)` — a posting-list slice.
    ObjectsBetween(usize, TermId, TermId),
    /// All distinct objects of predicate `p` — `(?s, p, ?v)`.
    ObjectsOfPredicate(usize, TermId),
    /// Subjects of `(?v, p, o)` — a posting-list slice.
    SubjectsBetween(usize, TermId, TermId),
    /// Predicates linking `(s, ?v, o)`.
    PredicatesBetween(usize, TermId, TermId),
    /// Predicates leaving subject `s` — `(s, ?v, ?o)`.
    PredicatesFrom(usize, TermId),
    /// Predicates arriving at object `o` — `(?s, ?v, o)`.
    PredicatesInto(usize, TermId),
    /// Every predicate in the graph — `(?s, ?v, ?o)`.
    AllPredicates(usize),
}

/// A candidate domain being consumed: index-backed slices stream with no
/// setup cost, derived domains (key scans) arrive materialized.
enum DomainIter<'g> {
    Slice(std::slice::Iter<'g, TermId>),
    Owned(std::vec::IntoIter<TermId>),
}

impl DomainIter<'_> {
    /// Work already spent producing this domain: zero for index-backed
    /// slices, the materialized length for derived domains.
    fn setup_cost(&self) -> u64 {
        match self {
            DomainIter::Slice(_) => 0,
            DomainIter::Owned(it) => it.len() as u64,
        }
    }
}

impl Iterator for DomainIter<'_> {
    type Item = TermId;

    fn next(&mut self) -> Option<TermId> {
        match self {
            DomainIter::Slice(it) => it.next().copied(),
            DomainIter::Owned(it) => it.next(),
        }
    }
}

/// A filter with the registry indexes of its variables.
struct CompiledFilter {
    expr: Expr,
    vars: Vec<usize>,
}

/// A nested child of a group: an `OPTIONAL` block or a `UNION`
/// alternation.
enum Child {
    Optional(Block),
    Union(Vec<Block>),
}

/// One `{ … }` group, compiled: its own triple patterns and filters plus
/// nested children in textual order.
struct Block {
    patterns: Vec<FlatPattern>,
    filters: Vec<CompiledFilter>,
    children: Vec<Child>,
}

struct Compiled {
    /// var name → registry index; internal path variables carry a `\u{1}`
    /// prefix so they can never collide with user variables.
    var_names: Vec<String>,
    var_index: FxHashMap<String, usize>,
    root: Block,
    query: Query,
    mode: PlanMode,
    exec: ExecMode,
}

impl Compiled {
    fn new(graph: &Graph, query: &Query) -> Result<Self, SparqlError> {
        Compiled::with_modes(graph, query, PlanMode::Planned, ExecMode::Columnar)
    }

    fn with_modes(
        graph: &Graph,
        query: &Query,
        mode: PlanMode,
        exec: ExecMode,
    ) -> Result<Self, SparqlError> {
        let mut c = Compiled {
            var_names: Vec::new(),
            var_index: FxHashMap::default(),
            root: Block {
                patterns: Vec::new(),
                filters: Vec::new(),
                children: Vec::new(),
            },
            query: query.clone(),
            mode,
            exec,
        };
        let mut internal = 0usize;
        c.root = c.compile_elements(graph, &query.wher, &mut internal)?;
        Ok(c)
    }

    fn compile_elements(
        &mut self,
        graph: &Graph,
        elements: &[PatternElement],
        internal: &mut usize,
    ) -> Result<Block, SparqlError> {
        let mut block = Block {
            patterns: Vec::new(),
            filters: Vec::new(),
            children: Vec::new(),
        };
        for element in elements {
            match element {
                PatternElement::Triple(t) => {
                    let s = self.slot_of(graph, &t.subject);
                    let o = self.slot_of(graph, &t.object);
                    match &t.predicate {
                        Predicate::Var(v) => {
                            let p = Slot::Var(self.var(v));
                            block.patterns.push(FlatPattern { s, p, o });
                        }
                        Predicate::Path(path) => {
                            // Desugar `s p1/p2/p3 o` into a chain through
                            // fresh internal variables.
                            let mut current = s;
                            for (i, pred) in path.iter().enumerate() {
                                let p = match graph.iri_id(pred) {
                                    Some(id) => Slot::Const(id),
                                    None => Slot::Absent,
                                };
                                let next = if i + 1 == path.len() {
                                    o
                                } else {
                                    *internal += 1;
                                    Slot::Var(self.var(&format!("\u{1}path{internal}")))
                                };
                                block.patterns.push(FlatPattern {
                                    s: current,
                                    p,
                                    o: next,
                                });
                                current = next;
                            }
                        }
                    }
                }
                PatternElement::Filter(expr) => {
                    if expr.has_aggregate() {
                        return Err(SparqlError::invalid(
                            "aggregate calls are not allowed in WHERE filters (use HAVING)",
                        ));
                    }
                    let mut names = Vec::new();
                    expr.variables(&mut names);
                    let vars = names.iter().map(|n| self.var(n)).collect();
                    block.filters.push(CompiledFilter {
                        expr: expr.clone(),
                        vars,
                    });
                }
                PatternElement::Optional(inner) => {
                    let child = self.compile_elements(graph, inner, internal)?;
                    block.children.push(Child::Optional(child));
                }
                PatternElement::Union(branches) => {
                    let compiled: Result<Vec<Block>, SparqlError> = branches
                        .iter()
                        .map(|b| self.compile_elements(graph, b, internal))
                        .collect();
                    block.children.push(Child::Union(compiled?));
                }
            }
        }
        Ok(block)
    }

    fn var(&mut self, name: &str) -> usize {
        if let Some(&i) = self.var_index.get(name) {
            return i;
        }
        let i = self.var_names.len();
        self.var_names.push(name.to_owned());
        self.var_index.insert(name.to_owned(), i);
        i
    }

    fn slot_of(&mut self, graph: &Graph, tp: &TermPattern) -> Slot {
        match tp {
            TermPattern::Var(v) => Slot::Var(self.var(v)),
            TermPattern::Iri(iri) => graph.iri_id(iri).map_or(Slot::Absent, Slot::Const),
            TermPattern::Literal(l) => graph
                .term_id(&Term::Literal(l.clone()))
                .map_or(Slot::Absent, Slot::Const),
        }
    }

    /// Greedy join order for one block's patterns: repeatedly pick the
    /// cheapest pattern given the variables bound so far (`prebound` marks
    /// variables the surrounding group already binds). Equal-cost
    /// candidates tie-break on the lower pattern index, so structurally
    /// identical queries always produce the same plan (`remaining` is kept
    /// in ascending index order for exactly this reason). In
    /// [`PlanMode::InOrder`], keeps the textual order.
    fn plan_block(&self, graph: &Graph, block: &Block, prebound: &[bool]) -> Vec<usize> {
        if self.mode == PlanMode::InOrder {
            return (0..block.patterns.len()).collect();
        }
        let mut remaining: Vec<usize> = (0..block.patterns.len()).collect();
        let mut bound = prebound.to_vec();
        let mut order = Vec::with_capacity(remaining.len());
        let shares_bound_var = |p: FlatPattern, bound: &[bool]| {
            [p.s, p.p, p.o].iter().any(|slot| match slot {
                Slot::Var(v) => bound[*v],
                _ => false,
            })
        };
        while !remaining.is_empty() {
            // Prefer patterns connected to the variables bound so far —
            // joining a disconnected pattern would build a cartesian
            // product of intermediate results. Fall back to any pattern
            // when none is connected (genuinely disconnected components,
            // and the very first pattern).
            let anything_bound = bound.iter().any(|&b| b);
            let connected_only = anything_bound
                && remaining
                    .iter()
                    .any(|&i| shares_bound_var(block.patterns[i], &bound));
            let mut best: Option<(u64, usize)> = None;
            for &i in &remaining {
                if connected_only && !shares_bound_var(block.patterns[i], &bound) {
                    continue;
                }
                let cost = self.pattern_cost(graph, block.patterns[i], &bound);
                // `remaining` is ascending, so `<` keeps the first (lowest
                // index) among equal-cost candidates: a deterministic plan.
                if best.is_none_or(|b| (cost, i) < b) {
                    best = Some((cost, i));
                }
            }
            let Some((_, pick)) = best else {
                // unreachable (remaining is non-empty), but a truncated
                // plan only costs performance, never correctness
                break;
            };
            order.push(pick);
            remaining.retain(|&i| i != pick);
            for slot in [
                block.patterns[pick].s,
                block.patterns[pick].p,
                block.patterns[pick].o,
            ] {
                if let Slot::Var(v) = slot {
                    bound[v] = true;
                }
            }
        }
        order
    }

    /// Cost estimate for a pattern: index cardinality for the constant
    /// positions, discounted by how many positions a prior pattern already
    /// binds (a bound variable behaves like a constant at run time).
    fn pattern_cost(&self, graph: &Graph, p: FlatPattern, bound: &[bool]) -> u64 {
        let classify = |slot: Slot| match slot {
            Slot::Const(id) => (Some(id), true),
            Slot::Absent => (None, true),
            Slot::Var(v) => (None, bound[v]),
        };
        let (s, s_fixed) = classify(p.s);
        let (pp, p_fixed) = classify(p.p);
        let (o, o_fixed) = classify(p.o);
        if matches!(p.s, Slot::Absent) || matches!(p.p, Slot::Absent) || matches!(p.o, Slot::Absent)
        {
            return 0; // cannot match anything: evaluate first, terminate early
        }
        let base = graph.count_matching(s, pp, o) as u64;
        let fixed = u64::from(s_fixed) + u64::from(p_fixed) + u64::from(o_fixed);
        // Each run-time-bound position divides the expected fan-out; the
        // +1 keeps fully-scanned patterns strictly more expensive.
        (base + 1) >> (2 * fixed).min(20)
    }

    /// The number of binding rows after which evaluation may stop: a
    /// `LIMIT` (plus `OFFSET`) can be pushed below projection only when
    /// every binding row becomes exactly one output row in binding order —
    /// no aggregation, `DISTINCT` or `ORDER BY` between the two.
    fn pushed_down_limit(&self) -> Option<usize> {
        let query = &self.query;
        let limit = query.limit?;
        (!query.is_aggregate() && !query.distinct && query.order_by.is_empty())
            .then(|| query.offset.unwrap_or(0).saturating_add(limit))
    }

    /// Runs the WHERE block, returning binding rows over the variable
    /// registry. With `first = Some(n)`, returns only the first `n` rows
    /// (`ASK` is `n = 1`, a pushed-down `LIMIT` its `offset + limit`).
    fn run_bgp(
        &self,
        graph: &Graph,
        first: Option<usize>,
    ) -> Result<Vec<Vec<Option<TermId>>>, SparqlError> {
        let seed = vec![None; self.var_names.len()];
        // a single row is found by the search without building any batch
        let existence = first == Some(1);
        if self.exec == ExecMode::Columnar && !existence && columnar::eligible(self) {
            // flat filter-free block: sorted-ID merge joins over columnar
            // batches, byte-identical to the row paths below. Under a row
            // limit the kernel gives up once a batch outgrows it — the
            // whole answer fits the limit far more often than not, and
            // merge joins produce it at half the per-row cost of the
            // search that bounds the rest.
            let budget = first.unwrap_or(usize::MAX);
            if let Some(mut rows) = columnar::run(self, graph, budget) {
                rows.truncate(budget);
                return Ok(rows);
            }
        }
        if let (Some(want), true) = (first, self.root.children.is_empty()) {
            // First n rows of a flat group: depth-first with early
            // termination — the nth complete solution ends the search, so
            // existence probes and capped fetches never materialize the
            // full join.
            return Ok(self.first_rows(graph, &seed, want));
        }
        let mut rows = self.eval_block(graph, &self.root, vec![seed])?;
        if let Some(want) = first {
            rows.truncate(want);
        }
        Ok(rows)
    }

    // ---- distinct-domain probing ------------------------------------------

    /// Fast path for `SELECT (COUNT(…) AS ?n)` over exactly one triple
    /// pattern with no filters: the answer is [`Graph::count_matching`] —
    /// an O(1) index statistic — so e.g. the bootstrap's observation-count
    /// query never materializes its N rows. The output matches the general
    /// path exactly, including the implicit single group that yields one
    /// `COUNT = 0` row for an empty match.
    fn try_pattern_count(&self, graph: &Graph) -> Option<Solutions> {
        let query = &self.query;
        if !query.group_by.is_empty()
            || query.having.is_some()
            || !query.order_by.is_empty()
            || query.limit.is_some()
            || query.offset.is_some()
            || !self.root.children.is_empty()
            || !self.root.filters.is_empty()
            || self.root.patterns.len() != 1
            || query.select.len() != 1
        {
            return None;
        }
        let SelectItem::Agg {
            func: AggFunc::Count,
            expr,
            alias,
        } = &query.select[0]
        else {
            return None;
        };
        let pattern = &self.root.patterns[0];
        let slots = [pattern.s, pattern.p, pattern.o];
        // A variable repeated inside the pattern constrains matches beyond
        // what the index counts can see.
        for (i, a) in slots.iter().enumerate() {
            if matches!(a, Slot::Var(_)) && slots[i + 1..].contains(a) {
                return None;
            }
        }
        match expr {
            // COUNT(1): counts every row.
            Expr::Number(_) => {}
            // COUNT(?v): only when the pattern binds ?v in every row.
            Expr::Var(v) => {
                let tv = self.var_index.get(v.as_str()).copied()?;
                if !slots.iter().any(|s| matches!(s, Slot::Var(x) if *x == tv)) {
                    return None;
                }
            }
            _ => return None,
        }
        let resolve = |slot: Slot| match slot {
            Slot::Const(id) => Ok(Some(id)),
            Slot::Var(_) => Ok(None),
            Slot::Absent => Err(()),
        };
        let count = match (resolve(pattern.s), resolve(pattern.p), resolve(pattern.o)) {
            (Ok(s), Ok(p), Ok(o)) => graph.count_matching(s, p, o),
            _ => 0, // an absent constant matches nothing
        };
        Some(Solutions {
            vars: vec![alias.clone()],
            rows: vec![vec![Some(Value::Number(count as f64))]],
        })
    }

    /// Fast path for `SELECT DISTINCT ?v` / `SELECT (COUNT(DISTINCT ?v) …)`
    /// over a flat group: instead of materializing the full join and
    /// deduplicating, enumerate candidate values for a variable from an
    /// index key set (objects of a predicate, predicates leaving a subject,
    /// …) and decide each candidate with an early-exit existence search.
    ///
    /// This is what keeps RE²xOLAP's bootstrap *schema-bound*: its member
    /// counts and member-predicate discovery are exactly these shapes, and
    /// probing answers them in time proportional to the schema (members ×
    /// predicates), not the observation count — the paper's Virtuoso
    /// endpoint gets the same effect from predicate-indexed DISTINCT
    /// answering.
    ///
    /// Returns synthetic binding rows (one per distinct value, ascending by
    /// term id) that flow through the ordinary [`Compiled::project`], so
    /// output formatting, aggregation and DISTINCT semantics are shared
    /// with the general path, or `None` when the shape is not eligible or
    /// probing is not estimated to win.
    fn try_distinct_probe(&self, graph: &Graph) -> Option<Vec<Vec<Option<TermId>>>> {
        let query = &self.query;
        if !query.group_by.is_empty()
            || query.having.is_some()
            || !query.order_by.is_empty()
            || query.limit.is_some()
            || query.offset.is_some()
            || !self.root.children.is_empty()
            || self.root.patterns.is_empty()
            || query.select.len() != 1
        {
            return None;
        }
        let target = match &query.select[0] {
            SelectItem::Var(v) if query.distinct => v,
            SelectItem::Agg {
                func: AggFunc::CountDistinct,
                expr: Expr::Var(v),
                ..
            } => v,
            _ => return None,
        };
        let tv = *self.var_index.get(target.as_str())?;
        let appears = self.root.patterns.iter().any(|p| {
            [p.s, p.p, p.o]
                .iter()
                .any(|slot| matches!(slot, Slot::Var(v) if *v == tv))
        });
        if !appears {
            return None;
        }
        let row = vec![None; self.var_names.len()];
        // Only probe when the join is genuinely more expensive than
        // candidate enumeration; tiny graphs stay on the ordinary executor.
        let scan = self.scan_cost(graph, &row)?;
        let (_, estimate) = self.best_domain(graph, &self.root.patterns, &row)?;
        if estimate.saturating_mul(PROBE_COST_FACTOR) >= scan {
            return None;
        }
        let mut out: Vec<TermId> = Vec::new();
        let mut budget = PROBE_STEP_BUDGET;
        if !self.probe_distinct(graph, row, tv, &mut out, &mut budget) {
            return None;
        }
        out.sort_unstable();
        out.dedup();
        let width = self.var_names.len();
        Some(
            out.into_iter()
                .map(|id| {
                    let mut r = vec![None; width];
                    r[tv] = Some(id);
                    r
                })
                .collect(),
        )
    }

    /// Collects into `out` the distinct values `row[tv]` takes over every
    /// solution extending `row`. Returns `false` to abandon the fast path
    /// entirely (budget exhausted); the caller then falls back to the
    /// ordinary executor, so abandonment only costs time, never answers.
    fn probe_distinct(
        &self,
        graph: &Graph,
        row: Vec<Option<TermId>>,
        tv: usize,
        out: &mut Vec<TermId>,
        budget: &mut u64,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        // A decidable filter that already fails means nothing extends this
        // row — prune before any scan.
        if !self.bound_filters_pass(graph, &row) {
            return true;
        }
        if let Some(value) = row[tv] {
            // Target bound: one existence probe decides it.
            return match self.probe_exists(graph, row, budget) {
                Some(true) => {
                    out.push(value);
                    true
                }
                Some(false) => true,
                None => false,
            };
        }
        let Some(scan) = self.scan_cost(graph, &row) else {
            return true; // some pattern cannot match: no solutions here
        };
        let candidate = self.best_domain(graph, &self.root.patterns, &row);
        match candidate {
            Some((source, estimate)) if estimate.saturating_mul(PROBE_COST_FACTOR) < scan => {
                let (var, domain) = self.stream_domain(graph, source);
                for c in domain {
                    let mut next = row.clone();
                    next[var] = Some(c);
                    if !self.probe_distinct(graph, next, tv, out, budget) {
                        return false;
                    }
                }
                true
            }
            _ => {
                // No cheap domain left: run the residual join normally from
                // the seeded row and harvest the target column.
                let Ok(rows) = self.eval_block(graph, &self.root, vec![row]) else {
                    return false;
                };
                out.extend(
                    rows.into_iter()
                        .filter_map(|r| r.get(tv).copied().flatten()),
                );
                true
            }
        }
    }

    /// Three-valued existence probe: does some solution extend `row`?
    /// `None` means the step budget ran out and the whole fast path must
    /// be abandoned. Bound filters prune eagerly, and large residual scans
    /// recurse through the cheapest candidate domain — so filter variables
    /// (e.g. the `?x` of the bootstrap's `FILTER(isNumeric(?x))` predicate
    /// discovery) get bound from small index key sets and decided by the
    /// filter in O(1), instead of being enumerated by an O(N) scan that
    /// rejects every binding one by one.
    fn probe_exists(
        &self,
        graph: &Graph,
        row: Vec<Option<TermId>>,
        budget: &mut u64,
    ) -> Option<bool> {
        if *budget == 0 {
            return None;
        }
        *budget -= 1;
        if !self.bound_filters_pass(graph, &row) {
            return Some(false);
        }
        let Some(scan) = self.scan_cost(graph, &row) else {
            return Some(false); // some pattern provably matches nothing
        };
        if scan <= PROBE_SEEDED_THRESHOLD {
            return Some(self.seeded_exists(graph, &row));
        }
        match self.best_domain(graph, &self.root.patterns, &row) {
            Some((source, estimate)) if estimate.saturating_mul(PROBE_COST_FACTOR) < scan => {
                // Candidates are charged as they are *tried* (each nested
                // probe costs a step), not by the domain's length: an
                // existence probe that succeeds on an early candidate of a
                // million-entry posting run must stay O(1), or bootstrap's
                // member probes degrade to linear scans at scale. Derived
                // domains still pay the materialization they already did,
                // so an adversarial cascade of them hits the budget.
                let (var, domain) = self.stream_domain(graph, source);
                *budget = budget.saturating_sub(domain.setup_cost());
                for c in domain {
                    let mut next = row.clone();
                    next[var] = Some(c);
                    match self.probe_exists(graph, next, budget) {
                        Some(true) => return Some(true),
                        Some(false) => {}
                        None => return None,
                    }
                }
                Some(false)
            }
            _ => Some(self.seeded_exists(graph, &row)),
        }
    }

    /// `false` if some filter whose variables are all bound in `row`
    /// rejects it — then no solution can extend `row` and the whole
    /// subtree is pruned. Evaluation errors reject, per SPARQL filter
    /// semantics; filters with unbound variables are not yet decidable and
    /// pass (they are enforced later, at the search/join leaves).
    fn bound_filters_pass(&self, graph: &Graph, row: &[Option<TermId>]) -> bool {
        let ctx = RowContext {
            compiled: self,
            graph,
        };
        self.root.filters.iter().all(|f| {
            if !f
                .vars
                .iter()
                .all(|&v| row.get(v).copied().flatten().is_some())
            {
                return true;
            }
            eval_expr(&f.expr, &ctx, row)
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
        })
    }

    /// `true` if some solution extends `row` — the `n = 1` case of
    /// [`Compiled::first_rows`].
    fn seeded_exists(&self, graph: &Graph, row: &[Option<TermId>]) -> bool {
        !self.first_rows(graph, row, 1).is_empty()
    }

    /// The first `want` solutions of the (flat) root block extending
    /// `seed`, planned for the seeded bindings with the standard filter
    /// schedule — exactly the prefix [`Compiled::eval_block`] and the
    /// columnar kernel would return, which all enumerate solutions in the
    /// same lexicographic order of per-step index matches.
    fn first_rows(
        &self,
        graph: &Graph,
        seed: &[Option<TermId>],
        want: usize,
    ) -> Vec<Vec<Option<TermId>>> {
        let prebound: Vec<bool> = seed.iter().map(Option::is_some).collect();
        let order = self.plan_block(graph, &self.root, &prebound);
        let filter_step = self.filter_schedule(&self.root, &order, &prebound);
        let mut search = FirstRows {
            compiled: self,
            graph,
            order: &order,
            filter_step: &filter_step,
            want,
            out: Vec::new(),
        };
        search.descend(0, &mut seed.to_vec());
        search.out
    }

    /// The most expensive scan any single pattern forces under the current
    /// bindings — the probe-vs-join decision heuristic: a join over these
    /// patterns has to enumerate *some* pattern's matches unrestricted, and
    /// intermediate results are typically on the order of the largest one.
    /// `None` when some pattern provably matches nothing (no solutions).
    fn scan_cost(&self, graph: &Graph, row: &[Option<TermId>]) -> Option<u64> {
        let mut max = 0u64;
        for p in &self.root.patterns {
            let resolve = |slot: Slot| -> Result<Option<TermId>, ()> {
                match slot {
                    Slot::Const(id) => Ok(Some(id)),
                    Slot::Absent => Err(()),
                    Slot::Var(v) => Ok(row.get(v).copied().flatten()),
                }
            };
            let (Ok(s), Ok(pp), Ok(o)) = (resolve(p.s), resolve(p.p), resolve(p.o)) else {
                return None; // an absent constant: the block is empty
            };
            let count = graph.count_matching(s, pp, o) as u64;
            if count == 0 {
                return None;
            }
            max = max.max(count);
        }
        Some(max)
    }

    /// The cheapest enumerable candidate domain for any still-unbound
    /// variable: `(source, estimated size)`. Estimates are O(1) index
    /// statistics; nothing is materialized until a domain is chosen.
    fn best_domain(
        &self,
        graph: &Graph,
        patterns: &[FlatPattern],
        row: &[Option<TermId>],
    ) -> Option<(DomainSource, u64)> {
        let resolve = |slot: Slot| -> Option<TermId> {
            match slot {
                Slot::Const(id) => Some(id),
                Slot::Var(v) => row.get(v).copied().flatten(),
                Slot::Absent => None,
            }
        };
        let unbound = |slot: Slot| -> Option<usize> {
            match slot {
                Slot::Var(v) if row.get(v).copied().flatten().is_none() => Some(v),
                _ => None,
            }
        };
        let mut best: Option<(DomainSource, u64)> = None;
        let mut consider = |source: DomainSource, estimate: u64| {
            if best.is_none_or(|(_, b)| estimate < b) {
                best = Some((source, estimate));
            }
        };
        for p in patterns {
            let (s, pp, o) = (resolve(p.s), resolve(p.p), resolve(p.o));
            if let Some(v) = unbound(p.o) {
                match (s, pp) {
                    (Some(s), Some(pid)) => {
                        consider(
                            DomainSource::ObjectsBetween(v, s, pid),
                            graph.objects(s, pid).len() as u64,
                        );
                    }
                    (None, Some(pid)) => {
                        consider(
                            DomainSource::ObjectsOfPredicate(v, pid),
                            graph.predicate_stats(pid).distinct_objects as u64,
                        );
                    }
                    _ => {}
                }
            }
            if let Some(v) = unbound(p.s) {
                if let (Some(pid), Some(o)) = (pp, o) {
                    consider(
                        DomainSource::SubjectsBetween(v, pid, o),
                        graph.subjects(pid, o).len() as u64,
                    );
                }
            }
            if let Some(v) = unbound(p.p) {
                match (s, o) {
                    (Some(s), Some(o)) => consider(
                        DomainSource::PredicatesBetween(v, s, o),
                        graph.predicates_between(s, o).len() as u64,
                    ),
                    (Some(s), None) => consider(
                        DomainSource::PredicatesFrom(v, s),
                        // upper bound: triples leaving s
                        graph.count_matching(Some(s), None, None) as u64,
                    ),
                    (None, Some(o)) => consider(
                        DomainSource::PredicatesInto(v, o),
                        // upper bound: triples arriving at o (the distinct
                        // count is not tracked; this stays conservative)
                        graph.count_matching(None, None, Some(o)) as u64,
                    ),
                    (None, None) => consider(
                        DomainSource::AllPredicates(v),
                        graph.predicates().len() as u64,
                    ),
                }
            }
        }
        best
    }

    /// Opens a chosen candidate domain for consumption: `(variable,
    /// candidates)`. Every domain is a superset of the values its variable
    /// can take in the pattern it came from, which is all probing soundness
    /// needs. Index-backed domains (posting runs) stream straight off the
    /// index — opening one costs nothing, so an existence probe that hits
    /// on an early candidate never pays for the run's length.
    fn stream_domain<'g>(&self, graph: &'g Graph, source: DomainSource) -> (usize, DomainIter<'g>) {
        match source {
            DomainSource::ObjectsBetween(v, s, p) => {
                (v, DomainIter::Slice(graph.objects(s, p).iter()))
            }
            DomainSource::ObjectsOfPredicate(v, p) => (
                v,
                DomainIter::Owned(graph.objects_of_predicate(p).into_iter()),
            ),
            DomainSource::SubjectsBetween(v, p, o) => {
                (v, DomainIter::Slice(graph.subjects(p, o).iter()))
            }
            DomainSource::PredicatesBetween(v, s, o) => {
                (v, DomainIter::Slice(graph.predicates_between(s, o).iter()))
            }
            DomainSource::PredicatesFrom(v, s) => {
                (v, DomainIter::Owned(graph.predicates_from(s).into_iter()))
            }
            DomainSource::PredicatesInto(v, o) => {
                (v, DomainIter::Owned(graph.predicates_into(o).into_iter()))
            }
            DomainSource::AllPredicates(v) => {
                (v, DomainIter::Owned(graph.predicates().into_iter()))
            }
        }
    }

    /// The step at which each of a block's filters applies during its
    /// pattern join: the earliest step after which all the filter's
    /// variables are bound; `usize::MAX` for filters whose variables the
    /// join never fully binds (they run after the block's children).
    fn filter_schedule(&self, block: &Block, order: &[usize], prebound: &[bool]) -> Vec<usize> {
        let mut bound = prebound.to_vec();
        let mut schedule = vec![usize::MAX; block.filters.len()];
        for (fi, filter) in block.filters.iter().enumerate() {
            if filter.vars.iter().all(|&v| bound[v]) {
                schedule[fi] = 0; // already decidable from the input row
            }
        }
        for (step, &pi) in order.iter().enumerate() {
            for slot in [
                block.patterns[pi].s,
                block.patterns[pi].p,
                block.patterns[pi].o,
            ] {
                if let Slot::Var(v) = slot {
                    bound[v] = true;
                }
            }
            for (fi, filter) in block.filters.iter().enumerate() {
                if schedule[fi] == usize::MAX && filter.vars.iter().all(|&v| bound[v]) {
                    schedule[fi] = step;
                }
            }
        }
        schedule
    }

    /// Evaluates one group against a set of input rows: joins the group's
    /// patterns, then its children (OPTIONAL = left join, UNION = branch
    /// concatenation), then any filters whose variables only the children
    /// could bind.
    fn eval_block(
        &self,
        graph: &Graph,
        block: &Block,
        input: Vec<Vec<Option<TermId>>>,
    ) -> Result<Vec<Vec<Option<TermId>>>, SparqlError> {
        if input.is_empty() {
            return Ok(input);
        }
        // Variables bound on entry (uniform across input rows produced by
        // pattern joins; after an OPTIONAL boundness can vary per row — the
        // plan only uses this as a heuristic, correctness is per-row).
        let prebound: Vec<bool> = (0..self.var_names.len())
            .map(|v| input.iter().any(|r| r[v].is_some()))
            .collect();
        let order = self.plan_block(graph, block, &prebound);
        let filter_step = self.filter_schedule(block, &order, &prebound);
        let ctx = RowContext {
            compiled: self,
            graph,
        };

        let mut rows = input;
        // filters decidable before any pattern runs
        for (fi, filter) in block.filters.iter().enumerate() {
            if filter_step[fi] == 0 && order.is_empty() {
                rows.retain(|row| {
                    eval_expr(&filter.expr, &ctx, row.as_slice())
                        .and_then(|v| v.as_bool())
                        .unwrap_or(false)
                });
            }
        }
        for (step, &pi) in order.iter().enumerate() {
            let pattern = block.patterns[pi];
            let mut next: Vec<Vec<Option<TermId>>> = Vec::new();
            for row in &rows {
                self.extend_row(graph, pattern, row, &mut next);
            }
            rows = next;
            for (fi, filter) in block.filters.iter().enumerate() {
                if filter_step[fi] == step {
                    rows.retain(|row| {
                        eval_expr(&filter.expr, &ctx, row.as_slice())
                            .and_then(|v| v.as_bool())
                            .unwrap_or(false)
                    });
                }
            }
            if rows.is_empty() {
                return Ok(rows);
            }
        }

        // children, in textual order
        for child in &block.children {
            match child {
                Child::Optional(inner) => {
                    let mut out = Vec::with_capacity(rows.len());
                    for row in rows {
                        let extensions = self.eval_block(graph, inner, vec![row.clone()])?;
                        if extensions.is_empty() {
                            out.push(row); // left join: keep the row unextended
                        } else {
                            out.extend(extensions);
                        }
                    }
                    rows = out;
                }
                Child::Union(branches) => {
                    let mut out = Vec::new();
                    for branch in branches {
                        out.extend(self.eval_block(graph, branch, rows.clone())?);
                    }
                    rows = out;
                }
            }
            if rows.is_empty() {
                return Ok(rows);
            }
        }

        // deferred filters: variables only bindable by children (e.g.
        // FILTER(!BOUND(?x)) negation patterns)
        for (fi, filter) in block.filters.iter().enumerate() {
            if filter_step[fi] == usize::MAX {
                rows.retain(|row| {
                    eval_expr(&filter.expr, &ctx, row.as_slice())
                        .and_then(|v| v.as_bool())
                        .unwrap_or(false)
                });
            }
        }
        Ok(rows)
    }

    /// Appends to `out` every consistent extension of `row` through
    /// `pattern`, in index order.
    fn extend_row(
        &self,
        graph: &Graph,
        pattern: FlatPattern,
        row: &[Option<TermId>],
        out: &mut Vec<Vec<Option<TermId>>>,
    ) {
        let Some([s, p, o]) = pattern.resolve(row) else {
            return; // a constant absent from the graph: no matches
        };
        graph.for_each_matching(s, p, o, |t| {
            let mut extended = row.to_vec();
            if pattern.bind(&mut extended, t).is_some() {
                out.push(extended);
            }
        });
    }

    /// Turns binding rows into the projected solution sequence, handling
    /// grouping, aggregation, HAVING, DISTINCT, ORDER BY and LIMIT/OFFSET.
    fn project(
        &self,
        graph: &Graph,
        rows: Vec<Vec<Option<TermId>>>,
    ) -> Result<Solutions, SparqlError> {
        let query = &self.query;
        let aggregating = query.is_aggregate();

        // Determine output columns.
        let items: Vec<SelectItem> = if query.select.is_empty() {
            if aggregating {
                query
                    .group_by
                    .iter()
                    .map(|v| SelectItem::Var(v.clone()))
                    .collect()
            } else {
                self.var_names
                    .iter()
                    .filter(|n| !n.starts_with('\u{1}'))
                    .map(|n| SelectItem::Var(n.clone()))
                    .collect()
            }
        } else {
            query.select.clone()
        };

        let mut out_rows: Vec<Vec<Option<Value>>> = Vec::new();
        if aggregating {
            // validate: projected plain vars must be grouped
            for item in &items {
                if let SelectItem::Var(v) = item {
                    if !query.group_by.iter().any(|g| g == v) {
                        return Err(SparqlError::invalid(format!(
                            "variable ?{v} is projected but neither grouped nor aggregated"
                        )));
                    }
                }
            }
            let group_idx: Vec<usize> = query
                .group_by
                .iter()
                .map(|g| {
                    self.var_index.get(g).copied().ok_or_else(|| {
                        SparqlError::invalid(format!("GROUP BY variable ?{g} not in WHERE"))
                    })
                })
                .collect::<Result<_, _>>()?;

            let mut groups: FxHashMap<Vec<Option<TermId>>, Vec<usize>> = FxHashMap::default();
            let mut group_order: Vec<Vec<Option<TermId>>> = Vec::new();
            for (ri, row) in rows.iter().enumerate() {
                let key: Vec<Option<TermId>> = group_idx.iter().map(|&i| row[i]).collect();
                groups
                    .entry(key.clone())
                    .or_insert_with(|| {
                        group_order.push(key);
                        Vec::new()
                    })
                    .push(ri);
            }
            // Implicit single group for aggregates without GROUP BY, but
            // only if there are rows (SPARQL returns one row with e.g.
            // COUNT()=0 for an empty match; we follow that).
            if query.group_by.is_empty() && group_order.is_empty() {
                group_order.push(Vec::new());
                groups.insert(Vec::new(), Vec::new());
            }

            for key in &group_order {
                let members = &groups[key];
                let ctx = GroupContext {
                    compiled: self,
                    graph,
                    rows: &rows,
                    members,
                    group_by: &query.group_by,
                    key,
                };
                if let Some(having) = &query.having {
                    let keep = ctx.eval(having).and_then(|v| v.as_bool()).unwrap_or(false);
                    if !keep {
                        continue;
                    }
                }
                let mut out = Vec::with_capacity(items.len());
                for item in &items {
                    match item {
                        SelectItem::Var(v) => out.push(ctx.group_var(v).map(Value::Term)),
                        SelectItem::Agg { func, expr, .. } => {
                            out.push(ctx.aggregate(*func, expr));
                        }
                    }
                }
                out_rows.push(out);
            }
        } else {
            if query.having.is_some() {
                return Err(SparqlError::invalid("HAVING requires aggregation"));
            }
            // registry index per output column, resolved once (a projected
            // variable the WHERE block never binds stays unbound)
            let columns: Vec<Option<usize>> = items
                .iter()
                .map(|item| match item {
                    SelectItem::Var(v) => Ok(self.var_index.get(v).copied()),
                    SelectItem::Agg { .. } => Err(SparqlError::invalid(
                        "aggregate select item outside aggregation",
                    )),
                })
                .collect::<Result<_, _>>()?;
            out_rows.extend(rows.iter().map(|row| {
                columns
                    .iter()
                    .map(|column| column.and_then(|i| row[i]).map(Value::Term))
                    .collect()
            }));
        }

        let vars: Vec<String> = items.iter().map(|i| i.name().to_owned()).collect();

        if query.distinct {
            let mut seen: re2x_rdf::hash::FxHashSet<Vec<DedupKey>> = Default::default();
            out_rows.retain(|row| {
                let key: Vec<DedupKey> = row.iter().map(DedupKey::of).collect();
                seen.insert(key)
            });
        }

        if !query.order_by.is_empty() {
            let key_cols: Vec<(usize, Order)> = query
                .order_by
                .iter()
                .map(|k| {
                    vars.iter()
                        .position(|v| *v == k.column)
                        .map(|i| (i, k.order))
                        .ok_or_else(|| {
                            SparqlError::invalid(format!(
                                "ORDER BY column ?{} is not projected",
                                k.column
                            ))
                        })
                })
                .collect::<Result<_, _>>()?;
            out_rows.sort_by(|a, b| {
                for &(col, order) in &key_cols {
                    let ord = match (&a[col], &b[col]) {
                        (Some(x), Some(y)) => x.compare(y, graph),
                        (None, Some(_)) => std::cmp::Ordering::Less,
                        (Some(_), None) => std::cmp::Ordering::Greater,
                        (None, None) => std::cmp::Ordering::Equal,
                    };
                    let ord = if order == Order::Desc {
                        ord.reverse()
                    } else {
                        ord
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        let offset = query.offset.unwrap_or(0);
        if offset > 0 {
            out_rows.drain(..offset.min(out_rows.len()));
        }
        if let Some(limit) = query.limit {
            out_rows.truncate(limit);
        }

        Ok(Solutions {
            vars,
            rows: out_rows,
        })
    }
}

/// Depth-first enumeration of the root block's solutions along a planned
/// pattern order, stopping after `want` rows ([`Compiled::first_rows`]).
/// One binding row is extended and restored in place, so a candidate that
/// leads nowhere costs no allocation.
struct FirstRows<'a> {
    compiled: &'a Compiled,
    graph: &'a Graph,
    order: &'a [usize],
    filter_step: &'a [usize],
    want: usize,
    out: Vec<Vec<Option<TermId>>>,
}

impl FirstRows<'_> {
    /// Extends `row` through the patterns from `step` on, applying each
    /// filter at its scheduled step (deferred filters at the final step)
    /// and collecting every complete row. Returns `true` — and stops —
    /// once `want` rows are collected; `row` is left as it was found.
    fn descend(&mut self, step: usize, row: &mut [Option<TermId>]) -> bool {
        if self.out.len() >= self.want {
            return true;
        }
        let (compiled, graph) = (self.compiled, self.graph);
        let block = &compiled.root;
        let passes = |filter: &CompiledFilter, row: &[Option<TermId>]| {
            eval_expr(&filter.expr, &RowContext { compiled, graph }, row)
                .and_then(|v| v.as_bool())
                .unwrap_or(false)
        };
        if step == self.order.len() {
            // with patterns every filter already ran at its step; a
            // pattern-free block decides them all here
            if self.order.is_empty() && !block.filters.iter().all(|f| passes(f, row)) {
                return false;
            }
            self.out.push(row.to_vec());
            return self.out.len() >= self.want;
        }
        let last_step = self.order.len() - 1;
        let pattern = block.patterns[self.order[step]];
        let Some([s, p, o]) = pattern.resolve(row) else {
            return false; // a constant absent from the graph: no matches
        };
        graph.for_each_matching_until(s, p, o, |t| {
            let Some(bound) = pattern.bind(row, t) else {
                return false; // next candidate
            };
            let rejected = block.filters.iter().enumerate().any(|(fi, filter)| {
                let due = self.filter_step[fi] == step
                    || (step == last_step && self.filter_step[fi] == usize::MAX)
                    || (step == 0 && self.filter_step[fi] == 0);
                due && !passes(filter, row)
            });
            let done = !rejected && self.descend(step + 1, row);
            bound.unbind(row);
            done
        })
    }
}

/// Structural key for `DISTINCT` deduplication — avoids formatting values
/// to strings on a hot path. Shared with the sharded merge layer, which
/// must deduplicate merged rows with exactly the semantics of local
/// `DISTINCT`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum DedupKey {
    Unbound,
    Term(TermId),
    Number(u64),
    Bool(bool),
    Str(String),
}

impl DedupKey {
    pub(crate) fn of(cell: &Option<Value>) -> DedupKey {
        match cell {
            None => DedupKey::Unbound,
            Some(Value::Term(id)) => DedupKey::Term(*id),
            Some(Value::Number(n)) => DedupKey::Number(n.to_bits()),
            Some(Value::Bool(b)) => DedupKey::Bool(*b),
            Some(Value::Str(s)) => DedupKey::Str(s.clone()),
        }
    }
}

/// Expression context over one binding row (WHERE filters).
pub(crate) struct RowContext<'a> {
    compiled: &'a Compiled,
    graph: &'a Graph,
}

impl<'a> EvalContext for RowContext<'a> {
    type Row = [Option<TermId>];

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn lookup(&self, name: &str, row: &Self::Row) -> Option<Value> {
        let &i = self.compiled.var_index.get(name)?;
        row.get(i).copied().flatten().map(Value::Term)
    }

    fn aggregate(&self, _func: AggFunc, _expr: &Expr, _row: &Self::Row) -> Option<Value> {
        None // aggregates rejected in WHERE filters at compile time
    }
}

/// Expression context over one group (HAVING and aggregate projection).
struct GroupContext<'a> {
    compiled: &'a Compiled,
    graph: &'a Graph,
    rows: &'a [Vec<Option<TermId>>],
    members: &'a [usize],
    group_by: &'a [String],
    key: &'a [Option<TermId>],
}

impl<'a> GroupContext<'a> {
    fn group_var(&self, name: &str) -> Option<TermId> {
        let pos = self.group_by.iter().position(|g| g == name)?;
        self.key.get(pos).copied().flatten()
    }

    fn eval(&self, expr: &Expr) -> Option<Value> {
        eval_expr(expr, self, &())
    }

    fn aggregate(&self, func: AggFunc, expr: &Expr) -> Option<Value> {
        let row_ctx = RowContext {
            compiled: self.compiled,
            graph: self.graph,
        };
        let mut count = 0usize;
        let mut sum = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut numeric_count = 0usize;
        let mut distinct: re2x_rdf::hash::FxHashSet<DedupKey> = Default::default();
        for &ri in self.members {
            let row = &self.rows[ri];
            let Some(v) = eval_expr(expr, &row_ctx, row.as_slice()) else {
                continue;
            };
            count += 1;
            if func == AggFunc::CountDistinct {
                distinct.insert(DedupKey::of(&Some(v.clone())));
            }
            if let Some(n) = v.as_number(self.graph) {
                numeric_count += 1;
                sum += n;
                min = min.min(n);
                max = max.max(n);
            }
        }
        match func {
            AggFunc::Count => Some(Value::Number(count as f64)),
            AggFunc::CountDistinct => Some(Value::Number(distinct.len() as f64)),
            AggFunc::CountNumeric => Some(Value::Number(numeric_count as f64)),
            // Unbound (not 0) when no binding was numeric, matching
            // Avg/Min/Max — a spurious `SUM = 0` would satisfy HAVING
            // filters over groups that carry no numeric data at all.
            AggFunc::Sum => (numeric_count > 0).then_some(Value::Number(sum)),
            AggFunc::Avg => {
                if numeric_count == 0 {
                    None
                } else {
                    Some(Value::Number(sum / numeric_count as f64))
                }
            }
            AggFunc::Min => (numeric_count > 0).then_some(Value::Number(min)),
            AggFunc::Max => (numeric_count > 0).then_some(Value::Number(max)),
        }
    }
}

impl<'a> EvalContext for GroupContext<'a> {
    type Row = ();

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn lookup(&self, name: &str, _row: &()) -> Option<Value> {
        self.group_var(name).map(Value::Term)
    }

    fn aggregate(&self, func: AggFunc, expr: &Expr, _row: &()) -> Option<Value> {
        GroupContext::aggregate(self, func, expr)
    }
}
