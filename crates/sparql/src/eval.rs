//! Query evaluation: BGP matching with greedy join ordering, filters,
//! grouping, aggregation, and solution modifiers.
//!
//! The evaluator extends partial bindings pattern by pattern. Patterns are
//! ordered greedily by estimated selectivity (constant-bound index counts),
//! the classic heuristic that makes star-shaped OLAP patterns over
//! observations run in time proportional to the matching observations
//! rather than the full store.
//!
//! [`evaluate`] answers every query one way: a set query from its chain of
//! nodes (`chain`), a flat block on the columnar kernel (`columnar`), its
//! first rows by a depth-first search, and a block with OPTIONAL / UNION
//! children one binding row at a time. [`evaluate_reference`] takes only
//! the last of these routes, for every query: it is the oracle the others
//! are tested against.

mod chain;
mod columnar;

use crate::ast::*;
use crate::error::SparqlError;
use crate::expr::{eval_expr, Bindings, CompiledExpr, EvalContext};
use crate::value::{Solutions, Value};
use re2x_rdf::hash::{FxHashMap, FxHashSet};
use re2x_rdf::{Graph, Term, TermId};

/// How many times fewer one side of a join must be than the other before
/// the evaluator starts from it instead of walking the other's runs — one
/// O(1) rule for two decisions: a set query's node decides its candidates
/// one by one when they are this many times fewer than its seeds (a
/// candidate costs a gallop through its postings, a seed one SPO run), and
/// the columnar kernel reaches back from a filter's members when they are
/// this many times fewer than the objects of their arm's predicate.
const FAR_FEWER: u64 = 8;

/// Evaluates a query against a graph.
pub fn evaluate(graph: &Graph, query: &Query) -> Result<Solutions, SparqlError> {
    Compiled::new(graph, query)?.solutions(graph)
}

/// A `SELECT`'s answer as [`evaluate_ids`] gives it.
pub(crate) enum Selected {
    /// The one projected column's ids, row for row.
    Ids(Vec<TermId>),
    /// [`evaluate`]'s answer, for every shape the id path does not admit.
    Rows(Solutions),
}

/// Evaluates a query as [`evaluate`] does, reading the answer of a plain
/// `SELECT ?v` — one variable, no aggregate, `DISTINCT`, `ORDER BY` or
/// `HAVING`, over a flat block whose patterns mention `?v` — straight off
/// the WHERE block's bindings: the same `LIMIT` pushdown, the same rows in
/// the same order, but as ids, without building a row. Every other shape
/// comes back as [`evaluate`]'s solutions.
pub(crate) fn evaluate_ids(graph: &Graph, query: &Query) -> Result<Selected, SparqlError> {
    let compiled = Compiled::new(graph, query)?;
    let Some(slot) = compiled.id_column() else {
        return compiled.solutions(graph).map(Selected::Rows);
    };
    // every row of a flat block binds each variable of its patterns, and a
    // `LIMIT` stops the block at `OFFSET + LIMIT` rows
    let mut ids = compiled
        .run_bgp(graph, compiled.rows_wanted())?
        .into_column(slot);
    ids.drain(..query.offset.unwrap_or(0).min(ids.len()));
    Ok(Selected::Ids(ids))
}

/// Evaluates a query the plain way, as the reference [`evaluate`] is held
/// to: the planned pattern order, extended one binding row at a time, then
/// projected. It skips the set-query chain, the columnar kernel and the
/// first-rows search, so it checks all three: its answer is [`evaluate`]'s
/// row for row — but for a set query, whose values [`evaluate`] returns
/// ids ascending, and this in first-seen order.
pub fn evaluate_reference(graph: &Graph, query: &Query) -> Result<Solutions, SparqlError> {
    let compiled = Compiled::new(graph, query)?;
    let seed = vec![None; compiled.var_names.len()];
    let rows = compiled.eval_block(graph, &compiled.root, vec![seed])?;
    compiled.answer(graph, &Found::Rows(rows))
}

/// Evaluates an `ASK` query (or any query, testing for non-emptiness).
pub fn evaluate_ask(graph: &Graph, query: &Query) -> Result<bool, SparqlError> {
    let compiled = Compiled::new(graph, query)?;
    Ok(!compiled.run_bgp(graph, Some(1))?.is_empty())
}

/// Renders the evaluation plan of a query without executing it: which
/// executor runs each block (`columnar`, or `row: <reason>`), the chosen
/// join order with per-pattern index-cardinality estimates, each run of
/// two or more steps the columnar kernel joins in one star walk (`star walk
/// on ?o: steps 1–4`, above the run's first step), each reach the kernel
/// cuts a hub's column to (`reach ?o: 143 ids from ?up ∈ 4 members`, above
/// the step binding the hub), and the step after which each filter
/// selects (`select <expr>`). A set query prints
/// its chain of nodes instead — for each node the values it answers, the
/// variable the previous node's values seed, and the access it takes,
/// over the listing of its part of the block.
pub fn explain(graph: &Graph, query: &Query) -> Result<String, SparqlError> {
    use std::fmt::Write as _;
    let compiled = Compiled::new(graph, query)?;
    let mut out = String::new();
    let reason = compiled.row_reason(compiled.rows_wanted());
    let _ = match reason {
        None => writeln!(out, "executor: columnar"),
        Some(reason) => writeln!(out, "executor: row: {reason}"),
    };
    match compiled.set_query() {
        Some(set) => compiled.explain_chain(graph, set, &mut out),
        None => compiled.explain_block(graph, None, reason.is_none(), "", &mut out),
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
    /// The registry slots of the pattern's variables, in s, p, o order (a
    /// repeated variable repeats).
    fn vars(&self) -> impl Iterator<Item = usize> {
        [self.s, self.p, self.o]
            .into_iter()
            .filter_map(|slot| match slot {
                Slot::Var(v) => Some(v),
                _ => None,
            })
    }

    /// Whether a variable occurs twice in the pattern — a constraint on
    /// matches beyond what any index key says.
    fn repeats(&self) -> bool {
        let vars: Vec<usize> = self.vars().collect();
        (1..vars.len()).any(|i| vars[..i].contains(&vars[i]))
    }

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

/// A filter: its source expression (for [`explain`]), the compiled test
/// every execution path evaluates it through, and the registry slots of
/// its variables.
#[derive(Clone)]
struct CompiledFilter<'q> {
    expr: &'q Expr,
    test: CompiledExpr,
    vars: Vec<usize>,
}

/// A nested child of a group: an `OPTIONAL` block or a `UNION`
/// alternation.
enum Child<'q> {
    Optional(Block<'q>),
    Union(Vec<Block<'q>>),
}

/// One `{ … }` group, compiled: its own triple patterns and filters plus
/// nested children in textual order.
struct Block<'q> {
    patterns: Vec<FlatPattern>,
    filters: Vec<CompiledFilter<'q>>,
    children: Vec<Child<'q>>,
}

/// The bindings a WHERE block produced, as projection receives them: rows
/// from the row executor and the depth-first search, the batch itself from
/// the columnar kernel.
enum Found {
    Rows(Vec<Vec<Option<TermId>>>),
    Batch(columnar::Batch),
}

impl Found {
    fn is_empty(&self) -> bool {
        match self {
            Found::Rows(rows) => rows.is_empty(),
            Found::Batch(batch) => batch.len() == 0,
        }
    }

    /// The values bound at `slot`, in row order (a batch's column moves
    /// out as it is).
    fn into_column(self, slot: usize) -> Vec<TermId> {
        match self {
            Found::Rows(rows) => rows.iter().filter_map(|row| row.binding(slot)).collect(),
            Found::Batch(batch) => batch.into_column(slot),
        }
    }
}

/// Binding rows as projection and the compiled expressions read them.
trait Table {
    fn len(&self) -> usize;

    /// The term row `row` binds at registry slot `slot`, `None` if unbound
    /// (or if the table has no such slot).
    fn cell(&self, row: usize, slot: usize) -> Option<TermId>;
}

impl Table for Vec<Vec<Option<TermId>>> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn cell(&self, row: usize, slot: usize) -> Option<TermId> {
        self[row].binding(slot)
    }
}

/// One row of a [`Table`], as a compiled expression's variable bindings.
struct RowOf<'t, T>(&'t T, usize);

impl<T: Table> Bindings for RowOf<'_, T> {
    fn binding(&self, slot: usize) -> Option<TermId> {
        self.0.cell(self.1, slot)
    }
}

/// What a set query ([`Compiled::set_query`]) asks of its block.
#[derive(Clone, Copy)]
enum SetQuery {
    /// The distinct values of a variable: `SELECT DISTINCT ?t` or
    /// `SELECT (COUNT(DISTINCT ?t) AS ?n)`.
    Values(usize),
    /// How many triples the block's one pattern matches: `SELECT
    /// (COUNT(…) AS ?n)`.
    Count,
}

struct Compiled<'q> {
    /// Variable registry: slot → name. Internal path variables carry a
    /// `\u{1}` prefix so they can never collide with user variables.
    var_names: Vec<String>,
    root: Block<'q>,
    query: &'q Query,
}

impl<'q> Compiled<'q> {
    fn new(graph: &Graph, query: &'q Query) -> Result<Self, SparqlError> {
        let mut c = Compiled {
            var_names: Vec::new(),
            root: Block {
                patterns: Vec::new(),
                filters: Vec::new(),
                children: Vec::new(),
            },
            query,
        };
        let mut internal = 0usize;
        c.root = c.compile_elements(graph, &query.wher, &mut internal)?;
        Ok(c)
    }

    fn compile_elements(
        &mut self,
        graph: &Graph,
        elements: &'q [PatternElement],
        internal: &mut usize,
    ) -> Result<Block<'q>, SparqlError> {
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
                    let mut vars = Vec::new();
                    let test = CompiledExpr::compile(expr, graph, &mut |name| {
                        let slot = self.var(name);
                        if !vars.contains(&slot) {
                            vars.push(slot);
                        }
                        slot
                    });
                    block.filters.push(CompiledFilter { expr, test, vars });
                }
                PatternElement::Optional(inner) => {
                    let child = self.compile_elements(graph, inner, internal)?;
                    block.children.push(Child::Optional(child));
                }
                PatternElement::Union(branches) => {
                    let compiled: Result<Vec<Block<'q>>, SparqlError> = branches
                        .iter()
                        .map(|b| self.compile_elements(graph, b, internal))
                        .collect();
                    block.children.push(Child::Union(compiled?));
                }
            }
        }
        Ok(block)
    }

    /// The registry slot of a variable the WHERE block mentions. Queries
    /// name a handful of variables, and only compilation looks them up by
    /// name, so the registry is searched, not hashed.
    fn slot(&self, name: &str) -> Option<usize> {
        self.var_names.iter().position(|n| n == name)
    }

    fn var(&mut self, name: &str) -> usize {
        self.slot(name).unwrap_or_else(|| {
            self.var_names.push(name.to_owned());
            self.var_names.len() - 1
        })
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

    /// The join order of one block's patterns, chosen greedily: repeatedly
    /// pick the cheapest pattern given the variables bound so far
    /// (`prebound` marks variables the surrounding group already binds).
    /// Equal-cost candidates tie-break on the lower pattern index, so
    /// structurally identical queries always produce the same plan
    /// (`remaining` is kept in ascending index order for exactly this
    /// reason).
    fn plan_block(&self, graph: &Graph, block: &Block<'q>, prebound: &[bool]) -> Vec<usize> {
        let mut remaining: Vec<usize> = (0..block.patterns.len()).collect();
        let mut bound = prebound.to_vec();
        let mut order = Vec::with_capacity(remaining.len());
        let shares_bound_var = |p: FlatPattern, bound: &[bool]| p.vars().any(|v| bound[v]);
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
            block.patterns[pick].vars().for_each(|v| bound[v] = true);
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

    /// The query's answer, as [`evaluate`] gives it: a set query's from its
    /// chain, any other from its WHERE block's bindings.
    fn solutions(&self, graph: &Graph) -> Result<Solutions, SparqlError> {
        if let Some(set) = self.set_query() {
            return self.set_answer(graph, set);
        }
        let found = self.run_bgp(graph, self.rows_wanted())?;
        self.answer(graph, &found)
    }

    /// The query's answer from its WHERE block's bindings: `ASK`'s one
    /// boolean, or `SELECT`'s projection.
    fn answer(&self, graph: &Graph, found: &Found) -> Result<Solutions, SparqlError> {
        match self.query.form {
            QueryForm::Ask => Ok(Solutions {
                vars: vec!["ask".to_owned()],
                rows: vec![vec![Some(Value::Bool(!found.is_empty()))]],
            }),
            QueryForm::Select => match found {
                Found::Rows(rows) => self.project(graph, rows),
                Found::Batch(batch) => self.project(graph, batch),
            },
        }
    }

    /// The number of binding rows after which evaluation may stop (`None`:
    /// all are needed): one for `ASK`; for `SELECT` a `LIMIT` (plus
    /// `OFFSET`), which can be pushed below projection only when every
    /// binding row becomes exactly one output row in binding order — no
    /// aggregation, `DISTINCT` or `ORDER BY` between the two.
    fn rows_wanted(&self) -> Option<usize> {
        let query = self.query;
        if query.form == QueryForm::Ask {
            return Some(1);
        }
        let limit = query.limit?;
        (!query.is_aggregate() && !query.distinct && query.order_by.is_empty())
            .then(|| query.offset.unwrap_or(0).saturating_add(limit))
    }

    /// Runs the WHERE block, returning binding rows over the variable
    /// registry. With `first = Some(n)`, returns only the first `n` rows
    /// (`ASK` is `n = 1`, a pushed-down `LIMIT` its `offset + limit`).
    fn run_bgp(&self, graph: &Graph, first: Option<usize>) -> Result<Found, SparqlError> {
        let identity = columnar::Batch::seed(self.var_names.len());
        let Some(want) = first else {
            return self.run_seeded(graph, &identity);
        };
        if self.row_reason(first).is_none() {
            // Under a row limit the kernel gives up once a batch outgrows
            // it — the whole answer fits the limit far more often than
            // not, and merge joins produce it at half the per-row cost of
            // the search that bounds the rest.
            if let Some(mut batch) = columnar::run(self, graph, &identity, want) {
                batch.truncate(want);
                return Ok(Found::Batch(batch));
            }
        }
        let seed = vec![None; self.var_names.len()];
        if self.root.children.is_empty() {
            // First n rows of a flat group: depth-first with early
            // termination — the nth complete solution ends the search, so
            // existence probes and capped fetches never materialize the
            // full join.
            return Ok(Found::Rows(self.first_rows(graph, &seed, want)));
        }
        let mut rows = self.eval_block(graph, &self.root, vec![seed])?;
        rows.truncate(want);
        Ok(Found::Rows(rows))
    }

    /// Every solution of the root block that extends a row of `seed` (the
    /// one-row identity batch: every solution), on the executor
    /// [`Compiled::row_reason`] names: for a flat block sorted-ID merge
    /// joins over columnar batches with filters applied as selections,
    /// byte-identical to the row executor's answer.
    fn run_seeded(&self, graph: &Graph, seed: &columnar::Batch) -> Result<Found, SparqlError> {
        if self.row_reason(None).is_none() {
            // without a row limit the kernel never gives up
            if let Some(batch) = columnar::run(self, graph, seed, usize::MAX) {
                return Ok(Found::Batch(batch));
            }
        }
        let rows = (0..seed.len())
            .map(|row| {
                (0..self.var_names.len())
                    .map(|slot| seed.cell(row, slot))
                    .collect()
            })
            .collect();
        Ok(Found::Rows(self.eval_block(graph, &self.root, rows)?))
    }

    /// Why the root block runs on the row executor when asked for its
    /// `first` rows (`None`: all of them) — or `None` when the columnar
    /// kernel runs it. [`Compiled::run_bgp`] dispatches on this and
    /// [`explain`] prints it, so the two cannot disagree.
    fn row_reason(&self, first: Option<usize>) -> Option<&'static str> {
        if !columnar::eligible(self) {
            Some("OPTIONAL/UNION child")
        } else if first == Some(1) {
            // found by the search without building any batch
            Some("single-row search")
        } else {
            None
        }
    }

    // ---- set queries --------------------------------------------------------

    /// What the query asks if it is a *set query*, with no clause but its
    /// one projection: `SELECT DISTINCT ?t` / `SELECT (COUNT(DISTINCT ?t)
    /// AS ?n)` over a flat block whose patterns mention `?t`, or `SELECT
    /// (COUNT(…) AS ?n)` over one pattern with no filter and no repeated
    /// variable — counting every row (`COUNT(1)`) or a variable of the
    /// pattern. The answer is a set of term ids, or a number, so it may be
    /// computed any way that yields it ([`Compiled::chain`]); ids come out
    /// ascending.
    fn set_query(&self) -> Option<SetQuery> {
        let (query, root) = (self.query, &self.root);
        if query.form != QueryForm::Select
            || !query.group_by.is_empty()
            || query.having.is_some()
            || !query.order_by.is_empty()
            || query.limit.is_some()
            || query.offset.is_some()
            || !root.children.is_empty()
            || query.select.len() != 1
        {
            return None;
        }
        match &query.select[0] {
            SelectItem::Var(v) if query.distinct => self.mentioned(v).map(SetQuery::Values),
            SelectItem::Agg {
                func: AggFunc::CountDistinct,
                expr: Expr::Var(v),
                ..
            } => self.mentioned(v).map(SetQuery::Values),
            SelectItem::Agg {
                func: AggFunc::Count,
                expr,
                ..
            } => {
                let [pattern] = root.patterns.as_slice() else {
                    return None;
                };
                let counted = match expr {
                    Expr::Number(_) => true,
                    Expr::Var(v) => self.mentioned(v).is_some(),
                    _ => false,
                };
                (root.filters.is_empty() && !pattern.repeats() && counted)
                    .then_some(SetQuery::Count)
            }
            _ => None,
        }
    }

    /// The registry slot of a variable the root block's patterns mention.
    fn mentioned(&self, name: &str) -> Option<usize> {
        let v = self.slot(name)?;
        let mut vars = self.root.patterns.iter().flat_map(FlatPattern::vars);
        vars.any(|x| x == v).then_some(v)
    }

    /// The slot [`evaluate_ids`] reads the answer from: the projected
    /// variable of a `SELECT ?v` whose every binding row is one output row
    /// (no aggregate, `DISTINCT`, `ORDER BY` or `HAVING`) binding `?v` (a
    /// flat block whose patterns mention it).
    fn id_column(&self) -> Option<usize> {
        let query = self.query;
        let [SelectItem::Var(v)] = query.select.as_slice() else {
            return None;
        };
        let plain = query.form == QueryForm::Select
            && !query.distinct
            && !query.is_aggregate()
            && query.having.is_none()
            && query.order_by.is_empty()
            && self.root.children.is_empty();
        if !plain {
            return None;
        }
        self.mentioned(v)
    }

    /// The answer of the set query `set`: one row per value, ids
    /// ascending, or the number of values — or, for [`SetQuery::Count`],
    /// [`Graph::count_matching`] of the pattern, an O(1) index statistic.
    fn set_answer(&self, graph: &Graph, set: SetQuery) -> Result<Solutions, SparqlError> {
        let item = &self.query.select[0];
        let number = |n: usize| vec![vec![Some(Value::Number(n as f64))]];
        let rows = match (set, item) {
            (SetQuery::Values(tv), SelectItem::Var(_)) => (self.distinct_values(graph, tv)?)
                .into_iter()
                .map(|id| vec![Some(Value::Term(id))])
                .collect(),
            (SetQuery::Values(tv), _) => number(self.distinct_values(graph, tv)?.len()),
            (SetQuery::Count, _) => {
                let unbound = vec![None; self.var_names.len()];
                number(match self.root.patterns[0].resolve(&unbound) {
                    Some([s, p, o]) => graph.count_matching(s, p, o),
                    None => 0, // an absent constant matches nothing
                })
            }
        };
        Ok(Solutions {
            vars: vec![item.name().to_owned()],
            rows,
        })
    }

    /// A variable as [`explain`] shows it (internal path variables as
    /// `?_pathN`).
    fn display_name(&self, v: usize) -> String {
        let name = &self.var_names[v];
        match name.strip_prefix('\u{1}') {
            Some(internal) => format!("?_{internal}"),
            None => format!("?{name}"),
        }
    }

    /// [`explain`]'s listing of the root block, every line behind
    /// `indent`: the join order with cost estimates (variables bound on
    /// entry to a step starred — `seeded` from the start), when the
    /// columnar kernel runs the block (`walks`) above each run of two or
    /// more arms the star walk joining it and above the step binding a hub
    /// its reach, each filter under the step it selects after, then the
    /// children and the filters only they can bind.
    fn explain_block(
        &self,
        graph: &Graph,
        seeded: Option<usize>,
        walks: bool,
        indent: &str,
        out: &mut String,
    ) {
        use std::fmt::Write as _;
        let mut bound = vec![false; self.var_names.len()];
        if let Some(v) = seeded {
            bound[v] = true;
        }
        let columnar::Schedule {
            order,
            filter_step,
            mut reaches,
            mut runs,
        } = columnar::schedule(self, graph, &bound);
        if !walks {
            reaches.clear();
            runs.clear();
        }
        runs.retain(|run| run.steps.len() > 1);
        let slot_name = |slot: Slot, bound: &[bool]| match slot {
            Slot::Const(id) => graph.term(id).to_string(),
            Slot::Absent => "<absent-constant>".to_owned(),
            Slot::Var(v) if bound[v] => format!("{}*", self.display_name(v)),
            Slot::Var(v) => self.display_name(v),
        };
        let select = |out: &mut String, lead: &str, filter: &CompiledFilter| {
            let _ = writeln!(
                out,
                "{indent}{lead}select {}",
                crate::pretty::expr(filter.expr)
            );
        };
        if order.is_empty() {
            // a pattern-free block decides its variable-free filters up front
            for (fi, filter) in self.root.filters.iter().enumerate() {
                if filter_step[fi] == 0 {
                    select(out, "    ", filter);
                }
            }
        }
        for (step, &pi) in order.iter().enumerate() {
            for reach in reaches.iter().filter(|reach| reach.step == step) {
                let from: Vec<String> = (reach.from.iter())
                    .map(|&(v, members)| format!("{} ∈ {members} members", self.display_name(v)))
                    .collect();
                let _ = writeln!(
                    out,
                    "{indent}reach {}: {} ids from {}",
                    self.display_name(reach.hub),
                    reach.ids.len(),
                    from.join(", ")
                );
            }
            if let Some(run) = runs.iter().find(|run| run.steps.start == step) {
                let (on, last) = (self.display_name(run.on), run.steps.end - 1);
                let _ = writeln!(out, "{indent}star walk on {on}: steps {step}–{last}");
            }
            let p = self.root.patterns[pi];
            let estimate = self.pattern_cost(graph, p, &bound);
            let _ = writeln!(
                out,
                "{indent}{step:>2}. {} {} {}   (cost estimate {estimate})",
                slot_name(p.s, &bound),
                slot_name(p.p, &bound),
                slot_name(p.o, &bound),
            );
            p.vars().for_each(|v| bound[v] = true);
            for (fi, filter) in self.root.filters.iter().enumerate() {
                if filter_step[fi] == step {
                    select(out, "    ", filter);
                }
            }
        }
        for child in &self.root.children {
            match child {
                Child::Optional(inner) => {
                    let _ = writeln!(
                        out,
                        "{indent}then: left-join OPTIONAL block ({} pattern(s)), executor: row: OPTIONAL child",
                        inner.patterns.len()
                    );
                }
                Child::Union(branches) => {
                    let _ = writeln!(
                        out,
                        "{indent}then: UNION of {} branch(es), executor: row: UNION child",
                        branches.len()
                    );
                }
            }
        }
        // filters the pattern join never fully binds run after the children
        for (fi, filter) in self.root.filters.iter().enumerate() {
            if filter_step[fi] == usize::MAX {
                select(out, "then: ", filter);
            }
        }
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

    /// The step at which each of a block's filters applies during its
    /// pattern join: the earliest step after which all the filter's
    /// variables are bound; `usize::MAX` for filters whose variables the
    /// join never fully binds (they run after the block's children).
    fn filter_schedule(&self, block: &Block<'q>, order: &[usize], prebound: &[bool]) -> Vec<usize> {
        let mut bound = prebound.to_vec();
        let mut schedule = vec![usize::MAX; block.filters.len()];
        for (fi, filter) in block.filters.iter().enumerate() {
            if filter.vars.iter().all(|&v| bound[v]) {
                schedule[fi] = 0; // already decidable from the input row
            }
        }
        for (step, &pi) in order.iter().enumerate() {
            block.patterns[pi].vars().for_each(|v| bound[v] = true);
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
        block: &Block<'q>,
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

        let mut rows = input;
        // filters decidable before any pattern runs
        for (fi, filter) in block.filters.iter().enumerate() {
            if filter_step[fi] == 0 && order.is_empty() {
                rows.retain(|row| filter.test.keeps(graph, row.as_slice()));
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
                    rows.retain(|row| filter.test.keeps(graph, row.as_slice()));
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
                rows.retain(|row| filter.test.keeps(graph, row.as_slice()));
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

    /// `GROUP BY` and every aggregate of the query in one pass over the
    /// table: a row finds its group by hashing its key cells in place, then
    /// feeds each distinct aggregated expression's accumulator once. Groups
    /// come out in first-seen order, and each accumulator sees its group's
    /// rows in table order — the order the per-aggregate loops this
    /// replaces added them in, so every `SUM`/`AVG` keeps its bits.
    fn aggregate<T: Table>(
        &self,
        graph: &Graph,
        table: &T,
        items: &[SelectItem],
    ) -> Result<Vec<Vec<Option<Value>>>, SparqlError> {
        /// An output column, resolved once per query.
        enum Column {
            /// A grouping variable, by position in `GROUP BY`.
            Key(usize),
            /// An aggregate function over `args[.1]`.
            Agg(AggFunc, usize),
        }
        let query = self.query;
        let mut args: Vec<AggArg> = Vec::new();
        let mut arg_of = |func: AggFunc, expr| {
            let arg = args
                .iter()
                .position(|a: &AggArg| a.expr == expr)
                .unwrap_or_else(|| {
                    // a variable the WHERE block never mentions gets a slot
                    // no table has: unbound in every row
                    let mut slot_of = |name: &str| self.slot(name).unwrap_or(usize::MAX);
                    args.push(AggArg {
                        expr,
                        eval: CompiledExpr::compile(expr, graph, &mut slot_of),
                        distinct: false,
                    });
                    args.len() - 1
                });
            args[arg].distinct |= func == AggFunc::CountDistinct;
            arg
        };
        let columns: Vec<Column> = items
            .iter()
            .map(|item| match item {
                SelectItem::Var(v) => query
                    .group_by
                    .iter()
                    .position(|g| g == v)
                    .map(Column::Key)
                    .ok_or_else(|| {
                        SparqlError::invalid(format!(
                            "variable ?{v} is projected but neither grouped nor aggregated"
                        ))
                    }),
                SelectItem::Agg { func, expr, .. } => Ok(Column::Agg(*func, arg_of(*func, expr))),
            })
            .collect::<Result<_, _>>()?;
        if let Some(having) = &query.having {
            let mut calls = Vec::new();
            aggregate_calls(having, &mut calls);
            for (func, expr) in calls {
                arg_of(func, expr);
            }
        }
        let group_slots: Vec<usize> = query
            .group_by
            .iter()
            .map(|g| {
                self.slot(g).ok_or_else(|| {
                    SparqlError::invalid(format!("GROUP BY variable ?{g} not in WHERE"))
                })
            })
            .collect::<Result<_, _>>()?;

        // A row finds its group one key column at a time: `levels[i]` maps
        // (group of the first i key cells, cell i) to the group of the
        // first i + 1, so lookups hash two integers and nothing is
        // allocated per row or per group; the last level numbers the full
        // keys in first-seen order. Group g's key is
        // keys[g * width..][..width], its accumulators
        // accs[g * args.len()..][..args.len()].
        let width = group_slots.len();
        let mut levels: Vec<FxHashMap<(usize, Option<TermId>), usize>> =
            vec![FxHashMap::default(); width];
        let mut groups = 0;
        let mut keys: Vec<Option<TermId>> = Vec::new();
        let mut accs: Vec<Acc> = Vec::new();
        for row in 0..table.len() {
            let mut group = 0;
            for (level, &slot) in levels.iter_mut().zip(&group_slots) {
                let fresh = level.len();
                group = *level.entry((group, table.cell(row, slot))).or_insert(fresh);
            }
            if group == groups {
                groups += 1;
                keys.extend(group_slots.iter().map(|&slot| table.cell(row, slot)));
                accs.extend(args.iter().map(|a| Acc::new(a.distinct)));
            }
            for (arg, acc) in args.iter().zip(&mut accs[group * args.len()..]) {
                if let Some(value) = arg.eval.eval(graph, &RowOf(table, row)) {
                    acc.add(value, graph);
                }
            }
        }
        if width == 0 && groups == 0 {
            // Aggregates without GROUP BY range over one implicit group
            // even when nothing matched (SPARQL returns one row with e.g.
            // COUNT() = 0 for an empty match; we follow that).
            accs.extend(args.iter().map(|a| Acc::new(a.distinct)));
            groups = 1;
        }

        let mut out_rows = Vec::with_capacity(groups);
        for g in 0..groups {
            let group = GroupContext {
                graph,
                group_by: &query.group_by,
                key: &keys[g * width..][..width],
                args: &args,
                accs: &accs[g * args.len()..][..args.len()],
            };
            if let Some(having) = &query.having {
                let keep = eval_expr(having, &group, &()).and_then(|v| v.as_bool());
                if keep != Some(true) {
                    continue;
                }
            }
            out_rows.push(
                columns
                    .iter()
                    .map(|column| match *column {
                        Column::Key(pos) => group.key[pos].map(Value::Term),
                        Column::Agg(func, arg) => group.accs[arg].finish(func),
                    })
                    .collect(),
            );
        }
        Ok(out_rows)
    }

    /// Turns binding rows into the projected solution sequence, handling
    /// grouping, aggregation, HAVING, DISTINCT, ORDER BY and LIMIT/OFFSET.
    fn project<T: Table>(&self, graph: &Graph, table: &T) -> Result<Solutions, SparqlError> {
        let query = self.query;
        let aggregating = query.is_aggregate();

        // Determine output columns.
        let star: Vec<SelectItem>;
        let items: &[SelectItem] = if !query.select.is_empty() {
            &query.select
        } else {
            star = if aggregating {
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
            };
            &star
        };

        let mut out_rows: Vec<Vec<Option<Value>>> = if aggregating {
            self.aggregate(graph, table, items)?
        } else {
            if query.having.is_some() {
                return Err(SparqlError::invalid("HAVING requires aggregation"));
            }
            // registry slot per output column, resolved once (a projected
            // variable the WHERE block never binds stays unbound)
            let columns: Vec<Option<usize>> = items
                .iter()
                .map(|item| match item {
                    SelectItem::Var(v) => Ok(self.slot(v)),
                    SelectItem::Agg { .. } => Err(SparqlError::invalid(
                        "aggregate select item outside aggregation",
                    )),
                })
                .collect::<Result<_, _>>()?;
            (0..table.len())
                .map(|row| {
                    columns
                        .iter()
                        .map(|column| column.and_then(|slot| table.cell(row, slot)))
                        .map(|cell| cell.map(Value::Term))
                        .collect()
                })
                .collect()
        };

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
    compiled: &'a Compiled<'a>,
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
        let passes =
            |filter: &CompiledFilter, row: &[Option<TermId>]| filter.test.keeps(graph, row);
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

/// One distinct expression the query aggregates over. Every aggregate of
/// `SELECT` and `HAVING` over the same expression reads the same
/// accumulator, so `MAX`/`MIN`/`AVG`/`SUM(?m)` cost one evaluation of `?m`
/// and one numeric lookup per row between them.
struct AggArg<'a> {
    expr: &'a Expr,
    eval: CompiledExpr,
    /// Whether some `COUNT(DISTINCT …)` needs the set of values.
    distinct: bool,
}

/// The running state of every aggregate function over one [`AggArg`]
/// within one group.
struct Acc {
    count: usize,
    numeric: usize,
    sum: f64,
    min: f64,
    max: f64,
    distinct: Option<Box<FxHashSet<DedupKey>>>,
}

impl Acc {
    fn new(distinct: bool) -> Self {
        Acc {
            count: 0,
            numeric: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            distinct: distinct.then(Box::default),
        }
    }

    fn add(&mut self, value: Value, graph: &Graph) {
        self.count += 1;
        if let Some(n) = value.as_number(graph) {
            self.numeric += 1;
            self.sum += n;
            self.min = self.min.min(n);
            self.max = self.max.max(n);
        }
        if let Some(seen) = &mut self.distinct {
            seen.insert(DedupKey::of(&Some(value)));
        }
    }

    fn finish(&self, func: AggFunc) -> Option<Value> {
        let number = |n: f64| Some(Value::Number(n));
        match func {
            AggFunc::Count => number(self.count as f64),
            AggFunc::CountDistinct => number(self.distinct.as_ref()?.len() as f64),
            AggFunc::CountNumeric => number(self.numeric as f64),
            // Unbound (not 0) when no binding was numeric, like
            // Avg/Min/Max — a spurious `SUM = 0` would satisfy HAVING
            // filters over groups that carry no numeric data at all.
            _ if self.numeric == 0 => None,
            AggFunc::Sum => number(self.sum),
            AggFunc::Avg => number(self.sum / self.numeric as f64),
            AggFunc::Min => number(self.min),
            AggFunc::Max => number(self.max),
        }
    }
}

/// Collects the aggregate calls of a `HAVING` expression (not descending
/// into their arguments: an aggregate of an aggregate has no value).
fn aggregate_calls<'a>(expr: &'a Expr, out: &mut Vec<(AggFunc, &'a Expr)>) {
    match expr {
        Expr::Agg(func, inner) => out.push((*func, inner)),
        Expr::Var(_) | Expr::Iri(_) | Expr::Literal(_) | Expr::Number(_) | Expr::Bool(_) => {}
        Expr::Not(e) => aggregate_calls(e, out),
        Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(a, _, b) | Expr::Arith(a, _, b) => {
            aggregate_calls(a, out);
            aggregate_calls(b, out);
        }
        Expr::In(e, list) => {
            aggregate_calls(e, out);
            list.iter().for_each(|item| aggregate_calls(item, out));
        }
        Expr::Call(_, args) => args.iter().for_each(|arg| aggregate_calls(arg, out)),
    }
}

/// Expression context over one finished group (`HAVING`).
struct GroupContext<'a> {
    graph: &'a Graph,
    group_by: &'a [String],
    key: &'a [Option<TermId>],
    args: &'a [AggArg<'a>],
    accs: &'a [Acc],
}

impl EvalContext for GroupContext<'_> {
    type Row = ();

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn lookup(&self, name: &str, _row: &()) -> Option<Value> {
        let pos = self.group_by.iter().position(|g| g == name)?;
        self.key[pos].map(Value::Term)
    }

    fn aggregate(&self, func: AggFunc, expr: &Expr, _row: &()) -> Option<Value> {
        let arg = self.args.iter().position(|a| a.expr == expr)?;
        self.accs[arg].finish(func)
    }
}
