//! Answering a refinement from the rows the session already holds.
//!
//! The Subset and Similarity refinements (Sections 6.2–6.3) are, by
//! construction, the current query plus one `HAVING` conjunct over its own
//! aggregate columns (Top-k, Percentile) or one `FILTER` over its grouping
//! columns (Similarity). Their result is therefore a subset of the rows the
//! current step already shows, and [`derive()`] picks that subset out instead
//! of sending the refined query back through plan → scan → join →
//! aggregate. The emitted SPARQL is untouched: the refinement stays a plain
//! query the user can keep and re-run.
//!
//! # The structural rule
//!
//! [`derive()`] answers only when it can check, on the two queries alone, that
//! the child is such a restriction of the parent; anything else is `None`
//! and the caller executes the query:
//!
//! * both are `SELECT`s with the same (non-empty) `SELECT` list, `DISTINCT`
//!   flag and `GROUP BY`, and neither has `ORDER BY`, `LIMIT` or `OFFSET`;
//! * the child's `WHERE` is the parent's followed only by top-level
//!   `FILTER`s, aggregate-free, whose variables are all projected
//!   `GROUP BY` keys (and there is a `GROUP BY`: with the one implicit group
//!   a filter that drops every row still yields the `COUNT = 0` row);
//! * the child's `HAVING` is the parent's, or `parent AND extra` (just
//!   `extra` when the parent has none), where every variable of `extra` is
//!   a projected `GROUP BY` key and every aggregate call in it is textually
//!   one of the `SELECT` items.
//!
//! # Why the subset is the executed answer, byte for byte
//!
//! * A filter over group keys has one verdict per group, so it keeps or
//!   drops whole groups: every surviving group aggregates exactly the
//!   binding rows it aggregated in the parent, in the same order —
//!   `SUM`/`AVG` keep their addition order and hence their bits.
//! * The join order comes from `plan_block`, which looks at patterns and
//!   index cardinalities and never at filters; filters only select rows out
//!   of a step's output, preserving order. Groups come out in first-seen
//!   order, so the child's groups are the parent's with some removed, in
//!   the parent's order. A scattered query (`ShardedEndpoint`) returns rows
//!   in a canonical total order, of which a subset is again in order.
//! * The executor evaluates `HAVING` aggregates from the accumulator the
//!   textually equal `SELECT` item reads, so the row's cell *is* the value
//!   `extra` would see. Every parent row already satisfies the parent's
//!   `HAVING`, and `a AND b` is true only when both are, so the child keeps
//!   a row exactly when `extra` is true on it (`false` and errors — an
//!   unbound measure — both drop it, as in the executor).
//! * `DISTINCT` runs after `HAVING`; both verdicts are functions of the
//!   projected cells, so duplicates share a verdict and filtering commutes
//!   with keeping first occurrences.
//!
//! Not covered, deliberately: answering a coarser cuboid from a finer one
//! (roll-up) re-associates float additions and waits for exact aggregation.
//!
//! A derived result reflects the graph as of the parent step: if triples
//! were inserted since, re-running the emitted SPARQL may show more.

use crate::query_model::OlapQuery;
use crate::session::Step;
use re2x_rdf::{Graph, TermId};
use re2x_sparql::expr::{eval_expr, implied_ids, Bindings, CompiledExpr, EvalContext};
use re2x_sparql::{AggFunc, Expr, PatternElement, Query, QueryForm, SelectItem, Solutions, Value};

/// The result of `child` as the order-preserving subset of `parent`'s rows,
/// when the structural rule in the module documentation holds; `None`
/// otherwise (the query must then be executed). `graph` is the endpoint's
/// graph, against which the row filter's constants are resolved — once per
/// call, not once per row.
pub fn derive(parent: &Step, child: &OlapQuery, graph: &Graph) -> Option<Solutions> {
    let (p, c) = (&parent.query.query, &child.query);
    let unsliced = |q: &Query| q.order_by.is_empty() && q.limit.is_none() && q.offset.is_none();
    let same_shape = p.form == QueryForm::Select
        && c.form == QueryForm::Select
        && !c.select.is_empty()
        && c.select == p.select
        && c.distinct == p.distinct
        && c.group_by == p.group_by
        && unsliced(p)
        && unsliced(c);
    let rows_match_select = parent
        .solutions
        .vars
        .iter()
        .map(String::as_str)
        .eq(c.select.iter().map(SelectItem::name));
    if !same_shape || !rows_match_select {
        return None;
    }
    let cells = Cells {
        graph,
        select: &c.select,
        group_by: &c.group_by,
    };

    // WHERE: the parent's elements, then filters over projected group keys
    let added = c.wher.strip_prefix(p.wher.as_slice())?;
    if !added.is_empty() && c.group_by.is_empty() {
        return None;
    }
    let mut keyed = true;
    let mut slot_of = |name: &str| {
        cells.key_column(name).unwrap_or_else(|| {
            keyed = false;
            usize::MAX
        })
    };
    let mut filters = Vec::with_capacity(added.len());
    // (column, ids): a key column's cell must be one of the ids for the
    // filters to keep the row
    let mut members: Vec<(usize, Vec<TermId>)> = Vec::new();
    for element in added {
        match element {
            PatternElement::Filter(expr) if !expr.has_aggregate() => {
                filters.push(CompiledExpr::compile(expr, graph, &mut slot_of));
                for key in &c.group_by {
                    if let (Some(column), Some(ids)) =
                        (cells.key_column(key), implied_ids(expr, key, graph))
                    {
                        members.push((column, ids));
                    }
                }
            }
            _ => return None,
        }
    }
    if !keyed {
        return None;
    }

    // HAVING: the parent's, possibly AND one conjunct over the row's cells
    let extra = match (&p.having, &c.having) {
        (kept, having) if kept == having => None,
        (None, Some(extra)) => Some(extra),
        (Some(kept), Some(Expr::And(left, extra))) if **left == *kept => Some(&**extra),
        _ => return None,
    };
    if extra.is_some_and(|e| !c.is_aggregate() || !cells.cover(e)) {
        return None;
    }

    let rows = parent
        .solutions
        .rows
        .iter()
        .filter(|row| {
            members.iter().all(|(column, ids)| {
                KeyCells(row).binding(*column).is_some_and(|id| {
                    // the set holds every IRI the filter can keep, but a
                    // literal spelling one only while the text index does
                    ids.binary_search(&id).is_ok() || !graph.term(id).is_iri()
                })
            }) && filters.iter().all(|f| f.keeps(graph, &KeyCells(row)))
                && extra.is_none_or(|e| {
                    eval_expr(e, &cells, row.as_slice()).and_then(|v| v.as_bool()) == Some(true)
                })
        })
        .cloned()
        .collect();
    Some(Solutions {
        vars: parent.solutions.vars.clone(),
        rows,
    })
}

/// A solution row as the bindings of its grouping columns: slot = column
/// index, and a group key is always a term (or unbound).
struct KeyCells<'a>(&'a [Option<Value>]);

impl Bindings for KeyCells<'_> {
    fn binding(&self, slot: usize) -> Option<TermId> {
        match self.0.get(slot) {
            Some(Some(Value::Term(id))) => Some(*id),
            _ => None,
        }
    }
}

/// Reads a `HAVING` conjunct off a solution row: a grouping variable is its
/// projected column, an aggregate call the `SELECT` item spelling it.
struct Cells<'a> {
    graph: &'a Graph,
    select: &'a [SelectItem],
    group_by: &'a [String],
}

impl Cells<'_> {
    /// The column of `name` when it is a projected `GROUP BY` key.
    fn key_column(&self, name: &str) -> Option<usize> {
        if !self.group_by.iter().any(|g| g == name) {
            return None;
        }
        self.select
            .iter()
            .position(|item| matches!(item, SelectItem::Var(v) if v == name))
    }

    /// The column of the `SELECT` item that is textually `func(expr)`.
    fn aggregate_column(&self, func: AggFunc, expr: &Expr) -> Option<usize> {
        self.select.iter().position(|item| {
            matches!(item, SelectItem::Agg { func: f, expr: e, .. } if *f == func && e == expr)
        })
    }

    /// Whether every variable and aggregate call of `expr` is a cell.
    fn cover(&self, expr: &Expr) -> bool {
        match expr {
            Expr::Var(v) => self.key_column(v).is_some(),
            Expr::Agg(func, inner) => self.aggregate_column(*func, inner).is_some(),
            Expr::Iri(_) | Expr::Literal(_) | Expr::Number(_) | Expr::Bool(_) => true,
            Expr::Not(e) => self.cover(e),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(a, _, b) | Expr::Arith(a, _, b) => {
                self.cover(a) && self.cover(b)
            }
            Expr::In(e, list) => self.cover(e) && list.iter().all(|item| self.cover(item)),
            Expr::Call(_, args) => args.iter().all(|arg| self.cover(arg)),
        }
    }
}

impl EvalContext for Cells<'_> {
    type Row = [Option<Value>];

    fn graph(&self) -> &Graph {
        self.graph
    }

    fn lookup(&self, name: &str, row: &Self::Row) -> Option<Value> {
        row.get(self.key_column(name)?)?.clone()
    }

    fn aggregate(&self, func: AggFunc, expr: &Expr, row: &Self::Row) -> Option<Value> {
        row.get(self.aggregate_column(func, expr)?)?.clone()
    }
}
