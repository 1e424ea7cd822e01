//! Expression evaluation.
//!
//! SPARQL expression errors (type errors, unbound variables, division by
//! zero) are modelled as `None`; a filter keeps a solution only when its
//! expression evaluates to `Some(true)`.
//!
//! Two evaluators live here, each the only one for its job:
//!
//! * [`CompiledExpr`] evaluates everything that is a function of one
//!   binding row — `WHERE` filters on every execution path and the
//!   arguments of aggregates. It is compiled once per query: variables
//!   become registry slots, constants are resolved against the graph, and
//!   evaluation touches no variable name and no constant string again.
//! * [`eval_expr`] walks the AST against an [`EvalContext`]. The engine
//!   uses it for `HAVING` (one evaluation per group, with aggregates the
//!   context supplies); the filter differential suite uses it as the
//!   oracle [`CompiledExpr`] is checked against.

use crate::ast::{AggFunc, ArithOp, CmpOp, Expr, Func};
use crate::value::Value;
use re2x_rdf::{Graph, Literal, Term, TermId};
use std::borrow::Cow;

/// Environment against which expressions are evaluated.
pub trait EvalContext {
    /// The row representation this context resolves variables from.
    type Row: ?Sized;

    /// The graph (for term resolution and numeric coercion).
    fn graph(&self) -> &Graph;

    /// Resolves a variable to a value, `None` if unbound.
    fn lookup(&self, name: &str, row: &Self::Row) -> Option<Value>;

    /// Computes an aggregate, `None` if aggregates are illegal here.
    fn aggregate(&self, func: AggFunc, expr: &Expr, row: &Self::Row) -> Option<Value>;
}

/// Evaluates `expr`; `None` represents the SPARQL error value.
pub fn eval_expr<C: EvalContext>(expr: &Expr, ctx: &C, row: &C::Row) -> Option<Value> {
    let graph = ctx.graph();
    match expr {
        Expr::Var(v) => ctx.lookup(v, row),
        Expr::Iri(iri) => Some(iri_constant(graph, iri)),
        Expr::Literal(l) => Some(literal_constant(graph, l)),
        Expr::Number(n) => Some(Value::Number(*n)),
        Expr::Bool(b) => Some(Value::Bool(*b)),
        Expr::Not(e) => eval_expr(e, ctx, row)?.as_bool().map(|b| Value::Bool(!b)),
        Expr::And(a, b) => {
            let left = eval_expr(a, ctx, row).and_then(|v| v.as_bool());
            let right = eval_expr(b, ctx, row).and_then(|v| v.as_bool());
            match (left, right) {
                (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                (Some(true), Some(true)) => Some(Value::Bool(true)),
                _ => None,
            }
        }
        Expr::Or(a, b) => {
            let left = eval_expr(a, ctx, row).and_then(|v| v.as_bool());
            let right = eval_expr(b, ctx, row).and_then(|v| v.as_bool());
            match (left, right) {
                (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                (Some(false), Some(false)) => Some(Value::Bool(false)),
                _ => None,
            }
        }
        Expr::Cmp(a, op, b) => {
            let left = eval_expr(a, ctx, row)?;
            let right = eval_expr(b, ctx, row)?;
            let result = match op {
                CmpOp::Eq => left.equals(&right, graph),
                CmpOp::Ne => !left.equals(&right, graph),
                CmpOp::Lt => left.compare(&right, graph).is_lt(),
                CmpOp::Le => left.compare(&right, graph).is_le(),
                CmpOp::Gt => left.compare(&right, graph).is_gt(),
                CmpOp::Ge => left.compare(&right, graph).is_ge(),
            };
            Some(Value::Bool(result))
        }
        Expr::Arith(a, op, b) => {
            let left = eval_expr(a, ctx, row)?.as_number(graph)?;
            let right = eval_expr(b, ctx, row)?.as_number(graph)?;
            let value = match op {
                ArithOp::Add => left + right,
                ArithOp::Sub => left - right,
                ArithOp::Mul => left * right,
                ArithOp::Div => {
                    if right == 0.0 {
                        return None;
                    }
                    left / right
                }
            };
            Some(Value::Number(value))
        }
        Expr::In(e, list) => {
            let needle = eval_expr(e, ctx, row)?;
            for item in list {
                let candidate = eval_expr(item, ctx, row)?;
                if needle.equals(&candidate, graph) {
                    return Some(Value::Bool(true));
                }
            }
            Some(Value::Bool(false))
        }
        Expr::Call(func, args) => match func {
            Func::Bound => match &args[0] {
                Expr::Var(v) => Some(Value::Bool(ctx.lookup(v, row).is_some())),
                _ => None,
            },
            Func::Str => {
                let v = eval_expr(&args[0], ctx, row)?;
                Some(Value::Str(v.string_form(graph).into_owned()))
            }
            Func::LCase => {
                let v = eval_expr(&args[0], ctx, row)?;
                Some(Value::Str(v.string_form(graph).to_lowercase()))
            }
            Func::Contains => {
                let hay = eval_expr(&args[0], ctx, row)?;
                let needle = eval_expr(&args[1], ctx, row)?;
                Some(Value::Bool(
                    hay.string_form(graph).contains(&*needle.string_form(graph)),
                ))
            }
            Func::Abs => {
                let n = eval_expr(&args[0], ctx, row)?.as_number(graph)?;
                Some(Value::Number(n.abs()))
            }
            Func::IsIri => {
                let v = eval_expr(&args[0], ctx, row)?;
                Some(Value::Bool(matches!(
                    v,
                    Value::Term(id) if graph.term(id).is_iri()
                )))
            }
            Func::IsLiteral => {
                let v = eval_expr(&args[0], ctx, row)?;
                let is_lit = match v {
                    Value::Term(id) => graph.term(id).is_literal(),
                    Value::Str(_) | Value::Number(_) => true,
                    Value::Bool(_) => true,
                };
                Some(Value::Bool(is_lit))
            }
            Func::IsNumeric => {
                let v = eval_expr(&args[0], ctx, row)?;
                let is_num = match v {
                    Value::Term(id) => graph.numeric_value(id).is_some(),
                    Value::Number(_) => true,
                    Value::Str(_) | Value::Bool(_) => false,
                };
                Some(Value::Bool(is_num))
            }
        },
        Expr::Agg(func, inner) => ctx.aggregate(*func, inner, row),
    }
}

/// An IRI constant as a value: its term when the graph interns it, its
/// text otherwise.
fn iri_constant(graph: &Graph, iri: &str) -> Value {
    graph
        .iri_id(iri)
        .map_or_else(|| Value::Str(iri.to_owned()), Value::Term)
}

/// A literal constant as a value: its term when the graph interns it,
/// otherwise its number or lexical form.
fn literal_constant(graph: &Graph, l: &Literal) -> Value {
    if let Some(id) = graph.term_id(&Term::Literal(l.clone())) {
        Value::Term(id)
    } else if let Some(n) = l.as_f64() {
        Value::Number(n)
    } else {
        Value::Str(l.lexical().to_owned())
    }
}

/// The term ids a row must bind `var` to for `expr` to be true, ascending —
/// `None` when `expr` implies no such set. A `FILTER` over `expr` keeps a
/// row only if the row binds `var` to one of them, so the set may drop
/// rows before the filter runs: the columnar kernel's reach and the
/// derivation's id pre-check both read it.
///
/// * `?var = <iri>` (either way round): the ids `=` holds for — the
///   IRI's own and those of literals spelling it;
/// * `?var IN (<iri>, …)`: the union of those;
/// * `a && b`: the intersection of whichever sides imply a set;
/// * `a || b`: the union, only when both sides imply a set;
/// * anything else implies nothing — a literal constant too, since `=`
///   compares literals by value, not by id.
pub fn implied_ids(expr: &Expr, var: &str, graph: &Graph) -> Option<Vec<TermId>> {
    let is_var = |e: &Expr| matches!(e, Expr::Var(v) if v == var);
    let mut ids = match expr {
        Expr::Cmp(a, CmpOp::Eq, b) => match (&**a, &**b) {
            (v, Expr::Iri(iri)) | (Expr::Iri(iri), v) if is_var(v) => iri_matches(graph, iri)?,
            _ => return None,
        },
        Expr::In(needle, items) if is_var(needle) => {
            let mut ids = Vec::new();
            for item in items {
                let Expr::Iri(iri) = item else {
                    return None;
                };
                ids.extend(iri_matches(graph, iri)?);
            }
            ids
        }
        Expr::And(a, b) => {
            return match (implied_ids(a, var, graph), implied_ids(b, var, graph)) {
                (Some(mut a), Some(b)) => {
                    a.retain(|id| b.binary_search(id).is_ok());
                    Some(a)
                }
                (one, other) => one.or(other),
            };
        }
        Expr::Or(a, b) => {
            let mut ids = implied_ids(a, var, graph)?;
            ids.extend(implied_ids(b, var, graph)?);
            ids
        }
        _ => return None,
    };
    ids.sort_unstable();
    ids.dedup();
    Some(ids)
}

/// The ids `?v = <iri>` holds for: the IRI's own, when the graph interns
/// it, and every literal spelling it — [`Value::equals`] compares an IRI
/// with any other term by string form, and no number is an IRI. The
/// literals come from the text index, which holds every literal the graph
/// interns until no triple has it as an object any more. `None` for text a
/// blank node's string form (`_:label`) could take.
fn iri_matches(graph: &Graph, iri: &str) -> Option<Vec<TermId>> {
    if iri.starts_with("_:") {
        return None;
    }
    let spelled = graph.text_index().search_exact(iri).iter().copied();
    let spelled = spelled.filter(|&id| {
        graph
            .term(id)
            .as_literal()
            .is_some_and(|l| l.lexical() == iri)
    });
    Some(graph.iri_id(iri).into_iter().chain(spelled).collect())
}

/// One solution's variable bindings, addressed by registry slot — what a
/// [`CompiledExpr`] reads its variables from. Implemented for binding rows
/// (`[Option<TermId>]`) here and for one row of a columnar batch by the
/// evaluator.
pub trait Bindings {
    /// The term bound at `slot`; `None` when the variable is unbound or
    /// the slot does not exist.
    fn binding(&self, slot: usize) -> Option<TermId>;
}

impl Bindings for [Option<TermId>] {
    fn binding(&self, slot: usize) -> Option<TermId> {
        self.get(slot).copied().flatten()
    }
}

/// An expression over one binding row, compiled against a graph and a
/// variable registry.
///
/// The contract every caller relies on: the result is a **pure function of
/// the ids** bound at the expression's slots (given the graph it was
/// compiled against). It never looks at a variable name, never depends on
/// where the row came from, and evaluating it has no effect — which is what
/// lets `&&` / `||` stop at a deciding operand, lets a filter run at any
/// step after its variables are bound, and lets the columnar kernel apply
/// it to a batch row by row as a selection. Results agree with
/// [`eval_expr`] on every input; nothing here can panic — an expression
/// that has no value (an aggregate outside a group, a built-in missing an
/// argument, a slot the row does not have) evaluates to the error value.
#[derive(Debug, Clone)]
pub struct CompiledExpr(Node);

#[derive(Debug, Clone)]
enum Node {
    /// A variable, by registry slot.
    Var(usize),
    /// A constant, resolved against the graph at compile time.
    Const(Value),
    Not(Box<Node>),
    /// `a && b && …`: nested conjunctions flattened, operands in order.
    All(Vec<Node>),
    /// `a || b || …`: nested disjunctions flattened, operands in order.
    Any(Vec<Node>),
    /// `?v = term` (either way round) against a term the graph interns —
    /// the comparison Similarity filters are made of, kept free of the
    /// general node's operand evaluation; [`Value::equals`] decides it, on
    /// ids alone whenever both sides are IRIs.
    VarIsTerm(usize, TermId),
    Cmp(Box<Node>, CmpOp, Box<Node>),
    Arith(Box<Node>, ArithOp, Box<Node>),
    In(Box<Node>, Vec<Node>),
    /// `BOUND(?v)`.
    Bound(usize),
    /// A one-argument built-in (everything but `BOUND` and `CONTAINS`).
    Unary(Func, Box<Node>),
    Contains(Box<Node>, Box<Node>),
    /// Always the error value.
    Error,
}

impl CompiledExpr {
    /// Compiles `expr`: `slot_of` maps each variable name to its registry
    /// slot (and may register names it has not seen), constants resolve
    /// against `graph`.
    pub fn compile(expr: &Expr, graph: &Graph, slot_of: &mut impl FnMut(&str) -> usize) -> Self {
        CompiledExpr(Node::compile(expr, graph, slot_of))
    }

    /// The expression's value on `row`; `None` is the SPARQL error value.
    pub fn eval<R: Bindings + ?Sized>(&self, graph: &Graph, row: &R) -> Option<Value> {
        self.0.value(graph, row).map(Cow::into_owned)
    }

    /// Whether a `FILTER` over this expression keeps `row`: it does only
    /// when the expression is `true` — `false` and errors both reject.
    pub fn keeps<R: Bindings + ?Sized>(&self, graph: &Graph, row: &R) -> bool {
        self.0.truth(graph, row) == Some(true)
    }
}

impl Node {
    fn compile(expr: &Expr, graph: &Graph, slot_of: &mut impl FnMut(&str) -> usize) -> Node {
        let mut sub = |e: &Expr| Box::new(Node::compile(e, graph, slot_of));
        match expr {
            Expr::Var(v) => Node::Var(slot_of(v)),
            Expr::Iri(iri) => Node::Const(iri_constant(graph, iri)),
            Expr::Literal(l) => Node::Const(literal_constant(graph, l)),
            Expr::Number(n) => Node::Const(Value::Number(*n)),
            Expr::Bool(b) => Node::Const(Value::Bool(*b)),
            Expr::Not(e) => Node::Not(sub(e)),
            // `&&` and `||` are associative under three-valued logic (false
            // / true dominates, then error), so a chain is one flat node
            Expr::And(a, b) => {
                let mut operands = Vec::new();
                for operand in [*sub(a), *sub(b)] {
                    match operand {
                        Node::All(inner) => operands.extend(inner),
                        other => operands.push(other),
                    }
                }
                Node::All(operands)
            }
            Expr::Or(a, b) => {
                let mut operands = Vec::new();
                for operand in [*sub(a), *sub(b)] {
                    match operand {
                        Node::Any(inner) => operands.extend(inner),
                        other => operands.push(other),
                    }
                }
                Node::Any(operands)
            }
            Expr::Cmp(a, CmpOp::Eq, b) => match (*sub(a), *sub(b)) {
                (Node::Var(slot), Node::Const(Value::Term(id)))
                | (Node::Const(Value::Term(id)), Node::Var(slot)) => Node::VarIsTerm(slot, id),
                (left, right) => Node::Cmp(Box::new(left), CmpOp::Eq, Box::new(right)),
            },
            Expr::Cmp(a, op, b) => Node::Cmp(sub(a), *op, sub(b)),
            Expr::Arith(a, op, b) => Node::Arith(sub(a), *op, sub(b)),
            Expr::In(e, list) => {
                let needle = sub(e);
                Node::In(needle, list.iter().map(|item| *sub(item)).collect())
            }
            Expr::Call(Func::Bound, args) => match args.first() {
                Some(Expr::Var(v)) => Node::Bound(slot_of(v)),
                _ => Node::Error,
            },
            Expr::Call(Func::Contains, args) => match args.as_slice() {
                [hay, needle, ..] => Node::Contains(sub(hay), sub(needle)),
                _ => Node::Error,
            },
            Expr::Call(func, args) => match args.first() {
                Some(arg) => Node::Unary(*func, sub(arg)),
                None => Node::Error,
            },
            // aggregates have no value on a single row
            Expr::Agg(..) => Node::Error,
        }
    }

    /// The node's value; booleans computed by [`Node::truth`] are wrapped.
    /// Constants are lent, so a row never copies a constant's string.
    fn value<'a, R: Bindings + ?Sized>(
        &'a self,
        graph: &'a Graph,
        row: &R,
    ) -> Option<Cow<'a, Value>> {
        let owned = |v: Value| Some(Cow::Owned(v));
        match self {
            Node::Var(slot) => owned(Value::Term(row.binding(*slot)?)),
            Node::Const(v) => Some(Cow::Borrowed(v)),
            Node::Arith(a, op, b) => {
                let left = a.value(graph, row)?.as_number(graph)?;
                let right = b.value(graph, row)?.as_number(graph)?;
                owned(Value::Number(match op {
                    ArithOp::Add => left + right,
                    ArithOp::Sub => left - right,
                    ArithOp::Mul => left * right,
                    ArithOp::Div if right == 0.0 => return None,
                    ArithOp::Div => left / right,
                }))
            }
            Node::Unary(func, arg) => {
                let v = arg.value(graph, row)?;
                owned(match func {
                    Func::Str => Value::Str(v.string_form(graph).into_owned()),
                    Func::LCase => Value::Str(v.string_form(graph).to_lowercase()),
                    Func::Abs => Value::Number(v.as_number(graph)?.abs()),
                    Func::IsIri => Value::Bool(matches!(
                        *v,
                        Value::Term(id) if graph.term(id).is_iri()
                    )),
                    Func::IsLiteral => Value::Bool(match *v {
                        Value::Term(id) => graph.term(id).is_literal(),
                        Value::Str(_) | Value::Number(_) | Value::Bool(_) => true,
                    }),
                    Func::IsNumeric => Value::Bool(match *v {
                        Value::Term(id) => graph.numeric_value(id).is_some(),
                        Value::Number(_) => true,
                        Value::Str(_) | Value::Bool(_) => false,
                    }),
                    // compiled to their own nodes
                    Func::Bound | Func::Contains => return None,
                })
            }
            Node::Contains(hay, needle) => {
                let hay = hay.value(graph, row)?;
                let needle = needle.value(graph, row)?;
                owned(Value::Bool(
                    hay.string_form(graph).contains(&*needle.string_form(graph)),
                ))
            }
            Node::Not(_)
            | Node::All(_)
            | Node::Any(_)
            | Node::VarIsTerm(..)
            | Node::Cmp(..)
            | Node::In(..)
            | Node::Bound(_) => owned(Value::Bool(self.truth(graph, row)?)),
            Node::Error => None,
        }
    }

    /// The node as a boolean: `None` for an error or a non-boolean value.
    /// `&&` and `||` stop at an operand that decides them — exact under
    /// three-valued logic, since `false && x` is `false` and `true || x`
    /// is `true` whether `x` is true, false or an error, and evaluating
    /// `x` has no effect to lose.
    fn truth<R: Bindings + ?Sized>(&self, graph: &Graph, row: &R) -> Option<bool> {
        // `deciding` wins outright; otherwise one error makes an error
        let chain = |operands: &[Node], deciding: bool| {
            let mut result = Some(!deciding);
            for operand in operands {
                match operand.truth(graph, row) {
                    Some(b) if b == deciding => return Some(deciding),
                    Some(_) => {}
                    None => result = None,
                }
            }
            result
        };
        match self {
            Node::Not(e) => e.truth(graph, row).map(|b| !b),
            Node::All(operands) => chain(operands, false),
            Node::Any(operands) => chain(operands, true),
            Node::VarIsTerm(slot, term) => {
                Some(Value::Term(row.binding(*slot)?).equals(&Value::Term(*term), graph))
            }
            Node::Cmp(a, op, b) => {
                let left = a.value(graph, row)?;
                let right = b.value(graph, row)?;
                Some(match op {
                    CmpOp::Eq => left.equals(&right, graph),
                    CmpOp::Ne => !left.equals(&right, graph),
                    CmpOp::Lt => left.compare(&right, graph).is_lt(),
                    CmpOp::Le => left.compare(&right, graph).is_le(),
                    CmpOp::Gt => left.compare(&right, graph).is_gt(),
                    CmpOp::Ge => left.compare(&right, graph).is_ge(),
                })
            }
            Node::In(needle, list) => {
                let needle = needle.value(graph, row)?;
                for item in list {
                    if needle.equals(&*item.value(graph, row)?, graph) {
                        return Some(true);
                    }
                }
                Some(false)
            }
            Node::Bound(slot) => Some(row.binding(*slot).is_some()),
            Node::Var(_)
            | Node::Const(_)
            | Node::Arith(..)
            | Node::Unary(..)
            | Node::Contains(..)
            | Node::Error => self.value(graph, row)?.as_bool(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::hash::FxHashMap;

    /// A trivial context backed by a name→value map.
    struct MapContext {
        graph: Graph,
        bindings: FxHashMap<String, Value>,
    }

    impl EvalContext for MapContext {
        type Row = ();

        fn graph(&self) -> &Graph {
            &self.graph
        }

        fn lookup(&self, name: &str, _row: &()) -> Option<Value> {
            self.bindings.get(name).cloned()
        }

        fn aggregate(&self, _f: AggFunc, _e: &Expr, _row: &()) -> Option<Value> {
            None
        }
    }

    fn ctx() -> MapContext {
        let mut graph = Graph::new();
        let num = graph.intern_literal(Literal::integer(10));
        let txt = graph.intern_literal(Literal::simple("Germany"));
        let mut bindings = FxHashMap::default();
        bindings.insert("n".to_owned(), Value::Term(num));
        bindings.insert("label".to_owned(), Value::Term(txt));
        MapContext { graph, bindings }
    }

    fn eval(c: &MapContext, e: &Expr) -> Option<Value> {
        eval_expr(e, c, &())
    }

    #[test]
    fn comparisons_are_numeric_aware() {
        let c = ctx();
        let e = Expr::cmp(Expr::var("n"), CmpOp::Gt, Expr::Number(9.5));
        assert_eq!(eval(&c, &e), Some(Value::Bool(true)));
        let e = Expr::cmp(Expr::var("n"), CmpOp::Lt, Expr::Number(2.0));
        assert_eq!(eval(&c, &e), Some(Value::Bool(false)));
    }

    #[test]
    fn unbound_variable_is_an_error_not_false() {
        let c = ctx();
        let e = Expr::cmp(Expr::var("missing"), CmpOp::Eq, Expr::Number(1.0));
        assert_eq!(eval(&c, &e), None);
        // but BOUND observes it
        let e = Expr::Call(Func::Bound, vec![Expr::var("missing")]);
        assert_eq!(eval(&c, &e), Some(Value::Bool(false)));
    }

    #[test]
    fn three_valued_logic() {
        let c = ctx();
        let err = Expr::var("missing");
        // false && error = false
        let e = Expr::And(Box::new(Expr::Bool(false)), Box::new(err.clone()));
        assert_eq!(eval(&c, &e), Some(Value::Bool(false)));
        // true && error = error
        let e = Expr::And(Box::new(Expr::Bool(true)), Box::new(err.clone()));
        assert_eq!(eval(&c, &e), None);
        // true || error = true
        let e = Expr::Or(Box::new(err.clone()), Box::new(Expr::Bool(true)));
        assert_eq!(eval(&c, &e), Some(Value::Bool(true)));
        // false || error = error
        let e = Expr::Or(Box::new(err), Box::new(Expr::Bool(false)));
        assert_eq!(eval(&c, &e), None);
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let c = ctx();
        let e = Expr::Arith(
            Box::new(Expr::var("n")),
            ArithOp::Mul,
            Box::new(Expr::Number(2.0)),
        );
        assert_eq!(eval(&c, &e), Some(Value::Number(20.0)));
        let e = Expr::Arith(
            Box::new(Expr::var("n")),
            ArithOp::Div,
            Box::new(Expr::Number(0.0)),
        );
        assert_eq!(eval(&c, &e), None);
    }

    #[test]
    fn string_functions() {
        let c = ctx();
        let e = Expr::Call(
            Func::Contains,
            vec![
                Expr::Call(
                    Func::LCase,
                    vec![Expr::Call(Func::Str, vec![Expr::var("label")])],
                ),
                Expr::Literal(Literal::simple("germ")),
            ],
        );
        assert_eq!(eval(&c, &e), Some(Value::Bool(true)));
        let e = Expr::Call(Func::Abs, vec![Expr::Number(-4.0)]);
        assert_eq!(eval(&c, &e), Some(Value::Number(4.0)));
    }

    #[test]
    fn in_list_matching() {
        let c = ctx();
        let e = Expr::In(
            Box::new(Expr::var("n")),
            vec![Expr::Number(9.0), Expr::Number(10.0)],
        );
        assert_eq!(eval(&c, &e), Some(Value::Bool(true)));
        let e = Expr::In(Box::new(Expr::var("n")), vec![Expr::Number(9.0)]);
        assert_eq!(eval(&c, &e), Some(Value::Bool(false)));
    }

    #[test]
    fn uninterned_constants_fall_back_to_value_semantics() {
        let c = ctx();
        // "Germany" IS interned; compare against an uninterned literal with
        // the same lexical form — equality via string form.
        let e = Expr::cmp(
            Expr::var("label"),
            CmpOp::Eq,
            Expr::Literal(Literal::simple("Germany")),
        );
        assert_eq!(eval(&c, &e), Some(Value::Bool(true)));
        // Uninterned numeric literal behaves numerically.
        let e = Expr::cmp(
            Expr::var("n"),
            CmpOp::Eq,
            Expr::Literal(Literal::integer(10)),
        );
        assert_eq!(eval(&c, &e), Some(Value::Bool(true)));
    }

    #[test]
    fn term_kind_predicates() {
        let mut c = ctx();
        let iri = c.graph.intern_iri("http://ex/Germany");
        c.bindings.insert("iri".to_owned(), Value::Term(iri));
        let is = |f: Func, v: &str| {
            eval_expr(&Expr::Call(f, vec![Expr::var(v)]), &c, &())
                .and_then(|v| v.as_bool())
                .expect("defined")
        };
        assert!(is(Func::IsIri, "iri"));
        assert!(!is(Func::IsIri, "n"));
        assert!(is(Func::IsLiteral, "n"));
        assert!(is(Func::IsLiteral, "label"));
        assert!(!is(Func::IsLiteral, "iri"));
        assert!(is(Func::IsNumeric, "n"));
        assert!(!is(Func::IsNumeric, "label"));
        assert!(!is(Func::IsNumeric, "iri"));
    }

    /// A graph interning two IRIs, a literal spelling the first and a
    /// literal no IRI spells; `is(v, iri)` builds `?v = <iri>`.
    fn implied_graph() -> (Graph, [TermId; 3]) {
        let mut graph = Graph::new();
        let a = graph.intern_iri("http://ex/a");
        let b = graph.intern_iri("http://ex/b");
        let spelled = graph.intern_literal(Literal::simple("http://ex/a"));
        graph.intern_literal(Literal::simple("http ex b"));
        (graph, [a, b, spelled])
    }

    fn is(var: &str, iri: &str) -> Expr {
        Expr::cmp(
            Expr::var(var),
            CmpOp::Eq,
            Expr::Iri(format!("http://ex/{iri}")),
        )
    }

    fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    fn or(a: Expr, b: Expr) -> Expr {
        Expr::Or(Box::new(a), Box::new(b))
    }

    #[test]
    fn implied_by_an_equality_either_way_round() {
        let (graph, [_, b, _]) = implied_graph();
        assert_eq!(implied_ids(&is("v", "b"), "v", &graph), Some(vec![b]));
        let flipped = Expr::cmp(Expr::Iri("http://ex/b".into()), CmpOp::Eq, Expr::var("v"));
        assert_eq!(implied_ids(&flipped, "v", &graph), Some(vec![b]));
        // another variable, another comparison: nothing
        assert_eq!(implied_ids(&is("w", "b"), "v", &graph), None);
        let ne = Expr::cmp(Expr::var("v"), CmpOp::Ne, Expr::Iri("http://ex/b".into()));
        assert_eq!(implied_ids(&ne, "v", &graph), None);
        assert_eq!(
            implied_ids(&Expr::Not(Box::new(is("v", "b"))), "v", &graph),
            None
        );
    }

    #[test]
    fn implied_ids_include_literals_spelling_the_iri() {
        // `=` compares an IRI with a literal by string form
        let (graph, [a, _, spelled]) = implied_graph();
        let mut want = vec![a, spelled];
        want.sort_unstable();
        assert_eq!(implied_ids(&is("v", "a"), "v", &graph), Some(want));
        // an IRI the graph does not intern contributes no id …
        assert_eq!(implied_ids(&is("v", "absent"), "v", &graph), Some(vec![]));
        // … and text a blank node's label could take implies nothing
        let blank = Expr::cmp(Expr::var("v"), CmpOp::Eq, Expr::Iri("_:b0".into()));
        assert_eq!(implied_ids(&blank, "v", &graph), None);
    }

    #[test]
    fn implied_by_in_only_over_iris() {
        let (graph, [a, b, spelled]) = implied_graph();
        let iri = |name: &str| Expr::Iri(format!("http://ex/{name}"));
        let list = Expr::In(Box::new(Expr::var("v")), vec![iri("b"), iri("a"), iri("b")]);
        let mut want = vec![a, b, spelled];
        want.sort_unstable();
        assert_eq!(implied_ids(&list, "v", &graph), Some(want));
        let empty = Expr::In(Box::new(Expr::var("v")), vec![]);
        assert_eq!(implied_ids(&empty, "v", &graph), Some(vec![]));
        // a literal in the list compares by value: nothing
        let mixed = Expr::In(
            Box::new(Expr::var("v")),
            vec![iri("b"), Expr::Literal(Literal::simple("x"))],
        );
        assert_eq!(implied_ids(&mixed, "v", &graph), None);
        let needle = Expr::In(Box::new(Expr::var("w")), vec![iri("b")]);
        assert_eq!(implied_ids(&needle, "v", &graph), None);
    }

    #[test]
    fn implied_literal_constants_imply_nothing() {
        let (graph, _) = implied_graph();
        let literal = Literal::simple("http://ex/a");
        let e = Expr::cmp(Expr::var("v"), CmpOp::Eq, Expr::Literal(literal));
        assert_eq!(implied_ids(&e, "v", &graph), None);
        let e = Expr::cmp(Expr::var("v"), CmpOp::Eq, Expr::Number(1.0));
        assert_eq!(implied_ids(&e, "v", &graph), None);
    }

    #[test]
    fn implied_conjunction_intersects_whichever_sides_imply() {
        let (graph, [_, b, _]) = implied_graph();
        let both = and(or(is("v", "a"), is("v", "b")), is("v", "b"));
        assert_eq!(implied_ids(&both, "v", &graph), Some(vec![b]));
        assert_eq!(
            implied_ids(&and(is("v", "a"), is("v", "b")), "v", &graph),
            Some(vec![])
        );
        // one side over another variable: the other side's set
        let one = and(is("w", "a"), is("v", "b"));
        assert_eq!(implied_ids(&one, "v", &graph), Some(vec![b]));
        assert_eq!(
            implied_ids(&and(is("w", "a"), is("w", "b")), "v", &graph),
            None
        );
    }

    #[test]
    fn implied_disjunction_unions_only_when_both_sides_imply() {
        let (graph, [a, b, spelled]) = implied_graph();
        let mut want = vec![a, b, spelled];
        want.sort_unstable();
        let dnf = or(
            and(is("v", "a"), is("w", "b")),
            and(is("w", "a"), is("v", "b")),
        );
        assert_eq!(implied_ids(&dnf, "v", &graph), Some(want));
        // a disjunct without ?v lets any value through
        let open = or(is("v", "a"), is("w", "b"));
        assert_eq!(implied_ids(&open, "v", &graph), None);
        let absent = or(is("v", "absent"), is("v", "b"));
        assert_eq!(implied_ids(&absent, "v", &graph), Some(vec![b]));
    }

    #[test]
    fn not_negates_and_propagates_errors() {
        let c = ctx();
        let e = Expr::Not(Box::new(Expr::Bool(false)));
        assert_eq!(eval(&c, &e), Some(Value::Bool(true)));
        let e = Expr::Not(Box::new(Expr::var("missing")));
        assert_eq!(eval(&c, &e), None);
    }
}
