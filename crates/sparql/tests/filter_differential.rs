//! Differential proof that the compiled filter evaluator
//! ([`CompiledExpr`]) — the only evaluator of WHERE filters and aggregate
//! arguments, on every execution path — computes exactly what the
//! tree-walking [`eval_expr`] computes: seeded random expressions over
//! random binding rows on all four datasets, compared value for value
//! (errors included) and verdict for verdict.
//!
//! The generators aim at the places where a compiled form could drift:
//! unbound variables under `&&` / `||` / `!` (three-valued logic, where
//! the compiled form short-circuits and the oracle does not), `BOUND`,
//! constants the graph does not intern, numerically equal but distinct
//! literals, an IRI against a literal spelling it (where the id-level
//! equality shortcut must not fire), `IN`, and arithmetic that divides by
//! zero. The same expressions check the member sets a filter implies
//! ([`implied_ids`], which the columnar kernel and derivation prune by):
//! whenever the compiled filter keeps a row, the row binds every implied
//! variable to an id of its set.

use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_rdf::vocab::xsd;
use re2x_rdf::{Graph, Literal, Term, TermId};
use re2x_sparql::expr::{eval_expr, implied_ids, CompiledExpr, EvalContext};
use re2x_sparql::{AggFunc, ArithOp, CmpOp, Expr, Func, Value};
use re2x_testkit::TestRng;

/// Variables the expressions draw from; a variable's slot is its position.
/// `?u` is bound in no row.
const VARS: [&str; 4] = ["a", "b", "c", "u"];

/// The oracle's view of a row: names resolve through [`VARS`].
struct Oracle<'g>(&'g Graph);

impl EvalContext for Oracle<'_> {
    type Row = [Option<TermId>];

    fn graph(&self) -> &Graph {
        self.0
    }

    fn lookup(&self, name: &str, row: &Self::Row) -> Option<Value> {
        let slot = VARS.iter().position(|v| *v == name)?;
        row[slot].map(Value::Term)
    }

    fn aggregate(&self, _func: AggFunc, _expr: &Expr, _row: &Self::Row) -> Option<Value> {
        None
    }
}

/// The terms and constants one dataset's cases draw from.
struct Pool {
    graph: Graph,
    /// Term ids rows bind: members, labels, measure values, and the
    /// hand-made corner cases below.
    terms: Vec<TermId>,
    /// IRI constants: interned ones and one the graph has never seen.
    iris: Vec<String>,
    /// Literal constants: interned and not, numeric and not.
    literals: Vec<Literal>,
    /// An IRI, a literal spelling it and a blank node.
    spelling: [TermId; 3],
}

fn pool(mut graph: Graph) -> Pool {
    // a spread of what the dataset itself holds
    let stride = (graph.interner().len() / 40).max(1);
    let mut terms: Vec<TermId> = graph
        .interner()
        .iter()
        .step_by(stride)
        .map(|(id, _)| id)
        .collect();
    let mut iris: Vec<String> = terms
        .iter()
        .filter_map(|&id| graph.term(id).as_iri().map(str::to_owned))
        .take(6)
        .collect();
    let mut literals: Vec<Literal> = terms
        .iter()
        .filter_map(|&id| graph.term(id).as_literal().cloned())
        .take(6)
        .collect();
    // numerically equal, distinct terms
    for literal in [
        Literal::typed("5", xsd::INTEGER),
        Literal::typed("5.0", xsd::DECIMAL),
        Literal::typed("05", xsd::INTEGER),
        Literal::integer(0),
        Literal::double(-2.5),
    ] {
        terms.push(graph.intern_literal(literal.clone()));
        literals.push(literal);
    }
    // an IRI, a literal spelling it, and a blank node
    let spelled = "http://ex.org/filter-differential/spelled";
    let spelling = [
        graph.intern_iri(spelled),
        graph.intern_literal(Literal::simple(spelled)),
        graph.intern(Term::blank("b0")),
    ];
    terms.extend(spelling);
    iris.push(spelled.to_owned());
    literals.push(Literal::simple(spelled));
    // constants the graph does not intern
    iris.push("http://ex.org/filter-differential/never-interned".to_owned());
    literals.push(Literal::simple("never interned"));
    literals.push(Literal::integer(5)); // equal to "5", "5.0" and "05" above
    literals.push(Literal::simple("Germany"));
    Pool {
        graph,
        terms,
        iris,
        literals,
        spelling,
    }
}

fn random_var(rng: &mut TestRng) -> Expr {
    Expr::var(*rng.pick(&VARS))
}

fn random_leaf(rng: &mut TestRng, pool: &Pool) -> Expr {
    match rng.pick_weighted(&[6, 3, 3, 2, 1]) {
        0 => random_var(rng),
        1 => Expr::Iri(rng.pick(&pool.iris).clone()),
        2 => Expr::Literal(rng.pick(&pool.literals).clone()),
        3 => Expr::Number(*rng.pick(&[0.0, 1.0, 5.0, -2.5, 1e9])),
        _ => Expr::Bool(rng.gen_bool(0.5)),
    }
}

fn random_expr(rng: &mut TestRng, pool: &Pool, depth: u32) -> Expr {
    if depth == 0 {
        return random_leaf(rng, pool);
    }
    let sub = |rng: &mut TestRng| Box::new(random_expr(rng, pool, depth - 1));
    match rng.pick_weighted(&[2, 4, 4, 6, 3, 2, 2, 3, 1]) {
        0 => Expr::Not(sub(rng)),
        1 => Expr::And(sub(rng), sub(rng)),
        2 => Expr::Or(sub(rng), sub(rng)),
        3 => {
            let ops = [
                CmpOp::Eq,
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
            Expr::Cmp(sub(rng), *rng.pick(&ops), sub(rng))
        }
        4 => {
            let ops = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
            Expr::Arith(sub(rng), *rng.pick(&ops), sub(rng))
        }
        5 => {
            let items = (0..rng.gen_range(0..4usize)).map(|_| *sub(rng)).collect();
            Expr::In(sub(rng), items)
        }
        6 => Expr::Call(Func::Bound, vec![random_var(rng)]),
        7 => {
            let funcs = [
                Func::Str,
                Func::LCase,
                Func::Abs,
                Func::IsIri,
                Func::IsLiteral,
                Func::IsNumeric,
            ];
            Expr::Call(*rng.pick(&funcs), vec![*sub(rng)])
        }
        _ => Expr::Call(Func::Contains, vec![*sub(rng), *sub(rng)]),
    }
}

/// The Similarity refinement's shape: a disjunction of conjunctions of
/// `?var = <member>` — the filter every refined session query carries.
fn random_dnf(rng: &mut TestRng, pool: &Pool) -> Expr {
    let alternative = |rng: &mut TestRng| {
        let eq = |rng: &mut TestRng, var: &str| {
            let (var, iri) = (Expr::var(var), Expr::Iri(rng.pick(&pool.iris).clone()));
            if rng.gen_bool(0.8) {
                Expr::cmp(var, CmpOp::Eq, iri)
            } else {
                Expr::cmp(iri, CmpOp::Eq, var)
            }
        };
        Expr::And(Box::new(eq(rng, "a")), Box::new(eq(rng, "b")))
    };
    (0..rng.gen_range(0..4usize)).fold(alternative(rng), |acc, _| {
        Expr::Or(Box::new(acc), Box::new(alternative(rng)))
    })
}

/// A filter expression: the Similarity DNF one time in five, a random
/// expression otherwise.
fn random_filter(rng: &mut TestRng, pool: &Pool) -> Expr {
    if rng.gen_bool(0.2) {
        random_dnf(rng, pool)
    } else {
        let depth = rng.gen_range(1..5u32);
        random_expr(rng, pool, depth)
    }
}

/// `NaN != NaN` must not fail the comparison of two evaluators that both
/// computed it.
fn same(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::Number(x)), Some(Value::Number(y))) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn property_compiled_agrees_with_oracle(graph: Graph, name: &str) {
    let pool = pool(graph);
    let graph = &pool.graph;
    re2x_testkit::check(name, |rng| {
        let expr = random_filter(rng, &pool);
        let mut slot_of = |name: &str| VARS.iter().position(|v| *v == name).expect("known var");
        let compiled = CompiledExpr::compile(&expr, graph, &mut slot_of);
        for _ in 0..24 {
            let mut row: Vec<Option<TermId>> = (0..3)
                .map(|_| rng.gen_bool(0.8).then(|| *rng.pick(&pool.terms)))
                .collect();
            row.push(None); // ?u
            let want = eval_expr(&expr, &Oracle(graph), row.as_slice());
            let got = compiled.eval(graph, row.as_slice());
            let text = re2x_sparql::pretty::expr(&expr);
            assert!(
                same(&got, &want),
                "{text} on {row:?}: compiled {got:?}, oracle {want:?}"
            );
            assert_eq!(
                compiled.keeps(graph, row.as_slice()),
                want == Some(Value::Bool(true)),
                "{text} on {row:?}: verdict differs from oracle {want:?}"
            );
        }
    });
}

/// The member sets a filter implies ([`implied_ids`]), over the same
/// expressions: whenever the compiled filter keeps a row, the row binds
/// every implied variable to an id of its set. Half the rows are drawn as
/// above, half aimed at the implied sets and at the terms spelling an IRI,
/// so that some are kept.
fn property_implied_ids_hold_on_kept_rows(graph: Graph, name: &str) {
    let pool = pool(graph);
    let graph = &pool.graph;
    let kept = std::cell::Cell::new(0usize);
    re2x_testkit::check(name, |rng| {
        let expr = random_filter(rng, &pool);
        let mut slot_of = |name: &str| VARS.iter().position(|v| *v == name).expect("known var");
        let compiled = CompiledExpr::compile(&expr, graph, &mut slot_of);
        let implied: Vec<(usize, Vec<TermId>)> = (VARS.iter().enumerate())
            .filter_map(|(slot, var)| Some((slot, implied_ids(&expr, var, graph)?)))
            .collect();
        for round in 0..24 {
            let aimed = round % 2 == 1;
            let mut row: Vec<Option<TermId>> = (0..3)
                .map(|slot| match implied.iter().find(|(s, _)| *s == slot) {
                    Some((_, ids)) if aimed && !ids.is_empty() && rng.gen_bool(0.7) => {
                        Some(*rng.pick(ids))
                    }
                    Some(_) if aimed => Some(*rng.pick(&pool.spelling)),
                    _ => rng.gen_bool(0.8).then(|| *rng.pick(&pool.terms)),
                })
                .collect();
            row.push(None); // ?u
            if !compiled.keeps(graph, row.as_slice()) {
                continue;
            }
            kept.set(kept.get() + usize::from(!implied.is_empty()));
            let text = re2x_sparql::pretty::expr(&expr);
            for (slot, ids) in &implied {
                let bound = row[*slot].is_some_and(|id| ids.binary_search(&id).is_ok());
                assert!(bound, "{text} keeps {row:?} outside {ids:?}");
            }
        }
    });
    if std::env::var("RE2X_TEST_SEED").is_err() {
        assert!(kept.get() > 0, "{name}: no kept row had an implied set");
    }
}

#[test]
fn compiled_filters_agree_with_the_oracle_on_running_example() {
    property_compiled_agrees_with_oracle(running::generate().graph, "filter_diff_running");
}

#[test]
fn compiled_filters_agree_with_the_oracle_on_eurostat() {
    property_compiled_agrees_with_oracle(eurostat::generate(200, 3).graph, "filter_diff_eurostat");
}

#[test]
fn compiled_filters_agree_with_the_oracle_on_production() {
    property_compiled_agrees_with_oracle(
        production::generate(200, 5).graph,
        "filter_diff_production",
    );
}

#[test]
fn compiled_filters_agree_with_the_oracle_on_dbpedia() {
    property_compiled_agrees_with_oracle(dbpedia::generate(150, 7).graph, "filter_diff_dbpedia");
}

#[test]
fn implied_ids_hold_on_every_kept_row() {
    property_implied_ids_hold_on_kept_rows(running::generate().graph, "implied_running");
    property_implied_ids_hold_on_kept_rows(eurostat::generate(200, 3).graph, "implied_eurostat");
    property_implied_ids_hold_on_kept_rows(
        production::generate(200, 5).graph,
        "implied_production",
    );
    property_implied_ids_hold_on_kept_rows(dbpedia::generate(150, 7).graph, "implied_dbpedia");
}

/// Malformed calls (constructible only through the AST, never the parser)
/// must evaluate to the error value, not panic, and a slot outside the row
/// reads as unbound.
#[test]
fn malformed_calls_and_foreign_slots_are_errors_not_panics() {
    let graph = running::generate().graph;
    let row: [Option<TermId>; 1] = [None];
    let malformed = [
        Expr::Call(Func::Str, vec![]),
        Expr::Call(Func::Contains, vec![Expr::Number(1.0)]),
        Expr::Call(Func::Bound, vec![]),
        Expr::Call(Func::Bound, vec![Expr::Number(1.0)]),
        Expr::Agg(AggFunc::Sum, Box::new(Expr::Number(1.0))),
    ];
    for expr in malformed {
        let compiled = CompiledExpr::compile(&expr, &graph, &mut |_| 0);
        assert_eq!(compiled.eval(&graph, &row[..]), None, "{expr:?}");
        assert!(!compiled.keeps(&graph, &row[..]), "{expr:?}");
    }
    let foreign = CompiledExpr::compile(&Expr::var("x"), &graph, &mut |_| usize::MAX);
    assert_eq!(foreign.eval(&graph, &row[..]), None);
    let bound = Expr::Call(Func::Bound, vec![Expr::var("x")]);
    let bound = CompiledExpr::compile(&bound, &graph, &mut |_| usize::MAX);
    assert_eq!(bound.eval(&graph, &row[..]), Some(Value::Bool(false)));
}
