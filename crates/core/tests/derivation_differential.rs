//! Differential proof that a refinement answered from the parent step's
//! rows ([`derive`]) is the answer the endpoint would give: every step of
//! seeded sessions chaining the four ExRef operations in every order equals
//! `endpoint.select(&step.query.query)` row for row and `to_tsv` byte for
//! byte — no tolerance — on all four datasets, over a bare
//! [`LocalEndpoint`], a [`CachingEndpoint`] and a [`ShardedEndpoint`] with
//! 2 and 4 shards. Fixtures pin the corners (ties at the `HAVING` boundary,
//! a group whose measure is unbound, empty results) and the refusals: what
//! [`derive`] cannot prove a restriction of the current rows is executed.

use re2x_cube::{bootstrap, BootstrapConfig, VirtualSchemaGraph};
use re2x_datagen::common::{example_workload_on, Dataset};
use re2x_rdf::io::parse_turtle;
use re2x_rdf::Graph;
use re2x_sparql::{
    to_tsv, AggFunc, CachingEndpoint, CmpOp, Expr, LocalEndpoint, PatternElement, ShardedEndpoint,
    SparqlEndpoint,
};
use re2x_testkit::{check_n, TestRng};
use re2xolap::refine::derive::derive;
use re2xolap::{
    OlapQuery, Re2xError, RefineOp, Refinement, RefinementKind, Session, SessionConfig, Step,
};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The endpoint stacks every property runs over.
const STACKS: [&str; 4] = ["local", "cached", "sharded2", "sharded4"];

fn stack(name: &str, graph: &Graph, class: &str) -> Box<dyn SparqlEndpoint> {
    let sharded = |n| ShardedEndpoint::with_observation_class(graph.clone(), class, n);
    match name {
        "local" => Box::new(LocalEndpoint::new(graph.clone())),
        "cached" => Box::new(CachingEndpoint::new(LocalEndpoint::new(graph.clone()))),
        "sharded2" => Box::new(sharded(2)),
        "sharded4" => Box::new(sharded(4)),
        other => panic!("unknown stack {other}"),
    }
}

fn schema_of(graph: &Graph, class: &str) -> VirtualSchemaGraph {
    let endpoint = LocalEndpoint::new(graph.clone());
    bootstrap(&endpoint, &BootstrapConfig::new(class))
        .expect("bootstrap")
        .schema
}

/// The current step against the endpoint's own answer to its query.
fn assert_step_is_the_executed_answer(endpoint: &dyn SparqlEndpoint, step: &Step, context: &str) {
    let executed = endpoint.select(&step.query.query).expect("query runs");
    let sparql = step.query.sparql();
    assert_eq!(
        step.solutions, executed,
        "{context}: derived={} diverges on\n{sparql}",
        step.derived
    );
    let graph = endpoint.graph();
    assert_eq!(
        to_tsv(&step.solutions, graph),
        to_tsv(&executed, graph),
        "{context}: TSV diverges on\n{sparql}"
    );
    if step.derived {
        assert_eq!(step.cost.endpoint_queries, 0, "{context}: derived step");
    }
}

fn op_name(op: RefineOp) -> &'static str {
    match op {
        RefineOp::Disaggregate => "dis",
        RefineOp::TopK => "topk",
        RefineOp::Percentile => "perc",
        RefineOp::Similarity => "sim",
    }
}

/// Seeded sessions over one dataset and stack: an example anchored at a
/// real observation, a synthesized query, then six rounds of a random
/// refinement (sometimes applied only after a `backtrack`, i.e. to a step
/// it was not generated from). Returns the `(previous op, op)` pairs of
/// consecutive applied refinements and how many steps were derived.
fn property_sessions_match_execution(
    dataset: &Dataset,
    schema: &VirtualSchemaGraph,
    stack_name: &str,
    cases: u32,
) -> (BTreeSet<(&'static str, &'static str)>, u32) {
    let endpoint = stack(stack_name, &dataset.graph, &dataset.observation_class);
    let endpoint = endpoint.as_ref();
    let pairs = RefCell::new(BTreeSet::new());
    let derived = RefCell::new(0u32);
    let name = format!("derivation_differential_{}_{stack_name}", dataset.name);
    check_n(&name, cases, |rng: &mut TestRng| {
        let size = rng
            .gen_range(1..3usize)
            .min(dataset.dimension_predicates.len());
        let example = example_workload_on(endpoint.graph(), dataset, size, 1, rng.next_u64())
            .pop()
            .expect("one tuple");
        let parts: Vec<&str> = example.iter().map(String::as_str).collect();
        let mut session = Session::new(endpoint, schema, SessionConfig::default());
        let mut queries = match session.synthesize(&parts) {
            Ok(outcome) => outcome.queries,
            Err(Re2xError::NoMatch { .. } | Re2xError::TooManyInterpretations { .. }) => return,
            Err(other) => panic!("{example:?}: {other:?}"),
        };
        if queries.is_empty() {
            return;
        }
        let query = queries.swap_remove(rng.gen_range(0..queries.len()));
        let step = session.choose(query).expect("chosen query runs");
        assert!(!step.derived, "an opening query has no parent");
        assert_step_is_the_executed_answer(endpoint, step, "opening");

        let mut previous = "open";
        for round in 0..6 {
            let op = *rng.pick(&RefineOp::ALL);
            let mut offers = session.refinements(op).expect("refinements");
            if offers.is_empty() {
                continue;
            }
            let offer = offers.swap_remove(rng.gen_range(0..offers.len()));
            // one time in six the offer goes stale first
            let stale = rng.gen_bool(1.0 / 6.0) && session.backtrack();
            let step = session.apply(offer).expect("refined query runs");
            let context = format!("{example:?} round {round} {op:?} stale={stale}");
            assert_step_is_the_executed_answer(endpoint, step, &context);
            if !stale {
                // the suite's restrictions always derive, a drill-down never
                assert_eq!(
                    step.derived,
                    op != RefineOp::Disaggregate,
                    "{context}:\n{}",
                    step.query.sparql()
                );
                pairs.borrow_mut().insert((previous, op_name(op)));
            }
            *derived.borrow_mut() += u32::from(step.derived);
            previous = if stale { "stale" } else { op_name(op) };
        }
    });
    (pairs.into_inner(), derived.into_inner())
}

/// Runs the session property over every stack and, with `every_chain`,
/// checks the chains it walked: every restriction applied right after
/// every operation (the running example is too small to offer them all).
fn assert_dataset(dataset: Dataset, cases: u32, every_chain: bool) {
    let schema = schema_of(&dataset.graph, &dataset.observation_class);
    for stack_name in STACKS {
        let (pairs, derived) =
            property_sessions_match_execution(&dataset, &schema, stack_name, cases);
        if std::env::var("RE2X_TEST_SEED").is_ok() || std::env::var("RE2X_TEST_CASES").is_ok() {
            continue; // a replay or a shortened run walks fewer chains
        }
        assert!(derived > 0, "{stack_name}: no step was derived");
        for first in ["dis", "topk", "perc", "sim"] {
            for then in ["topk", "perc", "sim"] {
                assert!(
                    !every_chain || pairs.contains(&(first, then)),
                    "{} on {stack_name}: no session applied {then} right after {first}: {pairs:?}",
                    dataset.name
                );
            }
        }
    }
}

#[test]
fn running_example_sessions_match_execution() {
    assert_dataset(re2x_datagen::running::generate(), 48, false);
}

#[test]
fn eurostat_sessions_match_execution() {
    assert_dataset(re2x_datagen::eurostat::generate(500, 7), 40, true);
}

#[test]
fn production_sessions_match_execution() {
    assert_dataset(re2x_datagen::production::generate(400, 11), 40, true);
}

/// M-to-N levels: a song has several genres, so one observation feeds
/// several groups and the joins fan out.
#[test]
fn dbpedia_sessions_match_execution() {
    assert_dataset(re2x_datagen::dbpedia::generate(400, 13), 40, true);
}

// ---- fixtures: boundaries, unbound measures, refusals ---------------------

/// Eight destinations: three tie at 300, two at 100, and Malta's only
/// observation carries a non-numeric measure, so its aggregates are unbound.
fn ties_fixture() -> (Graph, VirtualSchemaGraph) {
    let mut graph = Graph::new();
    parse_turtle(
        r#"
        @prefix ex: <http://ex/> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:Germany rdfs:label "Germany" . ex:France rdfs:label "France" .
        ex:Sweden rdfs:label "Sweden" .   ex:Italy rdfs:label "Italy" .
        ex:Spain rdfs:label "Spain" .     ex:Austria rdfs:label "Austria" .
        ex:Greece rdfs:label "Greece" .   ex:Malta rdfs:label "Malta" .
        ex:Syria rdfs:label "Syria" .     ex:China rdfs:label "China" .

        ex:o1 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:Syria ; ex:applicants 200 .
        ex:o2 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:China ; ex:applicants 100 .
        ex:o3 a ex:Obs ; ex:dest ex:France ; ex:origin ex:Syria ; ex:applicants 300 .
        ex:o4 a ex:Obs ; ex:dest ex:Sweden ; ex:origin ex:Syria ; ex:applicants 150 .
        ex:o5 a ex:Obs ; ex:dest ex:Sweden ; ex:origin ex:China ; ex:applicants 150 .
        ex:o6 a ex:Obs ; ex:dest ex:Italy ; ex:origin ex:Syria ; ex:applicants 100 .
        ex:o7 a ex:Obs ; ex:dest ex:Spain ; ex:origin ex:China ; ex:applicants 100 .
        ex:o8 a ex:Obs ; ex:dest ex:Austria ; ex:origin ex:Syria ; ex:applicants 500 .
        ex:o9 a ex:Obs ; ex:dest ex:Greece ; ex:origin ex:China ; ex:applicants 40 .
        ex:o10 a ex:Obs ; ex:dest ex:Malta ; ex:origin ex:China ; ex:applicants "n/a" .
        "#,
        &mut graph,
    )
    .expect("fixture parses");
    let schema = schema_of(&graph, "http://ex/Obs");
    (graph, schema)
}

/// A session on the fixture whose current step groups by destination.
fn open_by_destination<'a>(
    endpoint: &'a dyn SparqlEndpoint,
    schema: &'a VirtualSchemaGraph,
    example: &str,
) -> Session<'a> {
    let mut session = Session::new(endpoint, schema, SessionConfig::default());
    let outcome = session.synthesize(&[example]).expect("synthesis");
    let by_dest = outcome
        .queries
        .into_iter()
        .find(|q| q.group_columns.iter().any(|c| c.var == "dest"))
        .expect("a destination interpretation");
    session.choose(by_dest).expect("runs");
    session
}

/// A child of the current step with its query edited by `edit`.
fn hand_built(session: &Session, edit: impl FnOnce(&mut OlapQuery)) -> Refinement {
    let mut query = session.current().expect("a step").query.clone();
    edit(&mut query);
    Refinement {
        query,
        kind: RefinementKind::Similarity {
            measure_alias: String::new(),
            k: 0,
        },
        explanation: "hand-built".to_owned(),
    }
}

fn sum_applicants() -> Expr {
    Expr::Agg(AggFunc::Sum, Box::new(Expr::var("m0")))
}

fn and_having(query: &mut OlapQuery, condition: Expr) {
    query.query.having = Some(match query.query.having.take() {
        Some(existing) => Expr::And(Box::new(existing), Box::new(condition)),
        None => condition,
    });
}

#[test]
fn ties_at_the_having_boundary_and_unbound_measures() {
    let (graph, schema) = ties_fixture();
    for stack_name in STACKS {
        let endpoint = stack(stack_name, &graph, "http://ex/Obs");
        let endpoint = endpoint.as_ref();
        let mut session = open_by_destination(endpoint, &schema, "France");
        let parent = session.current().expect("step").clone();
        assert_eq!(
            parent.solutions.len(),
            8,
            "{stack_name}: one row per destination"
        );
        let sum = parent
            .solutions
            .column("sum_applicants")
            .expect("SUM column");
        let unbound = parent
            .solutions
            .rows
            .iter()
            .filter(|r| r[sum].is_none())
            .count();
        assert_eq!(unbound, 1, "{stack_name}: Malta's SUM is unbound");

        // every offered dice: France ties with Germany and Sweden at 300
        for op in [RefineOp::TopK, RefineOp::Percentile] {
            let offers = session.refinements(op).expect("offers");
            assert!(!offers.is_empty(), "{stack_name}: {op:?} offers nothing");
            for offer in offers {
                let step = session.apply(offer).expect("runs");
                assert!(step.derived, "{stack_name}: {op:?}");
                assert!(step.solutions.rows.iter().all(|r| r[sum].is_some()));
                assert_step_is_the_executed_answer(endpoint, step, stack_name);
                assert!(session.backtrack());
            }
        }

        // thresholds exactly on the tied values, every comparison
        for threshold in [100.0, 300.0] {
            for cmp in [
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Le,
                CmpOp::Lt,
            ] {
                let child = hand_built(&session, |q| {
                    and_having(q, Expr::cmp(sum_applicants(), cmp, Expr::Number(threshold)));
                });
                let step = session.apply(child).expect("runs");
                assert!(step.derived, "{stack_name}: SUM {cmp:?} {threshold}");
                // an unbound SUM is an error under every comparison
                assert!(step.solutions.rows.iter().all(|r| r[sum].is_some()));
                assert_step_is_the_executed_answer(endpoint, step, stack_name);
                assert!(session.backtrack());
            }
        }

        // a second conjunct on top of the first, then an empty result
        let at_least = |n: f64| Expr::cmp(sum_applicants(), CmpOp::Ge, Expr::Number(n));
        let child = hand_built(&session, |q| and_having(q, at_least(100.0)));
        assert_eq!(session.apply(child).expect("runs").solutions.len(), 6);
        let child = hand_built(&session, |q| and_having(q, at_least(300.0)));
        let step = session.apply(child).expect("runs");
        assert!(step.derived && step.solutions.len() == 4, "{stack_name}");
        assert_step_is_the_executed_answer(endpoint, step, stack_name);
        let child = hand_built(&session, |q| and_having(q, at_least(1e9)));
        let step = session.apply(child).expect("runs");
        assert!(step.derived && step.solutions.is_empty(), "{stack_name}");
        assert_step_is_the_executed_answer(endpoint, step, stack_name);
        // … from which nothing but the empty result derives
        let child = hand_built(&session, |q| and_having(q, at_least(0.0)));
        let step = session.apply(child).expect("runs");
        assert!(step.derived && step.solutions.is_empty(), "{stack_name}");
        assert_step_is_the_executed_answer(endpoint, step, stack_name);
    }
}

#[test]
fn filters_over_group_keys_derive() {
    let (graph, schema) = ties_fixture();
    let is = |var: &str, name: &str| {
        Expr::cmp(
            Expr::var(var),
            CmpOp::Eq,
            Expr::Iri(format!("http://ex/{name}")),
        )
    };
    for stack_name in STACKS {
        let endpoint = stack(stack_name, &graph, "http://ex/Obs");
        let endpoint = endpoint.as_ref();
        let mut session = open_by_destination(endpoint, &schema, "France");
        for (filter, rows) in [
            (
                Expr::Or(
                    Box::new(is("dest", "France")),
                    Box::new(is("dest", "Malta")),
                ),
                2,
            ),
            // an IRI the graph does not intern, a literal spelling one, negation
            (is("dest", "Atlantis"), 0),
            (
                Expr::cmp(Expr::var("dest"), CmpOp::Eq, Expr::Number(3.0)),
                0,
            ),
            (Expr::Not(Box::new(is("dest", "France"))), 7),
        ] {
            let child = hand_built(&session, |q| {
                q.query.wher.push(PatternElement::Filter(filter.clone()));
            });
            let step = session.apply(child).expect("runs");
            assert!(step.derived, "{stack_name}: {filter:?}");
            assert_eq!(step.solutions.len(), rows, "{stack_name}: {filter:?}");
            assert_step_is_the_executed_answer(endpoint, step, stack_name);
            assert!(session.backtrack());
        }
    }
}

/// Similarity filters the id pre-check must not get wrong: a member IRI
/// absent from the graph, a variable missing from some disjuncts (so it
/// implies no member set), `IN`, on a step grouped by destination and
/// origin.
#[test]
fn similarity_filters_with_absent_members_and_partial_disjuncts_derive() {
    let (graph, schema) = ties_fixture();
    for stack_name in STACKS {
        let endpoint = stack(stack_name, &graph, "http://ex/Obs");
        let endpoint = endpoint.as_ref();
        let mut session = open_by_destination(endpoint, &schema, "France");
        let dis = session.refinements(RefineOp::Disaggregate).expect("offers");
        let by_origin = dis.into_iter().next().expect("origin can be added");
        session.apply(by_origin).expect("runs");
        let keys = &session.current().expect("a step").query.query.group_by;
        let origin = keys
            .iter()
            .find(|k| *k != "dest")
            .expect("a second key")
            .clone();
        let is = |var: &str, name: &str| {
            Expr::cmp(
                Expr::var(var),
                CmpOp::Eq,
                Expr::Iri(format!("http://ex/{name}")),
            )
        };
        let and = |a: Expr, b: Expr| Expr::And(Box::new(a), Box::new(b));
        let or = |a: Expr, b: Expr| Expr::Or(Box::new(a), Box::new(b));
        let o = origin.as_str();
        for (filter, rows) in [
            // ?dest is missing from the second disjunct
            (
                or(and(is("dest", "France"), is(o, "Syria")), is(o, "China")),
                6,
            ),
            // a member the graph does not hold
            (
                or(
                    and(is("dest", "Atlantis"), is(o, "Syria")),
                    and(is("dest", "Germany"), is(o, "China")),
                ),
                1,
            ),
            (or(is("dest", "Atlantis"), is(o, "Atlantis")), 0),
            (
                and(
                    Expr::In(
                        Box::new(Expr::var("dest")),
                        vec![
                            Expr::Iri("http://ex/Germany".to_owned()),
                            Expr::Iri("http://ex/Atlantis".to_owned()),
                        ],
                    ),
                    or(is(o, "Syria"), is("dest", "Sweden")),
                ),
                1,
            ),
        ] {
            let child = hand_built(&session, |q| {
                q.query.wher.push(PatternElement::Filter(filter.clone()));
            });
            let step = session.apply(child).expect("runs");
            assert!(step.derived, "{stack_name}: {filter:?}");
            assert_eq!(step.solutions.len(), rows, "{stack_name}: {filter:?}");
            assert_step_is_the_executed_answer(endpoint, step, stack_name);
            assert!(session.backtrack());
        }
    }
}

/// What the structural rule does not cover is executed — and still right.
#[test]
fn refusals_execute_through_the_endpoint() {
    let (graph, schema) = ties_fixture();
    for stack_name in STACKS {
        let endpoint = stack(stack_name, &graph, "http://ex/Obs");
        let endpoint = endpoint.as_ref();
        let mut session = open_by_destination(endpoint, &schema, "France");

        let refused = |session: &mut Session, child: Refinement, why: &str| {
            let parent = session.current().expect("a step");
            assert!(
                derive(parent, &child.query, endpoint.graph()).is_none(),
                "{stack_name}: derive accepted {why}"
            );
            let selects = endpoint.stats().selects;
            let step = session.apply(child).expect("runs");
            assert!(!step.derived, "{stack_name}: {why}");
            assert_eq!(step.cost.endpoint_queries, 1, "{stack_name}: {why}");
            assert_eq!(endpoint.stats().selects, selects + 1, "{stack_name}: {why}");
            assert_step_is_the_executed_answer(endpoint, step, why);
        };

        // a slice of the parent is not a restriction by value
        let child = hand_built(&session, |q| q.query.limit = Some(3));
        refused(&mut session, child, "a LIMIT");
        // the step just pushed carries the LIMIT: nothing derives from it either
        let child = hand_built(&session, |q| {
            and_having(
                q,
                Expr::cmp(sum_applicants(), CmpOp::Gt, Expr::Number(100.0)),
            );
        });
        refused(&mut session, child, "a parent with LIMIT");
        assert!(session.backtrack() && session.backtrack());

        // COUNT is not among the projected aggregates: no cell holds it
        let child = hand_built(&session, |q| {
            let count = Expr::Agg(AggFunc::Count, Box::new(Expr::var("m0")));
            and_having(q, Expr::cmp(count, CmpOp::Gt, Expr::Number(1.0)));
        });
        refused(
            &mut session,
            child,
            "a HAVING aggregate that is not projected",
        );
        assert!(session.backtrack());

        // a filter on the measure drops rows inside groups
        let child = hand_built(&session, |q| {
            let small = Expr::cmp(Expr::var("m0"), CmpOp::Lt, Expr::Number(200.0));
            q.query.wher.push(PatternElement::Filter(small));
        });
        refused(&mut session, child, "a filter on a non-key variable");
        assert!(session.backtrack());

        // a HAVING that replaces the parent's instead of extending it
        let child = hand_built(&session, |q| {
            and_having(
                q,
                Expr::cmp(sum_applicants(), CmpOp::Gt, Expr::Number(100.0)),
            );
        });
        assert!(session.apply(child).expect("runs").derived);
        let child = hand_built(&session, |q| {
            q.query.having = Some(Expr::cmp(sum_applicants(), CmpOp::Gt, Expr::Number(50.0)));
        });
        refused(&mut session, child, "a weaker HAVING");
        assert!(session.backtrack() && session.backtrack());

        // a drill-down regroups
        let dis = session.refinements(RefineOp::Disaggregate).expect("offers");
        let by_origin = dis.into_iter().next().expect("origin can be added");
        refused(&mut session, by_origin, "a Disaggregate");

        // generated from the drilled-down step, applied after backtracking
        // to the step above it
        let tops = session.refinements(RefineOp::TopK).expect("offers");
        let top = tops.into_iter().next().expect("a top-k offer");
        assert!(session.backtrack());
        refused(
            &mut session,
            top,
            "a refinement of a step no longer current",
        );
    }
}
