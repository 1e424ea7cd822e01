//! Differential proof that the dense refinement kernels — Top-k, Percentile
//! and Similarity reading one id / `f64` view of the step — offer exactly
//! what the per-row kernels they replaced offered. The old kernels are kept
//! verbatim at the end of this file as the oracle, and every offer list
//! must compare `==` to theirs (refined query, kind, explanation), with no
//! tolerance:
//!
//! * at every step of seeded session chains on all four datasets, the
//!   refinement operations applied in every order (as the derivation suite
//!   walks them), for several `k` and percentile boundary lists;
//! * on seeded hand-built result tables mixing unbound and non-term cells,
//!   duplicate (ungrouped) rows, NaN / ±inf / ±0 measures and multi-tuple
//!   examples naming absent members;
//! * on named corners: duplicate item keys, an unbound example cell,
//!   special measure values, a zero-norm example, `k ≥ items`, and an
//!   example absent from the rows or from the graph.

use re2x_cube::{bootstrap, BootstrapConfig, LevelId, MeasureId, VirtualSchemaGraph};
use re2x_datagen::common::{example_workload_on, Dataset};
use re2x_rdf::{Graph, Literal};
use re2x_sparql::{AggFunc, LocalEndpoint, Query, Solutions, SparqlEndpoint, Value};
use re2x_testkit::{check_n, TestRng};
use re2xolap::refine::subset::DEFAULT_PERCENTILES;
use re2xolap::refine::{similar, subset};
use re2xolap::{
    ExampleBinding, GroupColumn, MeasureColumn, OlapQuery, Re2xError, RefineOp, Refinement,
    Session, SessionConfig,
};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// The `k`s every Similarity comparison runs with.
const KS: [usize; 5] = [0, 1, 2, 3, 1_000];

/// The percentile boundary lists every Percentile comparison runs with.
const BOUNDARIES: [&[u8]; 4] = [&DEFAULT_PERCENTILES, &[50], &[], &[99, 1, 50, 50, 0, 100]];

/// `ours == theirs`, compared through `Debug`: offers carry `f64`s (a
/// `HAVING` threshold can be NaN, which `PartialEq` never equates), and
/// `Debug` prints every other float exactly — the shortest round-trip form,
/// `-0.0` included.
fn assert_same(ours: &[Refinement], theirs: &[Refinement], context: &str, query: &OlapQuery) {
    assert_eq!(
        format!("{ours:?}"),
        format!("{theirs:?}"),
        "{context} diverges on\n{}",
        query.sparql()
    );
}

/// Every Top-k / Percentile / Similarity offer list on one step, against
/// the oracle's. With `exact_sums` — integer measures, whose sums are exact
/// and so the same in any order — Similarity must also equal the old kernel
/// summing in hash-map order.
fn assert_offers_match(
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    solutions: &Solutions,
    graph: &Graph,
    exact_sums: bool,
    context: &str,
) {
    assert_same(
        &subset::topk(schema, query, solutions, graph),
        &oracle::subset::topk(schema, query, solutions, graph),
        &format!("{context}: top-k"),
        query,
    );
    for boundaries in BOUNDARIES {
        assert_same(
            &subset::percentile(schema, query, solutions, graph, boundaries),
            &oracle::subset::percentile(schema, query, solutions, graph, boundaries),
            &format!("{context}: percentile {boundaries:?}"),
            query,
        );
    }
    for k in KS {
        let ours = similar::similarity(schema, query, solutions, graph, k);
        let context = format!("{context}: similarity k={k}");
        let theirs = oracle::similar::similarity(schema, query, solutions, graph, k);
        assert_same(&ours, &theirs, &context, query);
        if exact_sums {
            let hashed = oracle::similar_hashed::similarity(schema, query, solutions, graph, k);
            assert_same(&ours, &hashed, &format!("{context} (hash order)"), query);
        }
    }
}

// ---- seeded session chains over the four datasets --------------------------

fn op_name(op: RefineOp) -> &'static str {
    match op {
        RefineOp::Disaggregate => "dis",
        RefineOp::TopK => "topk",
        RefineOp::Percentile => "perc",
        RefineOp::Similarity => "sim",
    }
}

/// Seeded sessions: an example anchored at a real observation, a
/// synthesized query, then six rounds of a random refinement. Every step's
/// offers are checked, and so is each offer list the session itself hands
/// out. Returns the `(previous op, op)` pairs of consecutive applied
/// refinements.
fn chains_match(
    dataset: &Dataset,
    exact_sums: bool,
    cases: u32,
) -> BTreeSet<(&'static str, &'static str)> {
    let graph = &dataset.graph;
    let endpoint = LocalEndpoint::new(graph.clone());
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;
    let pairs = RefCell::new(BTreeSet::new());
    let name = format!("refine_differential_{}", dataset.name);
    check_n(&name, cases, |rng: &mut TestRng| {
        let size = rng
            .gen_range(1..3usize)
            .min(dataset.dimension_predicates.len());
        let example = example_workload_on(endpoint.graph(), dataset, size, 1, rng.next_u64())
            .pop()
            .expect("one tuple");
        let parts: Vec<&str> = example.iter().map(String::as_str).collect();
        let config = SessionConfig::default();
        let (similarity_k, percentiles) = (config.similarity_k, config.percentiles.clone());
        let mut session = Session::new(&endpoint, &schema, config);
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
        let (query, solutions) = (&step.query, &step.solutions);
        assert_offers_match(&schema, query, solutions, graph, exact_sums, "opening");

        let mut previous = "open";
        for round in 0..6 {
            let op = *rng.pick(&RefineOp::ALL);
            let context = format!("{example:?} round {round} {op:?} after {previous}");
            let mut offers = session.refinements(op).expect("refinements");
            let step = session.current().expect("a step");
            let (query, solutions) = (&step.query, &step.solutions);
            let expected = match op {
                RefineOp::Disaggregate => offers.clone(),
                RefineOp::TopK => oracle::subset::topk(&schema, query, solutions, graph),
                RefineOp::Percentile => {
                    oracle::subset::percentile(&schema, query, solutions, graph, &percentiles)
                }
                RefineOp::Similarity => {
                    oracle::similar::similarity(&schema, query, solutions, graph, similarity_k)
                }
            };
            assert_same(
                &offers,
                &expected,
                &format!("{context}: session offers"),
                query,
            );
            if offers.is_empty() {
                continue;
            }
            let offer = offers.swap_remove(rng.gen_range(0..offers.len()));
            let step = session.apply(offer).expect("refined query runs");
            let (query, solutions) = (&step.query, &step.solutions);
            assert_offers_match(&schema, query, solutions, graph, exact_sums, &context);
            pairs.borrow_mut().insert((previous, op_name(op)));
            previous = op_name(op);
        }
    });
    pairs.into_inner()
}

/// Runs the chains and, with `every_chain`, checks that every restriction
/// was applied right after every operation. `exact_sums`: the dataset's
/// measures are integers.
fn assert_dataset(dataset: Dataset, exact_sums: bool, cases: u32, every_chain: bool) {
    let pairs = chains_match(&dataset, exact_sums, cases);
    if !every_chain
        || std::env::var("RE2X_TEST_SEED").is_ok()
        || std::env::var("RE2X_TEST_CASES").is_ok()
    {
        return; // a replay or a shortened run walks fewer chains
    }
    for first in ["dis", "topk", "perc", "sim"] {
        for then in ["topk", "perc", "sim"] {
            assert!(
                pairs.contains(&(first, then)),
                "{}: no session applied {then} right after {first}: {pairs:?}",
                dataset.name
            );
        }
    }
}

#[test]
fn running_example_chains_match_the_oracle() {
    assert_dataset(re2x_datagen::running::generate(), true, 48, false);
}

#[test]
fn eurostat_chains_match_the_oracle() {
    assert_dataset(re2x_datagen::eurostat::generate(500, 7), true, 40, true);
}

/// Float measures: sums round, and the old kernel's ranking of items that
/// tie up to rounding followed its hash maps' iteration order.
#[test]
fn production_chains_match_the_oracle() {
    assert_dataset(re2x_datagen::production::generate(400, 11), false, 40, true);
}

/// M-to-N levels: one observation feeds several groups.
#[test]
fn dbpedia_chains_match_the_oracle() {
    assert_dataset(re2x_datagen::dbpedia::generate(400, 13), true, 40, true);
}

// ---- hand-built result tables ---------------------------------------------

/// Three one-level dimensions (destination, origin, year), five members
/// each, and two measures.
struct Fixture {
    schema: VirtualSchemaGraph,
    graph: Graph,
    levels: [LevelId; 3],
    measures: [MeasureId; 2],
}

const VARS: [&str; 3] = ["dest", "origin", "year"];
const ALIASES: [&str; 2] = ["sum_a", "avg_b"];

impl Fixture {
    fn new() -> Fixture {
        let mut schema = VirtualSchemaGraph::new("http://ex/Obs");
        let levels = VARS.map(|var| {
            let predicate = format!("http://ex/{var}");
            let dimension = schema.add_dimension(&predicate, var);
            schema.add_level(dimension, vec![predicate], 5, vec![], var)
        });
        let measures = [
            schema.add_measure("http://ex/a", "A"),
            schema.add_measure("http://ex/b", "B"),
        ];
        let mut graph = Graph::new();
        for var in VARS {
            for i in 0..8 {
                graph.intern_iri(member(var, i));
            }
        }
        Fixture {
            schema,
            graph,
            levels,
            measures,
        }
    }

    fn id(&self, var: &str, i: usize) -> Value {
        Value::Term(self.graph.iri_id(&member(var, i)).expect("interned"))
    }

    fn binding(&self, dim: usize, iri: String) -> ExampleBinding {
        ExampleBinding {
            keyword: iri.clone(),
            label: iri.clone(),
            member_iri: iri,
            level: self.levels[dim],
        }
    }

    /// A query grouping by `dims` with both measures and `example`.
    fn query(&self, dims: &[usize], example: Vec<Vec<ExampleBinding>>) -> OlapQuery {
        OlapQuery {
            query: Query::select_all(vec![]),
            group_columns: dims
                .iter()
                .map(|&d| GroupColumn {
                    var: VARS[d].into(),
                    level: self.levels[d],
                })
                .collect(),
            measure_columns: vec![
                MeasureColumn {
                    alias: ALIASES[0].into(),
                    measure: self.measures[0],
                    agg: AggFunc::Sum,
                },
                MeasureColumn {
                    alias: ALIASES[1].into(),
                    measure: self.measures[1],
                    agg: AggFunc::Avg,
                },
            ],
            example,
            description: "Q".into(),
        }
    }

    fn assert_matches(&self, query: &OlapQuery, solutions: &Solutions, exact: bool, context: &str) {
        assert_offers_match(&self.schema, query, solutions, &self.graph, exact, context);
    }
}

fn member(var: &str, i: usize) -> String {
    format!("http://ex/{var}/{i}")
}

/// A compact row: members of `dest, origin, year` by index (`None` =
/// unbound), then the two measures.
type Row = ([Option<usize>; 3], [Option<f64>; 2]);

/// Rows over `dest, origin, year, sum_a, avg_b`.
fn table(rows: &[Row], fixture: &Fixture) -> Solutions {
    Solutions {
        vars: VARS.iter().chain(&ALIASES).map(|v| v.to_string()).collect(),
        rows: rows
            .iter()
            .map(|(members, measures)| {
                let members = members
                    .iter()
                    .zip(VARS)
                    .map(|(m, var)| m.map(|i| fixture.id(var, i)));
                members
                    .chain(measures.iter().map(|v| v.map(Value::Number)))
                    .collect()
            })
            .collect(),
    }
}

/// The example ⟨dest 0, origin 0⟩.
fn dest0_origin0(fixture: &Fixture) -> Vec<Vec<ExampleBinding>> {
    vec![vec![
        fixture.binding(0, member("dest", 0)),
        fixture.binding(1, member("origin", 0)),
    ]]
}

/// A random cell for a grouping column: mostly one of the first `pool`
/// members, sometimes unbound, a literal, a number or an IRI the example
/// never names.
fn group_cell(rng: &mut TestRng, fixture: &mut Fixture, var: &str, pool: usize) -> Option<Value> {
    match rng.gen_range(0..20u32) {
        0 => None,
        1 => Some(Value::Term(
            fixture.graph.intern_literal(Literal::simple("text")),
        )),
        2 => Some(Value::Number(1.0)),
        3 => Some(Value::Term(fixture.graph.intern_iri("http://ex/stranger"))),
        _ => Some(fixture.id(var, rng.gen_range(0..pool))),
    }
}

/// A random measure cell: small integers, fractions, both zeros, NaN, ±inf
/// and huge values; sometimes unbound, non-numeric or a numeric literal.
fn measure_cell(rng: &mut TestRng, fixture: &mut Fixture) -> Option<Value> {
    let number = match rng.gen_range(0..12u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::NAN,
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => 1e300,
        6 => rng.gen_f64() * 1000.0 - 500.0,
        _ => f64::from(rng.gen_range(0..6u32)),
    };
    match rng.gen_range(0..10u32) {
        0 => None,
        1 => Some(Value::Str("n/a".into())),
        2 => {
            Some(Value::Term(fixture.graph.intern_literal(Literal::integer(
                rng.gen_range(0..4u32).into(),
            ))))
        }
        _ => Some(Value::Number(number)),
    }
}

#[test]
fn seeded_tables_match_the_oracle() {
    check_n("refine_differential_tables", 600, |rng: &mut TestRng| {
        let mut fixture = Fixture::new();
        // grouping levels, in a random order; the result may lack one
        let mut dims = vec![0, 1, 2];
        shuffle(rng, &mut dims);
        dims.truncate(rng.gen_range(1..4usize));
        let mut example = Vec::new();
        for _ in 0..rng.gen_range(1..3usize) {
            let mut tuple = Vec::new();
            for (dim, var) in VARS.iter().enumerate() {
                if rng.gen_bool(0.6) {
                    let iri = if rng.gen_bool(0.1) {
                        "http://ex/absent".to_owned()
                    } else {
                        member(var, rng.gen_range(0..3usize))
                    };
                    tuple.push(fixture.binding(dim, iri));
                }
            }
            example.push(tuple);
        }
        let query = fixture.query(&dims, example);

        let mut vars: Vec<String> = dims.iter().map(|&d| VARS[d].to_owned()).collect();
        vars.extend(ALIASES.iter().map(|a| a.to_string()));
        if rng.gen_bool(0.1) {
            vars.remove(rng.gen_range(0..vars.len()));
        }
        shuffle(rng, &mut vars);
        let pool = rng.gen_range(1..5usize);
        let rows = (0..rng.gen_range(0..40usize))
            .map(|_| {
                vars.iter()
                    .map(|var| match VARS.iter().position(|v| v == var) {
                        Some(_) => group_cell(rng, &mut fixture, var, pool),
                        None => measure_cell(rng, &mut fixture),
                    })
                    .collect()
            })
            .collect();
        let solutions = Solutions { vars, rows };
        fixture.assert_matches(&query, &solutions, false, "seeded table");
    });
}

/// `(year, value)` pairs: most of the eight years, random float values.
fn float_profile(rng: &mut TestRng) -> Vec<(usize, f64)> {
    let years: Vec<usize> = (0..8).filter(|_| rng.gen_bool(0.7)).collect();
    let values: Vec<f64> = years
        .iter()
        .map(|_| rng.gen_f64() * 1000.0 - 500.0)
        .collect();
    years.into_iter().zip(values).collect()
}

/// Float profiles over many features, where the order of a sum decides
/// its last bit: some items copy another item's profile with their rows in
/// another order, so their true scores tie and only a summation order
/// defined by the rows alone ranks them the same way every time.
#[test]
fn seeded_float_profiles_match_the_oracle() {
    check_n("refine_differential_float_profiles", 300, |rng| {
        let fixture = Fixture::new();
        let mut profiles: Vec<Vec<(usize, f64)>> = Vec::new();
        let mut rows: Vec<Row> = Vec::new();
        for dest in 0..8 {
            for origin in 0..rng.gen_range(1..3usize) {
                let profile = if !profiles.is_empty() && rng.gen_bool(1.0 / 3.0) {
                    let mut copy = profiles[rng.gen_range(0..profiles.len())].clone();
                    shuffle(rng, &mut copy);
                    copy
                } else {
                    float_profile(rng)
                };
                for &(year, value) in &profile {
                    let members = [Some(dest), Some(origin), Some(year)];
                    rows.push((members, [Some(value), Some(value / 3.0)]));
                }
                profiles.push(profile);
            }
        }
        shuffle(rng, &mut rows);
        let query = fixture.query(&[0, 1, 2], dest0_origin0(&fixture));
        fixture.assert_matches(&query, &table(&rows, &fixture), false, "float profiles");
    });
}

fn shuffle<T>(rng: &mut TestRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

// ---- named corners ----------------------------------------------------------

/// Ungrouped rows repeat item keys and (item, feature) pairs: their values
/// add up, in row order.
#[test]
fn duplicate_item_keys() {
    let fixture = Fixture::new();
    let query = fixture.query(&[0, 1, 2], dest0_origin0(&fixture));
    let rows = [
        ([Some(0), Some(0), Some(0)], [Some(1.0), Some(2.0)]),
        ([Some(1), Some(0), Some(0)], [Some(0.1), Some(0.2)]),
        ([Some(0), Some(0), Some(0)], [Some(2.0), Some(0.5)]),
        ([Some(1), Some(0), Some(1)], [Some(3.0), Some(1.0)]),
        ([Some(2), Some(1), Some(0)], [Some(0.3), Some(0.7)]),
        ([Some(1), Some(0), Some(0)], [Some(0.2), Some(0.1)]),
        ([Some(0), Some(0), Some(1)], [Some(4.0), Some(4.0)]),
        ([Some(2), Some(1), Some(0)], [Some(0.3), Some(0.7)]),
    ];
    let solutions = table(&rows, &fixture);
    fixture.assert_matches(&query, &solutions, false, "duplicate keys");
    // at the example's granularity too
    let query = fixture.query(&[0, 1], dest0_origin0(&fixture));
    fixture.assert_matches(&query, &solutions, false, "duplicate keys, scalar");
    assert!(
        !similar::similarity(&fixture.schema, &query, &solutions, &fixture.graph, 2).is_empty()
    );
}

/// A row whose example-dimension cell is unbound is no item; an unbound
/// context cell is a feature of its own.
#[test]
fn unbound_example_cell() {
    let fixture = Fixture::new();
    let query = fixture.query(&[0, 1, 2], dest0_origin0(&fixture));
    let rows = [
        ([Some(0), Some(0), Some(0)], [Some(5.0), Some(1.0)]),
        ([None, Some(0), Some(0)], [Some(5.0), Some(1.0)]),
        ([Some(0), None, Some(1)], [Some(7.0), Some(1.0)]),
        ([Some(1), Some(0), None], [Some(2.0), Some(3.0)]),
        ([Some(0), Some(0), None], [Some(1.0), Some(3.0)]),
        ([Some(1), Some(0), Some(0)], [Some(4.0), None]),
        ([Some(2), Some(2), Some(0)], [None, Some(2.0)]),
    ];
    fixture.assert_matches(&query, &table(&rows, &fixture), true, "unbound cells");
}

/// NaN, ±inf and both zeros as measure values, in the sums, the norms, the
/// sort and the percentile bounds.
#[test]
fn special_measure_values() {
    let fixture = Fixture::new();
    let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0];
    for dims in [&[0, 1, 2][..], &[0, 1], &[0]] {
        for (i, &special) in specials.iter().enumerate() {
            let rows: Vec<_> = (0..12)
                .map(|r| {
                    let value = if r % 3 == i % 3 { special } else { r as f64 };
                    let members = [Some(r % 4), Some(r % 2), Some(r % 3)];
                    (members, [Some(value), Some(-value)])
                })
                .collect();
            let query = fixture.query(dims, dest0_origin0(&fixture));
            let context = format!("special {special} over {dims:?}");
            fixture.assert_matches(&query, &table(&rows, &fixture), false, &context);
        }
    }
}

/// The example's profile is all zeros: every cosine is 0 and the key alone
/// ranks.
#[test]
fn zero_norm_example() {
    let fixture = Fixture::new();
    let query = fixture.query(&[0, 1, 2], dest0_origin0(&fixture));
    let rows = [
        ([Some(0), Some(0), Some(0)], [Some(0.0), Some(0.0)]),
        ([Some(0), Some(0), Some(1)], [Some(-0.0), Some(0.0)]),
        ([Some(3), Some(0), Some(0)], [Some(2.0), Some(1.0)]),
        ([Some(1), Some(1), Some(1)], [Some(1.0), Some(1.0)]),
        ([Some(2), Some(0), Some(1)], [Some(0.0), Some(5.0)]),
    ];
    fixture.assert_matches(&query, &table(&rows, &fixture), true, "zero-norm example");
}

/// `k` at and beyond the number of other items keeps them all.
#[test]
fn k_at_least_items() {
    let fixture = Fixture::new();
    let query = fixture.query(&[0, 1], dest0_origin0(&fixture));
    let rows = [
        ([Some(0), Some(0), None], [Some(3.0), Some(1.0)]),
        ([Some(1), Some(0), None], [Some(2.0), Some(2.0)]),
        ([Some(2), Some(0), None], [Some(9.0), Some(3.0)]),
    ];
    let solutions = table(&rows, &fixture);
    for k in [2, 3, usize::MAX] {
        let ours = similar::similarity(&fixture.schema, &query, &solutions, &fixture.graph, k);
        let theirs =
            oracle::similar::similarity(&fixture.schema, &query, &solutions, &fixture.graph, k);
        assert_same(&ours, &theirs, &format!("k={k}"), &query);
        assert_eq!(ours.len(), 2, "one offer per measure");
    }
}

/// The example's combination in no row, or a member unknown to the graph:
/// no Similarity offer, and Top-k / Percentile see no matching row.
#[test]
fn example_absent_from_rows() {
    let fixture = Fixture::new();
    let rows = [
        ([Some(1), Some(0), Some(0)], [Some(3.0), Some(1.0)]),
        ([Some(2), Some(0), Some(1)], [Some(2.0), Some(2.0)]),
        ([Some(3), Some(1), Some(0)], [Some(9.0), Some(3.0)]),
    ];
    let solutions = table(&rows, &fixture);
    let unknown = vec![vec![fixture.binding(0, "http://ex/nowhere".into())]];
    for example in [dest0_origin0(&fixture), unknown] {
        let query = fixture.query(&[0, 1, 2], example);
        fixture.assert_matches(&query, &solutions, true, "absent example");
        assert!(
            similar::similarity(&fixture.schema, &query, &solutions, &fixture.graph, 3).is_empty()
        );
        assert!(subset::topk(&fixture.schema, &query, &solutions, &fixture.graph).is_empty());
    }
}

// ---- the oracle: the per-row kernels, as they were ------------------------
//
// `subset` and the body of `similar_kernel!` are the `Solutions`-row kernels
// the dense ones replaced, copied verbatim except for `crate::` paths, for
// `query.matching_rows(..)`, which calls the per-row `matching` below (the
// string-comparing form `OlapQuery::matching_rows` had), and for the
// `FxHashMap` import, which each instantiation supplies: `similar_hashed`
// is the old kernel exactly, summing in hash-map iteration order;
// `similar` runs it over an insertion-ordered map, i.e. summing in
// first-seen entry order, the order the dense kernel defines.

mod oracle {
    mod matching {
        use re2x_rdf::Graph;
        use re2x_sparql::{Solutions, Value};
        use re2xolap::OlapQuery;

        pub fn example_constraints(
            query: &OlapQuery,
            solutions: &Solutions,
        ) -> Vec<Vec<(usize, String)>> {
            let mut out = Vec::new();
            for tuple in &query.example {
                let mut constraints = Vec::new();
                for binding in tuple {
                    let Some(col) = query.column_for_level(binding.level) else {
                        continue;
                    };
                    let Some(idx) = solutions.column(&col.var) else {
                        continue;
                    };
                    constraints.push((idx, binding.member_iri.clone()));
                }
                if !constraints.is_empty() {
                    out.push(constraints);
                }
            }
            out
        }

        pub fn row_matches_example(
            query: &OlapQuery,
            solutions: &Solutions,
            row: usize,
            graph: &Graph,
        ) -> bool {
            let constraint_sets = example_constraints(query, solutions);
            if constraint_sets.is_empty() {
                return true;
            }
            constraint_sets.iter().any(|constraints| {
                constraints.iter().all(|(col, member_iri)| {
                    match solutions.rows[row].get(*col).and_then(Option::as_ref) {
                        Some(Value::Term(id)) => {
                            graph.term(*id).as_iri() == Some(member_iri.as_str())
                        }
                        _ => false,
                    }
                })
            })
        }

        pub fn matching_rows(
            query: &OlapQuery,
            solutions: &Solutions,
            graph: &Graph,
        ) -> Vec<usize> {
            (0..solutions.len())
                .filter(|&r| row_matches_example(query, solutions, r, graph))
                .collect()
        }
    }

    pub mod ordered {
        //! An insertion-ordered map with the part of `HashMap`'s API the
        //! Similarity oracle calls: iterating it visits entries in first-seen order.

        use std::collections::HashMap;
        use std::hash::Hash;

        pub struct OrderedMap<K, V> {
            slots: HashMap<K, usize>,
            entries: Vec<(K, V)>,
        }

        impl<K, V> Default for OrderedMap<K, V> {
            fn default() -> Self {
                OrderedMap {
                    slots: HashMap::new(),
                    entries: Vec::new(),
                }
            }
        }

        impl<K: Hash + Eq + Clone, V> OrderedMap<K, V> {
            pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
                Entry { map: self, key }
            }

            pub fn get(&self, key: &K) -> Option<&V> {
                self.slots.get(key).map(|&slot| &self.entries[slot].1)
            }

            pub fn len(&self) -> usize {
                self.entries.len()
            }

            pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
                self.entries.iter().map(|(k, v)| (k, v))
            }

            pub fn values(&self) -> impl Iterator<Item = &V> {
                self.entries.iter().map(|(_, v)| v)
            }
        }

        pub struct Entry<'a, K, V> {
            map: &'a mut OrderedMap<K, V>,
            key: K,
        }

        impl<'a, K: Hash + Eq + Clone, V> Entry<'a, K, V> {
            pub fn or_insert(self, value: V) -> &'a mut V {
                self.or_insert_with(|| value)
            }

            pub fn or_default(self) -> &'a mut V
            where
                V: Default,
            {
                self.or_insert_with(V::default)
            }

            fn or_insert_with(self, value: impl FnOnce() -> V) -> &'a mut V {
                let map = self.map;
                let fresh = map.entries.len();
                let slot = *map.slots.entry(self.key.clone()).or_insert(fresh);
                if slot == fresh {
                    map.entries.push((self.key, value()));
                }
                &mut map.entries[slot].1
            }
        }
    }

    #[allow(dead_code)]
    pub mod subset {
        // Example-driven Subset refinements (Problem 2b, Section 6.2): Top-k and
        // percentile-based dicing on aggregated measure values.
        //
        // Both operate on the *results* of the current query (they are offered
        // after the user has seen them) and emit refined queries whose `HAVING`
        // clause reproduces the chosen threshold, so the refinement is a plain
        // SPARQL query the user can keep, re-run, or refine further.

        use super::matching::matching_rows;
        use re2x_cube::VirtualSchemaGraph;
        use re2x_rdf::Graph;
        use re2x_sparql::{CmpOp, Expr, Order, Solutions};
        use re2xolap::query_model::{measure_value_var, MeasureColumn, OlapQuery};
        use re2xolap::refine::{Refinement, RefinementKind};

        /// Default percentile boundaries, coarse on top where extremes live.
        pub const DEFAULT_PERCENTILES: [u8; 4] = [25, 50, 75, 90];

        /// Top-k / bottom-k refinements: for every measure column and both
        /// orderings, find the threshold that keeps the example's tuple in the
        /// result and cut there (the paper's boundary-walk algorithm).
        pub fn topk(
            schema: &VirtualSchemaGraph,
            query: &OlapQuery,
            solutions: &Solutions,
            graph: &Graph,
        ) -> Vec<Refinement> {
            let mut out = Vec::new();
            let matching = matching_rows(query, solutions, graph);
            if matching.is_empty() {
                return out;
            }
            for column in &query.measure_columns {
                let Some(col) = solutions.column(&column.alias) else {
                    continue;
                };
                for order in [Order::Desc, Order::Asc] {
                    // rows ordered by the measure
                    let mut ordered: Vec<(usize, f64)> = solutions
                        .rows
                        .iter()
                        .enumerate()
                        .filter_map(|(r, row)| {
                            row[col]
                                .as_ref()
                                .and_then(|v| v.as_number(graph))
                                .map(|n| (r, n))
                        })
                        .collect();
                    ordered.sort_by(|a, b| a.1.total_cmp(&b.1));
                    if order == Order::Desc {
                        ordered.reverse();
                    }
                    // walk until an example row whose successor is not an example
                    // row; the successor's value is the exclusive threshold. The
                    // cut additionally needs a *strict* value gap — with a tie at
                    // the boundary the strict HAVING comparison would drop the
                    // example row itself.
                    let mut found: Option<(usize, f64)> = None; // (k, threshold)
                    for i in 0..ordered.len() {
                        if !matching.contains(&ordered[i].0) {
                            continue;
                        }
                        let Some(&(next_row, next_value)) = ordered.get(i + 1) else {
                            // the example row is the last one: the whole set is the
                            // top-k already, nothing to cut
                            break;
                        };
                        if !matching.contains(&next_row) && next_value != ordered[i].1 {
                            found = Some((i + 1, next_value));
                            break;
                        }
                    }
                    let Some((k, threshold)) = found else {
                        continue;
                    };
                    out.push(build_topk(schema, query, column, k, order, threshold));
                }
            }
            out
        }

        fn build_topk(
            schema: &VirtualSchemaGraph,
            query: &OlapQuery,
            column: &MeasureColumn,
            k: usize,
            order: Order,
            threshold: f64,
        ) -> Refinement {
            let mut refined = query.clone();
            let cmp = match order {
                Order::Desc => CmpOp::Gt,
                Order::Asc => CmpOp::Lt,
            };
            let condition = Expr::cmp(
                Expr::Agg(
                    column.agg,
                    Box::new(Expr::var(measure_value_var(column.measure))),
                ),
                cmp,
                Expr::Number(threshold),
            );
            refined.query.having = Some(match refined.query.having.take() {
                Some(existing) => Expr::And(Box::new(existing), Box::new(condition)),
                None => condition,
            });
            let measure_label = &schema.measure(column.measure).label;
            let direction = match order {
                Order::Desc => "top",
                Order::Asc => "bottom",
            };
            let explanation = format!(
                "Keep only the {direction}-{k} results by {}({measure_label})",
                column.agg.keyword()
            );
            refined.description = format!("{} — {explanation}", query.description);
            Refinement {
                query: refined,
                kind: RefinementKind::TopK {
                    measure_alias: column.alias.clone(),
                    k,
                    order,
                },
                explanation,
            }
        }

        /// Percentile-based refinements: compute percentile boundaries of every
        /// measure column and emit one refinement per interval that contains an
        /// example-matching tuple.
        pub fn percentile(
            schema: &VirtualSchemaGraph,
            query: &OlapQuery,
            solutions: &Solutions,
            graph: &Graph,
            boundaries: &[u8],
        ) -> Vec<Refinement> {
            let mut out = Vec::new();
            let matching = matching_rows(query, solutions, graph);
            if matching.is_empty() {
                return out;
            }
            for column in &query.measure_columns {
                let Some(col) = solutions.column(&column.alias) else {
                    continue;
                };
                let mut values: Vec<f64> = solutions
                    .rows
                    .iter()
                    .filter_map(|row| row[col].as_ref().and_then(|v| v.as_number(graph)))
                    .collect();
                if values.is_empty() {
                    continue;
                }
                values.sort_by(f64::total_cmp);
                // interval bounds: [0, b1), [b1, b2), …, [b_last, 100]; the
                // boundaries are caller-supplied, in any order and possibly repeated
                let mut pcts: Vec<u8> = vec![0, 100];
                pcts.extend(boundaries.iter().copied().filter(|&b| b > 0 && b < 100));
                pcts.sort_unstable();
                pcts.dedup();
                let example_values: Vec<f64> = matching
                    .iter()
                    .filter_map(|&r| {
                        solutions.rows[r][col]
                            .as_ref()
                            .and_then(|v| v.as_number(graph))
                    })
                    .collect();
                for w in pcts.windows(2) {
                    let (lo_pct, hi_pct) = (w[0], w[1]);
                    let lo = percentile_value(&values, lo_pct);
                    let hi = percentile_value(&values, hi_pct);
                    let inclusive_top = hi_pct == 100;
                    let inside = |v: f64| v >= lo && if inclusive_top { v <= hi } else { v < hi };
                    if !example_values.iter().any(|&v| inside(v)) {
                        continue;
                    }
                    out.push(build_percentile(
                        schema, query, column, lo_pct, hi_pct, lo, hi,
                    ));
                }
            }
            out
        }

        /// Nearest-rank percentile of a sorted slice.
        fn percentile_value(sorted: &[f64], pct: u8) -> f64 {
            if sorted.is_empty() {
                return f64::NAN;
            }
            let rank = (f64::from(pct) / 100.0 * (sorted.len() - 1) as f64).round() as usize;
            sorted[rank.min(sorted.len() - 1)]
        }

        #[allow(clippy::too_many_arguments)]
        fn build_percentile(
            schema: &VirtualSchemaGraph,
            query: &OlapQuery,
            column: &MeasureColumn,
            lo_pct: u8,
            hi_pct: u8,
            lo: f64,
            hi: f64,
        ) -> Refinement {
            let mut refined = query.clone();
            let agg = |e| Expr::Agg(column.agg, Box::new(e));
            let var = Expr::var(measure_value_var(column.measure));
            let lower = Expr::cmp(agg(var.clone()), CmpOp::Ge, Expr::Number(lo));
            let upper_op = if hi_pct == 100 { CmpOp::Le } else { CmpOp::Lt };
            let upper = Expr::cmp(agg(var), upper_op, Expr::Number(hi));
            let condition = Expr::And(Box::new(lower), Box::new(upper));
            refined.query.having = Some(match refined.query.having.take() {
                Some(existing) => Expr::And(Box::new(existing), Box::new(condition)),
                None => condition,
            });
            let measure_label = &schema.measure(column.measure).label;
            let explanation = format!(
                "Keep results whose {}({measure_label}) lies between the {lo_pct}th and {hi_pct}th percentile",
                column.agg.keyword()
            );
            refined.description = format!("{} — {explanation}", query.description);
            Refinement {
                query: refined,
                kind: RefinementKind::Percentile {
                    measure_alias: column.alias.clone(),
                    lower_pct: lo_pct,
                    upper_pct: hi_pct,
                },
                explanation,
            }
        }
    }

    macro_rules! similar_kernel {
        () => {
            // Example-driven Similarity Search (Problem 2c, Section 6.3, Figure 5).
            //
            // The query's grouping columns are split into *example dimensions* (those
            // the user's example was matched on) and *context dimensions* (added by
            // later refinements). Every combination of example-dimension members seen
            // in the results becomes an item; its feature vector is indexed by the
            // distinct context-dimension combinations with the measure value as the
            // feature value (0 where a combination is missing). Cosine similarity
            // against the example's own vector ranks the items, and the refinement
            // pins the example dimensions to the example's and the k most similar
            // combinations with a `FILTER`.
            //
            // When there are no context dimensions (the query is exactly at the
            // example's granularity), vectors are one-dimensional and cosine is
            // degenerate; similarity then falls back to closeness of the measure
            // value (smallest absolute difference), which matches the paper's informal
            // description "the k countries most similar to Germany based on the values
            // of the measure at the current aggregation level".

            use re2xolap::query_model::{MeasureColumn, OlapQuery};
            use re2xolap::refine::{Refinement, RefinementKind};
            use re2x_cube::VirtualSchemaGraph;
            use re2x_rdf::{Graph, TermId};
            use re2x_sparql::{CmpOp, Expr, PatternElement, Solutions, Value};

            /// One similarity refinement per measure column, each keeping the `k`
            /// most similar example-dimension combinations (plus the example's own).
            pub fn similarity(
                schema: &VirtualSchemaGraph,
                query: &OlapQuery,
                solutions: &Solutions,
                graph: &Graph,
                k: usize,
            ) -> Vec<Refinement> {
                let Some(split) = split_columns(query, solutions, graph) else {
                    return Vec::new();
                };
                let measure_cols: Vec<Option<usize>> = query
                    .measure_columns
                    .iter()
                    .map(|column| solutions.column(&column.alias))
                    .collect();
                let profiles = Profiles::build(solutions, graph, &split, &measure_cols);
                query
                    .measure_columns
                    .iter()
                    .enumerate()
                    .filter(|&(m, _)| measure_cols[m].is_some())
                    .filter_map(|(m, column)| {
                        similarity_for_measure(schema, query, graph, k, &split, column, &profiles, m)
                    })
                    .collect()
            }

            struct ColumnSplit {
                /// (solutions column index, grouping-column position) of example dims.
                example_cols: Vec<usize>,
                /// solutions column indexes of context dims.
                context_cols: Vec<usize>,
                /// the example's member combination, as term ids.
                example_key: Vec<TermId>,
            }

            fn split_columns(query: &OlapQuery, solutions: &Solutions, graph: &Graph) -> Option<ColumnSplit> {
                let mut example_cols = Vec::new();
                let mut example_key = Vec::new();
                let mut context_cols = Vec::new();
                for gc in &query.group_columns {
                    let col = solutions.column(&gc.var)?;
                    // which example member (if any) is bound to this level?
                    let binding = query.bindings().find(|b| b.level == gc.level);
                    match binding {
                        Some(b) => {
                            let id = graph.iri_id(&b.member_iri)?;
                            example_cols.push(col);
                            example_key.push(id);
                        }
                        None => context_cols.push(col),
                    }
                }
                if example_cols.is_empty() {
                    return None;
                }
                Some(ColumnSplit {
                    example_cols,
                    context_cols,
                    example_key,
                })
            }

            type FeatureKey = Vec<Option<TermId>>;

            /// Every item's sparse feature vector, for every measure column, from one
            /// pass over the solutions: item key (example-dimension member combination)
            /// → feature key (context-dimension member combination) → entry of `sums`,
            /// which keeps one running sum per measure column. Vectors stay sparse
            /// throughout: cosine over hash maps instead of densifying to
            /// |feature space| entries per item, which would be quadratic in the result
            /// size (similarity is the paper's most expensive refinement — Fig. 9a —
            /// and DBpedia's M-to-N results are huge).
            struct Profiles {
                items: FxHashMap<Vec<TermId>, FxHashMap<FeatureKey, usize>>,
                sums: Vec<f64>,
                measures: usize,
            }

            impl Profiles {
                fn build(
                    solutions: &Solutions,
                    graph: &Graph,
                    split: &ColumnSplit,
                    measure_cols: &[Option<usize>],
                ) -> Self {
                    let mut profiles = Profiles {
                        items: FxHashMap::default(),
                        sums: Vec::new(),
                        measures: measure_cols.len(),
                    };
                    let term = |cell: &Option<Value>| match cell {
                        Some(Value::Term(id)) => Some(*id),
                        _ => None,
                    };
                    let mut entries = 0;
                    for row in &solutions.rows {
                        let key: Option<Vec<TermId>> =
                            split.example_cols.iter().map(|&c| term(&row[c])).collect();
                        let Some(key) = key else { continue };
                        let features: FeatureKey = split.context_cols.iter().map(|&c| term(&row[c])).collect();
                        let entry = *profiles
                            .items
                            .entry(key)
                            .or_default()
                            .entry(features)
                            .or_insert(entries);
                        if entry == entries {
                            entries += 1;
                            profiles.sums.resize(entries * profiles.measures, 0.0);
                        }
                        let sums = &mut profiles.sums[entry * profiles.measures..];
                        for (sum, col) in sums.iter_mut().zip(measure_cols) {
                            let cell = col.and_then(|c| row[c].as_ref());
                            *sum += cell.and_then(|v| v.as_number(graph)).unwrap_or(0.0);
                        }
                    }
                    profiles
                }
            }

            #[allow(clippy::too_many_arguments)]
            fn similarity_for_measure(
                schema: &VirtualSchemaGraph,
                query: &OlapQuery,
                graph: &Graph,
                k: usize,
                split: &ColumnSplit,
                column: &MeasureColumn,
                profiles: &Profiles,
                measure: usize,
            ) -> Option<Refinement> {
                let value = |entry: &usize| profiles.sums[entry * profiles.measures + measure];
                let scalar_mode = split.context_cols.is_empty();
                let example_features = profiles.items.get(&split.example_key)?;

                // score every other item against the example's sparse vector and keep
                // the k best: the rank is a total order (ties fall to the key), so
                // selecting k and sorting only those gives what sorting all would
                let mut scored: Vec<(&Vec<TermId>, f64)> = profiles
                    .items
                    .iter()
                    .filter(|(key, _)| **key != split.example_key)
                    .map(|(key, features)| {
                        let score = if scalar_mode {
                            scalar_similarity(example_features, features, value)
                        } else {
                            sparse_cosine(example_features, features, value)
                        };
                        (key, score)
                    })
                    .collect();
                let by_rank = |a: &(&Vec<TermId>, f64), b: &(&Vec<TermId>, f64)| {
                    b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0))
                };
                if k < scored.len() {
                    scored.select_nth_unstable_by(k, by_rank);
                    scored.truncate(k);
                }
                scored.sort_by(by_rank);
                if scored.is_empty() {
                    return None;
                }

                // refinement: FILTER pinning the example dims to example ∪ top-k combos
                let kept = std::iter::once(&split.example_key).chain(scored.iter().map(|(key, _)| *key));
                let vars: Vec<&str> = query
                    .group_columns
                    .iter()
                    .filter(|gc| query.bindings().any(|b| b.level == gc.level))
                    .map(|gc| gc.var.as_str())
                    .collect();
                let mut alternatives = Vec::with_capacity(scored.len() + 1);
                for combo in kept {
                    let conjuncts: Vec<Expr> = vars
                        .iter()
                        .zip(combo)
                        .filter_map(|(var, id)| {
                            graph
                                .term(*id)
                                .as_iri()
                                .map(|iri| Expr::cmp(Expr::var(*var), CmpOp::Eq, Expr::Iri(iri.to_owned())))
                        })
                        .collect();
                    if let Some(conjunction) = Expr::and_all(conjuncts) {
                        alternatives.push(conjunction);
                    }
                }
                let filter = alternatives
                    .into_iter()
                    .reduce(|a, b| Expr::Or(Box::new(a), Box::new(b)))?;

                let mut refined = query.clone();
                refined.query.wher.push(PatternElement::Filter(filter));
                let measure_label = &schema.measure(column.measure).label;
                let example_label = query
                    .bindings()
                    .map(|b| b.label.clone())
                    .collect::<Vec<_>>()
                    .join(", ");
                let explanation = format!(
                    "Keep the {} member combination(s) most similar to {example_label} by their {}({measure_label}) profile",
                    scored.len(),
                    column.agg.keyword()
                );
                refined.description = format!("{} — {explanation}", query.description);
                Some(Refinement {
                    query: refined,
                    kind: RefinementKind::Similarity {
                        measure_alias: column.alias.clone(),
                        k: scored.len(),
                    },
                    explanation,
                })
            }

            /// Cosine similarity over sparse feature maps (missing features are 0, so
            /// only the key intersection contributes to the dot product); `value`
            /// reads a map entry's feature value.
            fn sparse_cosine<V>(
                a: &FxHashMap<FeatureKey, V>,
                b: &FxHashMap<FeatureKey, V>,
                value: impl Fn(&V) -> f64,
            ) -> f64 {
                let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                let dot: f64 = small
                    .iter()
                    .filter_map(|(k, x)| large.get(k).map(|y| value(x) * value(y)))
                    .sum();
                let norm = |v: &FxHashMap<FeatureKey, V>| -> f64 {
                    v.values().map(|x| value(x) * value(x)).sum::<f64>().sqrt()
                };
                let (na, nb) = (norm(a), norm(b));
                if na == 0.0 || nb == 0.0 {
                    return 0.0;
                }
                dot / (na * nb)
            }

            /// With no context dimensions every vector is one-dimensional and cosine
            /// degenerates to ±1; closeness of the measure values is used instead
            /// ("the k countries most similar … based on the values of the measure at
            /// the current aggregation level").
            fn scalar_similarity<V>(
                a: &FxHashMap<FeatureKey, V>,
                b: &FxHashMap<FeatureKey, V>,
                value: impl Fn(&V) -> f64,
            ) -> f64 {
                let x = a.values().next().map_or(0.0, &value);
                let y = b.values().next().map_or(0.0, &value);
                -(x - y).abs()
            }
        };
    }

    pub mod similar {
        use super::ordered::OrderedMap as FxHashMap;
        similar_kernel!();
    }

    pub mod similar_hashed {
        use re2x_rdf::hash::FxHashMap;
        similar_kernel!();
    }
}
