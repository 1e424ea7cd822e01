//! Differential proof for *set queries* — `SELECT DISTINCT ?t` /
//! `SELECT (COUNT(DISTINCT ?t) AS ?n)` over a flat block — however the
//! engine answers them: cut at an articulation variable (the prefix's
//! distinct values of the cut variable seed the suffix), candidate probing,
//! or the block's join deduplicated.
//!
//! The oracle is the same block under `SELECT ?t` (not a set query, so it
//! reaches the ordinary executor) on [`ExecMode::Row`], folded to a set
//! here. Against it, every set query must return the same *set*, ids
//! ascending, byte-identical across [`PlanMode`] × [`ExecMode`] and under
//! [`ShardedEndpoint`] composition — over the bootstrap crawl's own shapes
//! on every level path of the bootstrapped schema of all four datasets,
//! and over a seeded generator of chain and star blocks. Over the crawl's
//! shapes `explain` is asserted to show each of the three answers taken,
//! so the comparison is not one path against itself.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_datagen::common::Dataset;
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_rdf::TermId;
use re2x_sparql::{
    evaluate_full, explain, parse_query, reference_solutions, ExecMode, LocalEndpoint, PlanMode,
    Query, Route, ShardedEndpoint, Solutions, SparqlEndpoint, Value,
};
use re2x_testkit::TestRng;
use std::collections::BTreeSet;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

const COMBOS: [(PlanMode, ExecMode); 4] = [
    (PlanMode::Planned, ExecMode::Columnar),
    (PlanMode::Planned, ExecMode::Row),
    (PlanMode::InOrder, ExecMode::Columnar),
    (PlanMode::InOrder, ExecMode::Row),
];

/// A dataset behind every endpoint the comparison needs.
struct World {
    dataset: Dataset,
    local: LocalEndpoint,
    sharded: Vec<ShardedEndpoint>,
}

impl World {
    fn new(dataset: Dataset) -> World {
        let sharded = [2, 4]
            .into_iter()
            .map(|shards| {
                ShardedEndpoint::with_observation_class(
                    dataset.graph.clone(),
                    &dataset.observation_class,
                    shards,
                )
            })
            .collect();
        World {
            local: LocalEndpoint::new(dataset.graph.clone()),
            sharded,
            dataset,
        }
    }
}

/// Which answers `explain` reported over a run.
#[derive(Default)]
struct Coverage {
    cut: usize,
    nested: usize,
    probe: usize,
    join: usize,
}

impl Coverage {
    fn record(&mut self, plan: &str) {
        self.cut += usize::from(plan.contains(", cut at "));
        self.nested += usize::from(plan.matches(", cut at ").count() > 1);
        self.probe += usize::from(plan.contains(", probe\n"));
        self.join += usize::from(plan.contains(", columnar\n"));
    }
}

/// The ids of a one-column answer, in answer order.
fn ids(solutions: &Solutions) -> Vec<TermId> {
    solutions
        .rows
        .iter()
        .map(|row| match row.as_slice() {
            [Some(Value::Term(id))] => *id,
            other => panic!("a set query answers one bound term per row, got {other:?}"),
        })
        .collect()
}

/// Asserts everything the suite promises about `SELECT DISTINCT ?{target}`
/// and `SELECT (COUNT(DISTINCT ?{target}) AS ?n)` over `block`; returns
/// the plan `explain` printed.
fn assert_set_query(world: &World, block: &str, target: &str) -> String {
    let graph = &world.dataset.graph;
    let name = &world.dataset.name;
    let parse = |text: &str| -> Query {
        parse_query(text).unwrap_or_else(|e| panic!("{name}: {text}: {e}"))
    };
    // the oracle: every binding of the target, by the row executor
    let rows = parse(&format!("SELECT ?{target} WHERE {{ {block} }}"));
    assert!(
        !explain(graph, &rows)
            .expect("explains")
            .contains("set query"),
        "{name}: the oracle must not be a set query: {block}"
    );
    let rows = evaluate_full(graph, &rows, PlanMode::Planned, ExecMode::Row).expect("oracle");
    let want: BTreeSet<TermId> = ids(&rows).into_iter().collect();
    let want: Vec<TermId> = want.into_iter().collect();

    let distinct = parse(&format!("SELECT DISTINCT ?{target} WHERE {{ {block} }}"));
    let plan = explain(graph, &distinct).expect("explains");
    assert!(plan.contains("\nset query: "), "{name}: {block}:\n{plan}");
    let count = parse(&format!(
        "SELECT (COUNT(DISTINCT ?{target}) AS ?n) WHERE {{ {block} }}"
    ));
    let counted = Solutions {
        vars: vec!["n".to_owned()],
        rows: vec![vec![Some(Value::Number(want.len() as f64))]],
    };
    for (mode, exec) in COMBOS {
        let got = evaluate_full(graph, &distinct, mode, exec).expect("evaluates");
        // equal to the oracle as a set *and* ascending: `want` is both
        assert_eq!(
            ids(&got),
            want,
            "{name} {mode:?}/{exec:?}: DISTINCT ?{target} {{ {block} }}\n{plan}"
        );
        let got = evaluate_full(graph, &count, mode, exec).expect("evaluates");
        assert_eq!(
            got, counted,
            "{name} {mode:?}/{exec:?}: COUNT(DISTINCT ?{target}) {{ {block} }}\n{plan}"
        );
    }
    for sharded in &world.sharded {
        for query in [&distinct, &count] {
            let reference = match sharded.route(query) {
                Route::Scatter => reference_solutions(&world.local, query),
                Route::Replica => world.local.select(query),
            };
            assert_eq!(
                sharded.select(query),
                reference,
                "{name}, {} shards: {block}",
                sharded.num_shards()
            );
        }
    }
    plan
}

// ---- the crawl's shapes over the bootstrapped schema ----------------------------

/// Member count, attribute predicates and roll-up predicates of every
/// level path bootstrap discovers — the queries `re2x-cube` issues, as
/// text.
fn assert_crawl_shapes(dataset: Dataset) -> Coverage {
    let world = World::new(dataset);
    let class = &world.dataset.observation_class;
    let schema = bootstrap(&world.local, &BootstrapConfig::new(class.clone()))
        .expect("bootstraps")
        .schema;
    assert!(!schema.levels().is_empty(), "{}", world.dataset.name);
    let mut coverage = Coverage::default();
    for kind in ["isIRI", "isNumeric"] {
        let block = format!("?o a <{class}> . ?o ?p ?x . FILTER({kind}(?x))");
        coverage.record(&assert_set_query(&world, &block, "p"));
    }
    for level in schema.levels() {
        let path: Vec<String> = level.path.iter().map(|p| format!("<{p}>")).collect();
        let members = format!("?o a <{class}> . ?o {} ?m", path.join(" / "));
        coverage.record(&assert_set_query(&world, &members, "m"));
        for kind in ["isLiteral", "isIRI"] {
            let block = format!("{members} . ?m ?q ?x . FILTER({kind}(?x))");
            coverage.record(&assert_set_query(&world, &block, "q"));
        }
    }
    // every level has member predicates to find, and they sit behind ?m
    assert!(coverage.cut >= 2 * schema.levels().len());
    coverage
}

#[test]
fn crawl_shapes_on_the_running_example() {
    let coverage = assert_crawl_shapes(running::generate());
    // too small for any probe to be estimated to win
    assert!(coverage.join > 0, "no block was joined");
}

#[test]
fn crawl_shapes_on_eurostat() {
    let coverage = assert_crawl_shapes(eurostat::generate(2_000, 7));
    // 1-to-N: the prefix of a cut is answered from the members
    assert!(coverage.probe > 0, "no block was probed");
}

#[test]
fn crawl_shapes_on_production() {
    assert_crawl_shapes(production::generate(600, 11));
}

#[test]
fn crawl_shapes_on_dbpedia() {
    let coverage = assert_crawl_shapes(dbpedia::generate(600, 13));
    assert!(coverage.nested > 0, "no prefix was cut again");
}

// ---- seeded chains and stars ------------------------------------------------------

/// What the generator draws blocks from.
struct Harness {
    world: World,
    /// Level paths of the bootstrapped schema, at most three predicates.
    paths: Vec<Vec<String>>,
    /// Members of the first dimension, as SPARQL constants.
    members: Vec<String>,
}

impl Harness {
    fn new(dataset: Dataset) -> Harness {
        let world = World::new(dataset);
        let class = world.dataset.observation_class.clone();
        let schema = bootstrap(&world.local, &BootstrapConfig::new(class))
            .expect("bootstraps")
            .schema;
        let paths: Vec<Vec<String>> = schema
            .levels()
            .iter()
            .filter(|level| level.path.len() <= 3)
            .map(|level| level.path.clone())
            .collect();
        assert!(paths.iter().any(|p| p.len() > 1), "no roll-up to walk");
        let dim0 = &world.dataset.dimension_predicates[0];
        let query = parse_query(&format!("SELECT DISTINCT ?m WHERE {{ ?o <{dim0}> ?m }}"));
        let members = world
            .local
            .select(&query.expect("parses"))
            .expect("members");
        let graph = &world.dataset.graph;
        let members = ids(&members)
            .into_iter()
            .map(|id| graph.term(id).to_string())
            .collect();
        Harness {
            world,
            paths,
            members,
        }
    }
}

/// A random connected block and a target variable in it: a chain
/// `?o <path> ?m` off the observations (paths of one to three predicates),
/// a tail behind `?m` (a predicate variable, a label, a repeated
/// variable), optionally a star arm on `?o`, filters on the prefix side,
/// on the suffix side, on the cut variable and across the cut, an absent
/// constant, a pattern connected to nothing — in shuffled textual order.
/// The target is any variable of the block, so it sits next to the cut,
/// far behind it, or in front of every candidate.
fn random_block(rng: &mut TestRng, harness: &Harness) -> (String, String) {
    let dataset = &harness.world.dataset;
    let dims = &dataset.dimension_predicates;
    let mut patterns: Vec<String> = Vec::new();
    let mut filters: Vec<String> = Vec::new();
    let mut vars: Vec<&str> = vec!["o", "m"];
    if rng.gen_bool(0.7) {
        patterns.push(format!("?o a <{}>", dataset.observation_class));
    }
    let path: Vec<String> = rng
        .pick(&harness.paths)
        .iter()
        .map(|p| format!("<{p}>"))
        .collect();
    patterns.push(format!("?o {} ?m", path.join(" / ")));
    // the tail behind ?m
    match rng.pick_weighted(&[5, 2, 1, 1, 1]) {
        0 => {
            patterns.push("?m ?q ?x".to_owned());
            vars.extend(["q", "x"]);
            if rng.gen_bool(0.7) {
                let kind = rng.pick(&["isIRI", "isLiteral", "isNumeric"]);
                filters.push(format!("FILTER({kind}(?x))"));
            }
        }
        1 => {
            patterns.push(format!("?m <{}> ?l", dataset.label_predicate));
            vars.push("l");
            if rng.gen_bool(0.5) {
                filters.push("FILTER(CONTAINS(LCASE(STR(?l)), \"a\"))".to_owned());
            }
        }
        2 => {
            // a variable repeated inside one pattern
            patterns.push("?m ?q ?m".to_owned());
            vars.push("q");
        }
        3 => {
            patterns.extend(["?m ?q ?x".to_owned(), "?x ?r ?x2".to_owned()]);
            vars.extend(["q", "x", "r", "x2"]);
        }
        _ => {}
    }
    // a star arm on ?o: the prefix side of every cut behind ?m
    // (never both predicate-variable arms: the oracle materializes the
    // whole join, and a property suite cannot afford their product)
    let wide = u32::from(!vars.contains(&"x2"));
    match rng.pick_weighted(&[4, 3, 2 * wide]) {
        1 => {
            patterns.push(format!("?o <{}> ?b", rng.pick(dims)));
            vars.push("b");
            if rng.gen_bool(0.5) {
                filters.push(format!("FILTER(?b != {})", rng.pick(&harness.members)));
            }
        }
        2 => {
            patterns.push("?o ?p ?y".to_owned());
            vars.extend(["p", "y"]);
            if rng.gen_bool(0.6) {
                filters.push("FILTER(isNumeric(?y) && ?y > 3)".to_owned());
            }
        }
        _ => {}
    }
    if rng.gen_bool(0.2) {
        // on the cut variable itself
        filters.push(format!("FILTER(?m != {})", rng.pick(&harness.members)));
    }
    if rng.gen_bool(0.15) && vars.contains(&"x") {
        // across the cut: ?x sits behind ?m, ?o in front of it
        filters.push("FILTER(?x != ?o)".to_owned());
    }
    if rng.gen_bool(0.1) {
        let absent = if rng.gen_bool(0.5) {
            "?m <http://absent.example/p> ?z"
        } else {
            "?o <http://absent.example/p> <http://absent.example/c>"
        };
        patterns.push(absent.to_owned());
    }
    // A random textual order that starts at the observations and in which
    // every pattern shares a variable with an earlier one: the in-order
    // plans then walk the block along its joins, as the oracle's plan
    // does, instead of multiplying unrelated scans.
    let variables = |pattern: &str| -> Vec<String> {
        let words = pattern.split_whitespace();
        words
            .filter(|w| w.starts_with('?'))
            .map(str::to_owned)
            .collect()
    };
    let mut parts: Vec<String> = Vec::new();
    let mut bound: Vec<String> = Vec::new();
    while !patterns.is_empty() {
        let connected: Vec<usize> = (0..patterns.len())
            .filter(|&i| match bound.is_empty() {
                // start from the observations, through a constant predicate
                true => patterns[i].starts_with("?o ") && !patterns[i].starts_with("?o ?p"),
                false => variables(&patterns[i]).iter().any(|v| bound.contains(v)),
            })
            .collect();
        let next = patterns.remove(*rng.pick(&connected));
        bound.extend(variables(&next));
        parts.push(next);
    }
    if rng.gen_bool(0.15) {
        // connected to nothing; one solution, so a product with it stays
        // the size of the other side
        let member = rng.pick(&harness.members);
        filters.push(format!("{member} <{}> ?alone", dataset.label_predicate));
    }
    for filter in filters {
        parts.insert(rng.gen_range(0..parts.len() + 1), filter);
    }
    let target = (*rng.pick(&vars)).to_owned();
    (parts.join(" . "), target)
}

fn property_set_queries_agree(dataset: Dataset, name: &str, cases: u32) {
    let harness = Harness::new(dataset);
    re2x_testkit::check_n(name, cases, |rng| {
        let (block, target) = random_block(rng, &harness);
        assert_set_query(&harness.world, &block, &target);
    });
}

#[test]
fn property_set_queries_agree_on_eurostat() {
    property_set_queries_agree(eurostat::generate(800, 31), "set_query_eurostat", 64);
}

#[test]
fn property_set_queries_agree_on_dbpedia() {
    // fewer cases: the dimension tables dwarf the observations, and a
    // probe that loses on them spends a second per mode in a debug build
    property_set_queries_agree(dbpedia::generate(200, 37), "set_query_dbpedia", 16);
}

#[test]
fn property_set_queries_agree_on_production() {
    property_set_queries_agree(production::generate(300, 41), "set_query_production", 64);
}

// ---- shapes the rule refuses ------------------------------------------------------

/// Anything but one `DISTINCT` / `COUNT(DISTINCT)` variable over a flat
/// block with no other clause is no set query: it reaches the ordinary
/// executor, whose answer keeps its row order and its LIMIT.
#[test]
fn other_shapes_reach_the_ordinary_executor() {
    let dataset = eurostat::generate(400, 43);
    let graph = &dataset.graph;
    let class = &dataset.observation_class;
    let dim = &dataset.dimension_predicates[0];
    let block = format!("?o a <{class}> . ?o <{dim}> ?m . ?m ?q ?x");
    let refused = [
        format!("SELECT ?q (COUNT(DISTINCT ?x) AS ?n) WHERE {{ {block} }} GROUP BY ?q"),
        format!("SELECT DISTINCT ?x WHERE {{ {block} }} LIMIT 2"),
        format!("SELECT DISTINCT ?q WHERE {{ {block} }} ORDER BY DESC(?q)"),
        format!("SELECT DISTINCT ?q ?m WHERE {{ {block} }}"),
        format!("SELECT DISTINCT ?q WHERE {{ ?o <{dim}> ?m . OPTIONAL {{ ?m ?q ?x }} }}"),
        format!("SELECT ?q WHERE {{ {block} }}"),
        format!("SELECT (COUNT(?q) AS ?n) WHERE {{ {block} }}"),
        // the target is no pattern's variable
        format!("SELECT DISTINCT ?nope WHERE {{ {block} }}"),
    ];
    for text in refused {
        let query = parse_query(&text).expect("parses");
        let plan = explain(graph, &query).expect("explains");
        assert!(!plan.contains("set query"), "{text}:\n{plan}");
        let row = evaluate_full(graph, &query, PlanMode::Planned, ExecMode::Row);
        let columnar = evaluate_full(graph, &query, PlanMode::Planned, ExecMode::Columnar);
        assert_eq!(row, columnar, "{text}");
        let rows = row.expect("evaluates").rows;
        if text.contains("LIMIT 2") {
            assert_eq!(rows.len(), 2, "{text}");
        } else {
            assert!(!rows.is_empty(), "{text}");
        }
    }
    // … and the same block under one DISTINCT variable is one
    let query = parse_query(&format!("SELECT DISTINCT ?q WHERE {{ {block} }}")).expect("parses");
    let plan = explain(graph, &query).expect("explains");
    assert!(
        plan.contains("\nset query: distinct ?q, cut at ?m\n"),
        "{plan}"
    );
}

// ---- what explain shows ------------------------------------------------------------

/// Golden plans: the roll-up discovery query of a two-step dbpedia level
/// (cut at the member, its prefix cut again inside the path and answered
/// by the executor there, each suffix seeded), and the dimension discovery
/// query, which has no articulation variable to cut at.
#[test]
fn explain_prints_the_decomposition() {
    let dataset = dbpedia::generate(600, 13);
    let graph = &dataset.graph;
    let ns = "http://data.example.org/dbpedia/";
    let rollups = parse_query(&format!(
        "SELECT DISTINCT ?q WHERE {{
            ?o a <{ns}CreativeWork> . ?o <{ns}artist> / <{ns}associatedAct> ?m .
            ?m ?q ?x . FILTER(isIRI(?x))
         }}"
    ));
    let plan = explain(graph, &rollups.expect("parses")).expect("explains");
    let expected = format!(
        "executor: columnar
set query: distinct ?q, cut at ?m
  prefix: distinct ?m, cut at ?_path1
    prefix: distinct ?_path1, columnar
     0. ?o <{RDF_TYPE}> <{ns}CreativeWork>   (cost estimate 37)
     1. ?o* <{ns}artist> ?_path1   (cost estimate 37)
    suffix seeded on ?_path1
       0. ?_path1* <{ns}associatedAct> ?m   (cost estimate 3980)
  suffix seeded on ?m
     0. ?m* ?q ?x   (cost estimate 81686)
        select isIRI(?x)
"
    );
    assert_eq!(plan, expected);
    let dimensions = parse_query(&format!(
        "SELECT DISTINCT ?p WHERE {{ ?o a <{ns}CreativeWork> . ?o ?p ?x . FILTER(isIRI(?x)) }}"
    ));
    let plan = explain(graph, &dimensions.expect("parses")).expect("explains");
    let expected = format!(
        "executor: columnar
set query: distinct ?p, probe
 0. ?o <{RDF_TYPE}> <{ns}CreativeWork>   (cost estimate 37)
 1. ?o* ?p ?x   (cost estimate 81686)
    select isIRI(?x)
"
    );
    assert_eq!(plan, expected);
}
