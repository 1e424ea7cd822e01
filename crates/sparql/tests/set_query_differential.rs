//! Differential proof for *set queries* — `SELECT DISTINCT ?t` /
//! `SELECT (COUNT(DISTINCT ?t) AS ?n)` over a flat block — however the
//! engine answers them: cut at an articulation variable (the prefix's
//! distinct values of the cut variable seed the suffix), candidate probing,
//! the predicates a seed set carries, decided per predicate from its own
//! postings or from the seeds' runs (the facet step), or the block's join
//! deduplicated.
//!
//! The oracle is the same block under `SELECT ?t` (not a set query, so it
//! reaches the ordinary executor) on [`ExecMode::Row`], folded to a set
//! here. Against it, every set query must return the same *set*, ids
//! ascending, byte-identical across [`PlanMode`] × [`ExecMode`] and under
//! [`ShardedEndpoint`] composition — over the bootstrap crawl's own shapes
//! on every level path of the bootstrapped schema of all four datasets,
//! over a seeded generator of chain and star blocks, and over a seeded
//! generator of facet blocks on graphs with live-written predicates sized
//! around their seed count. Over the crawl's shapes `explain` is asserted
//! to show each answer taken, so the comparison is not one path against
//! itself.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_datagen::common::Dataset;
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_rdf::{Graph, Literal, Term, TermId};
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
    facet: usize,
    probe: usize,
    join: usize,
}

impl Coverage {
    fn record(&mut self, plan: &str) {
        self.cut += usize::from(plan.contains(", cut at "));
        self.nested += usize::from(plan.matches(", cut at ").count() > 1);
        self.facet += usize::from(plan.contains(", predicates of "));
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
    // measure and dimension discovery, both decided per predicate
    for kind in ["isIRI", "isNumeric"] {
        let block = format!("?o a <{class}> . ?o ?p ?x . FILTER({kind}(?x))");
        let plan = assert_set_query(&world, &block, "p");
        assert!(
            plan.contains("set query: distinct ?p, predicates of ?o\n"),
            "{}: {block}:\n{plan}",
            world.dataset.name
        );
        coverage.record(&plan);
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
    // every level has member predicates to find, and they sit behind ?m:
    // cut there, never decided as the predicates of a seed set
    assert!(coverage.cut >= 2 * schema.levels().len());
    assert_eq!(coverage.facet, 2, "{}", world.dataset.name);
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

// ---- predicate discovery: the facet step ------------------------------------------

/// A copy of `dataset`'s metadata over `graph`.
fn with_graph(dataset: &Dataset, graph: Graph) -> Dataset {
    Dataset {
        name: dataset.name.clone(),
        graph,
        observation_class: dataset.observation_class.clone(),
        observations: dataset.observations,
        dimension_predicates: dataset.dimension_predicates.clone(),
        rollup_predicates: dataset.rollup_predicates.clone(),
        label_predicate: dataset.label_predicate.clone(),
        expected: dataset.expected,
    }
}

/// An object of a random kind — IRI (fresh or a member), blank node,
/// string, integer or decimal literal — distinct per `i` except for the
/// members.
fn mixed_object(rng: &mut TestRng, harness: &Harness, i: usize) -> Term {
    match rng.pick_weighted(&[3, 1, 1, 3, 2, 2]) {
        0 => Term::iri(format!("http://fresh.example/o{i}")),
        1 => {
            let member = rng.pick(&harness.members);
            Term::iri(member.trim_start_matches('<').trim_end_matches('>'))
        }
        2 => Term::blank(format!("b{i}")),
        3 => Term::Literal(Literal::simple(format!("v{i}"))),
        4 => Term::Literal(Literal::integer(i as i64)),
        _ => Term::Literal(Literal::decimal(i as f64 + 0.5)),
    }
}

/// A random facet block — seeds `R(?o)` of one pattern (the observation
/// class, or one member of a dimension), of several, with a filter on
/// `?o`, or with none at all; then `?o ?p ?x` under zero, one or two
/// filters on `?x` — over a live-written clone of the harness graph. The
/// writes add predicates sized against the block's seed count `n`:
/// exactly `n` triples and `n + 1` (the two sides of the per-predicate
/// choice), each on a random mix of seeds and other subjects or on no
/// seed at all, plus predicates no seed carries, with `≤ n` triples and
/// with more, and one with more than `n` triples over three objects (its
/// objects few enough to refute it by the filters alone); objects of
/// every kind; and labels and removals on seeds, so the overlay shadows
/// base runs of both indexes.
fn facet_case(rng: &mut TestRng, harness: &Harness) -> (World, String) {
    let dataset = &harness.world.dataset;
    let class = &dataset.observation_class;
    let dim0 = &dataset.dimension_predicates[0];
    let member = rng.pick(&harness.members).clone();
    let mut seeds = match rng.pick_weighted(&[4, 2, 2, 2, 1]) {
        0 => format!("?o a <{class}>"),
        1 => format!("?o <{dim0}> {member}"),
        2 => format!("?o a <{class}> . ?o <{dim0}> {member}"),
        3 => format!("?o a <{class}> . FILTER(?o != {member})"),
        // two members of one dimension: usually no seed at all
        _ => format!(
            "?o <{dim0}> {member} . ?o <{dim0}> {}",
            rng.pick(&harness.members)
        ),
    };
    if rng.gen_bool(0.2) {
        seeds = format!("FILTER(isIRI(?o)) . {seeds}");
    }
    let mut graph = dataset.graph.clone();
    // the seeds, by the row executor over the graph before any write (the
    // writes below touch neither the class nor the dimension)
    let oracle = parse_query(&format!("SELECT ?o WHERE {{ {seeds} }}")).expect("parses");
    let seed_ids: BTreeSet<TermId> =
        ids(&evaluate_full(&graph, &oracle, PlanMode::Planned, ExecMode::Row).expect("seeds"))
            .into_iter()
            .collect();
    let seed_ids: Vec<TermId> = seed_ids.into_iter().collect();
    let n = seed_ids.len();
    let strangers: Vec<Term> = (0..4)
        .map(|i| Term::iri(format!("http://fresh.example/s{i}")))
        .collect();
    let mut object = 0usize;
    let mut write =
        |graph: &mut Graph, rng: &mut TestRng, name: &str, count: usize, seeded: f64| {
            let predicate = Term::iri(format!("http://fresh.example/{name}"));
            let mut written = 0;
            while written < count {
                let subject = if !seed_ids.is_empty() && rng.gen_bool(seeded) {
                    graph.term(*rng.pick(&seed_ids)).clone()
                } else {
                    rng.pick(&strangers).clone()
                };
                object += 1;
                let o = mixed_object(rng, harness, object);
                written += usize::from(graph.insert(subject, predicate.clone(), o));
            }
            let id = graph.iri_id(&format!("http://fresh.example/{name}"));
            assert_eq!(id.map_or(0, |p| graph.predicate_cardinality(p)), count);
        };
    let seeded = *rng.pick(&[0.0, 0.02, 0.5]);
    write(&mut graph, rng, "equal", n, seeded);
    let seeded = *rng.pick(&[0.0, 0.02, 0.5]);
    write(&mut graph, rng, "over", n + 1, seeded);
    let few = rng.gen_range(1usize..4).min(n);
    write(&mut graph, rng, "stray", few, 0.0);
    let many = n + rng.gen_range(1usize..4);
    write(&mut graph, rng, "wide", many, 0.0);
    let shared = Term::iri("http://fresh.example/shared");
    let pool: Vec<Term> = (0..3)
        .map(|i| mixed_object(rng, harness, 1_000_000 + i))
        .collect();
    let mut written = 0;
    while written < n + 1 {
        let subject = match seed_ids.is_empty() || rng.gen_bool(0.5) {
            true => rng.pick(&strangers).clone(),
            false => graph.term(*rng.pick(&seed_ids)).clone(),
        };
        let object = rng.pick(&pool).clone();
        written += usize::from(graph.insert(subject, shared.clone(), object));
    }
    if !seed_ids.is_empty() && rng.gen_bool(0.5) {
        // an IRI label on a seed: the label predicate's runs in the overlay
        let seed = graph.term(*rng.pick(&seed_ids)).clone();
        let label = Term::iri(dataset.label_predicate.clone());
        graph.insert(seed, label, Term::iri("http://fresh.example/label"));
    }
    if !seed_ids.is_empty() && rng.gen_bool(0.5) {
        // a removal on a seed: tombstones and shortened lists in both
        let seed = *rng.pick(&seed_ids);
        let type_id = graph.iri_id(RDF_TYPE);
        let dims: Vec<Option<TermId>> = dataset
            .dimension_predicates
            .iter()
            .map(|d| graph.iri_id(d))
            .collect();
        let removable: Vec<_> = graph
            .matching(Some(seed), None, None)
            .into_iter()
            .filter(|t| Some(t.p) != type_id && !dims.contains(&Some(t.p)))
            .collect();
        if !removable.is_empty() {
            let t = *rng.pick(&removable);
            assert!(graph.remove_ids(t.s, t.p, t.o));
        }
    }
    const ON_OBJECT: [&str; 6] = [
        "FILTER(isIRI(?x))",
        "FILTER(isLiteral(?x))",
        "FILTER(isNumeric(?x))",
        "FILTER(isNumeric(?x) && ?x > 3)",
        "FILTER(!isIRI(?x) && !isLiteral(?x))",
        "FILTER(?x != <http://fresh.example/label>)",
    ];
    let mut filters: Vec<&str> = Vec::new();
    for _ in 0..rng.pick_weighted(&[2, 4, 1]) {
        filters.push(*rng.pick(&ON_OBJECT));
    }
    let mut parts = vec![seeds, "?o ?p ?x".to_owned()];
    for filter in filters {
        parts.insert(rng.gen_range(0..parts.len() + 1), filter.to_owned());
    }
    let world = World::new(with_graph(dataset, graph));
    (world, parts.join(" . "))
}

fn property_facet_queries_agree(dataset: Dataset, name: &str, cases: u32) {
    let harness = Harness::new(dataset);
    re2x_testkit::check_n(name, cases, |rng| {
        let (world, block) = facet_case(rng, &harness);
        let plan = assert_set_query(&world, &block, "p");
        assert!(
            plan.contains("set query: distinct ?p, predicates of ?o\n"),
            "{block}:\n{plan}"
        );
    });
}

#[test]
fn property_facet_queries_agree_on_eurostat() {
    property_facet_queries_agree(eurostat::generate(400, 53), "facet_eurostat", 32);
}

#[test]
fn property_facet_queries_agree_on_dbpedia() {
    // fewer cases: every case re-partitions a written copy of a graph the
    // dimension tables dwarf, ~10 s in a debug build
    property_facet_queries_agree(dbpedia::generate(200, 59), "facet_dbpedia", 4);
}

#[test]
fn property_facet_queries_agree_on_production() {
    property_facet_queries_agree(production::generate(300, 61), "facet_production", 32);
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
/// query, which has no articulation variable to cut at and is answered
/// per predicate from the observations' posting list.
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
set query: distinct ?p, predicates of ?o
  seeds: distinct ?o, posting list
   0. ?o <{RDF_TYPE}> <{ns}CreativeWork>   (cost estimate 37)
  each ?p from its postings or the seeds' runs
     0. ?o* ?p ?x   (cost estimate 81686)
        select isIRI(?x)
"
    );
    assert_eq!(plan, expected);
}
