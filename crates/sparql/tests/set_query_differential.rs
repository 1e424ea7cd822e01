//! Differential proof for *set queries* — `SELECT DISTINCT ?t` /
//! `SELECT (COUNT(DISTINCT ?t) AS ?n)` over a flat block, and `SELECT
//! (COUNT(…) AS ?n)` over one pattern — however the chain of nodes the
//! engine plans for them reads each node: an index read (a posting list
//! or an index's key set), forward along the seeds' runs, backward from
//! the candidates' postings, per candidate predicate, by one walk of the
//! seeds' runs that skips the predicates found, or the part's join.
//!
//! The oracle is the same query under [`evaluate_reference`], which never
//! takes the chain: it extends the block's bindings one row at a time and
//! deduplicates them in first-seen order, folded to a set here. Against
//! it, [`evaluate`] must return the same *set*, ids ascending — and the
//! same ids with the block's patterns in another textual order, and under
//! [`ShardedEndpoint`] composition — over the bootstrap crawl's own shapes
//! on every level path of the bootstrapped schema of all four datasets,
//! over the one-pattern shapes the indexes list, over candidates that
//! live writes leave without a witness, over a seeded generator
//! of chain, star and one-pattern blocks, and over a seeded generator of
//! predicate-discovery blocks on graphs with live-written predicates sized
//! around their seed count. `explain` is asserted to show the access each
//! node takes, so the comparison is not one path against itself.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_datagen::common::Dataset;
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_rdf::{Graph, Literal, Term, TermId};
use re2x_sparql::{
    evaluate, evaluate_reference, explain, parse_query, reference_solutions, LocalEndpoint, Query,
    Route, ShardedEndpoint, Solutions, SparqlEndpoint, Value,
};
use re2x_testkit::TestRng;
use std::collections::BTreeSet;

const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";

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

/// How many nodes of each seeded access `explain` reported over a run,
/// and the longest chain.
#[derive(Default)]
struct Coverage {
    forward: usize,
    backward: usize,
    per_candidate: usize,
    seed_walk: usize,
    join: usize,
    longest: usize,
}

impl Coverage {
    fn record(&mut self, plan: &str) {
        let nodes: Vec<&str> = plan
            .lines()
            .filter(|line| line.starts_with("  node "))
            .map(last_access)
            .collect();
        for access in &nodes {
            match *access {
                "forward" => self.forward += 1,
                "backward" => self.backward += 1,
                "per candidate" => self.per_candidate += 1,
                "seed walk" => self.seed_walk += 1,
                "join" => self.join += 1,
                read if read.starts_with("index read") => {}
                other => panic!("unknown access {other:?} in\n{plan}"),
            }
        }
        self.longest = self.longest.max(nodes.len());
    }
}

/// The access a node line of `explain` names (its text after the last
/// `, `).
fn last_access(line: &str) -> &str {
    line.rsplit(", ").next().unwrap_or_default()
}

/// The access of the last node of a set query's plan — the node that
/// answers the target.
fn target_access(plan: &str) -> &str {
    let mut nodes = plan.lines().filter(|line| line.starts_with("  node "));
    nodes.next_back().map(last_access).unwrap_or_default()
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
    let distinct = parse(&format!("SELECT DISTINCT ?{target} WHERE {{ {block} }}"));
    // the oracle: every value of the target, by the row executor
    let want = evaluate_reference(graph, &distinct).expect("oracle");
    let want: BTreeSet<TermId> = ids(&want).into_iter().collect();
    let want: Vec<TermId> = want.into_iter().collect();

    let plan = explain(graph, &distinct).expect("explains");
    assert!(plan.contains("\nset query: "), "{name}: {block}:\n{plan}");
    let count = parse(&format!(
        "SELECT (COUNT(DISTINCT ?{target}) AS ?n) WHERE {{ {block} }}"
    ));
    let counted = Solutions {
        vars: vec!["n".to_owned()],
        rows: vec![vec![Some(Value::Number(want.len() as f64))]],
    };
    let got = evaluate(graph, &distinct).expect("evaluates");
    // equal to the oracle as a set *and* ascending: `want` is both
    assert_eq!(
        ids(&got),
        want,
        "{name}: DISTINCT ?{target} {{ {block} }}\n{plan}"
    );
    for eval in [evaluate, evaluate_reference] {
        assert_eq!(
            eval(graph, &count).expect("evaluates"),
            counted,
            "{name}: COUNT(DISTINCT ?{target}) {{ {block} }}\n{plan}"
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
/// text — each starting from the observation class's posting list: the
/// observations' predicates are decided per candidate, a level's
/// predicates by a walk of its members' runs (the suffix of a cut at
/// `?m`), the members themselves forward or backward, and nothing is
/// joined.
fn assert_crawl_shapes(dataset: Dataset) -> (Coverage, usize) {
    let world = World::new(dataset);
    let name = world.dataset.name.clone();
    let class = &world.dataset.observation_class;
    let schema = bootstrap(&world.local, &BootstrapConfig::new(class.clone()))
        .expect("bootstraps")
        .schema;
    assert!(!schema.levels().is_empty(), "{name}");
    let mut coverage = Coverage::default();
    let mut record = |plan: &str, block: &str| {
        assert!(
            plan.contains("\n  node 0: distinct ?o, index read subjects\n"),
            "{name}: {block}:\n{plan}"
        );
        coverage.record(plan);
    };
    // measure and dimension discovery, both decided per predicate
    for kind in ["isIRI", "isNumeric"] {
        let block = format!("?o a <{class}> . ?o ?p ?x . FILTER({kind}(?x))");
        let plan = assert_set_query(&world, &block, "p");
        assert_eq!(
            target_access(&plan),
            "per candidate",
            "{name}: {block}:\n{plan}"
        );
        record(&plan, &block);
    }
    for level in schema.levels() {
        let path: Vec<String> = level.path.iter().map(|p| format!("<{p}>")).collect();
        let members = format!("?o a <{class}> . ?o {} ?m", path.join(" / "));
        let plan = assert_set_query(&world, &members, "m");
        assert_ne!(target_access(&plan), "join", "{name}: {members}:\n{plan}");
        record(&plan, &members);
        for kind in ["isLiteral", "isIRI"] {
            // the predicates behind ?m: the suffix of a cut there, so the
            // seeds' runs are walked once
            let block = format!("{members} . ?m ?q ?x . FILTER({kind}(?x))");
            let plan = assert_set_query(&world, &block, "q");
            assert_eq!(
                target_access(&plan),
                "seed walk",
                "{name}: {block}:\n{plan}"
            );
            record(&plan, &block);
        }
    }
    assert_eq!(coverage.per_candidate, 2, "{}", world.dataset.name);
    let levels = schema.levels().len();
    assert_eq!(coverage.seed_walk, 2 * levels, "{}", world.dataset.name);
    assert_eq!(coverage.join, 0, "{}", world.dataset.name);
    (coverage, levels)
}

#[test]
fn crawl_shapes_on_the_running_example() {
    let (coverage, _) = assert_crawl_shapes(running::generate());
    // some member set is too large a share of the class to decide
    // backward, and is walked forward
    assert!(coverage.forward > 0, "no member set was walked forward");
}

#[test]
fn crawl_shapes_on_eurostat() {
    let (coverage, _) = assert_crawl_shapes(eurostat::generate(2_000, 7));
    // 1-to-N: the members are decided from their own postings
    assert!(coverage.backward > 0, "no node was decided backward");
}

#[test]
fn crawl_shapes_on_production() {
    assert_crawl_shapes(production::generate(600, 11));
}

#[test]
fn crawl_shapes_on_dbpedia() {
    let (coverage, _) = assert_crawl_shapes(dbpedia::generate(600, 13));
    // a two-step level's predicates: the class, two arms and the target
    assert!(coverage.longest >= 4, "no chain was cut twice");
}

// ---- one-pattern shapes: index reads ---------------------------------------------

/// Asserts `SELECT (COUNT(?{var}) AS ?n)` and `SELECT (COUNT(1) AS ?n)`
/// over `block` equal the number of rows the row executor finds, under
/// both evaluators and under composition; returns the plan `explain`
/// printed.
fn assert_count(world: &World, block: &str, var: &str) -> String {
    let graph = &world.dataset.graph;
    let name = &world.dataset.name;
    let rows = parse_query(&format!("SELECT ?{var} WHERE {{ {block} }}")).expect("parses");
    let rows = evaluate_reference(graph, &rows).expect("oracle");
    let counted = |alias: &str| Solutions {
        vars: vec![alias.to_owned()],
        rows: vec![vec![Some(Value::Number(rows.rows.len() as f64))]],
    };
    let mut plans = Vec::new();
    for what in [format!("?{var}"), "1".to_owned()] {
        let text = format!("SELECT (COUNT({what}) AS ?n) WHERE {{ {block} }}");
        let query = parse_query(&text).expect("parses");
        plans.push(explain(graph, &query).expect("explains"));
        for eval in [evaluate, evaluate_reference] {
            let got = eval(graph, &query).expect("evaluates");
            assert_eq!(got, counted("n"), "{name}: {text}");
        }
        for sharded in &world.sharded {
            let reference = match sharded.route(&query) {
                Route::Scatter => reference_solutions(&world.local, &query),
                Route::Replica => world.local.select(&query),
            };
            assert_eq!(sharded.select(&query), reference, "{name}: {text}");
        }
    }
    assert_eq!(plans[0], plans[1], "{name}: {block}");
    plans.swap_remove(0)
}

/// A set query over one pattern whose answer an index lists is that
/// index read — the predicates arriving at a member (`member_levels` asks
/// it for every keyword hit), leaving a subject, the objects of a
/// predicate, a posting list — and `explain` names it; so is
/// `COUNT` over one pattern. An absent constant reads nothing; a variable
/// repeated inside the pattern constrains it beyond any index key, so the
/// pattern is joined. Every answer equals the row executor's.
#[test]
fn one_pattern_shapes_are_index_reads() {
    let datasets = [
        running::generate(),
        eurostat::generate(400, 43),
        production::generate(300, 41),
        dbpedia::generate(200, 37),
    ];
    for dataset in datasets {
        let world = World::new(dataset);
        let graph = &world.dataset.graph;
        let name = world.dataset.name.clone();
        let class = world.dataset.observation_class.clone();
        let dim = world.dataset.dimension_predicates[0].clone();
        let type_id = graph.iri_id(RDF_TYPE).expect("typed");
        let class_id = graph.iri_id(&class).expect("a class");
        let observation = graph.term(graph.subjects(type_id, class_id)[0]).to_string();
        let dim_id = graph.iri_id(&dim).expect("a dimension");
        let member = graph
            .term(graph.objects_of_predicate(dim_id)[0])
            .to_string();
        let absent = "<http://absent.example/o>";
        let reads = [
            (format!("?x ?p {member}"), "p", "index read predicates_into"),
            (
                format!("{observation} ?p ?x"),
                "p",
                "index read predicates_from",
            ),
            (
                format!("?x <{dim}> ?o"),
                "o",
                "index read objects_of_predicate",
            ),
            (format!("?o a <{class}>"), "o", "index read subjects"),
            (
                format!("{observation} <{dim}> ?m"),
                "m",
                "index read objects",
            ),
            (
                format!("{observation} ?p {member}"),
                "p",
                "index read predicates_between",
            ),
            (
                format!("?x ?p {absent}"),
                "p",
                "index read: nothing (absent constant)",
            ),
            (format!("?x <{dim}> ?x"), "x", "join"),
            ("?x ?p ?x".to_owned(), "p", "join"),
        ];
        for (block, target, access) in reads {
            let plan = assert_set_query(&world, &block, target);
            assert_eq!(target_access(&plan), access, "{name}: {block}:\n{plan}");
        }
        let counts = [
            (format!("?o a <{class}>"), "o", true),
            (format!("?x ?p {member}"), "p", true),
            (format!("?x <{dim}> ?o"), "x", true),
            (format!("?x ?p {absent}"), "x", true),
            (format!("?x <{dim}> ?x"), "x", false),
            (format!("?o a <{class}> . ?o <{dim}> ?m"), "m", false),
        ];
        for (block, var, read) in counts {
            let plan = assert_count(&world, &block, var);
            assert_eq!(
                plan.contains("\n  node 0: count, index read count_matching\n"),
                read,
                "{name}: {block}:\n{plan}"
            );
        }
    }
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

/// A random connected block and a target variable in it: one pattern, or
/// a chain `?o <path> ?m` off the observations (paths of one to three
/// predicates), a tail behind `?m` (a predicate variable, a label, a
/// repeated variable), optionally a star arm on `?o`, filters on the
/// prefix side, on the suffix side, on the cut variable and across the
/// cut, an absent constant, a pattern connected to nothing — in shuffled
/// textual order, as the block's parts.
/// The target is any variable of the block, so it sits next to the cut,
/// far behind it, or in front of every candidate.
fn random_block(rng: &mut TestRng, harness: &Harness) -> (Vec<String>, String) {
    let dataset = &harness.world.dataset;
    let dims = &dataset.dimension_predicates;
    if rng.gen_bool(0.15) {
        // one pattern: an index read, or — no index keyed that way, a
        // variable repeated — its join
        let member = rng.pick(&harness.members);
        let (block, vars) = match rng.pick_weighted(&[2, 2, 2, 1, 1]) {
            0 => (format!("?x ?q {member}"), ["x", "q"]),
            1 => (format!("{member} ?q ?x"), ["q", "x"]),
            2 => (format!("?o <{}> ?m", rng.pick(dims)), ["o", "m"]),
            3 => (format!("?m <{}> ?l", dataset.label_predicate), ["m", "l"]),
            _ => ("?m ?q ?m".to_owned(), ["m", "q"]),
        };
        return (vec![block], (*rng.pick(&vars)).to_owned());
    }
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
    if rng.gen_bool(0.15) {
        // connected to nothing; one solution, so a product with it stays
        // the size of the other side
        let member = rng.pick(&harness.members);
        patterns.push(format!("{member} <{}> ?alone", dataset.label_predicate));
    }
    let mut parts = patterns;
    parts.extend(filters);
    rng.shuffle(&mut parts);
    let target = (*rng.pick(&vars)).to_owned();
    (parts, target)
}

/// A random block's set queries agree with the oracle, and answer the same
/// with the block's parts in another textual order: the planner reads the
/// text only to break cost ties.
fn property_set_queries_agree(dataset: Dataset, name: &str, cases: u32) {
    let harness = Harness::new(dataset);
    let graph = &harness.world.dataset.graph;
    re2x_testkit::check_n(name, cases, |rng| {
        let (mut parts, target) = random_block(rng, &harness);
        let block = parts.join(" . ");
        assert_set_query(&harness.world, &block, &target);
        rng.shuffle(&mut parts);
        let permuted = parts.join(" . ");
        for shape in ["DISTINCT ?{t}", "(COUNT(DISTINCT ?{t}) AS ?n)"] {
            let select = shape.replace("{t}", &target);
            let answer = |block: &str| {
                let text = format!("SELECT {select} WHERE {{ {block} }}");
                evaluate(graph, &parse_query(&text).expect("parses")).expect("evaluates")
            };
            assert_eq!(
                answer(&permuted),
                answer(&block),
                "{block}\npermuted: {permuted}"
            );
        }
    });
}

#[test]
fn property_set_queries_agree_on_eurostat() {
    property_set_queries_agree(eurostat::generate(800, 31), "set_query_eurostat", 64);
}

#[test]
fn property_set_queries_agree_on_dbpedia() {
    // fewer cases: the dimension tables dwarf the observations, which
    // makes each case slow in a debug build
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
    let seed_ids: BTreeSet<TermId> = ids(&evaluate_reference(&graph, &oracle).expect("seeds"))
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
            plan.contains("\n  node 1: distinct ?p seeded on ?o, per candidate\n"),
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

// ---- candidates without a witness -------------------------------------------------

/// A node decided backward keeps a candidate only on a witness among its
/// seeds, however many subjects the candidate has. Live writes add a
/// predicate `apart` of three objects — one that forty strangers reach,
/// one that the same strangers, an observation and a member reach, one
/// that a single stranger reaches — and a member only two strangers reach
/// (`lonely`), itself reaching a fourth object: asked of the observations
/// and of the members behind them, the objects are decided backward, the
/// second time asking the arm before about each subject in turn.
#[test]
fn backward_nodes_need_a_witness() {
    let dataset = eurostat::generate(400, 43);
    let class = dataset.observation_class.clone();
    let mut graph = dataset.graph.clone();
    // the dimension with the most members: far more than `apart`'s objects
    let members = |d: &&String| {
        graph
            .iri_id(d)
            .map(|p| graph.predicate_stats(p).distinct_objects)
    };
    let dim = dataset
        .dimension_predicates
        .iter()
        .max_by_key(members)
        .expect("a dimension")
        .clone();
    let (type_id, class_id) = (graph.iri_id(RDF_TYPE), graph.iri_id(&class));
    let observation = graph.subjects(type_id.expect("typed"), class_id.expect("a class"))[0];
    let observation = graph.term(observation).clone();
    let dim_id = graph.iri_id(&dim).expect("a dimension");
    let member = graph.term(graph.objects_of_predicate(dim_id)[0]).clone();
    let fresh = |name: &str| Term::iri(format!("http://fresh.example/{name}"));
    let strangers: Vec<Term> = (0..40).map(|i| fresh(&format!("s{i}"))).collect();
    let (apart, lonely) = (fresh("apart"), fresh("lonely"));
    for stranger in &strangers {
        graph.insert(stranger.clone(), apart.clone(), fresh("strangers"));
        graph.insert(stranger.clone(), apart.clone(), fresh("shared"));
        graph.insert(lonely.clone(), apart.clone(), fresh("lonely-only"));
    }
    graph.insert(observation.clone(), apart.clone(), fresh("shared"));
    graph.insert(member, apart.clone(), fresh("shared"));
    graph.insert(strangers[0].clone(), apart.clone(), fresh("one"));
    for stranger in &strangers[..2] {
        graph.insert(stranger.clone(), Term::iri(dim.clone()), lonely.clone());
    }
    let world = World::new(with_graph(&dataset, graph));
    let apart = "<http://fresh.example/apart>";
    let blocks = [
        format!("?o a <{class}> . ?o {apart} ?x"),
        format!("?o a <{class}> . ?o <{dim}> ?m . ?m {apart} ?x"),
    ];
    for block in &blocks {
        let plan = assert_set_query(&world, block, "x");
        assert_eq!(target_access(&plan), "backward", "{block}:\n{plan}");
        if block.contains("?m") {
            assert!(plan.contains(" seeded on ?o, backward\n"), "{plan}");
        }
    }
}

// ---- member predicates by a walk of the members' runs -------------------------------

/// A seed walk tests a run's objects up to the first one kept, skips a
/// predicate once found, and reads runs as the overlay leaves them. Live
/// writes give one member `mixed` with a literal first (the lower id)
/// and an IRI after it, so under `isIRI` the first object is filtered
/// out before one that is kept; another member the literal only; a
/// third `fresh`, which lives only in the overlay; and every member of
/// the level `gone`, compacted into the base and then removed again.
#[test]
fn seed_walks_read_past_filtered_objects_and_the_overlay() {
    let dataset = eurostat::generate(400, 43);
    let class = dataset.observation_class.clone();
    let dim = dataset.dimension_predicates[0].clone();
    let mut graph = dataset.graph.clone();
    let dim_id = graph.iri_id(&dim).expect("a dimension");
    let members: Vec<Term> = graph
        .objects_of_predicate(dim_id)
        .into_iter()
        .map(|m| graph.term(m).clone())
        .collect();
    assert!(members.len() >= 3, "{members:?}");
    let fresh = |name: &str| Term::iri(format!("http://fresh.example/{name}"));
    let (mixed, only_overlay, gone) = (fresh("mixed"), fresh("overlay"), fresh("gone"));
    for member in &members {
        graph.insert(member.clone(), gone.clone(), fresh("gone-object"));
    }
    graph.compact();
    let literal = Term::from(Literal::simple("interned before the IRI"));
    graph.insert(members[0].clone(), mixed.clone(), literal.clone());
    graph.insert(members[0].clone(), mixed.clone(), fresh("kept"));
    graph.insert(members[1].clone(), mixed.clone(), literal.clone());
    graph.insert(members[2].clone(), only_overlay.clone(), fresh("kept"));
    let (literal_id, kept_id) = (
        graph.term_id(&literal).expect("interned"),
        graph.iri_id("http://fresh.example/kept").expect("interned"),
    );
    assert!(literal_id < kept_id, "the filtered object comes first");
    let gone_object = graph.iri_id("http://fresh.example/gone-object");
    let gone_id = graph.iri_id("http://fresh.example/gone").expect("interned");
    for member in &members {
        let m = graph.term_id(member).expect("a member");
        assert!(graph.remove_ids(m, gone_id, gone_object.expect("interned")));
    }
    let world = World::new(with_graph(&dataset, graph));
    let graph = &world.dataset.graph;
    let members = format!("?o a <{class}> . ?o <{dim}> ?m . ?m ?q ?x");
    let id = |iri: &str| graph.iri_id(iri).expect("interned");
    let (mixed, only_overlay) = (
        id("http://fresh.example/mixed"),
        id("http://fresh.example/overlay"),
    );
    for (filter, holds) in [
        ("FILTER(isIRI(?x))", [true, true]),
        ("FILTER(isLiteral(?x))", [true, false]),
        ("FILTER(?x != <http://fresh.example/kept>)", [true, false]),
        ("FILTER(isNumeric(?x))", [false, false]),
    ] {
        let block = format!("{members} . {filter}");
        let plan = assert_set_query(&world, &block, "q");
        assert_eq!(target_access(&plan), "seed walk", "{block}:\n{plan}");
        let query =
            parse_query(&format!("SELECT DISTINCT ?q WHERE {{ {block} }}")).expect("parses");
        let found = ids(&evaluate(graph, &query).expect("evaluates"));
        assert_eq!(
            [found.contains(&mixed), found.contains(&only_overlay)],
            holds,
            "{block}: {found:?}"
        );
        assert!(!found.contains(&gone_id), "{block}: a removed predicate");
    }
}

// ---- shapes the rule refuses ------------------------------------------------------

/// Anything but one `DISTINCT` / `COUNT(DISTINCT)` variable over a flat
/// block, or a `COUNT` over one pattern, with no other clause is no set
/// query: it reaches the ordinary executor, whose answer keeps its row
/// order and its LIMIT.
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
        let reference = evaluate_reference(graph, &query);
        assert_eq!(evaluate(graph, &query), reference, "{text}");
        let rows = reference.expect("evaluates").rows;
        if text.contains("LIMIT 2") {
            assert_eq!(rows.len(), 2, "{text}");
        } else {
            assert!(!rows.is_empty(), "{text}");
        }
    }
    // … and the same block under one DISTINCT variable is one
    let query = parse_query(&format!("SELECT DISTINCT ?q WHERE {{ {block} }}")).expect("parses");
    let plan = explain(graph, &query).expect("explains");
    assert!(plan.contains("\nset query: distinct ?q\n"), "{plan}");
    assert_eq!(target_access(&plan), "seed walk", "{plan}");
    assert!(plan.contains(" seeded on ?m, seed walk\n"), "{plan}");
}

// ---- what explain shows ------------------------------------------------------------

/// Golden plans: the roll-up discovery query of a two-step dbpedia level
/// (the class's posting list, each arm of the path walked forward from the
/// values before it, the member predicates by one walk of the members'
/// runs), the
/// dimension discovery query (each predicate decided on its own against
/// the class's posting list), and the member count of a coarse level (its
/// few decades decided backward, asking the arm before about only the
/// artists a decade names).
#[test]
fn explain_prints_the_decomposition() {
    let dataset = dbpedia::generate(600, 13);
    let graph = &dataset.graph;
    let ns = "http://data.example.org/dbpedia/";
    let plan_of = |text: String| explain(graph, &parse_query(&text).expect("parses"));
    let plan = plan_of(format!(
        "SELECT DISTINCT ?q WHERE {{
            ?o a <{ns}CreativeWork> . ?o <{ns}artist> / <{ns}associatedAct> ?m .
            ?m ?q ?x . FILTER(isIRI(?x))
         }}"
    ));
    let expected = format!(
        "executor: columnar
set query: distinct ?q
  node 0: distinct ?o, index read subjects
     0. ?o <{RDF_TYPE}> <{ns}CreativeWork>   (cost estimate 37)
  node 1: distinct ?_path1 seeded on ?o, forward
     0. ?o* <{ns}artist> ?_path1   (cost estimate 37)
  node 2: distinct ?m seeded on ?_path1, forward
     0. ?_path1* <{ns}associatedAct> ?m   (cost estimate 3980)
  node 3: distinct ?q seeded on ?m, seed walk
     0. ?m* ?q ?x   (cost estimate 81686)
        select isIRI(?x)
"
    );
    assert_eq!(plan.expect("explains"), expected);
    let plan = plan_of(format!(
        "SELECT DISTINCT ?p WHERE {{ ?o a <{ns}CreativeWork> . ?o ?p ?x . FILTER(isIRI(?x)) }}"
    ));
    let expected = format!(
        "executor: columnar
set query: distinct ?p
  node 0: distinct ?o, index read subjects
     0. ?o <{RDF_TYPE}> <{ns}CreativeWork>   (cost estimate 37)
  node 1: distinct ?p seeded on ?o, per candidate
     0. ?o* ?p ?x   (cost estimate 81686)
        select isIRI(?x)
"
    );
    assert_eq!(plan.expect("explains"), expected);
    let plan = plan_of(format!(
        "SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE {{
            ?o a <{ns}CreativeWork> . ?o <{ns}artist> / <{ns}activeDecade> ?m
         }}"
    ));
    let expected = format!(
        "executor: columnar
set query: distinct ?m
  node 0: distinct ?o, index read subjects
     0. ?o <{RDF_TYPE}> <{ns}CreativeWork>   (cost estimate 37)
  node 1: distinct ?_path1 seeded on ?o, backward
     0. ?o* <{ns}artist> ?_path1   (cost estimate 37)
  node 2: distinct ?m seeded on ?_path1, backward
     0. ?_path1* <{ns}activeDecade> ?m   (cost estimate 3980)
then: group by [] + aggregate
"
    );
    assert_eq!(plan.expect("explains"), expected);
}
