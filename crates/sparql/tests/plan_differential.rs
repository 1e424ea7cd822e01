//! Differential proof that the vectorized columnar executor and the
//! greedy planner preserve exact semantics: across all four figure
//! datasets and a seeded random-query harness, every combination of
//! [`PlanMode`] × [`ExecMode`] yields identical solutions, and the
//! [`ShardedEndpoint`] composition (whose shards now run the columnar
//! kernel by default) stays identical to the canonical reference.
//!
//! FILTERed blocks run on the columnar kernel too (filters compiled once,
//! applied to the batch as selections at their scheduled step), and
//! aggregation reads the batch directly — so the workload and the seeded
//! generator carry the filter shapes sessions produce (the Similarity
//! refinement's member-combination DNF, filters scheduled mid-chain, on
//! the measure, and over a variable nothing binds), `explain` is asserted
//! to put every flat shape on the kernel (the differential is not
//! vacuous), and aggregates are checked against a fold over the
//! unaggregated rows.
//!
//! Two identity strengths apply:
//!
//! * **Row vs. columnar, same plan** — byte identity with no ordering
//!   caveat: the columnar kernel enumerates index matches in exactly the
//!   row executor's order, so even unordered queries must produce the
//!   same row sequence.
//! * **Planned vs. in-order** — the join order legitimately changes the
//!   row sequence, so queries pin a total order (`ORDER BY` over every
//!   projected variable / every group key); measures are integer-valued
//!   on the datasets used here, so aggregate sums are exact in f64 and
//!   reassociation cannot introduce drift.

use re2x_datagen::common::Dataset;
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_rdf::Graph;
use re2x_sparql::{
    evaluate, evaluate_full, explain, parse_query, reference_solutions, ExecMode, LocalEndpoint,
    PlanMode, Route, ShardedEndpoint, Solutions, SparqlEndpoint, Value,
};
use re2x_testkit::TestRng;

const COMBOS: [(PlanMode, ExecMode); 4] = [
    (PlanMode::Planned, ExecMode::Columnar),
    (PlanMode::Planned, ExecMode::Row),
    (PlanMode::InOrder, ExecMode::Columnar),
    (PlanMode::InOrder, ExecMode::Row),
];

/// The (per-dataset) measure predicate — the one Dataset field the
/// generators don't expose directly.
fn measure_predicate(dataset: &Dataset) -> String {
    let local = match dataset.name.as_str() {
        "running-example" | "eurostat" => "numApplicants",
        "production" => "amount",
        "dbpedia" => "playCount",
        other => panic!("unknown dataset {other}"),
    };
    let dim = &dataset.dimension_predicates[0];
    let ns = &dim[..dim.rfind('/').expect("namespace separator") + 1];
    format!("{ns}{local}")
}

/// A dimension predicate and a roll-up predicate that applies to its
/// members (the generators list both, but not which goes with which).
fn rolled_up_dimension(dataset: &Dataset) -> (&String, &String) {
    for rollup in &dataset.rollup_predicates {
        for dim in &dataset.dimension_predicates {
            let ask = format!("ASK {{ ?o <{dim}> / <{rollup}> ?up }}");
            let ask = parse_query(&ask).expect("parse");
            if re2x_sparql::evaluate_ask(&dataset.graph, &ask).expect("evaluates") {
                return (dim, rollup);
            }
        }
    }
    panic!("{}: no roll-up applies to any dimension", dataset.name)
}

/// The distinct solutions of `SELECT DISTINCT {vars} WHERE {{ {wher} }}` as
/// SPARQL constants (`<iri>` / literal syntax), one `Vec` per solution —
/// the members filters are built from.
fn constants(graph: &Graph, vars: &str, wher: &str) -> Vec<Vec<String>> {
    let query = parse_query(&format!("SELECT DISTINCT {vars} WHERE {{ {wher} }}")).expect("parse");
    let solutions = evaluate(graph, &query).expect("evaluates");
    let constant = |cell: &Option<Value>| match cell {
        Some(Value::Term(id)) => graph.term(*id).to_string(),
        other => panic!("member cell {other:?}"),
    };
    let rows = solutions.rows.iter();
    rows.map(|row| row.iter().map(constant).collect()).collect()
}

/// The filter an ExRef Similarity refinement appends: a disjunction over
/// member combinations, each a conjunction of `?var = member`.
fn dnf(vars: &[&str], combinations: &[&Vec<String>]) -> String {
    let alternatives: Vec<String> = combinations
        .iter()
        .map(|combination| {
            let equalities: Vec<String> = vars
                .iter()
                .zip(*combination)
                .map(|(var, member)| format!("{var} = {member}"))
                .collect();
            format!("({})", equalities.join(" && "))
        })
        .collect();
    format!("FILTER({})", alternatives.join(" || "))
}

/// Flat shapes the columnar kernel runs — stars, chains, property paths,
/// FILTERs at every point of the schedule, aggregation — plus the shapes
/// that must take the row path (OPTIONAL, UNION, ASK): all compared
/// row-for-row.
fn workload(dataset: &Dataset) -> Vec<String> {
    let class = &dataset.observation_class;
    let measure = measure_predicate(dataset);
    let dim0 = &dataset.dimension_predicates[0];
    let dim1 = &dataset.dimension_predicates[dataset.dimension_predicates.len() - 1];
    let (coarse_dim, rollup) = rolled_up_dimension(dataset);
    let label = &dataset.label_predicate;
    // member combinations of two grouping variables, one behind a path
    let other_dim = if coarse_dim == dim1 { dim0 } else { dim1 };
    let rolled_up = format!("?o <{coarse_dim}> / <{rollup}> ?up . ?o <{other_dim}> ?b");
    let combinations = constants(&dataset.graph, "?up ?b", &rolled_up);
    let kept: Vec<&Vec<String>> = combinations.iter().step_by(3).take(4).collect();
    let similarity = dnf(&["?up", "?b"], &kept);
    let members = constants(&dataset.graph, "?a", &format!("?o <{dim0}> ?a"));
    let (first, last) = (&members[0][0], &members[members.len() - 1][0]);
    vec![
        // the Similarity refinement's shape: DNF over two grouping
        // variables (one behind a property path), every aggregate of one
        // measure, groups in first-seen order
        format!(
            "SELECT ?up ?b (MAX(?m) AS ?max) (MIN(?m) AS ?min) (AVG(?m) AS ?avg) (SUM(?m) AS ?sum)
             WHERE {{ {rolled_up} . ?o <{measure}> ?m . {similarity} }} GROUP BY ?up ?b"
        ),
        format!("SELECT ?o ?up ?b WHERE {{ {rolled_up} . {similarity} }}"),
        // a filter decidable after the first pattern of a longer chain
        format!(
            "SELECT ?o ?a ?b ?m WHERE {{
                ?o <{dim0}> ?a . FILTER(?a = {first} || {last} = ?a)
                ?o <{dim1}> ?b . ?o <{measure}> ?m
             }}"
        ),
        // filters on the measure: comparison, arithmetic, division by zero
        format!("SELECT ?o ?m WHERE {{ ?o <{measure}> ?m . FILTER(?m * 2 >= 40 && ?m != 33) }}"),
        format!(
            "SELECT ?d (COUNT(?m) AS ?n) WHERE {{
                ?o <{dim0}> ?d . ?o <{measure}> ?m . FILTER(100 / (?m - 20) > 1)
             }} GROUP BY ?d"
        ),
        // filters over a variable the block never binds: an error rejects
        // every row, !BOUND keeps every row
        format!("SELECT ?o ?d WHERE {{ ?o <{dim0}> ?d . FILTER(?nope = ?d) }}"),
        format!("SELECT ?o ?d WHERE {{ ?o <{dim0}> ?d . FILTER(!BOUND(?nope)) }}"),
        // a filter over strings, after a chain join
        format!(
            "SELECT ?d ?l WHERE {{
                ?o <{dim0}> ?d . ?d <{label}> ?l . FILTER(CONTAINS(LCASE(STR(?l)), \"a\"))
             }}"
        ),
        // columnar-native flat stars and chains
        format!("SELECT ?o ?d WHERE {{ ?o <{dim0}> ?d }}"),
        format!("SELECT ?o ?d ?m WHERE {{ ?o <{dim0}> ?d . ?o <{measure}> ?m }}"),
        format!(
            "SELECT ?o ?a ?b ?m WHERE {{
                ?o <{dim0}> ?a . ?o <{dim1}> ?b . ?o <{measure}> ?m . ?o a <{class}>
             }}"
        ),
        format!("SELECT ?o ?d ?l WHERE {{ ?o <{dim0}> ?d . ?d <{label}> ?l }}"),
        // semijoin tail: a fully-bound pattern after the star
        format!("SELECT ?o ?d WHERE {{ ?o <{dim0}> ?d . ?o a <{class}> }}"),
        // variable predicate (two fresh vars in one pattern: fallback path)
        format!("SELECT ?p ?v WHERE {{ ?o a <{class}> . ?o ?p ?v }} LIMIT 200"),
        // aggregation over the flat star
        format!(
            "SELECT ?d (SUM(?m) AS ?total) (COUNT(?o) AS ?n) WHERE {{
                ?o <{dim0}> ?d . ?o <{measure}> ?m
             }} GROUP BY ?d ORDER BY ?d"
        ),
        // a filter with a total order downstream, a property path
        format!(
            "SELECT ?o ?m WHERE {{ ?o <{measure}> ?m . FILTER(?m > 10) }} ORDER BY DESC(?m) ?o"
        ),
        format!(
            "SELECT ?up (SUM(?m) AS ?total) WHERE {{
                ?o <{coarse_dim}> / <{rollup}> ?up . ?o <{measure}> ?m
             }} GROUP BY ?up ORDER BY ?up"
        ),
        // row-executor shapes: OPTIONAL, UNION, ASK
        format!(
            "SELECT ?o ?d ?l WHERE {{
                ?o <{dim0}> ?d . OPTIONAL {{ ?d <{label}> ?l }}
             }} ORDER BY ?o ?d ?l"
        ),
        format!(
            "SELECT ?x WHERE {{
                {{ ?o <{dim0}> ?x }} UNION {{ ?o <{dim1}> ?x }}
             }} ORDER BY ?x"
        ),
        format!("ASK {{ ?o <{dim0}> ?d . ?o <{measure}> ?m }}"),
    ]
}

/// Row-vs-columnar byte identity under the *same* plan, for every query of
/// the figure workload — including unordered queries, whose row sequence
/// the columnar kernel must reproduce exactly.
fn assert_exec_identity(dataset: &Dataset) {
    let graph = &dataset.graph;
    for text in workload(dataset) {
        let query = parse_query(&text).expect("workload query parses");
        // the comparison below must not be row executor against itself:
        // every flat shape really runs on the kernel, filters included
        let plan = explain(graph, &query).expect("explains");
        let flat = !["OPTIONAL", "UNION", "ASK"]
            .iter()
            .any(|k| text.contains(k));
        assert_eq!(
            plan.starts_with("executor: columnar\n"),
            flat,
            "{}: unexpected executor for {text}:\n{plan}",
            dataset.name
        );
        assert_eq!(
            plan.contains("select "),
            text.contains("FILTER"),
            "{}: filters missing from the plan of {text}:\n{plan}",
            dataset.name
        );
        for mode in [PlanMode::Planned, PlanMode::InOrder] {
            let row = evaluate_full(graph, &query, mode, ExecMode::Row);
            let col = evaluate_full(graph, &query, mode, ExecMode::Columnar);
            assert_eq!(
                row, col,
                "{} {mode:?}: row/columnar diverge on {text}",
                dataset.name
            );
            if text.contains("?up = ") {
                // the member combinations were read off the data
                let kept = col.expect("evaluates").len();
                assert!(kept > 0, "{}: Similarity filter kept nothing", dataset.name);
            }
        }
    }
}

#[test]
fn running_example_row_and_columnar_are_byte_identical() {
    assert_exec_identity(&running::generate());
}

#[test]
fn eurostat_row_and_columnar_are_byte_identical() {
    assert_exec_identity(&eurostat::generate(400, 7));
}

#[test]
fn production_row_and_columnar_are_byte_identical() {
    // Same plan ⇒ same row order ⇒ float sums accumulate identically:
    // exact equality holds even for the float-valued production measure.
    assert_exec_identity(&production::generate(300, 11));
}

#[test]
fn dbpedia_row_and_columnar_are_byte_identical() {
    assert_exec_identity(&dbpedia::generate(300, 13));
}

/// The sharded composition answers identically whichever executor the
/// shards run: scatter-routed queries against the canonical reference,
/// replica-routed ones against plain local evaluation.
#[test]
fn sharded_composition_is_identical_under_columnar_default() {
    let dataset = eurostat::generate(300, 23);
    let local = LocalEndpoint::new(dataset.graph.clone());
    for shards in [2, 4] {
        let sharded = ShardedEndpoint::with_observation_class(
            dataset.graph.clone(),
            &dataset.observation_class,
            shards,
        );
        for text in workload(&dataset) {
            let query = parse_query(&text).expect("parse");
            if query.form != re2x_sparql::QueryForm::Select {
                continue;
            }
            let got = sharded.select(&query);
            let want = match sharded.route(&query) {
                Route::Scatter => reference_solutions(&local, &query),
                Route::Replica => local.select(&query),
            };
            assert_eq!(got, want, "{shards} shards mismatch: {text}");
        }
    }
}

// ---- aggregation off the batch -----------------------------------------------

/// What `GROUP BY ?d` with `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` over `?m` must
/// produce, folded here from the *unaggregated* `?d ?m` rows in their
/// binding order: groups in first-seen order, each sum added up in row
/// order — so float sums must agree to the bit, not to a tolerance.
fn folded(graph: &Graph, rows: &Solutions) -> Vec<Vec<Option<Value>>> {
    struct Group {
        key: Option<Value>,
        count: usize,
        numbers: Vec<f64>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for row in &rows.rows {
        let at = groups.iter().position(|g| g.key == row[0]);
        let at = at.unwrap_or_else(|| {
            groups.push(Group {
                key: row[0].clone(),
                count: 0,
                numbers: Vec::new(),
            });
            groups.len() - 1
        });
        if let Some(value) = &row[1] {
            groups[at].count += 1;
            groups[at].numbers.extend(value.as_number(graph));
        }
    }
    let fold = |numbers: &[f64], f: fn(f64, f64) -> f64, unit: f64| {
        let folded = numbers.iter().fold(unit, |acc, &n| f(acc, n));
        (!numbers.is_empty()).then_some(Value::Number(folded))
    };
    groups
        .iter()
        .map(|g| {
            let sum = fold(&g.numbers, |a, n| a + n, 0.0);
            let avg = sum.as_ref().map(|sum| match sum {
                Value::Number(sum) => Value::Number(sum / g.numbers.len() as f64),
                other => other.clone(),
            });
            vec![
                g.key.clone(),
                Some(Value::Number(g.count as f64)),
                sum,
                avg,
                fold(&g.numbers, f64::min, f64::INFINITY),
                fold(&g.numbers, f64::max, f64::NEG_INFINITY),
            ]
        })
        .collect()
}

/// Aggregation reads the kernel's batch directly, all aggregates in one
/// pass. On the float-measure dataset: groups come out in first-seen
/// order and every SUM/AVG carries exactly the bits of a left-to-right
/// fold over the group's rows, under both executors and for filtered and
/// non-numeric inputs alike.
#[test]
fn aggregates_off_the_batch_equal_a_fold_over_the_rows() {
    let dataset = production::generate(400, 17);
    let graph = &dataset.graph;
    let measure = measure_predicate(&dataset);
    let dim = &dataset.dimension_predicates[0];
    let label = &dataset.label_predicate;
    let aggregates = "(COUNT(?m) AS ?n) (SUM(?m) AS ?sum) (AVG(?m) AS ?avg) \
                      (MIN(?m) AS ?min) (MAX(?m) AS ?max)";
    let blocks = [
        format!("?o <{dim}> ?d . ?o <{measure}> ?m"),
        format!("?o <{dim}> ?d . ?o <{measure}> ?m . FILTER(?m > 50)"),
        // ?m is a label: COUNT counts it, every numeric aggregate is unbound
        format!("?o <{dim}> ?d . ?d <{label}> ?m"),
    ];
    for block in &blocks {
        let plain = parse_query(&format!("SELECT ?d ?m WHERE {{ {block} }}")).expect("parse");
        let grouped = format!("SELECT ?d {aggregates} WHERE {{ {block} }} GROUP BY ?d");
        let grouped = parse_query(&grouped).expect("parse");
        for exec in [ExecMode::Columnar, ExecMode::Row] {
            let rows = evaluate_full(graph, &plain, PlanMode::Planned, exec).expect("evaluates");
            assert!(!rows.is_empty(), "vacuous: {block}");
            let got = evaluate_full(graph, &grouped, PlanMode::Planned, exec).expect("evaluates");
            assert_eq!(got.rows, folded(graph, &rows), "{exec:?}: {block}");
        }
    }
    let labels = evaluate(
        graph,
        &parse_query(&format!(
        "SELECT (SUM(?m) AS ?sum) (COUNT(?m) AS ?n) WHERE {{ ?o <{dim}> ?d . ?d <{label}> ?m }}"
    ))
        .expect("parse"),
    )
    .expect("evaluates");
    assert_eq!(labels.rows.len(), 1);
    assert_eq!(
        labels.rows[0][0], None,
        "SUM over no numeric value is unbound"
    );
    assert!(matches!(labels.rows[0][1], Some(Value::Number(n)) if n > 0.0));
}

/// Aggregates without GROUP BY range over one implicit group even when the
/// block matches nothing — one row, `COUNT = 0`, numeric aggregates
/// unbound — while an empty match under GROUP BY yields no row at all.
#[test]
fn empty_match_keeps_the_implicit_group() {
    let dataset = production::generate(100, 19);
    let measure = measure_predicate(&dataset);
    let block = format!("?o <{measure}> ?m . FILTER(?m < 0 && ?m > 0)");
    for (mode, exec) in COMBOS {
        let run = |text: String| {
            let query = parse_query(&text).expect("parse");
            evaluate_full(&dataset.graph, &query, mode, exec).expect("evaluates")
        };
        let implicit = run(format!(
            "SELECT (COUNT(?m) AS ?n) (SUM(?m) AS ?sum) (AVG(?m) AS ?avg) WHERE {{ {block} }}"
        ));
        let zero = Some(Value::Number(0.0));
        assert_eq!(
            implicit.rows,
            vec![vec![zero, None, None]],
            "{mode:?}/{exec:?}"
        );
        let grouped = run(format!(
            "SELECT ?o (COUNT(?m) AS ?n) WHERE {{ {block} }} GROUP BY ?o"
        ));
        assert!(grouped.is_empty(), "{mode:?}/{exec:?}");
    }
}

// ---- seeded property harness ----------------------------------------------

/// What the generators draw from: the dataset, the roll-up path that
/// applies to one of its dimensions, and the members filters compare with.
struct Harness<'d> {
    dataset: &'d Dataset,
    coarse: (&'d String, &'d String),
    /// Members per dimension predicate (by index), as SPARQL constants.
    members: Vec<Vec<String>>,
    /// Members `?up` takes behind the roll-up path.
    coarse_members: Vec<String>,
}

impl<'d> Harness<'d> {
    fn new(dataset: &'d Dataset) -> Self {
        let single = |wher: String| -> Vec<String> {
            let solutions = constants(&dataset.graph, "?x", &wher);
            solutions.into_iter().flatten().collect()
        };
        let coarse = rolled_up_dimension(dataset);
        let dims = dataset.dimension_predicates.iter();
        Harness {
            dataset,
            coarse,
            members: dims.map(|d| single(format!("?o <{d}> ?x"))).collect(),
            coarse_members: single(format!("?o <{}> / <{}> ?x", coarse.0, coarse.1)),
        }
    }
}

/// A random star over `?o` — one to three dimension patterns (`?d0`…), the
/// measure (`?m`) most of the time, sometimes the class probe, a roll-up
/// path (`?up`) and a label hop off `?d0` (`?l0`) — in shuffled textual
/// order.
struct Star {
    wher: String,
    /// The dimension behind `?d{i}`, by index into the dataset's list.
    dims: Vec<usize>,
    uses_measure: bool,
    has_path: bool,
    has_label: bool,
}

impl Star {
    /// The variables that group the star's observations.
    fn grouping(&self) -> Vec<String> {
        let mut grouping: Vec<String> = (0..self.dims.len()).map(|i| format!("?d{i}")).collect();
        if self.has_path {
            grouping.push("?up".to_owned());
        }
        grouping
    }

    /// Every variable the star binds, `?o` first.
    fn projected(&self) -> Vec<String> {
        let mut projected: Vec<String> = vec!["?o".to_owned()];
        projected.extend(self.grouping());
        if self.uses_measure {
            projected.push("?m".to_owned());
        }
        if self.has_label {
            projected.push("?l0".to_owned());
        }
        projected
    }
}

fn random_star(rng: &mut TestRng, harness: &Harness) -> Star {
    let dataset = harness.dataset;
    let measure = measure_predicate(dataset);
    let n_dims = rng.gen_range(1..dataset.dimension_predicates.len().min(3) + 1);
    let mut dims: Vec<usize> = Vec::new();
    while dims.len() < n_dims {
        let d = rng.gen_range(0..dataset.dimension_predicates.len());
        if !dims.contains(&d) {
            dims.push(d);
        }
    }
    let mut wher: Vec<String> = dims
        .iter()
        .enumerate()
        .map(|(i, &d)| format!("?o <{}> ?d{i}", dataset.dimension_predicates[d]))
        .collect();
    let uses_measure = rng.gen_bool(0.8);
    if uses_measure {
        wher.push(format!("?o <{measure}> ?m"));
    }
    if rng.gen_bool(0.4) {
        wher.push(format!("?o a <{}>", dataset.observation_class));
    }
    let has_path = rng.gen_bool(0.3);
    if has_path {
        let (dim, rollup) = harness.coarse;
        wher.push(format!("?o <{dim}> / <{rollup}> ?up"));
    }
    // random textual order (Fisher–Yates) — all star patterns share ?o,
    // so even the naive in-order executor stays bounded by the index size
    for i in (1..wher.len()).rev() {
        let j = rng.gen_range(0..(i + 1) as u32) as usize;
        wher.swap(i, j);
    }
    let has_label = rng.gen_bool(0.4);
    if has_label {
        // a second hop off the first dimension: chain join. Inserted after
        // the pattern binding ?d0 so the in-order baseline never starts
        // from a disconnected pattern (which would build a cartesian
        // product of the whole label index against the star — the planner
        // avoids that, and `repro plan` measures it on a bounded dataset,
        // but a 64-case property suite cannot afford it).
        let bind = wher
            .iter()
            .position(|w| w.contains("?d0"))
            .map_or(0, |i| i + 1);
        let at = bind + rng.gen_range(0..(wher.len() - bind + 1) as u32) as usize;
        wher.insert(at, format!("?d0 <{}> ?l0", dataset.label_predicate));
    }
    Star {
        wher: wher.join(" . "),
        dims,
        uses_measure,
        has_path,
        has_label,
    }
}

/// A random `FILTER` over the star's variables, in the shapes sessions
/// produce and the schedule treats differently: the Similarity DNF over
/// one or two grouping variables (the path variable among them), a
/// condition on the measure, one over a variable nothing binds, one over
/// the label's string.
fn random_filter(rng: &mut TestRng, harness: &Harness, star: &Star) -> String {
    let choice = rng.pick_weighted(&[
        5,
        3 * u32::from(star.uses_measure),
        2,
        2 * u32::from(star.has_label),
    ]);
    let condition = match choice {
        0 => {
            let mut vars: Vec<(String, &Vec<String>)> = star
                .dims
                .iter()
                .enumerate()
                .map(|(i, &d)| (format!("?d{i}"), &harness.members[d]))
                .collect();
            if star.has_path {
                vars.push(("?up".to_owned(), &harness.coarse_members));
            }
            // one or two of them, in random positions
            while vars.len() > 2 || (vars.len() == 2 && rng.gen_bool(0.3)) {
                vars.remove(rng.gen_range(0..vars.len()));
            }
            let names: Vec<&str> = vars.iter().map(|(name, _)| name.as_str()).collect();
            let combinations: Vec<Vec<String>> = (0..rng.gen_range(1..5usize))
                .map(|_| vars.iter().map(|(_, m)| rng.pick(m).clone()).collect())
                .collect();
            let combinations: Vec<&Vec<String>> = combinations.iter().collect();
            return dnf(&names, &combinations);
        }
        1 if rng.gen_bool(0.5) => format!("?m > {}", rng.gen_range(0..60u32)),
        1 => format!(
            "?m * 2 >= {} && ?m != {}",
            rng.gen_range(0..80u32),
            rng.gen_range(0..60u32)
        ),
        2 if rng.gen_bool(0.5) => "?nope = ?d0".to_owned(),
        2 => "!BOUND(?nope)".to_owned(),
        _ => "CONTAINS(LCASE(STR(?l0)), \"a\")".to_owned(),
    };
    format!("FILTER({condition})")
}

/// The star's WHERE block, under a random filter four times out of ten.
fn random_block(rng: &mut TestRng, harness: &Harness, star: &Star) -> String {
    if rng.gen_bool(0.4) {
        format!("{} . {}", star.wher, random_filter(rng, harness, star))
    } else {
        star.wher.clone()
    }
}

/// A random flat block whose output order is pinned: `ORDER BY` over every
/// projected variable (and group keys for aggregates), so all four
/// plan × executor combinations must agree byte-for-byte. The textual
/// pattern order is shuffled — including disconnected-first orders — to
/// exercise the planner's connectivity preference and tie-breaking.
fn random_pinned_query(rng: &mut TestRng, harness: &Harness) -> String {
    let star = random_star(rng, harness);
    let wher = random_block(rng, harness, &star);
    if star.uses_measure && rng.gen_bool(0.6) {
        let funcs = ["SUM", "MIN", "MAX", "AVG", "COUNT"];
        let aggs: Vec<String> = (0..rng.gen_range(1..4usize))
            .map(|i| format!("({}(?m) AS ?agg{i})", rng.pick(&funcs)))
            .collect();
        format!(
            "SELECT {gv} {aggs} WHERE {{ {wher} }} GROUP BY {gv} ORDER BY {gv}",
            gv = star.grouping().join(" "),
            aggs = aggs.join(" "),
        )
    } else {
        let mut text = format!(
            "SELECT {p} WHERE {{ {wher} }} ORDER BY {p}",
            p = star.projected().join(" ")
        );
        if rng.gen_bool(0.3) {
            text.push_str(&format!(" LIMIT {}", rng.gen_range(1..30u32)));
        }
        text
    }
}

fn property_all_combos_agree(dataset: &Dataset, name: &str) {
    let graph = &dataset.graph;
    let harness = Harness::new(dataset);
    re2x_testkit::check(name, |rng| {
        let text = random_pinned_query(rng, &harness);
        let query = parse_query(&text).expect("generated query parses");
        let plan = explain(graph, &query).expect("explains");
        assert!(plan.starts_with("executor: columnar\n"), "{text}:\n{plan}");
        let baseline = evaluate_full(graph, &query, PlanMode::Planned, ExecMode::Columnar);
        for (mode, exec) in COMBOS {
            let got = evaluate_full(graph, &query, mode, exec);
            assert_eq!(got, baseline, "{mode:?}/{exec:?} diverges on {text}");
        }
    });
}

#[test]
fn property_plan_and_exec_modes_agree_on_eurostat() {
    property_all_combos_agree(&eurostat::generate(400, 99), "plan_differential_eurostat");
}

#[test]
fn property_plan_and_exec_modes_agree_on_dbpedia() {
    // The M-to-N genre/stylisticOrigin links make join-order mistakes
    // expensive and multi-valued fan-out common: the adversarial case for
    // both the planner and the columnar kernel.
    property_all_combos_agree(&dbpedia::generate(250, 101), "plan_differential_dbpedia");
}

// ---- LIMIT pushdown ---------------------------------------------------------

/// `… LIMIT n [OFFSET k]` must return exactly rows `k..k+n` of the
/// unlimited answer in every plan × executor combination. For the plain
/// shape the evaluator stops the join after `k+n` binding rows (the
/// depth-first "first n rows" search `ASK` is the `n = 1` case of), so the
/// pushed-down answer has to be the exact prefix the full evaluation
/// returns; the `DISTINCT`, `ORDER BY` and aggregate shapes transform rows
/// between the join and the slice and would fail this if they were cut
/// short too.
fn property_limit_is_a_slice(dataset: &Dataset, name: &str) {
    let graph = &dataset.graph;
    let harness = Harness::new(dataset);
    re2x_testkit::check(name, |rng| {
        let star = random_star(rng, &harness);
        // a FILTER keeps the search on the scheduled-filter path
        let wher = random_block(rng, &harness, &star);
        let all = star.projected().join(" ");
        // (limited shape, unlimited oracle, whether the oracle's rows still
        // need first-seen deduplication). The unlimited `DISTINCT` form is
        // no oracle for itself: it is a set query, answered ids ascending
        // — a different (equally valid) order.
        let shapes = [
            (format!("SELECT {all} WHERE {{ {wher} }}"), None),
            // ?d0 repeats across observations: deduplication precedes the slice
            (
                format!("SELECT DISTINCT ?d0 WHERE {{ {wher} }}"),
                Some(format!("SELECT ?d0 WHERE {{ {wher} }}")),
            ),
            (
                format!("SELECT {all} WHERE {{ {wher} }} ORDER BY DESC(?o) {all}"),
                None,
            ),
            (
                format!("SELECT ?d0 (COUNT(?o) AS ?n) WHERE {{ {wher} }} GROUP BY ?d0"),
                None,
            ),
        ];
        let limit = rng.gen_range(0..40usize);
        let offset = rng.gen_bool(0.5).then(|| rng.gen_range(0..25usize));
        for (base, undeduplicated) in shapes {
            let mut text = format!("{base} LIMIT {limit}");
            if let Some(offset) = offset {
                text.push_str(&format!(" OFFSET {offset}"));
            }
            let oracle = undeduplicated.as_ref().unwrap_or(&base);
            let oracle = parse_query(oracle).expect("generated query parses");
            let limited = parse_query(&text).expect("generated query parses");
            for (mode, exec) in COMBOS {
                let mut want = evaluate_full(graph, &oracle, mode, exec).expect("evaluates");
                if undeduplicated.is_some() {
                    let mut seen = Vec::new();
                    want.rows.retain(|row| {
                        let fresh = !seen.contains(row);
                        if fresh {
                            seen.push(row.clone());
                        }
                        fresh
                    });
                }
                let skip = offset.unwrap_or(0).min(want.rows.len());
                want.rows.drain(..skip);
                want.rows.truncate(limit);
                let got = evaluate_full(graph, &limited, mode, exec).expect("evaluates");
                assert_eq!(got, want, "{mode:?}/{exec:?}: not a slice: {text}");
            }
        }
    });
}

#[test]
fn property_limit_is_a_slice_of_the_unlimited_answer_on_eurostat() {
    property_limit_is_a_slice(&eurostat::generate(300, 41), "limit_slice_eurostat");
}

#[test]
fn property_limit_is_a_slice_of_the_unlimited_answer_on_dbpedia() {
    property_limit_is_a_slice(&dbpedia::generate(200, 43), "limit_slice_dbpedia");
}
