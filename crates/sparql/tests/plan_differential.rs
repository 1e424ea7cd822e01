//! Differential proof that the product evaluator keeps the semantics of
//! the reference one: across all four figure datasets and a seeded
//! random-query harness, [`evaluate`] — the greedy planner, the columnar
//! kernel, the first-rows search — answers exactly what
//! [`evaluate_reference`] answers, extending one binding row at a time
//! along the same plan, and the [`ShardedEndpoint`] composition (whose
//! shards run the columnar kernel) stays identical to the canonical
//! reference.
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
//! * **Product vs. reference** — byte identity with no ordering caveat:
//!   the columnar kernel enumerates index matches in exactly the row
//!   executor's order, so even unordered queries must produce the same row
//!   sequence.
//! * **One query, its patterns permuted in the text** — the planner breaks
//!   cost ties by pattern position, so a permutation may change the join
//!   order and with it the row sequence; these queries pin a total order
//!   (`ORDER BY` over every projected variable / every group key), and
//!   measures are integer-valued on the datasets used here, so aggregate
//!   sums are exact in f64 and reassociation cannot introduce drift.
//!
//! The columnar kernel joins each run of consecutive arms `?v <p> ?x` on
//! one bound column in one star walk over a galloping SPO cursor, which
//! reads a live write's overlay before the bulk-built base: so the
//! workload, the seeded harnesses and the walk's edges run on live-written
//! graphs too (observations only the overlay holds, a second value on an
//! arm, a tombstone on a subject the walk visits), `explain` is checked to
//! print a star walk exactly where the plan has one, and the walk's edges
//! — multi-valued arms, an arm matching nothing for some rows, a filter
//! splitting a run, unsorted and repeated subjects, a `LIMIT` inside the
//! walk — are queried one by one.
//!
//! A Similarity filter's member sets cut the observations' column right
//! after the step binding it (the kernel's reach), so the reach's edges —
//! a member behind a property path, `IN`, an absent IRI, a variable
//! missing from one disjunct, member sets on both sides of the admission
//! line, two variables intersecting, M-to-N arms, live-written graphs, a
//! `LIMIT` — are queried one by one, and a seeded harness puts a random
//! Similarity filter on every star and checks that `explain` prints a
//! reach exactly where the admission rule allows one.
//!
//! The planner itself never joins a pattern that shares no variable with
//! the ones before it while one that does is left: on a workload whose
//! text opens with a hierarchy pattern apart from the observation star,
//! `explain`'s join order is checked to be connected step by step.

use re2x_datagen::common::Dataset;
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_rdf::{vocab, Graph, TermId};
use re2x_sparql::{
    evaluate, evaluate_reference, explain, parse_query, reference_solutions, LocalEndpoint, Query,
    Route, ShardedEndpoint, Solutions, SparqlEndpoint, SparqlError, Value,
};
use re2x_testkit::TestRng;

/// An evaluator's signature.
type Evaluator = fn(&Graph, &Query) -> Result<Solutions, SparqlError>;

/// Both evaluators, for the checks each must pass on its own.
const EVALUATORS: [(&str, Evaluator); 2] = [
    ("evaluate", evaluate),
    ("evaluate_reference", evaluate_reference),
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

/// Product-vs-reference byte identity for every query of the figure
/// workload — including unordered queries, whose row sequence the columnar
/// kernel must reproduce exactly.
fn assert_exec_identity(dataset: &Dataset) {
    let graph = &dataset.graph;
    for text in workload(dataset) {
        let query = parse_query(&text).expect("workload query parses");
        // the comparison below must not be the row executor against
        // itself: every flat shape really runs on the kernel, filters
        // included
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
        let want = evaluate_reference(graph, &query);
        let got = evaluate(graph, &query);
        assert_eq!(got, want, "{}: diverges on {text}", dataset.name);
        if text.contains("?up = ") {
            // the member combinations were read off the data
            let kept = got.expect("evaluates").len();
            assert!(kept > 0, "{}: Similarity filter kept nothing", dataset.name);
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

/// `dataset` after live writes on its bulk-built graph, left in the
/// overlay the star walk's cursor reads first: copies of every 50th
/// observation under fresh IRIs (subjects only the overlay has), a second
/// member on the first dimension arm of every 40th, and every 30th
/// stripped of its last dimension — a tombstone over the base's posting
/// list, on a subject inside the walk.
fn live_written(mut dataset: Dataset) -> Dataset {
    let graph = &mut dataset.graph;
    let id = |graph: &Graph, iri: &str| graph.iri_id(iri).expect("an IRI of the dataset");
    let class = id(graph, &dataset.observation_class);
    let rdf_type = id(graph, vocab::rdf::TYPE);
    let dims = &dataset.dimension_predicates;
    let (first, last) = (id(graph, &dims[0]), id(graph, &dims[dims.len() - 1]));
    let observations = graph.subjects(rdf_type, class).to_vec();
    for (i, &o) in observations.iter().step_by(50).enumerate() {
        let fresh = graph.intern_iri(format!("http://live.example.org/observation/{i}"));
        let mut copied: Vec<(TermId, TermId)> = Vec::new();
        graph.predicate_runs_until(o, |p, objects| {
            copied.extend(objects.iter().map(|&x| (p, x)));
            false
        });
        for (p, x) in copied {
            assert!(graph.insert_ids(fresh, p, x));
        }
    }
    let members = graph.objects_of_predicate(first);
    for &o in observations.iter().skip(3).step_by(40) {
        let other = members.iter().find(|&&m| !graph.contains_ids(o, first, m));
        assert!(graph.insert_ids(o, first, *other.expect("a second member")));
    }
    for &o in observations.iter().skip(7).step_by(30) {
        for x in graph.objects(o, last).to_vec() {
            assert!(graph.remove_ids(o, last, x));
        }
    }
    dataset
}

/// The workload and the seeded pinned-query and `LIMIT` harnesses on a
/// live-written graph: the kernel's cursor reads the overlay as the row
/// executor's plain lookups do.
#[test]
fn eurostat_live_written_graph_answers_as_the_reference() {
    let dataset = live_written(eurostat::generate(400, 7));
    assert_exec_identity(&dataset);
    property_pinned_queries_agree(&dataset, "plan_differential_live_eurostat");
    property_limit_is_a_slice(&dataset, "limit_slice_live_eurostat");
}

#[test]
fn dbpedia_live_written_graph_answers_as_the_reference() {
    let dataset = live_written(dbpedia::generate(300, 13));
    assert_exec_identity(&dataset);
    property_pinned_queries_agree(&dataset, "plan_differential_live_dbpedia");
    property_limit_is_a_slice(&dataset, "limit_slice_live_dbpedia");
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
/// fold over the group's rows, under both evaluators and for filtered and
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
        for (name, eval) in EVALUATORS {
            let rows = eval(graph, &plain).expect("evaluates");
            assert!(!rows.is_empty(), "vacuous: {block}");
            let got = eval(graph, &grouped).expect("evaluates");
            assert_eq!(got.rows, folded(graph, &rows), "{name}: {block}");
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
    for (name, eval) in EVALUATORS {
        let run = |text: String| {
            let query = parse_query(&text).expect("parse");
            eval(&dataset.graph, &query).expect("evaluates")
        };
        let implicit = run(format!(
            "SELECT (COUNT(?m) AS ?n) (SUM(?m) AS ?sum) (AVG(?m) AS ?avg) WHERE {{ {block} }}"
        ));
        let zero = Some(Value::Number(0.0));
        assert_eq!(implicit.rows, vec![vec![zero, None, None]], "{name}");
        let grouped = run(format!(
            "SELECT ?o (COUNT(?m) AS ?n) WHERE {{ {block} }} GROUP BY ?o"
        ));
        assert!(grouped.is_empty(), "{name}");
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
/// measure (`?m`) most of the time, sometimes the class probe, a second
/// arm on `?d0`'s dimension (`?t0`: multi-valued on dbpedia, so a row of
/// the star walk yields a product), a roll-up path (`?up`) and a label hop
/// off `?d0` (`?l0`) — in shuffled textual order.
struct Star {
    patterns: Vec<String>,
    /// The dimension behind `?d{i}`, by index into the dataset's list.
    dims: Vec<usize>,
    uses_measure: bool,
    has_twin: bool,
    has_path: bool,
    has_label: bool,
}

impl Star {
    /// The patterns, in their textual order, as one group.
    fn wher(&self) -> String {
        self.patterns.join(" . ")
    }

    /// The same patterns in another random textual order.
    fn permuted(&self, rng: &mut TestRng) -> String {
        let mut patterns = self.patterns.clone();
        rng.shuffle(&mut patterns);
        patterns.join(" . ")
    }

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
        if self.has_twin {
            projected.push("?t0".to_owned());
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
    let has_twin = rng.gen_bool(0.3);
    if has_twin {
        let dim = &dataset.dimension_predicates[dims[0]];
        wher.push(format!("?o <{dim}> ?t0"));
    }
    let has_path = rng.gen_bool(0.3);
    if has_path {
        let (dim, rollup) = harness.coarse;
        wher.push(format!("?o <{dim}> / <{rollup}> ?up"));
    }
    let has_label = rng.gen_bool(0.4);
    if has_label {
        // a second hop off the first dimension: chain join
        wher.push(format!("?d0 <{}> ?l0", dataset.label_predicate));
    }
    // random textual order, a disconnected pattern first included: the
    // planner joins along shared variables whatever the text's order
    rng.shuffle(&mut wher);
    Star {
        patterns: wher,
        dims,
        uses_measure,
        has_twin,
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
        format!("{} . {}", star.wher(), random_filter(rng, harness, star))
    } else {
        star.wher()
    }
}

/// A random flat block whose output order is pinned: `ORDER BY` over every
/// projected variable (and group keys for aggregates), so the query with
/// its patterns in any textual order must answer byte-for-byte the same.
/// The textual pattern order is shuffled — including disconnected-first
/// orders — to exercise the planner's connectivity preference and
/// tie-breaking. Returns the query and its star.
fn random_pinned_query(rng: &mut TestRng, harness: &Harness) -> (String, Star) {
    let star = random_star(rng, harness);
    let wher = random_block(rng, harness, &star);
    if star.uses_measure && rng.gen_bool(0.6) {
        let funcs = ["SUM", "MIN", "MAX", "AVG", "COUNT"];
        let aggs: Vec<String> = (0..rng.gen_range(1..4usize))
            .map(|i| format!("({}(?m) AS ?agg{i})", rng.pick(&funcs)))
            .collect();
        let text = format!(
            "SELECT {gv} {aggs} WHERE {{ {wher} }} GROUP BY {gv} ORDER BY {gv}",
            gv = star.grouping().join(" "),
            aggs = aggs.join(" "),
        );
        (text, star)
    } else {
        let mut text = format!(
            "SELECT {p} WHERE {{ {wher} }} ORDER BY {p}",
            p = star.projected().join(" ")
        );
        if rng.gen_bool(0.3) {
            text.push_str(&format!(" LIMIT {}", rng.gen_range(1..30u32)));
        }
        (text, star)
    }
}

/// A random pinned query: [`evaluate`] answers it as the reference does,
/// in each of two textual orders of its patterns, and the same in both.
fn property_pinned_queries_agree(dataset: &Dataset, name: &str) {
    let graph = &dataset.graph;
    let harness = Harness::new(dataset);
    re2x_testkit::check(name, |rng| {
        let (text, star) = random_pinned_query(rng, &harness);
        let query = parse_query(&text).expect("generated query parses");
        let plan = explain(graph, &query).expect("explains");
        assert!(plan.starts_with("executor: columnar\n"), "{text}:\n{plan}");
        let printed: Vec<&str> = plan
            .lines()
            .filter(|line| line.starts_with("star walk"))
            .collect();
        assert_eq!(printed, star_walks(&plan), "{text}:\n{plan}");
        let got = evaluate(graph, &query);
        assert_eq!(got, evaluate_reference(graph, &query), "diverges on {text}");
        let permuted = text.replacen(&star.wher(), &star.permuted(rng), 1);
        let query = parse_query(&permuted).expect("permuted query parses");
        let permuted_got = evaluate(graph, &query);
        let want = evaluate_reference(graph, &query);
        assert_eq!(permuted_got, want, "diverges on {permuted}");
        assert_eq!(
            permuted_got, got,
            "{text}\nanswers differently permuted as\n{permuted}"
        );
    });
}

#[test]
fn property_pinned_queries_agree_on_eurostat() {
    property_pinned_queries_agree(&eurostat::generate(400, 99), "plan_differential_eurostat");
}

#[test]
fn property_pinned_queries_agree_on_dbpedia() {
    // The M-to-N genre/stylisticOrigin links make join-order mistakes
    // expensive and multi-valued fan-out common: the adversarial case for
    // both the planner and the columnar kernel.
    property_pinned_queries_agree(&dbpedia::generate(250, 101), "plan_differential_dbpedia");
}

// ---- the planner joins along shared variables ---------------------------------

/// Queries over the dbpedia M-to-N dataset whose text walks a genre
/// hierarchy before the observation star, with a step in textual order
/// that shares no variable with the patterns before it — a cartesian
/// product of the hierarchy against the facts for an evaluator that
/// followed the text.
fn hierarchy_first_workload() -> Vec<String> {
    const NS: &str = "http://data.example.org/dbpedia/";
    vec![
        // M-to-N: songs carry 1–3 genres, genres several stylistic origins
        format!(
            "SELECT ?g ?so (SUM(?v) AS ?total) WHERE {{
                ?g <{NS}stylisticOrigin> ?so .
                ?o <{NS}playCount> ?v .
                ?o <{NS}genre> ?g
             }} GROUP BY ?g ?so ORDER BY ?g ?so"
        ),
        // a two-hop hierarchy walk around the star
        format!(
            "SELECT ?so ?e (COUNT(?o) AS ?n) WHERE {{
                ?so <{NS}era> ?e .
                ?o a <{NS}CreativeWork> .
                ?g <{NS}stylisticOrigin> ?so .
                ?o <{NS}genre> ?g
             }} GROUP BY ?so ?e ORDER BY ?so ?e"
        ),
        // a row listing with the same disconnected opening
        format!(
            "SELECT ?o ?g ?p WHERE {{
                ?g <{NS}parentGenre> ?p .
                ?o a <{NS}CreativeWork> .
                ?o <{NS}genre> ?g
             }} ORDER BY ?o ?g ?p LIMIT 500"
        ),
    ]
}

/// The variables of one step of `explain`'s join order (`?x*` when the
/// step finds `?x` bound).
fn step_variables(line: &str) -> Vec<&str> {
    let pattern = line.split("   (cost estimate").next().unwrap_or_default();
    let words = pattern.split_whitespace().filter(|w| w.starts_with('?'));
    words.map(|w| w.trim_end_matches('*')).collect()
}

/// `true` if some pattern after the first shares no variable with the
/// patterns before it.
fn has_cartesian_step(steps: &[Vec<&str>]) -> bool {
    (1..steps.len()).any(|i| {
        let joined = |v: &&str| steps[..i].iter().any(|earlier| earlier.contains(v));
        !steps[i].iter().any(joined)
    })
}

#[test]
fn the_planner_never_takes_a_cartesian_step() {
    let dataset = dbpedia::generate(600, 7);
    let graph = &dataset.graph;
    for text in hierarchy_first_workload() {
        let query = parse_query(&text).expect("workload query parses");
        let textual: Vec<Vec<&str>> = text
            .split_once('{')
            .and_then(|(_, rest)| rest.rsplit_once('}'))
            .expect("a WHERE block")
            .0
            .split(" .")
            .map(step_variables)
            .collect();
        assert!(has_cartesian_step(&textual), "not adversarial: {text}");
        let plan = explain(graph, &query).expect("explains");
        let steps: Vec<Vec<&str>> = plan
            .lines()
            .filter(|line| line.contains("(cost estimate"))
            .map(step_variables)
            .collect();
        assert_eq!(steps.len(), textual.len(), "{plan}");
        assert!(!has_cartesian_step(&steps), "{text}:\n{plan}");
        let got = evaluate(graph, &query).expect("evaluates");
        assert!(!got.is_empty(), "vacuous: {text}");
        assert_eq!(Ok(got), evaluate_reference(graph, &query), "{text}");
    }
}

// ---- the star walk ----------------------------------------------------------

/// The star walks `plan` must print, as `explain` words them: one for each
/// maximal run of two or more consecutive steps that are each an arm
/// `?v* <p> ?x` (`?v` bound on entry, `?x` not) on the same `?v`, with no
/// filter selecting between two of them.
fn star_walks(plan: &str) -> Vec<String> {
    let mut walks = Vec::new();
    // the open run: its variable, first and last step
    let mut run: Option<(&str, usize, usize)> = None;
    let mut close = |run: &mut Option<(&str, usize, usize)>| {
        if let Some((on, first, last)) = run.take() {
            if last > first {
                walks.push(format!("star walk on {on}: steps {first}–{last}"));
            }
        }
    };
    for line in plan.lines() {
        let step = line.trim_start().split_once(". ");
        let Some((step, pattern)) = step.and_then(|(n, rest)| Some((n.parse().ok()?, rest))) else {
            if line.contains("select ") {
                close(&mut run);
            }
            continue;
        };
        let pattern = pattern
            .split("   (cost estimate")
            .next()
            .unwrap_or_default();
        let arm = match pattern.split_whitespace().collect::<Vec<_>>()[..] {
            [v, p, x] if v.starts_with('?') && p.starts_with('<') && x.starts_with('?') => {
                (v.ends_with('*') && !x.ends_with('*')).then(|| v.trim_end_matches('*'))
            }
            _ => None,
        };
        match (arm, &mut run) {
            (Some(on), Some((open, _, last))) if *open == on && *last + 1 == step => *last = step,
            (Some(on), _) => {
                close(&mut run);
                run = Some((on, step, step));
            }
            (None, _) => close(&mut run),
        }
    }
    close(&mut run);
    walks
}

const EUROSTAT: &str = "http://data.example.org/eurostat/";
const DBPEDIA: &str = "http://data.example.org/dbpedia/";
const QB_OBSERVATION: &str = "http://purl.org/linked-data/cube#Observation";

/// `explain` names each star walk above the run's first step — and a
/// filter due after the first arm splits the run.
#[test]
fn explain_prints_each_star_walk() {
    let dataset = eurostat::generate(400, 7);
    let plan = |text: String| {
        let query = parse_query(&text).expect("parses");
        let plan = explain(&dataset.graph, &query).expect("explains");
        plan.replace(EUROSTAT, "eg:")
    };
    let star = format!(
        "?o a <{QB_OBSERVATION}> . ?o <{EUROSTAT}sex> ?a .
         ?o <{EUROSTAT}refPeriod> ?b . ?o <{EUROSTAT}numApplicants> ?m"
    );
    let type_step = format!(
        " 0. ?o <{}> <{QB_OBSERVATION}>   (cost estimate 25)",
        vocab::rdf::TYPE
    );
    assert_eq!(
        plan(format!("SELECT ?o ?a ?b ?m WHERE {{ {star} }}")),
        format!(
            "executor: columnar
{type_step}
star walk on ?o: steps 1–3
 1. ?o* <eg:sex> ?a   (cost estimate 25)
 2. ?o* <eg:refPeriod> ?b   (cost estimate 25)
 3. ?o* <eg:numApplicants> ?m   (cost estimate 25)
"
        )
    );
    let member = format!("<{EUROSTAT}member/sex/0>");
    assert_eq!(
        plan(format!(
            "SELECT ?o ?a ?b ?m WHERE {{ {star} . FILTER(?a = {member}) }}"
        )),
        format!(
            "executor: columnar
{type_step}
 1. ?o* <eg:sex> ?a   (cost estimate 25)
    select (?a = <eg:member/sex/0>)
star walk on ?o: steps 2–3
 2. ?o* <eg:refPeriod> ?b   (cost estimate 25)
 3. ?o* <eg:numApplicants> ?m   (cost estimate 25)
"
        )
    );
}

/// `explain` names a reach above the step binding its hub: a month is one
/// of 120 objects of refPeriod, so the filter's one member is admitted, and
/// the observations' column is cut to the 4 it reaches right after the
/// class step — while a sex, one of 3, is not (the golden plan above).
#[test]
fn explain_prints_a_reach_above_the_step_binding_its_hub() {
    let dataset = eurostat::generate(400, 7);
    let text = format!(
        "SELECT ?o ?a ?b ?m WHERE {{ ?o a <{QB_OBSERVATION}> . ?o <{EUROSTAT}sex> ?a .
         ?o <{EUROSTAT}refPeriod> ?b . ?o <{EUROSTAT}numApplicants> ?m .
         FILTER(?b = <{EUROSTAT}member/month/0>) }}"
    );
    let query = parse_query(&text).expect("parses");
    let plan = explain(&dataset.graph, &query).expect("explains");
    assert_eq!(
        plan.replace(EUROSTAT, "eg:"),
        format!(
            "executor: columnar
reach ?o: 4 ids from ?b ∈ 1 members
 0. ?o <{}> <{QB_OBSERVATION}>   (cost estimate 25)
star walk on ?o: steps 1–2
 1. ?o* <eg:sex> ?a   (cost estimate 25)
 2. ?o* <eg:refPeriod> ?b   (cost estimate 25)
    select (?b = <eg:member/month/0>)
 3. ?o* <eg:numApplicants> ?m   (cost estimate 25)
",
            vocab::rdf::TYPE
        )
    );
}

/// The ids a column of `solutions` holds, row by row.
fn ids(solutions: &Solutions, var: &str) -> Vec<TermId> {
    let name = var.trim_start_matches('?');
    let at = solutions
        .vars
        .iter()
        .position(|v| v == name)
        .expect("projected");
    let cell = |row: &Vec<Option<Value>>| match row[at] {
        Some(Value::Term(id)) => id,
        ref other => panic!("{var}: {other:?}"),
    };
    solutions.rows.iter().map(cell).collect()
}

/// The star walk's edges, each on the generated graph and on its
/// live-written form, byte for byte against the reference — each query
/// checked to take the walk it is here for, and its answer to have the
/// edge:
///
/// * multi-valued arms (dbpedia's M-to-N genres, twice on one song): a row
///   yields the product of its arms' lists, the last arm fastest;
/// * an arm matching nothing for some rows (the live-written tombstones);
/// * a filter due between two arms, which splits the run;
/// * a walk over subjects unsorted (observations reached back from a
///   hierarchy hop) and repeated (members reached from observations).
#[test]
fn star_walk_edges_match_the_reference() {
    let plain = [eurostat::generate(400, 7), dbpedia::generate(300, 13)];
    let live = [
        live_written(eurostat::generate(400, 7)),
        live_written(dbpedia::generate(300, 13)),
    ];
    let (e, d) = (EUROSTAT, DBPEDIA);
    let star = format!(
        "?o a <{QB_OBSERVATION}> . ?o <{e}sex> ?a .
         ?o <{e}refPeriod> ?b . ?o <{e}numApplicants> ?m"
    );
    let observations = |graph: &Graph| {
        let rdf_type = graph.iri_id(vocab::rdf::TYPE).expect("typed");
        let class = graph.iri_id(QB_OBSERVATION).expect("observations");
        graph.subjects(rdf_type, class).len()
    };
    // some subject comes back after another one: unsorted, repeated
    let revisits = |col: Vec<TermId>| (1..col.len()).any(|j| col[..j - 1].contains(&col[j]));
    type Edge = Box<dyn Fn(&Graph, &Solutions, bool) -> bool>;
    // (dataset, query, the walk the plan takes on the generated and on the
    // live-written graph, the edge its answer has)
    let cases: [(usize, String, [&str; 2], Edge); 6] = [
        (
            1,
            format!(
                "SELECT ?o ?m ?g ?h WHERE {{ ?o a <{d}CreativeWork> . ?o <{d}genre> ?g .
                 ?o <{d}genre> ?h . ?o <{d}playCount> ?m }}"
            ),
            ["star walk on ?o: steps 1–3"; 2],
            Box::new(|_, got, _| {
                let songs = ids(got, "?o");
                songs.windows(2).any(|w| w[0] == w[1])
            }),
        ),
        (
            0,
            format!("SELECT ?o ?a ?b ?m WHERE {{ {star} }}"),
            ["star walk on ?o: steps 1–3"; 2],
            Box::new(move |graph, got, live| {
                let mut seen = ids(got, "?o");
                seen.dedup();
                !live || seen.len() < observations(graph)
            }),
        ),
        (
            0,
            // the live writes reorder the arms; the filter splits both plans
            format!("SELECT ?o ?a ?b ?m WHERE {{ {star} . FILTER(?b = <{e}member/month/0>) }}"),
            ["star walk on ?o: steps 1–2", "star walk on ?o: steps 2–3"],
            Box::new(move |graph, got, _| !got.is_empty() && got.len() < observations(graph)),
        ),
        (
            0,
            format!(
                "SELECT ?o ?up ?a ?m WHERE {{ ?o <{e}citizen> / <{e}inContinent> ?up .
                 ?o <{e}sex> ?a . ?o <{e}numApplicants> ?m }}"
            ),
            ["star walk on ?o: steps 2–3"; 2],
            Box::new(|_, got, _| !ids(got, "?o").is_sorted()),
        ),
        (
            0,
            format!(
                "SELECT ?o ?d ?up ?l WHERE {{ ?o a <{QB_OBSERVATION}> . ?o <{e}citizen> ?d .
                 ?d <{e}inContinent> ?up . ?d <{}> ?l }}",
                vocab::rdfs::LABEL
            ),
            ["star walk on ?d: steps 2–3"; 2],
            Box::new(move |_, got, _| revisits(ids(got, "?d"))),
        ),
        (
            1,
            format!(
                "SELECT ?o ?g ?p ?so WHERE {{ ?o a <{d}CreativeWork> . ?o <{d}genre> ?g .
                 ?g <{d}stylisticOrigin> ?so . ?g <{d}parentGenre> ?p }}"
            ),
            ["star walk on ?g: steps 2–3"; 2],
            Box::new(move |_, got, _| revisits(ids(got, "?g"))),
        ),
    ];
    for (dataset, text, walks, edge) in &cases {
        let query = parse_query(text).expect("parses");
        for (graph, live) in [
            (&plain[*dataset].graph, false),
            (&live[*dataset].graph, true),
        ] {
            let plan = explain(graph, &query).expect("explains");
            let walk = walks[usize::from(live)];
            assert!(plan.lines().any(|line| line == walk), "{text}:\n{plan}");
            let got = evaluate(graph, &query).expect("evaluates");
            assert_eq!(
                Ok(&got),
                evaluate_reference(graph, &query).as_ref(),
                "{text}"
            );
            assert!(edge(graph, &got, live), "vacuous (live: {live}): {text}");
            // a row budget crossed inside the walk, mid-row included
            for limit in [2, 3, got.len() / 2, got.len() - 1] {
                let limited = parse_query(&format!("{text} LIMIT {limit}")).expect("parses");
                let mut want = got.clone();
                want.rows.truncate(limit);
                assert_eq!(evaluate(graph, &limited), Ok(want), "{text} LIMIT {limit}");
            }
        }
    }
}

// ---- the reach ----------------------------------------------------------------

/// `true` if `plan` prints exactly one reach, on `?o`, from `from` (`?v ∈
/// n members, …`) — or none, when `from` is `None`.
fn reaches_from(plan: &str, from: Option<&str>) -> bool {
    let reaches: Vec<&str> = (plan.lines())
        .filter(|line| line.starts_with("reach "))
        .collect();
    match (reaches.as_slice(), from) {
        ([], None) => true,
        ([line], Some(from)) => {
            line.starts_with("reach ?o: ") && line.ends_with(&format!(" ids from {from}"))
        }
        _ => false,
    }
}

/// The members an `IN` list or a disjunction names when its filter sits
/// right at the line where a member set stops being admitted: the first
/// `n` objects of `predicate`, with `n · 8` just reaching its distinct
/// objects (`at_line`) or one member short of it.
fn members_at_the_line(graph: &Graph, predicate: &str, at_line: bool) -> Vec<String> {
    let p = graph.iri_id(predicate).expect("a predicate of the dataset");
    let domain = graph.predicate_stats(p).distinct_objects;
    let n = domain.div_ceil(8) - usize::from(!at_line);
    let objects = graph.objects_of_predicate(p);
    objects[..n]
        .iter()
        .map(|&o| graph.term(o).to_string())
        .collect()
}

/// The reach's edges on a eurostat graph: (query, the `from` of the reach
/// `explain` must print, or `None` for no reach). Every query keeps rows.
fn eurostat_reach_cases(graph: &Graph) -> Vec<(String, Option<String>)> {
    let e = EUROSTAT;
    let star = format!("?o a <{QB_OBSERVATION}> . ?o <{e}citizen> ?c . ?o <{e}numApplicants> ?m");
    let citizens = constants(graph, "?c", &format!("?o <{e}citizen> ?c"));
    let (c0, c1, c2) = (&citizens[0][0], &citizens[1][0], &citizens[2][0]);
    // two member combinations, one variable behind a property path
    let rolled_up = format!("?o <{e}geo> / <{e}inRegion> ?up . ?o <{e}citizen> ?b");
    let combinations = constants(graph, "?up ?b", &rolled_up);
    let kept: Vec<&Vec<String>> = combinations.iter().step_by(7).take(2).collect();
    let distinct = |at: usize| {
        let mut members: Vec<&String> = kept.iter().map(|c| &c[at]).collect();
        members.sort();
        members.dedup();
        members.len()
    };
    let similarity = dnf(&["?up", "?b"], &kept);
    let month = |i: usize| format!("<{e}member/month/{i}>");
    let absent = format!("<{e}member/country/absent>");
    let citizen = format!("{e}citizen");
    let at_line = members_at_the_line(graph, &citizen, true);
    let below = members_at_the_line(graph, &citizen, false);
    let members = |n: usize| format!("?c ∈ {n} members");
    vec![
        (
            format!(
                "SELECT ?up ?b (SUM(?m) AS ?sum) (COUNT(?m) AS ?n)
                 WHERE {{ {rolled_up} . ?o <{e}numApplicants> ?m . {similarity} }}
                 GROUP BY ?up ?b"
            ),
            Some(format!(
                "?up ∈ {} members, ?b ∈ {} members",
                distinct(0),
                distinct(1)
            )),
        ),
        (
            format!("SELECT ?o ?up ?b WHERE {{ {rolled_up} . {similarity} }}"),
            Some(format!(
                "?up ∈ {} members, ?b ∈ {} members",
                distinct(0),
                distinct(1)
            )),
        ),
        (
            format!("SELECT ?o ?c ?m WHERE {{ {star} . FILTER(?c IN ({c0}, {c1}, {c2})) }}"),
            Some(members(3)),
        ),
        // an IRI the graph does not hold contributes no id
        (
            format!("SELECT ?o ?c ?m WHERE {{ {star} . FILTER(?c = {absent} || {c1} = ?c) }}"),
            Some(members(1)),
        ),
        // ?c is missing from a disjunct: only ?t reaches
        (
            format!(
                "SELECT ?o ?c ?t WHERE {{ {star} . ?o <{e}refPeriod> ?t .
                 FILTER((?c = {c0} && ?t = {}) || ?t = {}) }}",
                month(0),
                month(1)
            ),
            Some("?t ∈ 2 members".to_owned()),
        ),
        (
            format!(
                "SELECT ?o ?c ?t WHERE {{ {star} . ?o <{e}refPeriod> ?t .
                 FILTER(?c = {c0} || ?t = {}) }}",
                month(1)
            ),
            None,
        ),
        // right at the FAR_FEWER line, and one member below it
        (
            format!(
                "SELECT ?o ?c ?m WHERE {{ {star} . FILTER(?c IN ({})) }}",
                at_line.join(", ")
            ),
            None,
        ),
        (
            format!(
                "SELECT ?o ?c ?m WHERE {{ {star} . FILTER(?c IN ({})) }}",
                below.join(", ")
            ),
            Some(members(below.len())),
        ),
    ]
}

/// The reach's edges on a dbpedia graph: M-to-N arms — a song's several
/// genres, a genre's several stylistic origins — behind both admitted
/// variables of a Similarity filter, which intersect on `?o`.
fn dbpedia_reach_cases(graph: &Graph) -> Vec<(String, Option<String>)> {
    let d = DBPEDIA;
    let rolled_up = format!("?o <{d}genre> / <{d}stylisticOrigin> ?up . ?o <{d}artist> ?b");
    let combinations = constants(graph, "?up ?b", &rolled_up);
    let kept: Vec<&Vec<String>> = combinations.iter().step_by(11).take(4).collect();
    let similarity = dnf(&["?up", "?b"], &kept);
    let from = "?up ∈ 4 members, ?b ∈ 4 members".to_owned();
    vec![
        (
            format!(
                "SELECT ?o ?up ?b ?m WHERE {{ {rolled_up} . ?o <{d}playCount> ?m . {similarity} }}"
            ),
            Some(from.clone()),
        ),
        (
            format!(
                "SELECT ?up ?b (MAX(?m) AS ?max) (AVG(?m) AS ?avg)
                 WHERE {{ {rolled_up} . ?o <{d}playCount> ?m . {similarity} }} GROUP BY ?up ?b"
            ),
            Some(from),
        ),
    ]
}

/// Each reach edge, on the generated graph and on its live-written form,
/// byte for byte against the reference: `explain` prints the reach the
/// case expects (or none), the answer keeps rows, and a `LIMIT` — which
/// the kernel runs under a row budget — cuts it to a prefix.
#[test]
fn reach_edges_match_the_reference() {
    let datasets = [
        eurostat::generate(400, 7),
        live_written(eurostat::generate(400, 7)),
        dbpedia::generate(300, 13),
        live_written(dbpedia::generate(300, 13)),
    ];
    for (i, dataset) in datasets.iter().enumerate() {
        let graph = &dataset.graph;
        let cases = if i < 2 {
            eurostat_reach_cases(graph)
        } else {
            dbpedia_reach_cases(graph)
        };
        for (text, from) in cases {
            let query = parse_query(&text).expect("parses");
            let plan = explain(graph, &query).expect("explains");
            assert!(
                reaches_from(&plan, from.as_deref()),
                "{from:?}: {text}:\n{plan}"
            );
            let got = evaluate(graph, &query).expect("evaluates");
            assert_eq!(
                Ok(&got),
                evaluate_reference(graph, &query).as_ref(),
                "{text}"
            );
            assert!(!got.is_empty(), "vacuous: {text}");
            if text.contains("GROUP BY") {
                continue;
            }
            for limit in [1, got.len() / 2, got.len() - 1] {
                let limited = parse_query(&format!("{text} LIMIT {limit}")).expect("parses");
                let mut want = got.clone();
                want.rows.truncate(limit);
                assert_eq!(evaluate(graph, &limited), Ok(want), "{text} LIMIT {limit}");
            }
        }
    }
}

/// A random pinned query whose star always carries a Similarity filter — a
/// disjunction of one to eight member combinations over one or two of its
/// grouping variables, so the member sets fall on both sides of the
/// `FAR_FEWER` line: [`evaluate`] answers it as the reference does in two
/// textual orders, and `explain` prints a reach on `?o` exactly when some
/// variable's member set is 8 times fewer than its arm predicate's objects,
/// from exactly those variables.
fn property_reach_queries_agree(dataset: &Dataset, name: &str) {
    let graph = &dataset.graph;
    let harness = Harness::new(dataset);
    re2x_testkit::check(name, |rng| {
        let star = random_star(rng, &harness);
        // each grouping variable, its members and the predicate of its arm
        let mut vars: Vec<(String, &Vec<String>, &String)> = star
            .dims
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let predicate = &dataset.dimension_predicates[d];
                (format!("?d{i}"), &harness.members[d], predicate)
            })
            .collect();
        if star.has_path {
            vars.push(("?up".to_owned(), &harness.coarse_members, harness.coarse.1));
        }
        while vars.len() > 2 || (vars.len() == 2 && rng.gen_bool(0.3)) {
            vars.remove(rng.gen_range(0..vars.len()));
        }
        let combinations: Vec<Vec<String>> = (0..rng.gen_range(1..9usize))
            .map(|_| vars.iter().map(|(_, m, _)| rng.pick(m).clone()).collect())
            .collect();
        let names: Vec<&str> = vars.iter().map(|(name, ..)| name.as_str()).collect();
        let filter = dnf(&names, &combinations.iter().collect::<Vec<_>>());
        let admitted: Vec<String> = vars
            .iter()
            .enumerate()
            .filter_map(|(k, (name, _, predicate))| {
                let mut members: Vec<&String> = combinations.iter().map(|c| &c[k]).collect();
                members.sort();
                members.dedup();
                let p = graph.iri_id(predicate).expect("a predicate of the dataset");
                let domain = graph.predicate_stats(p).distinct_objects;
                (members.len() * 8 < domain).then(|| format!("{name} ∈ {} members", members.len()))
            })
            .collect();
        let from = (!admitted.is_empty()).then(|| admitted.join(", "));
        let all = star.projected().join(" ");
        let text = format!(
            "SELECT {all} WHERE {{ {} . {filter} }} ORDER BY {all}",
            star.wher()
        );
        let query = parse_query(&text).expect("generated query parses");
        let plan = explain(graph, &query).expect("explains");
        assert!(
            reaches_from(&plan, from.as_deref()),
            "{from:?}: {text}:\n{plan}"
        );
        let got = evaluate(graph, &query);
        assert_eq!(got, evaluate_reference(graph, &query), "diverges on {text}");
        let permuted = text.replacen(&star.wher(), &star.permuted(rng), 1);
        let query = parse_query(&permuted).expect("permuted query parses");
        let permuted_got = evaluate(graph, &query);
        assert_eq!(
            permuted_got,
            evaluate_reference(graph, &query),
            "diverges on {permuted}"
        );
        assert_eq!(
            permuted_got, got,
            "{text}\nanswers differently permuted as\n{permuted}"
        );
    });
}

#[test]
fn property_reach_queries_agree_on_eurostat() {
    property_reach_queries_agree(&eurostat::generate(400, 99), "reach_eurostat");
}

#[test]
fn property_reach_queries_agree_on_dbpedia() {
    property_reach_queries_agree(&dbpedia::generate(250, 101), "reach_dbpedia");
}

#[test]
fn property_reach_queries_agree_on_live_written_graphs() {
    property_reach_queries_agree(
        &live_written(eurostat::generate(400, 7)),
        "reach_live_eurostat",
    );
    property_reach_queries_agree(
        &live_written(dbpedia::generate(300, 13)),
        "reach_live_dbpedia",
    );
}

// ---- LIMIT pushdown ---------------------------------------------------------

/// `… LIMIT n [OFFSET k]` must return exactly rows `k..k+n` of the
/// unlimited answer, under both evaluators. For the plain
/// shape the evaluator stops the join after `k+n` binding rows (the
/// depth-first "first n rows" search `ASK` is the `n = 1` case of), so the
/// pushed-down answer has to be the exact prefix the full evaluation
/// returns; the `DISTINCT`, `ORDER BY` and aggregate shapes transform rows
/// between the join and the slice and would fail this if they were cut
/// short too. The limit mostly falls inside a star walk's output — within
/// one row's product when the star's twin arm is multi-valued.
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
            for (name, eval) in EVALUATORS {
                let mut want = eval(graph, &oracle).expect("evaluates");
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
                let got = eval(graph, &limited).expect("evaluates");
                assert_eq!(got, want, "{name}: not a slice: {text}");
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
