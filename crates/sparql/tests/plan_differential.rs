//! Differential proof that the vectorized columnar executor and the
//! greedy planner preserve exact semantics: across all four figure
//! datasets and a seeded random-query harness, every combination of
//! [`PlanMode`] × [`ExecMode`] yields identical solutions, and the
//! [`ShardedEndpoint`] composition (whose shards now run the columnar
//! kernel by default) stays identical to the canonical reference.
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
use re2x_sparql::{
    evaluate_full, parse_query, reference_solutions, ExecMode, LocalEndpoint, PlanMode, Route,
    ShardedEndpoint, SparqlEndpoint,
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

/// Flat-BGP shapes the columnar kernel handles natively, plus fallback
/// shapes (FILTER-interleaved, OPTIONAL, UNION, property paths) that must
/// silently take the row path — all compared row-for-row.
fn workload(dataset: &Dataset) -> Vec<String> {
    let class = &dataset.observation_class;
    let measure = measure_predicate(dataset);
    let dim0 = &dataset.dimension_predicates[0];
    let dim1 = &dataset.dimension_predicates[dataset.dimension_predicates.len() - 1];
    let rollup = &dataset.rollup_predicates[0];
    let label = &dataset.label_predicate;
    vec![
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
        // row-fallback shapes: filters, paths, OPTIONAL, UNION
        format!(
            "SELECT ?o ?m WHERE {{ ?o <{measure}> ?m . FILTER(?m > 10) }} ORDER BY DESC(?m) ?o"
        ),
        format!(
            "SELECT ?up (SUM(?m) AS ?total) WHERE {{
                ?o <{dim0}> / <{rollup}> ?up . ?o <{measure}> ?m
             }} GROUP BY ?up ORDER BY ?up"
        ),
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
        for mode in [PlanMode::Planned, PlanMode::InOrder] {
            let row = evaluate_full(graph, &query, mode, ExecMode::Row);
            let col = evaluate_full(graph, &query, mode, ExecMode::Columnar);
            assert_eq!(
                row, col,
                "{} {mode:?}: row/columnar diverge on {text}",
                dataset.name
            );
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
    let sharded = ShardedEndpoint::with_observation_class(
        dataset.graph.clone(),
        &dataset.observation_class,
        4,
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
        assert_eq!(got, want, "sharded mismatch: {text}");
    }
}

// ---- seeded property harness ----------------------------------------------

/// A random star over `?o` — one to three dimension patterns (`?d0`…), the
/// measure (`?m`) most of the time, sometimes the class probe and a label
/// hop off `?d0` (`?l0`) — in shuffled textual order.
struct Star {
    wher: String,
    n_dims: usize,
    uses_measure: bool,
    has_label: bool,
}

impl Star {
    /// Every variable the star binds, `?o` first.
    fn projected(&self) -> Vec<String> {
        let mut projected: Vec<String> = vec!["?o".to_owned()];
        projected.extend((0..self.n_dims).map(|i| format!("?d{i}")));
        if self.uses_measure {
            projected.push("?m".to_owned());
        }
        if self.has_label {
            projected.push("?l0".to_owned());
        }
        projected
    }
}

fn random_star(rng: &mut TestRng, dataset: &Dataset) -> Star {
    let measure = measure_predicate(dataset);
    let dims = &dataset.dimension_predicates;
    let n_dims = rng.gen_range(1..dims.len().min(3) + 1);
    let mut chosen: Vec<&String> = Vec::new();
    while chosen.len() < n_dims {
        let d = rng.pick(dims);
        if !chosen.contains(&d) {
            chosen.push(d);
        }
    }
    let mut wher: Vec<String> = chosen
        .iter()
        .enumerate()
        .map(|(i, d)| format!("?o <{d}> ?d{i}"))
        .collect();
    let uses_measure = rng.gen_bool(0.8);
    if uses_measure {
        wher.push(format!("?o <{measure}> ?m"));
    }
    if rng.gen_bool(0.4) {
        wher.push(format!("?o a <{}>", dataset.observation_class));
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
        n_dims,
        uses_measure,
        has_label,
    }
}

/// A random flat BGP whose output order is pinned: `ORDER BY` over every
/// projected variable (and group keys for aggregates), so all four
/// plan × executor combinations must agree byte-for-byte. The textual
/// pattern order is shuffled — including disconnected-first orders — to
/// exercise the planner's connectivity preference and tie-breaking.
fn random_pinned_query(rng: &mut TestRng, dataset: &Dataset) -> String {
    let star = random_star(rng, dataset);
    let wher = &star.wher;
    if star.uses_measure && rng.gen_bool(0.6) {
        let group_vars: Vec<String> = (0..star.n_dims).map(|i| format!("?d{i}")).collect();
        let funcs = ["SUM", "MIN", "MAX", "COUNT"];
        let aggs: Vec<String> = (0..rng.gen_range(1..3usize))
            .map(|i| format!("({}(?m) AS ?agg{i})", rng.pick(&funcs)))
            .collect();
        format!(
            "SELECT {gv} {aggs} WHERE {{ {wher} }} GROUP BY {gv} ORDER BY {gv}",
            gv = group_vars.join(" "),
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
    re2x_testkit::check(name, |rng| {
        let text = random_pinned_query(rng, dataset);
        let query = parse_query(&text).expect("generated query parses");
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
    re2x_testkit::check(name, |rng| {
        let star = random_star(rng, dataset);
        let wher = if star.uses_measure && rng.gen_bool(0.3) {
            // a FILTER keeps the search on the scheduled-filter path
            format!("{} . FILTER(?m > {})", star.wher, rng.gen_range(0..60u32))
        } else {
            star.wher.clone()
        };
        let all = star.projected().join(" ");
        // (limited shape, unlimited oracle, whether the oracle's rows still
        // need first-seen deduplication). The unlimited `DISTINCT` form is
        // no oracle for itself: it is answered by the sorted distinct-probe
        // fast path, in a different (equally valid) order.
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
