//! End-to-end tests of the SPARQL engine against a small statistical graph
//! shaped like the paper's running example (Figure 1).

use re2x_rdf::io::parse_turtle;
use re2x_rdf::Graph;
use re2x_sparql::{evaluate, evaluate_ask, parse_query, Solutions};

/// Asylum-requests micro-KG: observations with destination, origin
/// (-> continent), year, and an applicant-count measure.
fn asylum_graph() -> Graph {
    let mut g = Graph::new();
    parse_turtle(
        r#"
        @prefix ex: <http://ex/> .
        ex:Syria ex:inContinent ex:Asia ; ex:label "Syria" .
        ex:China ex:inContinent ex:Asia ; ex:label "China" .
        ex:Ukraine ex:inContinent ex:Europe ; ex:label "Ukraine" .
        ex:Asia ex:label "Asia" .
        ex:Europe ex:label "Europe" .
        ex:Germany ex:label "Germany" .
        ex:France ex:label "France" .

        ex:o1 ex:dest ex:Germany ; ex:origin ex:Syria ; ex:year 2013 ; ex:applicants 300 .
        ex:o2 ex:dest ex:Germany ; ex:origin ex:Syria ; ex:year 2014 ; ex:applicants 600 .
        ex:o3 ex:dest ex:Germany ; ex:origin ex:China ; ex:year 2014 ; ex:applicants 100 .
        ex:o4 ex:dest ex:France ; ex:origin ex:Syria ; ex:year 2014 ; ex:applicants 300 .
        ex:o5 ex:dest ex:France ; ex:origin ex:Ukraine ; ex:year 2014 ; ex:applicants 50 .
        "#,
        &mut g,
    )
    .expect("parse fixture");
    g
}

fn run(g: &Graph, text: &str) -> Solutions {
    evaluate(g, &parse_query(text).expect("parse")).expect("evaluate")
}

fn number(sols: &Solutions, g: &Graph, row: usize, col: &str) -> f64 {
    sols.value(row, col)
        .unwrap_or_else(|| panic!("row {row} col {col} unbound"))
        .as_number(g)
        .expect("numeric")
}

fn string(sols: &Solutions, g: &Graph, row: usize, col: &str) -> String {
    sols.value(row, col)
        .unwrap_or_else(|| panic!("row {row} col {col} unbound"))
        .string_form(g)
        .into_owned()
}

#[test]
fn single_pattern_scan() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?o WHERE { ?o <http://ex/dest> <http://ex/Germany> }",
    );
    assert_eq!(sols.len(), 3);
}

#[test]
fn star_join_over_observation() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?d ?y WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/year> ?y . ?o <http://ex/origin> <http://ex/Syria> }",
    );
    assert_eq!(sols.len(), 3);
}

#[test]
fn sequence_property_path() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT DISTINCT ?c WHERE { ?o <http://ex/origin> / <http://ex/inContinent> ?c }",
    );
    assert_eq!(sols.len(), 2, "Asia and Europe");
}

#[test]
fn figure2_aggregation_shape() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?c ?d (SUM(?v) AS ?total) WHERE {
            ?o <http://ex/origin> / <http://ex/inContinent> ?c .
            ?o <http://ex/dest> ?d .
            ?o <http://ex/applicants> ?v .
        } GROUP BY ?c ?d ORDER BY DESC(?total)",
    );
    // groups: (Asia,Germany)=1000, (Asia,France)=300, (Europe,France)=50
    assert_eq!(sols.len(), 3);
    assert_eq!(number(&sols, &g, 0, "total"), 1000.0);
    assert_eq!(string(&sols, &g, 0, "c"), "http://ex/Asia");
    assert_eq!(string(&sols, &g, 0, "d"), "http://ex/Germany");
    assert_eq!(number(&sols, &g, 2, "total"), 50.0);
}

#[test]
fn all_aggregate_functions() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?d (SUM(?v) AS ?s) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) (AVG(?v) AS ?av) (COUNT(?v) AS ?n)
         WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?v } GROUP BY ?d ORDER BY ?d",
    );
    assert_eq!(sols.len(), 2);
    // France first (lexicographic)
    assert_eq!(string(&sols, &g, 0, "d"), "http://ex/France");
    assert_eq!(number(&sols, &g, 0, "s"), 350.0);
    assert_eq!(number(&sols, &g, 0, "mn"), 50.0);
    assert_eq!(number(&sols, &g, 0, "mx"), 300.0);
    assert_eq!(number(&sols, &g, 0, "av"), 175.0);
    assert_eq!(number(&sols, &g, 0, "n"), 2.0);
    assert_eq!(number(&sols, &g, 1, "s"), 1000.0);
}

#[test]
fn aggregates_over_non_numeric_and_empty_groups() {
    // Regression: SUM returned a bound 0 for a group whose bindings are
    // all non-numeric (while AVG/MIN/MAX were unbound), so a spurious
    // `SUM = 0` could satisfy HAVING filters. All four must agree: unbound
    // when no binding is numeric; COUNT alone stays bound (counts rows).
    let mut g = Graph::new();
    parse_turtle(
        r#"
        @prefix ex: <http://ex/> .
        ex:o1 ex:dest ex:Germany ; ex:note "textual" .
        ex:o2 ex:dest ex:Germany ; ex:note "also text" .
        ex:o3 ex:dest ex:France ; ex:note 7 .
        "#,
        &mut g,
    )
    .expect("parse fixture");
    let sols = run(
        &g,
        "SELECT ?d (SUM(?v) AS ?s) (AVG(?v) AS ?av) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) (COUNT(?v) AS ?n)
         WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/note> ?v } GROUP BY ?d ORDER BY ?d",
    );
    assert_eq!(sols.len(), 2);
    // France: the one numeric note binds every aggregate
    assert_eq!(string(&sols, &g, 0, "d"), "http://ex/France");
    for col in ["s", "av", "mn", "mx"] {
        assert_eq!(number(&sols, &g, 0, col), 7.0, "numeric group col {col}");
    }
    assert_eq!(number(&sols, &g, 0, "n"), 1.0);
    // Germany: all-non-numeric group — numeric aggregates unbound, COUNT = 2
    assert_eq!(string(&sols, &g, 1, "d"), "http://ex/Germany");
    for col in ["s", "av", "mn", "mx"] {
        assert!(
            sols.value(1, col).is_none(),
            "col {col} must be unbound over a non-numeric group"
        );
    }
    assert_eq!(number(&sols, &g, 1, "n"), 2.0);

    // the empty-group shape: no rows match at all → one implicit group,
    // numeric aggregates unbound, COUNT(*) = 0
    let empty = run(
        &g,
        "SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?av) (MIN(?v) AS ?mn) (MAX(?v) AS ?mx) (COUNT(*) AS ?n)
         WHERE { ?o <http://ex/missing> ?v }",
    );
    assert_eq!(empty.len(), 1);
    for col in ["s", "av", "mn", "mx"] {
        assert!(empty.value(0, col).is_none(), "empty group col {col}");
    }
    assert_eq!(number(&empty, &g, 0, "n"), 0.0);

    // and the HAVING consequence the bug allowed: SUM = 0 must NOT select
    // the all-non-numeric Germany group
    let having = run(
        &g,
        "SELECT ?d (SUM(?v) AS ?s) WHERE {
            ?o <http://ex/dest> ?d . ?o <http://ex/note> ?v
        } GROUP BY ?d HAVING(SUM(?v) = 0)",
    );
    assert_eq!(having.len(), 0, "no group has a numeric sum of zero");
}

#[test]
fn implicit_single_group_without_group_by() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT (SUM(?v) AS ?total) (COUNT(*) AS ?n) WHERE { ?o <http://ex/applicants> ?v }",
    );
    assert_eq!(sols.len(), 1);
    assert_eq!(number(&sols, &g, 0, "total"), 1350.0);
    assert_eq!(number(&sols, &g, 0, "n"), 5.0);
}

#[test]
fn count_star_on_empty_match_is_zero() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT (COUNT(*) AS ?n) WHERE { ?o <http://ex/dest> <http://ex/Spain> }",
    );
    assert_eq!(sols.len(), 1);
    assert_eq!(number(&sols, &g, 0, "n"), 0.0);
}

#[test]
fn having_filters_groups() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?d (SUM(?v) AS ?total) WHERE {
            ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?v
        } GROUP BY ?d HAVING(SUM(?v) > 500)",
    );
    assert_eq!(sols.len(), 1);
    assert_eq!(string(&sols, &g, 0, "d"), "http://ex/Germany");
}

#[test]
fn having_can_reference_group_key() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?d (SUM(?v) AS ?total) WHERE {
            ?o <http://ex/dest> ?d . ?o <http://ex/applicants> ?v
        } GROUP BY ?d HAVING(?d = <http://ex/France>)",
    );
    assert_eq!(sols.len(), 1);
    assert_eq!(number(&sols, &g, 0, "total"), 350.0);
}

#[test]
fn filter_on_measure_values() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?o WHERE { ?o <http://ex/applicants> ?v . FILTER(?v >= 300 && ?v < 600) }",
    );
    assert_eq!(sols.len(), 2, "o1 and o4 at 300");
}

#[test]
fn filter_with_in_list_of_iris() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?o WHERE { ?o <http://ex/origin> ?c . FILTER(?c IN (<http://ex/Syria>, <http://ex/Ukraine>)) }",
    );
    assert_eq!(sols.len(), 4);
}

#[test]
fn distinct_and_limit_offset() {
    let g = asylum_graph();
    let all = run(&g, "SELECT ?y WHERE { ?o <http://ex/year> ?y }");
    assert_eq!(all.len(), 5);
    let distinct = run(&g, "SELECT DISTINCT ?y WHERE { ?o <http://ex/year> ?y }");
    assert_eq!(distinct.len(), 2);
    let limited = run(
        &g,
        "SELECT ?y WHERE { ?o <http://ex/year> ?y } ORDER BY ?y LIMIT 2 OFFSET 1",
    );
    assert_eq!(limited.len(), 2);
}

#[test]
fn order_by_is_numeric_for_measures() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?v WHERE { ?o <http://ex/applicants> ?v } ORDER BY ASC(?v)",
    );
    let values: Vec<f64> = (0..sols.len()).map(|r| number(&sols, &g, r, "v")).collect();
    assert_eq!(values, vec![50.0, 100.0, 300.0, 300.0, 600.0]);
}

#[test]
fn ask_queries() {
    let g = asylum_graph();
    assert!(evaluate_ask(
        &g,
        &parse_query("ASK { ?o <http://ex/dest> <http://ex/Germany> }").expect("parse")
    )
    .expect("ask"));
    assert!(!evaluate_ask(
        &g,
        &parse_query("ASK { ?o <http://ex/dest> <http://ex/Spain> }").expect("parse")
    )
    .expect("ask"));
}

#[test]
fn constants_absent_from_graph_yield_empty_not_error() {
    let g = asylum_graph();
    let sols = run(&g, "SELECT ?o WHERE { ?o <http://nowhere/p> ?x }");
    assert!(sols.is_empty());
    let sols = run(
        &g,
        "SELECT ?o WHERE { ?o <http://ex/dest> <http://nowhere/X> }",
    );
    assert!(sols.is_empty());
}

#[test]
fn variable_predicate_enumeration() {
    let g = asylum_graph();
    let sols = run(&g, "SELECT DISTINCT ?p WHERE { <http://ex/o1> ?p ?x }");
    assert_eq!(sols.len(), 4, "dest, origin, year, applicants");
}

#[test]
fn shared_variable_within_one_pattern() {
    let mut g = Graph::new();
    parse_turtle(
        "@prefix ex: <http://ex/> . ex:a ex:p ex:a . ex:a ex:p ex:b .",
        &mut g,
    )
    .expect("parse");
    let sols = run(&g, "SELECT ?x WHERE { ?x <http://ex/p> ?x }");
    assert_eq!(sols.len(), 1);
}

#[test]
fn cross_product_when_patterns_share_no_vars() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?a ?b WHERE { ?a <http://ex/year> 2013 . ?b <http://ex/year> 2014 }",
    );
    assert_eq!(sols.len(), 4, "1 obs in 2013 × 4 obs in 2014");
}

#[test]
fn select_star_excludes_internal_path_variables() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT * WHERE { ?o <http://ex/origin> / <http://ex/inContinent> ?c }",
    );
    assert_eq!(sols.vars, vec!["o", "c"]);
}

#[test]
fn projecting_ungrouped_variable_is_rejected() {
    let g = asylum_graph();
    let q = parse_query(
        "SELECT ?d ?y (SUM(?v) AS ?t) WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/year> ?y . ?o <http://ex/applicants> ?v } GROUP BY ?d",
    )
    .expect("parse");
    let err = evaluate(&g, &q).unwrap_err();
    assert!(err.to_string().contains("neither grouped nor aggregated"));
}

#[test]
fn aggregate_in_where_filter_is_rejected() {
    let g = asylum_graph();
    let q = parse_query("SELECT ?d WHERE { ?o <http://ex/dest> ?d . FILTER(SUM(?v) > 3) }")
        .expect("parse");
    let err = evaluate(&g, &q).unwrap_err();
    assert!(err.to_string().contains("HAVING"));
}

#[test]
fn filter_contains_over_labels() {
    let g = asylum_graph();
    let sols = run(
        &g,
        r#"SELECT ?m WHERE { ?m <http://ex/label> ?l . FILTER(CONTAINS(LCASE(STR(?l)), "an")) }"#,
    );
    // Germany, France — "an" inside both; China too ("china" has no "an"?
    // c-h-i-n-a: no). Ukraine: u-k-r-a-i-n-e: no "an".
    assert_eq!(sols.len(), 2);
}

#[test]
fn schema_discovery_style_queries() {
    let g = asylum_graph();
    // dimension predicates: object is an IRI
    let dims = run(
        &g,
        "SELECT DISTINCT ?p WHERE { ?o <http://ex/applicants> ?any . ?o ?p ?m . FILTER(isIRI(?m)) }",
    );
    assert_eq!(dims.len(), 2, "dest and origin");
    // measures: object is numeric
    let measures = run(
        &g,
        "SELECT DISTINCT ?p WHERE { ?o <http://ex/dest> ?d . ?o ?p ?v . FILTER(isNumeric(?v)) }",
    );
    assert_eq!(
        measures.len(),
        2,
        "applicants and year are both numeric here"
    );
    // attributes: literal but not numeric
    let attrs = run(
        &g,
        "SELECT DISTINCT ?a WHERE { ?o <http://ex/origin> ?m . ?m ?a ?l . FILTER(isLiteral(?l) && !isNumeric(?l)) }",
    );
    assert_eq!(attrs.len(), 1, "label");
}

// ---- permutation invariance (exercises the join planner) -----------------

#[test]
fn join_order_permutations_agree() {
    let g = asylum_graph();
    let patterns = [
        "?o <http://ex/origin> / <http://ex/inContinent> ?c .",
        "?o <http://ex/dest> ?d .",
        "?o <http://ex/applicants> ?v .",
        "?o <http://ex/year> ?y .",
    ];
    let reference: Option<Vec<Vec<String>>> = None;
    let mut reference = reference;
    // all 24 permutations of the four patterns
    let idx = [0usize, 1, 2, 3];
    let mut permutations = Vec::new();
    permute(&idx, &mut Vec::new(), &mut permutations);
    assert_eq!(permutations.len(), 24);
    for perm in permutations {
        let body: String = perm
            .iter()
            .map(|&i| patterns[i])
            .collect::<Vec<_>>()
            .join("\n");
        let text = format!(
            "SELECT ?c ?d ?y (SUM(?v) AS ?t) WHERE {{ {body} }} GROUP BY ?c ?d ?y ORDER BY ?c ?d ?y"
        );
        let sols = run(&g, &text);
        let rendered: Vec<Vec<String>> = sols
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| {
                        v.as_ref()
                            .map_or_else(String::new, |v| v.string_form(&g).into_owned())
                    })
                    .collect()
            })
            .collect();
        match &reference {
            None => reference = Some(rendered),
            Some(expected) => assert_eq!(&rendered, expected),
        }
    }
}

fn permute(rest: &[usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    if rest.is_empty() {
        out.push(prefix.clone());
        return;
    }
    for (i, &x) in rest.iter().enumerate() {
        let mut remaining = rest.to_vec();
        remaining.remove(i);
        prefix.push(x);
        permute(&remaining, prefix, out);
        prefix.pop();
    }
}

// ---- property-based tests -------------------------------------------------

mod properties {
    use super::*;
    use re2x_testkit::{check, TestRng};

    /// Builds a random star-shaped graph: N observations, each with a
    /// destination from a small pool and an integer measure.
    fn star_graph(dests: &[u8], values: &[u16]) -> Graph {
        let mut g = Graph::new();
        let dest_p = g.intern_iri("http://ex/dest");
        let val_p = g.intern_iri("http://ex/val");
        for (i, (&d, &v)) in dests.iter().zip(values).enumerate() {
            let obs = g.intern_iri(format!("http://ex/o{i}"));
            let dest = g.intern_iri(format!("http://ex/d{d}"));
            let val = g.intern_literal(re2x_rdf::Literal::integer(i64::from(v)));
            g.insert_ids(obs, dest_p, dest);
            g.insert_ids(obs, val_p, val);
        }
        g
    }

    /// Draws the (destination, value) observation pairs all three
    /// properties share.
    fn gen_pairs(rng: &mut TestRng, value_bound: u16) -> (Vec<u8>, Vec<u16>) {
        let n = rng.gen_range(1usize..60);
        let mut dests = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            dests.push(rng.gen_range(0u8..5));
            values.push(rng.gen_range(0u16..value_bound));
        }
        (dests, values)
    }

    /// SUM per group over the engine equals a hand-rolled group-by.
    #[test]
    fn grouped_sum_matches_oracle() {
        check("grouped_sum_matches_oracle", |rng| {
            let (dests, values) = gen_pairs(rng, 1000);
            let g = star_graph(&dests, &values);
            let sols = run(
                &g,
                "SELECT ?d (SUM(?v) AS ?total) WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/val> ?v } GROUP BY ?d",
            );
            let mut oracle: std::collections::BTreeMap<String, f64> = Default::default();
            for (d, v) in dests.iter().zip(&values) {
                *oracle.entry(format!("http://ex/d{d}")).or_default() += f64::from(*v);
            }
            assert_eq!(sols.len(), oracle.len());
            for r in 0..sols.len() {
                let d = string(&sols, &g, r, "d");
                let t = number(&sols, &g, r, "total");
                assert_eq!(t, oracle[&d]);
            }
        });
    }

    /// LIMIT never yields more rows than requested, and ORDER BY ASC is
    /// monotone.
    #[test]
    fn order_and_limit_contract() {
        check("order_and_limit_contract", |rng| {
            let (dests, values) = gen_pairs(rng, 1000);
            let limit = rng.gen_range(1usize..10);
            let g = star_graph(&dests, &values);
            let sols = run(
                &g,
                &format!(
                    "SELECT ?v WHERE {{ ?o <http://ex/val> ?v }} ORDER BY ASC(?v) LIMIT {limit}"
                ),
            );
            assert!(sols.len() <= limit);
            let nums: Vec<f64> = (0..sols.len()).map(|r| number(&sols, &g, r, "v")).collect();
            for w in nums.windows(2) {
                assert!(w[0] <= w[1]);
            }
            // the limited prefix is the global minimum prefix
            let mut all: Vec<f64> = values.iter().map(|&v| f64::from(v)).collect();
            all.sort_by(f64::total_cmp);
            assert_eq!(&nums[..], &all[..nums.len()]);
        });
    }

    /// DISTINCT yields the set of distinct bindings.
    #[test]
    fn distinct_is_a_set() {
        check("distinct_is_a_set", |rng| {
            let (dests, values) = gen_pairs(rng, 50);
            let g = star_graph(&dests, &values);
            let sols = run(&g, "SELECT DISTINCT ?d WHERE { ?o <http://ex/dest> ?d }");
            let expected: std::collections::BTreeSet<u8> = dests.iter().copied().collect();
            assert_eq!(sols.len(), expected.len());
        });
    }
}

#[test]
fn explain_shows_plan_and_filters() {
    let g = asylum_graph();
    let q = parse_query(
        "SELECT ?d (SUM(?v) AS ?t) WHERE {
            ?o <http://ex/dest> ?d .
            ?o <http://ex/origin> <http://ex/Syria> .
            ?o <http://ex/applicants> ?v .
            FILTER(?v > 100)
        } GROUP BY ?d ORDER BY ?d",
    )
    .expect("parse");
    let plan = re2x_sparql::explain(&g, &q).expect("explain");
    // a flat block runs on the columnar kernel, filter and all
    let mut lines = plan.lines();
    assert_eq!(lines.next(), Some("executor: columnar"), "{plan}");
    // the selective constant-bound pattern is evaluated first
    let first = lines.next().expect("a first step");
    assert!(first.contains("http://ex/Syria"), "{plan}");
    assert!(plan.contains("    select (?v > 100)"), "{plan}");
    assert!(plan.contains("group by"), "{plan}");
    assert!(plan.contains("sort"), "{plan}");
    // bound variables are starred on later steps
    assert!(plan.contains("?o*"), "{plan}");
}

/// Golden plan: equal-cost patterns tie-break on pattern index, so the
/// plan for structurally identical queries is pinned byte-for-byte. All
/// three predicates below have five triples each (identical cost
/// estimates), so any instability in the greedy selection would reorder
/// the steps and fail this test. The two arms after the first step are
/// one star walk.
#[test]
fn explain_plan_is_deterministic_golden() {
    let g = asylum_graph();
    let q = parse_query(
        "SELECT ?d ?y ?v WHERE {
            ?o <http://ex/dest> ?d .
            ?o <http://ex/year> ?y .
            ?o <http://ex/applicants> ?v
        }",
    )
    .expect("parse");
    let plan = re2x_sparql::explain(&g, &q).expect("explain");
    let expected = concat!(
        "executor: columnar\n",
        " 0. ?o <http://ex/dest> ?d   (cost estimate 1)\n",
        "star walk on ?o: steps 1–2\n",
        " 1. ?o* <http://ex/year> ?y   (cost estimate 0)\n",
        " 2. ?o* <http://ex/applicants> ?v   (cost estimate 0)\n",
    );
    assert_eq!(plan, expected);
}

#[test]
fn explain_renders_paths_with_internal_vars() {
    let g = asylum_graph();
    let q = parse_query("SELECT ?c WHERE { ?o <http://ex/origin> / <http://ex/inContinent> ?c }")
        .expect("parse");
    let plan = re2x_sparql::explain(&g, &q).expect("explain");
    assert!(
        plan.contains("?_path"),
        "internal join variable shown: {plan}"
    );
}

#[test]
fn count_distinct_aggregate() {
    let g = asylum_graph();
    // 5 observations, 2 distinct years, 4 distinct applicant values
    let sols = run(
        &g,
        "SELECT (COUNT(DISTINCT ?y) AS ?years) (COUNT(?y) AS ?rows) WHERE { ?o <http://ex/year> ?y }",
    );
    assert_eq!(number(&sols, &g, 0, "years"), 2.0);
    assert_eq!(number(&sols, &g, 0, "rows"), 5.0);
    // grouped variant
    let sols = run(
        &g,
        "SELECT ?d (COUNT(DISTINCT ?c) AS ?origins) WHERE {
            ?o <http://ex/dest> ?d . ?o <http://ex/origin> ?c
        } GROUP BY ?d ORDER BY ?d",
    );
    // France: Syria+Ukraine = 2; Germany: Syria+China = 2
    assert_eq!(number(&sols, &g, 0, "origins"), 2.0);
    assert_eq!(number(&sols, &g, 1, "origins"), 2.0);
}

#[test]
fn count_distinct_round_trips_and_rejects_other_aggs() {
    let q = parse_query("SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE { ?o <http://ex/p> ?m }")
        .expect("parse");
    let text = re2x_sparql::query_to_sparql(&q);
    assert!(text.contains("COUNT(DISTINCT ?m)"), "{text}");
    assert_eq!(parse_query(&text).expect("reparse"), q);
    let err =
        parse_query("SELECT (SUM(DISTINCT ?m) AS ?n) WHERE { ?o <http://ex/p> ?m }").unwrap_err();
    assert!(err.to_string().contains("not supported"), "{err}");
}

#[test]
fn index_only_distinct_agrees_with_general_evaluation() {
    let g = asylum_graph();
    // each fast-path shape vs. a shape the optimizer does not recognize
    // (extra unused pattern forces the general evaluator)
    let pairs = [
        (
            "SELECT DISTINCT ?p WHERE { ?x ?p <http://ex/Syria> }",
            "SELECT DISTINCT ?p WHERE { ?x ?p <http://ex/Syria> . ?x ?p <http://ex/Syria> . }",
        ),
        (
            "SELECT DISTINCT ?p WHERE { <http://ex/o1> ?p ?x }",
            "SELECT DISTINCT ?p WHERE { <http://ex/o1> ?p ?x . <http://ex/o1> ?p ?x . }",
        ),
        (
            "SELECT DISTINCT ?c WHERE { ?x <http://ex/origin> ?c }",
            "SELECT DISTINCT ?c WHERE { ?x <http://ex/origin> ?c . ?x <http://ex/origin> ?c . }",
        ),
    ];
    for (fast, general) in pairs {
        let mut a: Vec<String> = run(&g, fast)
            .rows
            .iter()
            .map(|r| r[0].as_ref().expect("bound").string_form(&g).into_owned())
            .collect();
        let mut b: Vec<String> = run(&g, general)
            .rows
            .iter()
            .map(|r| r[0].as_ref().expect("bound").string_form(&g).into_owned())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{fast}");
    }
}

// ---- OPTIONAL and UNION ----------------------------------------------------

#[test]
fn optional_left_joins_missing_bindings() {
    let g = asylum_graph();
    // every origin country; its continent where one exists (all origins
    // here have continents, so add a member without one)
    let mut g = g;
    parse_turtle(
        "@prefix ex: <http://ex/> . ex:o9 ex:origin ex:Nowhere .",
        &mut g,
    )
    .expect("extend");
    let sols = run(
        &g,
        "SELECT DISTINCT ?c ?k WHERE {
            ?o <http://ex/origin> ?c .
            OPTIONAL { ?c <http://ex/inContinent> ?k }
        } ORDER BY ?c",
    );
    assert_eq!(sols.len(), 4, "Syria, China, Ukraine, Nowhere");
    let nowhere = (0..sols.len())
        .find(|&r| string(&sols, &g, r, "c").ends_with("Nowhere"))
        .expect("present");
    assert!(sols.value(nowhere, "k").is_none(), "continent unbound");
    let syria = (0..sols.len())
        .find(|&r| string(&sols, &g, r, "c").ends_with("Syria"))
        .expect("present");
    assert_eq!(string(&sols, &g, syria, "k"), "http://ex/Asia");
}

#[test]
fn optional_with_bound_filter_expresses_negation() {
    let mut g = asylum_graph();
    parse_turtle(
        "@prefix ex: <http://ex/> . ex:o9 ex:origin ex:Nowhere .",
        &mut g,
    )
    .expect("extend");
    // members WITHOUT a continent: the classic OPTIONAL + !BOUND pattern
    let sols = run(
        &g,
        "SELECT DISTINCT ?c WHERE {
            ?o <http://ex/origin> ?c .
            OPTIONAL { ?c <http://ex/inContinent> ?k }
            FILTER(!BOUND(?k))
        }",
    );
    assert_eq!(sols.len(), 1);
    assert_eq!(string(&sols, &g, 0, "c"), "http://ex/Nowhere");
}

#[test]
fn union_concatenates_branches() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?x WHERE {
            { ?o <http://ex/dest> ?x . ?o <http://ex/year> 2013 }
            UNION
            { ?o <http://ex/origin> ?x . ?o <http://ex/year> 2013 }
        }",
    );
    // 2013 has one observation: dest Germany + origin Syria
    assert_eq!(sols.len(), 2);
}

#[test]
fn union_branches_join_with_surrounding_patterns() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?o ?m WHERE {
            ?o <http://ex/applicants> ?v .
            FILTER(?v >= 600)
            { ?o <http://ex/dest> ?m } UNION { ?o <http://ex/origin> ?m }
        } ORDER BY ?m",
    );
    // only o2 (600): its dest and its origin
    assert_eq!(sols.len(), 2);
    assert_eq!(string(&sols, &g, 0, "m"), "http://ex/Germany");
    assert_eq!(string(&sols, &g, 1, "m"), "http://ex/Syria");
}

#[test]
fn union_inside_aggregation() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?m (SUM(?v) AS ?t) WHERE {
            ?o <http://ex/applicants> ?v .
            { ?o <http://ex/dest> ?m } UNION { ?o <http://ex/origin> ?m }
        } GROUP BY ?m ORDER BY DESC(?t)",
    );
    // every member's total as destination-or-origin
    let germany = (0..sols.len())
        .find(|&r| string(&sols, &g, r, "m") == "http://ex/Germany")
        .expect("germany");
    assert_eq!(number(&sols, &g, germany, "t"), 1000.0);
    let syria = (0..sols.len())
        .find(|&r| string(&sols, &g, r, "m") == "http://ex/Syria")
        .expect("syria");
    assert_eq!(
        number(&sols, &g, syria, "t"),
        1200.0,
        "300+600+300 as origin"
    );
}

#[test]
fn nested_optional_within_optional() {
    let mut g = Graph::new();
    parse_turtle(
        "@prefix ex: <http://ex/> .
         ex:a ex:p ex:b . ex:b ex:q ex:c . ex:c ex:r ex:d .
         ex:a2 ex:p ex:b2 .",
        &mut g,
    )
    .expect("parse");
    let sols = run(
        &g,
        "SELECT ?x ?y ?z WHERE {
            ?s <http://ex/p> ?x .
            OPTIONAL { ?x <http://ex/q> ?y . OPTIONAL { ?y <http://ex/r> ?z } }
        } ORDER BY ?x",
    );
    assert_eq!(sols.len(), 2);
    // b: q→c, r→d; b2: nothing
    assert_eq!(string(&sols, &g, 0, "z"), "http://ex/d");
    assert!(sols.value(1, "y").is_none());
    assert!(sols.value(1, "z").is_none());
}

#[test]
fn bare_braced_group_is_spliced() {
    let g = asylum_graph();
    let sols = run(
        &g,
        "SELECT ?d WHERE { { ?o <http://ex/dest> ?d . ?o <http://ex/year> 2013 } }",
    );
    assert_eq!(sols.len(), 1);
}

#[test]
fn ask_works_with_optional_and_union() {
    let g = asylum_graph();
    assert!(evaluate_ask(
        &g,
        &parse_query(
            "ASK { ?o <http://ex/dest> <http://ex/Germany> . OPTIONAL { ?o <http://ex/year> ?y } }"
        )
        .expect("parse")
    )
    .expect("ask"));
    assert!(!evaluate_ask(
        &g,
        &parse_query(
            "ASK { { ?o <http://ex/dest> <http://ex/Spain> } UNION { ?o <http://ex/origin> <http://ex/Spain> } }"
        )
        .expect("parse")
    )
    .expect("ask"));
}

#[test]
fn optional_union_round_trip_through_printer() {
    for text in [
        "SELECT ?c ?k WHERE { ?o <http://ex/origin> ?c . OPTIONAL { ?c <http://ex/inContinent> ?k . FILTER(?k != <http://ex/Asia>) } }",
        "SELECT ?x WHERE { { ?o <http://ex/dest> ?x } UNION { ?o <http://ex/origin> ?x } UNION { ?o <http://ex/year> ?x } }",
        "SELECT ?x ?y WHERE { ?s <http://ex/p> ?x . OPTIONAL { ?x <http://ex/q> ?y . OPTIONAL { ?y <http://ex/r> ?z } } }",
    ] {
        let q1 = parse_query(text).expect("parse");
        let printed = re2x_sparql::query_to_sparql(&q1);
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("{printed}: {e}"));
        assert_eq!(q1, q2, "{printed}");
    }
}

#[test]
fn explain_mentions_nested_blocks() {
    let g = asylum_graph();
    let q = parse_query(
        "SELECT ?c ?k WHERE { ?o <http://ex/origin> ?c . OPTIONAL { ?c <http://ex/inContinent> ?k } { ?o <http://ex/year> 2013 } UNION { ?o <http://ex/year> 2014 } }",
    )
    .expect("parse");
    let plan = re2x_sparql::explain(&g, &q).expect("explain");
    assert!(
        plan.starts_with("executor: row: OPTIONAL/UNION child\n"),
        "{plan}"
    );
    assert!(plan.contains("OPTIONAL block"), "{plan}");
    assert!(plan.contains("UNION of 2 branch(es)"), "{plan}");
    // one row of a flat block is found by the search, no batch built
    for text in [
        "ASK { ?o <http://ex/origin> ?c . ?c <http://ex/inContinent> ?k }",
        "SELECT ?o WHERE { ?o <http://ex/origin> ?c } LIMIT 1",
    ] {
        let plan = re2x_sparql::explain(&g, &parse_query(text).expect("parse")).expect("explain");
        assert!(
            plan.starts_with("executor: row: single-row search\n"),
            "{text}:\n{plan}"
        );
    }
    // two rows are the kernel's
    let q = parse_query("SELECT ?o WHERE { ?o <http://ex/origin> ?c } LIMIT 2").expect("parse");
    let plan = re2x_sparql::explain(&g, &q).expect("explain");
    assert!(plan.starts_with("executor: columnar\n"), "{plan}");
}
