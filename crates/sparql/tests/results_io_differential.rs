//! Differential proof that the streaming result writers are byte-identical
//! to the string-building serializer they replaced.
//!
//! The oracle below is that serializer kept verbatim — a `String` per cell,
//! a joined `String` per row, the number rule re-rendered through
//! `format!`, and literals escaped one `char` at a time — so a change to
//! any writer (`write_tsv`, `write_csv`, the number rule, `Term::write_nt`)
//! that moves a single byte fails here. It is compared on the answers of
//! real queries over all four datasets (every triple, grouped aggregates),
//! on seeded random solution sequences drawn from each dataset's terms, and
//! on hand-picked edge cells; the number rule alone on 2 620 278 values.

use re2x_datagen::common::Dataset;
use re2x_datagen::{dbpedia, eurostat, production, running};
use re2x_rdf::{Graph, Literal, Term, TermId};
use re2x_sparql::{evaluate, parse_query, to_csv, to_tsv, write_csv, write_tsv, Solutions, Value};
use re2x_testkit::{check_n, TestRng};

/// The serializer before it streamed, verbatim but for the `Display`
/// calls it made, which are spelled out as they rendered then.
mod oracle {
    use super::*;

    pub fn to_csv(solutions: &Solutions, graph: &Graph) -> String {
        let mut out = String::new();
        out.push_str(&join(solutions.vars.iter().map(|v| csv_escape(v)), ","));
        out.push_str("\r\n");
        for row in &solutions.rows {
            let cells = row.iter().map(|cell| match cell {
                None => String::new(),
                Some(v) => csv_escape(&csv_form(v, graph)),
            });
            out.push_str(&join(cells, ","));
            out.push_str("\r\n");
        }
        out
    }

    pub fn to_tsv(solutions: &Solutions, graph: &Graph) -> String {
        let mut out = String::new();
        out.push_str(&join(solutions.vars.iter().map(|v| format!("?{v}")), "\t"));
        out.push('\n');
        for row in &solutions.rows {
            let cells = row.iter().map(|cell| match cell {
                None => String::new(),
                Some(v) => tsv_form(v, graph),
            });
            out.push_str(&join(cells, "\t"));
            out.push('\n');
        }
        out
    }

    fn join(items: impl Iterator<Item = String>, sep: &str) -> String {
        items.collect::<Vec<_>>().join(sep)
    }

    fn csv_form(value: &Value, graph: &Graph) -> String {
        match value {
            Value::Str(s) => s.clone(),
            Value::Number(n) => format_number(*n),
            Value::Bool(b) => (if *b { "true" } else { "false" }).to_owned(),
            Value::Term(id) => match graph.term(*id) {
                Term::Iri(iri) => iri.to_string(),
                Term::BlankNode(b) => format!("_:{b}"),
                Term::Literal(l) => l.lexical().to_owned(),
            },
        }
    }

    fn csv_escape(field: &str) -> String {
        if field.contains([',', '"', '\r', '\n']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_owned()
        }
    }

    fn tsv_form(value: &Value, graph: &Graph) -> String {
        match value {
            Value::Term(id) => match graph.term(*id) {
                Term::Iri(iri) => format!("<{iri}>"),
                Term::BlankNode(label) => format!("_:{label}"),
                Term::Literal(lit) => literal(lit),
            },
            Value::Number(n) => format_number(*n),
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => literal(&Literal::simple(s.clone())),
        }
    }

    fn literal(lit: &Literal) -> String {
        let mut out = String::from("\"");
        for c in lit.lexical().chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                other => out.push_str(&format!("{other}")),
            }
        }
        out.push('"');
        if let Some(lang) = lit.language() {
            out.push_str(&format!("@{lang}"));
        } else if let Some(dt) = lit.datatype() {
            out.push_str(&format!("^^<{dt}>"));
        }
        out
    }

    pub fn format_number(n: f64) -> String {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    }
}

/// Asserts both formats — the `String` wrappers and the streams — equal
/// the oracle byte for byte.
fn assert_identical(solutions: &Solutions, graph: &Graph, what: &str) {
    let tsv = oracle::to_tsv(solutions, graph);
    let csv = oracle::to_csv(solutions, graph);
    assert_eq!(to_tsv(solutions, graph), tsv, "{what}: TSV");
    assert_eq!(to_csv(solutions, graph), csv, "{what}: CSV");
    let (mut streamed_tsv, mut streamed_csv) = (String::new(), String::new());
    write_tsv(solutions, graph, &mut streamed_tsv).expect("a String sink");
    write_csv(solutions, graph, &mut streamed_csv).expect("a String sink");
    assert_eq!(streamed_tsv, tsv, "{what}: streamed TSV");
    assert_eq!(streamed_csv, csv, "{what}: streamed CSV");
}

/// Numbers at the edges of the integral rule, of `f64` and of its shortest
/// rendering.
const EDGE_NUMBERS: [f64; 16] = [
    0.0,
    -0.0,
    1.0,
    -3.0,
    2.5,
    0.1 + 0.2,
    1e15,
    1e15 - 1.0,
    -1e15,
    1e16 + 2.0,
    1e300,
    5e-324,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MAX,
];

/// Text that exercises both formats' escaping.
const STR_ALPHABET: &str = "ab ,;\"'\\\t\n\r?<>_:@^éß—北😀";

fn datasets() -> Vec<Dataset> {
    vec![
        running::generate(),
        eurostat::generate(300, 7),
        production::generate(250, 11),
        dbpedia::generate(250, 13),
    ]
}

/// Every triple of the dataset, and one dimension grouped with the five
/// aggregates over every numeric object (averages give non-integral
/// numbers, sums large integral ones).
fn dataset_answers(dataset: &Dataset) -> Vec<(String, Solutions)> {
    let dim = &dataset.dimension_predicates[0];
    let queries = [
        "SELECT ?s ?p ?o WHERE { ?s ?p ?o }".to_owned(),
        format!(
            "SELECT ?d (SUM(?v) AS ?sum) (AVG(?v) AS ?avg) (MIN(?v) AS ?min) \
             (MAX(?v) AS ?max) (COUNT(?v) AS ?n) \
             WHERE {{ ?o <{dim}> ?d . ?o ?m ?v FILTER(isNumeric(?v)) }} GROUP BY ?d"
        ),
    ];
    let graph = &dataset.graph;
    queries
        .iter()
        .map(|text| {
            let query = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let solutions = evaluate(graph, &query).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert!(
                !solutions.is_empty(),
                "{}: {text} answered nothing",
                dataset.name
            );
            (text.clone(), solutions)
        })
        .collect()
}

#[test]
fn dataset_answers_serialize_identically() {
    for dataset in datasets() {
        let answers = dataset_answers(&dataset);
        let kinds = |answer: &Solutions| {
            let cells = answer.rows.iter().flatten().flatten();
            cells.fold([false; 3], |[iri, lit, num], v| match v {
                Value::Term(id) => match dataset.graph.term(*id) {
                    Term::Iri(_) => [true, lit, num],
                    _ => [iri, true, num],
                },
                Value::Number(n) => [iri, lit, num || n.fract() != 0.0],
                _ => [iri, lit, num],
            })
        };
        // the answers carry IRIs, literals and non-integral numbers
        assert_eq!(kinds(&answers[0].1)[..2], [true, true], "{}", dataset.name);
        assert!(
            kinds(&answers[1].1)[2],
            "{}: no fractional average",
            dataset.name
        );
        for (text, solutions) in &answers {
            assert_identical(
                solutions,
                &dataset.graph,
                &format!("{}: {text}", dataset.name),
            );
        }
    }
}

fn random_cell(rng: &mut TestRng, terms: &[TermId]) -> Option<Value> {
    match rng.pick_weighted(&[2, 6, 3, 2, 1, 2, 2]) {
        0 => None,
        1 => Some(Value::Term(*rng.pick(terms))),
        2 => Some(Value::Number(*rng.pick(&EDGE_NUMBERS))),
        3 => Some(Value::Number(f64::from_bits(rng.next_u64()))),
        4 => Some(Value::Bool(rng.gen_bool(0.5))),
        5 => Some(Value::Number(
            rng.gen_range(-1_000_000i64..1_000_000) as f64 / 8.0,
        )),
        _ => Some(Value::Str(rng.string_from(STR_ALPHABET, 0..12))),
    }
}

fn random_solutions(rng: &mut TestRng, terms: &[TermId]) -> Solutions {
    let width = rng.gen_range(0usize..6);
    let vars = (0..width)
        .map(|i| match rng.gen_range(0u32..4) {
            0 => rng.string_from("v,\"\r\n é", 1..6),
            _ => format!("v{i}"),
        })
        .collect();
    let rows = (0..rng.gen_range(0usize..20))
        .map(|_| (0..width).map(|_| random_cell(rng, terms)).collect())
        .collect();
    Solutions { vars, rows }
}

#[test]
fn seeded_solutions_serialize_identically() {
    for dataset in datasets() {
        let graph = &dataset.graph;
        let mut terms: Vec<TermId> = graph.iter().iter().flat_map(|t| [t.s, t.p, t.o]).collect();
        terms.sort_unstable();
        terms.dedup();
        check_n(&format!("results_io_{}", dataset.name), 64, |rng| {
            let solutions = random_solutions(rng, &terms);
            assert_identical(&solutions, graph, &dataset.name);
        });
    }
}

#[test]
fn edge_cells_serialize_identically() {
    let mut g = Graph::new();
    let terms = [
        g.intern_iri("http://ex/a,b\"c"),
        g.intern(Term::blank("b0")),
        g.intern(Term::blank("x,y")),
        g.intern_literal(Literal::tagged("Zürich, \"CH\"\n", "DE-ch")),
        g.intern_literal(Literal::typed("4.20", re2x_rdf::vocab::xsd::DECIMAL)),
        g.intern_literal(Literal::typed("a\tb\\c\r", "http://ex/dt")),
        g.intern_literal(Literal::simple("")),
        g.intern_literal(Literal::simple("—")),
    ];
    let mut cells: Vec<Option<Value>> = vec![None];
    cells.extend(terms.iter().map(|&id| Some(Value::Term(id))));
    cells.extend(EDGE_NUMBERS.iter().map(|&n| Some(Value::Number(n))));
    cells.extend([true, false].map(|b| Some(Value::Bool(b))));
    cells.extend(
        [
            "",
            "say \"hi\"",
            "tab\there",
            "line\nbreak",
            "cr\r",
            "back\\slash",
            "a,b",
        ]
        .map(|s| Some(Value::Str(s.to_owned()))),
    );
    // each edge cell alone, at the start, middle and end of a row
    for cell in &cells {
        let solutions = Solutions {
            vars: vec!["first".into(), "mid,\"q\"".into(), "last".into()],
            rows: vec![
                vec![cell.clone(), None, None],
                vec![None, cell.clone(), None],
                vec![None, None, cell.clone()],
            ],
        };
        assert_identical(&solutions, &g, &format!("{cell:?}"));
    }
    // and all of them in one row, plus the zero-width shapes
    let vars = (0..cells.len()).map(|i| format!("c{i}")).collect();
    let wide = Solutions {
        vars,
        rows: vec![cells.clone(), cells],
    };
    assert_identical(&wide, &g, "all edge cells in one row");
    // a number cell equal to the number cell before it is written from the
    // previous rendering: runs across cells, unbound and term cells and
    // rows, values equal as numbers but not as bits, and neighbours one
    // ulp apart
    let number = |n: f64| Some(Value::Number(n));
    let repeats = Solutions {
        vars: vec!["a".into(), "b".into(), "c".into(), "d".into()],
        rows: vec![
            vec![number(2.5), number(2.5), None, number(2.5)],
            vec![
                number(2.5),
                Some(Value::Term(terms[0])),
                number(2.5),
                number(-0.0),
            ],
            vec![number(0.0), number(0.0), number(-0.0), number(f64::NAN)],
            vec![
                number(-f64::NAN),
                number(1e300),
                number(1e300),
                number(0.1 + 0.2),
            ],
            vec![
                number(0.3),
                number(0.1 + 0.2),
                number(2.5),
                number(2.5f64.next_up()),
            ],
        ],
    };
    assert_identical(&repeats, &g, "repeated number cells");
    let empty_row = Solutions {
        vars: vec![],
        rows: vec![vec![], vec![]],
    };
    assert_identical(&empty_row, &g, "no columns");
    assert_identical(&Solutions::default(), &g, "no columns, no rows");
}

/// Every value the number differential compares with the `format!`
/// oracle: the edge numbers; 10^6 seeded random bit patterns; every power
/// of two from 2^-1074 to 2^1023; every `1e±k` and `5e±k`; each of those
/// with its neighbours one ulp up and down; the subnormal bounds,
/// `MIN_POSITIVE` and `MAX`; 1e15 (the integral rule's bound) and 2^53,
/// one ulp and one unit either side; an exact tie of two shortest
/// candidates; and 10^5 workload-like averages (integral sums over small
/// counts, scaled by 100 and 1/100). All of them also negated.
fn number_differential_values() -> Vec<f64> {
    let mut values = EDGE_NUMBERS.to_vec();
    let mut rng = TestRng::seed_from_u64(0x6e75_6d62_6572);
    values.extend((0..1_000_000).map(|_| f64::from_bits(rng.next_u64())));
    let mut families: Vec<f64> = (-1074..=1023).map(|k| 2f64.powi(k)).collect();
    for k in -324..=308 {
        for mantissa in [1, 5] {
            families.push(
                format!("{mantissa}e{k}")
                    .parse()
                    .expect("a decimal literal"),
            );
        }
    }
    let smallest_subnormal = f64::from_bits(1);
    let largest_subnormal = f64::from_bits((1 << 52) - 1);
    families.extend([
        smallest_subnormal,
        largest_subnormal,
        f64::MIN_POSITIVE,
        f64::MAX,
        1e15,
        1e15 - 1.0,
        1e15 + 1.0,
        9_007_199_254_740_992.0,
        9_007_199_254_740_991.0,
        9_007_199_254_740_994.0,
    ]);
    for value in families {
        values.extend([value, value.next_up(), value.next_down()]);
    }
    // 1658206780088562.25 lies halfway between …62.2 and …62.3: `{}` (and
    // so the rule) prints …62.3, where rounding half to even prints …62.2
    values.push(f64::from_bits(0x4317_9085_685d_83c9));
    for _ in 0..100_000 {
        let sum = rng.gen_range(0..100_000_000u64) as f64;
        let count = rng.gen_range(1..5_000u64) as f64;
        values.extend([sum / count, sum / count * 100.0, sum / count / 100.0]);
    }
    let negated: Vec<f64> = values.iter().map(|v| -v).collect();
    values.extend(negated);
    values
}

/// The number rule against the `format!` oracle on
/// [`number_differential_values`]: 2 620 278 values, 0 may differ.
#[test]
fn format_number_matches_the_oracle() {
    let values = number_differential_values();
    assert_eq!(values.len(), 2_620_278);
    let mismatches: Vec<String> = values
        .iter()
        .filter_map(|&n| {
            let (ours, oracle) = (
                re2x_sparql::value::format_number(n),
                oracle::format_number(n),
            );
            (ours != oracle).then(|| format!("{:#018x}: {ours} vs {oracle}", n.to_bits()))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} numbers differ, first: {:?}",
        mismatches.len(),
        values.len(),
        &mismatches[..mismatches.len().min(8)]
    );
    // the tie renders as `{}` renders it
    let tie = f64::from_bits(0x4317_9085_685d_83c9);
    assert_eq!(re2x_sparql::value::format_number(tie), "1658206780088562.3");
}
