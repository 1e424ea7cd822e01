//! Example-driven Similarity Search (Problem 2c, Section 6.3, Figure 5).
//!
//! The query's grouping columns are split into *example dimensions* (those
//! the user's example was matched on) and *context dimensions* (added by
//! later refinements). Every combination of example-dimension members seen
//! in the results becomes an item; its feature vector is indexed by the
//! distinct context-dimension combinations with the measure value as the
//! feature value (0 where a combination is missing). Cosine similarity
//! against the example's own vector ranks the items, and the refinement
//! pins the example dimensions to the example's and the k most similar
//! combinations with a `FILTER`.
//!
//! When there are no context dimensions (the query is exactly at the
//! example's granularity), vectors are one-dimensional and cosine is
//! degenerate; similarity then falls back to closeness of the measure
//! value (smallest absolute difference), which matches the paper's informal
//! description "the k countries most similar to Germany based on the values
//! of the measure at the current aggregation level".

use crate::query_model::{MeasureColumn, OlapQuery};
use crate::refine::{Refinement, RefinementKind};
use re2x_cube::VirtualSchemaGraph;
use re2x_rdf::hash::FxHashMap;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_model::{ExampleBinding, GroupColumn};
    use re2x_sparql::{AggFunc, Query};

    /// Reproduces Figure 5 of the paper: ⟨dest, origin⟩ example dims with
    /// Year as the context dimension.
    fn figure5() -> (VirtualSchemaGraph, OlapQuery, Solutions, Graph) {
        let mut v = VirtualSchemaGraph::new("http://ex/Obs");
        let dest = v.add_dimension("http://ex/dest", "Country of Destination");
        let origin = v.add_dimension("http://ex/origin", "Country of Origin");
        let year = v.add_dimension("http://ex/year", "Year");
        let m = v.add_measure("http://ex/applicants", "Num Applicants");
        let dest_l = v.add_level(dest, vec!["http://ex/dest".into()], 3, vec![], "Country");
        let origin_l = v.add_level(
            origin,
            vec!["http://ex/origin".into()],
            2,
            vec![],
            "Country",
        );
        let year_l = v.add_level(year, vec!["http://ex/year".into()], 2, vec![], "Year");

        let mut g = Graph::new();
        let mut iri = |name: &str| g.intern_iri(format!("http://ex/{name}"));
        let (germany, france, sweden) = (iri("Germany"), iri("France"), iri("Sweden"));
        let (syria, china) = (iri("Syria"), iri("China"));
        let (y2013, y2014) = (iri("2013"), iri("2014"));

        // Figure 5 data, in millions
        let data = [
            (germany, syria, y2013, 0.3),
            (france, syria, y2013, 0.3),
            (sweden, syria, y2013, 0.2),
            (germany, china, y2013, 0.1),
            (france, china, y2013, 0.1),
            (sweden, china, y2013, 0.3),
            (germany, syria, y2014, 0.6),
            (france, syria, y2014, 0.3),
            (sweden, syria, y2014, 0.4),
            (germany, china, y2014, 0.1),
            (france, china, y2014, 0.3),
            (sweden, china, y2014, 0.2),
        ];
        let rows = data
            .iter()
            .map(|&(d, o, y, v)| {
                vec![
                    Some(Value::Term(d)),
                    Some(Value::Term(o)),
                    Some(Value::Term(y)),
                    Some(Value::Number(v)),
                ]
            })
            .collect();
        let solutions = Solutions {
            vars: vec![
                "dest".into(),
                "origin".into(),
                "year".into(),
                "sum_applicants".into(),
            ],
            rows,
        };
        let query = OlapQuery {
            query: Query::select_all(vec![]),
            group_columns: vec![
                GroupColumn {
                    var: "dest".into(),
                    level: dest_l,
                },
                GroupColumn {
                    var: "origin".into(),
                    level: origin_l,
                },
                GroupColumn {
                    var: "year".into(),
                    level: year_l,
                },
            ],
            measure_columns: vec![MeasureColumn {
                alias: "sum_applicants".into(),
                measure: m,
                agg: AggFunc::Sum,
            }],
            example: vec![vec![
                ExampleBinding {
                    keyword: "Germany".into(),
                    member_iri: "http://ex/Germany".into(),
                    label: "Germany".into(),
                    level: dest_l,
                },
                ExampleBinding {
                    keyword: "Syria".into(),
                    member_iri: "http://ex/Syria".into(),
                    label: "Syria".into(),
                    level: origin_l,
                },
            ]],
            description: "Q".into(),
        };
        (v, query, solutions, g)
    }

    #[test]
    fn figure5_top2_matches_the_paper() {
        let (v, q, sols, g) = figure5();
        let refinements = similarity(&v, &q, &sols, &g, 2);
        assert_eq!(refinements.len(), 1, "one per measure column");
        let r = &refinements[0];
        match &r.kind {
            RefinementKind::Similarity { k, .. } => assert_eq!(*k, 2),
            other => panic!("unexpected {other:?}"),
        }
        // the paper's top-2: ⟨Sweden, Syria⟩ (σ=1) then ⟨France, China⟩
        // (σ≈0.99); the filter must mention them plus the example itself
        let filter_text =
            re2x_sparql::pretty::expr(match r.query.query.wher.last().expect("filter added") {
                PatternElement::Filter(e) => e,
                other => panic!("expected filter, got {other:?}"),
            });
        assert!(filter_text.contains("http://ex/Germany"), "{filter_text}");
        assert!(filter_text.contains("http://ex/Sweden"), "{filter_text}");
        assert!(
            filter_text.contains("http://ex/France") && filter_text.contains("http://ex/China"),
            "{filter_text}"
        );
        assert!(r.explanation.contains("Germany"));
    }

    #[test]
    fn top1_keeps_only_the_most_similar() {
        let (v, q, sols, g) = figure5();
        let r = similarity(&v, &q, &sols, &g, 1).remove(0);
        let filter_text = re2x_sparql::pretty::expr(match r.query.query.wher.last().expect("f") {
            PatternElement::Filter(e) => e,
            _ => unreachable!(),
        });
        // Sweden/Syria is σ=1 (perfectly proportional profile ⟨0.2,0.4⟩ vs
        // ⟨0.3,0.6⟩); France/China ⟨0.1,0.3⟩ is slightly lower.
        assert!(filter_text.contains("http://ex/Sweden"));
        assert!(!filter_text.contains("http://ex/France"));
    }

    #[test]
    fn similarity_without_example_columns_yields_nothing() {
        let (v, mut q, sols, g) = figure5();
        q.example.clear();
        assert!(similarity(&v, &q, &sols, &g, 2).is_empty());
    }

    fn sparse(entries: &[(u32, f64)]) -> FxHashMap<FeatureKey, f64> {
        entries
            .iter()
            .map(|&(k, v)| (vec![Some(re2x_rdf::TermId(k))], v))
            .collect()
    }

    #[test]
    fn one_dimensional_fallback_prefers_closest_values() {
        let five = sparse(&[(0, 5.0)]);
        let six = sparse(&[(0, 6.0)]);
        let fifty = sparse(&[(0, 50.0)]);
        let scalar = |a, b| scalar_similarity(a, b, |&x| x);
        assert!(scalar(&five, &six) > scalar(&five, &fifty));
        assert_eq!(scalar(&sparse(&[]), &sparse(&[])), 0.0);
    }

    #[test]
    fn cosine_properties() {
        let sparse_cosine = |a, b| sparse_cosine(a, b, |&x| x);
        let a = sparse(&[(0, 1.0), (1, 2.0)]);
        let proportional = sparse(&[(0, 2.0), (1, 4.0)]);
        assert!((sparse_cosine(&a, &proportional) - 1.0).abs() < 1e-12);
        let orthogonal_a = sparse(&[(0, 1.0)]);
        let orthogonal_b = sparse(&[(1, 1.0)]);
        assert!(sparse_cosine(&orthogonal_a, &orthogonal_b).abs() < 1e-12);
        let zero = sparse(&[(0, 0.0), (1, 0.0)]);
        let ones = sparse(&[(0, 1.0), (1, 1.0)]);
        assert_eq!(sparse_cosine(&zero, &ones), 0.0);
        // sparse == dense semantics: missing keys are zeros
        let partial = sparse(&[(0, 3.0)]);
        let full = sparse(&[(0, 3.0), (1, 4.0)]);
        let expected = 9.0 / (3.0 * 5.0);
        assert!((sparse_cosine(&partial, &full) - expected).abs() < 1e-12);
    }
}
