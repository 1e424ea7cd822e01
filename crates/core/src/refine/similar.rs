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
//!
//! The kernel reads one dense view of the step ([`StepView`]: grouping
//! cells as term ids, measure columns as `f64`s), interns item and feature
//! keys to `u32` indexes and keeps every item's vector as a sparse list of
//! entries ([`Profiles`]), so a call allocates per distinct key, never per
//! row. Sums — an entry's over its rows, a norm's over an item's entries, a
//! dot product's over the shorter vector's — run in first-seen order, a
//! function of the rows alone.

use crate::query_model::{GroupCells, MeasureColumn, OlapQuery, StepView};
use crate::refine::{Refinement, RefinementKind};
use re2x_cube::VirtualSchemaGraph;
use re2x_rdf::hash::FxHashMap;
use re2x_rdf::{Graph, TermId};
use re2x_sparql::{CmpOp, Expr, PatternElement, Solutions};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One similarity refinement per measure column, each keeping the `k`
/// most similar example-dimension combinations (plus the example's own).
pub fn similarity(
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    solutions: &Solutions,
    graph: &Graph,
    k: usize,
) -> Vec<Refinement> {
    let view = StepView::new(query, solutions, graph);
    let Some(groups) = view.groups.as_ref().filter(|g| g.example_width > 0) else {
        return Vec::new();
    };
    let Some(example_key) = &groups.example_key else {
        return Vec::new();
    };
    let Some(profiles) = Profiles::build(groups, example_key, &view.measures) else {
        return Vec::new();
    };
    query
        .measure_columns
        .iter()
        .zip(&profiles.sums)
        .filter_map(|(column, sums)| {
            let scored = rank(&profiles, sums.as_deref()?, k);
            refinement(schema, query, graph, column, &profiles, &scored)
        })
        .collect()
}

/// No entry: a feature the example does not have.
const NONE: u32 = u32::MAX;

/// Every item's sparse feature vector, for every measure column, from one
/// pass over the grouping cells. An *item* is an example-dimension member
/// combination, a *feature* a context-dimension one; both are interned to
/// dense indexes through maps keyed by slices of the cells (no per-row
/// allocation), and each distinct (item, feature) pair is an *entry* with
/// one running sum per measure. Vectors stay sparse, CSR-style — item `i`'s
/// `(feature, entry)` pairs are `entries[starts[i]..starts[i + 1]]`, in
/// first-seen order — instead of densifying to |feature space| values per
/// item, which would be quadratic in the result size (similarity is the
/// paper's most expensive refinement — Fig. 9a — and DBpedia's M-to-N
/// results are huge).
struct Profiles<'a> {
    /// Item index → item key.
    keys: Vec<&'a [Option<TermId>]>,
    starts: Vec<usize>,
    entries: Vec<(u32, u32)>,
    /// No context dimensions: each item is one entry.
    scalar: bool,
    /// The example's item.
    example: u32,
    /// The example item's vector, scattered over the features.
    example_at: Scatter,
    /// Number of distinct features (1 when there are no context dimensions).
    features: usize,
    /// Per measure column (`None` for a column the result lacks): every
    /// entry's sum, in row order.
    sums: Vec<Option<Vec<f64>>>,
}

impl<'a> Profiles<'a> {
    /// `None` when the example's combination is in no row.
    fn build(
        groups: &'a GroupCells,
        example_key: &[Option<TermId>],
        measures: &[Option<Vec<Option<f64>>>],
    ) -> Option<Self> {
        let example_width = groups.example_width;
        let rows = groups.cells.len() / groups.width;
        let mut index: FxHashMap<&[Option<TermId>], u32> =
            FxHashMap::with_capacity_and_hasher(rows, Default::default());
        let mut keys = Vec::with_capacity(rows);
        let mut features: FxHashMap<&[Option<TermId>], u32> = FxHashMap::default();
        let scalar = example_width == groups.width;
        let mut pairs: FxHashMap<(u32, u32), u32> =
            FxHashMap::with_capacity_and_hasher(if scalar { 0 } else { rows }, Default::default());
        // per entry: (item, feature); per row: its entry, or NONE
        let mut entry_of: Vec<(u32, u32)> = Vec::with_capacity(rows);
        let mut row_entry: Vec<u32> = Vec::with_capacity(rows);
        for row in groups.cells.chunks_exact(groups.width) {
            let (key, context) = row.split_at(example_width);
            if key.contains(&None) {
                row_entry.push(NONE);
                continue;
            }
            let fresh = keys.len() as u32;
            let item = *index.entry(key).or_insert(fresh);
            if item == fresh {
                keys.push(key);
            }
            let entry = if context.is_empty() {
                // at the example's granularity every item is one entry
                if item == fresh {
                    entry_of.push((item, 0));
                }
                item
            } else {
                let fresh = features.len() as u32;
                let feature = *features.entry(context).or_insert(fresh);
                let fresh = entry_of.len() as u32;
                let entry = *pairs.entry((item, feature)).or_insert(fresh);
                if entry == fresh {
                    entry_of.push((item, feature));
                }
                entry
            };
            row_entry.push(entry);
        }
        let example = *index.get(example_key)?;

        // CSR by a counting sort of the entries on their item: stable, so
        // each item's entries stay in first-seen order
        let mut starts = vec![0usize; keys.len() + 1];
        for &(item, _) in &entry_of {
            starts[item as usize + 1] += 1;
        }
        for i in 0..keys.len() {
            starts[i + 1] += starts[i];
        }
        let mut fill = starts.clone();
        let mut entries = vec![(0, 0); entry_of.len()];
        for (entry, &(item, feature)) in entry_of.iter().enumerate() {
            entries[fill[item as usize]] = (feature, entry as u32);
            fill[item as usize] += 1;
        }

        let sums = measures
            .iter()
            .map(|values| {
                let values = values.as_ref()?;
                let mut sums = vec![0.0; entry_of.len()];
                for (&entry, value) in row_entry.iter().zip(values) {
                    // an unbound or non-numeric cell counts as 0, and adding
                    // 0.0 to a sum that started at 0.0 changes nothing
                    if let (Some(sum), Some(value)) = (sums.get_mut(entry as usize), value) {
                        *sum += value;
                    }
                }
                Some(sums)
            })
            .collect();
        let features = features.len().max(1);
        let mut example_at = Scatter(vec![NONE; features]);
        example_at.fill(&entries[starts[example as usize]..starts[example as usize + 1]]);
        Some(Profiles {
            keys,
            starts,
            entries,
            scalar,
            example,
            example_at,
            features,
            sums,
        })
    }

    /// Item `item`'s `(feature, entry)` pairs, in first-seen order.
    fn item(&self, item: u32) -> &[(u32, u32)] {
        let item = item as usize;
        &self.entries[self.starts[item]..self.starts[item + 1]]
    }
}

/// The `k` items most similar to the example by one measure's entry sums,
/// best first: cosine against the example's vector or, with no context
/// dimensions, closeness of the value. The rank is a total order (ties fall
/// to the key), so a heap of the `k` best so far — its worst on top, which
/// rejects most items in one comparison — gives what sorting all would.
fn rank<'a>(profiles: &Profiles<'a>, sums: &[f64], k: usize) -> Vec<Ranked<'a>> {
    if k == 0 {
        return Vec::new();
    }
    let value = |entry: u32| sums[entry as usize];
    let example = profiles.item(profiles.example);
    let example_norm = norm(example, value);
    let mut scratch = Scatter(vec![NONE; profiles.features]);
    let mut kept: BinaryHeap<Ranked> = BinaryHeap::with_capacity(k.min(profiles.keys.len()));
    for (item, &key) in profiles.keys.iter().enumerate() {
        if item as u32 == profiles.example {
            continue;
        }
        let entries = profiles.item(item as u32);
        let score = if profiles.scalar {
            scalar_similarity(example, entries, value)
        } else {
            let example = (example, &profiles.example_at, example_norm);
            cosine(example, entries, &mut scratch, value)
        };
        let ranked = Ranked { score, key };
        if kept.len() < k {
            kept.push(ranked);
        } else if kept.peek().is_some_and(|worst| ranked < *worst) {
            kept.pop();
            kept.push(ranked);
        }
    }
    kept.into_sorted_vec()
}

/// An item's place in the ranking: a higher score first, ties to the
/// smaller key ("less" is better).
struct Ranked<'a> {
    score: f64,
    key: &'a [Option<TermId>],
}

impl Ord for Ranked<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then_with(|| self.key.cmp(other.key))
    }
}

impl PartialOrd for Ranked<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked<'_> {}

/// The refinement keeping the example's and the `scored` member
/// combinations: a `FILTER` pinning the example dimensions to them.
fn refinement(
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    graph: &Graph,
    column: &MeasureColumn,
    profiles: &Profiles,
    scored: &[Ranked],
) -> Option<Refinement> {
    if scored.is_empty() {
        return None;
    }
    let example = profiles.keys[profiles.example as usize];
    let kept = std::iter::once(example).chain(scored.iter().map(|ranked| ranked.key));
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
            .zip(combo.iter().flatten())
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

/// A sparse vector scattered over the feature space: feature → entry, or
/// [`NONE`].
struct Scatter(Vec<u32>);

impl Scatter {
    fn fill(&mut self, vector: &[(u32, u32)]) {
        for &(feature, entry) in vector {
            self.0[feature as usize] = entry;
        }
    }

    fn clear(&mut self, vector: &[(u32, u32)]) {
        for &(feature, _) in vector {
            self.0[feature as usize] = NONE;
        }
    }

    fn get(&self, feature: u32) -> Option<u32> {
        Some(self.0[feature as usize]).filter(|&entry| entry != NONE)
    }
}

/// Cosine similarity of `item`'s vector with the example's, given as its
/// entries, their scatter and its norm; 0 when either vector is all zeros.
/// `scratch` is all [`NONE`] before and after.
fn cosine(
    (example, example_at, example_norm): (&[(u32, u32)], &Scatter, f64),
    item: &[(u32, u32)],
    scratch: &mut Scatter,
    value: impl Fn(u32) -> f64,
) -> f64 {
    // the shorter vector leads — the example when they are as long — as
    // the sparse form iterated it
    let dot = if example.len() <= item.len() {
        scratch.fill(item);
        let dot = dot(example, scratch, &value);
        scratch.clear(item);
        dot
    } else {
        dot(item, example_at, &value)
    };
    let item_norm = norm(item, &value);
    if example_norm == 0.0 || item_norm == 0.0 {
        return 0.0;
    }
    dot / (example_norm * item_norm)
}

/// Σ `small[f]` · `large[f]` over the features both have (missing features
/// are 0), in `small`'s order, its value multiplied first.
fn dot(small: &[(u32, u32)], large: &Scatter, value: impl Fn(u32) -> f64) -> f64 {
    let products = small
        .iter()
        .filter_map(|&(feature, entry)| Some(value(entry) * value(large.get(feature)?)));
    products.sum::<f64>()
}

/// Euclidean norm of a sparse vector; `value` reads an entry's value.
fn norm(vector: &[(u32, u32)], value: impl Fn(u32) -> f64) -> f64 {
    let squares = vector.iter().map(|&(_, entry)| value(entry) * value(entry));
    squares.sum::<f64>().sqrt()
}

/// With no context dimensions every vector is one-dimensional and cosine
/// degenerates to ±1; closeness of the measure values is used instead
/// ("the k countries most similar … based on the values of the measure at
/// the current aggregation level").
fn scalar_similarity(a: &[(u32, u32)], b: &[(u32, u32)], value: impl Fn(u32) -> f64) -> f64 {
    let x = a.first().map_or(0.0, |&(_, entry)| value(entry));
    let y = b.first().map_or(0.0, |&(_, entry)| value(entry));
    -(x - y).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_model::{ExampleBinding, GroupColumn};
    use re2x_sparql::{AggFunc, Query, Value};

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

    /// Two sparse vectors given as `(feature, value)` pairs, laid out the
    /// way [`Profiles`] lays them out: `a` is the example.
    fn pair_score(
        a: &[(u32, f64)],
        b: &[(u32, f64)],
        score: impl Fn(&[(u32, u32)], &[(u32, u32)], &dyn Fn(u32) -> f64) -> f64,
    ) -> f64 {
        let sums: Vec<f64> = a.iter().chain(b).map(|&(_, v)| v).collect();
        let entries = |vector: &[(u32, f64)], first: usize| -> Vec<(u32, u32)> {
            let ids = first as u32..;
            vector.iter().zip(ids).map(|(&(f, _), e)| (f, e)).collect()
        };
        let (va, vb) = (entries(a, 0), entries(b, a.len()));
        score(&va, &vb, &|entry| sums[entry as usize])
    }

    fn scalar(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
        pair_score(a, b, |a, b, value| scalar_similarity(a, b, value))
    }

    fn sparse_cosine(a: &[(u32, f64)], b: &[(u32, f64)]) -> f64 {
        pair_score(a, b, |a, b, value| {
            let mut a_at = Scatter(vec![NONE; 4]);
            a_at.fill(a);
            let mut scratch = Scatter(vec![NONE; 4]);
            cosine((a, &a_at, norm(a, value)), b, &mut scratch, value)
        })
    }

    #[test]
    fn one_dimensional_fallback_prefers_closest_values() {
        let (five, six, fifty) = ([(0, 5.0)], [(0, 6.0)], [(0, 50.0)]);
        assert!(scalar(&five, &six) > scalar(&five, &fifty));
        assert_eq!(scalar(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_properties() {
        let a = [(0, 1.0), (1, 2.0)];
        let proportional = [(0, 2.0), (1, 4.0)];
        assert!((sparse_cosine(&a, &proportional) - 1.0).abs() < 1e-12);
        let orthogonal_a = [(0, 1.0)];
        let orthogonal_b = [(1, 1.0)];
        assert!(sparse_cosine(&orthogonal_a, &orthogonal_b).abs() < 1e-12);
        let zero = [(0, 0.0), (1, 0.0)];
        let ones = [(0, 1.0), (1, 1.0)];
        assert_eq!(sparse_cosine(&zero, &ones), 0.0);
        // sparse == dense semantics: missing keys are zeros, either way round
        let partial = [(0, 3.0)];
        let full = [(0, 3.0), (1, 4.0)];
        let expected = 9.0 / (3.0 * 5.0);
        assert!((sparse_cosine(&partial, &full) - expected).abs() < 1e-12);
        assert!((sparse_cosine(&full, &partial) - expected).abs() < 1e-12);
    }
}
