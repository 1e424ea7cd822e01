//! Example-driven Subset refinements (Problem 2b, Section 6.2): Top-k and
//! percentile-based dicing on aggregated measure values.
//!
//! Both operate on the *results* of the current query (they are offered
//! after the user has seen them) and emit refined queries whose `HAVING`
//! clause reproduces the chosen threshold, so the refinement is a plain
//! SPARQL query the user can keep, re-run, or refine further.

use crate::query_model::{measure_value_var, MeasureColumn, OlapQuery, StepView};
use crate::refine::{Refinement, RefinementKind};
use re2x_cube::VirtualSchemaGraph;
use re2x_rdf::Graph;
use re2x_sparql::{CmpOp, Expr, Order, Solutions};

/// Default percentile boundaries, coarse on top where extremes live.
pub const DEFAULT_PERCENTILES: [u8; 4] = [25, 50, 75, 90];

/// Top-k / bottom-k refinements: for every measure column and both
/// orderings, find the threshold that keeps the example's tuple in the
/// result and cut there (the paper's boundary-walk algorithm).
pub fn topk(
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    solutions: &Solutions,
    graph: &Graph,
) -> Vec<Refinement> {
    let mut out = Vec::new();
    let view = StepView::new(query, solutions, graph);
    if !view.matches.contains(&true) {
        return out;
    }
    for (column, values) in query.measure_columns.iter().zip(&view.measures) {
        let Some(values) = values else {
            continue;
        };
        // rows ordered by the measure, ascending, ties in row order; the
        // descending order is this one reversed
        let mut ascending: Vec<(u64, u32)> = values
            .iter()
            .zip(0..)
            .filter_map(|(v, r)| Some((order_key((*v)?), r)))
            .collect();
        ascending.sort_unstable();
        let n = ascending.len();
        for order in [Order::Desc, Order::Asc] {
            let at = |i: usize| {
                let (key, row) = match order {
                    Order::Desc => ascending[n - 1 - i],
                    Order::Asc => ascending[i],
                };
                (row as usize, from_order_key(key))
            };
            // walk until an example row whose successor is not an example
            // row; the successor's value is the exclusive threshold. The
            // cut additionally needs a *strict* value gap — with a tie at
            // the boundary the strict HAVING comparison would drop the
            // example row itself. An example row that is the last one
            // leaves nothing to cut: the whole set is the top-k already.
            let found = (0..n.saturating_sub(1)).find_map(|i| {
                let ((row, value), (next_row, next_value)) = (at(i), at(i + 1));
                let cut = view.matches[row] && !view.matches[next_row] && next_value != value;
                cut.then_some((i + 1, next_value))
            });
            let Some((k, threshold)) = found else {
                continue;
            };
            out.push(build_topk(schema, query, column, k, order, threshold));
        }
    }
    out
}

fn build_topk(
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    column: &MeasureColumn,
    k: usize,
    order: Order,
    threshold: f64,
) -> Refinement {
    let mut refined = query.clone();
    let cmp = match order {
        Order::Desc => CmpOp::Gt,
        Order::Asc => CmpOp::Lt,
    };
    let condition = Expr::cmp(
        Expr::Agg(
            column.agg,
            Box::new(Expr::var(measure_value_var(column.measure))),
        ),
        cmp,
        Expr::Number(threshold),
    );
    refined.query.having = Some(match refined.query.having.take() {
        Some(existing) => Expr::And(Box::new(existing), Box::new(condition)),
        None => condition,
    });
    let measure_label = &schema.measure(column.measure).label;
    let direction = match order {
        Order::Desc => "top",
        Order::Asc => "bottom",
    };
    let explanation = format!(
        "Keep only the {direction}-{k} results by {}({measure_label})",
        column.agg.keyword()
    );
    refined.description = format!("{} — {explanation}", query.description);
    Refinement {
        query: refined,
        kind: RefinementKind::TopK {
            measure_alias: column.alias.clone(),
            k,
            order,
        },
        explanation,
    }
}

/// Percentile-based refinements: compute percentile boundaries of every
/// measure column and emit one refinement per interval that contains an
/// example-matching tuple.
pub fn percentile(
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    solutions: &Solutions,
    graph: &Graph,
    boundaries: &[u8],
) -> Vec<Refinement> {
    let mut out = Vec::new();
    let view = StepView::new(query, solutions, graph);
    if !view.matches.contains(&true) {
        return out;
    }
    for (column, values) in query.measure_columns.iter().zip(&view.measures) {
        let Some(values) = values else {
            continue;
        };
        let mut keys: Vec<u64> = values.iter().flatten().map(|&v| order_key(v)).collect();
        if keys.is_empty() {
            continue;
        }
        keys.sort_unstable();
        let sorted: Vec<f64> = keys.into_iter().map(from_order_key).collect();
        // interval bounds: [0, b1), [b1, b2), …, [b_last, 100]; the
        // boundaries are caller-supplied, in any order and possibly repeated
        let mut pcts: Vec<u8> = vec![0, 100];
        pcts.extend(boundaries.iter().copied().filter(|&b| b > 0 && b < 100));
        pcts.sort_unstable();
        pcts.dedup();
        let example_values: Vec<f64> = values
            .iter()
            .zip(&view.matches)
            .filter_map(|(&v, &matches)| v.filter(|_| matches))
            .collect();
        for w in pcts.windows(2) {
            let (lo_pct, hi_pct) = (w[0], w[1]);
            let lo = percentile_value(&sorted, lo_pct);
            let hi = percentile_value(&sorted, hi_pct);
            let inclusive_top = hi_pct == 100;
            let inside = |v: f64| v >= lo && if inclusive_top { v <= hi } else { v < hi };
            if !example_values.iter().any(|&v| inside(v)) {
                continue;
            }
            out.push(build_percentile(
                schema, query, column, lo_pct, hi_pct, lo, hi,
            ));
        }
    }
    out
}

/// `x`'s bits, mapped so that their unsigned order is [`f64::total_cmp`]'s.
fn order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`order_key`].
fn from_order_key(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Nearest-rank percentile of a sorted slice.
fn percentile_value(sorted: &[f64], pct: u8) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (f64::from(pct) / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[allow(clippy::too_many_arguments)]
fn build_percentile(
    schema: &VirtualSchemaGraph,
    query: &OlapQuery,
    column: &MeasureColumn,
    lo_pct: u8,
    hi_pct: u8,
    lo: f64,
    hi: f64,
) -> Refinement {
    let mut refined = query.clone();
    let agg = |e| Expr::Agg(column.agg, Box::new(e));
    let var = Expr::var(measure_value_var(column.measure));
    let lower = Expr::cmp(agg(var.clone()), CmpOp::Ge, Expr::Number(lo));
    let upper_op = if hi_pct == 100 { CmpOp::Le } else { CmpOp::Lt };
    let upper = Expr::cmp(agg(var), upper_op, Expr::Number(hi));
    let condition = Expr::And(Box::new(lower), Box::new(upper));
    refined.query.having = Some(match refined.query.having.take() {
        Some(existing) => Expr::And(Box::new(existing), Box::new(condition)),
        None => condition,
    });
    let measure_label = &schema.measure(column.measure).label;
    let explanation = format!(
        "Keep results whose {}({measure_label}) lies between the {lo_pct}th and {hi_pct}th percentile",
        column.agg.keyword()
    );
    refined.description = format!("{} — {explanation}", query.description);
    Refinement {
        query: refined,
        kind: RefinementKind::Percentile {
            measure_alias: column.alias.clone(),
            lower_pct: lo_pct,
            upper_pct: hi_pct,
        },
        explanation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_model::{ExampleBinding, GroupColumn, MeasureColumn};
    use re2x_sparql::{AggFunc, Query, Value};

    /// A fabricated query + result set: 5 destinations with SUMs
    /// 8030 (Germany), 5011, 1220, 120, 45 — like Table 2 of the paper.
    fn fixture() -> (VirtualSchemaGraph, OlapQuery, Solutions, Graph) {
        let mut v = VirtualSchemaGraph::new("http://ex/Obs");
        let dest = v.add_dimension("http://ex/dest", "Country of Destination");
        let m = v.add_measure("http://ex/applicants", "Num Applicants");
        let level = v.add_level(dest, vec!["http://ex/dest".into()], 5, vec![], "Country");
        let mut graph = Graph::new();
        let countries = ["Germany", "France", "Italy", "Austria", "Malta"];
        let sums = [8030.0, 5011.0, 1220.0, 120.0, 45.0];
        let rows = countries
            .iter()
            .zip(sums)
            .map(|(c, s)| {
                let id = graph.intern_iri(format!("http://ex/{c}"));
                vec![Some(Value::Term(id)), Some(Value::Number(s))]
            })
            .collect();
        let solutions = Solutions {
            vars: vec!["dest".into(), "sum_applicants".into()],
            rows,
        };
        let query = OlapQuery {
            query: Query::select_all(vec![]),
            group_columns: vec![GroupColumn {
                var: "dest".into(),
                level,
            }],
            measure_columns: vec![MeasureColumn {
                alias: "sum_applicants".into(),
                measure: m,
                agg: AggFunc::Sum,
            }],
            example: vec![vec![ExampleBinding {
                keyword: "Germany".into(),
                member_iri: "http://ex/Germany".into(),
                label: "Germany".into(),
                level,
            }]],
            description: "Q".into(),
        };
        (v, query, solutions, graph)
    }

    #[test]
    fn topk_desc_cuts_right_below_the_example() {
        let (v, q, sols, g) = fixture();
        let refinements = topk(&v, &q, &sols, &g);
        // Germany is the global top: Desc gives top-1 (> 5011); Asc walks
        // from the bottom — Germany is last, no successor → only Desc.
        assert_eq!(refinements.len(), 1);
        let r = &refinements[0];
        match &r.kind {
            RefinementKind::TopK { k, order, .. } => {
                assert_eq!(*k, 1);
                assert_eq!(*order, Order::Desc);
            }
            other => panic!("unexpected kind {other:?}"),
        }
        let having = r.query.query.having.as_ref().expect("having");
        assert!(
            matches!(having, Expr::Cmp(_, CmpOp::Gt, b) if matches!(**b, Expr::Number(n) if n == 5011.0))
        );
        assert!(r.explanation.contains("top-1"));
        assert!(r.explanation.contains("SUM(Num Applicants)"));
    }

    #[test]
    fn topk_for_mid_ranked_example_produces_both_directions() {
        let (v, mut q, sols, g) = fixture();
        q.example[0][0].member_iri = "http://ex/Italy".into();
        q.example[0][0].label = "Italy".into();
        let refinements = topk(&v, &q, &sols, &g);
        assert_eq!(refinements.len(), 2);
        let ks: Vec<(usize, Order)> = refinements
            .iter()
            .map(|r| match &r.kind {
                RefinementKind::TopK { k, order, .. } => (*k, *order),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        // Italy is 3rd from the top and 3rd from the bottom
        assert!(ks.contains(&(3, Order::Desc)));
        assert!(ks.contains(&(3, Order::Asc)));
    }

    #[test]
    fn topk_without_example_match_offers_nothing() {
        let (v, mut q, sols, g) = fixture();
        q.example[0][0].member_iri = "http://ex/Nowhere".into();
        assert!(topk(&v, &q, &sols, &g).is_empty());
    }

    #[test]
    fn percentile_intervals_containing_example() {
        let (v, q, sols, g) = fixture();
        let refinements = percentile(&v, &q, &sols, &g, &DEFAULT_PERCENTILES);
        // Germany (8030) sits only in the [90,100] interval.
        assert_eq!(refinements.len(), 1);
        match &refinements[0].kind {
            RefinementKind::Percentile {
                lower_pct,
                upper_pct,
                ..
            } => {
                assert_eq!(*lower_pct, 90);
                assert_eq!(*upper_pct, 100);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(refinements[0]
            .explanation
            .contains("90th and 100th percentile"));
    }

    #[test]
    fn percentile_boundaries_are_sorted_and_deduplicated() {
        let (v, mut q, sols, g) = fixture();
        // every row matches, so every non-empty interval is offered
        q.example.clear();
        let tidy = percentile(&v, &q, &sols, &g, &[25, 75]);
        let messy = percentile(&v, &q, &sols, &g, &[75, 25, 25]);
        assert_eq!(messy, tidy);
        let intervals: Vec<(u8, u8)> = messy
            .iter()
            .map(|r| match &r.kind {
                RefinementKind::Percentile {
                    lower_pct,
                    upper_pct,
                    ..
                } => (*lower_pct, *upper_pct),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(intervals, vec![(0, 25), (25, 75), (75, 100)]);
    }

    #[test]
    fn order_keys_sort_like_total_cmp_and_round_trip() {
        let mut values = vec![
            1.5,
            -0.0,
            0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -2.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e300,
        ];
        for &v in &values {
            assert_eq!(from_order_key(order_key(v)).to_bits(), v.to_bits());
        }
        let mut by_key = values.clone();
        by_key.sort_unstable_by_key(|&v| order_key(v));
        values.sort_by(f64::total_cmp);
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_key), bits(&values));
    }

    #[test]
    fn percentile_value_nearest_rank() {
        let values = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile_value(&values, 0), 1.0);
        assert_eq!(percentile_value(&values, 50), 3.0);
        assert_eq!(percentile_value(&values, 100), 5.0);
        assert!(percentile_value(&[], 50).is_nan());
    }

    #[test]
    fn having_composes_with_existing_conditions() {
        let (v, q, sols, g) = fixture();
        let first = topk(&v, &q, &sols, &g).remove(0);
        // apply topk again on the refined query: existing HAVING is kept
        let second = topk(&v, &first.query, &sols, &g).remove(0);
        let having = second.query.query.having.as_ref().expect("having");
        assert!(matches!(having, Expr::And(..)));
    }
}
