//! The annotated OLAP query that flows through synthesis and refinement.
//!
//! A plain SPARQL [`Query`] is not enough for the interactive loop: the
//! refinement operators need to know which projected column belongs to
//! which hierarchy level, which columns are aggregated measures, and which
//! members the user's example was mapped to. [`OlapQuery`] carries that
//! metadata alongside the executable query.

use re2x_cube::{LevelId, MeasureId, VirtualSchemaGraph};
use re2x_rdf::{Graph, TermId};
use re2x_sparql::{query_to_sparql, AggFunc, Query, Solutions, Value};

/// A projected grouping column bound to a hierarchy level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupColumn {
    /// The SPARQL variable (and output column) name.
    pub var: String,
    /// The level whose members this column ranges over.
    pub level: LevelId,
}

/// A projected aggregate column over a measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureColumn {
    /// The output column name.
    pub alias: String,
    /// The aggregated measure.
    pub measure: MeasureId,
    /// The aggregation function.
    pub agg: AggFunc,
}

/// One component of the user example resolved to a dimension member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExampleBinding {
    /// The literal the user typed (e.g. `"Germany"`).
    pub keyword: String,
    /// The IRI of the matched dimension member.
    pub member_iri: String,
    /// Human-readable label of the member.
    pub label: String,
    /// The level the member was matched at.
    pub level: LevelId,
}

/// An analytical query annotated with its multidimensional interpretation.
#[derive(Debug, Clone, PartialEq)]
pub struct OlapQuery {
    /// The executable SPARQL query.
    pub query: Query,
    /// Grouping columns, in projection order.
    pub group_columns: Vec<GroupColumn>,
    /// Aggregate columns, in projection order.
    pub measure_columns: Vec<MeasureColumn>,
    /// The example this query was synthesized from: one inner vector per
    /// example tuple, with one binding per tuple component.
    pub example: Vec<Vec<ExampleBinding>>,
    /// Natural-language description presented to the user.
    pub description: String,
}

impl OlapQuery {
    /// The query as SPARQL text.
    pub fn sparql(&self) -> String {
        query_to_sparql(&self.query)
    }

    /// The grouping column bound to `level`, if any.
    pub fn column_for_level(&self, level: LevelId) -> Option<&GroupColumn> {
        self.group_columns.iter().find(|c| c.level == level)
    }

    /// `true` if `level` already appears as a grouping column.
    pub fn groups_level(&self, level: LevelId) -> bool {
        self.column_for_level(level).is_some()
    }

    /// All example bindings across tuples, flattened.
    pub fn bindings(&self) -> impl Iterator<Item = &ExampleBinding> {
        self.example.iter().flatten()
    }

    /// The example projected onto the current grouping columns: one
    /// constraint set per example tuple, each a list of
    /// `(column index, member IRI)` pairs that must all hold for a result
    /// row to match that tuple. Bindings whose level is not projected are
    /// skipped; tuples with no projected binding impose no constraint and
    /// are dropped.
    pub fn example_constraints(&self, solutions: &Solutions) -> Vec<Vec<(usize, String)>> {
        let mut out = Vec::new();
        for tuple in &self.example {
            let mut constraints = Vec::new();
            for binding in tuple {
                let Some(col) = self.column_for_level(binding.level) else {
                    continue;
                };
                let Some(idx) = solutions.column(&col.var) else {
                    continue;
                };
                constraints.push((idx, binding.member_iri.clone()));
            }
            if !constraints.is_empty() {
                out.push(constraints);
            }
        }
        out
    }

    /// `true` if `row` of `solutions` matches the user example: for some
    /// constraint tuple, every constrained column holds the example member.
    pub fn row_matches_example(&self, solutions: &Solutions, row: usize, graph: &Graph) -> bool {
        let row = solutions.rows.get(row).map_or(&[][..], Vec::as_slice);
        self.resolve_example(solutions, graph).matches(row)
    }

    /// Indexes of the rows matching the example.
    pub fn matching_rows(&self, solutions: &Solutions, graph: &Graph) -> Vec<usize> {
        let example = self.resolve_example(solutions, graph);
        (0..solutions.len())
            .filter(|&r| example.matches(&solutions.rows[r]))
            .collect()
    }

    /// [`example_constraints`](Self::example_constraints) with every member
    /// IRI resolved to its term id, once per call, so rows are matched by
    /// comparing ids.
    fn resolve_example(&self, solutions: &Solutions, graph: &Graph) -> ResolvedExample {
        let constraint_sets = self.example_constraints(solutions);
        ResolvedExample {
            constrained: !constraint_sets.is_empty(),
            // a member absent from the graph is in no row: its tuple matches
            // nothing, and drops out
            tuples: constraint_sets
                .into_iter()
                .filter_map(|constraints| {
                    constraints
                        .into_iter()
                        .map(|(col, iri)| Some((col, graph.iri_id(&iri)?)))
                        .collect()
                })
                .collect(),
        }
    }

    /// Human-readable display of a grouping column.
    pub fn level_display(schema: &VirtualSchemaGraph, level: LevelId) -> String {
        let node = schema.level(level);
        let dim = schema.dimension(node.dimension);
        if node.depth() == 1 {
            dim.label.clone()
        } else {
            format!("{} / {}", dim.label, node.label)
        }
    }
}

/// The example resolved against one result's columns.
struct ResolvedExample {
    /// `false` when no example column survives in the result: the example
    /// then imposes no restriction (paper: refinements must keep *some*
    /// tuple about the example; with no shared column every row relates to
    /// it).
    constrained: bool,
    /// Per satisfiable example tuple, the `(column, member id)` pairs that
    /// must all hold.
    tuples: Vec<Vec<(usize, TermId)>>,
}

impl ResolvedExample {
    fn matches(&self, row: &[Option<Value>]) -> bool {
        !self.constrained
            || self.tuples.iter().any(|constraints| {
                constraints.iter().all(
                    |&(col, id)| matches!(row.get(col), Some(Some(Value::Term(t))) if *t == id),
                )
            })
    }
}

/// A step's rows read once into dense arrays at id / `f64` level: what the
/// Top-k, Percentile and Similarity kernels read instead of re-keying
/// `Solutions` rows.
pub(crate) struct StepView {
    /// Per measure column of the query, in order: every row's value (`None`
    /// when unbound or not numeric); `None` for a column the result lacks.
    pub measures: Vec<Option<Vec<Option<f64>>>>,
    /// Per row: does it match the example ([`OlapQuery::matching_rows`])?
    pub matches: Vec<bool>,
    /// The grouping cells; `None` when a grouping column is missing from the
    /// result.
    pub groups: Option<GroupCells>,
}

/// Grouping cells, row-major, `width` per row: first the *example
/// dimensions'* (grouping columns whose level an example binding names), then
/// the *context dimensions'*, each in grouping-column order. A cell is `None`
/// unless it holds a term.
pub(crate) struct GroupCells {
    pub cells: Vec<Option<TermId>>,
    pub width: usize,
    /// Leading example-dimension cells per row.
    pub example_width: usize,
    /// The example's member per example dimension (the first binding at its
    /// level); `None` when one of them is absent from the graph.
    pub example_key: Option<Vec<Option<TermId>>>,
}

impl StepView {
    /// Reads the rows in one pass.
    pub(crate) fn new(query: &OlapQuery, solutions: &Solutions, graph: &Graph) -> Self {
        let rows = solutions.len();
        let measure_cols: Vec<Option<usize>> = query
            .measure_columns
            .iter()
            .map(|column| solutions.column(&column.alias))
            .collect();
        let mut measures: Vec<Option<Vec<Option<f64>>>> = measure_cols
            .iter()
            .map(|col| col.map(|_| Vec::with_capacity(rows)))
            .collect();
        let example = query.resolve_example(solutions, graph);
        let mut matches = Vec::with_capacity(rows);
        let mut groups = GroupCells::layout(query, solutions, graph);
        for row in &solutions.rows {
            for (values, col) in measures.iter_mut().zip(&measure_cols) {
                if let (Some(values), Some(col)) = (values, col) {
                    let cell = row.get(*col).and_then(Option::as_ref);
                    values.push(cell.and_then(|v| v.as_number(graph)));
                }
            }
            matches.push(example.matches(row));
            if let Some((groups, order)) = &mut groups {
                groups
                    .cells
                    .extend(order.iter().map(|&col| match row.get(col) {
                        Some(Some(Value::Term(id))) => Some(*id),
                        _ => None,
                    }));
            }
        }
        StepView {
            measures,
            matches,
            groups: groups.map(|(groups, _)| groups),
        }
    }
}

impl GroupCells {
    /// The cells' layout, with no cells yet, and the result column of each
    /// cell in a row.
    fn layout(
        query: &OlapQuery,
        solutions: &Solutions,
        graph: &Graph,
    ) -> Option<(Self, Vec<usize>)> {
        let mut order = Vec::with_capacity(query.group_columns.len());
        let mut context = Vec::new();
        let mut example_key = Some(Vec::new());
        for gc in &query.group_columns {
            let col = solutions.column(&gc.var)?;
            match query.bindings().find(|b| b.level == gc.level) {
                Some(binding) => {
                    order.push(col);
                    let id = graph.iri_id(&binding.member_iri);
                    if let (Some(key), Some(id)) = (&mut example_key, id) {
                        key.push(Some(id));
                    } else {
                        example_key = None;
                    }
                }
                None => context.push(col),
            }
        }
        let example_width = order.len();
        order.extend(context);
        let groups = GroupCells {
            cells: Vec::with_capacity(solutions.len() * order.len()),
            width: order.len(),
            example_width,
            example_key,
        };
        Some((groups, order))
    }
}

/// Derives a SPARQL variable name for a level from its path local names:
/// `[origin, inContinent]` → `origin_in_continent`. Paths are unique per
/// schema, so names are too.
pub fn level_var_name(schema: &VirtualSchemaGraph, level: LevelId) -> String {
    let node = schema.level(level);
    node.path
        .iter()
        .map(|p| snake(re2x_cube::labels::local_name(p)))
        .collect::<Vec<_>>()
        .join("_")
}

/// Column alias for an aggregate over a measure: `sum_applicants`.
pub fn measure_alias(schema: &VirtualSchemaGraph, measure: MeasureId, agg: AggFunc) -> String {
    let pred = &schema.measure(measure).predicate;
    format!(
        "{}_{}",
        agg.keyword().to_ascii_lowercase(),
        snake(re2x_cube::labels::local_name(pred))
    )
}

/// The WHERE-clause variable holding raw values of a measure (`?m0`,
/// `?m1`, …), as emitted by `GetQuery` and referenced by `HAVING`
/// refinements.
pub fn measure_value_var(measure: MeasureId) -> String {
    format!("m{}", measure.index())
}

/// Lowercase ASCII snake-case of an identifier-ish string.
pub fn snake(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut prev_lower = false;
    for c in name.chars() {
        if c.is_alphanumeric() {
            if c.is_uppercase() && prev_lower {
                out.push('_');
            }
            prev_lower = c.is_lowercase() || c.is_ascii_digit();
            out.extend(c.to_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
            prev_lower = false;
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_case_conversion() {
        assert_eq!(snake("inContinent"), "in_continent");
        assert_eq!(snake("Country_Origin"), "country_origin");
        assert_eq!(snake("refPeriod"), "ref_period");
        assert_eq!(snake("has label "), "has_label");
        assert_eq!(snake("AGE"), "age");
    }

    fn schema() -> (VirtualSchemaGraph, LevelId, LevelId, MeasureId) {
        let mut v = VirtualSchemaGraph::new("http://ex/Obs");
        let origin = v.add_dimension("http://ex/origin", "Country of Origin");
        let m = v.add_measure("http://ex/numApplicants", "Num Applicants");
        let country = v.add_level(
            origin,
            vec!["http://ex/origin".into()],
            5,
            vec![],
            "Country",
        );
        let continent = v.add_level(
            origin,
            vec!["http://ex/origin".into(), "http://ex/inContinent".into()],
            2,
            vec![],
            "Continent",
        );
        (v, country, continent, m)
    }

    #[test]
    fn var_and_alias_naming() {
        let (v, country, continent, m) = schema();
        assert_eq!(level_var_name(&v, country), "origin");
        assert_eq!(level_var_name(&v, continent), "origin_in_continent");
        assert_eq!(measure_alias(&v, m, AggFunc::Sum), "sum_num_applicants");
        assert_eq!(measure_alias(&v, m, AggFunc::Avg), "avg_num_applicants");
    }

    #[test]
    fn level_display_includes_hierarchy_step() {
        let (v, country, continent, _) = schema();
        assert_eq!(OlapQuery::level_display(&v, country), "Country of Origin");
        assert_eq!(
            OlapQuery::level_display(&v, continent),
            "Country of Origin / Continent"
        );
    }

    #[test]
    fn example_matching_against_solutions() {
        let (v, country, _, _) = schema();
        let mut graph = Graph::new();
        let germany = graph.intern_iri("http://ex/Germany");
        let france = graph.intern_iri("http://ex/France");
        let solutions = Solutions {
            vars: vec!["origin".into(), "sum_num_applicants".into()],
            rows: vec![
                vec![Some(Value::Term(germany)), Some(Value::Number(10.0))],
                vec![Some(Value::Term(france)), Some(Value::Number(5.0))],
            ],
        };
        let q = OlapQuery {
            query: Query::select_all(vec![]),
            group_columns: vec![GroupColumn {
                var: "origin".into(),
                level: country,
            }],
            measure_columns: vec![],
            example: vec![vec![ExampleBinding {
                keyword: "Germany".into(),
                member_iri: "http://ex/Germany".into(),
                label: "Germany".into(),
                level: country,
            }]],
            description: String::new(),
        };
        assert!(q.row_matches_example(&solutions, 0, &graph));
        assert!(!q.row_matches_example(&solutions, 1, &graph));
        assert_eq!(q.matching_rows(&solutions, &graph), vec![0]);
        let _ = v;
    }

    /// The per-row form matching had: every row re-derives the constraints
    /// and compares IRI strings.
    fn matches_by_iri(q: &OlapQuery, solutions: &Solutions, row: usize, graph: &Graph) -> bool {
        let constraint_sets = q.example_constraints(solutions);
        constraint_sets.is_empty()
            || constraint_sets.iter().any(|constraints| {
                constraints.iter().all(|(col, member_iri)| {
                    match solutions.rows[row].get(*col).and_then(Option::as_ref) {
                        Some(Value::Term(id)) => {
                            graph.term(*id).as_iri() == Some(member_iri.as_str())
                        }
                        _ => false,
                    }
                })
            })
    }

    #[test]
    fn matching_by_id_equals_matching_by_iri() {
        let (mut v, country, continent, _) = schema();
        let year_dim = v.add_dimension("http://ex/year", "Year");
        let year = v.add_level(year_dim, vec!["http://ex/year".into()], 2, vec![], "Year");
        let mut graph = Graph::new();
        let [germany, france, europe, y1, y2] = ["Germany", "France", "Europe", "2013", "2014"]
            .map(|m| Some(Value::Term(graph.intern_iri(format!("http://ex/{m}")))));
        let label = Some(Value::Term(
            graph.intern_literal(re2x_rdf::Literal::simple("http://ex/Germany")),
        ));
        let rows = [
            [germany.clone(), y1.clone(), europe.clone()],
            [germany.clone(), y2.clone(), None],
            [france.clone(), y1.clone(), europe.clone()],
            [france, y2.clone(), None],
            [label, y1.clone(), europe],
            [None, y2.clone(), Some(Value::Number(1.0))],
            [germany, Some(Value::Str("http://ex/2014".into())), None],
        ];
        let solutions = Solutions {
            vars: vec!["origin".into(), "year".into(), "origin_in_continent".into()],
            rows: rows.into_iter().map(Vec::from).collect(),
        };
        let binding = |iri: &str, level| ExampleBinding {
            keyword: iri.into(),
            member_iri: format!("http://ex/{iri}"),
            label: iri.into(),
            level,
        };
        let examples = [
            // two tuples, one of them two members wide
            vec![
                vec![binding("Germany", country), binding("2014", year)],
                vec![binding("France", country)],
            ],
            // a member the graph does not hold, alone and beside real ones
            vec![vec![binding("Atlantis", country)]],
            vec![
                vec![binding("Atlantis", country), binding("2013", year)],
                vec![binding("Europe", continent)],
            ],
            // a binding at a level the result does not group by
            vec![
                vec![binding("2014", year)],
                vec![binding("Mars", LevelId(99))],
            ],
            vec![],
        ];
        for example in examples {
            for group_columns in [
                vec![("origin", country), ("year", year)],
                vec![
                    ("origin", country),
                    ("year", year),
                    ("origin_in_continent", continent),
                ],
                vec![("year", year)],
            ] {
                let q = OlapQuery {
                    query: Query::select_all(vec![]),
                    group_columns: group_columns
                        .iter()
                        .map(|&(var, level)| GroupColumn {
                            var: var.into(),
                            level,
                        })
                        .collect(),
                    measure_columns: vec![],
                    example: example.clone(),
                    description: String::new(),
                };
                let expected: Vec<usize> = (0..solutions.len())
                    .filter(|&r| matches_by_iri(&q, &solutions, r, &graph))
                    .collect();
                assert_eq!(q.matching_rows(&solutions, &graph), expected, "{example:?}");
                for r in 0..solutions.len() {
                    assert_eq!(
                        q.row_matches_example(&solutions, r, &graph),
                        expected.contains(&r)
                    );
                }
            }
        }
    }

    #[test]
    fn example_without_projected_column_matches_everything() {
        let (_, country, continent, _) = schema();
        let graph = Graph::new();
        let solutions = Solutions {
            vars: vec!["origin_in_continent".into()],
            rows: vec![vec![None]],
        };
        let q = OlapQuery {
            query: Query::select_all(vec![]),
            group_columns: vec![GroupColumn {
                var: "origin_in_continent".into(),
                level: continent,
            }],
            measure_columns: vec![],
            example: vec![vec![ExampleBinding {
                keyword: "Germany".into(),
                member_iri: "http://ex/Germany".into(),
                label: "Germany".into(),
                level: country,
            }]],
            description: String::new(),
        };
        assert!(q.row_matches_example(&solutions, 0, &graph));
    }
}
