//! REOLAP — reverse engineering SPARQL OLAP queries from example tuples
//! (Algorithm 1 and the `GetQuery` function, Section 5).
//!
//! Given an example tuple of keywords (e.g. `⟨"Germany", "2014"⟩`):
//!
//! 1. each component is resolved to candidate `(member, level)`
//!    interpretations ([`crate::matching`]),
//! 2. all combinations of interpretations are enumerated (completeness),
//! 3. each combination is validated against the triplestore — some
//!    observation must reach *all* the members simultaneously, which
//!    implements the tuple-containment requirement of Problem 1
//!    (correctness),
//! 4. `GetQuery` builds a `SELECT … WHERE … GROUP BY` query that groups at
//!    exactly the matched levels (minimality: the query's dimensions are
//!    the example's dimensions) and aggregates every measure with every
//!    configured aggregation function.

use crate::error::Re2xError;
use crate::matching::{matches, MatchMode, MemberMatch};
use crate::query_model::{
    level_var_name, measure_alias, ExampleBinding, GroupColumn, MeasureColumn, OlapQuery,
};
use re2x_cube::{patterns, LevelId, VirtualSchemaGraph};
use re2x_obs::Tracer;
use re2x_rdf::hash::{FxHashMap, FxHashSet};
use re2x_rdf::{gallop, TermId};
use re2x_sparql::{
    AggFunc, Expr, PatternElement, Query, QueryForm, SelectItem, SparqlEndpoint, TermPattern,
    TriplePattern,
};
use std::ops::Range;
use std::time::{Duration, Instant};

/// Configuration of the synthesis phase.
#[derive(Debug, Clone)]
pub struct ReolapConfig {
    /// Keyword-matching mode.
    pub mode: MatchMode,
    /// Aggregation functions instantiated for every measure. The paper
    /// retrieves "all aggregation functions (max, min, avg, sum) over all
    /// available measures".
    pub aggregates: Vec<AggFunc>,
    /// Validate each interpretation against the endpoint (switchable for
    /// the ablation study).
    pub validate: bool,
    /// Upper bound on the candidate interpretations (member combinations)
    /// enumerated and validated before giving up with
    /// [`Re2xError::TooManyInterpretations`].
    pub max_interpretations: usize,
    /// Tracer receiving per-phase spans under `reolap`: `reolap.match` per
    /// keyword, `reolap.enumerate` once (candidate enumeration),
    /// `reolap.observations` per fetched observation set, `reolap.validate`
    /// per candidate and `reolap.build` once (the valid candidates'
    /// queries). Disabled by default.
    pub tracer: Tracer,
}

impl Default for ReolapConfig {
    fn default() -> Self {
        ReolapConfig {
            mode: MatchMode::Exact,
            aggregates: AggFunc::NUMERIC.to_vec(),
            validate: true,
            max_interpretations: 100_000,
            tracer: Tracer::disabled(),
        }
    }
}

/// Result of a synthesis run, with cost accounting for the experiments.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// The candidate queries, one per valid interpretation.
    pub queries: Vec<OlapQuery>,
    /// Number of candidates enumerated — member combinations, one member
    /// per keyword (per keyword of every tuple, for [`reolap_multi`]),
    /// before deduplication and validation. This is the count
    /// [`ReolapConfig::max_interpretations`] bounds.
    pub interpretations_considered: usize,
    /// Wall-clock synthesis time.
    pub elapsed: Duration,
}

/// The size of a cartesian product of `counts`, saturating at
/// `usize::MAX`: a handful of ambiguous components overflows `usize`, and
/// a wrapped product would slip *under* `max_interpretations`.
fn saturating_product(counts: impl IntoIterator<Item = usize>) -> usize {
    counts.into_iter().fold(1, usize::saturating_mul)
}

/// Advances `indices` as a mixed-radix counter over `sizes` (lowest
/// position first). Returns `false` once every combination was visited.
fn next_combination(indices: &mut [usize], sizes: impl Fn(usize) -> usize) -> bool {
    for (position, index) in indices.iter_mut().enumerate() {
        *index += 1;
        if *index < sizes(position) {
            return true;
        }
        *index = 0;
    }
    false
}

fn owned(bindings: &[&ExampleBinding]) -> Vec<ExampleBinding> {
    bindings.iter().map(|&b| b.clone()).collect()
}

/// Algorithm 1 for a single example tuple.
pub fn reolap(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    example: &[&str],
    config: &ReolapConfig,
) -> Result<SynthesisOutcome, Re2xError> {
    // lint:allow(no-wallclock, match/validate phase timing feeds ExplorationMetrics)
    let start = Instant::now();
    let _root = config.tracer.span("reolap");
    // Lines 2–7: per-component interpretations.
    let mut per_component: Vec<Vec<MemberMatch>> = Vec::with_capacity(example.len());
    for keyword in example {
        let hits = {
            let _match = config
                .tracer
                .span_with("reolap.match", &[("keyword", *keyword)]);
            matches(endpoint, schema, keyword, config.mode)?
        };
        if hits.is_empty() {
            return Err(Re2xError::NoMatch {
                keyword: (*keyword).to_owned(),
            });
        }
        per_component.push(hits);
    }
    let combinations = saturating_product(per_component.iter().map(Vec::len));
    if combinations > config.max_interpretations {
        return Err(Re2xError::TooManyInterpretations {
            combinations,
            bound: config.max_interpretations,
        });
    }

    // Lines 8–11: combine interpretations (deduplicating by member set,
    // first occurrence wins), then validate and build queries. Enumeration
    // is pure CPU — no endpoint traffic — so it runs to completion first;
    // validation, the only query-issuing step, then sees the full candidate
    // list and can share work across it (see [`validate_candidates`]).
    let enumerate = config.tracer.span("reolap.enumerate");
    let mut candidates: Vec<Vec<&ExampleBinding>> = Vec::new();
    let mut seen: FxHashSet<Vec<(LevelId, &str)>> = FxHashSet::default();
    let mut indices = vec![0usize; per_component.len()];
    loop {
        let bindings: Vec<&ExampleBinding> = indices
            .iter()
            .zip(&per_component)
            .map(|(&i, hits)| &hits[i].binding)
            .collect();
        let mut key: Vec<(LevelId, &str)> = bindings
            .iter()
            .map(|b| (b.level, b.member_iri.as_str()))
            .collect();
        key.sort_unstable();
        key.dedup();
        if seen.insert(key) {
            candidates.push(bindings);
        }
        if !next_combination(&mut indices, |c| per_component[c].len()) {
            break;
        }
    }
    drop(enumerate);

    let verdicts = validate_candidates(endpoint, schema, &candidates, config)?;
    let _build = config.tracer.span("reolap.build");
    let mut parts = None;
    let queries: Vec<OlapQuery> = candidates
        .iter()
        .zip(&verdicts)
        .filter(|&(_, &valid)| valid)
        .map(|(bindings, _)| {
            let parts = parts.get_or_insert_with(|| QueryParts::new(schema, &config.aggregates));
            parts.build(vec![owned(bindings)])
        })
        .collect();
    Ok(SynthesisOutcome {
        queries,
        interpretations_considered: combinations,
        elapsed: start.elapsed(),
    })
}

/// Most rows fetched per interpretation by the set path of
/// [`validate_candidates`] — rows, not distinct observations. On the
/// `synth_ambiguous` store (dbpedia-16000, 450k triples) a set that fits
/// takes 3–4 µs at the median and ≈ 0.14 ms at its largest (3 822 rows),
/// and a fetch stopped at the cap ≈ 0.2 ms (release, 2-core Xeon VM). A
/// set that comes back larger is *unknown*, not truncated-and-used.
const OBSERVATION_SET_CAP: usize = 4096;

/// Validates each candidate — does some observation reach all its members
/// simultaneously? — returning one verdict per candidate in order. The one
/// validation routine of [`reolap`] and [`reolap_multi`].
///
/// Candidates are combinations of a few `(level, member)` interpretations,
/// so an ambiguous tuple yields many more candidates than interpretations
/// (|H₁|·|H₂| against |H₁|+|H₂|). Whenever that is the case — a property
/// of the input, not a setting — each distinct interpretation's
/// observation ids are fetched *once*, sorted, and a candidate is decided
/// by intersecting its interpretations' id lists: the level paths are
/// walked once per interpretation instead of once per combination. With no
/// more candidates than interpretations (every unambiguous tuple) the
/// per-candidate [`validate_interpretation`] `ASK` issues fewer queries and
/// is kept. Fetches are capped at [`OBSERVATION_SET_CAP`] rows; a set that
/// exceeds the cap is unknown and every candidate touching it falls back to
/// its `ASK`, so verdicts are identical on either path.
pub fn validate_candidates(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    candidates: &[Vec<&ExampleBinding>],
    config: &ReolapConfig,
) -> Result<Vec<bool>, Re2xError> {
    if !config.validate {
        return Ok(vec![true; candidates.len()]);
    }
    let tracer = &config.tracer;

    // distinct interpretations in first-seen order; per candidate, the
    // slots of its bindings
    let mut interpretations: Vec<&ExampleBinding> = Vec::new();
    let mut slot_of: FxHashMap<(LevelId, &str), usize> = FxHashMap::default();
    let slots: Vec<Vec<usize>> = candidates
        .iter()
        .map(|bindings| {
            bindings
                .iter()
                .map(|&binding| {
                    *slot_of
                        .entry((binding.level, binding.member_iri.as_str()))
                        .or_insert_with(|| {
                            interpretations.push(binding);
                            interpretations.len() - 1
                        })
                })
                .collect()
        })
        .collect();

    // `None` marks an unknown set: over the cap, or never fetched because
    // the per-candidate walk is the cheaper plan for this input
    let mut sets: Vec<Option<Vec<TermId>>> = vec![None; interpretations.len()];
    if candidates.len() > interpretations.len() {
        for (set, &binding) in sets.iter_mut().zip(&interpretations) {
            *set = observation_set(endpoint, schema, binding, tracer)?;
        }
    }

    candidates
        .iter()
        .zip(&slots)
        .map(|(bindings, slots)| {
            let lists: Option<Vec<&[TermId]>> =
                slots.iter().map(|&slot| sets[slot].as_deref()).collect();
            match lists {
                // a binding-free candidate has no set to decide it
                Some(mut lists) if !lists.is_empty() => {
                    let _validate = tracer.span_with("reolap.validate", &[("via", "sets")]);
                    Ok(intersects(&mut lists))
                }
                _ => {
                    let _validate = tracer.span_with("reolap.validate", &[("via", "ask")]);
                    tracer.counter_add("reolap.validation.asks", 1);
                    let ask = validation_query_over(schema, bindings.iter().copied());
                    Ok(endpoint.ask(&ask)?)
                }
            }
        })
        .collect()
}

/// Fetches the sorted, distinct ids of the observations reaching
/// `binding`'s member over its level path — the single-binding
/// [`validation_query`] as a `SELECT ?o`. `None` when more than
/// [`OBSERVATION_SET_CAP`] rows come back (or a row is not a term).
///
/// No `DISTINCT`: an M-to-N path reaches a member several times per
/// observation, and the ids of a plain join are deduplicated here. Over
/// the set fetches of `synth_ambiguous`, a `SELECT DISTINCT ?o` (a set
/// query) costs 1.7–2.0× this fetch read through
/// [`SparqlEndpoint::select_ids`] and deduplicated here. Ids are only ever
/// compared with each other, so any endpoint stack answering from one id
/// space (local, cached, sharded replica) yields the same verdicts.
fn observation_set(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    binding: &ExampleBinding,
    tracer: &Tracer,
) -> Result<Option<Vec<TermId>>, Re2xError> {
    let mut query = validation_query_over(schema, [binding]);
    query.form = QueryForm::Select;
    query.select = vec![SelectItem::Var("o".to_owned())];
    query.limit = Some(OBSERVATION_SET_CAP + 1);

    let mut fetch = if tracer.is_enabled() {
        tracer.span_with(
            "reolap.observations",
            &[
                ("level", &schema.level(binding.level).path.join("/")),
                ("member", &binding.member_iri),
            ],
        )
    } else {
        tracer.span("reolap.observations")
    };
    // one id per row: the cap counts rows, not distinct observations
    let ids = endpoint.select_ids(&query)?;
    let rows = ids.as_ref().map_or(0, Vec::len);
    let truncated = rows > OBSERVATION_SET_CAP;
    fetch.record("rows", rows);
    fetch.record("truncated", truncated);
    tracer.counter_add("reolap.validation.sets", 1);
    if truncated {
        tracer.counter_add("reolap.validation.sets_truncated", 1);
        return Ok(None);
    }
    Ok(ids.map(|mut ids| {
        ids.sort_unstable();
        ids.dedup();
        ids
    }))
}

/// `true` if the sorted, duplicate-free id lists share an element: walks
/// the smallest list and gallops the others forward, stopping at the first
/// common id or as soon as any list is exhausted.
fn intersects(lists: &mut [&[TermId]]) -> bool {
    lists.sort_by_key(|list| list.len());
    let Some((smallest, rest)) = lists.split_first_mut() else {
        return false;
    };
    'ids: for id in smallest.iter() {
        for list in rest.iter_mut() {
            *list = &list[gallop(list, *id)..];
            match list.first() {
                None => return false,
                Some(other) if other != id => continue 'ids,
                Some(_) => {}
            }
        }
        return true;
    }
    false
}

/// Algorithm 1 generalized to multiple example tuples (footnote 3 of the
/// paper): every tuple must be explained by the same per-position level,
/// and every tuple must be validated — by some combination of its members
/// at those levels.
pub fn reolap_multi(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    examples: &[Vec<String>],
    config: &ReolapConfig,
) -> Result<SynthesisOutcome, Re2xError> {
    // lint:allow(no-wallclock, match/validate phase timing feeds ExplorationMetrics)
    let start = Instant::now();
    let _root = config.tracer.span("reolap");
    let Some(first) = examples.first() else {
        return Ok(SynthesisOutcome {
            queries: Vec::new(),
            interpretations_considered: 0,
            elapsed: start.elapsed(),
        });
    };
    if examples.iter().any(|t| t.len() != first.len()) {
        return Err(Re2xError::MixedArity);
    }
    let arity = first.len();

    // matches[tuple][position] — all interpretations of each component
    let mut all: Vec<Vec<Vec<MemberMatch>>> = Vec::with_capacity(examples.len());
    for tuple in examples {
        let mut row = Vec::with_capacity(arity);
        for keyword in tuple {
            let hits = {
                let _match = config
                    .tracer
                    .span_with("reolap.match", &[("keyword", keyword.as_str())]);
                matches(endpoint, schema, keyword, config.mode)?
            };
            if hits.is_empty() {
                return Err(Re2xError::NoMatch {
                    keyword: keyword.clone(),
                });
            }
            row.push(hits);
        }
        all.push(row);
    }

    // per-position levels consistent across every tuple
    let enumerate = config.tracer.span("reolap.enumerate");
    let mut position_levels: Vec<Vec<LevelId>> = Vec::with_capacity(arity);
    for position in 0..arity {
        let mut levels: Vec<LevelId> = all[0][position].iter().map(|m| m.binding.level).collect();
        levels.sort();
        levels.dedup();
        for row in &all[1..] {
            levels.retain(|l| row[position].iter().any(|m| m.binding.level == *l));
        }
        position_levels.push(levels);
    }
    let combinations = saturating_product(position_levels.iter().map(Vec::len));
    if combinations == 0 {
        return Ok(SynthesisOutcome {
            queries: Vec::new(),
            interpretations_considered: 0,
            elapsed: start.elapsed(),
        });
    }
    // The bound caps the candidates enumerated and validated, as in
    // `reolap`. A tuple's candidates over all combos are the product, per
    // position, of its hits at that position's levels (a sum of products
    // over a cartesian product factorizes).
    let candidate_count = all
        .iter()
        .map(|row| {
            saturating_product(row.iter().zip(&position_levels).map(|(hits, levels)| {
                let at_levels = hits.iter().filter(|m| levels.contains(&m.binding.level));
                at_levels.count()
            }))
        })
        .fold(0, usize::saturating_add);
    if candidate_count > config.max_interpretations {
        return Err(Re2xError::TooManyInterpretations {
            combinations: candidate_count,
            bound: config.max_interpretations,
        });
    }

    // Enumerate every combo's candidates first (pure CPU): per tuple, every
    // combination of its hits at the combo's levels — a keyword naming two
    // members of one level is explained by either. One flat candidate
    // list; `spans` holds each (combo, tuple)'s range of it, combo-major.
    let mut candidates: Vec<Vec<&ExampleBinding>> = Vec::new();
    let mut spans: Vec<Range<usize>> = Vec::new();
    let mut indices = vec![0usize; arity];
    loop {
        for row in &all {
            // the levels were intersected across tuples, so every tuple has
            // a hit at every chosen level and no list is empty
            let at_level: Vec<Vec<&ExampleBinding>> = row
                .iter()
                .zip(indices.iter().zip(&position_levels))
                .map(|(hits, (&i, levels))| {
                    let bindings = hits.iter().map(|m| &m.binding);
                    bindings.filter(|b| b.level == levels[i]).collect()
                })
                .collect();
            let start = candidates.len();
            let mut members = vec![0usize; arity];
            loop {
                candidates.push(at_level.iter().zip(&members).map(|(b, &j)| b[j]).collect());
                if !next_combination(&mut members, |p| at_level[p].len()) {
                    break;
                }
            }
            spans.push(start..candidates.len());
        }
        if !next_combination(&mut indices, |p| position_levels[p].len()) {
            break;
        }
    }
    drop(enumerate);

    // A tuple holds at a combo iff one of its candidates validates
    // (footnote 3); a combo is valid iff all its tuples hold, and its query
    // carries each tuple's first valid candidate.
    let verdicts = validate_candidates(endpoint, schema, &candidates, config)?;
    let _build = config.tracer.span("reolap.build");
    let mut parts = None;
    let queries = spans
        .chunks(examples.len())
        .filter_map(|combo| {
            let tuples: Option<Vec<Vec<ExampleBinding>>> = combo
                .iter()
                .map(|span| {
                    let valid = span.clone().find(|&c| verdicts[c]);
                    valid.map(|c| owned(&candidates[c]))
                })
                .collect();
            tuples.map(|tuples| {
                let parts =
                    parts.get_or_insert_with(|| QueryParts::new(schema, &config.aggregates));
                parts.build(tuples)
            })
        })
        .collect();
    Ok(SynthesisOutcome {
        queries,
        interpretations_considered: candidate_count,
        elapsed: start.elapsed(),
    })
}

/// The containment/validity `ASK` for one interpretation: does some
/// observation reach all members simultaneously? (Section 5.3.)
pub fn validation_query(schema: &VirtualSchemaGraph, bindings: &[ExampleBinding]) -> Query {
    validation_query_over(schema, bindings)
}

fn validation_query_over<'a>(
    schema: &VirtualSchemaGraph,
    bindings: impl IntoIterator<Item = &'a ExampleBinding>,
) -> Query {
    let mut wher = vec![patterns::observation_type("o", &schema.observation_class)];
    for binding in bindings {
        wher.push(patterns::path_to_concrete_member(
            "o",
            &schema.level(binding.level).path,
            &binding.member_iri,
        ));
    }
    Query::ask(wher)
}

/// Issues [`validation_query`] for the interpretation against the endpoint.
pub fn validate_interpretation(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    bindings: &[ExampleBinding],
) -> Result<bool, Re2xError> {
    Ok(endpoint.ask(&validation_query(schema, bindings))?)
}

/// The `GetQuery` function: builds the annotated OLAP query for an
/// interpretation.
///
/// Dimensions not mentioned by the example do not appear (minimality);
/// grouping happens at exactly the matched levels; every measure is
/// aggregated with every function in `aggregates`.
pub fn get_query(
    schema: &VirtualSchemaGraph,
    bindings: &[ExampleBinding],
    aggregates: &[AggFunc],
) -> OlapQuery {
    QueryParts::new(schema, aggregates).build(vec![bindings.to_vec()])
}

/// [`get_query`] for multiple example tuples: one query whose grouping
/// levels cover every tuple's bindings, with per-tuple example metadata.
pub fn get_query_tuples(
    schema: &VirtualSchemaGraph,
    tuples: &[Vec<ExampleBinding>],
    aggregates: &[AggFunc],
) -> OlapQuery {
    QueryParts::new(schema, aggregates).build(tuples.to_vec())
}

/// The parts of `GetQuery`'s output that do not depend on the candidate,
/// made once per synthesis: a candidate is assembled by cloning them, so
/// only its group-by list, the "matching …" tail of its description and
/// its example are written per candidate. The description is templated
/// from the schema annotations (Section 5.1, "Presenting Query
/// Interpretations").
struct QueryParts<'a> {
    schema: &'a VirtualSchemaGraph,
    /// `?o a <observation class>`.
    observation: PatternElement,
    /// `?o <measure> ?m<i>` per measure.
    measure_arms: Vec<PatternElement>,
    /// Every measure aggregated with every function, in projection order.
    aggregate_items: Vec<SelectItem>,
    measure_columns: Vec<MeasureColumn>,
    /// `Return MAX(…), … and SUM(…) grouped by `.
    returns: String,
    /// Per level, by [`LevelId::index`]: filled the first time a candidate
    /// groups by it.
    levels: Vec<Option<LevelParts>>,
}

/// One level's grouping parts.
struct LevelParts {
    var: String,
    /// `?o <p1>/<p2>/… ?var`.
    arm: PatternElement,
    /// The level's display, quoted, as the description names it.
    display: String,
}

impl<'a> QueryParts<'a> {
    fn new(schema: &'a VirtualSchemaGraph, aggregates: &[AggFunc]) -> Self {
        let columns = schema.measures().len() * aggregates.len();
        let mut measure_arms = Vec::with_capacity(schema.measures().len());
        let mut aggregate_items = Vec::with_capacity(columns);
        let mut measure_columns = Vec::with_capacity(columns);
        let mut returns = String::from("Return ");
        for (mi, measure) in schema.measures().iter().enumerate() {
            let value_var = format!("m{mi}");
            measure_arms.push(PatternElement::Triple(TriplePattern::new(
                TermPattern::Var("o".to_owned()),
                measure.predicate.clone(),
                TermPattern::Var(value_var.clone()),
            )));
            for &agg in aggregates {
                returns.push_str(list_separator(measure_columns.len(), columns));
                returns.push_str(&format!("{}({})", agg.keyword(), measure.label));
                let alias = measure_alias(schema, measure.id, agg);
                aggregate_items.push(SelectItem::Agg {
                    func: agg,
                    expr: Expr::var(value_var.clone()),
                    alias: alias.clone(),
                });
                measure_columns.push(MeasureColumn {
                    alias,
                    measure: measure.id,
                    agg,
                });
            }
        }
        returns.push_str(" grouped by ");
        QueryParts {
            schema,
            observation: patterns::observation_type("o", &schema.observation_class),
            measure_arms,
            aggregate_items,
            measure_columns,
            returns,
            levels: schema.levels().iter().map(|_| None).collect(),
        }
    }

    fn level(&mut self, level: LevelId) -> &LevelParts {
        let schema = self.schema;
        self.levels[level.index()].get_or_insert_with(|| {
            let var = level_var_name(schema, level);
            LevelParts {
                arm: patterns::path_to_member("o", &schema.level(level).path, &var),
                display: format!("\"{}\"", OlapQuery::level_display(schema, level)),
                var,
            }
        })
    }

    /// The query for one candidate: grouping at the distinct levels of
    /// `example`'s bindings in first-mention order.
    fn build(&mut self, example: Vec<Vec<ExampleBinding>>) -> OlapQuery {
        let mut levels: Vec<LevelId> = Vec::new();
        for b in example.iter().flatten() {
            if !levels.contains(&b.level) {
                levels.push(b.level);
            }
        }

        let mut wher = Vec::with_capacity(1 + levels.len() + self.measure_arms.len());
        wher.push(self.observation.clone());
        let mut group_columns = Vec::with_capacity(levels.len());
        let mut description = self.returns.clone();
        for (i, &level) in levels.iter().enumerate() {
            let parts = self.level(level);
            wher.push(parts.arm.clone());
            group_columns.push(GroupColumn {
                var: parts.var.clone(),
                level,
            });
            description.push_str(list_separator(i, levels.len()));
            description.push_str(&parts.display);
        }
        wher.extend_from_slice(&self.measure_arms);
        // the example's labels in binding order, a run of one label once
        let mut labels = example.iter().flatten().map(|b| b.label.as_str());
        if let Some(mut previous) = labels.next() {
            description.push_str(" (matching ");
            description.push_str(previous);
            for label in labels {
                if label != previous {
                    description.push_str(", ");
                    description.push_str(label);
                    previous = label;
                }
            }
            description.push(')');
        }

        let mut select = Vec::with_capacity(group_columns.len() + self.aggregate_items.len());
        select.extend(group_columns.iter().map(|c| SelectItem::Var(c.var.clone())));
        select.extend_from_slice(&self.aggregate_items);
        let mut query = Query::select_all(wher);
        query.select = select;
        query.group_by = group_columns.iter().map(|c| c.var.clone()).collect();
        OlapQuery {
            query,
            group_columns,
            measure_columns: self.measure_columns.clone(),
            example,
            description,
        }
    }
}

/// What precedes item `i` of `n` in an English list: `a`, `a and b`,
/// `a, b and c`.
fn list_separator(i: usize, n: usize) -> &'static str {
    match i {
        0 => "",
        _ if i + 1 == n => " and ",
        _ => ", ",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_cube::{bootstrap, BootstrapConfig};
    use re2x_rdf::io::parse_turtle;
    use re2x_rdf::Graph;
    use re2x_sparql::{LocalEndpoint, SparqlEndpoint};

    /// The running-example KG: destinations, origins (→ continents), years.
    fn fixture() -> (LocalEndpoint, VirtualSchemaGraph) {
        let mut g = Graph::new();
        parse_turtle(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:Germany rdfs:label "Germany" .
            ex:France rdfs:label "France" .
            ex:Syria rdfs:label "Syria" ; ex:inContinent ex:Asia .
            ex:China rdfs:label "China" ; ex:inContinent ex:Asia .
            ex:Asia rdfs:label "Asia" .
            ex:y2013 rdfs:label "2013" .
            ex:y2014 rdfs:label "2014" .

            ex:origin rdfs:label "Country of Origin" .
            ex:dest rdfs:label "Country of Destination" .
            ex:year rdfs:label "Ref Period Year" .
            ex:applicants rdfs:label "Num Applicants" .

            ex:o1 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:Syria ; ex:year ex:y2013 ; ex:applicants 300 .
            ex:o2 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:Syria ; ex:year ex:y2014 ; ex:applicants 600 .
            ex:o3 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:China ; ex:year ex:y2014 ; ex:applicants 100 .
            ex:o4 a ex:Obs ; ex:dest ex:France ; ex:origin ex:Syria ; ex:year ex:y2014 ; ex:applicants 300 .
            "#,
            &mut g,
        )
        .expect("fixture parses");
        let ep = LocalEndpoint::new(g);
        let report = bootstrap(&ep, &BootstrapConfig::new("http://ex/Obs")).expect("bootstrap");
        (ep, report.schema)
    }

    #[test]
    fn germany_2014_synthesizes_one_query_per_valid_interpretation() {
        let (ep, schema) = fixture();
        let config = ReolapConfig::default();
        let outcome = reolap(&ep, &schema, &["Germany", "2014"], &config).expect("synthesis");
        // "Germany" only appears as destination in this KG; "2014" as year.
        assert_eq!(outcome.queries.len(), 1);
        let q = &outcome.queries[0];
        assert_eq!(q.group_columns.len(), 2);
        assert_eq!(q.measure_columns.len(), 4, "max/min/avg/sum over 1 measure");
        assert!(q.description.contains("SUM(Num Applicants)"));
        assert!(q.description.contains("Country of Destination"));
        // executable and contains Germany rows
        let solutions = ep.select(&q.query).expect("runs");
        assert_eq!(
            solutions.len(),
            3,
            "(Germany,2014) (France,2014) (Germany,2013)"
        );
        let matching = q.matching_rows(&solutions, ep.graph());
        assert_eq!(matching.len(), 1, "exactly the (Germany, 2014) row");
        let row = matching[0];
        let total = solutions
            .value(row, "sum_applicants")
            .and_then(|v| v.as_number(ep.graph()))
            .expect("sum");
        assert_eq!(
            total, 700.0,
            "600 (Syria) + 100 (China) into Germany in 2014"
        );
    }

    #[test]
    fn ambiguous_example_produces_multiple_interpretations() {
        let (ep, schema) = fixture();
        // "Asia" matches only origin/continent; "Syria" matches origin
        // country — combined they stay within one dimension.
        let outcome = reolap(&ep, &schema, &["Asia"], &ReolapConfig::default()).expect("ok");
        assert_eq!(outcome.queries.len(), 1);
        let q = &outcome.queries[0];
        assert_eq!(
            schema.level(q.group_columns[0].level).path,
            vec![
                "http://ex/origin".to_owned(),
                "http://ex/inContinent".to_owned()
            ]
        );
    }

    #[test]
    fn validation_rejects_impossible_combinations() {
        let (ep, schema) = fixture();
        // Germany (dest) with France (dest): no observation has both.
        let outcome = reolap(
            &ep,
            &schema,
            &["Germany", "France"],
            &ReolapConfig::default(),
        )
        .expect("ok");
        assert!(outcome.queries.is_empty());
        assert_eq!(outcome.interpretations_considered, 1);
        // without validation, the (invalid) interpretation surfaces
        let config = ReolapConfig {
            validate: false,
            ..Default::default()
        };
        let outcome = reolap(&ep, &schema, &["Germany", "France"], &config).expect("ok");
        assert_eq!(outcome.queries.len(), 1);
    }

    #[test]
    fn unknown_keyword_is_reported() {
        let (ep, schema) = fixture();
        let err = reolap(&ep, &schema, &["Atlantis"], &ReolapConfig::default()).unwrap_err();
        assert!(matches!(err, Re2xError::NoMatch { .. }));
    }

    #[test]
    fn interpretation_bound_enforced() {
        let (ep, schema) = fixture();
        let config = ReolapConfig {
            max_interpretations: 0,
            ..Default::default()
        };
        let err = reolap(&ep, &schema, &["Germany"], &config).unwrap_err();
        assert!(matches!(err, Re2xError::TooManyInterpretations { .. }));
    }

    #[test]
    fn configured_aggregates_control_projection() {
        let (ep, schema) = fixture();
        let config = ReolapConfig {
            aggregates: vec![AggFunc::Sum],
            ..Default::default()
        };
        let outcome = reolap(&ep, &schema, &["Germany"], &config).expect("ok");
        assert_eq!(outcome.queries[0].measure_columns.len(), 1);
        assert_eq!(
            outcome.queries[0].measure_columns[0].alias,
            "sum_applicants"
        );
    }

    #[test]
    fn multi_tuple_examples_constrain_levels() {
        let (ep, schema) = fixture();
        // Two tuples: ⟨Germany⟩ and ⟨France⟩, both destinations → one query
        // grouping by destination, containing both example rows.
        let tuples = vec![vec!["Germany".to_owned()], vec!["France".to_owned()]];
        let outcome = reolap_multi(&ep, &schema, &tuples, &ReolapConfig::default()).expect("ok");
        assert_eq!(outcome.queries.len(), 1);
        let q = &outcome.queries[0];
        assert_eq!(q.example.len(), 2);
        let solutions = ep.select(&q.query).expect("runs");
        assert_eq!(q.matching_rows(&solutions, ep.graph()).len(), 2);
    }

    #[test]
    fn multi_tuple_mixed_arity_rejected() {
        let (ep, schema) = fixture();
        let tuples = vec![
            vec!["Germany".to_owned()],
            vec!["France".to_owned(), "2014".to_owned()],
        ];
        let err = reolap_multi(&ep, &schema, &tuples, &ReolapConfig::default()).unwrap_err();
        assert_eq!(err, Re2xError::MixedArity);
    }

    #[test]
    fn empty_example_list_yields_no_queries() {
        let (ep, schema) = fixture();
        let outcome = reolap_multi(&ep, &schema, &[], &ReolapConfig::default()).expect("ok");
        assert!(outcome.queries.is_empty());
    }

    #[test]
    fn combination_counts_saturate_instead_of_wrapping() {
        // five components of 2^13 hits are 2^65 combinations: a wrapping
        // product is 0 — *under* every bound — and would start enumerating
        let counts = [1usize << 13; 5];
        assert_eq!(counts.iter().fold(1usize, |n, &c| n.wrapping_mul(c)), 0);
        assert_eq!(saturating_product(counts), usize::MAX);
        assert_eq!(saturating_product([3, 4, 5]), 60);
        assert_eq!(saturating_product([]), 1);
        assert_eq!(saturating_product([usize::MAX, 2, 0]), 0);
    }

    #[test]
    fn combinations_are_visited_lowest_position_first() {
        let sizes = [2, 1, 3];
        let mut indices = vec![0; 3];
        let mut visited = vec![indices.clone()];
        while next_combination(&mut indices, |p| sizes[p]) {
            visited.push(indices.clone());
        }
        assert_eq!(
            visited,
            [
                [0, 0, 0],
                [1, 0, 0],
                [0, 0, 1],
                [1, 0, 1],
                [0, 0, 2],
                [1, 0, 2]
            ]
        );
        assert_eq!(indices, [0, 0, 0], "wrapped around");
        assert!(!next_combination(&mut [], |_| 0), "the empty tuple");
    }

    #[test]
    fn sorted_id_lists_intersect_smallest_first() {
        let ids = |raw: &[u32]| raw.iter().map(|&i| TermId(i)).collect::<Vec<_>>();
        let (a, b, c) = (ids(&[1, 4, 9, 16, 25]), ids(&[2, 4, 6, 8, 16]), ids(&[16]));
        assert!(intersects(&mut [&a, &b]));
        assert!(intersects(&mut [&a, &b, &c]), "16 is in all three");
        assert!(intersects(&mut [&a, &a]), "the same interpretation twice");
        assert!(!intersects(&mut [&a, &ids(&[2, 3, 5, 26])]));
        assert!(
            !intersects(&mut [&a, &b, &ids(&[5, 17])]),
            "4 and 16 miss it"
        );
        assert!(!intersects(&mut [&a, &[]]), "an empty set decides it");
        assert!(intersects(&mut [&c]));
        assert!(!intersects(&mut []));
    }

    /// A builder's query for a candidate equals a fresh builder's, whatever
    /// it built before: the per-level entries an earlier candidate filled
    /// serve every later one, in any order.
    #[test]
    fn shared_parts_build_what_a_fresh_builder_builds() {
        let datasets = [
            ("eurostat", re2x_datagen::eurostat::generate(300, 7)),
            ("dbpedia", re2x_datagen::dbpedia::generate(300, 13)),
        ];
        for (name, dataset) in datasets {
            let endpoint = LocalEndpoint::new(dataset.graph);
            let config = BootstrapConfig::new(&dataset.observation_class);
            let schema = bootstrap(&endpoint, &config).expect("bootstrap").schema;
            let levels: Vec<LevelId> = schema.levels().iter().map(|l| l.id).collect();
            re2x_testkit::check_n(&format!("query_parts_{name}"), 16, |rng| {
                let aggregates: Vec<AggFunc> = AggFunc::ALL
                    .into_iter()
                    .filter(|_| rng.gen_bool(0.6))
                    .collect();
                // few members and labels, so tuples repeat levels and labels
                let mut binding = || {
                    let member = rng.gen_range(0..3usize);
                    ExampleBinding {
                        keyword: format!("k{member}"),
                        member_iri: format!("http://ex/m{member}"),
                        label: format!("M{member}"),
                        level: *rng.pick(&levels),
                    }
                };
                let mut candidates: Vec<Vec<Vec<ExampleBinding>>> = Vec::new();
                for _ in 0..12 {
                    let (tuples, arity) = (1 + candidates.len() % 2, 1 + candidates.len() % 3);
                    let example = (0..tuples)
                        .map(|_| (0..arity).map(|_| binding()).collect())
                        .collect();
                    candidates.push(example);
                }
                let fresh: Vec<OlapQuery> = candidates
                    .iter()
                    .map(|example| get_query_tuples(&schema, example, &aggregates))
                    .collect();
                let mut order: Vec<usize> = (0..candidates.len()).collect();
                for _ in 0..2 {
                    let mut parts = QueryParts::new(&schema, &aggregates);
                    for &c in &order {
                        let built = parts.build(candidates[c].clone());
                        assert_eq!(built, fresh[c], "{name}: candidate {c} after {order:?}");
                    }
                    rng.shuffle(&mut order);
                }
            });
        }
    }

    #[test]
    fn lists_read_as_english() {
        let list = |items: &[&str]| -> String {
            let n = items.len();
            let each = items.iter().enumerate();
            each.map(|(i, item)| format!("{}{item}", list_separator(i, n)))
                .collect()
        };
        assert_eq!(list(&[]), "");
        assert_eq!(list(&["a"]), "a");
        assert_eq!(list(&["a", "b"]), "a and b");
        assert_eq!(list(&["a", "b", "c"]), "a, b and c");
    }
}
