//! Differential proof that candidate validation by intersecting shared
//! observation-id sets decides exactly what the per-candidate `ASK` walk
//! decides: for every candidate list `reolap` / `reolap_multi` enumerate,
//! the verdict vector of [`validate_candidates`] equals the
//! [`validate_interpretation`] oracle, and the synthesized queries equal
//! the oracle walk's byte for byte — on all four datasets, on fixtures
//! built to hit each branch (sets, truncated sets, plain `ASK`), and
//! behind a [`ShardedEndpoint`]. A golden digest pins the SPARQL text and
//! description of every candidate built for fixed dbpedia and eurostat
//! tuples.

use re2x_cube::{bootstrap, BootstrapConfig, LevelId, VirtualSchemaGraph};
use re2x_datagen::common::Dataset;
use re2x_obs::Tracer;
use re2x_rdf::io::parse_turtle;
use re2x_rdf::Graph;
use re2x_sparql::{AggFunc, LocalEndpoint, ShardedEndpoint, SparqlEndpoint};
use re2x_testkit::{check_n, TestRng};
use re2xolap::reolap::{
    get_query_tuples, reolap, reolap_multi, validate_candidates, validate_interpretation,
    ReolapConfig, SynthesisOutcome,
};
use re2xolap::{get_query, matches, ExampleBinding, MatchMode, OlapQuery, Re2xError};
use std::cell::Cell;

/// How many validations took each branch, from the tracer's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Branches {
    /// Observation sets fetched.
    sets: u64,
    /// Of those, how many came back over the cap.
    truncated: u64,
    /// Candidates decided by their own `ASK`.
    asks: u64,
}

fn branches(tracer: &Tracer) -> Branches {
    let metrics = tracer.metrics().expect("enabled tracer");
    Branches {
        sets: metrics.counter("reolap.validation.sets"),
        truncated: metrics.counter("reolap.validation.sets_truncated"),
        asks: metrics.counter("reolap.validation.asks"),
    }
}

fn sparql(queries: &[OlapQuery]) -> Vec<String> {
    queries.iter().map(OlapQuery::sparql).collect()
}

/// One example tuple, checked: its candidates in enumeration order, their
/// verdicts, and the branches validation took.
struct Checked {
    candidates: Vec<Vec<ExampleBinding>>,
    verdicts: Vec<bool>,
    taken: Branches,
}

impl Checked {
    /// The verdict of the one candidate whose bindings satisfy `is`.
    fn verdict_where(&self, is: impl Fn(&[ExampleBinding]) -> bool) -> bool {
        let mut hits = self.candidates.iter().zip(&self.verdicts);
        let (_, &verdict) = hits.find(|(c, _)| is(c)).expect("such a candidate");
        assert!(!hits.any(|(c, _)| is(c)), "more than one such candidate");
        verdict
    }
}

/// Checks one example tuple against the per-candidate `ASK` oracle. `Err`
/// when synthesis fails before validation (unmatched keyword, too many
/// combinations) — there is nothing to compare then.
fn assert_differential(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    example: &[&str],
    mode: MatchMode,
) -> Result<Checked, Re2xError> {
    // an unvalidated run returns one query per candidate, in candidate
    // order, each carrying its bindings: the list validation is handed
    let unvalidated = ReolapConfig {
        mode,
        validate: false,
        ..Default::default()
    };
    let candidates: Vec<Vec<ExampleBinding>> = reolap(endpoint, schema, example, &unvalidated)?
        .queries
        .into_iter()
        .map(|q| q.example.into_iter().next().expect("one tuple"))
        .collect();
    let oracle: Vec<bool> = candidates
        .iter()
        .map(|bindings| validate_interpretation(endpoint, schema, bindings).expect("ask"))
        .collect();

    let tracer = Tracer::enabled();
    let config = ReolapConfig {
        mode,
        tracer: tracer.clone(),
        ..Default::default()
    };
    let borrowed: Vec<Vec<&ExampleBinding>> =
        candidates.iter().map(|b| b.iter().collect()).collect();
    let verdicts = validate_candidates(endpoint, schema, &borrowed, &config).expect("validation");
    assert_eq!(verdicts, oracle, "verdicts diverge on {example:?}");
    let taken = branches(&tracer);

    let expected: Vec<OlapQuery> = candidates
        .iter()
        .zip(&oracle)
        .filter(|&(_, &valid)| valid)
        .map(|(bindings, _)| get_query(schema, bindings, &config.aggregates))
        .collect();
    let outcome = reolap(endpoint, schema, example, &config).expect("synthesis");
    assert_eq!(outcome.queries, expected, "queries diverge on {example:?}");
    assert_eq!(sparql(&outcome.queries), sparql(&expected));
    Ok(Checked {
        candidates,
        verdicts,
        taken,
    })
}

fn local(dataset: Dataset) -> (LocalEndpoint, VirtualSchemaGraph, Dataset) {
    let mut dataset = dataset;
    let endpoint = LocalEndpoint::new(std::mem::take(&mut dataset.graph));
    let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
        .expect("bootstrap")
        .schema;
    (endpoint, schema, dataset)
}

/// Last whitespace-separated token of a label ("Genre 17" → "17",
/// "January 2014" → "2014"): the ambiguous keyword a user would type.
fn last_token(label: &str) -> &str {
    label.split_whitespace().next_back().unwrap_or(label)
}

/// Seeded keyword tuples anchored at real observations: two or three
/// components, each a member label or just its last token, sometimes with
/// a component repeated (so candidates bind one interpretation twice).
/// Returns how many tuples took the set path and how many the `ASK` walk.
fn property_keyword_tuples_match_the_oracle(dataset: Dataset, name: &str) -> (u32, u32) {
    let (endpoint, schema, dataset) = local(dataset);
    let (by_sets, by_asks) = (Cell::new(0u32), Cell::new(0u32));
    check_n(name, 24, |rng: &mut TestRng| {
        let size = rng
            .gen_range(2..4usize)
            .min(dataset.dimension_predicates.len());
        let anchored = example_workload_on_endpoint(&endpoint, &dataset, size, rng.next_u64());
        let mut example: Vec<&str> = anchored
            .iter()
            .map(|label| {
                if rng.gen_bool(0.6) {
                    last_token(label)
                } else {
                    label.as_str()
                }
            })
            .collect();
        if rng.gen_bool(0.3) {
            let repeated = *rng.pick(&example);
            let at = rng.gen_range(0..example.len());
            example[at] = repeated;
        }
        match assert_differential(&endpoint, &schema, &example, MatchMode::Keyword) {
            Ok(checked) if checked.taken.sets > 0 => by_sets.set(by_sets.get() + 1),
            Ok(_) => by_asks.set(by_asks.get() + 1),
            Err(Re2xError::NoMatch { .. } | Re2xError::TooManyInterpretations { .. }) => {}
            Err(other) => panic!("{example:?}: {other:?}"),
        }
    });
    (by_sets.get(), by_asks.get())
}

fn example_workload_on_endpoint(
    endpoint: &LocalEndpoint,
    dataset: &Dataset,
    size: usize,
    seed: u64,
) -> Vec<String> {
    re2x_datagen::common::example_workload_on(endpoint.graph(), dataset, size, 1, seed)
        .pop()
        .expect("one tuple")
}

#[test]
fn running_example_keyword_tuples_match_the_oracle() {
    let (by_sets, by_asks) = property_keyword_tuples_match_the_oracle(
        re2x_datagen::running::generate(),
        "validation_differential_running",
    );
    assert!(by_sets + by_asks > 0, "no tuple reached validation");
}

#[test]
fn eurostat_keyword_tuples_match_the_oracle() {
    let (by_sets, by_asks) = property_keyword_tuples_match_the_oracle(
        re2x_datagen::eurostat::generate(500, 7),
        "validation_differential_eurostat",
    );
    assert!(by_sets > 0, "no tuple took the set path ({by_asks} by ASK)");
    assert!(
        by_asks > 0,
        "no tuple took the ASK walk ({by_sets} by sets)"
    );
}

#[test]
fn production_keyword_tuples_match_the_oracle() {
    let (by_sets, by_asks) = property_keyword_tuples_match_the_oracle(
        re2x_datagen::production::generate(400, 11),
        "validation_differential_production",
    );
    assert!(by_sets + by_asks > 0, "no tuple reached validation");
}

#[test]
fn dbpedia_keyword_tuples_match_the_oracle() {
    let (by_sets, by_asks) = property_keyword_tuples_match_the_oracle(
        re2x_datagen::dbpedia::generate(400, 13),
        "validation_differential_dbpedia",
    );
    assert!(by_sets > 0, "no tuple took the set path ({by_asks} by ASK)");
}

/// The same keyword twice: candidates ⟨a,a⟩, ⟨a,b⟩, ⟨b,b⟩ over two
/// interpretations — the set path, with two candidates binding one
/// interpretation in both components.
#[test]
fn a_candidate_binding_one_interpretation_twice_is_decided_by_its_set() {
    let (endpoint, schema, _) = local(re2x_datagen::eurostat::generate(500, 7));
    let checked = assert_differential(
        &endpoint,
        &schema,
        &["Germany", "Germany"],
        MatchMode::Exact,
    )
    .expect("synthesis");
    // Germany is a destination and an origin country
    assert_eq!(checked.verdicts.len(), 3);
    assert_eq!(
        checked.taken,
        Branches {
            sets: 2,
            truncated: 0,
            asks: 0
        }
    );
    let twice: Vec<bool> = checked
        .candidates
        .iter()
        .zip(&checked.verdicts)
        .filter(|(bindings, _)| bindings[0] == bindings[1])
        .map(|(_, &verdict)| verdict)
        .collect();
    assert_eq!(twice, [true, true], "both levels reach Germany");
}

/// Three genres of one song: eight candidates over six interpretations
/// ("Genre n" names a song genre and a label genre), among them the
/// same-level triple on the M-to-N `genre` level, which only holds because
/// one observation reaches all three members.
#[test]
fn same_level_members_of_an_m_to_n_level_intersect() {
    let (endpoint, schema, dataset) = local(re2x_datagen::dbpedia::generate(600, 13));
    let graph = endpoint.graph();
    let id = |iri: &str| graph.iri_id(iri).expect("interned");
    let genre = id(&dataset.dimension_predicates[0]);
    assert!(dataset.dimension_predicates[0].ends_with("genre"));
    let label = id(&dataset.label_predicate);
    let songs = graph.subjects(
        id(re2x_rdf::vocab::rdf::TYPE),
        id(&dataset.observation_class),
    );
    let label_of = |member: re2x_rdf::TermId| {
        let literal = graph.objects(member, label)[0];
        let term = graph.term(literal).as_literal().expect("label literal");
        term.lexical().to_owned()
    };
    // low-numbered genres share their label with a label-genre member,
    // which counts once some observation's record label reaches it
    let shared = |g: re2x_rdf::TermId| {
        let hits = re2xolap::matches(&endpoint, &schema, &label_of(g), MatchMode::Exact);
        hits.expect("matching").len() == 2
    };
    let genres = songs
        .iter()
        .map(|&song| graph.objects(song, genre))
        .find(|genres| genres.len() == 3 && genres.iter().all(|&g| shared(g)))
        .expect("a song with three shared-label genres");
    let labels: Vec<String> = genres.iter().map(|&g| label_of(g)).collect();
    let example: Vec<&str> = labels.iter().map(String::as_str).collect();
    let all_at_song_genre = |bindings: &[ExampleBinding]| {
        bindings
            .iter()
            .all(|b| schema.level(b.level).path == dataset.dimension_predicates[..1])
    };

    let checked =
        assert_differential(&endpoint, &schema, &example, MatchMode::Exact).expect("synthesis");
    assert_eq!(checked.verdicts.len(), 8, "2 × 2 × 2 interpretations");
    assert_eq!(
        checked.taken,
        Branches {
            sets: 6,
            truncated: 0,
            asks: 0
        }
    );
    assert!(
        checked.verdict_where(all_at_song_genre),
        "the song carries all three genres"
    );

    // the third genre swapped for one no song combines with the first two:
    // the same-level candidate must now be rejected
    let carries_all = |wanted: [re2x_rdf::TermId; 3]| {
        songs.iter().any(|&song| {
            wanted
                .iter()
                .all(|g| graph.objects(song, genre).contains(g))
        })
    };
    let stranger = songs
        .iter()
        .flat_map(|&song| graph.objects(song, genre))
        .find(|&&g| !carries_all([genres[0], genres[1], g]))
        .map(|&g| label_of(g))
        .expect("some genre is never combined with the first two");
    let checked = assert_differential(
        &endpoint,
        &schema,
        &[example[0], example[1], &stranger],
        MatchMode::Exact,
    )
    .expect("synthesis");
    assert!(
        !checked.verdict_where(all_at_song_genre),
        "no song carries {stranger} with the other two"
    );
}

/// A member reached by more observations than the cap: its set is unknown,
/// every candidate touching it falls back to its own `ASK`, the rest are
/// still decided by sets — and all verdicts stay right.
#[test]
fn a_set_over_the_cap_falls_back_to_ask() {
    const BIG: usize = 4200; // > the 4096-id cap
    let mut turtle = String::from(
        "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:Germany rdfs:label \"Germany\" .\n\
         ex:France rdfs:label \"France\" .\n\
         ex:Spain rdfs:label \"Spain\" .\n\
         ex:s1 a ex:Obs ; ex:dest ex:France ; ex:origin ex:Germany ; ex:transit ex:Spain ; ex:n 1 .\n\
         ex:s2 a ex:Obs ; ex:dest ex:Spain ; ex:origin ex:Spain ; ex:transit ex:Germany ; ex:n 1 .\n\
         ex:s3 a ex:Obs ; ex:dest ex:Spain ; ex:origin ex:Germany ; ex:transit ex:France ; ex:n 1 .\n",
    );
    for i in 0..BIG {
        turtle.push_str(&format!(
            "ex:o{i} a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:France ; ex:transit ex:Spain ; ex:n 1 .\n"
        ));
    }
    // interned last, so it sorts behind the cap in ⟨dest Germany⟩'s rows:
    // the only witness of ⟨dest Germany, transit France⟩ is one a truncated
    // set would not contain
    turtle.push_str(
        "ex:z a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:Spain ; ex:transit ex:France ; ex:n 1 .\n",
    );
    let mut graph = Graph::new();
    parse_turtle(&turtle, &mut graph).expect("fixture parses");
    let endpoint = LocalEndpoint::new(graph);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new("http://ex/Obs"))
        .expect("bootstrap")
        .schema;

    // Germany and France are each a destination, an origin and a transit
    // country: 9 candidates over 6 interpretations
    let checked = assert_differential(&endpoint, &schema, &["Germany", "France"], MatchMode::Exact)
        .expect("synthesis");
    assert_eq!(checked.verdicts.len(), 9);
    // ⟨dest Germany⟩ and ⟨origin France⟩ are over the cap; 5 of the 9
    // candidates bind at least one of them
    assert_eq!(
        checked.taken,
        Branches {
            sets: 6,
            truncated: 2,
            asks: 5
        }
    );
    // the big pair itself, z's pair, and two small pairs (s1: dest France
    // + origin Germany; s3: origin Germany + transit France), nothing else
    assert_eq!(checked.verdicts.iter().filter(|&&valid| valid).count(), 4);
}

/// The cap counts rows, not observations: an M-to-N level path that
/// reaches its member twice from every one of 2 100 observations returns
/// 4 200 rows, so the set is unknown and its candidates fall back to their
/// `ASK` — though only 2 100 distinct ids would fit the cap.
#[test]
fn the_cap_counts_rows_not_distinct_observations() {
    const OBSERVATIONS: usize = 2100; // ≤ the cap, twice over it in rows
    let mut turtle = String::from(
        "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:Germany rdfs:label \"Germany\" .\n\
         ex:France rdfs:label \"France\" .\n\
         ex:tA ex:group ex:Germany .\n\
         ex:tB ex:group ex:Germany .\n\
         ex:tC ex:group ex:France .\n\
         ex:s1 a ex:Obs ; ex:dest ex:France ; ex:origin ex:Germany ; ex:tag ex:tC ; ex:n 1 .\n",
    );
    for i in 0..OBSERVATIONS {
        turtle.push_str(&format!(
            "ex:o{i} a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:France ; ex:tag ex:tA , ex:tB ; ex:n 1 .\n"
        ));
    }
    let mut graph = Graph::new();
    parse_turtle(&turtle, &mut graph).expect("fixture parses");
    let endpoint = LocalEndpoint::new(graph);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new("http://ex/Obs"))
        .expect("bootstrap")
        .schema;
    let fetched = endpoint
        .select_ids(
            &re2x_sparql::parse_query(
                "SELECT ?o WHERE { ?o a <http://ex/Obs> . \
                 ?o <http://ex/tag> / <http://ex/group> <http://ex/Germany> }",
            )
            .expect("parses"),
        )
        .expect("select")
        .expect("ids");
    let mut distinct = fetched.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        (fetched.len(), distinct.len()),
        (2 * OBSERVATIONS, OBSERVATIONS)
    );

    // Germany and France are each a destination, an origin and a tag
    // group: 9 candidates over 6 interpretations
    let checked = assert_differential(&endpoint, &schema, &["Germany", "France"], MatchMode::Exact)
        .expect("synthesis");
    assert_eq!(checked.verdicts.len(), 9);
    // ⟨group Germany⟩ is over the cap in rows; the 3 candidates binding it
    // are decided by their own ASK
    assert_eq!(
        checked.taken,
        Branches {
            sets: 6,
            truncated: 1,
            asks: 3
        }
    );
    // the o-pairs ⟨dest Germany, origin France⟩ and ⟨group Germany, origin
    // France⟩, and s1's ⟨origin Germany⟩ with dest France or group France
    assert_eq!(checked.verdicts.iter().filter(|&&valid| valid).count(), 4);
}

/// Unambiguous tuples have no more candidates than interpretations and
/// keep the one-`ASK`-per-candidate walk.
#[test]
fn unambiguous_tuples_keep_the_ask_walk() {
    let (endpoint, schema, _) = local(re2x_datagen::eurostat::generate(500, 7));
    for example in [
        &["Sweden"] as &[&str], // 1 × 1
        &["Germany", "2014"],   // 2 × 1
        &["Germany", "France"], // 2 × 2
    ] {
        let checked =
            assert_differential(&endpoint, &schema, example, MatchMode::Exact).expect("synthesis");
        assert_eq!(
            checked.taken,
            Branches {
                sets: 0,
                truncated: 0,
                asks: checked.verdicts.len() as u64
            },
            "{example:?}"
        );
    }
}

/// The first combination of `tuple`'s matches at `levels` (lowest position
/// varying fastest) whose `ASK` holds: what explains the tuple there.
fn first_valid(
    endpoint: &dyn SparqlEndpoint,
    schema: &VirtualSchemaGraph,
    tuple: &[String],
    levels: &[LevelId],
    mode: MatchMode,
) -> Option<Vec<ExampleBinding>> {
    let hits: Vec<Vec<ExampleBinding>> = tuple
        .iter()
        .zip(levels)
        .map(|(keyword, &level)| {
            let hits = matches(endpoint, schema, keyword, mode).expect("matches");
            let bindings = hits.into_iter().map(|m| m.binding);
            bindings.filter(|b| b.level == level).collect()
        })
        .collect();
    let mut at = vec![0; hits.len()];
    loop {
        let bindings: Vec<ExampleBinding> =
            hits.iter().zip(&at).map(|(h, &i)| h[i].clone()).collect();
        if validate_interpretation(endpoint, schema, &bindings).expect("ask") {
            return Some(bindings);
        }
        let mut position = 0;
        loop {
            if position == at.len() {
                return None;
            }
            at[position] += 1;
            if at[position] < hits[position].len() {
                break;
            }
            at[position] = 0;
            position += 1;
        }
    }
}

/// `reolap_multi` validates every (combo, tuple) pair through the same
/// routine: its queries equal the walk that ASKs each combination of each
/// tuple's members at each combo's levels.
#[test]
fn multi_tuple_synthesis_matches_the_oracle() {
    let (endpoint, schema, dataset) = local(re2x_datagen::eurostat::generate(2000, 7));
    // ⟨destination, origin, year⟩ of two observations whose countries each
    // occur on both sides somewhere — so every country keyword has two
    // interpretations, and the ⟨dest, origin, year⟩ combo holds for both
    let graph = endpoint.graph();
    let id = |iri: &str| graph.iri_id(iri).expect("interned");
    let predicate = |local: &str| {
        let iri = dataset
            .dimension_predicates
            .iter()
            .find(|p| p.ends_with(local));
        id(iri.expect("dimension"))
    };
    let (geo, citizen, period) = (
        predicate("geo"),
        predicate("citizen"),
        predicate("refPeriod"),
    );
    let label = id(&dataset.label_predicate);
    let label_of = |member: re2x_rdf::TermId| {
        let literal = graph.objects(member, label)[0];
        let term = graph.term(literal).as_literal().expect("label literal");
        term.lexical().to_owned()
    };
    let on_both_sides = |country: re2x_rdf::TermId| {
        !graph.subjects(geo, country).is_empty() && !graph.subjects(citizen, country).is_empty()
    };
    let anchored: Vec<Vec<String>> = graph
        .subjects(
            id(re2x_rdf::vocab::rdf::TYPE),
            id(&dataset.observation_class),
        )
        .iter()
        .filter_map(|&obs| {
            let (to, from) = (graph.objects(obs, geo)[0], graph.objects(obs, citizen)[0]);
            let month = label_of(graph.objects(obs, period)[0]);
            (to != from && on_both_sides(to) && on_both_sides(from))
                .then(|| vec![label_of(to), label_of(from), last_token(&month).to_owned()])
        })
        .take(2)
        .collect();
    assert_eq!(anchored.len(), 2, "two anchored observations");
    let without_origin: Vec<Vec<String>> = anchored
        .iter()
        .map(|tuple| vec![tuple[0].clone(), tuple[2].clone()])
        .collect();

    for (examples, mode, expect_sets) in [
        // 2 × 1 levels, 4 pairs over 6 interpretations: the ASK walk
        (without_origin, MatchMode::Exact, false),
        // a keyword year is a year and its months: 2 × 2 × 2 combos, 16
        // pairs over 12 interpretations: the set path
        (anchored, MatchMode::Keyword, true),
    ] {
        let unvalidated = ReolapConfig {
            mode,
            validate: false,
            ..Default::default()
        };
        let combos = reolap_multi(&endpoint, &schema, &examples, &unvalidated)
            .expect("synthesis")
            .queries;
        // a combo holds iff every tuple has a valid member combination at
        // its levels, and carries each tuple's first
        let expected: Vec<OlapQuery> = combos
            .iter()
            .filter_map(|combo| {
                let levels: Vec<LevelId> = combo.example[0].iter().map(|b| b.level).collect();
                let tuples: Option<Vec<Vec<ExampleBinding>>> = examples
                    .iter()
                    .map(|tuple| first_valid(&endpoint, &schema, tuple, &levels, mode))
                    .collect();
                tuples.map(|tuples| get_query_tuples(&schema, &tuples, &unvalidated.aggregates))
            })
            .collect();

        let tracer = Tracer::enabled();
        let config = ReolapConfig {
            mode,
            tracer: tracer.clone(),
            ..Default::default()
        };
        let outcome = reolap_multi(&endpoint, &schema, &examples, &config).expect("synthesis");
        assert_eq!(outcome.queries, expected, "{examples:?}");
        assert_eq!(sparql(&outcome.queries), sparql(&expected));
        // the anchoring combo holds; on the ambiguous tuples most do not
        assert!(!expected.is_empty());
        assert!(!expect_sets || expected.len() < combos.len());
        assert_eq!(branches(&tracer).sets > 0, expect_sets, "{examples:?}");
    }
}

/// A keyword naming two members of one level: "Springfield" is the
/// destination of o1 (as A, from France) and of o2 (as B, from Germany).
fn two_springfields() -> (LocalEndpoint, VirtualSchemaGraph) {
    let turtle = "@prefix ex: <http://ex/> .\n\
         @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
         ex:SpringfieldA rdfs:label \"Springfield\" .\n\
         ex:SpringfieldB rdfs:label \"Springfield\" .\n\
         ex:France rdfs:label \"France\" .\n\
         ex:Germany rdfs:label \"Germany\" .\n\
         ex:o1 a ex:Obs ; ex:dest ex:SpringfieldA ; ex:origin ex:France ; ex:n 1 .\n\
         ex:o2 a ex:Obs ; ex:dest ex:SpringfieldB ; ex:origin ex:Germany ; ex:n 2 .\n";
    let mut graph = Graph::new();
    parse_turtle(turtle, &mut graph).expect("fixture parses");
    let endpoint = LocalEndpoint::new(graph);
    let schema = bootstrap(&endpoint, &BootstrapConfig::new("http://ex/Obs"))
        .expect("bootstrap")
        .schema;
    (endpoint, schema)
}

/// A tuple is explained at a level combo iff *some* combination of its
/// members at those levels validates (footnote 3), so ⟨Springfield,
/// Germany⟩ holds at (destination, origin) through B — for `reolap_multi`
/// as for `reolap` — and so does ⟨Springfield, France⟩ through A beside
/// it.
#[test]
fn multi_tuple_synthesis_tries_every_member_of_a_level() {
    let (endpoint, schema) = two_springfields();
    let config = ReolapConfig::default();
    let single = reolap(&endpoint, &schema, &["Springfield", "Germany"], &config)
        .expect("synthesis")
        .queries;
    assert_eq!(single.len(), 1, "{:?}", sparql(&single));
    let tuple = |kws: [&str; 2]| kws.map(str::to_owned).to_vec();
    let multi = |examples: &[Vec<String>]| {
        reolap_multi(&endpoint, &schema, examples, &config)
            .expect("synthesis")
            .queries
    };
    let one = multi(&[tuple(["Springfield", "Germany"])]);
    assert_eq!(sparql(&one), sparql(&single));
    assert_eq!(one[0].example, single[0].example);
    let two = multi(&[
        tuple(["Springfield", "Germany"]),
        tuple(["Springfield", "France"]),
    ]);
    assert_eq!(two.len(), 1, "{:?}", sparql(&two));
    // each tuple carries the members that explain it
    let members: Vec<Vec<&str>> = two[0]
        .example
        .iter()
        .map(|tuple| tuple.iter().map(|b| b.member_iri.as_str()).collect())
        .collect();
    assert_eq!(
        members,
        [
            ["http://ex/SpringfieldB", "http://ex/Germany"],
            ["http://ex/SpringfieldA", "http://ex/France"],
        ]
    );
}

/// `max_interpretations` bounds the candidates enumerated and validated,
/// not the level combos they fall into: ⟨Springfield, Germany⟩ is one
/// level combo but two candidates, so a bound of one refuses it through
/// both entry points — with matching traffic only, no validation. Under
/// the default bound both report those two as
/// `interpretations_considered`, and the pair beside ⟨Springfield,
/// France⟩ four.
#[test]
fn the_interpretation_bound_counts_candidates() {
    let (endpoint, schema) = two_springfields();
    let considered = |outcome: Result<SynthesisOutcome, Re2xError>| {
        outcome.expect("synthesis").interpretations_considered
    };
    let default = ReolapConfig::default();
    let germany = ["Springfield", "Germany"];
    let france = ["Springfield", "France"];
    assert_eq!(
        considered(reolap(&endpoint, &schema, &germany, &default)),
        2
    );
    let tuple = |kws: [&str; 2]| kws.map(str::to_owned).to_vec();
    let multi = |examples: &[Vec<String>]| reolap_multi(&endpoint, &schema, examples, &default);
    assert_eq!(considered(multi(&[tuple(germany)])), 2);
    assert_eq!(considered(multi(&[tuple(germany), tuple(france)])), 4);
    let config = ReolapConfig {
        max_interpretations: 1,
        ..ReolapConfig::default()
    };
    let sent = |endpoint: &LocalEndpoint| endpoint.stats().total_queries();
    let before = sent(&endpoint);
    let err = reolap(&endpoint, &schema, &["Springfield", "Germany"], &config)
        .expect_err("two candidates exceed a bound of one");
    let matching = sent(&endpoint) - before;
    assert!(
        matches!(
            err,
            Re2xError::TooManyInterpretations {
                combinations: 2,
                bound: 1
            }
        ),
        "{err:?}"
    );
    let examples = [vec!["Springfield".to_owned(), "Germany".to_owned()]];
    let before = sent(&endpoint);
    let err = reolap_multi(&endpoint, &schema, &examples, &config)
        .expect_err("two candidates exceed a bound of one");
    assert!(
        matches!(
            err,
            Re2xError::TooManyInterpretations {
                combinations: 2,
                bound: 1
            }
        ),
        "{err:?}"
    );
    assert_eq!(
        sent(&endpoint) - before,
        matching,
        "refused before validating"
    );
    // both tuples of a pair each bring their two candidates
    let pair = [
        examples[0].clone(),
        vec!["Springfield".to_owned(), "France".to_owned()],
    ];
    let config = ReolapConfig {
        max_interpretations: 3,
        ..ReolapConfig::default()
    };
    let err = reolap_multi(&endpoint, &schema, &pair, &config).expect_err("four candidates");
    assert!(
        matches!(
            err,
            Re2xError::TooManyInterpretations {
                combinations: 4,
                ..
            }
        ),
        "{err:?}"
    );
}

/// Behind a sharded endpoint the capped fetch is an unordered `LIMIT` and
/// routes to the replica, like every `ASK`: one id space, same verdicts,
/// same queries as the local endpoint.
#[test]
fn sharded_endpoints_validate_identically() {
    let dataset = re2x_datagen::eurostat::generate(500, 7);
    let reference = LocalEndpoint::new(dataset.graph.clone());
    let schema = bootstrap(
        &reference,
        &BootstrapConfig::new(&dataset.observation_class),
    )
    .expect("bootstrap")
    .schema;
    for shards in [2, 4] {
        let sharded = ShardedEndpoint::with_observation_class(
            dataset.graph.clone(),
            &dataset.observation_class,
            shards,
        );
        for (example, mode) in [
            (
                &["Germany", "France", "2014"] as &[&str],
                MatchMode::Keyword,
            ),
            (&["Germany", "Germany"], MatchMode::Exact),
            (&["Germany", "2014"], MatchMode::Exact),
        ] {
            let got = assert_differential(&sharded, &schema, example, mode).expect("synthesis");
            let want = assert_differential(&reference, &schema, example, mode).expect("synthesis");
            assert_eq!(got.verdicts, want.verdicts, "{shards} shards, {example:?}");
            assert_eq!(got.taken, want.taken, "{shards} shards, {example:?}");
            let config = ReolapConfig {
                mode,
                ..Default::default()
            };
            assert_eq!(
                reolap(&sharded, &schema, example, &config)
                    .expect("sharded")
                    .queries,
                reolap(&reference, &schema, example, &config)
                    .expect("local")
                    .queries,
                "{shards} shards, {example:?}"
            );
        }
    }
}

/// FNV-1a over each query's SPARQL text and description, in order.
fn text_digest(queries: &[OlapQuery]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for query in queries {
        let text = format!("{}\n{}\n", query.sparql(), query.description);
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Every query `reolap` and `reolap_multi` build for fixed keyword tuples
/// anchored at observations of `dataset` — unvalidated (one per candidate)
/// and validated, under the default and a non-default aggregate list —
/// as (query count, digest of their text).
fn built_queries_digest(dataset: Dataset) -> (usize, u64) {
    let (endpoint, schema, dataset) = local(dataset);
    let mut tuples = Vec::new();
    for (size, seed) in [(2, 5), (3, 6)] {
        let anchored =
            re2x_datagen::common::example_workload_on(endpoint.graph(), &dataset, size, 4, seed);
        // every other tuple typed as the ambiguous last tokens
        tuples.extend(anchored.into_iter().enumerate().map(|(i, tuple)| {
            let typed = tuple.iter().map(|label| match i % 2 {
                0 => last_token(label).to_owned(),
                _ => label.clone(),
            });
            typed.collect::<Vec<String>>()
        }));
    }
    let mut queries = Vec::new();
    for (validate, aggregates) in [
        (false, AggFunc::NUMERIC.to_vec()),
        (true, AggFunc::NUMERIC.to_vec()),
        (true, vec![AggFunc::Count, AggFunc::Sum]),
    ] {
        let config = ReolapConfig {
            mode: MatchMode::Keyword,
            validate,
            aggregates,
            ..Default::default()
        };
        for tuple in &tuples {
            let example: Vec<&str> = tuple.iter().map(String::as_str).collect();
            match reolap(&endpoint, &schema, &example, &config) {
                Ok(outcome) => queries.extend(outcome.queries),
                Err(Re2xError::NoMatch { .. } | Re2xError::TooManyInterpretations { .. }) => {}
                Err(other) => panic!("{example:?}: {other:?}"),
            }
        }
        // tuples of one size, two at a time
        for pair in tuples.chunks(2) {
            match reolap_multi(&endpoint, &schema, pair, &config) {
                Ok(outcome) => queries.extend(outcome.queries),
                Err(Re2xError::NoMatch { .. } | Re2xError::TooManyInterpretations { .. }) => {}
                Err(other) => panic!("{pair:?}: {other:?}"),
            }
        }
    }
    (queries.len(), text_digest(&queries))
}

/// The SPARQL text and description of every candidate, byte for byte as
/// synthesis built them before candidates were assembled from shared
/// per-call parts.
#[test]
fn built_candidates_match_the_golden_digest() {
    assert_eq!(
        built_queries_digest(re2x_datagen::dbpedia::generate(600, 13)),
        (1254, 0x7eb8_a55d_88d8_12b2),
        "dbpedia"
    );
    assert_eq!(
        built_queries_digest(re2x_datagen::eurostat::generate(500, 7)),
        (174, 0x7f72_dc73_1b11_11f6),
        "eurostat"
    );
}
