//! The DBpedia-shaped generator: an analytical view of Creative Works
//! (songs) with the messy, M-to-N hierarchy structure that makes the real
//! DBpedia extract the paper's worst case.
//!
//! Reproduces the Table 3 row exactly: 5 dimensions, 1 measure, 23 levels,
//! 87 160 dimension members, and — crucially — M-to-N hierarchy steps
//! (songs carry 1–3 genres; genres have multiple stylistic origins) plus
//! *dimension overlap*: the label-genre members carry the same lexical
//! labels as the song-genre members ("Genre 17" names a member in both
//! dimensions), so one keyword matches levels in several dimensions,
//! inflating interpretation combinations exactly as the paper describes
//! for DBpedia ("a high number of dimensions sharing similar values, e.g.
//! the genre of artists and the genre of production labels").
//!
//! Level tree (23 nodes, 14 leaves = the paper's 14 hierarchies):
//!
//! * `genre`(1400) → stylisticOrigin(240) → era(12); → derivative(300);
//!   → parentGenre(90)
//! * `artist`(63681) → hometown(2500) → country(180); → associatedAct(6000);
//!   → activeDecade(10)
//! * `recordLabel`(9000) → labelCountry(150); → labelGenre(900, labels
//!   shared with `genre`) → labelParentGenre(60); → foundingDecade(12)
//! * `instrument`(300) → family(40); → instrumentOrigin(80);
//!   → classification(15)
//! * `director`(2000) → nationality(120); → movement(60) → period(10)

use crate::common::{
    declare_predicate, link_rollup, make_members, pick_member, rng, Builder, Dataset, ExpectedShape,
};
use re2x_rdf::{vocab, Graph, Literal};

const NS: &str = "http://data.example.org/dbpedia/";

const GENRES: usize = 1400;
const STYLISTIC_ORIGINS: usize = 240;
const ERAS: usize = 12;
const DERIVATIVES: usize = 300;
const PARENT_GENRES: usize = 90;
const ARTISTS: usize = 63_681;
const HOMETOWNS: usize = 2500;
const COUNTRIES: usize = 180;
const ASSOCIATED_ACTS: usize = 6000;
const ACTIVE_DECADES: usize = 10;
const LABELS: usize = 9000;
const LABEL_COUNTRIES: usize = 150;
const LABEL_GENRES: usize = 900;
const LABEL_PARENT_GENRES: usize = 60;
const FOUNDING_DECADES: usize = 12;
const INSTRUMENTS: usize = 300;
const FAMILIES: usize = 40;
const INSTRUMENT_ORIGINS: usize = 80;
const CLASSIFICATIONS: usize = 15;
const DIRECTORS: usize = 2000;
const NATIONALITIES: usize = 120;
const MOVEMENTS: usize = 60;
const PERIODS: usize = 10;

/// Total members over all 23 levels.
const fn total_members() -> usize {
    (GENRES + STYLISTIC_ORIGINS + ERAS + DERIVATIVES + PARENT_GENRES)
        + (ARTISTS + HOMETOWNS + COUNTRIES + ASSOCIATED_ACTS + ACTIVE_DECADES)
        + (LABELS + LABEL_COUNTRIES + LABEL_GENRES + LABEL_PARENT_GENRES + FOUNDING_DECADES)
        + (INSTRUMENTS + FAMILIES + INSTRUMENT_ORIGINS + CLASSIFICATIONS)
        + (DIRECTORS + NATIONALITIES + MOVEMENTS + PERIODS)
}

/// Minimum observation count for exact Table 3 member counts (the artist
/// pool is the largest base level).
pub const FULL_SHAPE_OBSERVATIONS: usize = ARTISTS;

/// Generates the dataset. Member counts are exact whenever
/// `observations ≥ FULL_SHAPE_OBSERVATIONS`; the structure (23 levels,
/// M-to-N, shared pools) holds at any scale.
pub fn generate(observations: usize, seed: u64) -> Dataset {
    let mut graph = Builder::new();
    let mut rng = rng(seed);

    let p_genre = declare_predicate(&mut graph, NS, "genre", "Genre");
    let p_artist = declare_predicate(&mut graph, NS, "artist", "Artist");
    let p_label = declare_predicate(&mut graph, NS, "recordLabel", "Record Label");
    let p_instrument = declare_predicate(&mut graph, NS, "instrument", "Instrument");
    let p_director = declare_predicate(&mut graph, NS, "director", "Music Video Director");
    let rollup_names: [(&str, &str); 15] = [
        ("stylisticOrigin", "Stylistic Origin"),
        ("era", "Era"),
        ("derivative", "Derivative"),
        ("parentGenre", "Parent Genre"),
        ("hometown", "Hometown"),
        ("country", "Country"),
        ("associatedAct", "Associated Act"),
        ("activeDecade", "Active Decade"),
        ("labelCountry", "Label Country"),
        ("labelGenre", "Label Genre"),
        ("labelParentGenre", "Label Parent Genre"),
        ("foundingDecade", "Founding Decade"),
        ("family", "Instrument Family"),
        ("instrumentOrigin", "Instrument Origin"),
        ("classification", "Classification"),
        // movement/nationality/period declared below
    ];
    let mut rollup_preds: Vec<String> = rollup_names
        .iter()
        .map(|(local, label)| declare_predicate(&mut graph, NS, local, label))
        .collect();
    rollup_preds.push(declare_predicate(
        &mut graph,
        NS,
        "nationality",
        "Nationality",
    ));
    rollup_preds.push(declare_predicate(&mut graph, NS, "movement", "Movement"));
    rollup_preds.push(declare_predicate(&mut graph, NS, "period", "Period"));
    let p_measure = declare_predicate(&mut graph, NS, "playCount", "Play Count");

    let pred = |local: &str| -> String { format!("{NS}{local}") };

    // pools
    let genres = make_members(&mut graph, NS, "genre", GENRES, |i| format!("Genre {i}"));
    let origins = make_members(&mut graph, NS, "stylisticOrigin", STYLISTIC_ORIGINS, |i| {
        format!("Stylistic Origin {i}")
    });
    let eras = make_members(&mut graph, NS, "era", ERAS, |i| format!("Era {i}"));
    let derivatives = make_members(&mut graph, NS, "derivative", DERIVATIVES, |i| {
        format!("Derivative {i}")
    });
    let parents = make_members(&mut graph, NS, "parentGenre", PARENT_GENRES, |i| {
        format!("Parent Genre {i}")
    });
    let artists = make_members(&mut graph, NS, "artist", ARTISTS, |i| format!("Artist {i}"));
    let hometowns = make_members(&mut graph, NS, "hometown", HOMETOWNS, |i| {
        format!("Town {i}")
    });
    let countries = make_members(&mut graph, NS, "country", COUNTRIES, |i| {
        format!("Nation {i}")
    });
    let acts = make_members(&mut graph, NS, "associatedAct", ASSOCIATED_ACTS, |i| {
        format!("Act {i}")
    });
    let decades = make_members(&mut graph, NS, "activeDecade", ACTIVE_DECADES, |i| {
        format!("{}s", 1930 + 10 * i)
    });
    let labels = make_members(&mut graph, NS, "recordLabel", LABELS, |i| {
        format!("Label {i}")
    });
    let label_countries = make_members(&mut graph, NS, "labelCountry", LABEL_COUNTRIES, |i| {
        format!("Label Nation {i}")
    });
    // same lexical labels as the song-genre pool → cross-dimension keyword
    // ambiguity
    let label_genres = make_members(&mut graph, NS, "labelGenre", LABEL_GENRES, |i| {
        format!("Genre {i}")
    });
    let label_parents = make_members(
        &mut graph,
        NS,
        "labelParentGenre",
        LABEL_PARENT_GENRES,
        |i| format!("Parent Genre {i}"),
    );
    let founding = make_members(&mut graph, NS, "foundingDecade", FOUNDING_DECADES, |i| {
        format!("Founded {}s", 1900 + 10 * i)
    });
    let instruments = make_members(&mut graph, NS, "instrument", INSTRUMENTS, |i| {
        format!("Instrument {i}")
    });
    let families = make_members(&mut graph, NS, "family", FAMILIES, |i| {
        format!("Family {i}")
    });
    let instrument_origins = make_members(
        &mut graph,
        NS,
        "instrumentOrigin",
        INSTRUMENT_ORIGINS,
        |i| format!("Instrument Origin {i}"),
    );
    let classifications = make_members(&mut graph, NS, "classification", CLASSIFICATIONS, |i| {
        format!("Classification {i}")
    });
    let directors = make_members(&mut graph, NS, "director", DIRECTORS, |i| {
        format!("Director {i}")
    });
    let nationalities = make_members(&mut graph, NS, "nationality", NATIONALITIES, |i| {
        format!("Nationality {i}")
    });
    let movements = make_members(&mut graph, NS, "movement", MOVEMENTS, |i| {
        format!("Movement {i}")
    });
    let periods = make_members(&mut graph, NS, "period", PERIODS, |i| format!("Period {i}"));

    // hierarchy links — genre subtree is M-to-N
    let so = pred("stylisticOrigin");
    link_rollup(&mut graph, &genres, &origins, &so, Some(&mut rng));
    link_rollup(&mut graph, &origins, &eras, &pred("era"), None);
    let deriv = pred("derivative");
    link_rollup(&mut graph, &genres, &derivatives, &deriv, Some(&mut rng));
    let parent = pred("parentGenre");
    link_rollup(&mut graph, &genres, &parents, &parent, None);
    link_rollup(&mut graph, &artists, &hometowns, &pred("hometown"), None);
    link_rollup(&mut graph, &hometowns, &countries, &pred("country"), None);
    link_rollup(&mut graph, &artists, &acts, &pred("associatedAct"), None);
    link_rollup(&mut graph, &artists, &decades, &pred("activeDecade"), None);
    link_rollup(
        &mut graph,
        &labels,
        &label_countries,
        &pred("labelCountry"),
        None,
    );
    link_rollup(
        &mut graph,
        &labels,
        &label_genres,
        &pred("labelGenre"),
        Some(&mut rng),
    );
    link_rollup(
        &mut graph,
        &label_genres,
        &label_parents,
        &pred("labelParentGenre"),
        None,
    );
    link_rollup(
        &mut graph,
        &labels,
        &founding,
        &pred("foundingDecade"),
        None,
    );
    link_rollup(&mut graph, &instruments, &families, &pred("family"), None);
    link_rollup(
        &mut graph,
        &instruments,
        &instrument_origins,
        &pred("instrumentOrigin"),
        None,
    );
    link_rollup(
        &mut graph,
        &instruments,
        &classifications,
        &pred("classification"),
        None,
    );
    link_rollup(
        &mut graph,
        &directors,
        &nationalities,
        &pred("nationality"),
        None,
    );
    link_rollup(&mut graph, &directors, &movements, &pred("movement"), None);
    link_rollup(&mut graph, &movements, &periods, &pred("period"), None);

    // observations (songs)
    let type_id = graph.intern_iri(vocab::rdf::TYPE);
    let class_iri = format!("{NS}CreativeWork");
    let class_id = graph.intern_iri(&class_iri);
    let p_genre_id = graph.intern_iri(&p_genre);
    let p_artist_id = graph.intern_iri(&p_artist);
    let p_label_id = graph.intern_iri(&p_label);
    let p_instrument_id = graph.intern_iri(&p_instrument);
    let p_director_id = graph.intern_iri(&p_director);
    let p_measure_id = graph.intern_iri(&p_measure);
    for j in 0..observations {
        let obs = graph.intern_iri(format!("{NS}song/{j}"));
        graph.add(obs, type_id, class_id);
        // genre is multi-valued: 1–3 genres per song
        let first_genre = pick_member(j, GENRES, &mut rng);
        graph.add(obs, p_genre_id, genres.ids[first_genre]);
        for _ in 0..rng.gen_range(0..3) {
            let extra = rng.gen_range(0..GENRES);
            graph.add(obs, p_genre_id, genres.ids[extra]);
        }
        graph.add(
            obs,
            p_artist_id,
            artists.ids[pick_member(j, ARTISTS, &mut rng)],
        );
        graph.add(
            obs,
            p_label_id,
            labels.ids[pick_member(j, LABELS, &mut rng)],
        );
        graph.add(
            obs,
            p_instrument_id,
            instruments.ids[pick_member(j, INSTRUMENTS, &mut rng)],
        );
        graph.add(
            obs,
            p_director_id,
            directors.ids[pick_member(j, DIRECTORS, &mut rng)],
        );
        let value = graph.intern_literal(Literal::integer(rng.gen_range(1i64..1_000_000)));
        graph.add(obs, p_measure_id, value);
    }

    let _declared = (class_iri, rollup_preds);
    Dataset {
        graph: graph.finish(),
        ..describe(observations)
    }
}

/// The dataset's metadata — everything [`generate`] produces except the
/// graph itself. Used to re-attach a snapshot-loaded graph without
/// regenerating the data (see [`crate::cache`]).
pub fn describe(observations: usize) -> Dataset {
    let pred = |local: &str| format!("{NS}{local}");
    let rollup_locals = [
        "stylisticOrigin",
        "era",
        "derivative",
        "parentGenre",
        "hometown",
        "country",
        "associatedAct",
        "activeDecade",
        "labelCountry",
        "labelGenre",
        "labelParentGenre",
        "foundingDecade",
        "family",
        "instrumentOrigin",
        "classification",
        "nationality",
        "movement",
        "period",
    ];
    Dataset {
        name: "dbpedia".to_owned(),
        graph: Graph::new(),
        observation_class: format!("{NS}CreativeWork"),
        observations,
        dimension_predicates: vec![
            pred("genre"),
            pred("artist"),
            pred("recordLabel"),
            pred("instrument"),
            pred("director"),
        ],
        rollup_predicates: rollup_locals.iter().map(|l| pred(l)).collect(),
        label_predicate: vocab::rdfs::LABEL.to_owned(),
        expected: ExpectedShape {
            dimensions: 5,
            measures: 1,
            levels: 23,
            members: total_members(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_arithmetic_matches_table3() {
        assert_eq!(total_members(), 87_160);
    }

    #[test]
    fn songs_have_multivalued_genres() {
        let d = generate(300, 11);
        let g = &d.graph;
        let genre = g.iri_id(&format!("{NS}genre")).expect("pred");
        let multi = (0..300)
            .filter(|j| {
                let song = g.iri_id(&format!("{NS}song/{j}")).expect("song");
                g.objects(song, genre).len() > 1
            })
            .count();
        assert!(multi > 50, "many songs carry several genres, got {multi}");
    }

    #[test]
    fn genre_labels_are_shared_across_dimensions() {
        let d = generate(50, 11);
        let g = &d.graph;
        // the lexical label "Genre 0" names two distinct member IRIs
        let hits = g.literals_matching_exact("Genre 0");
        assert_eq!(hits.len(), 1, "one literal term");
        let lit = hits[0];
        let mut subjects = Vec::new();
        g.for_each_matching(None, None, Some(lit), |t| subjects.push(t.s));
        assert_eq!(subjects.len(), 2, "song-genre and label-genre members");
    }

    #[test]
    fn level_tree_has_23_levels_and_14_leaves_by_construction() {
        // (structural bookkeeping: 5 bases + 18 roll-up level names, of
        // which 14 are leaves; verified at bootstrap time in the
        // integration suite)
        let bases = 5;
        let rollup_levels = 18;
        assert_eq!(bases + rollup_levels, 23);
    }
}
