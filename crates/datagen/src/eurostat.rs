//! The Eurostat-shaped generator: asylum applications.
//!
//! Reproduces the Table 3 row exactly: 4 dimensions, 1 measure, 9 levels,
//! 373 dimension members:
//!
//! * `sex` — 1 level × 3 members,
//! * `citizen` ("Country of Origin") — country (171) with two parallel
//!   roll-ups: `inContinent` (7) and `inRegion` (23),
//! * `geo` ("Country of Destination") — 32 of the *same* country entities
//!   (Eurostat reuses country IRIs across roles, which is what makes
//!   examples like "Germany" ambiguous), whose roll-ups reach 2 continents
//!   and 5 regions,
//! * `refPeriod` — month (120) rolling up to year (10).
//!
//! 3 + (171+7+23) + (32+2+5) + (120+10) = 373.

use crate::common::{
    declare_predicate, make_members, pick_member, rng, Builder, Dataset, ExpectedShape, MemberPool,
};
use re2x_rdf::{vocab, Graph, Literal};

const NS: &str = "http://data.example.org/eurostat/";

/// Countries eligible as destinations (their region index is in
/// [`DEST_REGIONS`]); named after EU member states for recognizable
/// examples.
const DEST_NAMES: [&str; 32] = [
    "Germany",
    "France",
    "Italy",
    "Austria",
    "Sweden",
    "Spain",
    "Portugal",
    "Netherlands",
    "Belgium",
    "Greece",
    "Poland",
    "Czechia",
    "Hungary",
    "Romania",
    "Bulgaria",
    "Croatia",
    "Slovenia",
    "Slovakia",
    "Denmark",
    "Finland",
    "Ireland",
    "Luxembourg",
    "Malta",
    "Cyprus",
    "Estonia",
    "Latvia",
    "Lithuania",
    "Norway",
    "Switzerland",
    "Iceland",
    "Liechtenstein",
    "Albania",
];

/// Common origin-country names for the remaining pool.
const ORIGIN_NAMES: [&str; 12] = [
    "Syria",
    "Afghanistan",
    "Iraq",
    "Eritrea",
    "Nigeria",
    "Pakistan",
    "Somalia",
    "Iran",
    "Ukraine",
    "Russia",
    "China",
    "Bangladesh",
];

const CONTINENTS: [&str; 7] = [
    "Europe",
    "Asia",
    "Africa",
    "Americas",
    "Oceania",
    "Middle East",
    "Caribbean",
];

const MONTH_NAMES: [&str; 12] = [
    "January",
    "February",
    "March",
    "April",
    "May",
    "June",
    "July",
    "August",
    "September",
    "October",
    "November",
    "December",
];

const COUNTRIES: usize = 171;
const REGIONS: usize = 23;
/// Regions whose countries may be destinations; they map onto exactly two
/// continents (`r % 7 ∈ {0, 1}`).
const DEST_REGIONS: [usize; 5] = [0, 1, 7, 8, 14];
const MONTHS: usize = 120;
const YEARS: usize = 10;
const FIRST_YEAR: usize = 2010;

/// The destination-eligible country indexes, ascending (first 32).
fn dest_indices() -> Vec<usize> {
    (0..COUNTRIES)
        .filter(|i| DEST_REGIONS.contains(&(i % REGIONS)))
        .take(32)
        .collect()
}

fn country_label(i: usize, dest_rank: Option<usize>) -> String {
    if let Some(rank) = dest_rank {
        return DEST_NAMES[rank].to_owned();
    }
    if let Some(name) = ORIGIN_NAMES.get(i % 29) {
        // scatter the recognizable origin names over low indexes only once
        if i < 29 {
            return (*name).to_owned();
        }
    }
    format!("Country {i}")
}

/// Generates the dataset at the given observation scale. Member counts are
/// exact whenever `observations ≥ 171` (the largest base pool).
pub fn generate(observations: usize, seed: u64) -> Dataset {
    let mut graph = Builder::new();
    let mut rng = rng(seed);

    // predicates
    let p_sex = declare_predicate(&mut graph, NS, "sex", "Sex");
    let p_citizen = declare_predicate(&mut graph, NS, "citizen", "Country of Origin");
    let p_geo = declare_predicate(&mut graph, NS, "geo", "Country of Destination");
    let p_period = declare_predicate(&mut graph, NS, "refPeriod", "Ref Period");
    let p_continent = declare_predicate(&mut graph, NS, "inContinent", "In Continent");
    let p_region = declare_predicate(&mut graph, NS, "inRegion", "In Region");
    let p_year = declare_predicate(&mut graph, NS, "inYear", "In Year");
    let p_measure = declare_predicate(&mut graph, NS, "numApplicants", "Num Applicants");

    // members
    let dest = dest_indices();
    let countries = make_members(&mut graph, NS, "country", COUNTRIES, |i| {
        country_label(i, dest.iter().position(|&d| d == i))
    });
    let continents = make_members(&mut graph, NS, "continent", CONTINENTS.len(), |i| {
        CONTINENTS[i].to_owned()
    });
    let regions = make_members(&mut graph, NS, "region", REGIONS, |i| format!("Region {i}"));
    let sexes = make_members(&mut graph, NS, "sex", 3, |i| {
        ["Male", "Female", "Total"][i].to_owned()
    });
    let months = make_members(&mut graph, NS, "month", MONTHS, |i| {
        format!("{} {}", MONTH_NAMES[i % 12], FIRST_YEAR + i / 12)
    });
    let years = make_members(&mut graph, NS, "year", YEARS, |i| {
        format!("{}", FIRST_YEAR + i)
    });

    // hierarchy links: country → region → (derived) continent; both are
    // direct roll-ups of the country level (parallel hierarchies)
    {
        let p_region_id = graph.intern_iri(&p_region);
        let p_continent_id = graph.intern_iri(&p_continent);
        for (i, &c) in countries.ids.iter().enumerate() {
            let region = i % REGIONS;
            graph.add(c, p_region_id, regions.ids[region]);
            graph.add(c, p_continent_id, continents.ids[region % 7]);
        }
        let p_year_id = graph.intern_iri(&p_year);
        for (i, &m) in months.ids.iter().enumerate() {
            graph.add(m, p_year_id, years.ids[i / 12]);
        }
    }

    // observations
    let type_id = graph.intern_iri(vocab::rdf::TYPE);
    let class_iri = vocab::qb::OBSERVATION.to_owned();
    let class_id = graph.intern_iri(&class_iri);
    let p_sex_id = graph.intern_iri(&p_sex);
    let p_citizen_id = graph.intern_iri(&p_citizen);
    let p_geo_id = graph.intern_iri(&p_geo);
    let p_period_id = graph.intern_iri(&p_period);
    let p_measure_id = graph.intern_iri(&p_measure);
    for j in 0..observations {
        let obs = graph.intern_iri(format!("{NS}obs/{j}"));
        graph.add(obs, type_id, class_id);
        graph.add(obs, p_sex_id, sexes.ids[pick_member(j, 3, &mut rng)]);
        graph.add(
            obs,
            p_citizen_id,
            countries.ids[pick_member(j, COUNTRIES, &mut rng)],
        );
        graph.add(
            obs,
            p_geo_id,
            countries.ids[dest[pick_member(j, dest.len(), &mut rng)]],
        );
        graph.add(
            obs,
            p_period_id,
            months.ids[pick_member(j, MONTHS, &mut rng)],
        );
        let value = graph.intern_literal(Literal::integer(rng.gen_range(1i64..3000)));
        graph.add(obs, p_measure_id, value);
    }

    let _unused: &MemberPool = &sexes;
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
    Dataset {
        name: "eurostat".to_owned(),
        graph: Graph::new(),
        observation_class: vocab::qb::OBSERVATION.to_owned(),
        observations,
        dimension_predicates: vec![pred("sex"), pred("citizen"), pred("geo"), pred("refPeriod")],
        rollup_predicates: vec![pred("inContinent"), pred("inRegion"), pred("inYear")],
        label_predicate: vocab::rdfs::LABEL.to_owned(),
        expected: ExpectedShape {
            dimensions: 4,
            measures: 1,
            levels: 9,
            members: 373,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_indices_shape() {
        let dest = dest_indices();
        assert_eq!(dest.len(), 32);
        // exactly 5 regions, exactly 2 continents
        let regions: std::collections::BTreeSet<usize> = dest.iter().map(|i| i % REGIONS).collect();
        assert_eq!(regions.len(), 5);
        let continents: std::collections::BTreeSet<usize> = regions.iter().map(|r| r % 7).collect();
        assert_eq!(continents.len(), 2);
        // Germany is a destination
        assert_eq!(dest[0], 0);
    }

    #[test]
    fn member_arithmetic_matches_table3() {
        // 3 + (171+7+23) + (32+2+5) + (120+10) = 373
        assert_eq!(3 + (171 + 7 + 23) + (32 + 2 + 5) + (120 + 10), 373);
    }

    #[test]
    fn small_scale_generation_is_well_formed() {
        let d = generate(200, 42);
        assert_eq!(d.observations, 200);
        let g = &d.graph;
        let type_p = g.iri_id(vocab::rdf::TYPE).expect("typed");
        let class = g.iri_id(&d.observation_class).expect("class");
        assert_eq!(g.subjects(type_p, class).len(), 200);
        // every observation has all four dimensions and the measure
        let obs0 = g.iri_id(&format!("{NS}obs/0")).expect("obs");
        for p in &d.dimension_predicates {
            let pid = g.iri_id(p).expect("dim pred");
            assert_eq!(g.objects(obs0, pid).len(), 1);
        }
        let m = g.iri_id(&format!("{NS}numApplicants")).expect("measure");
        let v = g.objects(obs0, m)[0];
        assert!(g.numeric_value(v).is_some());
        // Germany occurs with label
        assert_eq!(g.literals_matching_exact("Germany").len(), 1);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(150, 7);
        let b = generate(150, 7);
        assert_eq!(a.graph.len(), b.graph.len());
        assert_eq!(
            re2x_rdf::io::to_ntriples(&a.graph),
            re2x_rdf::io::to_ntriples(&b.graph)
        );
    }
}
