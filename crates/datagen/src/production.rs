//! The Production-shaped generator: macro-economic production accounts
//! (materials, energy, monetary production across countries and
//! industries).
//!
//! Reproduces the Table 3 row exactly: 7 dimensions, 1 measure, 9 levels,
//! 6 444 dimension members:
//!
//! * `area` — 43 countries (1 level),
//! * `industry` — 160 industries → 11 sectors,
//! * `product` — 6 153 products → 24 categories (product classifications
//!   dominate the member count, as in the real LCA data),
//! * `flow` — 5 flow types,
//! * `year` — 30 years,
//! * `scenario` — 8 scenarios,
//! * `unit` — 10 units.
//!
//! 43 + (160+11) + (6153+24) + 5 + 30 + 8 + 10 = 6 444.

use crate::common::{
    declare_predicate, link_rollup, make_members, pick_member, rng, Builder, Dataset, ExpectedShape,
};
use re2x_rdf::{vocab, Graph, Literal};

const NS: &str = "http://data.example.org/production/";

const AREAS: usize = 43;
const INDUSTRIES: usize = 160;
const SECTORS: usize = 11;
const PRODUCTS: usize = 6153;
const CATEGORIES: usize = 24;
const FLOWS: usize = 5;
const YEARS: usize = 30;
const FIRST_YEAR: usize = 1990;
const SCENARIOS: usize = 8;
const UNITS: usize = 10;

const AREA_NAMES: [&str; 8] = [
    "China",
    "United States",
    "Germany",
    "Japan",
    "India",
    "Brazil",
    "Denmark",
    "Norway",
];
const FLOW_NAMES: [&str; FLOWS] = ["Domestic", "Import", "Export", "Re-export", "Transit"];
const UNIT_NAMES: [&str; UNITS] = [
    "Tonnes",
    "Kilograms",
    "Megajoules",
    "Kilowatt Hours",
    "Euros",
    "Dollars",
    "Cubic Metres",
    "Litres",
    "Hectares",
    "Hours",
];

/// Generates the dataset. Member counts are exact whenever
/// `observations ≥ 6153` (the product pool).
pub fn generate(observations: usize, seed: u64) -> Dataset {
    let mut graph = Builder::new();
    let mut rng = rng(seed);

    let p_area = declare_predicate(&mut graph, NS, "area", "Reference Area");
    let p_industry = declare_predicate(&mut graph, NS, "industry", "Industry");
    let p_product = declare_predicate(&mut graph, NS, "product", "Product");
    let p_flow = declare_predicate(&mut graph, NS, "flow", "Flow Type");
    let p_year = declare_predicate(&mut graph, NS, "year", "Year");
    let p_scenario = declare_predicate(&mut graph, NS, "scenario", "Scenario");
    let p_unit = declare_predicate(&mut graph, NS, "unit", "Unit");
    let p_sector = declare_predicate(&mut graph, NS, "inSector", "In Sector");
    let p_category = declare_predicate(&mut graph, NS, "inCategory", "In Category");
    let p_measure = declare_predicate(&mut graph, NS, "amount", "Production Amount");

    let areas = make_members(&mut graph, NS, "area", AREAS, |i| {
        AREA_NAMES
            .get(i)
            .map_or_else(|| format!("Area {i}"), |n| (*n).to_owned())
    });
    let industries = make_members(&mut graph, NS, "industry", INDUSTRIES, |i| {
        format!("Industry {i}")
    });
    let sectors = make_members(&mut graph, NS, "sector", SECTORS, |i| format!("Sector {i}"));
    let products = make_members(&mut graph, NS, "product", PRODUCTS, |i| {
        format!("Product {i}")
    });
    let categories = make_members(&mut graph, NS, "category", CATEGORIES, |i| {
        format!("Category {i}")
    });
    let flows = make_members(&mut graph, NS, "flow", FLOWS, |i| FLOW_NAMES[i].to_owned());
    let years = make_members(&mut graph, NS, "year", YEARS, |i| {
        format!("{}", FIRST_YEAR + i)
    });
    let scenarios = make_members(&mut graph, NS, "scenario", SCENARIOS, |i| {
        format!("Scenario {i}")
    });
    let units = make_members(&mut graph, NS, "unit", UNITS, |i| UNIT_NAMES[i].to_owned());

    link_rollup(&mut graph, &industries, &sectors, &p_sector, None);
    link_rollup(&mut graph, &products, &categories, &p_category, None);

    let type_id = graph.intern_iri(vocab::rdf::TYPE);
    let class_iri = vocab::qb::OBSERVATION.to_owned();
    let class_id = graph.intern_iri(&class_iri);
    let dims = [
        (graph.intern_iri(&p_area), &areas),
        (graph.intern_iri(&p_industry), &industries),
        (graph.intern_iri(&p_product), &products),
        (graph.intern_iri(&p_flow), &flows),
        (graph.intern_iri(&p_year), &years),
        (graph.intern_iri(&p_scenario), &scenarios),
        (graph.intern_iri(&p_unit), &units),
    ];
    let p_measure_id = graph.intern_iri(&p_measure);
    for j in 0..observations {
        let obs = graph.intern_iri(format!("{NS}obs/{j}"));
        graph.add(obs, type_id, class_id);
        for (pred, pool) in dims {
            let member = pool.ids[pick_member(j, pool.len(), &mut rng)];
            graph.add(obs, pred, member);
        }
        let value = graph.intern_literal(Literal::double(rng.gen_range(0.1..100_000.0)));
        graph.add(obs, p_measure_id, value);
    }

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
        name: "production".to_owned(),
        graph: Graph::new(),
        observation_class: vocab::qb::OBSERVATION.to_owned(),
        observations,
        dimension_predicates: vec![
            pred("area"),
            pred("industry"),
            pred("product"),
            pred("flow"),
            pred("year"),
            pred("scenario"),
            pred("unit"),
        ],
        rollup_predicates: vec![pred("inSector"), pred("inCategory")],
        label_predicate: vocab::rdfs::LABEL.to_owned(),
        expected: ExpectedShape {
            dimensions: 7,
            measures: 1,
            levels: 9,
            members: 6444,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_arithmetic_matches_table3() {
        assert_eq!(
            AREAS
                + (INDUSTRIES + SECTORS)
                + (PRODUCTS + CATEGORIES)
                + FLOWS
                + YEARS
                + SCENARIOS
                + UNITS,
            6444
        );
    }

    #[test]
    fn observation_has_all_seven_dimensions() {
        let d = generate(50, 3);
        let g = &d.graph;
        let obs = g.iri_id(&format!("{NS}obs/7")).expect("obs");
        assert_eq!(d.dimension_predicates.len(), 7);
        for p in &d.dimension_predicates {
            let pid = g.iri_id(p).expect("pred");
            assert_eq!(g.objects(obs, pid).len(), 1, "{p}");
        }
    }

    #[test]
    fn rollups_connect_both_hierarchies() {
        let d = generate(20, 3);
        let g = &d.graph;
        let sector = g.iri_id(&format!("{NS}inSector")).expect("pred");
        assert_eq!(g.predicate_cardinality(sector), INDUSTRIES);
        let category = g.iri_id(&format!("{NS}inCategory")).expect("pred");
        assert_eq!(g.predicate_cardinality(category), PRODUCTS);
    }
}
