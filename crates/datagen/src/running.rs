//! The paper's running example (Figure 1): a small, hand-crafted
//! "Requests for Asylum" KG whose aggregates reproduce Table 2 exactly —
//! `⟨"Germany", "2014"⟩` interpreted as Country of Destination × Year
//! yields SUM(Num Applicants) of 8 030 for Germany, 5 011 for France,
//! 1 220 for Italy and 120 for Austria.

use crate::common::{declare_predicate, Builder, Dataset, ExpectedShape};
use re2x_rdf::{vocab, Graph, Literal};

const NS: &str = "http://data.example.org/asylum/";

/// Per-(destination, origin) applicant counts for 2014 (October), summing
/// to the Table 2 values per destination, plus a smaller 2013 slice so
/// drill-downs by year have something to show.
const FLOWS_2014: [(&str, &str, i64); 16] = [
    ("Germany", "Syria", 4000),
    ("Germany", "Iraq", 2500),
    ("Germany", "Afghanistan", 1500),
    ("Germany", "Ukraine", 30),
    ("France", "Syria", 2511),
    ("France", "Iraq", 1300),
    ("France", "Afghanistan", 1100),
    ("France", "Ukraine", 100),
    ("Italy", "Syria", 700),
    ("Italy", "Iraq", 300),
    ("Italy", "Afghanistan", 200),
    ("Italy", "Ukraine", 20),
    ("Austria", "Syria", 60),
    ("Austria", "Iraq", 30),
    ("Austria", "Afghanistan", 20),
    ("Austria", "Ukraine", 10),
];

const FLOWS_2013: [(&str, &str, i64); 6] = [
    ("Germany", "Syria", 2000),
    ("Germany", "Iraq", 900),
    ("France", "Syria", 1400),
    ("France", "Iraq", 500),
    ("Italy", "Syria", 350),
    ("Austria", "Syria", 25),
];

/// Origin country → continent.
const CONTINENT_OF: [(&str, &str); 4] = [
    ("Syria", "Asia"),
    ("Iraq", "Asia"),
    ("Afghanistan", "Asia"),
    ("Ukraine", "Europe"),
];

/// Builds the running-example dataset (Figure 1 / Table 2).
pub fn generate() -> Dataset {
    let mut graph = Builder::new();

    let p_dest = declare_predicate(
        &mut graph,
        NS,
        "countryDestination",
        "Country of Destination",
    );
    let p_origin = declare_predicate(&mut graph, NS, "countryOrigin", "Country of Origin");
    let p_period = declare_predicate(&mut graph, NS, "refPeriod", "Ref Period");
    let p_sex = declare_predicate(&mut graph, NS, "sex", "Sex");
    let p_age = declare_predicate(&mut graph, NS, "ageRange", "Age Range");
    let p_continent = declare_predicate(&mut graph, NS, "inContinent", "In Continent");
    let p_year = declare_predicate(&mut graph, NS, "inYear", "In Year");
    let p_measure = declare_predicate(&mut graph, NS, "numApplicants", "Num Applicants");

    let label = graph.intern_iri(vocab::rdfs::LABEL);
    let member = |graph: &mut Builder, local: &str, name: &str| {
        let id = graph.intern_iri(format!("{NS}member/{local}"));
        let lit = graph.intern_literal(Literal::simple(name));
        graph.add(id, label, lit);
        id
    };

    // dimension members
    let continent_pred = graph.intern_iri(&p_continent);
    for (country, continent) in CONTINENT_OF {
        let c = member(&mut graph, &format!("country/{country}"), country);
        let k = member(&mut graph, &format!("continent/{continent}"), continent);
        graph.add(c, continent_pred, k);
    }
    for dest in ["Germany", "France", "Italy", "Austria"] {
        member(&mut graph, &format!("country/{dest}"), dest);
    }
    let year_pred = graph.intern_iri(&p_year);
    for year in ["2013", "2014"] {
        let y = member(&mut graph, &format!("year/{year}"), year);
        let m = member(
            &mut graph,
            &format!("month/October{year}"),
            &format!("October {year}"),
        );
        graph.add(m, year_pred, y);
    }
    for sex in ["Male", "Female"] {
        member(&mut graph, &format!("sex/{sex}"), sex);
    }
    for age in ["0-17", "18-34", "35-64", "65+"] {
        member(&mut graph, &format!("age/{age}"), age);
    }

    // observations — one per (dest, origin, year); sex/age alternate so
    // those dimensions are populated but do not split the Table 2 sums
    // (each observation carries the full flow, sex="Male"/"Female"
    // alternating would split sums, so every observation uses one member).
    let type_id = graph.intern_iri(vocab::rdf::TYPE);
    let class_iri = vocab::qb::OBSERVATION.to_owned();
    let class_id = graph.intern_iri(&class_iri);
    let dest_id = graph.intern_iri(&p_dest);
    let origin_id = graph.intern_iri(&p_origin);
    let period_id = graph.intern_iri(&p_period);
    let sex_id = graph.intern_iri(&p_sex);
    let age_id = graph.intern_iri(&p_age);
    let measure_id = graph.intern_iri(&p_measure);

    let mut observations = 0usize;
    let mut add_flows = |graph: &mut Builder, flows: &[(&str, &str, i64)], year: &str| {
        for (i, (dest, origin, value)) in flows.iter().enumerate() {
            let obs = graph.intern_iri(format!("{NS}obs/{year}/{i}"));
            graph.add(obs, type_id, class_id);
            // interning is idempotent: these members were declared above,
            // so each call returns the existing id
            let dest_m = graph.intern_iri(format!("{NS}member/country/{dest}"));
            let origin_m = graph.intern_iri(format!("{NS}member/country/{origin}"));
            let month_m = graph.intern_iri(format!("{NS}member/month/October{year}"));
            let sex_m = graph.intern_iri(format!("{NS}member/sex/{}", ["Male", "Female"][i % 2]));
            let age_m = graph.intern_iri(format!(
                "{NS}member/age/{}",
                ["0-17", "18-34", "35-64", "65+"][i % 4]
            ));
            graph.add(obs, dest_id, dest_m);
            graph.add(obs, origin_id, origin_m);
            graph.add(obs, period_id, month_m);
            graph.add(obs, sex_id, sex_m);
            graph.add(obs, age_id, age_m);
            let v = graph.intern_literal(Literal::integer(*value));
            graph.add(obs, measure_id, v);
            observations += 1;
        }
    };
    add_flows(&mut graph, &FLOWS_2014, "2014");
    add_flows(&mut graph, &FLOWS_2013, "2013");

    // a label on the observation class itself, as real QB data has
    let class_label = graph.intern_literal(Literal::simple("Observation"));
    graph.add(class_id, label, class_label);

    debug_assert_eq!(observations, FLOWS_2014.len() + FLOWS_2013.len());
    Dataset {
        graph: graph.finish(),
        ..describe()
    }
}

/// The dataset's metadata — everything [`generate`] produces except the
/// graph itself. Used to re-attach a snapshot-loaded graph without
/// regenerating the data (see [`crate::cache`]).
pub fn describe() -> Dataset {
    let pred = |local: &str| format!("{NS}{local}");
    Dataset {
        name: "running-example".to_owned(),
        graph: Graph::new(),
        observation_class: vocab::qb::OBSERVATION.to_owned(),
        observations: FLOWS_2014.len() + FLOWS_2013.len(),
        dimension_predicates: vec![
            pred("countryDestination"),
            pred("countryOrigin"),
            pred("refPeriod"),
            pred("sex"),
            pred("ageRange"),
        ],
        rollup_predicates: vec![pred("inContinent"), pred("inYear")],
        label_predicate: vocab::rdfs::LABEL.to_owned(),
        expected: ExpectedShape {
            dimensions: 5,
            measures: 1,
            // dest(1) + origin(country→continent: 2) + refPeriod(month→year: 2)
            // + sex(1) + age(1)
            levels: 7,
            // dest countries 4 + origin countries 4 + continents 2 +
            // months 2 + years 2 + sexes 2 + ages 4
            members: 20,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_sums_are_encoded() {
        let per_dest = |flows: &[(&str, &str, i64)], dest: &str| -> i64 {
            flows.iter().filter(|f| f.0 == dest).map(|f| f.2).sum()
        };
        assert_eq!(per_dest(&FLOWS_2014, "Germany"), 8030);
        assert_eq!(per_dest(&FLOWS_2014, "France"), 5011);
        assert_eq!(per_dest(&FLOWS_2014, "Italy"), 1220);
        assert_eq!(per_dest(&FLOWS_2014, "Austria"), 120);
    }

    #[test]
    fn dataset_builds_and_links_hierarchies() {
        let d = generate();
        assert_eq!(d.observations, 22);
        let g = &d.graph;
        let syria = g
            .iri_id(&format!("{NS}member/country/Syria"))
            .expect("syria");
        let cont = g.iri_id(&format!("{NS}inContinent")).expect("pred");
        let asia = g.objects(syria, cont);
        assert_eq!(asia.len(), 1);
        // Germany is never an origin here but is a destination
        let germany = g
            .iri_id(&format!("{NS}member/country/Germany"))
            .expect("germany");
        let dest = g.iri_id(&format!("{NS}countryDestination")).expect("pred");
        assert!(!g.subjects(dest, germany).is_empty());
    }
}
