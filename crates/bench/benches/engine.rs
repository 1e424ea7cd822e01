//! Micro-benchmarks of the SPARQL engine on a Figure 2-shaped star schema:
//! parsing, planning+execution of aggregation queries, filters, and
//! `ASK`. (Moved here from `crates/sparql` so bench deps stay out of
//! library crates.)

use re2x_bench::micro::Group;
use re2x_datagen::prng::StdRng;
use re2x_rdf::{Graph, Literal};
use re2x_sparql::{evaluate, parse_query};

const OBS: usize = 20_000;

fn build_graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(7);
    let mut g = Graph::new();
    let dest_p = g.intern_iri("http://ex/dest");
    let origin_p = g.intern_iri("http://ex/origin");
    let continent_p = g.intern_iri("http://ex/inContinent");
    let value_p = g.intern_iri("http://ex/value");
    let continents: Vec<_> = (0..5)
        .map(|i| g.intern_iri(format!("http://ex/continent/{i}")))
        .collect();
    let origins: Vec<_> = (0..150)
        .map(|i| {
            let m = g.intern_iri(format!("http://ex/origin/{i}"));
            g.insert_ids(m, continent_p, continents[i % 5]);
            m
        })
        .collect();
    let dests: Vec<_> = (0..30)
        .map(|i| g.intern_iri(format!("http://ex/dest/{i}")))
        .collect();
    for j in 0..OBS {
        let obs = g.intern_iri(format!("http://ex/obs/{j}"));
        g.insert_ids(obs, dest_p, dests[rng.gen_range(0..dests.len())]);
        g.insert_ids(obs, origin_p, origins[rng.gen_range(0..origins.len())]);
        let v = g.intern_literal(Literal::integer(rng.gen_range(1i64..5_000)));
        g.insert_ids(obs, value_p, v);
    }
    g
}

const FIG2: &str = "SELECT ?c ?d (SUM(?v) AS ?total) WHERE {
    ?o <http://ex/origin> / <http://ex/inContinent> ?c .
    ?o <http://ex/dest> ?d .
    ?o <http://ex/value> ?v .
} GROUP BY ?c ?d";

fn main() {
    let g = build_graph();
    let group = Group::new("engine");

    group.bench("parse_fig2_query", || parse_query(FIG2).expect("parses"));

    let fig2 = parse_query(FIG2).expect("parses");
    group.bench("fig2_aggregation_20k_obs", || {
        evaluate(&g, &fig2).expect("runs")
    });

    let selective = parse_query(
        "SELECT ?o ?v WHERE {
            ?o <http://ex/dest> <http://ex/dest/3> .
            ?o <http://ex/value> ?v .
            FILTER(?v > 4000)
        }",
    )
    .expect("parses");
    group.bench("selective_filter_query", || {
        evaluate(&g, &selective).expect("runs")
    });

    let having = parse_query(
        "SELECT ?d (SUM(?v) AS ?t) WHERE {
            ?o <http://ex/dest> ?d . ?o <http://ex/value> ?v
        } GROUP BY ?d HAVING(SUM(?v) > 100000) ORDER BY DESC(?t) LIMIT 5",
    )
    .expect("parses");
    group.bench("having_order_limit", || {
        evaluate(&g, &having).expect("runs")
    });

    let ask = parse_query("ASK { ?o <http://ex/dest> <http://ex/dest/7> }").expect("parses");
    group.bench("ask_short_circuits", || {
        re2x_sparql::evaluate_ask(&g, &ask).expect("runs")
    });
}
