//! The generators bulk-build their graphs with `Graph::extend_ids`. For
//! each of the four, at a small size, the snapshot bytes of the generated
//! graph must equal those of an oracle that replays the same triples, one
//! `insert_ids` at a time in reverse enumeration order, onto a
//! `term_shell` of it — same terms, same text index, indexes and
//! statistics built the per-triple way.

use re2x_datagen::cache::generate_named;
use re2x_rdf::Graph;

fn snapshot_bytes(graph: &Graph, tag: &str) -> Vec<u8> {
    let path =
        std::env::temp_dir().join(format!("re2x-bulk-build-{tag}-{}.snap", std::process::id()));
    graph.write_snapshot(&path, "bulk-build").expect("write");
    let bytes = std::fs::read(&path).expect("read");
    let _ = std::fs::remove_file(&path);
    bytes
}

#[test]
fn generated_snapshots_equal_the_per_triple_oracle() {
    for (name, observations) in [
        ("running-example", 0),
        ("eurostat", 300),
        ("production", 200),
        ("dbpedia", 150),
    ] {
        let dataset = generate_named(name, observations, 5).expect("known dataset");
        let generated = &dataset.graph;
        let mut oracle = generated.term_shell();
        let mut triples = generated.iter();
        triples.reverse();
        for t in &triples {
            assert!(oracle.insert_ids(t.s, t.p, t.o), "{name}: duplicate {t:?}");
        }
        assert_eq!(oracle.len(), generated.len(), "{name}");
        let (bulk, replayed) = (
            snapshot_bytes(generated, &format!("{name}-bulk")),
            snapshot_bytes(&oracle, &format!("{name}-oracle")),
        );
        assert!(bulk == replayed, "{name}: snapshot bytes differ");
    }
}
