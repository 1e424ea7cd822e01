//! Property suite: `write_snapshot → load_snapshot` is the identity on
//! graphs — same triples in the same iteration order, same interning order
//! (so ids are interchangeable), same predicate statistics, same text-index
//! hits — including graphs that saw removals (orphaned literals stay
//! unindexed across the round-trip).

mod common;

use common::{assert_graphs_identical, tmp_path};
use re2x_rdf::{load_shard_snapshot, partition_observations, Graph, Literal, Term};
use re2x_testkit::{check, TestRng};

const IRI_ALPHABET: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.#/:-";

fn gen_iri(rng: &mut TestRng) -> Term {
    Term::iri(format!(
        "http://ex/{}",
        rng.string_from(IRI_ALPHABET, 1..20)
    ))
}

fn gen_term(rng: &mut TestRng) -> Term {
    match rng.pick_weighted(&[4, 1, 2, 1, 1]) {
        0 => gen_iri(rng),
        1 => Term::blank(rng.string_from("abcdef0123456789", 1..9)),
        2 => Term::from(Literal::simple(rng.string_from(IRI_ALPHABET, 0..12))),
        3 => Term::from(Literal::integer(rng.next_u64() as i64)),
        _ => Term::from(Literal::tagged(
            rng.string_from(IRI_ALPHABET, 1..8),
            rng.string_from("abcdefghijklmnopqrstuvwxyz", 2..3),
        )),
    }
}

/// A random graph that exercises interning order, duplicate inserts and
/// removals (so text-index orphaning is part of the round-tripped state).
fn gen_graph(rng: &mut TestRng) -> Graph {
    let mut graph = Graph::new();
    let mut triples = Vec::new();
    for _ in 0..rng.gen_range(0usize..60) {
        let (s, p, o) = (gen_iri(rng), gen_iri(rng), gen_term(rng));
        graph.insert(s.clone(), p.clone(), o.clone());
        triples.push((s, p, o));
    }
    // remove a few, sometimes orphaning literals out of the text index
    for _ in 0..rng.gen_range(0usize..8) {
        if triples.is_empty() {
            break;
        }
        let (s, p, o) = triples.remove(rng.gen_range(0usize..triples.len()));
        let (Some(s), Some(p), Some(o)) = (graph.term_id(&s), graph.term_id(&p), graph.term_id(&o))
        else {
            continue;
        };
        graph.remove_ids(s, p, o);
    }
    graph
}

#[test]
fn snapshot_round_trips_random_graphs() {
    check("snapshot_round_trips_random_graphs", |rng| {
        let graph = gen_graph(rng);
        let path = tmp_path(&format!("prop-{}", rng.next_u64()));
        graph
            .write_snapshot(&path, "prop/roundtrip")
            .expect("write snapshot");
        let loaded = Graph::load_snapshot(&path, Some("prop/roundtrip")).expect("load snapshot");
        let _ = std::fs::remove_file(&path);
        assert_graphs_identical(&graph, &loaded);
    });
}

#[test]
fn snapshot_round_trips_empty_graph() {
    let graph = Graph::new();
    let path = tmp_path("empty");
    graph.write_snapshot(&path, "empty").expect("write");
    let loaded = Graph::load_snapshot(&path, Some("empty")).expect("load");
    let _ = std::fs::remove_file(&path);
    assert_graphs_identical(&graph, &loaded);
}

/// A loaded snapshot is a fully live graph: further inserts and removals
/// keep every invariant (they go through the normal mutation paths).
#[test]
fn loaded_snapshot_stays_mutable() {
    check("loaded_snapshot_stays_mutable", |rng| {
        let graph = gen_graph(rng);
        let path = tmp_path(&format!("mut-{}", rng.next_u64()));
        graph.write_snapshot(&path, "prop/mutable").expect("write");
        let mut loaded = Graph::load_snapshot(&path, Some("prop/mutable")).expect("load");
        let _ = std::fs::remove_file(&path);
        let mut reference = graph.clone();
        for _ in 0..10 {
            let (s, p, o) = (gen_iri(rng), gen_iri(rng), gen_term(rng));
            assert_eq!(
                reference.insert(s.clone(), p.clone(), o.clone()),
                loaded.insert(s, p, o)
            );
        }
        assert_graphs_identical(&reference, &loaded);
    });
}

/// A shard loaded from its snapshot is byte-identical to the shard
/// partitioned in memory, for every shard of every shard count tried.
#[test]
fn shard_snapshots_match_in_memory_partitions() {
    check("shard_snapshots_match_in_memory_partitions", |rng| {
        use re2x_rdf::vocab::{qb, rdf};
        let mut graph = Graph::new();
        // a small cube: observations typed qb:Observation plus dimension data
        let dim = Term::iri("http://ex/dim");
        let class = Term::iri(qb::OBSERVATION);
        let type_pred = Term::iri(rdf::TYPE);
        for i in 0..rng.gen_range(1usize..30) {
            let obs = Term::iri(format!("http://ex/obs{i}"));
            let member = Term::iri(format!("http://ex/m{}", i % 5));
            graph.insert(obs.clone(), type_pred.clone(), class.clone());
            graph.insert(obs, dim.clone(), member.clone());
            graph.insert(
                member,
                Term::iri("http://ex/label"),
                Term::from(Literal::simple(format!("member {}", i % 5))),
            );
        }
        let shards = rng.gen_range(1usize..5);
        let parts = partition_observations(&graph, shards);
        let dir = std::env::temp_dir().join(format!(
            "re2x-shards-{}-{}",
            std::process::id(),
            rng.next_u64()
        ));
        let paths = parts
            .write_shard_snapshots(&dir, "prop/shards")
            .expect("write shards");
        assert_eq!(paths.len(), shards);
        for (i, path) in paths.iter().enumerate() {
            let loaded = load_shard_snapshot(path, "prop/shards", i, shards).expect("load shard");
            assert_graphs_identical(&parts.shards[i], &loaded);
            // wrong position in the artifact set must be rejected
            if shards > 1 {
                let wrong = load_shard_snapshot(path, "prop/shards", (i + 1) % shards, shards);
                assert!(matches!(
                    wrong,
                    Err(re2x_rdf::RdfError::SnapshotKeyMismatch { .. })
                ));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });
}
