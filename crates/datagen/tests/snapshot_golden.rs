//! Byte-identity golden for generated datasets' snapshot files: the
//! writer streams a section at a time, and the file it leaves must be the
//! one the whole-file writer of format v3 left, byte for byte. The hashes
//! are FNV-1a over the files that writer produced; a change here is a
//! format change, and takes a new `SNAPSHOT_VERSION`.

use re2x_datagen::cache::snapshot_key;
use re2x_datagen::{dbpedia, eurostat};
use re2x_rdf::{Graph, SNAPSHOT_VERSION};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The length and FNV-1a hash of `graph`'s snapshot file under `key`.
fn written(graph: &Graph, key: &str) -> (usize, u64) {
    let path = std::env::temp_dir().join(format!(
        "re2x-golden-{}-{}.snap",
        std::process::id(),
        fnv1a(key.as_bytes())
    ));
    graph.write_snapshot(&path, key).expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    let _ = std::fs::remove_file(&path);
    (bytes.len(), fnv1a(&bytes))
}

#[test]
fn written_bytes_match_the_golden() {
    assert_eq!(SNAPSHOT_VERSION, 3);
    let dbpedia = dbpedia::generate(600, 13).graph;
    assert_eq!(
        written(&dbpedia, &snapshot_key("dbpedia", 600, 13)),
        (20_842_928, 0xf2b5_4460_3b0a_d0ec),
        "dbpedia-600"
    );
    let eurostat = eurostat::generate(500, 7).graph;
    assert_eq!(
        written(&eurostat, &snapshot_key("eurostat", 500, 7)),
        (221_992, 0xb131_4818_a6a4_214e),
        "eurostat-500"
    );
}
