//! Fire tests for snapshot loading: truncated files, foreign magic, wrong
//! versions, flipped bytes and stale keys must every one surface as a typed
//! [`RdfError`] — never a panic, never a silently short graph.

use re2x_rdf::{peek_snapshot_key, Graph, Literal, RdfError, Term, SNAPSHOT_VERSION};
use re2x_testkit::check;

/// Twenty labelled subjects sharing the token "value", plus what gives
/// every text section content: a zero-token literal (exact key `""`), a
/// tagged literal, non-ASCII words (`İ` lowercases to two chars) and a
/// literal orphaned out of the index by a removal.
fn sample_graph() -> Graph {
    let mut g = Graph::new();
    for i in 0..20 {
        g.insert(
            Term::iri(format!("http://ex/s{i}")),
            Term::iri(format!("http://ex/p{}", i % 3)),
            Term::from(Literal::simple(format!("value {i}"))),
        );
    }
    for object in [
        Literal::simple("—"),
        Literal::tagged("Straße value", "de"),
        Literal::simple("İstanbul – ÀÉÎ"),
        Literal::simple("orphan value"),
    ] {
        g.insert(
            Term::iri("http://ex/s0"),
            Term::iri("http://ex/label"),
            Term::from(object),
        );
    }
    let (s, p, o) = (
        g.iri_id("http://ex/s0").expect("subject"),
        g.iri_id("http://ex/label").expect("predicate"),
        g.term_id(&Term::from(Literal::simple("orphan value")))
            .expect("literal"),
    );
    assert!(g.remove_ids(s, p, o));
    g
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("re2x-corrupt-{}-{name}.snap", std::process::id()))
}

fn write_sample(name: &str) -> (std::path::PathBuf, Vec<u8>) {
    let path = tmp_path(name);
    sample_graph()
        .write_snapshot(&path, "fixture/key")
        .expect("write");
    let bytes = std::fs::read(&path).expect("read back");
    (path, bytes)
}

#[test]
fn clean_snapshot_loads_and_peeks() {
    let (path, _) = write_sample("clean");
    assert_eq!(peek_snapshot_key(&path).expect("peek"), "fixture/key");
    let loaded = Graph::load_snapshot(&path, Some("fixture/key")).expect("load");
    let sample = sample_graph();
    assert_eq!(loaded.len(), sample.len());
    for query in [
        "value",
        "value 3",
        "",
        "—",
        "STRASSE",
        "straße value",
        "İstanbul",
        "orphan",
    ] {
        assert_eq!(
            loaded.literals_matching_exact(query),
            sample.literals_matching_exact(query)
        );
        assert_eq!(
            loaded.literals_matching_keywords(query),
            sample.literals_matching_keywords(query)
        );
    }
    assert_eq!(loaded.literals_matching_keywords("value").len(), 21);
    // loading without a key expectation also works
    assert!(Graph::load_snapshot(&path, None).is_ok());
    let _ = std::fs::remove_file(&path);
}

/// The streamed writer leaves the bytes the whole-file writer of format
/// v3 left: FNV-1a over that writer's file of the sample.
#[test]
fn written_bytes_match_the_golden() {
    let (path, bytes) = write_sample("golden");
    let fnv1a = bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |hash: u64, &byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(SNAPSHOT_VERSION, 3);
    assert_eq!((bytes.len(), fnv1a), (2_975, 0xf610_be77_5f03_188e));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_file_is_io_error() {
    let err = Graph::load_snapshot(std::path::Path::new("/nonexistent/no.snap"), None)
        .expect_err("must fail");
    assert!(matches!(err, RdfError::Io(_)));
}

#[test]
fn bad_magic_is_rejected() {
    let (path, mut bytes) = write_sample("magic");
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).expect("rewrite");
    assert!(matches!(
        Graph::load_snapshot(&path, None),
        Err(RdfError::SnapshotBadMagic)
    ));
    assert!(matches!(
        peek_snapshot_key(&path),
        Err(RdfError::SnapshotBadMagic)
    ));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn wrong_version_is_rejected_with_both_versions_reported() {
    let (path, mut bytes) = write_sample("version");
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 7).to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite");
    match Graph::load_snapshot(&path, None) {
        Err(RdfError::SnapshotVersion { found, supported }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 7);
            assert_eq!(supported, SNAPSHOT_VERSION);
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn stale_key_is_rejected_not_trusted() {
    let (path, _) = write_sample("stale");
    match Graph::load_snapshot(&path, Some("fixture/other-key")) {
        Err(RdfError::SnapshotKeyMismatch { expected, found }) => {
            assert_eq!(expected, "fixture/other-key");
            assert_eq!(found, "fixture/key");
        }
        other => panic!("expected SnapshotKeyMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);
}

/// Truncating the file at *every* possible length yields a typed error
/// (or, for prefixes that still contain whole valid sections, never a
/// wrong graph — the section framing makes short files detectable).
#[test]
fn every_truncation_is_a_typed_error() {
    let (path, bytes) = write_sample("trunc");
    for len in 0..bytes.len() {
        std::fs::write(&path, &bytes[..len]).expect("rewrite");
        let err = Graph::load_snapshot(&path, Some("fixture/key"))
            .expect_err("truncated file must not load");
        assert!(
            matches!(
                err,
                RdfError::SnapshotTruncated { .. }
                    | RdfError::SnapshotBadMagic
                    | RdfError::SnapshotChecksum { .. }
                    | RdfError::SnapshotCorrupt { .. }
            ),
            "truncation at {len} gave unexpected error {err:?}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Flipping any single byte of the body is caught by a section checksum
/// (or rejected by a stricter structural check before the graph is built).
#[test]
fn random_bit_flips_never_panic_and_never_load_silently() {
    let (path, bytes) = write_sample("flip");
    let header_len = 8 + 4 + 4 + "fixture/key".len() + 32;
    check("random_bit_flips_never_panic", |rng| {
        let mut corrupted = bytes.clone();
        let pos = rng.gen_range(header_len..corrupted.len());
        let bit = 1u8 << rng.gen_range(0u32..8) as u8;
        corrupted[pos] ^= bit;
        std::fs::write(&path, &corrupted).expect("rewrite");
        match Graph::load_snapshot(&path, Some("fixture/key")) {
            // a flip in a length/checksum frame or payload must error out
            Err(
                RdfError::SnapshotTruncated { .. }
                | RdfError::SnapshotChecksum { .. }
                | RdfError::SnapshotCorrupt { .. },
            ) => {}
            Err(other) => panic!("unexpected error kind {other:?}"),
            Ok(_) => panic!("corrupted byte {pos} loaded successfully"),
        }
    });
    let _ = std::fs::remove_file(&path);
}

/// Garbage that merely *starts* with the magic still fails cleanly.
#[test]
fn magic_plus_garbage_is_rejected() {
    let path = tmp_path("garbage");
    let mut bytes = b"RE2XSNAP".to_vec();
    bytes.extend_from_slice(&[0xff; 64]);
    std::fs::write(&path, &bytes).expect("write");
    let err = Graph::load_snapshot(&path, None).expect_err("garbage must not load");
    assert!(matches!(
        err,
        RdfError::SnapshotVersion { .. }
            | RdfError::SnapshotTruncated { .. }
            | RdfError::SnapshotCorrupt { .. }
    ));
    let _ = std::fs::remove_file(&path);
}
