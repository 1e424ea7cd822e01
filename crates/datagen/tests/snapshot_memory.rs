//! Memory gate for snapshot streaming: a write and a load each hold at
//! most one section beside the graph, never the whole file.
//!
//! A counting global allocator tracks live heap bytes; each check measures
//! the *transient* of one call — its peak of live bytes above both what
//! was live before it and what stays live after it (the loaded graph) —
//! on a generated dbpedia-600 graph, whose file is ≈ 21 MB. The checks
//! share the process-wide counters, so they run one at a time.

use re2x_rdf::{Graph, RdfError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Forwards to the system allocator, counting live bytes, their peak and
/// the largest single allocation.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize, size: usize) {
    let live = LIVE.fetch_add(by, Ordering::SeqCst) + by;
    PEAK.fetch_max(live, Ordering::SeqCst);
    LARGEST.fetch_max(size, Ordering::SeqCst);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old = layout.size();
        if new_size >= old {
            grew(new_size - old, new_size);
        } else {
            LIVE.fetch_sub(old - new_size, Ordering::SeqCst);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Serializes the checks: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// What one call allocated beyond its inputs and outputs.
struct Usage {
    /// Peak live bytes above the larger of before and after the call.
    transient: usize,
    /// The largest single allocation (or reallocation) made.
    largest: usize,
}

fn measure<T>(call: impl FnOnce() -> T) -> (T, Usage) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    LARGEST.store(0, Ordering::SeqCst);
    let out = call();
    let after = LIVE.load(Ordering::SeqCst);
    let usage = Usage {
        transient: PEAK.load(Ordering::SeqCst) - before.max(after),
        largest: LARGEST.load(Ordering::SeqCst),
    };
    (out, usage)
}

/// `BufWriter`'s default buffer.
const BUF_WRITER: usize = 8 * 1024;

const KEY: &str = "re2x/dataset/dbpedia/obs-600/seed-13";

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("re2x-memory-{}-{name}.snap", std::process::id()))
}

/// The payload length of each of the file's seven sections.
fn section_lengths(bytes: &[u8]) -> Vec<usize> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let key_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let mut at = 16 + key_len + 32;
    let mut lengths = Vec::new();
    for _ in 0..7 {
        let len = word(at) as usize;
        lengths.push(len);
        at += 8 + len + 8;
    }
    assert_eq!(at, bytes.len(), "seven sections end the file");
    lengths
}

/// The generated graph, written to `path`; returns its file's bytes.
fn written(graph: &Graph, path: &Path) -> Vec<u8> {
    graph.write_snapshot(path, KEY).expect("write");
    std::fs::read(path).expect("read back")
}

#[test]
fn a_write_holds_one_section_not_the_file() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let graph = re2x_datagen::dbpedia::generate(600, 13).graph;
    let path = tmp_path("write");
    let ((), usage) = measure(|| graph.write_snapshot(&path, KEY).expect("write"));
    let bytes = std::fs::read(&path).expect("read back");
    let largest = section_lengths(&bytes).into_iter().max().expect("sections");
    // one reused section buffer, grown by doubling, plus the BufWriter's
    assert!(
        usage.transient <= 2 * largest + BUF_WRITER,
        "a {}-byte write held {} bytes; its largest section is {largest}",
        bytes.len(),
        usage.transient
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_load_holds_one_section_not_the_file() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = tmp_path("load");
    let size = written(&re2x_datagen::dbpedia::generate(600, 13).graph, &path).len();
    let (loaded, usage) = measure(|| Graph::load_snapshot(&path, Some(KEY)));
    assert!(!loaded.expect("loads").is_empty());
    assert!(
        usage.transient < size / 2,
        "a {size}-byte load held {} bytes beyond its graph",
        usage.transient
    );
    let _ = std::fs::remove_file(&path);
}

/// A section length pointing past the end of the file is caught before
/// anything is allocated for it.
#[test]
fn a_length_past_the_end_is_truncated_without_a_file_sized_allocation() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = tmp_path("past-eof");
    let mut bytes = written(&re2x_datagen::dbpedia::generate(600, 13).graph, &path);
    let size = bytes.len();
    // the dictionary's length, the first section frame
    let at = 16 + KEY.len() + 32;
    bytes[at..at + 8].copy_from_slice(&(4 * size as u64).to_le_bytes());
    std::fs::write(&path, &bytes).expect("rewrite");
    drop(bytes);
    let (loaded, usage) = measure(|| Graph::load_snapshot(&path, Some(KEY)));
    assert!(
        matches!(loaded, Err(RdfError::SnapshotTruncated { .. })),
        "{:?}",
        loaded.err()
    );
    assert!(
        usage.largest < size,
        "a {size}-byte file made a {}-byte allocation",
        usage.largest
    );
    let _ = std::fs::remove_file(&path);
}
