//! The self-hosting gate as a test: lint the real workspace and assert
//! the invariants `scripts/verify.sh` enforces — no findings outside the
//! checked-in baseline, no stale baseline entries, and an acyclic lock
//! graph over the registered lock set.

use re2x_lint::engine::{apply_baseline, collect_files, lint_files};
use re2x_lint::rules::lock_order::find_cycles;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_clean_modulo_baseline() {
    let root = workspace_root();
    let files = collect_files(root).expect("workspace sources readable");
    assert!(
        files.len() > 40,
        "expected the whole workspace, got {}",
        files.len()
    );
    let result = lint_files(&files);

    let baseline = std::fs::read_to_string(root.join("lint-baseline.txt"))
        .expect("lint-baseline.txt is checked in");
    let lines: Vec<String> = baseline.lines().map(str::to_owned).collect();
    let outcome = apply_baseline(result.findings, &lines);

    assert!(
        outcome.new_findings.is_empty(),
        "findings outside the baseline:\n{}",
        outcome
            .new_findings
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.file, f.line, f.rule, f.snippet))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        outcome.stale.is_empty(),
        "stale baseline entries (violation fixed? prune them): {:?}",
        outcome.stale
    );
}

#[test]
fn panic_freedom_baseline_only_shrinks() {
    // The serve PR burned the debt down from 51 to 36 panic-freedom
    // entries (datagen member lookups, rdf/sparql lexer `peeked`
    // expects); the observability PR took it to 31 (tracer stack slots,
    // session history indexing, shard-merge/partition guards); the
    // vectorized-execution PR took it to 22 (graph.rs remove-path
    // expects, plan_block selection, parser agg-keyword re-probe); the
    // snapshot PR took it to 16 (bootstrap label fallbacks, model/vgraph
    // level-path contracts, sparql total-order and aggregate-projection
    // expects); the dataflow-lint PR took it to 6 (ticket mismatches are
    // `SparqlError::TicketMismatch`, crawl/shard joins contain panics,
    // interner overflow returns `RdfError::TermCapacity`, bootstrap slot
    // and path contracts return errors); the set-validation PR took it
    // to 4 (the async validation branch and its one-verdict-per-ASK
    // expect are gone, the multi-tuple level lookup is a plain `Option`
    // chain); the snapshot-v3 PR took it to 1 (the example workload of a
    // graph without the dataset's vocabulary is empty); the bulk-build PR
    // took it to 0 (the sharded merge's aggregate set is a type chosen at
    // plan time, so `COUNT(DISTINCT)` cannot reach it). This ratchet keeps
    // the ceiling where it landed: new panic sites must be fixed, not
    // baselined.
    let baseline = std::fs::read_to_string(workspace_root().join("lint-baseline.txt"))
        .expect("lint-baseline.txt is checked in");
    let panic_entries = baseline
        .lines()
        .filter(|l| l.starts_with("panic-freedom\t"))
        .count();
    assert!(
        panic_entries == 0,
        "panic-freedom baseline grew back to {panic_entries} entries (ceiling is 0); \
         fix the panic site instead of re-baselining it"
    );
}

#[test]
fn workspace_lock_graph_is_registered_and_acyclic() {
    let files = collect_files(workspace_root()).expect("workspace sources readable");
    let result = lint_files(&files);

    let mut names: Vec<&str> = result
        .registrations
        .iter()
        .map(|r| r.name.as_str())
        .collect();
    names.sort();
    names.dedup();
    for expected in [
        "obs.metrics",
        "obs.tracer.events",
        "obs.tracer.provenance",
        "sparql.async.shared",
        "sparql.cache.state",
        "sparql.local.stats",
        "sparql.sharded.stats",
    ] {
        assert!(
            names.contains(&expected),
            "lock {expected} missing from the registry: {names:?}"
        );
    }

    let cycles = find_cycles(&result.edges);
    assert!(
        cycles.is_empty(),
        "the workspace lock graph must stay acyclic: {:?}",
        cycles
            .iter()
            .map(|c| c.path.join(" -> "))
            .collect::<Vec<_>>()
    );
}
