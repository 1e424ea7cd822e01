//! The self-hosting gate as a test: lint the real workspace and assert
//! the invariants `scripts/verify.sh` enforces — zero findings, and an
//! acyclic lock graph over the registered lock set.

use re2x_lint::engine::{collect_files, lint_files};
use re2x_lint::rules::lock_order::find_cycles;
use std::path::Path;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// Zero findings: a new panic site, unregistered lock or stray print is
/// fixed or carries a `lint:allow` with its reason — there is no debt file
/// to park it in (the last entry left with the bulk-build change).
#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let files = collect_files(root).expect("workspace sources readable");
    assert!(
        files.len() > 40,
        "expected the whole workspace, got {}",
        files.len()
    );
    let result = lint_files(&files);
    assert!(
        result.findings.is_empty(),
        "lint findings:\n{}",
        result
            .findings
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.file, f.line, f.rule, f.snippet))
            .collect::<Vec<_>>()
            .join("\n")
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
