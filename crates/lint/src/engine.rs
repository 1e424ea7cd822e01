//! Workspace walk, rule dispatch, suppression handling, and the
//! lock-graph assembly.

use crate::findings::Finding;
use crate::rules::dataflow::{self, DataflowContext};
use crate::rules::lock_order::{self, LockEdge, LockRegistration};
use crate::rules::{debug_output, forbid_unsafe, panic_freedom, seam, wallclock};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// Crates whose whole purpose is measurement or test infrastructure:
/// exempt from panic-freedom (asserting is their job).
const PANIC_FREEDOM_SKIP: &[&str] = &["bench", "testkit"];
/// The experiment harness measures wall time by design.
const WALLCLOCK_SKIP: &[&str] = &["bench"];
/// The experiment harness reports to the terminal by design.
const DEBUG_OUTPUT_SKIP: &[&str] = &["bench"];
/// The algorithm layers bound to the `SparqlEndpoint` seam.
const SEAM_ONLY: &[&str] = &["core", "cube"];
/// Measurement/test-infrastructure crates are exempt from the dataflow
/// rules too: they assert, print, and block by design.
const DATAFLOW_SKIP: &[&str] = &["bench", "testkit"];

/// The result of linting a set of files.
#[derive(Debug, Default)]
pub struct LintResult {
    /// Findings that survived `lint:allow` suppression.
    pub findings: Vec<Finding>,
    /// Number of findings suppressed by `lint:allow` comments.
    pub suppressed: usize,
    /// The workspace lock registry.
    pub registrations: Vec<LockRegistration>,
    /// The workspace nested-acquisition graph (extracted from code).
    pub edges: Vec<LockEdge>,
    /// Nesting orders declared in comments (`// lock-order: A -> B`).
    pub declared: Vec<LockEdge>,
}

/// Lints prepared source files (the unit the fixture tests drive).
pub fn lint_files(files: &[SourceFile]) -> LintResult {
    let mut result = LintResult::default();

    // Pass 1: assemble the workspace lock registry, the extracted nesting
    // graph, and the declared edges — the dataflow rules need the declared
    // set regardless of which file declares an edge.
    let mut per_file_locks = Vec::with_capacity(files.len());
    for file in files {
        let locks = lock_order::analyze(file);
        result.registrations.extend(locks.registrations.clone());
        result.edges.extend(locks.edges.clone());
        result.declared.extend(locks.declared.clone());
        per_file_locks.push(locks);
    }
    let declared_pairs: Vec<(String, String)> = result
        .declared
        .iter()
        .map(|e| (e.from.clone(), e.to.clone()))
        .collect();

    // Pass 2: per-file rules.
    for (file, locks) in files.iter().zip(per_file_locks) {
        let mut raw: Vec<Finding> = locks.findings;
        if !PANIC_FREEDOM_SKIP.contains(&file.crate_name.as_str()) {
            raw.extend(panic_freedom::check(file));
        }
        if !WALLCLOCK_SKIP.contains(&file.crate_name.as_str()) {
            raw.extend(wallclock::check(file));
        }
        if !DEBUG_OUTPUT_SKIP.contains(&file.crate_name.as_str()) {
            raw.extend(debug_output::check(file));
        }
        if SEAM_ONLY.contains(&file.crate_name.as_str()) {
            raw.extend(seam::check(file));
        }
        if !DATAFLOW_SKIP.contains(&file.crate_name.as_str()) {
            let ctx = DataflowContext {
                field_to_name: locks
                    .registrations
                    .iter()
                    .map(|r| (r.field.as_str(), r.name.as_str()))
                    .collect(),
                declared: &declared_pairs,
            };
            raw.extend(dataflow::check(file, &ctx));
        }
        if file.path.ends_with("src/lib.rs") {
            raw.extend(forbid_unsafe::check(file));
        }

        for finding in raw {
            if file.is_allowed(finding.rule, finding.line) {
                result.suppressed += 1;
            } else {
                result.findings.push(finding);
            }
        }
    }

    // Workspace-level lock-order checks: duplicate names, declared edges
    // naming unregistered locks, and cycles over the union of extracted
    // and declared edges (a declared deadlock is still a deadlock).
    result
        .findings
        .extend(lock_order::duplicate_name_findings(&result.registrations));
    for edge in &result.declared {
        for endpoint in [&edge.from, &edge.to] {
            if !result.registrations.iter().any(|r| &r.name == endpoint) {
                result.findings.push(Finding {
                    rule: "lock-order",
                    file: edge.file.clone(),
                    line: edge.line,
                    snippet: format!("lock-order: {} -> {}", edge.from, edge.to),
                    message: format!(
                        "declared edge references `{endpoint}`, which is not a registered lock"
                    ),
                });
            }
        }
    }
    let mut graph = result.edges.clone();
    graph.extend(result.declared.iter().cloned());
    for cycle in lock_order::find_cycles(&graph) {
        let (file, line) = cycle.site.clone();
        result.findings.push(Finding {
            rule: "lock-order",
            file,
            line,
            snippet: cycle.path.join(" -> "),
            message: format!(
                "lock-order cycle: {} (a thread interleaving can deadlock here)",
                cycle.path.join(" -> ")
            ),
        });
    }

    // Deterministic output order.
    result
        .findings
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    result
}

/// Reads and prepares every `crates/*/src/**/*.rs` under `root`.
pub fn collect_files(root: &Path) -> Result<Vec<SourceFile>, String> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.join("src").is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let crate_name = crate_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut sources = Vec::new();
        walk_rs(&crate_dir.join("src"), &mut sources)?;
        sources.sort();
        for path in sources {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push(SourceFile::new(rel, crate_name.clone(), text));
        }
    }
    Ok(files)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("walk error: {e}"))?.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders the machine-readable report the binary prints for
/// `--format json`. Every string field is routed through the shared
/// [`crate::findings::json_escape`] escaper, so snippets containing
/// quotes or backslashes (`.expect("non-empty")`) stay parseable.
pub fn report_to_json(result: &LintResult) -> String {
    use crate::findings::{finding_to_json, json_escape};
    let findings_json: Vec<String> = result.findings.iter().map(finding_to_json).collect();
    let edge_json = |e: &LockEdge| {
        format!(
            "{{\"from\":\"{}\",\"to\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
            json_escape(&e.from),
            json_escape(&e.to),
            json_escape(&e.file),
            e.line
        )
    };
    let edges_json: Vec<String> = result.edges.iter().map(edge_json).collect();
    let declared_json: Vec<String> = result.declared.iter().map(edge_json).collect();
    let locks_json: Vec<String> = result
        .registrations
        .iter()
        .map(|r| format!("\"{}\"", json_escape(&r.name)))
        .collect();
    format!(
        "{{\"findings\":[{}],\"suppressed\":{},\"locks\":[{}],\"lock_edges\":[{}],\"declared_edges\":[{}]}}",
        findings_json.join(","),
        result.suppressed,
        locks_json.join(","),
        edges_json.join(","),
        declared_json.join(",")
    )
}
