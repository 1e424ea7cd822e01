//! Fixture tests: every rule gets a FIRE fixture (the violation is
//! reported) and a CLEAN fixture (no finding), driven through the same
//! `lint_files` entry point the binary uses.

use re2x_lint::engine::{lint_files, LintResult};
use re2x_lint::rules::lock_order::find_cycles;
use re2x_lint::SourceFile;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints one fixture under a chosen crate name and in-workspace path.
fn lint_fixture(name: &str, crate_name: &str, path: &str) -> LintResult {
    lint_files(&[SourceFile::new(
        path.to_owned(),
        crate_name.to_owned(),
        fixture(name),
    )])
}

fn rules_fired(result: &LintResult) -> Vec<&'static str> {
    result.findings.iter().map(|f| f.rule).collect()
}

#[test]
fn panic_freedom_fires_on_unwrap_expect_and_panic() {
    let result = lint_fixture("panic_fire.rs", "fx", "crates/fx/src/risky.rs");
    assert_eq!(
        rules_fired(&result),
        vec!["panic-freedom", "panic-freedom", "panic-freedom"],
        "unwrap, expect, and panic! each fire exactly once: {:?}",
        result.findings
    );
    let lines: Vec<u32> = result.findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![4, 5, 7], "findings carry 1-based source lines");
    assert!(
        result.findings[0].snippet.contains("input.unwrap()"),
        "snippet shows the offending line"
    );
}

#[test]
fn panic_freedom_clean_and_allow_suppression() {
    let result = lint_fixture("panic_clean.rs", "fx", "crates/fx/src/careful.rs");
    assert!(result.findings.is_empty(), "clean: {:?}", result.findings);
    assert_eq!(
        result.suppressed, 1,
        "the lint:allow'd unwrap is counted as suppressed"
    );
}

#[test]
fn reasonless_allow_is_inert() {
    // The escape hatch demands a reason: `lint:allow(panic-freedom)`
    // without one does not suppress.
    let source = "pub fn f(x: Option<u32>) -> u32 {\n\
                  \x20   // lint:allow(panic-freedom)\n\
                  \x20   x.unwrap()\n\
                  }\n";
    let result = lint_files(&[SourceFile::new(
        "crates/fx/src/f.rs".to_owned(),
        "fx".to_owned(),
        source.to_owned(),
    )]);
    assert_eq!(rules_fired(&result), vec!["panic-freedom"]);
    assert_eq!(result.suppressed, 0);
}

#[test]
fn wallclock_fires_and_clean_passes() {
    let fire = lint_fixture("wallclock_fire.rs", "fx", "crates/fx/src/stamp.rs");
    assert_eq!(
        rules_fired(&fire),
        vec!["no-wallclock", "no-wallclock"],
        "{:?}",
        fire.findings
    );
    let clean = lint_fixture("wallclock_clean.rs", "fx", "crates/fx/src/budget.rs");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
}

#[test]
fn debug_output_fires_and_clean_passes() {
    let fire = lint_fixture("debug_fire.rs", "fx", "crates/fx/src/noisy.rs");
    assert_eq!(
        rules_fired(&fire),
        vec!["no-debug-output", "no-debug-output", "no-debug-output"],
        "println!, eprintln!, and dbg! each fire: {:?}",
        fire.findings
    );
    let clean = lint_fixture("debug_clean.rs", "fx", "crates/fx/src/render.rs");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
}

#[test]
fn seam_rule_fires_only_in_algorithm_crates() {
    // linted as crate `core`: all four bypasses fire
    let fire = lint_fixture("seam_fire.rs", "core", "crates/core/src/bad.rs");
    assert_eq!(
        rules_fired(&fire),
        vec![
            "endpoint-seam",
            "endpoint-seam",
            "endpoint-seam",
            "endpoint-seam"
        ],
        "{:?}",
        fire.findings
    );
    // the reference evaluator is the tests' oracle, no way around the seam
    assert!(
        fire.findings.iter().any(|f| f
            .message
            .contains("`evaluate_reference(…)` evaluates locally")),
        "{:?}",
        fire.findings
    );
    // the identical source in a non-algorithm crate is out of scope
    let elsewhere = lint_fixture("seam_fire.rs", "sparql", "crates/sparql/src/bad.rs");
    assert!(elsewhere.findings.is_empty(), "{:?}", elsewhere.findings);
    // endpoint-mediated access is clean even in `core`
    let clean = lint_fixture("seam_clean.rs", "core", "crates/core/src/good.rs");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
}

#[test]
fn forbid_unsafe_checks_crate_roots_only() {
    let fire = lint_fixture("unsafe_fire.rs", "fx", "crates/fx/src/lib.rs");
    assert_eq!(
        rules_fired(&fire),
        vec!["forbid-unsafe"],
        "{:?}",
        fire.findings
    );
    let clean = lint_fixture("unsafe_clean.rs", "fx", "crates/fx/src/lib.rs");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
    // the same attribute-less source is fine as a non-root module
    let module = lint_fixture("unsafe_fire.rs", "fx", "crates/fx/src/util.rs");
    assert!(module.findings.is_empty(), "{:?}", module.findings);
}

#[test]
fn lock_order_detects_the_intentional_cycle() {
    let fire = lint_fixture("lock_cycle_fire.rs", "fx", "crates/fx/src/pair.rs");
    assert_eq!(fire.registrations.len(), 2);
    assert_eq!(fire.edges.len(), 2, "both nesting orders observed");
    let cycle_findings: Vec<_> = fire
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .collect();
    assert_eq!(cycle_findings.len(), 1, "{:?}", fire.findings);
    assert!(
        cycle_findings[0].message.contains("deadlock"),
        "{}",
        cycle_findings[0].message
    );
    assert!(
        cycle_findings[0].snippet.contains("fx.alpha")
            && cycle_findings[0].snippet.contains("fx.beta"),
        "the cycle names both locks: {}",
        cycle_findings[0].snippet
    );
}

#[test]
fn lock_order_clean_graph_has_edges_but_no_cycle() {
    let clean = lint_fixture("lock_clean.rs", "fx", "crates/fx/src/nested.rs");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
    assert_eq!(clean.registrations.len(), 2);
    // only the genuinely nested acquisition creates an edge; the
    // scoped/sequential pair does not
    assert_eq!(clean.edges.len(), 1, "{:?}", clean.edges);
    assert_eq!(clean.edges[0].from, "fx.outer");
    assert_eq!(clean.edges[0].to, "fx.inner");
    assert!(find_cycles(&clean.edges).is_empty());
}

#[test]
fn lock_order_flags_unregistered_lock_fields() {
    let source = "use std::sync::Mutex;\n\
                  pub struct S {\n\
                  \x20   anonymous: Mutex<u32>,\n\
                  }\n";
    let result = lint_files(&[SourceFile::new(
        "crates/fx/src/s.rs".to_owned(),
        "fx".to_owned(),
        source.to_owned(),
    )]);
    assert_eq!(
        rules_fired(&result),
        vec!["lock-order"],
        "{:?}",
        result.findings
    );
    assert!(result.findings[0].message.contains("lock-order"));
}

#[test]
fn calls_under_lock_fires_on_endpoint_publish_and_io() {
    let fire = lint_fixture("calls_under_lock_fire.rs", "fx", "crates/fx/src/busy.rs");
    assert_eq!(
        rules_fired(&fire),
        vec!["no-calls-under-lock"; 4],
        "endpoint select, bus publish, write_all, and std::fs each fire: {:?}",
        fire.findings
    );
    assert!(
        fire.findings[0].message.contains("select")
            && fire.findings[0].message.contains("fx.stats"),
        "the finding names both the call and the held lock: {}",
        fire.findings[0].message
    );
    assert!(
        fire.findings[3].message.contains("std::fs"),
        "{}",
        fire.findings[3].message
    );
    let clean = lint_fixture("calls_under_lock_clean.rs", "fx", "crates/fx/src/calm.rs");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
}

#[test]
fn guard_across_wait_fires_without_a_declared_edge() {
    let fire = lint_fixture("guard_across_wait_fire.rs", "fx", "crates/fx/src/pairy.rs");
    assert_eq!(
        rules_fired(&fire),
        vec!["guard-across-wait"; 3],
        "two undeclared nestings plus the wait under a held guard: {:?}",
        fire.findings
    );
    assert!(
        fire.findings[0]
            .message
            .contains("declare `// lock-order: fx.left -> fx.right`"),
        "the nesting finding suggests the declaration syntax: {}",
        fire.findings[0].message
    );
    assert!(
        fire.findings[2].message.contains("condvar wait")
            && fire.findings[2].message.contains("fx.left"),
        "the wait finding names the guard held across the park: {}",
        fire.findings[2].message
    );
}

#[test]
fn guard_across_wait_clean_when_nesting_is_declared() {
    let clean = lint_fixture("guard_across_wait_clean.rs", "fx", "crates/fx/src/pairy.rs");
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
    assert_eq!(
        clean.declared.len(),
        1,
        "the fixture declares exactly one edge: {:?}",
        clean.declared
    );
    assert_eq!(clean.declared[0].from, "fx.left");
    assert_eq!(clean.declared[0].to, "fx.right");
}

#[test]
fn discarded_result_fires_on_both_discard_shapes() {
    let fire = lint_fixture(
        "discarded_result_fire.rs",
        "fx",
        "crates/fx/src/careless.rs",
    );
    assert_eq!(
        rules_fired(&fire),
        vec!["discarded-result", "discarded-result"],
        "`let _ =` and the bare statement each fire: {:?}",
        fire.findings
    );
    assert!(fire.findings[0].message.contains("persist"));
    let clean = lint_fixture(
        "discarded_result_clean.rs",
        "fx",
        "crates/fx/src/careful.rs",
    );
    assert!(clean.findings.is_empty(), "{:?}", clean.findings);
}

#[test]
fn witness_literal_must_match_the_registered_name() {
    let source = "use std::sync::Mutex;\n\
                  pub struct S {\n\
                  \x20   // lock-order: fx.real\n\
                  \x20   field: Mutex<u32>,\n\
                  }\n\
                  impl S {\n\
                  \x20   pub fn get(&self) -> u32 {\n\
                  \x20       *lock_or_recover(\"fx.typo\", &self.field)\n\
                  \x20   }\n\
                  }\n";
    let result = lint_files(&[SourceFile::new(
        "crates/fx/src/s.rs".to_owned(),
        "fx".to_owned(),
        source.to_owned(),
    )]);
    assert_eq!(
        rules_fired(&result),
        vec!["lock-order"],
        "{:?}",
        result.findings
    );
    assert!(
        result.findings[0].message.contains("fx.typo")
            && result.findings[0].message.contains("fx.real"),
        "the mismatch names both the literal and the registered name: {}",
        result.findings[0].message
    );
}

#[test]
fn declared_edge_endpoints_must_be_registered() {
    let source = "use std::sync::Mutex;\n\
                  // lock-order: fx.ghost -> fx.real\n\
                  pub struct S {\n\
                  \x20   // lock-order: fx.real\n\
                  \x20   field: Mutex<u32>,\n\
                  }\n";
    let result = lint_files(&[SourceFile::new(
        "crates/fx/src/s.rs".to_owned(),
        "fx".to_owned(),
        source.to_owned(),
    )]);
    assert_eq!(
        rules_fired(&result),
        vec!["lock-order"],
        "{:?}",
        result.findings
    );
    assert!(
        result.findings[0].message.contains("fx.ghost")
            && result.findings[0].message.contains("not a registered lock"),
        "{}",
        result.findings[0].message
    );
}

#[test]
fn allow_file_suppresses_the_whole_file() {
    let mut text = fixture("debug_fire.rs");
    text.insert_str(
        0,
        "// lint:allow-file(no-debug-output, fixture exercises whole-file suppression)\n",
    );
    let result = lint_files(&[SourceFile::new(
        "crates/fx/src/noisy.rs".to_owned(),
        "fx".to_owned(),
        text,
    )]);
    assert!(result.findings.is_empty(), "{:?}", result.findings);
    assert_eq!(result.suppressed, 3);
}
