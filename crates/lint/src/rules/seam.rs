//! `endpoint-seam`: `re2x-core` / `re2x-cube` must reach the triplestore
//! only through the `SparqlEndpoint` trait.
//!
//! Every decorator (caching, tracing, budgets, sharding) sits on
//! that seam; a direct `Graph` index probe or a `LocalEndpoint`
//! construction in the algorithm layers bypasses them all — queries stop
//! being cached, attributed, and shardable. Modules that materialize into
//! a caller-supplied local graph (not the endpoint's store) opt in with
//! `// lint:allow-file(endpoint-seam, reason)`.

use super::{finding_at, significant};
use crate::findings::Finding;
use crate::source::SourceFile;

/// `Graph` navigation/evaluation methods that constitute a direct query
/// when called in the algorithm layers (matched as `.name(`).
const GRAPH_QUERY_METHODS: &[&str] = &[
    "for_each_matching",
    "for_each_matching_until",
    "count_matching",
    "matching",
    "objects",
    "subjects",
    "predicates_between",
    "predicates_from",
    "predicates_into",
    "objects_of_predicate",
    "predicate_cardinality",
    "contains_ids",
    "literals_matching_exact",
    "literals_matching_keywords",
];

/// Free functions of the local evaluator (matched as `name(`), the
/// reference oracle among them.
const EVAL_FUNCTIONS: &[&str] = &["evaluate", "evaluate_ask", "evaluate_reference"];

/// Runs the rule over one file (the engine restricts it to core/cube).
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let toks = significant(file);
    let text = &file.text;
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if file.in_test_region(t.start) {
            continue;
        }
        let word = t.text(text);
        if word == "LocalEndpoint" {
            findings.push(finding_at(
                file,
                "endpoint-seam",
                t,
                "`LocalEndpoint` named outside the seam; accept `&dyn SparqlEndpoint`".to_owned(),
            ));
            continue;
        }
        let called = toks.get(i + 1).map(|n| n.text(text)) == Some("(");
        if !called {
            continue;
        }
        let dotted = i > 0 && toks[i - 1].text(text) == ".";
        if dotted && GRAPH_QUERY_METHODS.contains(&word) {
            findings.push(finding_at(
                file,
                "endpoint-seam",
                t,
                format!("direct `Graph::{word}` probe bypasses the SparqlEndpoint decorators"),
            ));
        }
        if !dotted && EVAL_FUNCTIONS.contains(&word) {
            // exclude `self.evaluate(` style methods (dotted) and paths like
            // `eval::evaluate(` (preceded by `::`, still the evaluator).
            findings.push(finding_at(
                file,
                "endpoint-seam",
                t,
                format!("`{word}(…)` evaluates locally, bypassing the SparqlEndpoint seam"),
            ));
        }
    }
    findings
}
