//! Exploration-session transcripts: renders a [`Session`]'s history as a
//! self-contained Markdown report — the artifact an analyst (the paper's
//! journalist Alex) takes away from an exploration, with every step's
//! natural-language description, the reusable SPARQL, and a result
//! preview.

use crate::session::{PhaseCost, Session};
use re2x_obs::export::fmt_duration;
use re2x_rdf::Graph;
use std::fmt::Write as _;

/// Maximum result rows included per step.
const PREVIEW_ROWS: usize = 10;

fn phase_row(out: &mut String, name: &str, cost: &PhaseCost) {
    let _ = writeln!(
        out,
        "| {name} | {} | {} | {} | {} |",
        cost.invocations,
        fmt_duration(cost.wall),
        cost.endpoint_queries,
        fmt_duration(cost.endpoint_busy),
    );
}

/// Renders the session history as Markdown.
pub fn to_markdown(session: &Session, graph: &Graph) -> String {
    let mut out = String::new();
    out.push_str("# Exploration transcript\n\n");
    let metrics = session.metrics();
    let _ = writeln!(
        out,
        "{} interaction(s), {} exploration paths offered, {} tuples accessed.\n",
        metrics.interactions, metrics.paths_offered, metrics.tuples_accessible
    );
    if metrics.interactions > 0 {
        out.push_str("## Cost by phase\n\n");
        out.push_str("| Phase | Invocations | Wall time | Endpoint queries | Endpoint busy |\n");
        out.push_str("|---|---|---|---|---|\n");
        phase_row(&mut out, "Synthesis", &metrics.phases.synthesis);
        phase_row(&mut out, "Execution", &metrics.phases.execution);
        phase_row(&mut out, "Refinement", &metrics.phases.refinement);
        out.push('\n');
    }
    if session.history().is_empty() {
        out.push_str("_No query has been executed yet._\n");
        return out;
    }
    for (i, step) in session.history().iter().enumerate() {
        let _ = writeln!(out, "## Step {}: {}\n", i + 1, step.query.description);
        let examples: Vec<String> = step
            .query
            .bindings()
            .map(|b| format!("{} (`{}`)", b.label, b.member_iri))
            .collect();
        if !examples.is_empty() {
            let _ = writeln!(out, "Example anchors: {}\n", examples.join(", "));
        }
        out.push_str("```sparql\n");
        out.push_str(&step.query.sparql());
        out.push_str("\n```\n\n");
        if step.derived {
            let _ = writeln!(
                out,
                "Cost: {} wall, answered from the previous step's rows (no endpoint query).\n",
                fmt_duration(step.cost.wall),
            );
        } else {
            let _ = writeln!(
                out,
                "Cost: {} wall, {} endpoint query(ies), {} endpoint busy.\n",
                fmt_duration(step.cost.wall),
                step.cost.endpoint_queries,
                fmt_duration(step.cost.endpoint_busy),
            );
        }
        let total = step.solutions.len();
        let _ = writeln!(out, "{total} result row(s):\n");
        let mut preview = step.solutions.clone();
        preview.rows.truncate(PREVIEW_ROWS);
        out.push_str(&preview.to_labeled_table(graph));
        if total > PREVIEW_ROWS {
            let _ = writeln!(out, "… and {} more row(s).", total - PREVIEW_ROWS);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionConfig;
    use crate::RefineOp;
    use re2x_cube::{bootstrap, BootstrapConfig};
    use re2x_sparql::{LocalEndpoint, SparqlEndpoint};

    #[test]
    fn transcript_captures_every_step() {
        let mut dataset = re2x_datagen::running::generate();
        let graph = std::mem::take(&mut dataset.graph);
        let endpoint = LocalEndpoint::new(graph);
        let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
            .expect("bootstrap")
            .schema;
        let mut session = Session::new(&endpoint, &schema, SessionConfig::default());

        let empty = to_markdown(&session, endpoint.graph());
        assert!(empty.contains("No query has been executed"));
        assert!(
            !empty.contains("## Cost by phase"),
            "no cost table before any interaction"
        );
        assert!(empty.contains("0 interaction(s)"));

        let outcome = session.synthesize(&["Germany", "2014"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("runs");
        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        session
            .apply(dis.into_iter().next().expect("one"))
            .expect("runs");

        let md = to_markdown(&session, endpoint.graph());
        assert!(md.starts_with("# Exploration transcript"));
        assert!(md.contains("## Step 1:"));
        assert!(md.contains("## Step 2:"));
        assert!(md.contains("```sparql"));
        assert!(md.contains("GROUP BY"));
        assert!(md.contains("Example anchors: Germany"));
        assert!(md.contains("result row(s):"));
        // labels, not IRIs, in the preview tables
        assert!(md.contains("| Germany"));
        // cost accounting: a per-phase table plus one cost line per step
        assert!(md.contains("## Cost by phase"));
        assert!(md.contains("| Synthesis | 1 |"));
        assert!(md.contains("| Execution | 2 |"));
        assert!(md.contains("| Refinement | 1 |"));
        assert_eq!(md.matches("Cost: ").count(), 2, "one cost line per step");
        assert!(md.contains("endpoint query(ies)"));
        assert!(!md.contains("answered from the previous step's rows"));

        // a dice of the current rows says where its result came from
        let tops = session.refinements(RefineOp::TopK).expect("topk");
        session
            .apply(tops.into_iter().next().expect("one"))
            .expect("runs");
        let md = to_markdown(&session, endpoint.graph());
        assert_eq!(md.matches("Cost: ").count(), 3);
        assert_eq!(
            md.matches("answered from the previous step's rows").count(),
            1
        );
        assert!(
            md.contains("HAVING"),
            "the kept SPARQL still carries the dice"
        );
    }

    #[test]
    fn long_results_are_truncated_with_a_note() {
        let mut dataset = re2x_datagen::eurostat::generate(500, 1);
        let graph = std::mem::take(&mut dataset.graph);
        let endpoint = LocalEndpoint::new(graph);
        let schema = bootstrap(&endpoint, &BootstrapConfig::new(&dataset.observation_class))
            .expect("bootstrap")
            .schema;
        let mut session = Session::new(&endpoint, &schema, SessionConfig::default());
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("runs");
        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        session
            .apply(dis.into_iter().next().expect("one"))
            .expect("runs");
        let md = to_markdown(&session, endpoint.graph());
        assert!(md.contains("more row(s)."), "{md}");
        // the preview is truncated to PREVIEW_ROWS: a step's table never has
        // more than PREVIEW_ROWS data rows
        let step2 = md.split("## Step 2:").nth(1).expect("step 2 rendered");
        let data_rows = step2
            .lines()
            .skip_while(|l| !l.starts_with("|---"))
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .count();
        assert!(data_rows <= PREVIEW_ROWS, "{data_rows} rows previewed");
    }
}
