//! Per-session query budgets.
//!
//! [`QueryBudget`] is the innermost per-session decorator: it admits at
//! most `limit` `SELECT`/`ASK` queries to the tenant stack it borrows and
//! refuses every query after that with the typed
//! [`SparqlError::BudgetExhausted`] — *without* forwarding it, so a
//! runaway session is cut off **exactly at the budget**: the endpoint
//! answers the `limit`-th query and never sees the `limit + 1`-th.
//!
//! Keyword lookups are not budgeted: the seam's `keyword_search` has no
//! error channel (it returns hits, not a `Result`), and silently returning
//! an empty hit list would corrupt synthesis instead of failing it. The
//! budget therefore bounds the expensive evaluated-query traffic, which is
//! what the paper's cost model attributes endpoint load to.

use re2x_rdf::{Graph, TermId};
use re2x_sparql::{EndpointStats, Query, Solutions, SparqlEndpoint, SparqlError};
use std::sync::atomic::{AtomicU64, Ordering};

/// A borrowing decorator enforcing a per-session query budget over a
/// tenant's endpoint stack.
pub struct QueryBudget<'a> {
    inner: &'a dyn SparqlEndpoint,
    limit: u64,
    admitted: AtomicU64,
    refused: AtomicU64,
}

impl<'a> QueryBudget<'a> {
    /// Wraps `inner`, admitting at most `limit` `SELECT`/`ASK` queries.
    pub fn new(inner: &'a dyn SparqlEndpoint, limit: u64) -> QueryBudget<'a> {
        QueryBudget {
            inner,
            limit,
            admitted: AtomicU64::new(0),
            refused: AtomicU64::new(0),
        }
    }

    /// Queries admitted to the inner endpoint so far (never exceeds the
    /// limit).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::SeqCst)
    }

    /// Queries refused after exhaustion.
    pub fn refused(&self) -> u64 {
        self.refused.load(Ordering::SeqCst)
    }

    /// The configured budget.
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Reserves one admission slot, or reports exhaustion. A CAS loop so
    /// callers sharing one budget across threads (the seam is `Sync`) can
    /// never push the admitted count past the limit.
    fn admit(&self) -> Result<(), SparqlError> {
        loop {
            let used = self.admitted.load(Ordering::SeqCst);
            if used >= self.limit {
                self.refused.fetch_add(1, Ordering::SeqCst);
                return Err(SparqlError::BudgetExhausted { limit: self.limit });
            }
            if self
                .admitted
                .compare_exchange(used, used + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Ok(());
            }
        }
    }
}

impl SparqlEndpoint for QueryBudget<'_> {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        self.admit()?;
        self.inner.select(query)
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        self.admit()?;
        self.inner.ask(query)
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        self.inner.keyword_search(keyword, exact)
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn stats(&self) -> EndpointStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::io::parse_turtle;
    use re2x_sparql::LocalEndpoint;

    fn endpoint() -> LocalEndpoint {
        let mut g = Graph::new();
        parse_turtle(
            r#"@prefix ex: <http://ex/> .
            ex:o1 ex:dest ex:Germany .
            ex:o2 ex:dest ex:France .
            ex:Germany ex:label "Germany" .
            "#,
            &mut g,
        )
        .expect("parse");
        LocalEndpoint::new(g)
    }

    #[test]
    fn cuts_off_exactly_at_the_budget() {
        let ep = endpoint();
        let budget = QueryBudget::new(&ep, 3);
        for _ in 0..3 {
            budget
                .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                .expect("within budget");
        }
        let err = budget
            .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
            .expect_err("over budget");
        assert_eq!(err, SparqlError::BudgetExhausted { limit: 3 });
        assert_eq!(budget.admitted(), 3);
        assert_eq!(budget.refused(), 1);
        // the endpoint never saw the refused query
        assert_eq!(ep.stats().selects, 3);
    }

    #[test]
    fn asks_count_and_keyword_searches_pass_through() {
        let ep = endpoint();
        let budget = QueryBudget::new(&ep, 1);
        assert!(budget
            .ask_text("ASK { ?o <http://ex/dest> <http://ex/Germany> }")
            .expect("ask"));
        assert!(budget
            .ask_text("ASK { ?o <http://ex/dest> <http://ex/Germany> }")
            .is_err());
        // keyword lookups are unbudgeted by design
        assert_eq!(budget.keyword_search("germany", true).len(), 1);
        assert_eq!(ep.stats().keyword_searches, 1);
    }

    #[test]
    fn concurrent_probes_never_exceed_the_limit() {
        let ep = endpoint();
        let budget = QueryBudget::new(&ep, 10);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10 {
                        let _ = budget.select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }");
                    }
                });
            }
        });
        assert_eq!(budget.admitted(), 10);
        assert_eq!(budget.refused(), 30);
        assert_eq!(ep.stats().selects, 10);
    }
}
