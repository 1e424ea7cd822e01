//! Poll-based asynchronous query fan-out over any [`SparqlEndpoint`].
//!
//! The `trace` experiment shows endpoint round-trips dominating pipeline
//! wall time under realistic latency — the paper's Virtuoso observation.
//! Bootstrap and refinement previews each issue *batches of independent
//! queries*, so the latency of a batch can be the latency of one
//! round-trip instead of their sum. [`AsyncSparqlEndpoint`] is that seam:
//! a ticket-based submission API with **no external runtime** — no
//! futures executor, no callback plumbing, just [`std::task::Poll`] over a
//! small internal pool of scoped threads.
//!
//! ## Ticket lifecycle
//!
//! [`submit`] enqueues a request and returns a [`Ticket`]. Tickets are
//! not cloneable and a response is delivered **exactly once**: [`poll`]
//! hands it out on `Ready` (after which the ticket is spent and must be
//! dropped), [`wait`]/[`join_all`] consume the ticket(s) outright.
//! [`join_all`] returns responses **in submission order**, which is what
//! lets callers fan out a batch and reassemble results byte-identically
//! to the serial loop they replaced.
//!
//! ## Stats and provenance reconciliation
//!
//! The adapter adds no accounting of its own: every request is serviced
//! by calling straight into the wrapped endpoint stack from a pool
//! thread, so [`EndpointStats`](crate::EndpointStats) counters and the
//! latency histogram see exactly the queries a serial caller would have
//! issued. Span attribution would normally be lost on a pool thread
//! (spans are per-thread), so [`submit`] captures the submitting thread's
//! innermost span via [`SparqlEndpoint::tracer`] and the worker *adopts*
//! it ([`re2x_obs::Tracer::adopt`]) while servicing the request — queries
//! reconcile to the same provenance paths as their serial equivalents,
//! and `TracingEndpoint`/`CachingEndpoint` composition keeps working.
//!
//! [`submit`]: AsyncSparqlEndpoint::submit
//! [`poll`]: AsyncSparqlEndpoint::poll
//! [`wait`]: AsyncSparqlEndpoint::wait
//! [`join_all`]: AsyncSparqlEndpoint::join_all

use crate::ast::Query;
use crate::endpoint::SparqlEndpoint;
use crate::error::SparqlError;
use crate::value::Solutions;
use re2x_obs::{lock_or_recover, wait_or_recover, SpanHandle, Tracer};
use re2x_rdf::TermId;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::task::Poll;

/// One request submitted for asynchronous servicing — the three call
/// shapes of [`SparqlEndpoint`].
#[derive(Debug, Clone)]
pub enum AsyncRequest {
    /// A `SELECT` query.
    Select(Query),
    /// An `ASK` query.
    Ask(Query),
    /// A full-text keyword lookup.
    Keyword {
        /// The keyword to resolve.
        keyword: String,
        /// Whether the whole normalized lexical form must match.
        exact: bool,
    },
}

/// The response for a completed ticket, mirroring [`AsyncRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum AsyncResponse {
    /// Rows of a `SELECT`.
    Select(Solutions),
    /// Answer of an `ASK`.
    Ask(bool),
    /// Hits of a keyword lookup.
    Keyword(Vec<TermId>),
}

impl AsyncResponse {
    /// The response's shape name, for mismatch diagnostics.
    fn shape(&self) -> &'static str {
        match self {
            AsyncResponse::Select(_) => "SELECT",
            AsyncResponse::Ask(_) => "ASK",
            AsyncResponse::Keyword(_) => "keyword search",
        }
    }

    /// Unwraps a `SELECT` response, or a typed
    /// [`SparqlError::TicketMismatch`] if the ticket was not submitted as
    /// [`AsyncRequest::Select`].
    pub fn into_select(self) -> Result<Solutions, SparqlError> {
        match self {
            AsyncResponse::Select(s) => Ok(s),
            other => Err(SparqlError::TicketMismatch {
                expected: "SELECT",
                got: other.shape(),
            }),
        }
    }

    /// Unwraps an `ASK` response, or a typed
    /// [`SparqlError::TicketMismatch`] if the ticket was not submitted as
    /// [`AsyncRequest::Ask`].
    pub fn into_ask(self) -> Result<bool, SparqlError> {
        match self {
            AsyncResponse::Ask(b) => Ok(b),
            other => Err(SparqlError::TicketMismatch {
                expected: "ASK",
                got: other.shape(),
            }),
        }
    }

    /// Unwraps a keyword-search response, or a typed
    /// [`SparqlError::TicketMismatch`] if the ticket was not submitted as
    /// [`AsyncRequest::Keyword`].
    pub fn into_keyword(self) -> Result<Vec<TermId>, SparqlError> {
        match self {
            AsyncResponse::Keyword(hits) => Ok(hits),
            other => Err(SparqlError::TicketMismatch {
                expected: "keyword search",
                got: other.shape(),
            }),
        }
    }
}

/// Handle to one in-flight request. Not cloneable; the response is
/// delivered exactly once, after which the ticket is spent.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Poll-based multi-query submission. See the module docs for the ticket
/// lifecycle and the reconciliation guarantees implementations must keep.
pub trait AsyncSparqlEndpoint {
    /// Enqueues a request for servicing; returns immediately.
    fn submit(&self, request: AsyncRequest) -> Ticket;

    /// Non-blocking check: `Ready` hands the response out (consuming it —
    /// drop the ticket afterwards), `Pending` means it is still in flight.
    fn poll(&self, ticket: &Ticket) -> Poll<Result<AsyncResponse, SparqlError>>;

    /// Blocks until the ticket's response is available and consumes it.
    fn wait(&self, ticket: Ticket) -> Result<AsyncResponse, SparqlError> {
        loop {
            match self.poll(&ticket) {
                Poll::Ready(result) => return result,
                Poll::Pending => std::thread::yield_now(),
            }
        }
    }

    /// Waits for every ticket, returning the responses **in submission
    /// order** (the order of `tickets`), so batched fan-out reassembles
    /// deterministically.
    fn join_all(&self, tickets: Vec<Ticket>) -> Vec<Result<AsyncResponse, SparqlError>> {
        tickets.into_iter().map(|t| self.wait(t)).collect()
    }

    /// [`submit`](AsyncSparqlEndpoint::submit) of a `SELECT` query.
    fn submit_select(&self, query: Query) -> Ticket {
        self.submit(AsyncRequest::Select(query))
    }

    /// [`submit`](AsyncSparqlEndpoint::submit) of an `ASK` query.
    fn submit_ask(&self, query: Query) -> Ticket {
        self.submit(AsyncRequest::Ask(query))
    }
}

struct Job {
    id: u64,
    request: AsyncRequest,
    /// Innermost span open on the submitting thread, adopted by the
    /// worker so provenance paths match the serial equivalent.
    context: Option<SpanHandle>,
}

#[derive(Default)]
struct Shared {
    queue: VecDeque<Job>,
    done: HashMap<u64, Result<AsyncResponse, SparqlError>>,
    shutdown: bool,
}

/// The blanket [`AsyncSparqlEndpoint`] adapter over any
/// [`SparqlEndpoint`]: in-flight tickets are serviced by a small pool of
/// scoped worker threads borrowing the wrapped endpoint. Construct it
/// with [`with_async_endpoint`] — the workers are scoped to that call, so
/// the adapter cannot outlive the endpoint it borrows.
pub struct AsyncAdapter {
    // lock-order: sparql.async.shared
    shared: Mutex<Shared>,
    /// Wakes workers when a job is queued (or shutdown is flagged).
    jobs: Condvar,
    /// Wakes waiters when a response lands.
    results: Condvar,
    next_ticket: AtomicU64,
    /// Clone of the endpoint stack's tracer, for capturing the
    /// submitter's span context at submit time.
    tracer: Tracer,
}

impl AsyncAdapter {
    fn new(tracer: Tracer) -> AsyncAdapter {
        AsyncAdapter {
            shared: Mutex::new(Shared::default()),
            jobs: Condvar::new(),
            results: Condvar::new(),
            next_ticket: AtomicU64::new(1),
            tracer,
        }
    }

    fn worker_loop(&self, endpoint: &(impl SparqlEndpoint + ?Sized)) {
        loop {
            let job = {
                let mut shared = lock_or_recover("sparql.async.shared", &self.shared);
                loop {
                    if let Some(job) = shared.queue.pop_front() {
                        break job;
                    }
                    if shared.shutdown {
                        return;
                    }
                    shared = wait_or_recover(&self.jobs, shared);
                }
            };
            let _context = job.context.as_ref().map(|h| self.tracer.adopt(h));
            let result = match job.request {
                AsyncRequest::Select(q) => endpoint.select(&q).map(AsyncResponse::Select),
                AsyncRequest::Ask(q) => endpoint.ask(&q).map(AsyncResponse::Ask),
                AsyncRequest::Keyword { keyword, exact } => Ok(AsyncResponse::Keyword(
                    endpoint.keyword_search(&keyword, exact),
                )),
            };
            let mut shared = lock_or_recover("sparql.async.shared", &self.shared);
            shared.done.insert(job.id, result);
            self.results.notify_all();
        }
    }

    fn shutdown(&self) {
        lock_or_recover("sparql.async.shared", &self.shared).shutdown = true;
        self.jobs.notify_all();
    }
}

impl AsyncSparqlEndpoint for AsyncAdapter {
    fn submit(&self, request: AsyncRequest) -> Ticket {
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let context = self.tracer.current_handle();
        {
            let mut shared = lock_or_recover("sparql.async.shared", &self.shared);
            shared.queue.push_back(Job {
                id,
                request,
                context,
            });
        }
        self.jobs.notify_one();
        Ticket(id)
    }

    fn poll(&self, ticket: &Ticket) -> Poll<Result<AsyncResponse, SparqlError>> {
        let mut shared = lock_or_recover("sparql.async.shared", &self.shared);
        match shared.done.remove(&ticket.0) {
            Some(result) => Poll::Ready(result),
            None => Poll::Pending,
        }
    }

    fn wait(&self, ticket: Ticket) -> Result<AsyncResponse, SparqlError> {
        let mut shared = lock_or_recover("sparql.async.shared", &self.shared);
        loop {
            if let Some(result) = shared.done.remove(&ticket.0) {
                return result;
            }
            shared = wait_or_recover(&self.results, shared);
        }
    }
}

/// Flags shutdown even if the driven closure panics, so the scoped
/// workers (blocked on the jobs condvar) wake up and the scope can join.
struct ShutdownGuard<'a>(&'a AsyncAdapter);

impl Drop for ShutdownGuard<'_> {
    fn drop(&mut self) {
        self.0.shutdown();
    }
}

/// Runs `f` with an [`AsyncAdapter`] whose `workers` pool threads service
/// tickets against `endpoint`. The pool is scoped to this call: it drains
/// outstanding jobs and joins before returning. `workers` is clamped to
/// at least 1; worker count never affects *what* responses a ticket
/// yields, only how many requests are in flight at once.
pub fn with_async_endpoint<R>(
    endpoint: &(impl SparqlEndpoint + ?Sized),
    workers: usize,
    f: impl FnOnce(&AsyncAdapter) -> R,
) -> R {
    let tracer = endpoint.tracer().cloned().unwrap_or_default();
    let adapter = AsyncAdapter::new(tracer);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| adapter.worker_loop(endpoint));
        }
        let _shutdown = ShutdownGuard(&adapter);
        f(&adapter)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::LocalEndpoint;
    use crate::parser::parse_query;
    use crate::tracing::TracingEndpoint;
    use re2x_rdf::io::parse_turtle;
    use re2x_rdf::Graph;
    use std::time::Duration;

    fn local() -> LocalEndpoint {
        let mut g = Graph::new();
        parse_turtle(
            r#"@prefix ex: <http://ex/> .
            ex:o1 ex:dest ex:Germany ; ex:value 5 .
            ex:o2 ex:dest ex:France ; ex:value 7 .
            ex:Germany ex:label "Germany" .
            ex:France ex:label "France" .
            "#,
            &mut g,
        )
        .expect("parse");
        LocalEndpoint::new(g)
    }

    fn select(text: &str) -> Query {
        parse_query(text).expect("parses")
    }

    #[test]
    fn responses_match_serial_and_keep_submission_order() {
        let ep = local();
        let queries = [
            "SELECT ?d WHERE { ?o <http://ex/dest> ?d } ORDER BY ?d",
            "SELECT ?o WHERE { ?o <http://ex/dest> <http://ex/Germany> }",
            "SELECT ?v WHERE { ?o <http://ex/value> ?v } ORDER BY ?v",
        ];
        let serial: Vec<Solutions> = queries
            .iter()
            .map(|q| ep.select(&select(q)).expect("serial"))
            .collect();
        let async_results = with_async_endpoint(&ep, 3, |pool| {
            let tickets: Vec<Ticket> = queries
                .iter()
                .map(|q| pool.submit_select(select(q)))
                .collect();
            pool.join_all(tickets)
        });
        for (serial, async_result) in serial.iter().zip(&async_results) {
            assert_eq!(
                serial,
                &async_result
                    .clone()
                    .expect("ok")
                    .into_select()
                    .expect("shape"),
                "async response identical and in submission order"
            );
        }
    }

    #[test]
    fn all_three_request_kinds_round_trip() {
        let ep = local();
        with_async_endpoint(&ep, 2, |pool| {
            let s = pool.submit_select(select("SELECT ?d WHERE { ?o <http://ex/dest> ?d }"));
            let a = pool.submit_ask(select("ASK { ?o <http://ex/dest> <http://ex/Germany> }"));
            let k = pool.submit(AsyncRequest::Keyword {
                keyword: "germany".into(),
                exact: true,
            });
            assert_eq!(
                pool.wait(s)
                    .expect("select")
                    .into_select()
                    .expect("shape")
                    .len(),
                2
            );
            assert!(pool.wait(a).expect("ask").into_ask().expect("shape"));
            assert_eq!(
                pool.wait(k)
                    .expect("keyword")
                    .into_keyword()
                    .expect("shape")
                    .len(),
                1
            );
        });
        let stats = ep.stats();
        assert_eq!(stats.selects, 1);
        assert_eq!(stats.asks, 1);
        assert_eq!(stats.keyword_searches, 1);
    }

    #[test]
    fn poll_transitions_from_pending_to_ready() {
        let ep = local().with_latency(Duration::from_millis(10));
        with_async_endpoint(&ep, 1, |pool| {
            let ticket = pool.submit_select(select("SELECT ?d WHERE { ?o <http://ex/dest> ?d }"));
            // with 10 ms injected latency the first poll races ahead of
            // the worker; keep polling until Ready
            let mut pending_seen = false;
            let response = loop {
                match pool.poll(&ticket) {
                    Poll::Ready(r) => break r,
                    Poll::Pending => {
                        pending_seen = true;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            };
            assert!(pending_seen, "an in-flight ticket polls Pending");
            assert_eq!(response.expect("ok").into_select().expect("shape").len(), 2);
            // the response was handed out exactly once: the spent ticket
            // now polls Pending forever (it has no pending job either)
            assert!(pool.poll(&ticket).is_pending());
        });
    }

    #[test]
    fn errors_propagate_per_ticket() {
        let ep = local();
        // projected-but-not-grouped is rejected at *evaluation* time, so
        // the error surfaces through the worker, not at submit
        let bad = select(
            "SELECT ?d (SUM(?v) AS ?s) WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/value> ?v }",
        );
        let good = select("SELECT ?d WHERE { ?o <http://ex/dest> ?d }");
        with_async_endpoint(&ep, 2, |pool| {
            let t_bad = pool.submit_select(bad);
            let t_good = pool.submit_select(good);
            let err = pool
                .wait(t_bad)
                .expect_err("invalid query fails its own ticket");
            assert!(matches!(err, SparqlError::Invalid(_)), "{err:?}");
            assert_eq!(
                pool.wait(t_good)
                    .expect("unrelated ticket unaffected")
                    .into_select()
                    .expect("shape")
                    .len(),
                2
            );
        });
    }

    #[test]
    fn stats_equal_serial_under_concurrent_tickets() {
        let serial = local();
        for i in 0..20 {
            if i % 2 == 0 {
                serial
                    .select(&select("SELECT ?d WHERE { ?o <http://ex/dest> ?d }"))
                    .expect("select");
            } else {
                serial
                    .ask(&select("ASK { ?o <http://ex/dest> <http://ex/France> }"))
                    .expect("ask");
            }
        }
        let concurrent = local();
        with_async_endpoint(&concurrent, 4, |pool| {
            let tickets: Vec<Ticket> = (0..20)
                .map(|i| {
                    if i % 2 == 0 {
                        pool.submit_select(select("SELECT ?d WHERE { ?o <http://ex/dest> ?d }"))
                    } else {
                        pool.submit_ask(select("ASK { ?o <http://ex/dest> <http://ex/France> }"))
                    }
                })
                .collect();
            for r in pool.join_all(tickets) {
                r.expect("ok");
            }
        });
        let s = serial.stats();
        let c = concurrent.stats();
        assert_eq!(s.selects, c.selects);
        assert_eq!(s.asks, c.asks);
        assert_eq!(s.rows_returned, c.rows_returned);
        assert_eq!(s.latency.count(), c.latency.count());
    }

    #[test]
    fn provenance_reconciles_under_concurrent_tickets() {
        let tracer = Tracer::enabled();
        let ep = TracingEndpoint::new(
            local().with_latency(Duration::from_millis(1)),
            tracer.clone(),
        );
        {
            let _phase = tracer.span("fanout.batch");
            with_async_endpoint(&ep, 4, |pool| {
                let tickets: Vec<Ticket> = (0..12)
                    .map(|_| {
                        pool.submit_select(select("SELECT ?d WHERE { ?o <http://ex/dest> ?d }"))
                    })
                    .collect();
                for r in pool.join_all(tickets) {
                    r.expect("ok");
                }
            });
        }
        let stats = ep.stats();
        let provenance = tracer.provenance();
        let attributed: u64 = provenance.iter().map(|(_, s)| s.queries()).sum();
        assert_eq!(attributed, stats.total_queries(), "exact reconciliation");
        // every query attributed to the submitter's span, none stray
        let (path, phase_stats) = &provenance[0];
        assert_eq!(provenance.len(), 1, "{provenance:?}");
        assert_eq!(path, "fanout.batch");
        assert_eq!(phase_stats.selects, 12);
        assert_eq!(phase_stats.latency.count(), 12);
    }

    #[test]
    fn overlap_beats_serial_under_injected_latency() {
        let latency = Duration::from_millis(4);
        let ep = local().with_latency(latency);
        let query = "SELECT ?d WHERE { ?o <http://ex/dest> ?d }";
        let n = 8u32;

        let serial_start = std::time::Instant::now();
        for _ in 0..n {
            ep.select(&select(query)).expect("serial");
        }
        let serial_wall = serial_start.elapsed();

        let async_start = std::time::Instant::now();
        with_async_endpoint(&ep, 4, |pool| {
            let tickets: Vec<Ticket> = (0..n).map(|_| pool.submit_select(select(query))).collect();
            for r in pool.join_all(tickets) {
                r.expect("ok");
            }
        });
        let async_wall = async_start.elapsed();

        assert!(serial_wall >= latency * n, "serial pays every round-trip");
        assert!(
            async_wall < serial_wall,
            "overlapped fan-out ({async_wall:?}) beats serial ({serial_wall:?})"
        );
    }

    #[test]
    fn zero_workers_is_clamped_and_still_serves() {
        let ep = local();
        with_async_endpoint(&ep, 0, |pool| {
            let t = pool.submit_select(select("SELECT ?d WHERE { ?o <http://ex/dest> ?d }"));
            assert_eq!(
                pool.wait(t)
                    .expect("ok")
                    .into_select()
                    .expect("shape")
                    .len(),
                2
            );
        });
    }
}
