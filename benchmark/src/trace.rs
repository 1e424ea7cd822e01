//! Benchmark-side tracing: spans recorded around the calls into each layer.
//!
//! Nothing here touches the program's own tracing (`re2x-obs` stays off).
//! A [`Tracer`] keeps spans in memory; [`TracedEndpoint`] is the decorator
//! put around a base endpoint so every `select` / `ask` /
//! `keyword_search` becomes a span with its row count.

use re2x_rdf::{Graph, TermId};
use re2x_sparql::{query_to_sparql, EndpointStats, Query, Solutions, SparqlEndpoint, SparqlError};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Marks "no request" / "no parent".
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order of its start.
    pub id: u32,
    /// Layer-boundary name, e.g. `endpoint.select`.
    pub name: &'static str,
    /// Request the span belongs to, or [`NONE`].
    pub request: u32,
    /// The span that caused it, or [`NONE`].
    pub parent: u32,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Rows (or hits, or triples) the call produced.
    pub rows: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    /// While on, traced endpoints also record the text of each query.
    census_on: AtomicBool,
    census: Mutex<BTreeSet<String>>,
}

/// Distinct query texts the census keeps at most.
const CENSUS_CAP: usize = 4096;

/// Where a span started on a thread without open spans attaches: the
/// request and root span a client published before handing work to
/// another thread (the server's workers).
#[derive(Debug, Default)]
pub struct Scope(AtomicU64);

impl Scope {
    /// Publishes the request and its root span.
    pub fn set(&self, request: u32, parent: u32) {
        self.0.store(
            u64::from(request) << 32 | u64::from(parent),
            Ordering::SeqCst,
        );
    }

    fn get(&self) -> (u32, u32) {
        let v = self.0.load(Ordering::SeqCst);
        ((v >> 32) as u32, v as u32)
    }
}

thread_local! {
    /// Open spans of this thread, innermost last: `(span id, request)`.
    static OPEN: RefCell<Vec<(u32, u32)>> = const { RefCell::new(Vec::new()) };
}

/// Span recorder; the disabled tracer records nothing and costs a branch.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A recording tracer; its clock starts now.
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                census_on: AtomicBool::new(false),
                census: Mutex::new(BTreeSet::new()),
            })),
        }
    }

    /// `true` if spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, None, None)
    }

    /// Opens the root span of request `request`.
    pub fn request(&self, name: &'static str, request: u32) -> SpanGuard<'_> {
        self.open(name, Some(request), None)
    }

    /// Opens a span that falls back to `scope` when this thread has no
    /// open span (a server worker running a client's session).
    pub fn span_in(&self, name: &'static str, scope: &Scope) -> SpanGuard<'_> {
        self.open(name, None, Some(scope))
    }

    fn open(
        &self,
        name: &'static str,
        request: Option<u32>,
        scope: Option<&Scope>,
    ) -> SpanGuard<'_> {
        let Some(inner) = &self.inner else {
            return SpanGuard {
                tracer: self,
                slot: None,
                rows: 0,
            };
        };
        let (mut parent, mut req) = OPEN
            .with(|o| o.borrow().last().copied())
            .unwrap_or((NONE, NONE));
        if parent == NONE {
            if let Some(scope) = scope {
                (req, parent) = scope.get();
            }
        }
        if let Some(request) = request {
            req = request;
        }
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        let id = {
            let mut spans = inner
                .spans
                .lock()
                .expect("span store poisoned by a panicking recorder");
            let id = spans.len() as u32;
            spans.push(Span {
                id,
                name,
                request: req,
                parent,
                start_ns,
                end_ns: start_ns,
                rows: 0,
            });
            id
        };
        OPEN.with(|o| o.borrow_mut().push((id, req)));
        SpanGuard {
            tracer: self,
            slot: Some(id),
            rows: 0,
        }
    }

    /// Turns the query census on or off. It is kept off during timed
    /// passes: printing a query costs as much as a small `ASK`.
    pub fn set_census(&self, on: bool) {
        if let Some(inner) = &self.inner {
            inner.census_on.store(on, Ordering::SeqCst);
        }
    }

    fn note_query(&self, query: &Query) {
        let Some(inner) = &self.inner else { return };
        if !inner.census_on.load(Ordering::SeqCst) {
            return;
        }
        let mut census = inner
            .census
            .lock()
            .expect("census poisoned by a panicking recorder");
        if census.len() < CENSUS_CAP {
            census.insert(query_to_sparql(query));
        }
    }

    /// The distinct query texts seen while the census was on.
    pub fn census(&self) -> Vec<String> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.census
                .lock()
                .expect("census poisoned by a panicking recorder")
                .iter()
                .cloned()
                .collect()
        })
    }

    /// Copies out every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.spans
                .lock()
                .expect("span store poisoned by a panicking recorder")
                .clone()
        })
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    slot: Option<u32>,
    rows: u64,
}

impl SpanGuard<'_> {
    /// Sets the span's row count.
    pub fn rows(&mut self, rows: usize) {
        self.rows = rows as u64;
    }

    /// The span's id, or [`NONE`] when tracing is off.
    pub fn id(&self) -> u32 {
        self.slot.unwrap_or(NONE)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let (Some(id), Some(inner)) = (self.slot, &self.tracer.inner) else {
            return;
        };
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|o| {
            let mut open = o.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&(open_id, _)| open_id == id) {
                open.truncate(pos);
            }
        });
        // a poisoned store only loses this span's end; never panic in drop
        if let Ok(mut spans) = inner.spans.lock() {
            let span = &mut spans[id as usize];
            span.end_ns = end_ns;
            span.rows = self.rows;
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NONE {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Count, total and self time of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
    /// Sum of their row counts.
    pub rows: u64,
}

/// Totals per span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
        t.rows += s.rows;
    }
    out
}

/// Approximate size of one span's JSON line.
const SPAN_LINE_BYTES: usize = 120;

/// Renders the trace file: one `totals` line per span name over *all*
/// requests, then the full span trees of a seeded 1-in-k sample of
/// requests, k chosen so the file stays near `cap_bytes`.
pub fn render_jsonl(spans: &[Span], seed: u64, cap_bytes: usize) -> String {
    let mut out = String::new();
    for (name, t) in totals_by_name(spans) {
        let _ = writeln!(
            out,
            "{{\"totals\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"rows\":{}}}",
            t.count, t.total_ns, t.self_ns, t.rows
        );
    }
    let k = (spans.len() * SPAN_LINE_BYTES)
        .div_ceil(cap_bytes.max(1))
        .max(1) as u64;
    let _ = writeln!(
        out,
        "{{\"sample\":\"1 in {k} requests\",\"spans_recorded\":{}}}",
        spans.len()
    );
    for s in spans {
        let mut pick = crate::stats::Fnv::default();
        pick.write_u64(seed);
        pick.write_u64(u64::from(s.request));
        if pick.0 % k != 0 {
            continue;
        }
        let opt = |v: u32| {
            if v == NONE {
                "null".to_owned()
            } else {
                v.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"request\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"rows\":{}}}",
            s.id, s.name, opt(s.request), opt(s.parent), s.start_ns, s.end_ns, s.rows
        );
    }
    out
}

/// Span names of one [`TracedEndpoint`] position in a decorator stack.
#[derive(Debug, Clone, Copy)]
pub struct EndpointNames {
    /// Name of `select` spans.
    pub select: &'static str,
    /// Name of `ask` spans.
    pub ask: &'static str,
    /// Name of `keyword_search` spans.
    pub keyword_search: &'static str,
}

/// Directly around the base endpoint: what evaluation costs.
pub const BASE: EndpointNames = EndpointNames {
    select: "endpoint.select",
    ask: "endpoint.ask",
    keyword_search: "endpoint.keyword_search",
};

/// Around a `CachingEndpoint`: what a session sees, hit or miss.
pub const CACHED: EndpointNames = EndpointNames {
    select: "cache.select",
    ask: "cache.ask",
    keyword_search: "cache.keyword_search",
};

/// The benchmark-owned `SparqlEndpoint` decorator.
pub struct TracedEndpoint<E> {
    inner: E,
    tracer: Tracer,
    names: EndpointNames,
    scope: Arc<Scope>,
}

impl<E: SparqlEndpoint> TracedEndpoint<E> {
    /// Wraps `inner`; spans opened on threads without open spans attach to
    /// whatever the caller last published in `scope`.
    pub fn new(inner: E, tracer: Tracer, names: EndpointNames, scope: Arc<Scope>) -> Self {
        TracedEndpoint {
            inner,
            tracer,
            names,
            scope,
        }
    }
}

impl<E: SparqlEndpoint> SparqlEndpoint for TracedEndpoint<E> {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        let result = {
            let mut span = self.tracer.span_in(self.names.select, &self.scope);
            let result = self.inner.select(query);
            if let Ok(solutions) = &result {
                span.rows(solutions.len());
            }
            result
        };
        self.tracer.note_query(query);
        result
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        let result = {
            let mut span = self.tracer.span_in(self.names.ask, &self.scope);
            let result = self.inner.ask(query);
            if let Ok(answer) = &result {
                span.rows(usize::from(*answer));
            }
            result
        };
        self.tracer.note_query(query);
        result
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        let mut span = self.tracer.span_in(self.names.keyword_search, &self.scope);
        let hits = self.inner.keyword_search(keyword, exact);
        span.rows(hits.len());
        hits
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn stats(&self) -> EndpointStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}
