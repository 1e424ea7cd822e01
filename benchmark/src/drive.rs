//! Runs one pass of a script and records what every request cost and
//! returned. Single-client workloads are driven here; `serve_live` is in
//! [`crate::serve`].

use crate::calib::{Sample, Stopwatch};
use crate::stats::Fnv;
use crate::trace::Tracer;
use crate::workload::SessionPlan;
use re2x_cube::VirtualSchemaGraph;
use re2x_rdf::Graph;
use re2x_sparql::{to_tsv, Solutions, SparqlEndpoint};
use re2xolap::{Re2xError, RefineOp, Session, SessionConfig, Step, SynthesisOutcome};
use std::collections::HashSet;

/// How much of the output is checked in a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Checks {
    /// Every output check, and result digests.
    Full,
    /// Result digests only (compared with the full pass).
    Digest,
    /// Row counts only — the cheap fingerprint of the timed passes.
    Light,
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// It produced a result.
    Answered,
    /// No candidates / no offers: counted, not a failure.
    DeadEnd,
    /// A typed error, a refusal, or a panic contained by the server.
    Failed,
}

/// One executed request.
#[derive(Debug, Clone, Copy)]
pub struct RequestRecord {
    /// Wall time of the request (its CPU is per segment), with the
    /// calibration kernel run before it.
    pub time: Sample,
    /// Digest of its result (0 under [`Checks::Light`]).
    pub digest: u64,
    /// Rows (or candidates) it returned.
    pub rows: u64,
    /// How it ended.
    pub outcome: Outcome,
}

/// A stretch of a pass that is timed as a whole: wall and process CPU.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Wall, CPU and adjacent kernel time.
    pub time: Sample,
    /// `true` for the write side of `serve_live`.
    pub write: bool,
}

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct PassResult {
    /// One record per request, in script order.
    pub requests: Vec<RequestRecord>,
    /// The pass cut into timed segments that add up to its measured wall.
    pub segments: Vec<Segment>,
    /// Output checks that failed.
    pub violations: Vec<String>,
    /// Serial `run_script` time of each request (`serve_live`, full pass).
    pub serial_ns: Vec<u64>,
    /// Cache hits, misses and evictions of the cached tenant.
    pub cache: (u64, u64, u64),
    /// Sessions the server refused.
    pub rejected: u64,
    /// `SELECT`s, `ASK`s and rows returned, counted by the base endpoints.
    pub eval: (u64, u64, u64),
}

impl PassResult {
    /// Requests that ended in a dead end.
    pub fn dead_ends(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.outcome == Outcome::DeadEnd)
            .count()
    }

    /// Requests that failed.
    pub fn failures(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| r.outcome == Outcome::Failed)
            .count()
    }
}

/// Appends a timed request: as a request and, the client being alone, as
/// a segment of the pass.
fn record(out: &mut PassResult, time: Sample, outcome: Outcome, rows: usize) -> usize {
    out.requests.push(RequestRecord {
        time,
        digest: 0,
        rows: rows as u64,
        outcome,
    });
    out.segments.push(Segment { time, write: false });
    out.requests.len() - 1
}

fn tsv_lines(solutions: &Solutions, graph: &Graph) -> HashSet<String> {
    to_tsv(solutions, graph)
        .lines()
        .map(str::to_owned)
        .collect()
}

fn refine_span(op: RefineOp) -> &'static str {
    match op {
        RefineOp::Disaggregate => "session.refine.dis",
        RefineOp::TopK => "session.refine.topk",
        RefineOp::Percentile => "session.refine.perc",
        RefineOp::Similarity => "session.refine.sim",
    }
}

/// What a single client drives its sessions with.
pub struct Client<'a> {
    /// The endpoint stack the sessions query.
    pub endpoint: &'a dyn SparqlEndpoint,
    /// The bootstrapped schema.
    pub schema: &'a VirtualSchemaGraph,
    /// Session configuration (keyword-matching mode).
    pub config: SessionConfig,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// How much of the output to check.
    pub checks: Checks,
}

impl Client<'_> {
    /// `Session::synthesize` under its span.
    fn synthesize(
        &self,
        session: &mut Session<'_>,
        example: &[String],
    ) -> Result<SynthesisOutcome, Re2xError> {
        let parts: Vec<&str> = example.iter().map(String::as_str).collect();
        let mut span = self.tracer.span("session.synthesize");
        let result = session.synthesize(&parts);
        if let Ok(outcome) = &result {
            span.rows(outcome.queries.len());
        }
        result
    }

    /// `Session::choose` / `Session::apply` under their span; `run` returns
    /// the rows of the new step.
    fn execute(&self, run: impl FnOnce() -> Result<usize, Re2xError>) -> (Outcome, usize) {
        let mut span = self.tracer.span("session.execute");
        match run() {
            Ok(rows) => {
                span.rows(rows);
                (Outcome::Answered, rows)
            }
            Err(_) => (Outcome::Failed, 0),
        }
    }

    /// Digests the step an answered request left current.
    fn digest(&self, step: &Step, slot: usize, out: &mut PassResult) {
        if self.checks != Checks::Light {
            let tsv = to_tsv(&step.solutions, self.endpoint.graph());
            out.requests[slot].digest = Fnv::of(tsv.as_bytes());
        }
    }

    /// Runs one exploration session: the opening request, then four refine
    /// requests. `first_request` is the id of the opening request.
    pub fn run_session(&self, plan: &SessionPlan, first_request: u32, out: &mut PassResult) {
        let graph = self.endpoint.graph();
        let full = self.checks == Checks::Full;
        let mut session = Session::new(self.endpoint, self.schema, self.config.clone());

        // opening request: synthesize + choose
        let timed = Stopwatch::start();
        let (outcome, rows) = {
            let _root = self.tracer.request("request", first_request);
            match self.synthesize(&mut session, &plan.example) {
                Err(_) => (Outcome::Failed, 0),
                Ok(o) if o.queries.is_empty() => (Outcome::DeadEnd, 0),
                Ok(mut o) => {
                    let query = o.queries.swap_remove(plan.pick % o.queries.len());
                    self.execute(|| session.choose(query).map(|step| step.solutions.len()))
                }
            }
        };
        let slot = record(out, timed.stop(), outcome, rows);
        if let (Outcome::Answered, Some(step)) = (outcome, session.current()) {
            self.digest(step, slot, out);
            if full && step.query.matching_rows(&step.solutions, graph).is_empty() {
                out.violations.push(format!(
                    "request {first_request}: result of the opening query lacks the example {:?}",
                    plan.example
                ));
            }
        }

        // refine requests: refinements + apply
        for (k, &(op, pick)) in plan.refines.iter().enumerate() {
            let request = first_request + 1 + k as u32;
            let parent_rows = (full && matches!(op, RefineOp::TopK | RefineOp::Percentile))
                .then(|| session.current().map(|s| tsv_lines(&s.solutions, graph)))
                .flatten();
            // after an opening that found no candidate there is nothing to refine
            let nothing_to_refine = session.current().is_none();
            let timed = Stopwatch::start();
            let (outcome, rows) = {
                let _root = self.tracer.request("request", request);
                let offered = {
                    let mut span = self.tracer.span(refine_span(op));
                    let result = session.refinements(op);
                    if let Ok(offers) = &result {
                        span.rows(offers.len());
                    }
                    result
                };
                match offered {
                    Err(_) if nothing_to_refine => (Outcome::DeadEnd, 0),
                    Err(_) => (Outcome::Failed, 0),
                    Ok(offers) if offers.is_empty() => (Outcome::DeadEnd, 0),
                    Ok(mut offers) => {
                        let offer = offers.swap_remove(pick % offers.len());
                        self.execute(|| session.apply(offer).map(|step| step.solutions.len()))
                    }
                }
            };
            let slot = record(out, timed.stop(), outcome, rows);
            if let (Outcome::Answered, Some(step)) = (outcome, session.current()) {
                self.digest(step, slot, out);
                if let Some(parent) = parent_rows {
                    let extra = tsv_lines(&step.solutions, graph)
                        .difference(&parent)
                        .count();
                    if extra > 0 {
                        out.violations.push(format!(
                            "request {request}: {op:?} result has {extra} rows its parent lacks"
                        ));
                    }
                }
            }
        }
    }

    /// Runs one synthesis-only request.
    pub fn run_synthesis(&self, example: &[String], request: u32, out: &mut PassResult) {
        let mut session = Session::new(self.endpoint, self.schema, self.config.clone());
        let timed = Stopwatch::start();
        let result = {
            let _root = self.tracer.request("request", request);
            self.synthesize(&mut session, example)
        };
        let time = timed.stop();
        let queries = match result {
            Err(_) => {
                record(out, time, Outcome::Failed, 0);
                return;
            }
            Ok(o) if o.queries.is_empty() => {
                record(out, time, Outcome::DeadEnd, 0);
                return;
            }
            Ok(o) => o.queries,
        };
        let slot = record(out, time, Outcome::Answered, queries.len());
        if self.checks != Checks::Light {
            let mut digest = Fnv::default();
            for q in &queries {
                digest.write(q.sparql().as_bytes());
            }
            out.requests[slot].digest = digest.0;
        }
        // every candidate must interpret every component of the tuple
        if self.checks == Checks::Full {
            if let Some(q) = queries
                .iter()
                .find(|q| q.bindings().count() != example.len())
            {
                out.violations.push(format!(
                    "request {request}: candidate binds {} of {} components of {example:?}",
                    q.bindings().count(),
                    example.len()
                ));
            }
        }
    }
}
