//! The interactive RE²xOLAP session (Algorithm 2).
//!
//! A [`Session`] drives the full workflow: synthesize candidate queries
//! from an example, let the caller pick one, execute it, offer refinements
//! from the ExRef suite, apply one, and repeat — with backtracking to any
//! earlier step. It also keeps the exploration accounting the paper reports
//! in Figure 8c: the cumulative number of *exploration paths* (distinct
//! queries offered) and of result tuples made accessible.

use crate::error::Re2xError;
use crate::query_model::OlapQuery;
use crate::refine::derive::derive;
use crate::refine::{disaggregate, similar, subset, RefineOp, Refinement};
use crate::reolap::{reolap, ReolapConfig, SynthesisOutcome};
use re2x_cube::VirtualSchemaGraph;
use re2x_obs::Tracer;
use re2x_sparql::{Solutions, SparqlEndpoint};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The phase a [`SessionObserver`] callback refers to — one entry per
/// user-visible session operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SessionPhase {
    /// Candidate-query synthesis ([`Session::synthesize`]).
    Synthesize,
    /// Query execution ([`Session::choose`] / [`Session::apply`]).
    Execute,
    /// Refinement generation ([`Session::refinements`]).
    Refine,
    /// Refinement preview ([`Session::preview`]).
    Preview,
}

impl SessionPhase {
    /// Stable lowercase name, suitable as a metric label value.
    pub fn as_str(self) -> &'static str {
        match self {
            SessionPhase::Synthesize => "synthesize",
            SessionPhase::Execute => "execute",
            SessionPhase::Refine => "refine",
            SessionPhase::Preview => "preview",
        }
    }
}

/// Lifecycle hooks for code hosting sessions — a serving layer records
/// per-tenant round latency, admission accounting, and end-of-session
/// metrics through these without the session knowing who hosts it.
///
/// Callbacks run on the session's thread, after the phase completed (hook
/// cost is not attributed to the phase). Implementations must be cheap
/// and must not call back into the session.
pub trait SessionObserver: Send + Sync {
    /// One session phase (a "round" of the interactive loop) finished,
    /// successfully or not, at the given endpoint cost.
    fn on_phase(&self, phase: SessionPhase, cost: StepCost) {
        let _ = (phase, cost);
    }

    /// The session ended ([`Session::finish`] or drop) with these final
    /// exploration metrics.
    fn on_session_end(&self, metrics: &ExplorationMetrics) {
        let _ = metrics;
    }
}

/// Session-level configuration.
#[derive(Clone)]
pub struct SessionConfig {
    /// Synthesis configuration.
    pub reolap: ReolapConfig,
    /// `k` for similarity-search refinements.
    pub similarity_k: usize,
    /// Percentile boundaries for the percentile refinement.
    pub percentiles: Vec<u8>,
    /// Tracer receiving session spans (`session.synthesize`,
    /// `session.execute`, `session.refine`). Disabled by default; also
    /// propagated into `reolap` unless that one carries its own tracer.
    pub tracer: Tracer,
    /// Lifecycle observer, if a hosting layer wants per-phase callbacks.
    pub observer: Option<Arc<dyn SessionObserver>>,
}

impl fmt::Debug for SessionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionConfig")
            .field("reolap", &self.reolap)
            .field("similarity_k", &self.similarity_k)
            .field("percentiles", &self.percentiles)
            .field("tracer", &self.tracer)
            .field("observer", &self.observer.as_ref().map(|_| "<dyn>"))
            .finish()
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            reolap: ReolapConfig::default(),
            similarity_k: 3,
            percentiles: subset::DEFAULT_PERCENTILES.to_vec(),
            tracer: Tracer::disabled(),
            observer: None,
        }
    }
}

/// Endpoint cost of one executed step (wall time of the call plus the
/// endpoint-stats delta it caused).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepCost {
    /// Wall-clock time of the operation.
    pub wall: Duration,
    /// Queries the endpoint answered during it.
    pub endpoint_queries: u64,
    /// Endpoint busy time consumed by it.
    pub endpoint_busy: Duration,
}

/// One step of the exploration: a query and its results.
#[derive(Debug, Clone)]
pub struct Step {
    /// The step's query.
    pub query: OlapQuery,
    /// Its result set.
    pub solutions: Solutions,
    /// What producing it cost.
    pub cost: StepCost,
    /// `true` when the result was picked out of the previous step's rows
    /// ([`derive()`]) rather than executed: no endpoint query was issued, and
    /// the rows reflect the graph as the previous step saw it.
    pub derived: bool,
}

/// Accumulated cost of one session phase across all its invocations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCost {
    /// Times the phase ran.
    pub invocations: u64,
    /// Summed wall-clock time.
    pub wall: Duration,
    /// Summed endpoint queries.
    pub endpoint_queries: u64,
    /// Summed endpoint busy time.
    pub endpoint_busy: Duration,
}

impl PhaseCost {
    fn add(&mut self, cost: StepCost) {
        self.invocations += 1;
        self.wall += cost.wall;
        self.endpoint_queries += cost.endpoint_queries;
        self.endpoint_busy += cost.endpoint_busy;
    }
}

/// Per-phase cost breakdown of the session — the paper's synthesis /
/// execution / refinement attribution (Figs. 6–9), computed from endpoint
/// stats deltas so it works with tracing disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Candidate-query synthesis ([`Session::synthesize`]).
    pub synthesis: PhaseCost,
    /// Query execution ([`Session::choose`] / [`Session::apply`]).
    pub execution: PhaseCost,
    /// Refinement generation ([`Session::refinements`]).
    pub refinement: PhaseCost,
}

/// Cumulative exploration accounting (Figure 8c).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExplorationMetrics {
    /// Number of user interactions performed (synthesis, executions,
    /// refinement requests).
    pub interactions: u64,
    /// Cumulative number of exploration paths (queries) offered.
    pub paths_offered: u64,
    /// Cumulative number of result tuples made accessible.
    pub tuples_accessible: u64,
    /// Per-phase cost breakdown.
    pub phases: PhaseBreakdown,
}

/// An interactive example-driven exploration session.
pub struct Session<'a> {
    endpoint: &'a dyn SparqlEndpoint,
    schema: &'a VirtualSchemaGraph,
    config: SessionConfig,
    history: Vec<Step>,
    metrics: ExplorationMetrics,
    ended: bool,
}

impl<'a> Session<'a> {
    /// Starts a session over a bootstrapped schema.
    pub fn new(
        endpoint: &'a dyn SparqlEndpoint,
        schema: &'a VirtualSchemaGraph,
        mut config: SessionConfig,
    ) -> Self {
        // one tracer for the whole session unless synthesis carries its own
        if !config.reolap.tracer.is_enabled() {
            config.reolap.tracer = config.tracer.clone();
        }
        Session {
            endpoint,
            schema,
            config,
            history: Vec::new(),
            metrics: ExplorationMetrics::default(),
            ended: false,
        }
    }

    /// The schema this session explores.
    pub fn schema(&self) -> &VirtualSchemaGraph {
        self.schema
    }

    /// Starts measuring one operation against the endpoint's stats.
    fn cost_begin(&self) -> (Instant, u64, Duration) {
        let stats = self.endpoint.stats();
        // lint:allow(no-wallclock, per-step cost timing feeds ExplorationMetrics::phases)
        (Instant::now(), stats.total_queries(), stats.busy)
    }

    /// Finishes the measurement begun by [`Session::cost_begin`].
    fn cost_end(&self, begin: (Instant, u64, Duration)) -> StepCost {
        let (start, queries_before, busy_before) = begin;
        let stats = self.endpoint.stats();
        StepCost {
            wall: start.elapsed(),
            endpoint_queries: stats.total_queries().saturating_sub(queries_before),
            endpoint_busy: stats.busy.saturating_sub(busy_before),
        }
    }

    /// Notifies the configured lifecycle observer of a completed phase and
    /// publishes the round on the tracer's metric surface, so live
    /// subscribers (the `re2x-tui` dashboard) see per-phase round counts
    /// and wall-time distributions even without a serving layer attached.
    ///
    /// A round answered without the endpoint (`derived`) carries a
    /// `derived="true"` label, so a traced run can tell why its `SELECT`
    /// count per round dropped.
    fn notify(&self, phase: SessionPhase, cost: StepCost, derived: bool) {
        let tracer = &self.config.tracer;
        if tracer.is_enabled() {
            let labels = [("phase", phase.as_str()), ("derived", "true")];
            let labels = &labels[..if derived { 2 } else { 1 }];
            tracer.counter_add(&re2x_obs::label("session.rounds", labels), 1);
            tracer.observe(&re2x_obs::label("session.round_wall", labels), cost.wall);
        }
        if let Some(observer) = &self.config.observer {
            observer.on_phase(phase, cost);
        }
    }

    /// Step 1 (Algorithm 2, line 1): synthesize candidate queries from an
    /// example tuple.
    pub fn synthesize(&mut self, example: &[&str]) -> Result<SynthesisOutcome, Re2xError> {
        let tracer = self.config.tracer.clone();
        let _span = tracer.span("session.synthesize");
        let begin = self.cost_begin();
        let outcome = reolap(self.endpoint, self.schema, example, &self.config.reolap)?;
        let cost = self.cost_end(begin);
        self.metrics.phases.synthesis.add(cost);
        self.notify(SessionPhase::Synthesize, cost, false);
        self.metrics.interactions += 1;
        self.metrics.paths_offered += outcome.queries.len() as u64;
        Ok(outcome)
    }

    /// Executes a chosen query and makes it the current step (Algorithm 2,
    /// line 5).
    pub fn choose(&mut self, query: OlapQuery) -> Result<&Step, Re2xError> {
        self.advance(query, false)
    }

    /// Makes `query` the current step. A query that `refines` the current
    /// step is answered from that step's rows when [`derive()`] can prove it
    /// a restriction of them; everything else goes to the endpoint.
    fn advance(&mut self, query: OlapQuery, refines: bool) -> Result<&Step, Re2xError> {
        let tracer = self.config.tracer.clone();
        let mut span = tracer.span("session.execute");
        let begin = self.cost_begin();
        let from_parent = self
            .history
            .last()
            .filter(|_| refines)
            .and_then(|parent| derive(parent, &query, self.endpoint.graph()));
        let derived = from_parent.is_some();
        let (solutions, cost) = match from_parent {
            Some(solutions) => {
                let cost = StepCost {
                    wall: begin.0.elapsed(),
                    ..StepCost::default()
                };
                (solutions, cost)
            }
            None => {
                let solutions = self.endpoint.select(&query.query)?;
                (solutions, self.cost_end(begin))
            }
        };
        span.record("derived", derived);
        self.metrics.phases.execution.add(cost);
        self.notify(SessionPhase::Execute, cost, derived);
        self.metrics.interactions += 1;
        self.metrics.tuples_accessible += solutions.len() as u64;
        self.history.push(Step {
            query,
            solutions,
            cost,
            derived,
        });
        Ok(&self.history[self.history.len() - 1])
    }

    /// The current step, if any query has been executed.
    pub fn current(&self) -> Option<&Step> {
        self.history.last()
    }

    /// Full history, oldest first.
    pub fn history(&self) -> &[Step] {
        &self.history
    }

    /// Generates refinements of the current query with one ExRef operation
    /// (Algorithm 2, line 10).
    pub fn refinements(&mut self, op: RefineOp) -> Result<Vec<Refinement>, Re2xError> {
        let tracer = self.config.tracer.clone();
        let _span = tracer.span("session.refine");
        let begin = self.cost_begin();
        let Some(step) = self.history.last() else {
            return Err(Re2xError::NotApplicable(
                "no query has been executed yet".to_owned(),
            ));
        };
        let graph = self.endpoint.graph();
        let refinements = match op {
            RefineOp::Disaggregate => disaggregate::disaggregate(self.schema, &step.query),
            RefineOp::TopK => subset::topk(self.schema, &step.query, &step.solutions, graph),
            RefineOp::Percentile => subset::percentile(
                self.schema,
                &step.query,
                &step.solutions,
                graph,
                &self.config.percentiles,
            ),
            RefineOp::Similarity => similar::similarity(
                self.schema,
                &step.query,
                &step.solutions,
                graph,
                self.config.similarity_k,
            ),
        };
        let cost = self.cost_end(begin);
        self.metrics.phases.refinement.add(cost);
        self.notify(SessionPhase::Refine, cost, false);
        self.metrics.interactions += 1;
        self.metrics.paths_offered += refinements.len() as u64;
        Ok(refinements)
    }

    /// Every offered refinement's result set, in refinement order — a
    /// preview of what each exploration path would show before committing
    /// to one with [`Session::apply`]. Refinements that restrict the current
    /// step's rows are answered from them ([`derive()`]); only the others
    /// reach the endpoint, one after another.
    ///
    /// Those queries attribute to the `session.preview` span, and previewed
    /// paths do not enter the session history or the tuples-accessible
    /// count.
    pub fn preview(&mut self, refinements: &[Refinement]) -> Result<Vec<Solutions>, Re2xError> {
        let tracer = self.config.tracer.clone();
        let mut span = tracer.span("session.preview");
        let begin = self.cost_begin();
        let graph = self.endpoint.graph();
        let mut derived = 0usize;
        let mut previews = Vec::with_capacity(refinements.len());
        for refinement in refinements {
            let query = &refinement.query;
            let preview = match self.history.last().and_then(|s| derive(s, query, graph)) {
                Some(rows) => {
                    derived += 1;
                    rows
                }
                None => self.endpoint.select(&query.query)?,
            };
            previews.push(preview);
        }
        span.record("derived", derived);
        let cost = self.cost_end(begin);
        self.metrics.phases.execution.add(cost);
        self.notify(SessionPhase::Preview, cost, false);
        self.metrics.interactions += 1;
        Ok(previews)
    }

    /// Applies a refinement: makes its query the current step, answered
    /// from the current rows where [`derive()`] allows and executed otherwise.
    pub fn apply(&mut self, refinement: Refinement) -> Result<&Step, Re2xError> {
        self.advance(refinement.query, true)
    }

    /// Backtracks to the previous step. Returns `false` when already at the
    /// beginning.
    pub fn backtrack(&mut self) -> bool {
        if self.history.len() <= 1 {
            return false;
        }
        self.history.pop();
        true
    }

    /// Exploration accounting so far.
    pub fn metrics(&self) -> ExplorationMetrics {
        self.metrics
    }

    /// Ends the session, notifying the lifecycle observer exactly once
    /// with the final metrics, and returns them. Dropping an unfinished
    /// session notifies too, so hosting layers always see session end.
    pub fn finish(mut self) -> ExplorationMetrics {
        self.end();
        self.metrics
    }

    fn end(&mut self) {
        if self.ended {
            return;
        }
        self.ended = true;
        if let Some(observer) = &self.config.observer {
            observer.on_session_end(&self.metrics);
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_cube::{bootstrap, BootstrapConfig};
    use re2x_rdf::io::parse_turtle;
    use re2x_rdf::Graph;
    use re2x_sparql::LocalEndpoint;

    fn fixture() -> (LocalEndpoint, VirtualSchemaGraph) {
        let mut g = Graph::new();
        parse_turtle(
            r#"
            @prefix ex: <http://ex/> .
            @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
            ex:Germany rdfs:label "Germany" .
            ex:France rdfs:label "France" .
            ex:Sweden rdfs:label "Sweden" .
            ex:Syria rdfs:label "Syria" .
            ex:China rdfs:label "China" .
            ex:y2013 rdfs:label "2013" .
            ex:y2014 rdfs:label "2014" .

            ex:o1 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:Syria ; ex:year ex:y2013 ; ex:applicants 300 .
            ex:o2 a ex:Obs ; ex:dest ex:France ; ex:origin ex:Syria ; ex:year ex:y2013 ; ex:applicants 300 .
            ex:o3 a ex:Obs ; ex:dest ex:Sweden ; ex:origin ex:Syria ; ex:year ex:y2013 ; ex:applicants 200 .
            ex:o4 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:China ; ex:year ex:y2013 ; ex:applicants 100 .
            ex:o5 a ex:Obs ; ex:dest ex:Germany ; ex:origin ex:Syria ; ex:year ex:y2014 ; ex:applicants 600 .
            ex:o6 a ex:Obs ; ex:dest ex:France ; ex:origin ex:Syria ; ex:year ex:y2014 ; ex:applicants 300 .
            ex:o7 a ex:Obs ; ex:dest ex:Sweden ; ex:origin ex:Syria ; ex:year ex:y2014 ; ex:applicants 400 .
            ex:o8 a ex:Obs ; ex:dest ex:France ; ex:origin ex:China ; ex:year ex:y2014 ; ex:applicants 300 .
            "#,
            &mut g,
        )
        .expect("fixture parses");
        let ep = LocalEndpoint::new(g);
        let report = bootstrap(&ep, &BootstrapConfig::new("http://ex/Obs")).expect("bootstrap");
        (ep, report.schema)
    }

    /// The paper's example workflow: ReOLAP → Disaggregate → Disaggregate →
    /// Similarity → TopK, checking every hand-off.
    #[test]
    fn full_exploration_workflow() {
        let (ep, schema) = fixture();
        let config = SessionConfig {
            similarity_k: 1,
            ..SessionConfig::default()
        };
        let mut session = Session::new(&ep, &schema, config);

        // 1. synthesize from ⟨Germany⟩
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        assert_eq!(
            outcome.queries.len(),
            1,
            "Germany appears only as destination"
        );
        let step = session.choose(outcome.queries[0].clone()).expect("run");
        assert_eq!(step.solutions.len(), 3, "3 destinations");

        // 2. disaggregate by origin
        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        assert_eq!(dis.len(), 2, "origin and year can be added");
        let by_origin = dis
            .into_iter()
            .find(|r| r.explanation.contains("Origin"))
            .expect("origin refinement");
        let step = session.apply(by_origin).expect("run");
        assert_eq!(step.solutions.len(), 5, "5 (dest, origin) combos");

        // 3. disaggregate by year
        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        assert_eq!(dis.len(), 1, "only year remains");
        let step = session
            .apply(dis.into_iter().next().expect("year"))
            .expect("run");
        assert_eq!(step.solutions.len(), 8);

        // 4. similarity: Germany at dest level; origin & year are context
        let sims = session.refinements(RefineOp::Similarity).expect("sim");
        assert_eq!(sims.len(), 4, "one per measure column (4 aggregates)");
        let step = session
            .apply(sims.into_iter().next().expect("sim"))
            .expect("run");
        assert!(step.solutions.len() < 8, "similarity restricts the combos");
        assert!(!step.solutions.is_empty());

        // 5. top-k on the restricted set
        let tops = session.refinements(RefineOp::TopK).expect("topk");
        assert!(!tops.is_empty());
        let step = session
            .apply(tops.into_iter().next().expect("top"))
            .expect("run");
        assert!(!step.solutions.is_empty());

        let metrics = session.metrics();
        assert!(metrics.interactions >= 9);
        assert!(metrics.paths_offered >= 8);
        assert!(metrics.tuples_accessible >= 16);
    }

    #[test]
    fn phase_breakdown_attributes_endpoint_cost() {
        let (ep, schema) = fixture();
        let mut session = Session::new(&ep, &schema, SessionConfig::default());
        let before = ep.stats().total_queries();
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("run");
        let _ = session.refinements(RefineOp::TopK).expect("refine");
        let phases = session.metrics().phases;
        assert_eq!(phases.synthesis.invocations, 1);
        assert_eq!(phases.execution.invocations, 1);
        assert_eq!(phases.refinement.invocations, 1);
        assert!(
            phases.synthesis.endpoint_queries > 0,
            "matching + validation query"
        );
        assert_eq!(
            phases.execution.endpoint_queries, 1,
            "exactly the chosen query"
        );
        // the three phases account for every query issued since the session
        // started (refinement generation itself issues none here)
        let issued = ep.stats().total_queries() - before;
        assert_eq!(
            phases.synthesis.endpoint_queries
                + phases.execution.endpoint_queries
                + phases.refinement.endpoint_queries,
            issued
        );
        // step cost is recorded on the history entry
        let step = session.current().expect("step");
        assert_eq!(step.cost.endpoint_queries, 1);
        assert!(step.cost.wall >= step.cost.endpoint_busy);
    }

    /// A session on the fixture, drilled down to (destination, origin).
    fn drilled_down<'a>(
        ep: &'a LocalEndpoint,
        schema: &'a VirtualSchemaGraph,
        config: SessionConfig,
    ) -> Session<'a> {
        let mut session = Session::new(ep, schema, config);
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("run");
        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        let step = session
            .apply(dis.into_iter().next().expect("one"))
            .expect("run");
        assert!(!step.derived, "a drill-down regroups");
        session
    }

    #[test]
    fn derived_apply_counts_as_a_round_but_not_as_an_endpoint_query() {
        let (ep, schema) = fixture();
        let mut session = drilled_down(&ep, &schema, SessionConfig::default());
        let top = session.refinements(RefineOp::TopK).expect("topk").remove(0);
        let executed = ep.select(&top.query.query).expect("runs");
        let before = session.metrics();
        let issued = ep.stats().total_queries();

        let step = session.apply(top).expect("derives");
        assert!(step.derived);
        assert_eq!(step.solutions, executed);
        assert_eq!(step.cost.endpoint_queries, 0);
        assert_eq!(step.cost.endpoint_busy, Duration::ZERO);
        assert_eq!(ep.stats().total_queries(), issued, "nothing reached it");

        // the accounting a transcript reports is what executing gives
        let after = session.metrics();
        assert_eq!(after.interactions, before.interactions + 1);
        assert_eq!(
            after.tuples_accessible,
            before.tuples_accessible + executed.len() as u64
        );
        let (was, is) = (before.phases.execution, after.phases.execution);
        assert_eq!(is.invocations, was.invocations + 1);
        assert_eq!(is.endpoint_queries, was.endpoint_queries);
        assert_eq!(is.endpoint_busy, was.endpoint_busy);
    }

    #[test]
    fn preview_sends_only_what_it_cannot_derive() {
        let (ep, schema) = fixture();
        let mut session = drilled_down(&ep, &schema, SessionConfig::default());
        // drill-downs and dices interleaved: derivable and not
        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        let tops = session.refinements(RefineOp::TopK).expect("topk");
        let sims = session.refinements(RefineOp::Similarity).expect("sim");
        assert!(!dis.is_empty() && !tops.is_empty() && !sims.is_empty());
        let executing = dis.len() as u64;
        let mut offers = tops;
        offers.splice(1..1, dis);
        offers.extend(sims);

        let expected: Vec<Solutions> = offers
            .iter()
            .map(|r| ep.select(&r.query.query).expect("runs"))
            .collect();
        let issued = ep.stats().total_queries();
        let phases = session.metrics().phases;
        let previews = session.preview(&offers).expect("preview");
        assert_eq!(previews, expected, "offer order");
        assert_eq!(
            ep.stats().total_queries() - issued,
            executing,
            "only the drill-downs are executed"
        );
        let execution = session.metrics().phases.execution;
        assert_eq!(execution.invocations, phases.execution.invocations + 1);
        assert_eq!(
            execution.endpoint_queries,
            phases.execution.endpoint_queries + executing
        );
    }

    /// Every query a preview sends attributes to its `session.preview`
    /// span: none lands in the unattributed bucket.
    #[test]
    fn preview_queries_attribute_to_its_own_span() {
        let (ep, schema) = fixture();
        let tracer = Tracer::enabled();
        let ep = re2x_sparql::TracingEndpoint::new(ep, tracer.clone());
        let config = SessionConfig {
            tracer: tracer.clone(),
            ..SessionConfig::default()
        };
        let mut session = Session::new(&ep, &schema, config);
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("run");
        let refinements = session.refinements(RefineOp::Disaggregate).expect("dis");
        assert!(refinements.len() > 1);
        let unattributed = |tracer: &Tracer| {
            tracer
                .provenance()
                .iter()
                .find(|(path, _)| path == re2x_obs::UNATTRIBUTED)
                .map_or(0, |(_, s)| s.queries())
        };
        let stray_before = unattributed(&tracer);
        session.preview(&refinements).expect("preview");

        let provenance = tracer.provenance();
        let preview_selects: u64 = provenance
            .iter()
            .filter(|(path, _)| path.ends_with("session.preview"))
            .map(|(_, s)| s.selects)
            .sum();
        assert_eq!(preview_selects, refinements.len() as u64);
        assert_eq!(unattributed(&tracer), stray_before, "{provenance:?}");
    }

    #[test]
    fn derived_rounds_are_labelled_on_the_tracer() {
        let (ep, schema) = fixture();
        let tracer = re2x_obs::Tracer::enabled();
        let config = SessionConfig {
            tracer: tracer.clone(),
            ..SessionConfig::default()
        };
        let mut session = drilled_down(&ep, &schema, config);
        let top = session.refinements(RefineOp::TopK).expect("topk").remove(0);
        assert!(session.apply(top).expect("derives").derived);

        let metrics = tracer.metrics().expect("enabled");
        // the opening query and the drill-down executed, the dice did not
        assert_eq!(metrics.counter("session.rounds{phase=\"execute\"}"), 2);
        assert_eq!(
            metrics.counter("session.rounds{phase=\"execute\",derived=\"true\"}"),
            1
        );
        let derived_flags: Vec<String> = tracer
            .events()
            .iter()
            .filter_map(|e| match e {
                re2x_obs::TraceEvent::Exit { path, fields, .. } if path == "session.execute" => {
                    fields
                        .iter()
                        .find(|(key, _)| key == "derived")
                        .map(|(_, value)| value.clone())
                }
                _ => None,
            })
            .collect();
        assert_eq!(derived_flags, ["false", "false", "true"]);
    }

    #[test]
    fn session_tracer_produces_phase_spans() {
        let (ep, schema) = fixture();
        let tracer = re2x_obs::Tracer::enabled();
        let config = SessionConfig {
            tracer: tracer.clone(),
            ..SessionConfig::default()
        };
        let mut session = Session::new(&ep, &schema, config);
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("run");
        let events = tracer.events();
        let paths: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                re2x_obs::TraceEvent::Enter { path, .. } => Some(path.as_str()),
                _ => None,
            })
            .collect();
        assert!(paths.contains(&"session.synthesize"));
        // synthesis propagates the session tracer into reolap's spans
        assert!(paths.contains(&"session.synthesize/reolap"));
        assert!(paths.contains(&"session.synthesize/reolap/reolap.match"));
        assert!(paths.contains(&"session.execute"));
    }

    #[test]
    fn observer_sees_every_phase_and_session_end() {
        use std::sync::Mutex;

        #[derive(Default)]
        struct Recorder {
            phases: Mutex<Vec<(SessionPhase, u64)>>,
            ended: Mutex<Vec<ExplorationMetrics>>,
        }
        impl SessionObserver for Recorder {
            fn on_phase(&self, phase: SessionPhase, cost: StepCost) {
                self.phases
                    .lock()
                    .expect("recorder")
                    .push((phase, cost.endpoint_queries));
            }
            fn on_session_end(&self, metrics: &ExplorationMetrics) {
                self.ended.lock().expect("recorder").push(*metrics);
            }
        }

        let (ep, schema) = fixture();
        let recorder = Arc::new(Recorder::default());
        let config = SessionConfig {
            observer: Some(recorder.clone() as Arc<dyn SessionObserver>),
            ..SessionConfig::default()
        };
        let mut session = Session::new(&ep, &schema, config);
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("run");
        let refinements = session.refinements(RefineOp::Disaggregate).expect("refine");
        session.preview(&refinements).expect("preview");
        let metrics = session.finish();

        let phases = recorder.phases.lock().expect("recorder");
        assert_eq!(
            phases.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![
                SessionPhase::Synthesize,
                SessionPhase::Execute,
                SessionPhase::Refine,
                SessionPhase::Preview,
            ]
        );
        assert!(phases[0].1 > 0, "synthesis issued endpoint queries");
        assert_eq!(phases[1].1, 1, "execute issued exactly the chosen query");
        let ended = recorder.ended.lock().expect("recorder");
        assert_eq!(ended.len(), 1, "session end delivered exactly once");
        assert_eq!(ended[0], metrics);
    }

    #[test]
    fn dropping_an_unfinished_session_notifies_end_once() {
        use std::sync::atomic::{AtomicU64, Ordering};

        #[derive(Default)]
        struct EndCounter(AtomicU64);
        impl SessionObserver for EndCounter {
            fn on_session_end(&self, _: &ExplorationMetrics) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let (ep, schema) = fixture();
        let counter = Arc::new(EndCounter::default());
        let config = SessionConfig {
            observer: Some(counter.clone() as Arc<dyn SessionObserver>),
            ..SessionConfig::default()
        };
        {
            let mut session = Session::new(&ep, &schema, config);
            let _ = session.synthesize(&["Germany"]).expect("synthesis");
            // dropped without finish()
        }
        assert_eq!(counter.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn refinements_before_any_query_is_an_error() {
        let (ep, schema) = fixture();
        let mut session = Session::new(&ep, &schema, SessionConfig::default());
        let err = session.refinements(RefineOp::TopK).unwrap_err();
        assert!(matches!(err, Re2xError::NotApplicable(_)));
    }

    #[test]
    fn backtracking_restores_previous_step() {
        let (ep, schema) = fixture();
        let mut session = Session::new(&ep, &schema, SessionConfig::default());
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("run");
        let first_len = session.current().expect("step").solutions.len();

        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        session
            .apply(dis.into_iter().next().expect("one"))
            .expect("run");
        assert_ne!(session.current().expect("step").solutions.len(), first_len);

        assert!(session.backtrack());
        assert_eq!(session.current().expect("step").solutions.len(), first_len);
        assert!(!session.backtrack(), "cannot backtrack past the first step");
    }

    #[test]
    fn every_refinement_result_still_contains_the_example() {
        let (ep, schema) = fixture();
        let mut session = Session::new(&ep, &schema, SessionConfig::default());
        let outcome = session.synthesize(&["Germany"]).expect("synthesis");
        session.choose(outcome.queries[0].clone()).expect("run");
        let dis = session.refinements(RefineOp::Disaggregate).expect("dis");
        session
            .apply(dis.into_iter().next().expect("one"))
            .expect("run");

        for op in [RefineOp::TopK, RefineOp::Percentile, RefineOp::Similarity] {
            let refinements = session.refinements(op).expect("refine");
            for refinement in refinements {
                let solutions = ep.select(&refinement.query.query).expect("runs");
                let graph = ep.graph();
                assert!(
                    !refinement.query.matching_rows(&solutions, graph).is_empty(),
                    "{op:?} refinement lost the example: {}",
                    refinement.query.sparql()
                );
            }
        }
    }
}
