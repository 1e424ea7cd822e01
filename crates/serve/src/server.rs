// lint:allow-file(no-wallclock, session and queue latency measurement feeds the serve metrics surface)
//! The multi-tenant session server.
//!
//! A [`Server`] hosts many concurrent scripted explorations over **one**
//! shared graph snapshot. Tenants are registered up front; each gets its
//! own endpoint decorator stack built over a copy-on-write clone of the
//! snapshot (the term table, the text index and the three index bases
//! stay shared — a tenant costs a few `Arc` bumps plus the posting lists
//! written since the graph was loaded or compacted, not a graph copy; the
//! unit test below pins the sharing). Admission control is a bounded
//! run-queue: [`Server::submit`] never blocks — it yields a [`Ticket`] or
//! a typed [`ServeError::QueueFull`] / [`ServeError::ShuttingDown`].
//! Worker threads drain the queue, driving each session through the same
//! [`crate::run_script`] path the serial replay oracle uses, inside
//! `catch_unwind` so a panicking session round becomes
//! [`ServeError::WorkerPanicked`] instead of taking the worker down.
//! [`Server::shutdown`] drains: every admitted session completes, then the
//! workers exit and join.
//!
//! Every transition lands in the shared [`Metrics`] registry under
//! per-tenant labels (admitted, rejected-by-reason, active, completed,
//! failed, budget-exhausted, worker-panics, round and session latency
//! histograms), so the Prometheus exposition shows the multi-tenant
//! picture without any new plumbing.

use crate::budget::QueryBudget;
use crate::error::ServeError;
use crate::script::{run_script, SessionScript, SessionTranscript};
use re2x_cube::VirtualSchemaGraph;
use re2x_obs::{label, lock_or_recover, wait_or_recover, Metrics};
use re2x_rdf::Graph;
use re2x_sparql::{CachingEndpoint, LocalEndpoint, SparqlEndpoint, TracingEndpoint};
use re2xolap::{ExplorationMetrics, SessionConfig, SessionObserver, SessionPhase, StepCost};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Handle for one admitted session; redeem it with [`Server::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ticket(u64);

/// Declarative description of one tenant's endpoint decorator stack.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    id: String,
    cache_capacity: usize,
    traced: bool,
}

impl TenantSpec {
    /// A bare stack: a private endpoint over the shared snapshot.
    pub fn new(id: &str) -> TenantSpec {
        TenantSpec {
            id: id.to_owned(),
            cache_capacity: 0,
            traced: false,
        }
    }

    /// Adds an LRU query cache of `capacity` entries to the stack.
    pub fn cached(mut self, capacity: usize) -> TenantSpec {
        self.cache_capacity = capacity;
        self
    }

    /// Adds a tracing layer (span-attributed query provenance).
    pub fn traced(mut self) -> TenantSpec {
        self.traced = true;
        self
    }

    /// The tenant's identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Materializes the stack over a copy-on-write clone of `graph`.
    fn build(&self, graph: &Graph, config: &SessionConfig) -> Box<dyn SparqlEndpoint> {
        let base = LocalEndpoint::new(graph.clone());
        let mut stack: Box<dyn SparqlEndpoint> = Box::new(base);
        if self.cache_capacity > 0 {
            stack = Box::new(CachingEndpoint::with_capacity(stack, self.cache_capacity));
        }
        if self.traced {
            stack = Box::new(TracingEndpoint::new(stack, config.tracer.clone()));
        }
        stack
    }
}

/// Configures and launches a [`Server`].
pub struct ServerBuilder {
    workers: usize,
    queue_capacity: usize,
    session_budget: Option<u64>,
    session_config: SessionConfig,
    tenants: Vec<TenantSpec>,
    custom: Vec<(String, Box<dyn SparqlEndpoint>)>,
    metrics: Arc<Metrics>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            workers: 2,
            queue_capacity: 64,
            session_budget: None,
            session_config: SessionConfig::default(),
            tenants: Vec::new(),
            custom: Vec::new(),
            metrics: Arc::new(Metrics::new()),
        }
    }
}

impl ServerBuilder {
    /// A builder with defaults: 2 workers, a 64-deep run-queue, no budget.
    pub fn new() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Number of worker threads (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> ServerBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Bound of the admission run-queue (clamped to at least 1).
    pub fn queue_capacity(mut self, capacity: usize) -> ServerBuilder {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Per-session `SELECT`/`ASK` budget; `None` leaves sessions unbounded.
    pub fn session_budget(mut self, budget: Option<u64>) -> ServerBuilder {
        self.session_budget = budget;
        self
    }

    /// Session configuration template cloned into every hosted session.
    pub fn session_config(mut self, config: SessionConfig) -> ServerBuilder {
        self.session_config = config;
        self
    }

    /// Registers a tenant with a declaratively composed stack.
    pub fn tenant(mut self, spec: TenantSpec) -> ServerBuilder {
        self.tenants.push(spec);
        self
    }

    /// Registers a tenant with a caller-built endpoint stack — the hook
    /// the fault-injection suite uses to slot a
    /// [`crate::FlakyEndpoint`] under one tenant.
    pub fn tenant_stack(mut self, id: &str, stack: Box<dyn SparqlEndpoint>) -> ServerBuilder {
        self.custom.push((id.to_owned(), stack));
        self
    }

    /// Shares a metrics registry (e.g. the one a Prometheus exposition
    /// endpoint snapshots); by default the server creates its own.
    pub fn metrics(mut self, metrics: Arc<Metrics>) -> ServerBuilder {
        self.metrics = metrics;
        self
    }

    /// Builds tenant stacks over `graph`, spawns the workers, and returns
    /// the running server.
    pub fn start(self, graph: &Graph, schema: &VirtualSchemaGraph) -> Server {
        let mut tenants: HashMap<String, Box<dyn SparqlEndpoint>> = HashMap::new();
        for spec in &self.tenants {
            tenants.insert(spec.id.clone(), spec.build(graph, &self.session_config));
        }
        for (id, stack) in self.custom {
            tenants.insert(id, stack);
        }
        let inner = Arc::new(Inner {
            tenants,
            schema: schema.clone(),
            config: self.session_config,
            budget: self.session_budget,
            queue_capacity: self.queue_capacity,
            metrics: self.metrics,
            queue: Mutex::new(QueueState::default()),
            jobs_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            results: Mutex::new(HashMap::new()),
            results_cv: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let worker_inner = Arc::clone(&inner);
            let spawned = std::thread::Builder::new()
                .name(format!("re2x-serve-{i}"))
                .spawn(move || worker_loop(&worker_inner));
            if let Ok(handle) = spawned {
                handles.push(handle);
            }
        }
        Server {
            inner,
            workers: Mutex::new(handles),
        }
    }
}

/// One admitted but not yet serviced session.
struct Job {
    ticket: u64,
    script: SessionScript,
    admitted_at: Instant,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    next_ticket: u64,
    in_flight: usize,
    shutting_down: bool,
}

struct Inner {
    tenants: HashMap<String, Box<dyn SparqlEndpoint>>,
    schema: VirtualSchemaGraph,
    config: SessionConfig,
    budget: Option<u64>,
    queue_capacity: usize,
    metrics: Arc<Metrics>,
    // lock-order: serve.server.queue
    queue: Mutex<QueueState>,
    jobs_cv: Condvar,
    idle_cv: Condvar,
    // lock-order: serve.server.results
    results: Mutex<HashMap<u64, Result<SessionTranscript, ServeError>>>,
    results_cv: Condvar,
}

/// The running multi-tenant session server.
pub struct Server {
    inner: Arc<Inner>,
    // lock-order: serve.server.workers
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Submits a session script for asynchronous execution. Never blocks:
    /// admission either succeeds with a [`Ticket`] or fails with a typed
    /// reason ([`ServeError::UnknownTenant`], [`ServeError::QueueFull`],
    /// [`ServeError::ShuttingDown`]) — nothing is enqueued on failure.
    pub fn submit(&self, script: SessionScript) -> Result<Ticket, ServeError> {
        let tenant = script.tenant.clone();
        if !self.inner.tenants.contains_key(&tenant) {
            self.reject(&tenant, "unknown_tenant");
            return Err(ServeError::UnknownTenant(tenant));
        }
        let admitted = {
            let mut guard = lock_or_recover("serve.server.queue", &self.inner.queue);
            if guard.shutting_down {
                Err(ServeError::ShuttingDown)
            } else if guard.jobs.len() >= self.inner.queue_capacity {
                Err(ServeError::QueueFull {
                    capacity: self.inner.queue_capacity,
                })
            } else {
                let ticket = guard.next_ticket;
                guard.next_ticket += 1;
                guard.jobs.push_back(Job {
                    ticket,
                    script,
                    admitted_at: Instant::now(),
                });
                Ok(Ticket(ticket))
            }
        };
        match &admitted {
            Ok(_) => {
                self.inner
                    .metrics
                    .counter_add(&label("serve.sessions_admitted", &[("tenant", &tenant)]), 1);
                self.inner.jobs_cv.notify_one();
            }
            Err(ServeError::ShuttingDown) => self.reject(&tenant, "shutting_down"),
            Err(_) => self.reject(&tenant, "queue_full"),
        }
        admitted
    }

    fn reject(&self, tenant: &str, reason: &str) {
        self.inner.metrics.counter_add(
            &label(
                "serve.sessions_rejected",
                &[("tenant", tenant), ("reason", reason)],
            ),
            1,
        );
    }

    /// Blocks until the ticket's session completes and returns its
    /// outcome. Each ticket is redeemable once.
    pub fn wait(&self, ticket: Ticket) -> Result<SessionTranscript, ServeError> {
        let mut guard = lock_or_recover("serve.server.results", &self.inner.results);
        loop {
            if let Some(result) = guard.remove(&ticket.0) {
                return result;
            }
            guard = wait_or_recover(&self.inner.results_cv, guard);
        }
    }

    /// Convenience: submit and wait.
    pub fn run(&self, script: SessionScript) -> Result<SessionTranscript, ServeError> {
        let ticket = self.submit(script)?;
        self.wait(ticket)
    }

    /// The metrics registry every transition is recorded in.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.inner.metrics
    }

    /// Subscribes a live consumer (e.g. the `re2x-tui` dashboard) to the
    /// server's metric event bus with a bounded ring of `capacity` events.
    /// Slow consumers lose oldest-first and never block a worker.
    pub fn subscribe(&self, capacity: usize) -> re2x_obs::EventStream {
        self.inner.metrics.subscribe(capacity)
    }

    /// Registered tenant identifiers, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.inner.tenants.keys().cloned().collect();
        ids.sort_unstable();
        ids
    }

    /// Graceful shutdown: stops admitting, drains every already-admitted
    /// session (queued and in-flight), then joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut guard = lock_or_recover("serve.server.queue", &self.inner.queue);
            guard.shutting_down = true;
        }
        self.inner.jobs_cv.notify_all();
        {
            let mut guard = lock_or_recover("serve.server.queue", &self.inner.queue);
            while !guard.jobs.is_empty() || guard.in_flight > 0 {
                guard = wait_or_recover(&self.inner.idle_cv, guard);
            }
        }
        self.inner.jobs_cv.notify_all();
        let handles: Vec<JoinHandle<()>> = {
            let mut guard = lock_or_recover("serve.server.workers", &self.workers);
            guard.drain(..).collect()
        };
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Bridges session lifecycle callbacks into per-tenant metrics.
struct RoundObserver {
    metrics: Arc<Metrics>,
    tenant: String,
}

impl SessionObserver for RoundObserver {
    fn on_phase(&self, phase: SessionPhase, cost: StepCost) {
        let tenant = self.tenant.as_str();
        self.metrics.observe(
            &label("serve.round_latency", &[("tenant", tenant)]),
            cost.wall,
        );
        self.metrics.counter_add(
            &label(
                "serve.rounds",
                &[("tenant", tenant), ("phase", phase.as_str())],
            ),
            1,
        );
    }

    fn on_session_end(&self, metrics: &ExplorationMetrics) {
        self.metrics.counter_add(
            &label("serve.interactions", &[("tenant", &self.tenant)]),
            metrics.interactions,
        );
    }
}

/// Services jobs until shutdown drains the queue.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut guard = lock_or_recover("serve.server.queue", &inner.queue);
            loop {
                if let Some(job) = guard.jobs.pop_front() {
                    guard.in_flight += 1;
                    break Some(job);
                }
                if guard.shutting_down {
                    break None;
                }
                guard = wait_or_recover(&inner.jobs_cv, guard);
            }
        };
        let Some(job) = job else {
            return;
        };
        let tenant = job.script.tenant.clone();
        let active = label("serve.sessions_active", &[("tenant", &tenant)]);
        inner.metrics.gauge_add(&active, 1.0);
        inner.metrics.observe(
            &label("serve.queue_wait", &[("tenant", &tenant)]),
            job.admitted_at.elapsed(),
        );
        let started = Instant::now();
        let result = service(inner, &job);
        inner.metrics.observe(
            &label("serve.session_latency", &[("tenant", &tenant)]),
            started.elapsed(),
        );
        inner.metrics.gauge_add(&active, -1.0);
        let outcome_counter = match &result {
            Ok(_) => "serve.sessions_completed",
            Err(e) if e.is_budget_exhausted() => "serve.sessions_budget_exhausted",
            Err(ServeError::WorkerPanicked) => "serve.worker_panics",
            Err(_) => "serve.sessions_failed",
        };
        inner
            .metrics
            .counter_add(&label(outcome_counter, &[("tenant", &tenant)]), 1);
        {
            let mut guard = lock_or_recover("serve.server.results", &inner.results);
            guard.insert(job.ticket, result);
        }
        inner.results_cv.notify_all();
        let idle = {
            let mut guard = lock_or_recover("serve.server.queue", &inner.queue);
            guard.in_flight -= 1;
            guard.jobs.is_empty() && guard.in_flight == 0
        };
        if idle {
            inner.idle_cv.notify_all();
        }
    }
}

/// Runs one job's script under the tenant's stack, the optional session
/// budget, and panic isolation.
fn service(inner: &Arc<Inner>, job: &Job) -> Result<SessionTranscript, ServeError> {
    let Some(stack) = inner.tenants.get(&job.script.tenant) else {
        return Err(ServeError::UnknownTenant(job.script.tenant.clone()));
    };
    let mut config = inner.config.clone();
    config.observer = Some(Arc::new(RoundObserver {
        metrics: Arc::clone(&inner.metrics),
        tenant: job.script.tenant.clone(),
    }));
    let outcome = catch_unwind(AssertUnwindSafe(|| match inner.budget {
        Some(limit) => {
            let budget = QueryBudget::new(stack.as_ref(), limit);
            run_script(&budget, &inner.schema, &job.script, &config)
        }
        None => run_script(stack.as_ref(), &inner.schema, &job.script, &config),
    }));
    match outcome {
        Ok(Ok(transcript)) => Ok(transcript),
        Ok(Err(e)) => Err(ServeError::Session(e)),
        Err(_) => Err(ServeError::WorkerPanicked),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::RoundOp;
    use re2x_cube::{bootstrap, BootstrapConfig};
    use re2x_rdf::Term;
    use re2xolap::RefineOp;

    /// Starting tenants copies no index: over a snapshot-loaded graph, and
    /// over one that has been written to since, every tenant reads the
    /// source's own index base — and answers as a serial replay over the
    /// source does.
    #[test]
    fn tenants_share_the_source_graphs_index_base() {
        let dataset = re2x_datagen::running::generate();
        let path = std::env::temp_dir().join(format!("re2x-serve-{}.snap", std::process::id()));
        dataset
            .graph
            .write_snapshot(&path, "serve/tenants")
            .expect("write snapshot");
        let loaded = Graph::load_snapshot(&path, Some("serve/tenants")).expect("load snapshot");
        let _ = std::fs::remove_file(&path);
        let endpoint = LocalEndpoint::new(loaded);
        let config = BootstrapConfig::new(&dataset.observation_class);
        let schema = bootstrap(&endpoint, &config).expect("bootstrap").schema;
        let mut graph = endpoint.into_graph();
        let specs = [
            TenantSpec::new("bare"),
            TenantSpec::new("cached").cached(16),
            TenantSpec::new("traced").traced(),
        ];
        let check = |graph: &Graph| {
            let mut builder = ServerBuilder::new().workers(2);
            for spec in &specs {
                builder = builder.tenant(spec.clone());
            }
            let server = builder.start(graph, &schema);
            let oracle = LocalEndpoint::new(graph.clone());
            for spec in &specs {
                let stack = &server.inner.tenants[spec.id()];
                assert!(stack.graph().shares_base_with(graph), "{}", spec.id());
                assert_eq!(stack.graph().len(), graph.len());
                let script = SessionScript {
                    tenant: spec.id().to_owned(),
                    rounds: vec![
                        RoundOp::Synthesize {
                            example: vec!["Germany".to_owned(), "2014".to_owned()],
                            pick: 0,
                        },
                        RoundOp::Refine {
                            op: RefineOp::Disaggregate,
                            pick: 0,
                        },
                    ],
                };
                let served = server.run(script.clone()).expect("session completes");
                let serial = run_script(&oracle, &schema, &script, &SessionConfig::default())
                    .expect("serial replay");
                assert_eq!(served.to_text(), serial.to_text(), "{}", spec.id());
            }
        };
        check(&graph);
        for i in 0..100 {
            assert!(graph.insert(
                Term::iri(format!("http://ex/late/s{i}")),
                Term::iri("http://ex/late/p"),
                Term::iri(format!("http://ex/late/o{}", i % 7)),
            ));
        }
        check(&graph);
    }
}
