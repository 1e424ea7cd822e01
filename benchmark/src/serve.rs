//! One pass of `serve_live`: a `re2x_serve::Server` with two workers, two
//! closed-loop clients, and a write side between epochs.
//!
//! Client 0 drives the cached tenant and client 1 the bare one, so each
//! tenant stack has exactly one session in flight and the endpoint spans a
//! worker records belong to the request its client last published.

use crate::calib::Stopwatch;
use crate::drive::{Checks, Outcome, PassResult, RequestRecord, Segment};
use crate::stats::Fnv;
use crate::trace::{Scope, TracedEndpoint, Tracer, BASE, CACHED};
use crate::workload::{ServePlan, World, CACHE_CAPACITY, TENANT_BARE, TENANT_CACHED};
use re2x_cube::{refresh, VirtualSchemaGraph};
use re2x_rdf::Graph;
use re2x_serve::{run_script, Server, ServerBuilder, SessionScript};
use re2x_sparql::{CachingEndpoint, LocalEndpoint, SparqlEndpoint};
use re2xolap::SessionConfig;
use std::sync::Arc;
use std::time::Instant;

/// Workers of the server: one per client, which is also `nproc` here.
pub const WORKERS: usize = 2;

/// A running server plus what the pass needs to observe it from outside.
struct Live {
    server: Server,
    /// The tenants' stacks (cached, bare), kept to read their counters.
    stacks: [Arc<dyn SparqlEndpoint>; 2],
    /// Per tenant (cached, bare): where worker-side spans attach.
    scopes: [Arc<Scope>; 2],
}

fn clone_graph(graph: &Graph, tracer: &Tracer) -> Graph {
    let mut span = tracer.span("graph.clone");
    let copy = graph.clone();
    span.rows(copy.len());
    copy
}

/// Builds both tenant stacks over deep clones of `graph` and starts the
/// workers — what a rollover costs.
fn start(graph: &Graph, schema: &VirtualSchemaGraph, tracer: &Tracer) -> Live {
    let _span = tracer.span("server.start");
    let scopes = [Arc::new(Scope::default()), Arc::new(Scope::default())];
    let base = |scope: &Arc<Scope>| {
        TracedEndpoint::new(
            LocalEndpoint::new(clone_graph(graph, tracer)),
            tracer.clone(),
            BASE,
            Arc::clone(scope),
        )
    };
    // With the tracer off a TracedEndpoint costs one branch per query; the
    // stacks are the same in both runs so the cached tenant's counters can
    // be read either way.
    let cached: Arc<dyn SparqlEndpoint> = Arc::new(TracedEndpoint::new(
        CachingEndpoint::with_capacity(base(&scopes[0]), CACHE_CAPACITY),
        tracer.clone(),
        CACHED,
        Arc::clone(&scopes[0]),
    ));
    let bare: Arc<dyn SparqlEndpoint> = Arc::new(base(&scopes[1]));
    let server = ServerBuilder::new()
        .workers(WORKERS)
        .queue_capacity(WORKERS * 2)
        .tenant_stack(TENANT_CACHED, Box::new(Arc::clone(&cached)))
        .tenant_stack(TENANT_BARE, Box::new(Arc::clone(&bare)))
        .start(graph, schema);
    Live {
        server,
        stacks: [cached, bare],
        scopes,
    }
}

fn stop(live: Live, tracer: &Tracer, out: &mut PassResult) {
    for stack in &live.stacks {
        let stats = stack.stats();
        out.cache.0 += stats.cache_hits;
        out.cache.1 += stats.cache_misses;
        out.cache.2 += stats.cache_evictions;
        out.eval.0 += stats.selects;
        out.eval.1 += stats.asks;
        out.eval.2 += stats.rows_returned;
    }
    let _span = tracer.span("server.shutdown");
    live.server.shutdown();
}

struct ClientRecord {
    record: RequestRecord,
    transcript: Option<String>,
    refused: bool,
}

/// One closed-loop client: submits its sessions one after another.
fn client(
    live: &Live,
    tenant: usize,
    scripts: &[SessionScript],
    first_request: u32,
    tracer: &Tracer,
    checks: Checks,
) -> Vec<ClientRecord> {
    scripts
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let timed = Stopwatch::start();
            let result = {
                let root = tracer.request("request", first_request + i as u32);
                live.scopes[tenant].set(first_request + i as u32, root.id());
                live.server.run(script.clone())
            };
            let time = timed.stop();
            let (outcome, rows, digest, transcript, refused) = match result {
                Ok(t) => {
                    let rows = t.summary.tuples_accessible;
                    let text = (checks != Checks::Light).then(|| t.to_text());
                    let digest = text.as_ref().map_or(0, |t| Fnv::of(t.as_bytes()));
                    (Outcome::Answered, rows, digest, text, false)
                }
                Err(e) => (
                    Outcome::Failed,
                    0,
                    0,
                    None,
                    !matches!(e, re2x_serve::ServeError::Session(_)),
                ),
            };
            ClientRecord {
                record: RequestRecord {
                    time,
                    digest,
                    rows,
                    outcome,
                },
                transcript,
                refused,
            }
        })
        .collect()
}

/// Runs every epoch of the plan once: reads through the server, then the
/// write side (insert batch, refresh, rollover).
pub fn serve_pass(
    world: &World,
    plan: &ServePlan,
    tracer: &Tracer,
    checks: Checks,
    first_request: u32,
) -> PassResult {
    let mut out = PassResult::default();
    let mut graph = clone_graph(world.endpoint.graph(), tracer);
    let mut schema = world.schema.clone();
    let mut live = start(&graph, &schema, tracer);
    let mut next_request = first_request;
    for (epoch, (clients, batch)) in plan.epochs.iter().zip(&plan.batches).enumerate() {
        // read side: both clients in closed loop
        let firsts = [next_request, next_request + clients[0].len() as u32];
        next_request += (clients[0].len() + clients[1].len()) as u32;
        let timed = Stopwatch::start();
        let records: Vec<Vec<ClientRecord>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let live = &live;
                    let scripts = &clients[c];
                    scope.spawn(move || client(live, c, scripts, firsts[c], tracer, checks))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a benchmark client thread panicked"))
                .collect()
        });
        out.segments.push(Segment {
            time: timed.stop_bracketed(),
            write: false,
        });
        // serial replay on a bare session over the same graph state
        let oracle = (checks == Checks::Full).then(|| LocalEndpoint::new(graph.clone()));
        for (c, client_records) in records.into_iter().enumerate() {
            for (i, r) in client_records.into_iter().enumerate() {
                out.rejected += u64::from(r.refused);
                if let (Some(oracle), Some(text)) = (&oracle, &r.transcript) {
                    let begin = Instant::now();
                    let serial =
                        run_script(oracle, &schema, &clients[c][i], &SessionConfig::default());
                    out.serial_ns.push(begin.elapsed().as_nanos() as u64);
                    match serial {
                        Ok(t) if &t.to_text() == text => {}
                        Ok(_) => out.violations.push(format!(
                            "request {}: server transcript differs from the serial replay",
                            firsts[c] + i as u32
                        )),
                        Err(e) => out.violations.push(format!(
                            "request {}: serial replay failed: {e}",
                            firsts[c] + i as u32
                        )),
                    }
                }
                out.requests.push(r.record);
            }
        }

        // write side
        let timed = Stopwatch::start();
        let mut triples = batch.iter().cloned();
        if epoch == 0 {
            // the first insert into the frozen index thaws it
            if let Some((s, p, o)) = triples.next() {
                let _span = tracer.span("graph.thaw");
                graph.insert(s, p, o);
            }
        }
        {
            let mut span = tracer.span("graph.insert");
            let mut inserted = 0usize;
            for (s, p, o) in triples {
                inserted += usize::from(graph.insert(s, p, o));
            }
            span.rows(inserted);
        }
        let endpoint = LocalEndpoint::new(graph);
        {
            let mut span = tracer.span("cube.refresh");
            match refresh(&endpoint, &mut schema) {
                Ok(report) => span.rows(report.endpoint_queries as usize),
                Err(e) => out.violations.push(format!("refresh failed: {e}")),
            }
        }
        graph = endpoint.into_graph();
        stop(live, tracer, &mut out);
        live = start(&graph, &schema, tracer);
        out.segments.push(Segment {
            time: timed.stop_bracketed(),
            write: true,
        });
    }
    stop(live, tracer, &mut out);
    if checks == Checks::Full && schema.observation_count <= world.schema.observation_count {
        out.violations
            .push("refresh did not see the inserted observations".to_owned());
    }
    out
}
