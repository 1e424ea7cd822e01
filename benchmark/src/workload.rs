//! The four workloads: their sizes, the world they run against (dataset →
//! snapshot → frozen graph → schema) and their seeded scripts.

use crate::calib::{Sample, Stopwatch};
use crate::rng::{Rng, Zipf};
use crate::stats::Fnv;
use crate::trace::Tracer;
use re2x_cube::{bootstrap, BootstrapConfig, VirtualSchemaGraph};
use re2x_datagen::cache::{describe_named, generate_named};
use re2x_datagen::{example_workload_on, Dataset};
use re2x_rdf::{Graph, Term};
use re2x_serve::{RoundOp, SessionScript};
use re2x_sparql::{LocalEndpoint, SparqlEndpoint};
use re2xolap::{RefineOp, Session, SessionConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Seed of every generated dataset. The dataset is the database the
/// traffic runs against; `--seed` draws the traffic.
pub const DATA_SEED: u64 = 7;

/// Tenant whose stack carries the query cache.
pub const TENANT_CACHED: &str = "cached";
/// Tenant with a bare endpoint.
pub const TENANT_BARE: &str = "bare";
/// Entries of the cached tenant's LRU.
pub const CACHE_CAPACITY: usize = 256;
/// Zipf exponent of `serve_live`'s example popularity.
pub const ZIPF_S: f64 = 1.1;

/// Seed of the script *templates*: which operations a session runs in
/// which order, which offers it picks, which popularity rank a served
/// session draws. Templates are the same under every `--seed`; the seed
/// draws the example tuples that fill them. Both together make the script.
const TEMPLATE_SEED: u64 = 0x7E3A_11CE;

/// Candidates generated per script slot before stratified selection.
const POOL_FACTOR: usize = 8;
/// `pick` values are drawn from `0..PICK_SPACE` and applied modulo the
/// number of candidates / offers.
const PICK_SPACE: usize = 12;
/// `synth_ambiguous` keeps tuples whose keyword-hit product lies in this
/// range: below it synthesis is sub-millisecond, above it one request
/// takes a large share of a pass.
const SYNTH_WORK: std::ops::RangeInclusive<usize> = 150..=450;
/// Tokens that fewer literals contain are not "high document frequency".
const SYNTH_MIN_HITS: usize = 8;
/// Labels sampled to find the vocabulary.
const SYNTH_LABEL_SAMPLE: usize = 1500;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sessions on 1-to-N hierarchies; query execution dominates.
    ExploreStar,
    /// Sessions on M-to-N hierarchies; refinement generation is the tail.
    ExploreMton,
    /// Synthesis-only requests from ambiguous keyword tuples.
    SynthAmbiguous,
    /// Scripted sessions through the server, with writes beside the reads.
    ServeLive,
}

/// Sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Generator name (`re2x_datagen::cache::generate_named`).
    pub dataset: &'static str,
    /// Observations generated.
    pub observations: usize,
    /// Explore: sessions per pass. Synth: requests per pass. Serve:
    /// sessions per client per epoch.
    pub sessions: usize,
    /// Serve: epochs per pass.
    pub epochs: usize,
    /// Serve: observations inserted after each epoch.
    pub batch: usize,
    /// Serve: size of the Zipf-ranked example pool.
    pub pool: usize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ExploreStar,
        Workload::ExploreMton,
        Workload::SynthAmbiguous,
        Workload::ServeLive,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreStar => "explore_star",
            Workload::ExploreMton => "explore_mton",
            Workload::SynthAmbiguous => "synth_ambiguous",
            Workload::ServeLive => "serve_live",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's sizes; `smoke` is the ≤ 2 k-observation size the
    /// tests run.
    pub fn spec(self, smoke: bool) -> Spec {
        let spec = |dataset, observations, sessions, epochs, batch, pool| Spec {
            dataset,
            observations,
            sessions,
            epochs,
            batch,
            pool,
        };
        match (self, smoke) {
            (Workload::ExploreStar, false) => spec("eurostat", 6_000, 32, 0, 0, 0),
            (Workload::ExploreStar, true) => spec("eurostat", 1_000, 6, 0, 0, 0),
            (Workload::ExploreMton, false) => spec("dbpedia", 4_000, 30, 0, 0, 0),
            (Workload::ExploreMton, true) => spec("dbpedia", 300, 6, 0, 0, 0),
            (Workload::SynthAmbiguous, false) => spec("dbpedia", 16_000, 140, 0, 0, 0),
            (Workload::SynthAmbiguous, true) => spec("dbpedia", 300, 20, 0, 0, 0),
            (Workload::ServeLive, false) => spec("production", 8_000, 14, 4, 150, 200),
            (Workload::ServeLive, true) => spec("production", 1_000, 4, 2, 20, 30),
        }
    }
}

/// Facts about the world recorded while it was built.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldFacts {
    /// Triples generated.
    pub triples: usize,
    /// Size of the snapshot file.
    pub snapshot_bytes: u64,
    /// `Graph::heap_bytes` of the loaded graph.
    pub heap_bytes: usize,
    /// Queries the bootstrap crawl issued.
    pub bootstrap_queries: u64,
    /// `generate_named`, timed.
    pub generate: Sample,
    /// `write_snapshot`, timed.
    pub write: Sample,
    /// `load_snapshot`, timed.
    pub load: Sample,
    /// `bootstrap`, timed.
    pub bootstrap: Sample,
}

impl WorldFacts {
    /// The timed stages of the build, in order.
    pub fn stages(&self) -> [Sample; 4] {
        [self.generate, self.write, self.load, self.bootstrap]
    }
}

/// Everything a workload runs against.
pub struct World {
    /// Dataset metadata (its `graph` is empty; the graph is in `endpoint`).
    pub meta: Dataset,
    /// Bare endpoint over the snapshot-loaded (frozen) graph.
    pub endpoint: LocalEndpoint,
    /// The bootstrapped schema.
    pub schema: VirtualSchemaGraph,
    /// The snapshot the graph was loaded from.
    pub snapshot: PathBuf,
    /// Key the snapshot was written under.
    pub key: String,
    /// Set-up facts.
    pub facts: WorldFacts,
}

impl World {
    /// Generates the dataset, writes its snapshot, drops the generated
    /// graph, loads the snapshot and bootstraps — the restart path.
    pub fn build(spec: &Spec, snapshot: &Path, tracer: &Tracer) -> Result<World, String> {
        let key = format!("bench/{}/{}/{DATA_SEED}", spec.dataset, spec.observations);
        let mut facts = WorldFacts::default();
        let timed = Stopwatch::start();
        let generated = {
            let mut span = tracer.span("datagen.generate");
            let ds = generate_named(spec.dataset, spec.observations, DATA_SEED)
                .ok_or_else(|| format!("unknown dataset {}", spec.dataset))?;
            span.rows(ds.graph.len());
            ds
        };
        facts.generate = timed.stop_bracketed();
        facts.triples = generated.graph.len();
        if let Some(dir) = snapshot.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let timed = Stopwatch::start();
        {
            let _span = tracer.span("snapshot.write");
            generated
                .graph
                .write_snapshot(snapshot, &key)
                .map_err(|e| format!("write snapshot: {e}"))?;
        }
        facts.write = timed.stop_bracketed();
        facts.snapshot_bytes = std::fs::metadata(snapshot).map_or(0, |m| m.len());
        drop(generated);
        let meta = describe_named(spec.dataset, spec.observations)
            .ok_or_else(|| format!("unknown dataset {}", spec.dataset))?;
        let Restart {
            endpoint,
            schema,
            queries,
            load,
            bootstrap,
        } = restart(snapshot, &key, &meta.observation_class, tracer)?;
        facts.heap_bytes = endpoint.graph().heap_bytes();
        facts.bootstrap_queries = queries;
        facts.load = load;
        facts.bootstrap = bootstrap;
        Ok(World {
            meta,
            endpoint,
            schema,
            snapshot: snapshot.to_owned(),
            key,
            facts,
        })
    }

    /// What a process restart costs before the first answer: load the
    /// snapshot and bootstrap. Returns the `(load, bootstrap)` timings.
    pub fn cold_start(&self, tracer: &Tracer) -> Result<(Sample, Sample), String> {
        let restarted = restart(
            &self.snapshot,
            &self.key,
            &self.meta.observation_class,
            tracer,
        )?;
        if restarted.queries != self.facts.bootstrap_queries {
            return Err(format!(
                "cold start issued {} bootstrap queries, set-up issued {}",
                restarted.queries, self.facts.bootstrap_queries
            ));
        }
        Ok((restarted.load, restarted.bootstrap))
    }
}

/// A loaded and bootstrapped endpoint, with what each step cost.
struct Restart {
    endpoint: LocalEndpoint,
    schema: VirtualSchemaGraph,
    queries: u64,
    load: Sample,
    bootstrap: Sample,
}

fn restart(snapshot: &Path, key: &str, class: &str, tracer: &Tracer) -> Result<Restart, String> {
    let timed = Stopwatch::start();
    let graph = {
        let mut span = tracer.span("snapshot.load");
        let graph =
            Graph::load_snapshot(snapshot, Some(key)).map_err(|e| format!("load snapshot: {e}"))?;
        span.rows(graph.len());
        graph
    };
    let load = timed.stop_bracketed();
    let endpoint = LocalEndpoint::new(graph);
    let timed = Stopwatch::start();
    let report = {
        let mut span = tracer.span("cube.bootstrap");
        let report = bootstrap(&endpoint, &BootstrapConfig::new(class))
            .map_err(|e| format!("bootstrap: {e}"))?;
        span.rows(report.endpoint_queries as usize);
        report
    };
    Ok(Restart {
        endpoint,
        schema: report.schema,
        queries: report.endpoint_queries,
        load,
        bootstrap: timed.stop_bracketed(),
    })
}

/// One scripted exploration session: an opening request and four refine
/// requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionPlan {
    /// The example tuple of the opening request.
    pub example: Vec<String>,
    /// Which synthesized candidate to choose (modulo their number).
    pub pick: usize,
    /// The refine requests: operation and which offer to apply.
    pub refines: [(RefineOp, usize); 4],
}

/// `serve_live`'s script: per epoch one list of sessions per client, and
/// the triples inserted after the epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    /// `epochs[e][c]` are the sessions client `c` submits in epoch `e`.
    pub epochs: Vec<[Vec<SessionScript>; 2]>,
    /// `batches[e]` is inserted after epoch `e`.
    pub batches: Vec<Vec<(Term, Term, Term)>>,
}

/// A workload's seeded script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Script {
    /// `explore_*`: sessions of five requests.
    Explore(Vec<SessionPlan>),
    /// `synth_ambiguous`: one example tuple per request.
    Synth(Vec<Vec<String>>),
    /// `serve_live`.
    Serve(ServePlan),
}

impl Script {
    /// Generates the workload's script from `seed`.
    pub fn generate(workload: Workload, spec: &Spec, world: &World, seed: u64) -> Script {
        match workload {
            Workload::ExploreStar | Workload::ExploreMton => {
                Script::Explore(explore_script(world, spec.sessions, seed))
            }
            Workload::SynthAmbiguous => Script::Synth(synth_script(world, spec.sessions, seed)),
            Workload::ServeLive => Script::Serve(serve_script(world, spec, seed)),
        }
    }

    /// Requests one pass over the script issues.
    pub fn requests(&self) -> usize {
        match self {
            Script::Explore(plans) => plans.len() * 5,
            Script::Synth(tuples) => tuples.len(),
            Script::Serve(plan) => plan.epochs.iter().flatten().map(Vec::len).sum(),
        }
    }

    /// Digest of the script: equal seeds give equal digests.
    pub fn digest(&self) -> u64 {
        Fnv::of(format!("{self:?}").as_bytes())
    }
}

/// Picks `n` items evenly spaced over the pool sorted by work key, so the
/// selection has the pool's mix of work classes. Returned in key order,
/// with their keys.
pub fn stratified<K: Ord, T>(mut pool: Vec<(K, T)>, n: usize) -> Vec<(K, T)> {
    pool.sort_by(|a, b| a.0.cmp(&b.0));
    let len = pool.len();
    let mut keep = vec![false; len];
    for i in 0..n.min(len) {
        keep[(2 * i + 1) * len / (2 * n.min(len))] = true;
    }
    pool.into_iter()
        .zip(keep)
        .filter_map(|(item, keep)| keep.then_some(item))
        .collect()
}

/// Work key of an opening request: the number of groups its query can
/// produce (the product of its grouping levels' member counts), then the
/// levels themselves. Execution and refinement cost follow the shape, not
/// the particular members.
type Shape = (u64, Vec<u32>);

/// The shape of every candidate query synthesized from `example`.
fn candidate_shapes(world: &World, example: &[String]) -> Vec<Shape> {
    let mut session = Session::new(&world.endpoint, &world.schema, SessionConfig::default());
    let parts: Vec<&str> = example.iter().map(String::as_str).collect();
    let Ok(outcome) = session.synthesize(&parts) else {
        return Vec::new();
    };
    outcome
        .queries
        .iter()
        .map(|query| {
            let levels = query.group_columns.iter().map(|c| c.level.0).collect();
            let groups = query
                .group_columns
                .iter()
                .map(|c| world.schema.level(c.level).member_count as u64)
                .fold(1u64, u64::saturating_mul);
            (groups, levels)
        })
        .collect()
}

/// Fills `n` script slots. A *reference* pool, the same under every seed,
/// fixes each slot's work key (stratified over the keys the pool has); the
/// *seeded* pool then supplies each slot with an item of exactly that key,
/// the reference item standing in where it has none left. So the seeds
/// agree on the work and differ in the members they touch. Without this,
/// which work classes a seed happens to draw moves the latency percentiles
/// by several times the bound: dbpedia has more distinct query shapes than
/// a pass has sessions.
pub fn fill_slots<K: Ord, T>(reference: Vec<(K, T)>, mut seeded: Vec<(K, T)>, n: usize) -> Vec<T> {
    stratified(reference, n)
        .into_iter()
        .map(
            |(key, fallback)| match seeded.iter().position(|(k, _)| *k == key) {
                Some(at) => seeded.swap_remove(at).1,
                None => fallback,
            },
        )
        .collect()
}

/// `count` anchored size-2 tuples with a candidate pick each, keyed by the
/// shape of the query that pick opens with.
fn keyed_openings(
    world: &World,
    count: usize,
    pool_seed: u64,
) -> Vec<(Shape, (Vec<String>, usize))> {
    example_workload_on(world.endpoint.graph(), &world.meta, 2, count, pool_seed)
        .into_iter()
        .enumerate()
        .filter_map(|(j, example)| {
            let shapes = candidate_shapes(world, &example);
            let pick = j % PICK_SPACE;
            let shape = shapes.get(pick % shapes.len().max(1))?.clone();
            Some((shape, (example, pick)))
        })
        .collect()
}

/// `n` opening requests — example tuple and candidate pick — in work-key
/// order, with the same query shapes under every seed.
fn shaped_openings(world: &World, n: usize, seed: u64) -> Vec<(Vec<String>, usize)> {
    fill_slots(
        keyed_openings(world, n * POOL_FACTOR, TEMPLATE_SEED),
        keyed_openings(world, n * POOL_FACTOR, seed),
        n,
    )
}

/// The `i`-th session template: the order of the four refine operations
/// and which offer each applies. Similarity is the first or the second
/// refine step: every request after it runs the (several times costlier)
/// similarity-restricted query, and with a uniform permutation half of all
/// requests would, which puts `request_ms_p50` on the cliff between the two
/// cost classes — a seed with two more dead ends than another then reports a
/// median of 3.7 ms instead of 5.3 ms. This way two thirds do, and the
/// median lies inside the costly class under every seed.
fn session_plan(i: usize, example: Vec<String>, pick: usize) -> SessionPlan {
    let mut template = Rng::new(TEMPLATE_SEED ^ i as u64);
    let mut ops = RefineOp::ALL;
    template.shuffle(&mut ops);
    if let Some(at) = ops.iter().position(|&op| op == RefineOp::Similarity) {
        if at >= 2 {
            ops.swap(at, template.below(2));
        }
    }
    SessionPlan {
        example,
        pick,
        refines: ops.map(|op| (op, template.below(PICK_SPACE))),
    }
}

/// Anchored size-2 tuples filling the session templates: template `i`
/// opens with the same query shape under every seed and then walks the
/// same operations.
pub fn explore_script(world: &World, sessions: usize, seed: u64) -> Vec<SessionPlan> {
    let mut rng = Rng::new(seed);
    let mut plans: Vec<SessionPlan> = shaped_openings(world, sessions, rng.next_u64())
        .into_iter()
        .enumerate()
        .map(|(i, (example, pick))| session_plan(i, example, pick))
        .collect();
    rng.shuffle(&mut plans);
    plans
}

/// Last whitespace-separated token of a label ("Genre 17" → "17").
fn last_token(label: &str) -> &str {
    label.split_whitespace().next_back().unwrap_or(label)
}

/// Pairs of high-document-frequency label tokens, keyed by the two
/// tokens' keyword-hit counts: the number of interpretation combinations
/// synthesis has to validate follows their product.
fn keyed_token_pairs(
    world: &World,
    count: usize,
    pool_seed: u64,
) -> Vec<((usize, usize, usize), Vec<String>)> {
    let mut rng = Rng::new(pool_seed);
    // vocabulary: last tokens ("Genre 17" → "17") of a sample of member
    // labels, kept when enough literals contain them
    let graph = world.endpoint.graph();
    let sample = example_workload_on(graph, &world.meta, 2, SYNTH_LABEL_SAMPLE, rng.next_u64());
    let mut hits: HashMap<&str, usize> = HashMap::new();
    for label in sample.iter().flatten() {
        let token = last_token(label);
        hits.entry(token)
            .or_insert_with(|| world.endpoint.keyword_search(token, false).len());
    }
    let mut vocabulary: Vec<(&str, usize)> = hits
        .into_iter()
        .filter(|&(_, h)| h >= SYNTH_MIN_HITS)
        .collect();
    vocabulary.sort_unstable();
    let mut keyed = Vec::new();
    while vocabulary.len() >= 2 && keyed.len() < count {
        let (a, b) = (
            vocabulary[rng.below(vocabulary.len())],
            vocabulary[rng.below(vocabulary.len())],
        );
        if a.0 != b.0 {
            keyed.push(((a.1 * b.1, a.1, b.1), vec![a.0.to_owned(), b.0.to_owned()]));
        }
    }
    keyed.retain(|((work, ..), _)| SYNTH_WORK.contains(work));
    keyed
}

/// 2-token keyword tuples with the same hit counts under every seed.
pub fn synth_script(world: &World, requests: usize, seed: u64) -> Vec<Vec<String>> {
    let mut rng = Rng::new(seed);
    let count = requests * POOL_FACTOR * 4;
    let mut tuples = fill_slots(
        keyed_token_pairs(world, count, TEMPLATE_SEED),
        keyed_token_pairs(world, count, rng.next_u64()),
        requests,
    );
    rng.shuffle(&mut tuples);
    tuples
}

/// Copies of existing observations under fresh subjects: `count` new
/// observations for batch `batch`.
fn insert_batch(
    world: &World,
    batch: usize,
    count: usize,
    rng: &mut Rng,
) -> Vec<(Term, Term, Term)> {
    let graph = world.endpoint.graph();
    let (Some(type_pred), Some(class)) = (
        graph.iri_id("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
        graph.iri_id(&world.meta.observation_class),
    ) else {
        return Vec::new();
    };
    let observations = graph.subjects(type_pred, class);
    let mut triples = Vec::new();
    for j in 0..count {
        let source = observations[rng.below(observations.len())];
        let subject = Term::iri(format!("http://bench.example.org/obs/{batch}/{j}"));
        for p in graph.predicates_from(source) {
            for &o in graph.objects(source, p) {
                triples.push((
                    subject.clone(),
                    graph.term(p).clone(),
                    graph.term(o).clone(),
                ));
            }
        }
    }
    triples
}

/// 1–3-round scripts whose examples are Zipf-drawn from a seeded pool;
/// client 0 drives the cached tenant, client 1 the bare one. Which rank a
/// session draws and which rounds it runs are templates; the seed decides
/// which tuple holds each rank.
pub fn serve_script(world: &World, spec: &Spec, seed: u64) -> ServePlan {
    let mut rng = Rng::new(seed);
    // Popularity ranks walk the work-ordered pool with a fixed stride, so
    // the hot head of the Zipf distribution covers the same mix of query
    // shapes under every seed.
    let sorted = shaped_openings(world, spec.pool, rng.next_u64());
    let stride = coprime_stride(sorted.len());
    let ranked: Vec<&(Vec<String>, usize)> = (0..sorted.len())
        .map(|rank| &sorted[rank * stride % sorted.len()])
        .collect();
    let zipf = Zipf::new(ranked.len().max(1), ZIPF_S);
    let mut template = Rng::new(TEMPLATE_SEED);
    let tenants = [TENANT_CACHED, TENANT_BARE];
    let mut epochs = Vec::with_capacity(spec.epochs);
    let mut batches = Vec::with_capacity(spec.epochs);
    for e in 0..spec.epochs {
        let clients = tenants.map(|tenant| {
            (0..spec.sessions)
                .map(|_| {
                    let (example, pick) = ranked[zipf.draw(&mut template)].clone();
                    let mut rounds = vec![RoundOp::Synthesize { example, pick }];
                    for _ in 0..template.below(3) {
                        rounds.push(RoundOp::Refine {
                            op: RefineOp::ALL[template.below(4)],
                            pick: template.below(PICK_SPACE),
                        });
                    }
                    SessionScript {
                        tenant: tenant.to_owned(),
                        rounds,
                    }
                })
                .collect::<Vec<_>>()
        });
        epochs.push(clients);
        batches.push(insert_batch(world, e, spec.batch, &mut rng));
    }
    ServePlan { epochs, batches }
}

/// A stride near 0.618 · `len` that is coprime with `len`: walking the pool
/// with it visits every element once and spreads consecutive ranks evenly.
fn coprime_stride(len: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    (len * 618 / 1000..len)
        .find(|&s| s > 0 && gcd(s, len) == 1)
        .unwrap_or(1)
}
