//! The `repro scale` experiment: persistent snapshots vs regeneration
//! across a ladder of observation counts.
//!
//! For each rung the harness (1) regenerates the Eurostat dataset from
//! scratch — the cost every run used to pay, (2) writes the
//! dictionary-encoded snapshot, (3) loads it back through the cache
//! (`re2x_datagen::cache`), and (4) proves the loaded graph identical to
//! the generated one: equal [`graph_digest`]s (term dictionary in interning
//! order plus the full sorted triple stream) *and* byte-identical answers
//! to a probe-query workload. It then bootstraps the schema and runs two
//! ReOLAP syntheses on the *loaded* graph — a tuple validated by one `ASK`
//! per candidate and one that takes the shared-observation-set path — so
//! the rung's analytics run end-to-end from the snapshot. Last it walks the
//! interactive loop on the loaded graph ([`LoopTimings`]): execute the
//! chosen query (Orig.), drill down once (Dis.1), generate every
//! refinement of Dis.1, and apply one Top-k and one Similarity refinement —
//! which the session answers from Dis.1's rows — next to what executing the
//! same refined query costs, with the two results compared byte for byte.
//! The rung ends with the serve situation ([`write_beside_clone`]): one
//! `Graph::clone` of the loaded graph, then one triple written and one new
//! literal interned into the source while that clone is alive.
//!
//! Two claims are checked across the ladder:
//!
//! * **load speedup** — snapshot load must be ≥ [`MIN_LOAD_SPEEDUP`]×
//!   faster than regeneration on every rung (the point of zero-reparse
//!   loading);
//! * **schema-bound analytics** — bootstrap and ReOLAP latency must grow
//!   sublinearly in the observation count (the paper's central §5.3 claim:
//!   cost tracks schema complexity, not data volume). For ReOLAP the
//!   slower of the two probes counts on every rung: the set-path probe's
//!   member is reached by tens of thousands to millions of observations,
//!   so it only stays flat if the fetch cap bounds work, not just output.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_datagen::cache;
use re2x_obs::Tracer;
use re2x_rdf::vocab::rdf;
use re2x_rdf::{graph_digest, Graph, Literal, Term};
use re2x_sparql::{parse_query, to_tsv, LocalEndpoint, Solutions, SparqlEndpoint};
use re2xolap::{reolap, RefineOp, Refinement, ReolapConfig, Session, SessionConfig};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Measurements for one observation-count rung.
#[derive(Debug, Clone)]
pub struct ScaleRung {
    /// Observation count of this rung.
    pub observations: usize,
    /// Triples in the generated graph.
    pub triples: usize,
    /// Time to generate the dataset from scratch.
    pub generate: Duration,
    /// Time to write the snapshot.
    pub write: Duration,
    /// Time to load the snapshot back (through the cache).
    pub load: Duration,
    /// `true` if the post-write cache acquisition was a hit (it must be).
    pub cache_hit: bool,
    /// `true` if the loaded graph proved identical to the generated one
    /// (digest equality + byte-identical probe-query answers).
    pub identical: bool,
    /// Schema bootstrap time on the loaded graph.
    pub bootstrap: Duration,
    /// Members discovered by the bootstrap (shape sanity).
    pub members: usize,
    /// One ReOLAP synthesis of [`ASK_PATH_EXAMPLE`] on the loaded graph: one
    /// validation `ASK` per candidate.
    pub reolap: Duration,
    /// One ReOLAP synthesis of [`SET_PATH_EXAMPLE`], validated over shared
    /// observation sets.
    pub reolap_sets: Duration,
    /// `true` if both probes synthesized at least one query.
    pub synthesized: bool,
    /// Observation sets the set-path probe fetched …
    pub set_fetches: u64,
    /// … and how many of them came back over the cap.
    pub sets_truncated: u64,
    /// The interactive loop on the loaded graph; `None` if a stage of it
    /// failed or offered nothing.
    pub exploration: Option<LoopTimings>,
    /// `Graph::clone` of the loaded graph and the first writes beside that
    /// clone ([`write_beside_clone`]); `None` if a write did not happen.
    pub beside_clone: Option<BesideClone>,
}

/// What [`write_beside_clone`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct BesideClone {
    /// `Graph::clone` of the loaded graph.
    pub clone: Duration,
    /// The first `insert_ids` beside the clone.
    pub first_insert: Duration,
    /// Interning one new literal beside the clone. The text index copies
    /// only the posting lists the literal joins, but the term table still
    /// copies whole (ROADMAP item 2(c)), so this is reported, not gated.
    pub first_fresh_literal: Duration,
}

/// What a tenant start and the first writes after it cost on the loaded
/// graph: one `Graph::clone`, then — the clone still alive, as a tenant's
/// is — one new triple over already-interned ids, `<class> rdf:type
/// <class>`, which joins the longest posting list the indexes hold (every
/// observation's type triple), and one new literal interned. `None` if the
/// vocabulary is missing, the triple or literal exists or the clone saw a
/// write.
fn write_beside_clone(mut graph: Graph, observation_class: &str) -> Option<BesideClone> {
    let class = graph.iri_id(observation_class)?;
    let type_predicate = graph.iri_id(rdf::TYPE)?;
    let lexical = "first fresh literal 2014";
    let fresh = Term::from(Literal::simple(lexical));
    let start = Instant::now();
    let tenant = graph.clone();
    let clone = start.elapsed();
    let start = Instant::now();
    let inserted = graph.insert_ids(class, type_predicate, class);
    let first_insert = start.elapsed();
    let indexes_shared = graph.shares_base_with(&tenant);
    let known = graph.term_id(&fresh).is_some();
    let start = Instant::now();
    let literal = graph.intern(fresh);
    let first_fresh_literal = start.elapsed();
    let found = graph.literals_matching_exact(lexical) == [literal];
    let seen = tenant.term_id(graph.term(literal)).is_some()
        || !tenant.literals_matching_exact(lexical).is_empty();
    let isolated = found && !known && !seen;
    (inserted && graph.len() == tenant.len() + 1 && indexes_shared && isolated).then_some(
        BesideClone {
            clone,
            first_insert,
            first_fresh_literal,
        },
    )
}

/// One refinement applied to the drilled-down step: answered by the session
/// from the rows it holds, and executed directly for comparison. Times are
/// the minimum of three runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefinedTimings {
    /// `Session::apply`, which derives the result from the parent's rows.
    pub derived: Duration,
    /// `endpoint.select` of the very same refined query.
    pub executed: Duration,
    /// Endpoint queries one `apply` issued (0 when derived; the most of the
    /// three runs).
    pub endpoint_queries: u64,
    /// `true` if in every run the step was derived and both results
    /// rendered to the same TSV bytes.
    pub identical: bool,
}

/// Timings of the interactive loop on one rung, from the example tuple
/// [`ASK_PATH_EXAMPLE`]: the first synthesized query (Orig.), its first
/// drill-down (Dis.1), and the refinements of Dis.1.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoopTimings {
    /// Executing the chosen query.
    pub execute_orig: Duration,
    /// Executing it after one Disaggregate.
    pub execute_dis1: Duration,
    /// Result rows of Dis.1 — what the refinements below work on.
    pub dis1_rows: usize,
    /// Generating the drill-downs of Orig.
    pub gen_dis: Duration,
    /// Generating the Top-k refinements of Dis.1.
    pub gen_topk: Duration,
    /// Generating its Percentile refinements.
    pub gen_perc: Duration,
    /// Generating its Similarity refinements.
    pub gen_sim: Duration,
    /// The first Top-k refinement of Dis.1, applied.
    pub topk: RefinedTimings,
    /// The first Similarity refinement of Dis.1, applied.
    pub sim: RefinedTimings,
}

impl LoopTimings {
    /// `true` if both applied refinements were derived and byte-identical
    /// to their executed counterparts.
    pub fn refined_identical(&self) -> bool {
        self.topk.identical && self.sim.identical
    }

    /// Endpoint queries the two applied refinements issued between them.
    pub fn derived_endpoint_queries(&self) -> u64 {
        self.topk.endpoint_queries + self.sim.endpoint_queries
    }
}

/// Walks the interactive loop once over `endpoint`; `None` if synthesis,
/// an execution or a refinement stage fails or offers nothing.
fn explore(
    endpoint: &LocalEndpoint,
    schema: &re2x_cube::VirtualSchemaGraph,
) -> Option<LoopTimings> {
    let mut session = Session::new(endpoint, schema, SessionConfig::default());
    let chosen = session
        .synthesize(&ASK_PATH_EXAMPLE)
        .ok()?
        .queries
        .into_iter()
        .next()?;
    let execute_orig = session.choose(chosen).ok()?.cost.wall;
    let generate = |session: &mut Session, op| {
        let start = Instant::now();
        let offers = session.refinements(op).ok()?;
        Some((start.elapsed(), offers.into_iter().next()?))
    };
    let (gen_dis, drill_down) = generate(&mut session, RefineOp::Disaggregate)?;
    let dis1 = session.apply(drill_down).ok()?;
    let (execute_dis1, dis1_rows) = (dis1.cost.wall, dis1.solutions.len());
    let (gen_topk, topk) = generate(&mut session, RefineOp::TopK)?;
    let (gen_perc, _) = generate(&mut session, RefineOp::Percentile)?;
    let (gen_sim, sim) = generate(&mut session, RefineOp::Similarity)?;

    // Min of three runs, like the synthesis probes: a derived apply is a
    // few milliseconds, where a single sample is mostly scheduler noise.
    let refined = |session: &mut Session, offer: Refinement| {
        let mut best = RefinedTimings {
            derived: Duration::MAX,
            executed: Duration::MAX,
            endpoint_queries: 0,
            identical: true,
        };
        for _ in 0..3 {
            let step = session.apply(offer.clone()).ok()?;
            let start = Instant::now();
            let executed = endpoint.select(&step.query.query).ok()?;
            best.executed = best.executed.min(start.elapsed());
            best.derived = best.derived.min(step.cost.wall);
            best.endpoint_queries = best.endpoint_queries.max(step.cost.endpoint_queries);
            let graph = endpoint.graph();
            best.identical &=
                step.derived && to_tsv(&step.solutions, graph) == to_tsv(&executed, graph);
            session.backtrack();
        }
        Some(best)
    };
    let topk = refined(&mut session, topk)?;
    let sim = refined(&mut session, sim)?;
    Some(LoopTimings {
        execute_orig,
        execute_dis1,
        dis1_rows,
        gen_dis,
        gen_topk,
        gen_perc,
        gen_sim,
        topk,
        sim,
    })
}

/// The `ASK`-walk probe: Germany is a destination and an origin country,
/// 2014 a year — two candidates over three interpretations, both of which
/// hold.
pub const ASK_PATH_EXAMPLE: [&str; 2] = ["Germany", "2014"];

/// The set-path probe: Europe is a destination and an origin continent, so
/// the repeated keyword yields three candidates (⟨a,a⟩, ⟨a,b⟩, ⟨b,b⟩) over
/// two interpretations — more candidates than interpretations, which is
/// what selects the set path. Both observation sets exceed the fetch cap on
/// every rung (a seventh to a half of all observations), and all three
/// candidates hold, so what the probe times is the capped fetches.
///
/// Deliberately *not* several distinct ambiguous keywords: every ambiguity
/// in this dataset is origin-vs-destination over one country pool, so such
/// a tuple always contains same-dimension pairs no observation satisfies,
/// and a false candidate's `ASK` costs the smaller side's size on either
/// validation path — the probe would time that, not the cap.
pub const SET_PATH_EXAMPLE: [&str; 2] = ["Europe", "Europe"];

/// Observation sets the set-path probe fetches: one per interpretation.
pub const SET_PATH_FETCHES: u64 = 2;

/// The load-speedup gate: the smallest per-rung ratio of regeneration
/// time to snapshot load time. It was 5× while generation inserted triple
/// by triple; since the generators bulk-build their index bases
/// (`Graph::extend_ids`) generation is about twice as fast and load is
/// unchanged, so the smoke ladder reads 4.2–6.6× (three runs; 2-core VM).
/// 3× still holds the claim — a load beats a regeneration severalfold —
/// with margin for a noisy rung.
pub const MIN_LOAD_SPEEDUP: f64 = 3.0;

impl ScaleRung {
    /// Regeneration time over snapshot load time.
    pub fn load_speedup(&self) -> f64 {
        let load = self.load.as_secs_f64().max(1e-9);
        self.generate.as_secs_f64() / load
    }
}

/// The full ladder.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// RNG seed the ladder ran with.
    pub seed: u64,
    /// One row per rung, ascending observation count.
    pub rows: Vec<ScaleRung>,
}

impl ScaleReport {
    /// The smallest per-rung load speedup.
    pub fn min_load_speedup(&self) -> f64 {
        self.rows
            .iter()
            .map(ScaleRung::load_speedup)
            .fold(f64::INFINITY, f64::min)
    }

    /// `true` if every rung proved generated ≡ loaded.
    pub fn all_identical(&self) -> bool {
        !self.rows.is_empty() && self.rows.iter().all(|r| r.identical && r.cache_hit)
    }

    /// `true` if on every rung the applied refinements were answered from
    /// the parent's rows, with no endpoint query, byte-identical to
    /// executing them.
    pub fn refined_identical(&self) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|r| {
                r.exploration
                    .is_some_and(|x| x.refined_identical() && x.derived_endpoint_queries() == 0)
            })
    }

    /// Growth factor of a latency across the ladder, relative to the
    /// growth factor of the observation count: `< 0.5` means the latency
    /// grew less than half as fast as the data — clearly sublinear.
    ///
    /// Latencies are floored at 1 ms first: below that, constant overheads
    /// and timer resolution dominate, and a 60 µs → 120 µs wobble on a 4×
    /// data ladder is schema-bound by inspection, not linear growth.
    fn relative_growth(&self, f: impl Fn(&ScaleRung) -> Duration) -> f64 {
        const FLOOR: f64 = 1e-3;
        let (Some(first), Some(last)) = (self.rows.first(), self.rows.last()) else {
            return f64::INFINITY;
        };
        if first.observations == 0 || last.observations <= first.observations {
            return f64::INFINITY;
        }
        let obs_ratio = last.observations as f64 / first.observations as f64;
        let time_ratio = f(last).as_secs_f64().max(FLOOR) / f(first).as_secs_f64().max(FLOOR);
        time_ratio / obs_ratio
    }

    /// `true` if bootstrap latency is schema-bound across the ladder.
    pub fn bootstrap_sublinear(&self) -> bool {
        self.relative_growth(|r| r.bootstrap) < 0.5
    }

    /// `true` if ReOLAP synthesis latency is schema-bound across the
    /// ladder — judged on the slower probe of every rung, and only if on
    /// every rung both probes synthesized and the set-path probe fetched
    /// its sets and found them over the cap.
    pub fn reolap_sublinear(&self) -> bool {
        let probed = |r: &ScaleRung| {
            r.synthesized
                && r.set_fetches == SET_PATH_FETCHES
                && r.sets_truncated == SET_PATH_FETCHES
        };
        self.rows.iter().all(probed) && self.relative_growth(|r| r.reolap.max(r.reolap_sets)) < 0.5
    }

    /// Machine-readable form, written to `bench_results/scale.json`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"dataset\": \"eurostat\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            out,
            "  \"min_load_speedup\": {:.2},",
            self.min_load_speedup()
        );
        let _ = writeln!(out, "  \"all_identical\": {},", self.all_identical());
        let _ = writeln!(
            out,
            "  \"bootstrap_sublinear\": {},",
            self.bootstrap_sublinear()
        );
        let _ = writeln!(out, "  \"reolap_sublinear\": {},", self.reolap_sublinear());
        let _ = writeln!(
            out,
            "  \"all_refined_identical\": {},",
            self.refined_identical()
        );
        out.push_str("  \"rungs\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"observations\": {}, \"triples\": {}, \
                 \"generate_us\": {}, \"write_us\": {}, \"load_us\": {}, \
                 \"load_speedup\": {:.2}, \"cache_hit\": {}, \"identical\": {}, \
                 \"bootstrap_us\": {}, \"members\": {}, \"reolap_us\": {}, \
                 \"reolap_sets_us\": {}, \"synthesized\": {}, \"set_fetches\": {}, \
                 \"sets_truncated\": {}, {}, {}}}{comma}",
                r.observations,
                r.triples,
                r.generate.as_micros(),
                r.write.as_micros(),
                r.load.as_micros(),
                r.load_speedup(),
                r.cache_hit,
                r.identical,
                r.bootstrap.as_micros(),
                r.members,
                r.reolap.as_micros(),
                r.reolap_sets.as_micros(),
                r.synthesized,
                r.set_fetches,
                r.sets_truncated,
                loop_json(r.exploration.as_ref()),
                beside_clone_json(r.beside_clone),
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Human-readable table.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>12} {:>10} {:>10} {:>10} {:>9} {:>5} {:>10} {:>10} {:>10}",
            "observations",
            "gen ms",
            "load ms",
            "speedup",
            "identical",
            "hit",
            "boot ms",
            "reolap ms",
            "sets ms"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:>12} {:>10.1} {:>10.1} {:>9.1}x {:>9} {:>5} {:>10.1} {:>10.1} {:>10.1}",
                r.observations,
                r.generate.as_secs_f64() * 1e3,
                r.load.as_secs_f64() * 1e3,
                r.load_speedup(),
                r.identical,
                r.cache_hit,
                r.bootstrap.as_secs_f64() * 1e3,
                r.reolap.as_secs_f64() * 1e3,
                r.reolap_sets.as_secs_f64() * 1e3,
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "min load speedup {:.1}x (gate ≥{MIN_LOAD_SPEEDUP}x) | identical {} | bootstrap sublinear {} | reolap sublinear {}",
            self.min_load_speedup(),
            self.all_identical(),
            self.bootstrap_sublinear(),
            self.reolap_sublinear(),
        );
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "the loop on the loaded graph, ms — execute Orig. / Dis.1, generate per refine op, \
             one refinement of Dis.1 derived from its rows vs executed:"
        );
        let _ = writeln!(
            out,
            "{:>12} {:>9} {:>9} {:>7} {:>8} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "observations",
            "Orig.",
            "Dis.1",
            "rows",
            "gen dis",
            "gen topk",
            "gen perc",
            "gen sim",
            "topk der",
            "topk exe",
            "sim der",
            "sim exe",
            "identical"
        );
        for r in &self.rows {
            let Some(x) = &r.exploration else {
                let _ = writeln!(out, "{:>12} (the loop did not complete)", r.observations);
                continue;
            };
            let _ = writeln!(
                out,
                "{:>12} {:>9.1} {:>9.1} {:>7} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>9.3} {:>9.1} {:>9.3} {:>9.1} {:>9}",
                r.observations,
                ms(x.execute_orig),
                ms(x.execute_dis1),
                x.dis1_rows,
                ms(x.gen_dis),
                ms(x.gen_topk),
                ms(x.gen_perc),
                ms(x.gen_sim),
                ms(x.topk.derived),
                ms(x.topk.executed),
                ms(x.sim.derived),
                ms(x.sim.executed),
                x.refined_identical(),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "cloning the loaded graph, then writes to it beside the live clone, ms:"
        );
        let _ = writeln!(
            out,
            "{:>12} {:>10} {:>14} {:>14}",
            "observations", "clone", "first insert", "fresh literal"
        );
        for r in &self.rows {
            let Some(b) = r.beside_clone else {
                let _ = writeln!(out, "{:>12} (the writes did not happen)", r.observations);
                continue;
            };
            let _ = writeln!(
                out,
                "{:>12} {:>10.4} {:>14.4} {:>14.4}",
                r.observations,
                ms(b.clone),
                ms(b.first_insert),
                ms(b.first_fresh_literal)
            );
        }
        out
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The loop columns of one rung as JSON members (no braces). The keys are
/// always present so the schema is stable; a loop that did not complete
/// reports zeros, `refined_identical: false` and no derived step.
fn loop_json(exploration: Option<&LoopTimings>) -> String {
    let x = exploration.copied().unwrap_or_default();
    format!(
        "\"loop_completed\": {}, \"execute_orig_ms\": {:.3}, \"execute_dis1_ms\": {:.3}, \
         \"dis1_rows\": {}, \"gen_dis_ms\": {:.3}, \"gen_topk_ms\": {:.3}, \
         \"gen_perc_ms\": {:.3}, \"gen_sim_ms\": {:.3}, \
         \"topk_refined_derived_ms\": {:.3}, \"topk_refined_executed_ms\": {:.3}, \
         \"sim_refined_derived_ms\": {:.3}, \"sim_refined_executed_ms\": {:.3}, \
         \"refined_identical\": {}, \"derived_endpoint_queries\": {}",
        exploration.is_some(),
        ms(x.execute_orig),
        ms(x.execute_dis1),
        x.dis1_rows,
        ms(x.gen_dis),
        ms(x.gen_topk),
        ms(x.gen_perc),
        ms(x.gen_sim),
        ms(x.topk.derived),
        ms(x.topk.executed),
        ms(x.sim.derived),
        ms(x.sim.executed),
        x.refined_identical(),
        x.derived_endpoint_queries(),
    )
}

/// The clone-and-write columns of one rung as JSON members; zeros and
/// `wrote_beside_clone: false` if the writes did not happen.
fn beside_clone_json(timings: Option<BesideClone>) -> String {
    let b = timings.unwrap_or_default();
    format!(
        "\"wrote_beside_clone\": {}, \"clone_ms\": {:.4}, \"first_insert_ids_ms\": {:.4}, \
         \"first_fresh_literal_ms\": {:.4}",
        timings.is_some(),
        ms(b.clone),
        ms(b.first_insert),
        ms(b.first_fresh_literal),
    )
}

/// The probe workload whose answers must be byte-identical between the
/// generated and the snapshot-loaded graph. Deliberately schema-bound
/// queries (so the check stays cheap at 15M observations); [`graph_digest`]
/// covers the full data identity separately.
fn probe_queries() -> Vec<String> {
    let ns = "http://data.example.org/eurostat/";
    let qb = "http://purl.org/linked-data/cube#Observation";
    let rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    vec![
        // distinct destination countries (COUNT DISTINCT probe shape)
        format!(
            "SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE {{ ?o <{rdf_type}> <{qb}> . ?o <{ns}geo> ?m }}"
        ),
        // distinct origin members, listed (DISTINCT probe shape)
        format!("SELECT DISTINCT ?m WHERE {{ ?o <{rdf_type}> <{qb}> . ?o <{ns}citizen> ?m }}"),
        // hierarchy roll-up: regions per destination country
        format!("SELECT DISTINCT ?r WHERE {{ ?c <{ns}inRegion> ?r }}"),
    ]
}

/// The probe workload's answers on one endpoint; `None` marks a parse or
/// evaluation failure (which can never compare identical).
fn probe_answers(endpoint: &LocalEndpoint) -> Vec<Option<Solutions>> {
    probe_queries()
        .iter()
        .map(|text| {
            parse_query(text)
                .ok()
                .and_then(|q| endpoint.select(&q).ok())
        })
        .collect()
}

/// Runs the ladder. `rungs` are observation counts, ascending;
/// `snapshot_dir` is the persistent cache directory (snapshots are
/// overwritten each run so the measured load always reads bytes this
/// binary just wrote).
pub fn run(rungs: &[usize], seed: u64, snapshot_dir: &Path) -> ScaleReport {
    let mut rows = Vec::new();
    for &observations in rungs {
        eprintln!("scale rung: generating eurostat at {observations} observations …");
        let start = Instant::now();
        let mut dataset = re2x_datagen::eurostat::generate(observations, seed);
        let generate = start.elapsed();
        let digest = graph_digest(&dataset.graph);
        let triples = dataset.graph.len();

        let key = cache::snapshot_key("eurostat", observations, seed);
        let path = cache::snapshot_path(snapshot_dir, "eurostat", observations, seed);
        let _ = std::fs::create_dir_all(snapshot_dir);
        let start = Instant::now();
        let wrote = dataset.graph.write_snapshot(&path, &key).is_ok();
        let write = start.elapsed();

        // Answer the probe workload on the generated graph, then drop it
        // *before* timing the load: keeping millions of live allocations
        // around while the loader populates its own inflates the measured
        // load severalfold through allocator pressure, and no real run
        // holds a second copy of the dataset while loading a snapshot.
        let generated_endpoint = LocalEndpoint::new(std::mem::take(&mut dataset.graph));
        let expected_answers = probe_answers(&generated_endpoint);
        drop(generated_endpoint);
        drop(dataset);

        eprintln!("scale rung: loading snapshot back …");
        let start = Instant::now();
        let acquired = cache::load_or_generate(snapshot_dir, "eurostat", observations, seed);
        let load = start.elapsed();
        let (mut loaded, cache_hit) = match acquired {
            Some((ds, outcome)) => (ds, wrote && outcome.is_hit()),
            None => (re2x_datagen::eurostat::describe(observations), false),
        };

        let loaded_graph = std::mem::take(&mut loaded.graph);
        let digest_ok = graph_digest(&loaded_graph) == digest;
        let loaded_endpoint = LocalEndpoint::new(loaded_graph);
        let identical = digest_ok
            && probe_answers(&loaded_endpoint)
                .iter()
                .zip(&expected_answers)
                .all(|(got, want)| want.is_some() && got == want);

        eprintln!("scale rung: bootstrapping schema from the loaded graph …");
        let config = BootstrapConfig::new(loaded.observation_class.clone());
        let start = Instant::now();
        let report = bootstrap(&loaded_endpoint, &config);
        let bootstrap_time = start.elapsed();
        let members = report
            .as_ref()
            .map(|r| r.schema.stats().members)
            .unwrap_or_default();

        // ReOLAP synthesis, end-to-end from the snapshot-loaded graph.
        // Min of three runs: the synthesis is schema-bound (microseconds to
        // milliseconds), so a single sample is mostly scheduler noise.
        let probe = |example: &[&str]| -> Option<Duration> {
            let schema = &report.as_ref().ok()?.schema;
            let cfg = ReolapConfig::default();
            (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let outcome = reolap(&loaded_endpoint, schema, example, &cfg);
                    let elapsed = start.elapsed();
                    outcome
                        .is_ok_and(|o| !o.queries.is_empty())
                        .then_some(elapsed)
                })
                .min()
                .flatten()
        };
        let (reolap_time, reolap_sets) = (probe(&ASK_PATH_EXAMPLE), probe(&SET_PATH_EXAMPLE));
        // one counted run says which validation branch the set-path probe
        // takes
        let counted = ReolapConfig {
            tracer: Tracer::enabled(),
            ..Default::default()
        };
        if let Ok(report) = &report {
            let _ = reolap(
                &loaded_endpoint,
                &report.schema,
                &SET_PATH_EXAMPLE,
                &counted,
            );
        }
        let counter = |name: &str| counted.tracer.metrics().map_or(0, |m| m.counter(name));

        eprintln!("scale rung: walking the interactive loop …");
        let exploration = report
            .as_ref()
            .ok()
            .and_then(|report| explore(&loaded_endpoint, &report.schema));

        eprintln!("scale rung: cloning the loaded graph and writing beside the clone …");
        let beside_clone =
            write_beside_clone(loaded_endpoint.into_graph(), &loaded.observation_class);

        rows.push(ScaleRung {
            observations,
            triples,
            generate,
            write,
            load,
            cache_hit,
            identical: identical && report.is_ok(),
            bootstrap: bootstrap_time,
            members,
            reolap: reolap_time.unwrap_or_default(),
            reolap_sets: reolap_sets.unwrap_or_default(),
            synthesized: reolap_time.is_some() && reolap_sets.is_some(),
            set_fetches: counter("reolap.validation.sets"),
            sets_truncated: counter("reolap.validation.sets_truncated"),
            exploration,
            beside_clone,
        });
    }
    ScaleReport { seed, rows }
}
