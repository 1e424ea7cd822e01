//! One benchmark run: set-up, a fully checked reference pass, then timed
//! passes over the same script until `--seconds` have elapsed.
//!
//! Every request slot (and every segment of a pass) is timed once per
//! pass, each time next to a run of the calibration kernel; the reported
//! times are drift-corrected estimates over the passes (see
//! [`crate::calib`]).

use crate::calib::{estimate_ms, Sample, Stopwatch, REFERENCE_KERNEL_NS};
use crate::drive::{Checks, Client, Outcome, PassResult};
use crate::layers::{layer_metrics, LayerInputs};
use crate::report::{Metric, Report};
use crate::serve::serve_pass;
use crate::stats::{median_of, percentile, samples_beyond, Fnv};
use crate::sys::peak_rss_mib;
use crate::trace::{render_jsonl, Scope, TracedEndpoint, Tracer, BASE};
use crate::workload::{explore_script, serve_script, Script, Spec, Workload, World};
use re2x_sparql::{parse_query, query_to_sparql, SparqlEndpoint};
use re2xolap::{MatchMode, SessionConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request ids at or above this belong to probes and the reference pass,
/// not to the timed passes.
pub const PROBE_BASE: u32 = 1 << 30;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `peak_rss_mb` is read after this many timed passes. Later passes repeat
/// the same work; what they add to the high-water mark is allocator
/// fragmentation, which grows with their number — and that depends on how
/// fast the machine happens to be (`serve_live`: 159 MiB after 4 passes,
/// 173 MiB after 20).
const RSS_AFTER_PASSES: usize = 2;
/// Share of the measured window spent on cold-start probes.
const COLD_START_SHARE: f64 = 0.15;
/// Cold-start probes between two passes at most.
const COLD_STARTS_PER_PASS: usize = 4;
/// Trace file size aimed at.
const TRACE_CAP_BYTES: usize = 2 << 20;
/// Calls the parser / printer probe makes at least.
const PARSE_PROBE_CALLS: usize = 1000;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the script.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Test size (≤ 2 k observations).
    pub smoke: bool,
    /// Where snapshots and trace files go.
    pub dir: PathBuf,
}

/// Every pass's timing of every request slot and segment.
#[derive(Debug, Default)]
pub struct Timeline {
    /// `requests[slot][pass]`.
    pub requests: Vec<Vec<Sample>>,
    /// `segments[segment][pass]`.
    pub segments: Vec<Vec<Sample>>,
    /// Which segments are the write side.
    pub write: Vec<bool>,
}

impl Timeline {
    /// Appends one pass.
    pub fn observe(&mut self, pass: &PassResult) {
        if self.requests.is_empty() {
            self.requests = vec![Vec::new(); pass.requests.len()];
            self.segments = vec![Vec::new(); pass.segments.len()];
            self.write = pass.segments.iter().map(|s| s.write).collect();
        }
        for (slot, r) in self.requests.iter_mut().zip(&pass.requests) {
            slot.push(r.time);
        }
        for (segment, s) in self.segments.iter_mut().zip(&pass.segments) {
            segment.push(s.time);
        }
    }

    /// Passes appended.
    pub fn passes(&self) -> usize {
        self.segments.first().map_or(0, Vec::len)
    }

    /// Every calibration kernel run next to a segment, ascending, in ns: how
    /// the machine behaved.
    pub fn kernels_ns(&self) -> Vec<f64> {
        let mut ns: Vec<f64> = self
            .segments
            .iter()
            .flatten()
            .map(|s| s.kernel_ns as f64)
            .collect();
        ns.sort_by(f64::total_cmp);
        ns
    }

    /// Drift-corrected latency of every request slot, ascending, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .requests
            .iter()
            .map(|slot| estimate_ms(slot, Sample::wall_ms))
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Drift-corrected wall and CPU time of one pass, in ms: the sum of
    /// every segment's estimate. `write_only` keeps the write side only.
    pub fn pass_ms(&self, write_only: bool) -> (f64, f64) {
        let mut total = (0.0, 0.0);
        for (segment, &write) in self.segments.iter().zip(&self.write) {
            if write || !write_only {
                total.0 += estimate_ms(segment, Sample::wall_ms);
                total.1 += estimate_ms(segment, Sample::cpu_ms);
            }
        }
        total
    }

    /// Completed requests per second of the drift-corrected pass.
    pub fn requests_per_s(&self) -> f64 {
        self.requests.len() as f64 / (self.pass_ms(false).0 / 1e3)
    }
}

/// Runs `drive` as the single client of the world's endpoint (bare when
/// untraced) and adds the endpoint's own counters to what it recorded.
fn single_client(
    world: &World,
    tracer: &Tracer,
    checks: Checks,
    mode: MatchMode,
    drive: impl FnOnce(&Client<'_>, &mut PassResult),
) -> PassResult {
    let traced;
    let endpoint: &dyn SparqlEndpoint = if tracer.is_enabled() {
        let scope = Arc::new(Scope::default());
        traced = TracedEndpoint::new(&world.endpoint, tracer.clone(), BASE, scope);
        &traced
    } else {
        &world.endpoint
    };
    let mut config = SessionConfig::default();
    config.reolap.mode = mode;
    let client = Client {
        endpoint,
        schema: &world.schema,
        config,
        tracer,
        checks,
    };
    let before = world.endpoint.stats();
    let mut out = PassResult::default();
    drive(&client, &mut out);
    let after = world.endpoint.stats();
    out.eval = (
        after.selects - before.selects,
        after.asks - before.asks,
        after.rows_returned - before.rows_returned,
    );
    out
}

/// Runs the script once. Requests are numbered from `first_request`.
pub fn one_pass(
    world: &World,
    script: &Script,
    tracer: &Tracer,
    checks: Checks,
    first_request: u32,
) -> PassResult {
    match script {
        Script::Serve(plan) => serve_pass(world, plan, tracer, checks, first_request),
        Script::Explore(plans) => {
            single_client(world, tracer, checks, MatchMode::Exact, |client, out| {
                for (i, plan) in plans.iter().enumerate() {
                    client.run_session(plan, first_request + 5 * i as u32, out);
                }
            })
        }
        Script::Synth(tuples) => {
            single_client(world, tracer, checks, MatchMode::Keyword, |client, out| {
                for (i, tuple) in tuples.iter().enumerate() {
                    client.run_synthesis(tuple, first_request + i as u32, out);
                }
            })
        }
    }
}

/// Checks a timed pass against the reference pass.
fn compare(
    reference: &PassResult,
    pass: &PassResult,
    checks: Checks,
    violations: &mut Vec<String>,
) {
    if reference.requests.len() != pass.requests.len() {
        violations.push(format!(
            "pass issued {} requests, the reference pass {}",
            pass.requests.len(),
            reference.requests.len()
        ));
        return;
    }
    for (i, (a, b)) in reference.requests.iter().zip(&pass.requests).enumerate() {
        let same = a.outcome == b.outcome
            && a.rows == b.rows
            && (checks == Checks::Light || a.digest == b.digest);
        if !same && violations.len() < 20 {
            violations.push(format!(
                "request slot {i}: {:?}/{} rows/{:016x} in the reference pass, {:?}/{} rows/{:016x} later",
                a.outcome, a.rows, a.digest, b.outcome, b.rows, b.digest
            ));
        }
    }
}

/// Times `parse_query` and `query_to_sparql` over the census, in µs.
fn parse_probe(texts: &[String]) -> (Vec<f64>, Vec<f64>) {
    let (mut parse, mut print) = (Vec::new(), Vec::new());
    while !texts.is_empty() && parse.len() < PARSE_PROBE_CALLS {
        for text in texts {
            let begin = Instant::now();
            let parsed = parse_query(text);
            parse.push(begin.elapsed().as_secs_f64() * 1e6);
            if let Ok(query) = parsed {
                let begin = Instant::now();
                std::hint::black_box(query_to_sparql(&query));
                print.push(begin.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    (parse, print)
}

/// Runs one workload once and returns its report.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec: Spec = opts.workload.spec(opts.smoke);
    let name = opts.workload.name();
    let snapshot = opts.dir.join(format!("{name}-{}.snap", std::process::id()));
    let tracer = if opts.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let off = Tracer::disabled();

    // set-up: everything before the first request can be served
    let mut setups: Vec<Vec<Sample>> = Vec::new();
    let mut built: Option<(World, Script)> = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        drop(built.take()); // one world at a time, or peak memory doubles
        let world = World::build(&spec, &snapshot, &tracer)?;
        let timed = Stopwatch::start();
        let script = Script::generate(opts.workload, &spec, &world, opts.seed);
        let mut stages = world.facts.stages().to_vec();
        stages.push(timed.stop_bracketed());
        setups.push(stages);
        built = Some((world, script));
    }
    let (world, script) = built.ok_or("no set-up ran")?;
    let requests = script.requests();
    if requests == 0 {
        return Err(format!("{name}: the script is empty"));
    }

    // reference pass: every output check; also warms caches and allocator
    tracer.set_census(true);
    let reference = one_pass(&world, &script, &tracer, Checks::Full, PROBE_BASE);
    let mut violations = reference.violations.clone();

    // probes: the layers this workload's own requests do not reach
    let mut session_probe = None;
    let mut serve_probe = None;
    if opts.trace {
        if !matches!(script, Script::Explore(_)) {
            let probe = Script::Explore(explore_script(&world, 6, opts.seed));
            let pass = one_pass(
                &world,
                &probe,
                &tracer,
                Checks::Full,
                PROBE_BASE + (1 << 20),
            );
            violations.extend(pass.violations.iter().cloned());
            session_probe = Some(pass);
        }
        if !matches!(script, Script::Serve(_)) {
            let small = Spec {
                sessions: 4,
                epochs: 2,
                batch: 20,
                pool: 20,
                ..spec
            };
            let probe = Script::Serve(serve_script(&world, &small, opts.seed));
            let pass = one_pass(
                &world,
                &probe,
                &tracer,
                Checks::Full,
                PROBE_BASE + (2 << 20),
            );
            violations.extend(pass.violations.iter().cloned());
            serve_probe = Some(pass);
        }
    }
    tracer.set_census(false);

    // measured window
    let window = Duration::from_secs_f64(opts.seconds);
    let begin = Instant::now();
    let (mut untraced, mut traced) = (Timeline::default(), Timeline::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut loads, mut boots, mut cold_spent) = (Vec::new(), Vec::new(), Duration::ZERO);
    let mut cache = reference.cache;
    let mut rejected = reference.rejected;
    let mut traced_requests = 0u32;
    let mut peak_rss_mb = f64::NAN;
    loop {
        for _ in 0..COLD_STARTS_PER_PASS {
            if cold_spent.as_secs_f64() > begin.elapsed().as_secs_f64() * COLD_START_SHARE {
                break;
            }
            let probe = Instant::now();
            let (load, boot) = world.cold_start(&tracer)?;
            loads.push(load);
            boots.push(boot);
            cold_spent += probe.elapsed();
        }
        // a traced run alternates untraced and traced passes
        let with_trace = opts.trace && untraced.passes() > traced.passes();
        let checks = if untraced.passes() + traced.passes() == 0 {
            Checks::Digest
        } else {
            Checks::Light
        };
        let pass = if with_trace {
            let pass = one_pass(&world, &script, &tracer, checks, traced_requests);
            traced_requests += requests as u32;
            traced.observe(&pass);
            pass
        } else {
            let pass = one_pass(&world, &script, &off, checks, 0);
            untraced.observe(&pass);
            pass
        };
        compare(&reference, &pass, checks, &mut violations);
        attempted += pass.requests.len() as u64;
        failed += pass.failures() as u64;
        cache = (
            cache.0 + pass.cache.0,
            cache.1 + pass.cache.1,
            cache.2 + pass.cache.2,
        );
        rejected += pass.rejected;
        if peak_rss_mb.is_nan() && untraced.passes() == RSS_AFTER_PASSES {
            peak_rss_mb = peak_rss_mib();
        }
        let enough = untraced.passes() >= RSS_AFTER_PASSES && (!opts.trace || traced.passes() >= 2);
        if begin.elapsed() >= window && enough {
            break;
        }
    }
    let measured = begin.elapsed();
    let _ = std::fs::remove_file(&snapshot);

    let mut digest = Fnv::default();
    reference
        .requests
        .iter()
        .for_each(|r| digest.write_u64(r.digest));
    let latencies = untraced.latencies_ms();
    let kernels = untraced.kernels_ns();
    let mut facts: Vec<(String, String)> = vec![
        ("workload".into(), name.into()),
        ("seed".into(), opts.seed.to_string()),
        (
            "dataset".into(),
            format!(
                "{} {} observations, {} triples",
                spec.dataset, spec.observations, world.facts.triples
            ),
        ),
        ("requests_per_pass".into(), requests.to_string()),
        (
            "passes".into(),
            format!(
                "{} untraced, {} traced in {:.1} s",
                untraced.passes(),
                traced.passes(),
                measured.as_secs_f64()
            ),
        ),
        (
            "latency_samples".into(),
            format!(
                "{} request slots, {} beyond p95",
                latencies.len(),
                samples_beyond(latencies.len(), 95.0)
            ),
        ),
        ("cold_starts".into(), loads.len().to_string()),
        (
            "kernel_us".into(),
            format!(
                "{:.1} fastest, {:.1} median, {:.1} reference",
                kernels.first().copied().unwrap_or(f64::NAN) / 1e3,
                percentile(&kernels, 50.0) / 1e3,
                REFERENCE_KERNEL_NS as f64 / 1e3
            ),
        ),
        ("dead_ends".into(), reference.dead_ends().to_string()),
        (
            "failures".into(),
            format!("{failed} of {attempted} attempted"),
        ),
        ("script_digest".into(), format!("{:016x}", script.digest())),
        ("result_digest".into(), format!("{:016x}", digest.0)),
        (
            "cube.bootstrap.queries".into(),
            world.facts.bootstrap_queries.to_string(),
        ),
        (
            "sparql.eval.selects_per_request".into(),
            format!("{:.4}", reference.eval.0 as f64 / requests as f64),
        ),
        (
            "sparql.eval.rows_per_select".into(),
            format!(
                "{:.4}",
                reference.eval.2 as f64 / reference.eval.0.max(1) as f64
            ),
        ),
    ];
    if untraced.write.contains(&true) {
        let share = untraced.pass_ms(true).0 / untraced.pass_ms(false).0;
        facts.push(("write_side_share_of_wall".into(), format!("{share:.4}")));
    }
    for v in &violations {
        facts.push(("violation".into(), v.clone()));
    }

    let metrics = if opts.trace {
        let (parse_us, print_us) = parse_probe(&tracer.census());
        let spans = tracer.spans();
        std::fs::create_dir_all(&opts.dir)
            .map_err(|e| format!("create {}: {e}", opts.dir.display()))?;
        let path = opts.dir.join(format!("trace_{name}.jsonl"));
        std::fs::write(&path, render_jsonl(&spans, opts.seed, TRACE_CAP_BYTES))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        facts.push((
            "trace_file".into(),
            format!("{} ({} spans recorded)", path.display(), spans.len()),
        ));
        layer_metrics(&LayerInputs {
            spans: &spans,
            world: &world,
            requests,
            reference: &reference,
            session_view: session_probe.as_ref().unwrap_or(&reference),
            serve_view: serve_probe.as_ref().unwrap_or(&reference),
            serve_is_main: serve_probe.is_none(),
            cache,
            rejected,
            untraced: &untraced,
            traced: &traced,
            parse_us,
            print_us,
        })
    } else {
        let mut setup_s: Vec<f64> = setups
            .iter()
            .map(|stages| stages.iter().map(Sample::wall_ms).sum::<f64>() / 1e3)
            .collect();
        let (wall_ms, cpu_ms) = untraced.pass_ms(false);
        vec![
            Metric::new("setup_s", median_of(&mut setup_s), "s"),
            Metric::new(
                "cold_start_ms",
                estimate_ms(&loads, Sample::wall_ms) + estimate_ms(&boots, Sample::wall_ms),
                "ms",
            ),
            Metric::new("requests_per_s", requests as f64 / (wall_ms / 1e3), "1/s"),
            Metric::new("request_ms_p50", percentile(&latencies, 50.0), "ms"),
            Metric::new("request_ms_p95", percentile(&latencies, 95.0), "ms"),
            Metric::new("cpu_ms_per_request", cpu_ms / requests as f64, "ms"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    // a dead end is part of the script; anything else unanswered is a failure
    let unanswered = reference
        .requests
        .iter()
        .filter(|r| r.outcome == Outcome::Failed)
        .count();
    Ok(Report {
        correct: violations.is_empty() && unanswered == 0 && failed == 0,
        attempted,
        failed,
        metrics,
        facts,
    })
}
