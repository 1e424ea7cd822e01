//! Per-layer metrics of a traced run, computed from the benchmark's own
//! spans and from counters the layers return.
//!
//! Time shares (`*_time_share`) are taken over the timed traced passes
//! only; distributions (`*_p50`, `*_p95`) over every span of that name,
//! probes included, so a layer the workload's own requests never reach
//! still reports what one call costs on this dataset.

use crate::calib::REFERENCE_KERNEL_NS;
use crate::drive::PassResult;
use crate::report::Metric;
use crate::run::{Timeline, PROBE_BASE};
use crate::serve::WORKERS;
use crate::stats::percentile_of;
use crate::trace::{self_times, Span, NONE};
use crate::workload::World;
use std::collections::HashMap;

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Every span of the run.
    pub spans: &'a [Span],
    /// The world (set-up facts, schema).
    pub world: &'a World,
    /// Requests per pass of the main script.
    pub requests: usize,
    /// The fully checked pass of the main script.
    pub reference: &'a PassResult,
    /// The fully checked pass that drove `Session`s directly: the
    /// reference pass, or the session probe on `serve_live`.
    pub session_view: &'a PassResult,
    /// The fully checked pass that went through the server: the reference
    /// pass on `serve_live`, the serve probe elsewhere.
    pub serve_view: &'a PassResult,
    /// `true` when `serve_view` is the main script.
    pub serve_is_main: bool,
    /// Cache hits, misses, evictions over every pass of the main script
    /// (`serve_live`); elsewhere the probe's are used.
    pub cache: (u64, u64, u64),
    /// Sessions refused over every pass of the main script.
    pub rejected: u64,
    /// The untraced passes.
    pub untraced: &'a Timeline,
    /// The traced passes.
    pub traced: &'a Timeline,
    /// `parse_query` times, µs.
    pub parse_us: Vec<f64>,
    /// `query_to_sparql` times, µs.
    pub print_us: Vec<f64>,
}

/// What the spans sharing one name add up to.
#[derive(Default)]
struct Layer {
    /// Duration of every span, ns.
    durations: Vec<f64>,
    /// Sum of the spans' row counts.
    rows: f64,
    /// Duration of the spans of timed traced passes, ns.
    main_ns: f64,
    /// Self time of the spans of timed traced passes, ns.
    main_self_ns: f64,
}

impl Layer {
    fn count(&self) -> f64 {
        self.durations.len() as f64
    }

    fn total_ns(&self) -> f64 {
        self.durations.iter().sum()
    }

    /// `p`-th percentile of the durations, in units of `unit_ns`.
    fn pct(&self, p: f64, unit_ns: f64) -> f64 {
        pct(self.durations.iter().map(|ns| ns / unit_ns).collect(), p)
    }
}

/// Percentile of the values, or NaN when there are none.
fn pct(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        f64::NAN
    } else {
        percentile_of(&mut values, p)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        f64::NAN
    }
}

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Computes every per-layer metric listed in `BENCHMARK.json`.
pub fn layer_metrics(x: &LayerInputs<'_>) -> Vec<Metric> {
    let spans = x.spans;
    let facts = &x.world.facts;
    let selfs = self_times(spans);
    let mut layers: HashMap<&str, Layer> = HashMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let layer = layers.entry(s.name).or_default();
        layer.durations.push(s.duration_ns() as f64);
        layer.rows += s.rows as f64;
        if s.request < PROBE_BASE {
            layer.main_ns += s.duration_ns() as f64;
            layer.main_self_ns += self_ns as f64;
        }
    }
    let empty = Layer::default();
    let layer = |name: &str| layers.get(name).unwrap_or(&empty);
    let request_ns = layer("request").main_ns;
    let refine_names = [
        "session.refine.dis",
        "session.refine.topk",
        "session.refine.perc",
        "session.refine.sim",
    ];

    // cache: a cache-level span with an endpoint child was a miss
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut miss_child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name.starts_with("endpoint.") && s.parent != NONE)
    {
        if by_id
            .get(&s.parent)
            .is_some_and(|p| p.name.starts_with("cache."))
        {
            *miss_child_ns.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    let (mut hit_us, mut miss_overhead_us) = (Vec::new(), Vec::new());
    for s in spans.iter().filter(|s| s.name.starts_with("cache.")) {
        match miss_child_ns.get(&s.id) {
            Some(&child) => {
                miss_overhead_us.push(s.duration_ns().saturating_sub(child) as f64 / US)
            }
            None => hit_us.push(s.duration_ns() as f64 / US),
        }
    }
    let cache = if x.serve_is_main {
        x.cache
    } else {
        x.serve_view.cache
    };
    let rejected = if x.serve_is_main {
        x.rejected
    } else {
        x.serve_view.rejected
    };

    // synthesis waste: validations tried per accepted candidate
    let asks_in_synthesis = spans
        .iter()
        .filter(|s| s.name == "endpoint.ask" && s.parent != NONE)
        .filter(|s| {
            by_id
                .get(&s.parent)
                .is_some_and(|p| p.name == "session.synthesize")
        })
        .count() as f64;

    // server: latency of a session minus the serial time of its script
    let serve = x.serve_view;
    let queue_overhead_ms: Vec<f64> = serve
        .requests
        .iter()
        .zip(&serve.serial_ns)
        .map(|(r, &serial)| (r.time.wall_ns as f64 - serial as f64) / MS)
        .collect();
    let read_wall: u64 = serve
        .segments
        .iter()
        .filter(|s| !s.write)
        .map(|s| s.time.wall_ns)
        .sum();
    let busy: u64 = serve.requests.iter().map(|r| r.time.wall_ns).sum();

    let session = x.session_view;
    // how the machine behaved: every kernel run next to an untraced segment
    let kernel_p50_ns = pct(x.untraced.kernels_ns(), 50.0);

    vec![
        Metric::new(
            "datagen.generate_s",
            facts.generate.wall_ns as f64 / 1e9,
            "s",
        ),
        Metric::new(
            "rdf.graph.bulk_insert_ktriples_per_s",
            facts.triples as f64 / 1e3 / (facts.generate.wall_ns as f64 / 1e9),
            "1/s",
        ),
        Metric::new(
            "rdf.graph.live_insert_ktriples_per_s",
            ratio(
                layer("graph.insert").rows / 1e3,
                layer("graph.insert").total_ns() / 1e9,
            ),
            "1/s",
        ),
        Metric::new("rdf.graph.thaw_ms", layer("graph.thaw").pct(50.0, MS), "ms"),
        Metric::new(
            "rdf.graph.clone_ms_p50",
            layer("graph.clone").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "rdf.graph.heap_mb",
            facts.heap_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        Metric::new(
            "rdf.snapshot.write_ms",
            facts.write.wall_ns as f64 / MS,
            "ms",
        ),
        Metric::new(
            "rdf.snapshot.load_ms_p50",
            layer("snapshot.load").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "rdf.snapshot.bytes_per_triple",
            facts.snapshot_bytes as f64 / facts.triples as f64,
            "B",
        ),
        Metric::new(
            "rdf.text.keyword_search_us_p50",
            layer("endpoint.keyword_search").pct(50.0, US),
            "us",
        ),
        Metric::new(
            "rdf.text.hits_per_search",
            ratio(
                layer("endpoint.keyword_search").rows,
                layer("endpoint.keyword_search").count(),
            ),
            "count",
        ),
        Metric::new(
            "cube.bootstrap.ms_p50",
            layer("cube.bootstrap").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "cube.bootstrap.queries",
            facts.bootstrap_queries as f64,
            "count",
        ),
        Metric::new(
            "cube.refresh.ms_p50",
            layer("cube.refresh").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "cube.refresh.queries",
            ratio(layer("cube.refresh").rows, layer("cube.refresh").count()),
            "count",
        ),
        Metric::new(
            "cube.vgraph.heap_kb",
            x.world.schema.heap_bytes() as f64 / 1024.0,
            "KiB",
        ),
        Metric::new(
            "sparql.parser.parse_us_p50",
            pct(x.parse_us.clone(), 50.0),
            "us",
        ),
        Metric::new(
            "sparql.pretty.to_sparql_us_p50",
            pct(x.print_us.clone(), 50.0),
            "us",
        ),
        Metric::new(
            "sparql.eval.select_ms_p50",
            layer("endpoint.select").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "sparql.eval.select_ms_p95",
            layer("endpoint.select").pct(95.0, MS),
            "ms",
        ),
        Metric::new(
            "sparql.eval.selects_per_request",
            x.reference.eval.0 as f64 / x.requests as f64,
            "count",
        ),
        Metric::new(
            "sparql.eval.rows_per_select",
            ratio(x.reference.eval.2 as f64, x.reference.eval.0 as f64),
            "count",
        ),
        Metric::new(
            "sparql.eval.select_time_share",
            ratio(layer("endpoint.select").main_ns, request_ns),
            "share",
        ),
        Metric::new(
            "sparql.eval.ask_us_p50",
            layer("endpoint.ask").pct(50.0, US),
            "us",
        ),
        Metric::new(
            "sparql.eval.asks_per_request",
            x.reference.eval.1 as f64 / x.requests as f64,
            "count",
        ),
        Metric::new(
            "sparql.eval.ask_time_share",
            ratio(layer("endpoint.ask").main_ns, request_ns),
            "share",
        ),
        Metric::new(
            "sparql.caching.hit_ratio",
            ratio(cache.0 as f64, (cache.0 + cache.1) as f64),
            "share",
        ),
        Metric::new("sparql.caching.evictions", cache.2 as f64, "count"),
        Metric::new("sparql.caching.hit_us_p50", pct(hit_us, 50.0), "us"),
        Metric::new(
            "sparql.caching.miss_overhead_us_p50",
            pct(miss_overhead_us, 50.0),
            "us",
        ),
        Metric::new(
            "core.reolap.synthesize_ms_p50",
            layer("session.synthesize").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "core.reolap.synthesize_ms_p95",
            layer("session.synthesize").pct(95.0, MS),
            "ms",
        ),
        Metric::new(
            "core.reolap.candidates_per_call",
            ratio(
                layer("session.synthesize").rows,
                layer("session.synthesize").count(),
            ),
            "count",
        ),
        Metric::new(
            "core.reolap.asks_per_candidate",
            ratio(asks_in_synthesis, layer("session.synthesize").rows),
            "count",
        ),
        Metric::new(
            "core.session.execute_ms_p50",
            layer("session.execute").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "core.session.execute_ms_p95",
            layer("session.execute").pct(95.0, MS),
            "ms",
        ),
        Metric::new(
            "core.session.self_time_share",
            ratio(
                layer("request").main_self_ns + layer("session.execute").main_self_ns,
                request_ns,
            ),
            "share",
        ),
        Metric::new(
            "core.session.dead_end_share",
            ratio(session.dead_ends() as f64, session.requests.len() as f64),
            "share",
        ),
        Metric::new(
            "core.refine.disaggregate_ms_p50",
            layer(refine_names[0]).pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "core.refine.topk_ms_p50",
            layer(refine_names[1]).pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "core.refine.percentile_ms_p50",
            layer(refine_names[2]).pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "core.refine.similarity_ms_p50",
            layer(refine_names[3]).pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "core.refine.similarity_ms_p95",
            layer(refine_names[3]).pct(95.0, MS),
            "ms",
        ),
        Metric::new(
            "core.refine.offers_per_call",
            ratio(
                refine_names.iter().map(|n| layer(n).rows).sum(),
                refine_names.iter().map(|n| layer(n).count()).sum(),
            ),
            "count",
        ),
        Metric::new(
            "core.refine.time_share",
            ratio(
                refine_names.iter().map(|n| layer(n).main_ns).sum(),
                request_ns,
            ),
            "share",
        ),
        Metric::new(
            "serve.server.start_ms_p50",
            layer("server.start").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "serve.server.shutdown_ms_p50",
            layer("server.shutdown").pct(50.0, MS),
            "ms",
        ),
        Metric::new(
            "serve.server.queue_overhead_ms_p50",
            pct(queue_overhead_ms, 50.0),
            "ms",
        ),
        Metric::new(
            "serve.server.worker_busy_share",
            ratio(busy as f64, (WORKERS as u64 * read_wall) as f64).min(1.0),
            "share",
        ),
        Metric::new("serve.server.rejected", rejected as f64, "count"),
        Metric::new(
            "bench.trace_overhead_share",
            1.0 - x.traced.requests_per_s() / x.untraced.requests_per_s(),
            "share",
        ),
        Metric::new("bench.calibration_ms_p50", kernel_p50_ns / MS, "ms"),
        Metric::new(
            "bench.passes",
            (x.untraced.passes() + x.traced.passes()) as f64,
            "count",
        ),
        Metric::new(
            "bench.noise_share",
            1.0 - REFERENCE_KERNEL_NS as f64 / kernel_p50_ns,
            "share",
        ),
    ]
}
