//! The `sharding` experiment: scatter-gather speedup of the
//! [`ShardedEndpoint`] over hash-partitioned shards with injected remote
//! latency (`bench_results/sharding.json`).
//!
//! Each shard stands in for a remote SPARQL endpoint: every sub-query pays
//! a fixed round-trip latency plus a per-result-row transfer cost. With the
//! fact triples hash-partitioned, each shard returns only its share of the
//! rows, and the scatter overlaps the shards' round-trip + transfer time —
//! so wall time shrinks with the shard count even though the total work is
//! unchanged (this parallelizes *waiting*, so it holds on any core count).
//!
//! Every configuration is differentially checked against a latency-free
//! [`LocalEndpoint`] on the unpartitioned graph (the `identical` flag), the
//! per-shard load skew of the partitioning is reported, and the per-shard
//! `shard_busy` metrics are verified to surface in the Prometheus
//! exposition.

use crate::report::{fmt_duration, Table};
use re2x_obs::{prometheus_exposition, Metrics};
use re2x_sparql::{
    parse_query, reference_solutions, LocalEndpoint, Query, Route, ShardedEndpoint, SparqlEndpoint,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard counts swept by the experiment.
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One swept configuration.
pub struct ShardingRow {
    /// Number of shards.
    pub shards: usize,
    /// Wall time for the whole workload.
    pub wall: Duration,
    /// Wall time of the 1-shard configuration over this one.
    pub speedup: f64,
    /// Fact-partitioning load skew (max shard / mean, 1.0 = balanced).
    pub skew: f64,
    /// Largest per-shard share of the scattered result rows (max shard /
    /// mean over row counts) — the runtime analogue of `skew`.
    pub row_skew: f64,
    /// All workload results byte-identical to the latency-free local
    /// reference.
    pub identical: bool,
    /// Queries routed through scatter-gather (the rest used the replica).
    pub scattered: u64,
}

/// Report of the sharding sweep.
pub struct ShardingReport {
    /// Injected per-query round-trip latency.
    pub injected: Duration,
    /// Injected per-result-row transfer latency.
    pub per_row: Duration,
    /// Observation count of the generated dataset.
    pub observations: usize,
    /// Number of workload queries.
    pub queries: usize,
    /// One row per swept shard count.
    pub rows: Vec<ShardingRow>,
    /// `shard_busy{shard="…"}` gauges were present in the Prometheus
    /// exposition after the sweep.
    pub shard_busy_exposed: bool,
}

impl ShardingReport {
    /// The speedup at a given shard count (0.0 if that count wasn't swept).
    pub fn speedup_at(&self, shards: usize) -> f64 {
        self.rows
            .iter()
            .find(|r| r.shards == shards)
            .map_or(0.0, |r| r.speedup)
    }

    /// All configurations produced reference-identical results.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Machine-readable report (`bench_results/sharding.json`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"injected_latency_us\": {},",
            self.injected.as_micros()
        );
        let _ = writeln!(out, "  \"row_latency_ns\": {},", self.per_row.as_nanos());
        let _ = writeln!(out, "  \"observations\": {},", self.observations);
        let _ = writeln!(out, "  \"queries\": {},", self.queries);
        let _ = writeln!(out, "  \"all_identical\": {},", self.all_identical());
        let _ = writeln!(
            out,
            "  \"shard_busy_exposed\": {},",
            self.shard_busy_exposed
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"shards\": {}, \"wall_us\": {}, \"speedup\": {:.2}, \
                 \"skew\": {:.3}, \"row_skew\": {:.3}, \"identical\": {}, \
                 \"scattered\": {}}}{comma}",
                row.shards,
                row.wall.as_micros(),
                row.speedup,
                row.skew,
                row.row_skew,
                row.identical,
                row.scattered,
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Human-readable summary table.
    pub fn summary(&self) -> String {
        let mut table = Table::new(["shards", "wall", "speedup", "skew", "row skew", "identical"]);
        for row in &self.rows {
            table.row([
                row.shards.to_string(),
                fmt_duration(row.wall),
                format!("{:.2}x", row.speedup),
                format!("{:.3}", row.skew),
                format!("{:.3}", row.row_skew),
                row.identical.to_string(),
            ]);
        }
        let mut out = table.render();
        let _ = writeln!(
            out,
            "\n{} workload queries, {} µs round-trip + {} ns/row injected per shard; \
             shard_busy in exposition: {}",
            self.queries,
            self.injected.as_micros(),
            self.per_row.as_nanos(),
            self.shard_busy_exposed,
        );
        out
    }
}

/// The scatter-heavy workload: mostly row-heavy shapes (fine-grained
/// grouping, full scans) where the per-row transfer cost dominates and
/// partitioning genuinely divides it, plus the coarse aggregates of the
/// figure experiments.
fn workload(dataset: &re2x_datagen::common::Dataset) -> Vec<Query> {
    let ns = {
        let dim = &dataset.dimension_predicates[0];
        dim[..dim.rfind('/').expect("namespace") + 1].to_owned()
    };
    let measure = format!("{ns}numApplicants");
    let dim0 = &dataset.dimension_predicates[0];
    let dim1 = &dataset.dimension_predicates[1];
    let rollup = &dataset.rollup_predicates[0];
    [
        // One group per observation: the gather receives ~observations rows.
        format!("SELECT ?o (SUM(?m) AS ?total) WHERE {{ ?o <{measure}> ?m }} GROUP BY ?o"),
        // Full fact scan with two dimensions bound.
        format!("SELECT ?o ?a ?b WHERE {{ ?o <{dim0}> ?a . ?o <{dim1}> ?b }}"),
        // Fine-grained two-dimensional cube slice.
        format!(
            "SELECT ?a ?b (SUM(?m) AS ?total) (COUNT(?o) AS ?n) WHERE {{
                ?o <{dim0}> ?a . ?o <{dim1}> ?b . ?o <{measure}> ?m
             }} GROUP BY ?a ?b"
        ),
        // Coarse aggregates (cheap on transfer; dominated by round-trip).
        format!(
            "SELECT ?a (AVG(?m) AS ?mean) WHERE {{ ?o <{dim0}> ?a . ?o <{measure}> ?m }}
             GROUP BY ?a ORDER BY DESC(?mean) ?a"
        ),
        format!(
            "SELECT ?up (SUM(?m) AS ?total) WHERE {{
                ?o <{dim0}> / <{rollup}> ?up . ?o <{measure}> ?m
             }} GROUP BY ?up ORDER BY ?up"
        ),
        format!("SELECT ?o ?m WHERE {{ ?o <{measure}> ?m }} ORDER BY DESC(?m) ?o LIMIT 50"),
        format!("SELECT DISTINCT ?a WHERE {{ ?o <{dim0}> ?a }} ORDER BY ?a"),
    ]
    .into_iter()
    .map(|text| parse_query(&text).expect("workload query parses"))
    .collect()
}

/// Runs the sweep on a eurostat-shaped dataset of `observations` facts with
/// `injected` round-trip and `per_row` transfer latency per shard query.
pub fn run_with(
    observations: usize,
    seed: u64,
    injected: Duration,
    per_row: Duration,
) -> ShardingReport {
    let dataset = re2x_datagen::eurostat::generate(observations, seed);
    let queries = workload(&dataset);
    // Latency-free local endpoint: the correctness reference.
    let reference = LocalEndpoint::new(dataset.graph.clone());

    let mut rows: Vec<ShardingRow> = Vec::new();
    let mut shard_busy_exposed = true;
    for &n in &SHARD_COUNTS {
        let metrics = Arc::new(Metrics::new());
        let endpoint = ShardedEndpoint::with_observation_class(
            dataset.graph.clone(),
            &dataset.observation_class,
            n,
        )
        .with_latency(injected)
        .with_row_latency(per_row)
        .with_metrics(Arc::clone(&metrics));
        let skew = endpoint.layout().skew();

        let mut identical = true;
        let start = Instant::now();
        let results: Vec<_> = queries
            .iter()
            .map(|q| endpoint.select(q).expect("workload query evaluates"))
            .collect();
        let wall = start.elapsed();
        // Differential check outside the timed region.
        for (query, got) in queries.iter().zip(&results) {
            let want = match endpoint.route(query) {
                Route::Scatter => reference_solutions(&reference, query),
                Route::Replica => reference.select(query),
            }
            .expect("reference evaluates");
            identical &= *got == want;
        }
        let row_counts: Vec<u64> = (0..n)
            .map(|i| endpoint.shard_stats(i).rows_returned)
            .collect();
        let total_rows: u64 = row_counts.iter().sum();
        let row_skew = if total_rows == 0 {
            1.0
        } else {
            let mean = total_rows as f64 / n as f64;
            *row_counts.iter().max().expect("non-empty") as f64 / mean
        };
        let exposition = prometheus_exposition(&metrics.snapshot(), &[]);
        shard_busy_exposed &=
            (0..n).all(|i| exposition.contains(&format!("shard_busy{{shard=\"{i}\"}}")));

        rows.push(ShardingRow {
            shards: n,
            wall,
            speedup: 0.0,
            skew,
            row_skew,
            identical,
            scattered: endpoint.scatter_count(),
        });
    }
    let baseline = rows[0].wall;
    for row in &mut rows {
        row.speedup = if row.wall.is_zero() {
            0.0
        } else {
            baseline.as_secs_f64() / row.wall.as_secs_f64()
        };
    }
    ShardingReport {
        injected,
        per_row,
        observations,
        queries: queries.len(),
        rows,
        shard_busy_exposed,
    }
}

/// The headline configuration: 2 ms round-trip + 5 µs/row, eurostat facts.
pub fn run(observations: usize, seed: u64) -> ShardingReport {
    run_with(
        observations,
        seed,
        Duration::from_millis(2),
        Duration::from_micros(5),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_identical_and_speeds_up() {
        // Elevated per-row latency so the injected waiting — the thing
        // partitioning divides — dominates evaluation compute even in
        // unoptimized debug builds on a single core.
        let report = run_with(
            1_000,
            7,
            Duration::from_millis(1),
            Duration::from_micros(100),
        );
        assert!(report.all_identical());
        assert!(report.shard_busy_exposed);
        assert_eq!(report.rows.len(), SHARD_COUNTS.len());
        assert!(
            report.speedup_at(4) > 1.2,
            "4-shard speedup {:.2}",
            report.speedup_at(4)
        );
        let json = report.to_json();
        assert!(json.contains("\"all_identical\": true"));
        assert!(json.contains("\"shards\": 8"));
    }
}
