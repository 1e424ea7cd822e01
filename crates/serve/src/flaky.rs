//! Seeded fault injection at the endpoint seam.
//!
//! [`FlakyEndpoint`] decorates any endpoint with deterministic,
//! seed-driven failures and latency spikes: each `SELECT`/`ASK` call draws
//! from a SplitMix64 stream keyed by `(seed, call index)`, so a given seed
//! always faults the same calls — the fault-injection suites replay
//! byte-identical fault schedules while still exercising "random" arrival
//! patterns. Injected failures surface as the typed
//! [`SparqlError::Endpoint`] variant, which the session layer propagates
//! without panicking, letting the concurrency tests prove one tenant's
//! faults cannot stall or corrupt another's session.

use re2x_rdf::{Graph, TermId};
use re2x_sparql::{EndpointStats, Query, Solutions, SparqlEndpoint, SparqlError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// SplitMix64 step — the same generator the datagen crate seeds xoshiro
/// with, reused here so fault schedules are stable across platforms.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A decorator injecting seeded failures and latency spikes into the
/// `SELECT`/`ASK` traffic of the wrapped endpoint.
pub struct FlakyEndpoint<E> {
    inner: E,
    seed: u64,
    fail_one_in: u64,
    spike_one_in: u64,
    spike: Duration,
    calls: AtomicU64,
    injected: AtomicU64,
}

impl<E: SparqlEndpoint> FlakyEndpoint<E> {
    /// Wraps `inner` with a fault schedule derived from `seed`. Roughly
    /// one in `fail_one_in` queries fails and one in `spike_one_in` sleeps
    /// for `spike` before answering; `0` disables either kind.
    pub fn new(
        inner: E,
        seed: u64,
        fail_one_in: u64,
        spike_one_in: u64,
        spike: Duration,
    ) -> FlakyEndpoint<E> {
        FlakyEndpoint {
            inner,
            seed,
            fail_one_in,
            spike_one_in,
            spike,
            calls: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// A failures-only schedule: one in `fail_one_in` queries errors.
    pub fn failing(inner: E, seed: u64, fail_one_in: u64) -> FlakyEndpoint<E> {
        FlakyEndpoint::new(inner, seed, fail_one_in, 0, Duration::ZERO)
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Queries that were answered with an injected failure so far.
    pub fn injected_failures(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Draws the schedule for the next call: sleeps through a scheduled
    /// spike, then reports whether the call must fail.
    fn roll(&self) -> Result<(), SparqlError> {
        let n = self.calls.fetch_add(1, Ordering::SeqCst);
        let draw = splitmix64(self.seed ^ splitmix64(n));
        if self.spike_one_in > 0 && draw.is_multiple_of(self.spike_one_in) && !self.spike.is_zero()
        {
            std::thread::sleep(self.spike);
        }
        let draw = splitmix64(draw);
        if self.fail_one_in > 0 && draw.is_multiple_of(self.fail_one_in) {
            let k = self.injected.fetch_add(1, Ordering::SeqCst) + 1;
            return Err(SparqlError::Endpoint(format!(
                "injected fault #{k} (call {n}, seed {})",
                self.seed
            )));
        }
        Ok(())
    }
}

impl<E: SparqlEndpoint> SparqlEndpoint for FlakyEndpoint<E> {
    fn select(&self, query: &Query) -> Result<Solutions, SparqlError> {
        self.roll()?;
        self.inner.select(query)
    }

    fn ask(&self, query: &Query) -> Result<bool, SparqlError> {
        self.roll()?;
        self.inner.ask(query)
    }

    fn keyword_search(&self, keyword: &str, exact: bool) -> Vec<TermId> {
        self.inner.keyword_search(keyword, exact)
    }

    fn graph(&self) -> &Graph {
        self.inner.graph()
    }

    fn stats(&self) -> EndpointStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use re2x_rdf::io::parse_turtle;
    use re2x_sparql::LocalEndpoint;

    fn endpoint() -> LocalEndpoint {
        let mut g = Graph::new();
        parse_turtle(
            "@prefix ex: <http://ex/> . ex:o1 ex:dest ex:Germany .",
            &mut g,
        )
        .expect("parse");
        LocalEndpoint::new(g)
    }

    fn run_schedule(seed: u64) -> Vec<bool> {
        let flaky = FlakyEndpoint::failing(endpoint(), seed, 3);
        (0..32)
            .map(|_| {
                flaky
                    .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                    .is_err()
            })
            .collect()
    }

    #[test]
    fn fault_schedule_is_a_pure_function_of_the_seed() {
        let a = run_schedule(7);
        let b = run_schedule(7);
        let c = run_schedule(8);
        assert_eq!(a, b);
        assert_ne!(a, c, "different seeds should fault different calls");
        let failures = a.iter().filter(|f| **f).count();
        assert!(failures > 0, "a 1-in-3 schedule over 32 calls must fault");
        assert!(failures < 32, "and must not fault everything");
    }

    #[test]
    fn injected_failures_are_typed_endpoint_errors() {
        let flaky = FlakyEndpoint::failing(endpoint(), 7, 1); // every call fails
        let err = flaky
            .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
            .expect_err("must fail");
        assert!(matches!(err, SparqlError::Endpoint(_)));
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(flaky.injected_failures(), 1);
        // the inner endpoint never saw the failed call
        assert_eq!(flaky.inner().stats().selects, 0);
    }

    #[test]
    fn disabled_schedules_pass_everything_through() {
        let flaky = FlakyEndpoint::new(endpoint(), 7, 0, 0, Duration::ZERO);
        for _ in 0..8 {
            flaky
                .select_text("SELECT ?d WHERE { ?o <http://ex/dest> ?d }")
                .expect("no faults configured");
        }
        assert_eq!(flaky.injected_failures(), 0);
        assert_eq!(flaky.inner().stats().selects, 8);
    }
}
