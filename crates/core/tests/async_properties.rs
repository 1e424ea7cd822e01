//! Property suite: across randomized datasets, scales, pool widths, and
//! examples, the async fan-out paths (bootstrap crawl, refinement preview)
//! must be byte-identical to their serial equivalents. Per-case seeds come
//! from the testkit harness (`RE2X_TEST_SEED` / `RE2X_TEST_CASES` reproduce
//! a failure exactly).

use re2x_cube::{bootstrap, bootstrap_async, BootstrapConfig};
use re2x_sparql::LocalEndpoint;
use re2x_testkit::{check_n, TestRng};
use re2xolap::{reolap, RefineOp, ReolapConfig, Session, SessionConfig};

#[test]
fn async_pipeline_is_differentially_identical_to_serial() {
    // each case bootstraps a dataset twice; keep the budget small
    check_n("async_pipeline_differential", 6, |rng: &mut TestRng| {
        let data_seed = rng.next_u64();
        let observations = rng.gen_range(150usize..400);
        let workers = rng.gen_range(1usize..9);
        let (dataset, example): (re2x_datagen::Dataset, &[&str]) = match rng.gen_range(0usize..3) {
            0 => (
                re2x_datagen::eurostat::generate(observations, data_seed),
                &["Germany", "2014"],
            ),
            1 => (
                re2x_datagen::eurostat::generate(observations, data_seed),
                &["Sweden"],
            ),
            _ => (
                re2x_datagen::dbpedia::generate(observations, data_seed),
                &["2014"],
            ),
        };
        let endpoint = LocalEndpoint::new(dataset.graph);
        let config = BootstrapConfig::new(dataset.observation_class);

        // 1. bootstrap: identical Virtual Schema Graph
        let serial = bootstrap(&endpoint, &config).expect("serial bootstrap");
        let crawled = bootstrap_async(&endpoint, &config, workers).expect("async bootstrap");
        assert_eq!(
            crawled.schema, serial.schema,
            "async VSG diverged (seed {data_seed}, {observations} obs, {workers} workers)"
        );
        assert_eq!(crawled.endpoint_queries, serial.endpoint_queries);

        // 2. synthesis, to have a query to refine; sparse random datasets
        // may not contain the example at all
        let Ok(serial_outcome) =
            reolap(&endpoint, &serial.schema, example, &ReolapConfig::default())
        else {
            return;
        };

        // 3. refinement preview: identical result sets
        if serial_outcome.queries.is_empty() {
            return;
        }
        let mut session = Session::new(&endpoint, &serial.schema, SessionConfig::default());
        session
            .choose(serial_outcome.queries[0].clone())
            .expect("query runs");
        let op = *rng.pick(&[RefineOp::Disaggregate, RefineOp::TopK, RefineOp::Similarity]);
        let refinements = session.refinements(op).expect("refinements");
        if refinements.is_empty() {
            return;
        }
        let serial_previews = session.preview(&refinements, 0).expect("serial preview");
        let async_previews = session
            .preview(&refinements, workers)
            .expect("async preview");
        assert_eq!(
            async_previews, serial_previews,
            "preview result sets diverged (seed {data_seed}, {op:?}, {workers} workers)"
        );
    });
}
