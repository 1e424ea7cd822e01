//! Differential test: the schema bootstrap crawl over a [`ShardedEndpoint`]
//! must discover exactly the schema it discovers over a [`LocalEndpoint`] on
//! the same graph — the crawl's query mix (schema probes, DISTINCT member
//! enumeration, keyword lookups) exercises both the scatter and the replica
//! path of the sharded decorator.

use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_sparql::{LocalEndpoint, ShardedEndpoint};

fn assert_sharded_matches_local(dataset: re2x_datagen::Dataset, shards: usize) {
    let config = BootstrapConfig::new(dataset.observation_class.clone());
    let local = LocalEndpoint::new(dataset.graph.clone());
    let sharded =
        ShardedEndpoint::with_observation_class(dataset.graph, &dataset.observation_class, shards);

    let reference = bootstrap(&local, &config).expect("local bootstrap");
    let over_shards = bootstrap(&sharded, &config).expect("sharded bootstrap");

    assert_eq!(
        over_shards.schema, reference.schema,
        "sharded bootstrap diverges from local for {} at {shards} shards",
        dataset.name
    );
    assert_eq!(
        over_shards.endpoint_queries, reference.endpoint_queries,
        "sharded crawl issued a different number of queries for {}",
        dataset.name
    );
    // Sanity: the discovered shape is the one the generator committed to.
    assert_eq!(
        reference.schema.dimensions().len(),
        dataset.expected.dimensions
    );
    assert_eq!(reference.schema.measures().len(), dataset.expected.measures);
}

#[test]
fn running_example_bootstrap_identical_across_shard_counts() {
    for shards in [1, 2, 4, 8] {
        assert_sharded_matches_local(re2x_datagen::running::generate(), shards);
    }
}

#[test]
fn eurostat_bootstrap_identical_over_shards() {
    assert_sharded_matches_local(re2x_datagen::eurostat::generate(500, 7), 4);
}

#[test]
fn production_bootstrap_identical_over_shards() {
    assert_sharded_matches_local(re2x_datagen::production::generate(400, 11), 4);
}
