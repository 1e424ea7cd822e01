//! Figure 6c: system-bootstrap (Virtual Schema Graph construction) time
//! per dataset. The paper attributes bootstrap cost to schema complexity
//! and endpoint speed, not to observation count — the two Eurostat scales
//! benched here demonstrate the latter dependence is sub-linear.

use re2x_bench::micro::Group;
use re2x_cube::{bootstrap, BootstrapConfig};
use re2x_sparql::LocalEndpoint;

fn main() {
    let group = Group::new("fig6c_bootstrap");

    let cases: Vec<(&str, re2x_datagen::Dataset)> = vec![
        ("eurostat_2k", re2x_datagen::eurostat::generate(2_000, 42)),
        ("eurostat_8k", re2x_datagen::eurostat::generate(8_000, 42)),
        (
            "production_2k",
            re2x_datagen::production::generate(2_000, 42),
        ),
        ("dbpedia_2k", re2x_datagen::dbpedia::generate(2_000, 42)),
    ];
    for (name, mut dataset) in cases {
        let class = dataset.observation_class.clone();
        let endpoint = LocalEndpoint::new(std::mem::take(&mut dataset.graph));
        let config = BootstrapConfig::new(class);
        group.bench(name, || bootstrap(&endpoint, &config).expect("bootstrap"));
    }
}
