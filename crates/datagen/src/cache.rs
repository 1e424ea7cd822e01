//! Persistent snapshot caching for generated datasets.
//!
//! Generating a paper-scale dataset (millions of observations) costs
//! minutes of RNG-driven graph construction; loading the same graph from a
//! dictionary-encoded snapshot is one sequential pass over the file, a
//! section at a time, with no string re-interning — it never holds the
//! whole file beside the graph, and neither does writing one.
//! [`load_or_generate`] makes that transparent: it loads a cached snapshot
//! when one exists and is valid for the exact (dataset, observations,
//! seed) triple, and otherwise regenerates the dataset and writes the
//! snapshot for next time.
//!
//! Cache artifacts are *never trusted blindly*: every file embeds the
//! [`snapshot_key`] of the dataset it holds, and a key mismatch (a stale
//! artifact from an older run, a renamed file, a different seed) causes
//! regeneration, not silent reuse. Corrupt or truncated files likewise
//! fall back to regeneration — the cache can only make runs faster, never
//! wrong.

use std::path::{Path, PathBuf};

use re2x_rdf::{Graph, RdfError};

use crate::common::Dataset;
use crate::{dbpedia, eurostat, production, running};

/// Why a cached snapshot could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMiss {
    /// No snapshot file exists at the cache path.
    Absent,
    /// A file exists but failed validation (truncated, corrupt, foreign
    /// format, unreadable); the message is the underlying error.
    Invalid(String),
    /// A structurally valid snapshot holds a different dataset than
    /// requested — a stale artifact that was regenerated, not trusted.
    Stale {
        /// The key this run required.
        expected: String,
        /// The key embedded in the file.
        found: String,
    },
}

/// How [`load_or_generate`] obtained the dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Loaded straight from a valid cached snapshot — no generation ran.
    Loaded,
    /// Generated from scratch. `miss` says why the cache did not serve;
    /// `wrote` whether a fresh snapshot was persisted for next time.
    Generated {
        /// Why the cached artifact (if any) was unusable.
        miss: CacheMiss,
        /// `true` if the regenerated snapshot was written back.
        wrote: bool,
    },
}

impl CacheOutcome {
    /// `true` when the dataset came from the cache.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Loaded)
    }
}

/// The identity a snapshot must be stamped with to serve the given
/// (dataset, observations, seed) request. Embedded in the file at write
/// time and required at load time.
pub fn snapshot_key(name: &str, observations: usize, seed: u64) -> String {
    format!("re2x/dataset/{name}/obs-{observations}/seed-{seed}")
}

/// Canonical cache location for a dataset snapshot below `dir`.
pub fn snapshot_path(dir: &Path, name: &str, observations: usize, seed: u64) -> PathBuf {
    dir.join(format!("{name}-obs{observations}-seed{seed}.snap"))
}

/// Runs the named generator. `None` for unknown names. The running
/// example has no free parameters, so `observations` and `seed` are
/// ignored for it.
pub fn generate_named(name: &str, observations: usize, seed: u64) -> Option<Dataset> {
    match name {
        "eurostat" => Some(eurostat::generate(observations, seed)),
        "production" => Some(production::generate(observations, seed)),
        "dbpedia" => Some(dbpedia::generate(observations, seed)),
        "running-example" | "running" => Some(running::generate()),
        _ => None,
    }
}

/// The named dataset's metadata with an empty graph — what a
/// snapshot-loaded graph is re-attached to. `None` for unknown names.
pub fn describe_named(name: &str, observations: usize) -> Option<Dataset> {
    match name {
        "eurostat" => Some(eurostat::describe(observations)),
        "production" => Some(production::describe(observations)),
        "dbpedia" => Some(dbpedia::describe(observations)),
        "running-example" | "running" => Some(running::describe()),
        _ => None,
    }
}

/// Loads the dataset from its cached snapshot under `dir`, or generates it
/// (writing the snapshot back for next time). Returns `None` only for an
/// unknown dataset name; cache problems of every kind degrade to
/// regeneration and are reported in the [`CacheOutcome`].
pub fn load_or_generate(
    dir: &Path,
    name: &str,
    observations: usize,
    seed: u64,
) -> Option<(Dataset, CacheOutcome)> {
    let key = snapshot_key(name, observations, seed);
    let path = snapshot_path(dir, name, observations, seed);
    let miss = match Graph::load_snapshot(&path, Some(&key)) {
        Ok(graph) => {
            let mut dataset = describe_named(name, observations)?;
            dataset.graph = graph;
            return Some((dataset, CacheOutcome::Loaded));
        }
        Err(RdfError::Io(_)) if !path.exists() => CacheMiss::Absent,
        Err(RdfError::SnapshotKeyMismatch { expected, found }) => {
            CacheMiss::Stale { expected, found }
        }
        Err(err) => CacheMiss::Invalid(err.to_string()),
    };
    let dataset = generate_named(name, observations, seed)?;
    let wrote =
        std::fs::create_dir_all(dir).is_ok() && dataset.graph.write_snapshot(&path, &key).is_ok();
    Some((dataset, CacheOutcome::Generated { miss, wrote }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_dataset_name_is_none() {
        assert!(generate_named("nope", 10, 1).is_none());
        assert!(describe_named("nope", 10).is_none());
        assert!(load_or_generate(Path::new("/tmp"), "nope", 10, 1).is_none());
    }

    #[test]
    fn keys_separate_datasets_scales_and_seeds() {
        let a = snapshot_key("eurostat", 1000, 42);
        assert_ne!(a, snapshot_key("production", 1000, 42));
        assert_ne!(a, snapshot_key("eurostat", 1001, 42));
        assert_ne!(a, snapshot_key("eurostat", 1000, 43));
    }

    #[test]
    fn describe_matches_generate_metadata() {
        for name in ["eurostat", "production", "dbpedia", "running-example"] {
            let generated = generate_named(name, 50, 7).expect("known dataset");
            let described = describe_named(name, generated.observations).expect("known dataset");
            assert_eq!(described.name, generated.name);
            assert_eq!(described.observation_class, generated.observation_class);
            assert_eq!(described.observations, generated.observations);
            assert_eq!(
                described.dimension_predicates,
                generated.dimension_predicates
            );
            assert_eq!(described.rollup_predicates, generated.rollup_predicates);
            assert_eq!(described.label_predicate, generated.label_predicate);
            assert_eq!(described.expected, generated.expected);
            assert!(described.graph.is_empty());
        }
    }
}
