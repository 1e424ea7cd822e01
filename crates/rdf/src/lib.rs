#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # re2x-rdf
//!
//! An in-memory, indexed RDF triple store used as the storage substrate of
//! the RE²xOLAP reproduction.
//!
//! The crate provides:
//!
//! * [`Term`] / [`Literal`] — the RDF term model (IRIs, blank nodes, typed
//!   and language-tagged literals).
//! * [`Interner`] / [`TermId`] — term interning so that the rest of the
//!   system works on dense `u32` identifiers instead of strings.
//! * [`Graph`] — a triple store with SPO/POS/OSP indexes supporting all
//!   eight triple-pattern access paths.
//! * [`TextIndex`] — an inverted full-text index over literal values,
//!   mirroring the full-text index the paper relies on in its triplestore
//!   (Virtuoso) for resolving example keywords to IRIs.
//! * N-Triples and a pragmatic Turtle subset parser/serializer ([`io`]).
//! * Well-known vocabulary constants ([`vocab`]): RDF, RDFS, XSD, and the
//!   W3C RDF Data Cube (QB) vocabulary used by statistical KGs.
//!
//! The store is deliberately single-node and in-memory: the paper's
//! algorithms interact with the data exclusively through SPARQL (see the
//! `re2x-sparql` crate), so any conformant store can be swapped in behind
//! that seam.
//!
//! ```
//! use re2x_rdf::{Graph, io::parse_turtle};
//!
//! let mut graph = Graph::new();
//! parse_turtle(r#"
//!     @prefix ex: <http://ex/> .
//!     ex:obs1 ex:dest ex:Germany ; ex:applicants 42 .
//!     ex:Germany <http://www.w3.org/2000/01/rdf-schema#label> "Germany" .
//! "#, &mut graph).unwrap();
//!
//! // indexed pattern access
//! let dest = graph.iri_id("http://ex/dest").unwrap();
//! assert_eq!(graph.matching(None, Some(dest), None).len(), 1);
//! // full-text keyword resolution
//! assert_eq!(graph.literals_matching_exact("germany").len(), 1);
//! ```

pub mod error;
pub mod graph;
pub mod hash;
pub mod interner;
pub mod io;
pub mod partition;
pub mod snapshot;
pub mod term;
pub mod text;
pub mod vocab;

pub use error::RdfError;
pub use graph::{gallop, Cursor, Graph, PredicateStats, Triple};
pub use interner::{Interner, TermId, TERM_CAPACITY};
pub use partition::{
    partition, partition_layout, partition_observations, PartitionLayout, Partitioned,
    PredicateRole,
};
pub use snapshot::{
    graph_digest, load_shard_snapshot, peek_snapshot_key, shard_snapshot_key, SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
};
pub use term::{write_quoted, Literal, Term};
pub use text::TextIndex;
