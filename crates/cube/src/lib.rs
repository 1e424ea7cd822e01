#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # re2x-cube
//!
//! The statistical-knowledge-graph layer of the RE²xOLAP reproduction:
//!
//! * the multidimensional model — [`Dimension`]s, [`Measure`]s, hierarchy
//!   [`LevelNode`]s (Section 3 of the paper),
//! * the **Virtual Schema Graph** ([`VirtualSchemaGraph`]) — the paper's
//!   central optimization: a level-granularity in-memory summary of the
//!   dimension hierarchies (Section 5.2),
//! * the [`bootstrap()`] crawler that discovers the schema automatically
//!   given only a SPARQL endpoint and the observation class,
//! * QB/QB4OLAP annotation emission ([`qb`]),
//! * label utilities for presenting schema elements to users.

pub mod bootstrap;
pub mod labels;
pub mod model;
pub mod patterns;
pub mod qb;
pub mod vgraph;

pub use bootstrap::{bootstrap, refresh, BootstrapConfig, BootstrapReport, RefreshReport};
pub use model::{Dimension, DimensionId, LevelId, LevelNode, Measure, MeasureId};
pub use vgraph::{SchemaStats, VirtualSchemaGraph};
