#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # re2x-sparql
//!
//! A SPARQL subset engine over [`re2x_rdf`] graphs, covering exactly the
//! query fragment RE²xOLAP produces and consumes:
//!
//! * `SELECT` / `ASK` forms,
//! * basic graph patterns with *sequence property paths* (`<p1> / <p2>`)
//!   and variable predicates (for schema discovery),
//! * `FILTER` expressions (logical, comparison, arithmetic, `IN`,
//!   `STR`/`LCASE`/`CONTAINS`/`BOUND`/`ABS`),
//! * `GROUP BY` with `SUM`/`MIN`/`MAX`/`AVG`/`COUNT` aggregates and
//!   `HAVING`,
//! * `DISTINCT`, `ORDER BY`, `LIMIT`, `OFFSET`.
//!
//! Evaluation uses greedy selectivity-based join ordering over the store's
//! SPO/POS/OSP indexes. The [`SparqlEndpoint`] trait is the seam between
//! RE²xOLAP and the store, mirroring the paper's "standard SPARQL
//! interfaces (with non-specialized RDF stores)" requirement; the bundled
//! [`LocalEndpoint`] adds query statistics and optional injected latency
//! for the endpoint-performance experiments.
//!
//! ```
//! use re2x_rdf::{Graph, io::parse_turtle};
//! use re2x_sparql::{LocalEndpoint, SparqlEndpoint};
//!
//! let mut graph = Graph::new();
//! parse_turtle(r#"
//!     @prefix ex: <http://ex/> .
//!     ex:o1 ex:dest ex:Germany ; ex:n 40 .
//!     ex:o2 ex:dest ex:Germany ; ex:n 2 .
//!     ex:o3 ex:dest ex:France ; ex:n 7 .
//! "#, &mut graph).unwrap();
//! let endpoint = LocalEndpoint::new(graph);
//!
//! let solutions = endpoint.select_text(
//!     "SELECT ?d (SUM(?n) AS ?total) WHERE { ?o <http://ex/dest> ?d . ?o <http://ex/n> ?n }
//!      GROUP BY ?d ORDER BY DESC(?total)",
//! ).unwrap();
//! assert_eq!(solutions.len(), 2);
//! assert_eq!(
//!     solutions.value(0, "total").and_then(|v| v.as_number(endpoint.graph())),
//!     Some(42.0),
//! );
//! ```

pub mod ast;
pub mod caching;
pub mod endpoint;
pub mod error;
pub mod eval;
pub mod expr;
mod number;
pub mod parser;
pub mod pretty;
pub mod results_io;
pub mod sharded;
pub mod tracing;
pub mod value;

pub use ast::{
    AggFunc, ArithOp, CmpOp, Expr, Func, Order, OrderKey, PatternElement, Predicate, Query,
    QueryForm, SelectItem, TermPattern, TriplePattern,
};
pub use caching::CachingEndpoint;
pub use endpoint::{EndpointStats, LatencyHistogram, LocalEndpoint, SparqlEndpoint};
pub use error::SparqlError;
pub use eval::{evaluate, evaluate_ask, evaluate_reference, explain};
pub use parser::parse_query;
pub use pretty::query_to_sparql;
pub use results_io::{to_csv, to_tsv, write_csv, write_tsv};
pub use sharded::{canonical_order, reference_solutions, Route, ShardedEndpoint};
pub use tracing::TracingEndpoint;
pub use value::{Solutions, Value};
