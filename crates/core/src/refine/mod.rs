//! ExRef — the example-driven query refinement suite (Section 6).
//!
//! Three independent refinement operations, each returning a set of
//! candidate refined queries with explanations:
//!
//! * [`disaggregate`](disaggregate::disaggregate) — Problem 2a, the OLAP
//!   drill-down: add a dimension/level not yet in the query (navigates only
//!   the Virtual Schema Graph, no triplestore access).
//! * [`topk`](subset::topk) and [`percentile`](subset::percentile) —
//!   Problem 2b, the dice: restrict results by measure-value thresholds
//!   that keep the user's example in the result.
//! * [`similarity`](similar::similarity) — Problem 2c: keep only the k
//!   member combinations whose measure profile is most similar to the
//!   example's (cosine over feature vectors, Figure 5).
//!
//! All refinements preserve the example-driven invariant: the refined
//! query's results still contain tuples about the user's example.
//!
//! The last two restrict the current result, so the session answers them
//! from the rows it already holds ([`derive`](derive::derive)) instead of
//! executing the refined query.

pub mod derive;
pub mod disaggregate;
pub mod similar;
pub mod subset;

use crate::query_model::OlapQuery;
use re2x_cube::LevelId;
use re2x_sparql::Order;

/// The refinement operation that produced a query (used by the session and
/// the experiment harness).
#[derive(Debug, Clone, PartialEq)]
pub enum RefinementKind {
    /// Drill-down: a grouping level was added.
    Disaggregate {
        /// The added level.
        level: LevelId,
    },
    /// Dice by top/bottom-k threshold on a measure column.
    TopK {
        /// The thresholded measure column.
        measure_alias: String,
        /// How many tuples survive.
        k: usize,
        /// `Desc` = top-k, `Asc` = bottom-k.
        order: Order,
    },
    /// Dice by a percentile interval of a measure column.
    Percentile {
        /// The measure column.
        measure_alias: String,
        /// Lower percentile bound (inclusive).
        lower_pct: u8,
        /// Upper percentile bound (exclusive; 100 = inclusive top).
        upper_pct: u8,
    },
    /// Restriction to the k member combinations most similar to the
    /// example.
    Similarity {
        /// The measure whose profile defines similarity.
        measure_alias: String,
        /// Number of similar combinations kept (besides the example's).
        k: usize,
    },
}

/// A refined query with provenance and an explanation for the user.
#[derive(Debug, Clone, PartialEq)]
pub struct Refinement {
    /// The refined annotated query.
    pub query: OlapQuery,
    /// What operation produced it.
    pub kind: RefinementKind,
    /// Human-readable explanation (the paper's explainability criterion).
    pub explanation: String,
}

/// The refinement operations offered in the interactive loop
/// (`ExRef ← {Dis, TopK, Perc, Sim}` in Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefineOp {
    /// Example-driven disaggregate (drill-down).
    Disaggregate,
    /// Top-k subset.
    TopK,
    /// Percentile subset.
    Percentile,
    /// Similarity search.
    Similarity,
}

impl RefineOp {
    /// All operations, in the paper's order.
    pub const ALL: [RefineOp; 4] = [
        RefineOp::Disaggregate,
        RefineOp::TopK,
        RefineOp::Percentile,
        RefineOp::Similarity,
    ];
}
