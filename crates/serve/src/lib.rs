//! # re2x-serve — the multi-tenant exploration session server
//!
//! The interactive engine in `re2xolap` drives **one** user's exploration.
//! This crate hosts **many** of them at once over a single shared graph
//! snapshot — the serving shape the paper's system demo implies: a KG
//! analytics endpoint where several analysts bootstrap cubes, synthesize
//! queries from examples, and refine them concurrently.
//!
//! The moving parts, bottom-up:
//!
//! - [`SessionScript`] / [`run_script`] — a deterministic round sequence
//!   (synthesize, refine, preview, think, backtrack) and the single
//!   execution path both the server's workers and the serial replay
//!   oracle use. Each run yields a timing-free [`SessionTranscript`]
//!   whose text rendering is byte-comparable across runs — the
//!   correctness oracle of the concurrency suites.
//! - [`QueryBudget`] — the per-session decorator cutting a session off
//!   *exactly* at its `SELECT`/`ASK` budget with the typed
//!   `SparqlError::BudgetExhausted`.
//! - [`FlakyEndpoint`] — seeded fault injection (failures and latency
//!   spikes) at the endpoint seam, for blast-radius testing.
//! - [`Server`] / [`ServerBuilder`] — per-tenant decorator stacks over
//!   copy-on-write graph clones (terms, text index and index bases shared
//!   with the source graph), a bounded run-queue with non-blocking
//!   typed admission, panic-isolated workers, graceful draining
//!   shutdown, and per-tenant labelled metrics feeding the existing
//!   `re2x-obs` Prometheus exposition.
//!
//! Everything is panic-free library code under the workspace lint gate:
//! overload, faults, and even panicking session rounds surface as
//! [`ServeError`] values, never as a dead server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
pub mod error;
pub mod flaky;
pub mod script;
pub mod server;

pub use budget::QueryBudget;
pub use error::ServeError;
pub use flaky::FlakyEndpoint;
pub use script::{run_script, RoundOp, RoundRecord, SessionScript, SessionTranscript};
pub use server::{Server, ServerBuilder, TenantSpec, Ticket};
