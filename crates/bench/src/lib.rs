#![forbid(unsafe_code)]

//! # re2x-bench
//!
//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (see `DESIGN.md` §3 for the index) plus the ablation
//! studies of §4.
//!
//! * the [`figures`] module implements one function per table/figure,
//! * the [`ablation`] module implements the design-choice ablations,
//! * the `repro` binary runs them and writes `bench_results/`,
//! * the micro-benches (`benches/`, on the in-repo [`micro`] harness,
//!   gated behind the `bench-criterion` feature) time the hot paths per
//!   figure.

pub mod ablation;
pub mod env;
pub mod figures;
pub mod micro;
pub mod report;
pub mod scale;
pub mod serve;
pub mod sharding;
pub mod trace;
pub mod watch;
