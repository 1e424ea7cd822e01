//! The repo's benchmark: four closed-loop workloads over the paper's
//! interactive loop, measured from outside through the public functions of
//! each layer. See `benchmark/README.md`.

pub mod calib;
pub mod drive;
pub mod layers;
pub mod report;
pub mod rng;
pub mod run;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;
