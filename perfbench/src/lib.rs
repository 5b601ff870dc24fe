//! # perfbench — the co-simulator's benchmark
//!
//! Runs a named workload through the program's public entry points
//! (`fib_scenario::build`, `ScenarioRun::run_until_secs`,
//! `ScenarioRun::finish`, the sweep grid API), times each call from
//! outside the program, checks every run's output against an unsplit
//! reference run, and reports end-to-end and per-layer metrics. See
//! `README.md` in this directory for the workloads and metrics.

pub mod bench;
pub mod digest;
pub mod gauge;
pub mod host;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod report;
pub mod run;
pub mod stats;
pub mod workload;
