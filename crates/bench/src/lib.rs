//! Shared code of the experiment binaries: the `bgc` CLI implementation
//! ([`cli`]) that the single `bgc` binary and all 13 `exp_*` forwarding
//! wrappers execute.
//!
//! Every invocation accepts `--scale quick|paper` (default `quick`) and
//! `--full` (include all four datasets in sweeps at quick scale).  Reports
//! execute their experiment cells through a shared grid
//! [`Runner`](bgc_eval::Runner), which parallelizes independent cells,
//! shares attack/condensation stages between overlapping cells and resumes
//! completed cells from `target/experiments/<scale>/cells/`.

pub mod cli;
pub mod daemon;
pub mod output;
pub mod scaling;

pub use cli::{forward, report_runner_stats, CliError, HELP};
