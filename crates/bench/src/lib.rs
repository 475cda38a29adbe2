//! Shared code of the experiment binary: the `bgc` CLI implementation
//! ([`cli`]) that the `bgc` binary executes.
//!
//! Every invocation accepts `--scale quick|paper|large` (default `quick`)
//! and `--full` (include all four datasets in sweeps at quick scale).
//! Reports execute their experiment cells through a shared grid
//! [`Runner`](bgc_eval::Runner), which parallelizes independent cells,
//! shares attack/condensation stages between overlapping cells and serves
//! finished cells from the content-addressed artifact store.

pub mod cli;
pub mod output;
pub mod scaling;

pub use cli::{report_runner_stats, CliError, HELP};
