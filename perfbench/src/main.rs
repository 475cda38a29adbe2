//! Benchmark executable of the BGC reproduction.  `perfbench/run.py` builds
//! it, launches it once per measured process and turns its output into the
//! benchmark's metrics.  Every mode runs in the current working directory,
//! where the program keeps its caches (`target/store`, `target/experiments`).
//!
//! Modes:
//!
//! * `grid quick`, `grid flickr-large <seed>` — runs the workload once through the `bgc`
//!   CLI entry point and prints its `--format json` grid report on stdout:
//!   `bgc all --scale quick` (which pins base seed 17, so `quick` takes no
//!   seed) or `bgc run --dataset flickr --scale large --method gcond-x`.
//! * `warmup` — one small cell (`bgc run --dataset cora --method gcond-x`,
//!   quick scale): the warm-up launch that loads the binary and runs every
//!   layer's lazy set-up once before cold launches are timed.
//! * `machine` — prints the core count and the kernels' SIMD level.
//! * `trace <workload> <seed> <spans.json>` — the traced run: a serial
//!   untraced pass through the runner, then a replay of the same cells
//!   through each layer's public functions with a span around every call,
//!   then per-layer probes.  Prints the per-layer metrics as one JSON line.
//! * kernel child (`PERFBENCH_KERNEL_CHILD=1`) — measures the tensor kernels
//!   at Flickr-large shapes on the thread count in `BGC_NUM_THREADS`.

mod grid;
mod kernels;
mod probes;
mod replay;
mod trace;

use std::process::ExitCode;

/// The workloads this binary knows how to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `bgc all --scale quick` on an empty store and cell cache.
    QuickCold,
    /// `bgc all --scale quick` on a filled store with the cell cache removed.
    QuickWarm,
    /// `bgc run --dataset flickr --scale large --method gcond-x`, cold.
    FlickrLarge,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "quick-cold" => Some(Workload::QuickCold),
            "quick-warm" => Some(Workload::QuickWarm),
            "flickr-large" => Some(Workload::FlickrLarge),
            _ => None,
        }
    }
}

fn main() -> ExitCode {
    if bgc_bench::scaling::is_scaling_child(kernels::CHILD_FLAG) {
        return report(kernels::child_main());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let result = match words.as_slice() {
        ["grid", "quick"] => grid::quick(),
        ["grid", "flickr-large", seed] => parse_seed(seed).and_then(grid::flickr_large),
        ["warmup"] => grid::warmup(),
        ["machine"] => {
            let simd = bgc_tensor::kernel::simd_level().label();
            println!("nproc={} simd={simd}", kernels::nproc());
            Ok(())
        }
        ["trace", workload, seed, spans] => with_workload(workload).and_then(|w| {
            let seed = parse_seed(seed)?;
            trace::run(w, seed, std::path::Path::new(spans))
        }),
        _ => Err(
            "usage: perfbench grid quick | grid flickr-large <seed> | warmup \
             | machine | trace <workload> <seed> <spans.json>"
                .to_string(),
        ),
    };
    report(result)
}

fn with_workload(name: &str) -> Result<Workload, String> {
    Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))
}

fn parse_seed(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("seed must be a non-negative integer, got '{text}'"))
}

fn report(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
