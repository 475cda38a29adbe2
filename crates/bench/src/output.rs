//! Where the bench binaries write their `BENCH_*.json`.
//!
//! Full-mode runs record at the workspace root, next to the committed
//! files. `BENCH_QUICK=1` smoke runs measure a different regime (fewer
//! repetitions, a smaller sampling graph), so they write under
//! `target/bench-quick/` and leave the committed full-mode files alone.
//! Same-run gates do not depend on where the file goes.

use std::path::PathBuf;

/// Whether `BENCH_QUICK=1` is set.
pub fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v == "1")
}

fn workspace_root() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The committed, full-mode copy of `file_name` at the workspace root.
pub fn committed_path(file_name: &str) -> PathBuf {
    workspace_root().join(file_name)
}

/// Where this run writes `file_name`: the workspace root in full mode,
/// `target/bench-quick/` (created here) under `BENCH_QUICK=1`.
pub fn output_path(file_name: &str) -> PathBuf {
    if !quick_mode() {
        return committed_path(file_name);
    }
    let dir = workspace_root().join("target/bench-quick");
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create {}: {}", dir.display(), err);
    }
    dir.join(file_name)
}
