//! Subprocess tests of the `bgc` binary's failure behaviour: distinct exit
//! codes per failure class, `BGC_FAULTS` injection end to end, the store's
//! atomic-rename write protocol surviving a kill mid-write, and
//! `--store-dir` routing.
//!
//! Each test runs the real binary (`CARGO_BIN_EXE_bgc`) in its own temp
//! working directory — the artifact store lives under the cwd-relative
//! `target/store/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use bgc_store::parse_artifact_canon;
use serde_json::Value;

fn temp_workdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bgc-cli-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("temp workdir");
    dir
}

fn bgc(workdir: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bgc"));
    cmd.current_dir(workdir)
        .env_remove("BGC_FAULTS")
        .env_remove("BGC_STORE_DIR");
    cmd
}

fn store_dir(workdir: &Path) -> PathBuf {
    workdir.join("target/store")
}

fn dir_files(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.to_string_lossy().ends_with(suffix))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn exit_codes_distinguish_failure_classes_end_to_end() {
    let dir = temp_workdir("exit-codes");

    // 2: malformed invocation.
    let status = bgc(&dir).arg("frobnicate").status().expect("bgc runs");
    assert_eq!(status.code(), Some(2));

    // 2: malformed BGC_FAULTS (rejected before any cell runs).
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--no-cache"])
        .env("BGC_FAULTS", "stage.clean=explode")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(2));

    // 1: unknown registry name (a configuration error, not a cell failure).
    let status = bgc(&dir)
        .args([
            "run",
            "--dataset",
            "cora",
            "--attack",
            "Ghost",
            "--no-cache",
        ])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(1));

    // 3: an injected panic fails the cell under --keep-going.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--keep-going", "--no-cache"])
        .env("BGC_FAULTS", "stage.clean=panic")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(3));

    // 3: the same failure without --keep-going still exits as a cell failure.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--no-cache"])
        .env("BGC_FAULTS", "stage.clean=panic")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(3));

    // 0: the identical fault-free invocation succeeds.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--no-cache"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sampler_thread_panic_fails_only_its_cell_and_shuts_down_cleanly() {
    let dir = temp_workdir("sampler-fault");
    let sampled_args = [
        "run",
        "--dataset",
        "cora",
        "--serial",
        "--batch-size",
        "32",
        "--fanouts",
        "5x5",
    ];

    // A panic injected on the prefetch producer thread must be forwarded to
    // the trainer, fail the cell as an ordinary cell failure (exit 3, not a
    // crash), name the fault point in the failure output, and leave no
    // deadlocked pipeline behind — the process must exit promptly instead
    // of hanging on a blocked channel or an unjoined sampler thread.
    let start = Instant::now();
    let output = bgc(&dir)
        .args(sampled_args)
        .args(["--keep-going", "--no-cache"])
        .env("BGC_FAULTS", "sampler.produce=panic")
        .output()
        .expect("bgc runs");
    assert_eq!(
        output.status.code(),
        Some(3),
        "a sampler-thread panic is a cell failure:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let combined = format!(
        "{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        combined.contains("sampler.produce"),
        "the failure names the injected fault point:\n{}",
        combined
    );
    assert!(
        start.elapsed() < Duration::from_secs(600),
        "the pipeline shut down instead of deadlocking"
    );

    // The identical fault-free invocation succeeds: the producer fault
    // poisoned one run, not the workspace.
    let status = bgc(&dir).args(sampled_args).status().expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    let _ = fs::remove_dir_all(&dir);
}

/// The store's cell artifacts (stage `cell`) among `files`.
fn cell_artifacts(files: &[PathBuf]) -> Vec<PathBuf> {
    files
        .iter()
        .filter(|path| {
            fs::read(path)
                .ok()
                .and_then(|bytes| parse_artifact_canon(&bytes).ok())
                .is_some_and(|canon| canon.starts_with("k1|cell|"))
        })
        .cloned()
        .collect()
}

#[test]
fn kill_during_persist_leaves_no_partial_cell_file_and_rerun_heals() {
    let dir = temp_workdir("kill-persist");
    let store = store_dir(&dir);

    // Arm a long delay between the temp-file write and the atomic rename of
    // the third store write — the cell artifact, after the clean and attack
    // stages — then kill the process inside that window.
    let mut child = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .env("BGC_FAULTS", "store.write#3=delay:20000")
        .spawn()
        .expect("bgc spawns");
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut saw_tmp = false;
    while Instant::now() < deadline {
        if !dir_files(&store, "").iter().any(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().contains(".art.tmp-"))
        }) || dir_files(&store, ".art").len() < 2
        {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        }
        saw_tmp = true;
        break;
    }
    child.kill().expect("kill mid-persist");
    let _ = child.wait();
    assert!(saw_tmp, "persist window was observed before the kill");
    let live = dir_files(&store, ".art");
    assert_eq!(live.len(), 2, "only the two stages are live: {:?}", live);
    assert!(
        cell_artifacts(&live).is_empty(),
        "no live cell artifact exists after a kill mid-persist"
    );

    // A fault-free re-run sweeps the stale temp file, recomputes the cell
    // from the stored stages and publishes a complete, checksummed artifact.
    let status = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));
    let cells = cell_artifacts(&dir_files(&store, ".art"));
    assert_eq!(
        cells.len(),
        1,
        "exactly one live cell artifact: {:?}",
        cells
    );
    assert!(
        dir_files(&store, "")
            .iter()
            .all(|p| !p.to_string_lossy().contains(".tmp-")),
        "stale temp files were swept"
    );

    // A third run serves the cell from the store without touching the bytes.
    let healed = fs::read(&cells[0]).expect("healed bytes");
    let output = bgc(&dir)
        .args(["run", "--dataset", "cora", "--serial", "--format", "json"])
        .output()
        .expect("bgc runs");
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(cells_computed(&output.stdout), 0);
    assert_eq!(fs::read(&cells[0]).expect("bytes"), healed);

    let _ = fs::remove_dir_all(&dir);
}

/// `stats.cells_computed` of a `--format json` document.
fn cells_computed(stdout: &[u8]) -> u64 {
    let doc: Value = serde_json::from_str(&String::from_utf8_lossy(stdout)).expect("json report");
    doc.get("stats")
        .and_then(|stats| stats.get("cells_computed"))
        .and_then(Value::as_u64)
        .expect("stats.cells_computed")
}

#[test]
fn faulted_then_clean_rerun_matches_a_never_faulted_cache_byte_for_byte() {
    let reference = temp_workdir("heal-reference");
    let faulted = temp_workdir("heal-faulted");

    // Reference: one clean run.
    let status = bgc(&reference)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    // Faulted: an injected panic fails the run (on an empty store, so the
    // stage runs), a clean re-run heals.
    let status = bgc(&faulted)
        .args(["run", "--dataset", "cora", "--serial", "--keep-going"])
        .env("BGC_FAULTS", "stage.clean=panic")
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(3));
    let status = bgc(&faulted)
        .args(["run", "--dataset", "cora", "--serial"])
        .status()
        .expect("bgc runs");
    assert_eq!(status.code(), Some(0));

    // The healed store is byte-identical to the never-faulted one.
    let reference_artifacts = dir_files(&store_dir(&reference), ".art");
    let healed_artifacts = dir_files(&store_dir(&faulted), ".art");
    assert_eq!(cell_artifacts(&reference_artifacts).len(), 1);
    assert_eq!(reference_artifacts.len(), healed_artifacts.len());
    for path in &reference_artifacts {
        let name = path.file_name().expect("file name");
        let healed = store_dir(&faulted).join(name);
        assert_eq!(
            fs::read(path).expect("reference bytes"),
            fs::read(&healed).expect("healed bytes"),
            "artifact {} healed byte-identically",
            name.to_string_lossy()
        );
    }

    let _ = fs::remove_dir_all(&reference);
    let _ = fs::remove_dir_all(&faulted);
}

#[test]
fn store_dir_routes_every_artifact_to_that_root() {
    let dir = temp_workdir("store-dir");
    let args = [
        "run",
        "--dataset",
        "cora",
        "--serial",
        "--store-dir",
        "elsewhere",
        "--format",
        "json",
    ];

    let output = bgc(&dir).args(args).output().expect("bgc runs");
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(cells_computed(&output.stdout), 1);
    let artifacts = dir_files(&dir.join("elsewhere"), ".art");
    assert_eq!(cell_artifacts(&artifacts).len(), 1, "{:?}", artifacts);
    assert!(
        !store_dir(&dir).exists(),
        "nothing is written under the default store root"
    );

    // The same root serves the cell on the next invocation.
    let output = bgc(&dir).args(args).output().expect("bgc runs");
    assert_eq!(output.status.code(), Some(0));
    assert_eq!(cells_computed(&output.stdout), 0);

    let _ = fs::remove_dir_all(&dir);
}
