//! Integration tests of fault-tolerant grid execution through the public
//! `bgc_eval` API: injected panics stay isolated to their cell under
//! `keep_going`, bounded retries heal transient faults bit-identically,
//! cell deadlines cancel cooperatively inside the training stack, corrupt
//! cell artifacts are quarantined and recomputed to the same bytes, and a
//! fault at each registered point fails only its cell or store operation
//! and heals on a clean rerun.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use bgc_condense::CondensationKind;
use bgc_eval::{
    CellStatus, ExperimentScale, FaultAction, FaultPlan, FaultSpec, GridReport, Runner,
};
use bgc_graph::DatasetKind;
use bgc_store::{parse_artifact_canon, Store};

fn quick_runner() -> Runner {
    Runner::in_memory(ExperimentScale::Quick).serial()
}

fn grid_keys(runner: &Runner) -> Vec<bgc_eval::CellKey> {
    let cora = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    let citeseer = runner.bgc_group(DatasetKind::Citeseer, CondensationKind::GCondX, 0.018);
    cora.keys
        .iter()
        .chain(citeseer.keys.iter())
        .cloned()
        .collect()
}

fn outcome_for(report: &GridReport, dataset: DatasetKind) -> &bgc_eval::CellOutcome {
    report
        .outcomes
        .iter()
        .find(|outcome| outcome.key.dataset == dataset)
        .expect("grid contains the dataset")
}

#[test]
fn keep_going_isolates_an_injected_panic_to_its_cell() {
    // A panic injected deep inside citeseer's training loop must not take
    // down the cora cell sharing the grid, and the aggregate error must name
    // the panicked cell.
    let plan = FaultPlan::new()
        .with(FaultSpec::new("trainer.epoch", FaultAction::Panic).in_context("citeseer"));
    let runner = quick_runner().keep_going(true).with_fault_plan(plan);
    let keys = grid_keys(&runner);
    let report = runner.run_cells(&keys);

    assert!(!report.is_ok());
    assert!(outcome_for(&report, DatasetKind::Cora).status.is_success());
    let citeseer = outcome_for(&report, DatasetKind::Citeseer);
    assert!(
        matches!(&citeseer.status, CellStatus::Panicked { message } if message.contains("trainer.epoch")),
        "expected an injected panic, got {:?}",
        citeseer.status
    );
    let err = report.error().expect("a failed grid aggregates an error");
    assert!(err.to_string().contains("citeseer"), "{}", err);
    assert!(err.is_cell_failure());
}

#[test]
fn bounded_retry_heals_a_transient_panic_bit_identically() {
    // Injected faults fire exactly once, so one retry recovers the cell —
    // and the recovered result must match a fault-free run to the bit.
    let clean = quick_runner();
    let keys = grid_keys(&clean);
    assert!(clean.run_cells(&keys).is_ok());

    let plan = FaultPlan::new()
        .with(FaultSpec::new("trainer.epoch", FaultAction::Panic).in_context("citeseer"));
    let faulted = quick_runner()
        .keep_going(true)
        .with_fault_plan(plan)
        .with_retries(1)
        .with_retry_backoff(Duration::from_millis(1));
    let report = faulted.run_cells(&keys);

    assert!(report.is_ok(), "retry heals: {}", report.summary());
    assert_eq!(outcome_for(&report, DatasetKind::Citeseer).attempts, 2);
    assert_eq!(outcome_for(&report, DatasetKind::Cora).attempts, 1);
    for key in &keys {
        let healed = faulted.result(key).expect("cell result");
        let reference = clean.result(key).expect("cell result");
        assert_eq!(healed.cta.to_bits(), reference.cta.to_bits());
        assert_eq!(healed.asr.to_bits(), reference.asr.to_bits());
        assert_eq!(healed.c_cta.to_bits(), reference.c_cta.to_bits());
        assert_eq!(healed.c_asr.to_bits(), reference.c_asr.to_bits());
    }
}

#[test]
fn cell_deadline_cancels_inside_the_training_loop() {
    // A delay injected into the first trainer epoch pushes the cell past its
    // deadline; the next cooperative checkpoint must unwind into a typed
    // timeout (not a panic), and deadline overruns must not be retried.
    let plan = FaultPlan::new().with(FaultSpec::new(
        "trainer.epoch",
        FaultAction::Delay(Duration::from_millis(300)),
    ));
    let runner = quick_runner()
        .keep_going(true)
        .with_fault_plan(plan)
        .with_cell_timeout(Some(Duration::from_millis(50)))
        .with_retries(3);
    let group = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    let report = runner.run_cells(&group.keys);

    let outcome = outcome_for(&report, DatasetKind::Cora);
    assert!(
        matches!(outcome.status, CellStatus::TimedOut { limit_ms: 50 }),
        "expected a 50 ms timeout, got {:?}",
        outcome.status
    );
    assert_eq!(outcome.attempts, 1, "timeouts are not retried");
}

/// A fresh store root under the system temp dir.
fn temp_store(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("bgc-integration-{}-{}", tag, std::process::id()));
    let _ = fs::remove_dir_all(&root);
    root
}

fn stored_runner(root: &Path) -> Runner {
    quick_runner().with_store(Some(Store::open(root)))
}

/// The store's live artifacts as sorted paths.
fn artifacts(root: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(root)
        .map(|entries| entries.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    paths.retain(|path| path.extension().is_some_and(|ext| ext == "art"));
    paths.sort();
    paths
}

#[test]
fn corrupt_cache_files_quarantine_and_heal_byte_identically() {
    let root = temp_store("corrupt");

    // Populate the store and snapshot the pristine cell artifact.
    let runner = stored_runner(&root);
    let group = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    assert!(runner.run_cells(&group.keys).is_ok());
    let cell_artifact = artifacts(&root)
        .into_iter()
        .find(|path| {
            let bytes = fs::read(path).expect("artifact readable");
            parse_artifact_canon(&bytes).is_ok_and(|canon| canon.starts_with("k1|cell|"))
        })
        .expect("one cell artifact stored");
    let pristine = fs::read(&cell_artifact).expect("pristine bytes");

    // Truncate the artifact mid-payload; a fresh runner must quarantine it,
    // recompute, and store the identical bytes again.
    fs::write(&cell_artifact, &pristine[..pristine.len() / 2]).expect("truncate");
    let recovery = stored_runner(&root);
    let group = recovery.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    assert!(recovery.run_cells(&group.keys).is_ok());
    assert_eq!(recovery.stats().cells_computed, 1);
    let store = recovery.store().expect("store attached");
    assert_eq!(store.counters().quarantined, 1);
    let quarantined = cell_artifact.with_extension("art.corrupt");
    assert!(quarantined.exists(), "corrupt file kept for inspection");
    assert_eq!(
        fs::read(&cell_artifact).expect("healed bytes"),
        pristine,
        "recomputed cell artifact is byte-identical"
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn injected_persist_faults_keep_results_usable() {
    // A store write failure must not fail the cell: the in-memory result
    // stays valid (and bit-identical) and no partial file is left behind.
    let root = temp_store("persist");

    let plan = FaultPlan::new().with(FaultSpec::new("store.write", FaultAction::IoError));
    let runner = stored_runner(&root).with_fault_plan(plan);
    let group = runner.bgc_group(DatasetKind::Cora, CondensationKind::GCondX, 0.026);
    let report = runner.run_cells(&group.keys);

    assert!(report.is_ok(), "store write failures do not fail the cell");
    let reference = quick_runner();
    assert!(reference.run_cells(&group.keys).is_ok());
    let (a, b) = (
        runner.result(&group.keys[0]).expect("faulted result"),
        reference.result(&group.keys[0]).expect("reference result"),
    );
    assert_eq!(a.cta.to_bits(), b.cta.to_bits());
    assert_eq!(a.asr.to_bits(), b.asr.to_bits());
    let leftovers: Vec<String> = fs::read_dir(&root)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|name| name.contains(".tmp-"))
                .collect()
        })
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "no partial files after a failed write: {:?}",
        leftovers
    );
    // The one faulted write (the first stage) is missing; the cell and the
    // other stage were stored.
    assert_eq!(artifacts(&root).len(), 2);

    let _ = fs::remove_dir_all(&root);
}

/// The store's live artifacts as `(file name, bytes)`, sorted by name.
fn artifact_bytes(root: &Path) -> Vec<(String, Vec<u8>)> {
    artifacts(root)
        .into_iter()
        .map(|path| {
            let name = path.file_name().expect("file name");
            let bytes = fs::read(&path).expect("artifact readable");
            (name.to_string_lossy().into_owned(), bytes)
        })
        .collect()
}

/// Whether `bytes` is the stored cell result of a `dataset` cell.
fn is_cell_of(bytes: &[u8], dataset: DatasetKind) -> bool {
    parse_artifact_canon(bytes).is_ok_and(|canon| {
        canon.starts_with("k1|cell|") && canon.contains(&format!("|{}|", dataset.name()))
    })
}

fn assert_same_results(a: &Runner, b: &Runner, keys: &[bgc_eval::CellKey]) {
    for key in keys {
        let (a, b) = (
            a.result(key).expect("cell result"),
            b.result(key).expect("cell result"),
        );
        assert_eq!(a.c_cta.to_bits(), b.c_cta.to_bits(), "{}", key.canon());
        assert_eq!(a.cta.to_bits(), b.cta.to_bits(), "{}", key.canon());
        assert_eq!(a.c_asr.to_bits(), b.c_asr.to_bits(), "{}", key.canon());
        assert_eq!(a.asr.to_bits(), b.asr.to_bits(), "{}", key.canon());
        assert_eq!(a.asr_nodes, b.asr_nodes, "{}", key.canon());
    }
}

/// A grid run with one fault armed, and what a clean rerun made of it.
struct FaultedRun {
    /// The faulted run's report.
    report: GridReport,
    /// The runner of the faulted run (its results and store counters).
    runner: Runner,
    /// The runner of a never-faulted run.
    reference_runner: Runner,
    /// The cora + citeseer cells.
    keys: Vec<bgc_eval::CellKey>,
    /// The store's artifacts right after the faulted run.
    faulted: Vec<(String, Vec<u8>)>,
    /// The artifacts of a never-faulted run.
    reference: Vec<(String, Vec<u8>)>,
}

/// Runs the cora + citeseer grid with `plan` armed (`keep_going`) over an
/// empty store, then reruns it fault-free over the same store, and checks
/// that the rerun heals: every cell succeeds with the never-faulted
/// results and the healed store matches a never-faulted one byte for byte.
fn fault_then_heal(tag: &str, plan: FaultPlan) -> FaultedRun {
    let reference_root = temp_store(&format!("{tag}-reference"));
    let reference_runner = stored_runner(&reference_root);
    let keys = grid_keys(&reference_runner);
    assert!(reference_runner.run_cells(&keys).is_ok());
    let reference = artifact_bytes(&reference_root);

    let root = temp_store(tag);
    let runner = stored_runner(&root).keep_going(true).with_fault_plan(plan);
    let report = runner.run_cells(&keys);
    let faulted = artifact_bytes(&root);

    let healed = stored_runner(&root);
    let rerun = healed.run_cells(&keys);
    assert!(rerun.is_ok(), "a clean rerun heals: {}", rerun.summary());
    assert_same_results(&healed, &reference_runner, &keys);
    let healed_artifacts = artifact_bytes(&root);
    let names = |artifacts: &[(String, Vec<u8>)]| -> Vec<String> {
        artifacts.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&healed_artifacts), names(&reference));
    for ((name, healed), (_, reference)) in healed_artifacts.iter().zip(&reference) {
        assert!(
            healed == reference,
            "artifact {name} healed byte-identically"
        );
    }

    let _ = fs::remove_dir_all(&reference_root);
    let _ = fs::remove_dir_all(&root);
    FaultedRun {
        report,
        runner,
        reference_runner,
        keys,
        faulted,
        reference,
    }
}

/// Asserts that the faulted run failed only the citeseer cell, with an
/// injected panic at `point`, and stored everything of the cora cell.
fn assert_only_citeseer_panicked(run: &FaultedRun, point: &str) {
    assert!(!run.report.is_ok());
    assert!(outcome_for(&run.report, DatasetKind::Cora)
        .status
        .is_success());
    let citeseer = outcome_for(&run.report, DatasetKind::Citeseer);
    assert!(
        matches!(&citeseer.status, CellStatus::Panicked { message } if message.contains(point)),
        "expected an injected {point} panic, got {:?}",
        citeseer.status
    );
    assert!(run
        .faulted
        .iter()
        .any(|(_, bytes)| is_cell_of(bytes, DatasetKind::Cora)));
    assert!(!run
        .faulted
        .iter()
        .any(|(_, bytes)| is_cell_of(bytes, DatasetKind::Citeseer)));
}

/// Asserts that a store fault cost exactly one operation: every cell
/// succeeded with the never-faulted results, one request degraded to local
/// compute, and only the citeseer cell's artifact (whose request degraded)
/// is missing from the store.
fn assert_only_one_store_operation_failed(run: &FaultedRun) {
    assert!(run.report.is_ok(), "{}", run.report.summary());
    let store = run.runner.store().expect("store attached");
    assert_eq!(store.counters().degraded, 1);
    let missing: Vec<&(String, Vec<u8>)> = run
        .reference
        .iter()
        .filter(|artifact| !run.faulted.contains(artifact))
        .collect();
    assert_eq!(missing.len(), 1, "one artifact was not stored");
    assert!(is_cell_of(&missing[0].1, DatasetKind::Citeseer));
    assert_eq!(run.faulted.len() + 1, run.reference.len());
    assert_same_results(&run.runner, &run.reference_runner, &run.keys);
}

#[test]
fn condense_outer_panic_fails_only_its_cell_and_heals() {
    let plan = FaultPlan::new()
        .with(FaultSpec::new("condense.outer", FaultAction::Panic).in_context("citeseer"));
    let run = fault_then_heal("condense-outer", plan);
    assert_only_citeseer_panicked(&run, "condense.outer");
}

#[test]
fn stage_attack_panic_fails_only_its_cell_and_heals() {
    let plan = FaultPlan::new()
        .with(FaultSpec::new("stage.attack", FaultAction::Panic).in_context("citeseer"));
    let run = fault_then_heal("stage-attack", plan);
    assert_only_citeseer_panicked(&run, "stage.attack");
}

#[test]
fn store_read_error_degrades_one_request_and_heals() {
    // The citeseer cell's first store read is its own artifact lookup: it
    // fails, so the cell is computed locally and not stored.
    let plan = FaultPlan::new()
        .with(FaultSpec::new("store.read", FaultAction::IoError).in_context("citeseer"));
    let run = fault_then_heal("store-read", plan);
    assert_only_one_store_operation_failed(&run);
}

#[test]
fn store_lock_error_degrades_one_request_and_heals() {
    // The citeseer cell misses the store, then fails to take its
    // single-flight lock: it is computed locally and not stored.
    let plan = FaultPlan::new()
        .with(FaultSpec::new("store.lock", FaultAction::IoError).in_context("citeseer"));
    let run = fault_then_heal("store-lock", plan);
    assert_only_one_store_operation_failed(&run);
}
