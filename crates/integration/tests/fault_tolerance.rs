//! Integration tests of fault-tolerant grid execution through the public
//! `bgc_eval` API: injected panics stay isolated to their cell under
//! `keep_going`, bounded retries heal transient faults bit-identically,
//! cell deadlines cancel cooperatively inside the training stack, and
//! corrupt cell artifacts are quarantined and recomputed to the same bytes.

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
