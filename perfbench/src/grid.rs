//! Untraced workload launches: the processes whose wall time, peak memory
//! and CPU time are the benchmark's end-to-end numbers.

use std::sync::{Arc, Mutex, PoisonError};

use bgc_eval::{
    enter_wave, experiments, BgcError, CellKey, CellOutcome, Experiment, ExperimentReport,
    ExperimentScale, Runner, WaveCtx, WaveScope,
};
use bgc_graph::DatasetKind;

use crate::Workload;

/// The Flickr-large cell's method, as `bgc run --method` spells it.
pub const FLICKR_METHOD: &str = "gcond-x";

/// `bgc all --scale quick --format json`.  `bgc all` has no seed flag: the
/// grid always runs at base seed 17.
pub fn quick() -> Result<(), String> {
    bgc(&["all", "--scale", "quick", "--format", "json"])
}

/// `bgc run --dataset flickr --scale large --method gcond-x --seed <seed>
/// --format json`.
pub fn flickr_large(seed: u64) -> Result<(), String> {
    let seed = seed.to_string();
    bgc(&[
        "run",
        "--dataset",
        "flickr",
        "--scale",
        "large",
        "--method",
        FLICKR_METHOD,
        "--seed",
        &seed,
        "--format",
        "json",
    ])
}

/// The warm-up launch: one small cell.
pub fn warmup() -> Result<(), String> {
    bgc(&[
        "run",
        "--dataset",
        "cora",
        "--scale",
        "quick",
        "--method",
        "gcond-x",
        "--format",
        "json",
    ])
}

/// One invocation through the `bgc` CLI's entry point; its report goes to
/// stdout.
fn bgc(args: &[&str]) -> Result<(), String> {
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    match bgc_bench::cli::exit_code(&bgc_bench::cli::run(&args)) {
        0 => Ok(()),
        code => Err(format!("bgc exited with code {code}")),
    }
}

pub fn scale_of(workload: Workload) -> ExperimentScale {
    match workload {
        Workload::QuickCold | Workload::QuickWarm => ExperimentScale::Quick,
        Workload::FlickrLarge => ExperimentScale::Large,
    }
}

/// Regenerates and saves every report of `bgc all` (tables 1-8, figures 1,
/// 4, 5, 6 and 8, in the CLI's order, at quick scale without `--full`) on
/// `runner`: with the default base seed this is `bgc all`'s grid.
pub fn run_quick_reports(runner: &Runner) -> Result<(), BgcError> {
    type Regenerator<'a> = Box<dyn Fn() -> Result<ExperimentReport, BgcError> + 'a>;
    let full = false;
    let reports: Vec<Regenerator> = vec![
        Box::new(|| experiments::table1(runner.scale())),
        Box::new(|| experiments::fig1(runner)),
        Box::new(|| experiments::table2(runner, full)),
        Box::new(|| experiments::fig4(runner, full)),
        Box::new(|| experiments::table3(runner, full)),
        Box::new(|| experiments::table4(runner, full)),
        Box::new(|| experiments::fig5(runner)),
        Box::new(|| experiments::table5(runner)),
        Box::new(|| experiments::table6(runner)),
        Box::new(|| experiments::fig6(runner, full)),
        Box::new(|| experiments::table7(runner, full)),
        Box::new(|| experiments::table8(runner, full)),
        Box::new(|| experiments::fig8(runner)),
    ];
    for regenerate in reports {
        regenerate()?.save();
    }
    Ok(())
}

/// Cell outcomes streamed by a wave, in completion order.
pub struct Outcomes {
    seen: Arc<Mutex<Vec<CellOutcome>>>,
    _wave: WaveScope,
}

impl Outcomes {
    /// Starts collecting the outcomes of every wave on this thread.
    pub fn collect() -> Self {
        let seen: Arc<Mutex<Vec<CellOutcome>>> = Arc::default();
        let sink = seen.clone();
        let wave = enter_wave(WaveCtx {
            observer: Some(Arc::new(move |outcome: &CellOutcome| {
                sink.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(outcome.clone());
            })),
            ..WaveCtx::default()
        });
        Outcomes { seen, _wave: wave }
    }

    /// Ends the wave; returns the distinct computed cells in canonical
    /// order, or the first cell that did not succeed.
    pub fn finish(self) -> Result<Vec<CellKey>, String> {
        let Outcomes { seen, _wave } = self;
        drop(_wave);
        let outcomes = std::mem::take(&mut *seen.lock().unwrap_or_else(PoisonError::into_inner));
        let mut keys = Vec::new();
        for outcome in outcomes {
            if !outcome.status.is_success() {
                return Err(format!(
                    "cell {} ended {}",
                    outcome.key.canon(),
                    outcome.status.label()
                ));
            }
            keys.push(outcome.key);
        }
        keys.sort();
        keys.dedup();
        Ok(keys)
    }
}

/// Runs the workload's cells on `runner` (serial or parallel as configured)
/// and returns the distinct cells it resolved.
pub fn run_cells(workload: Workload, runner: &Runner, seed: u64) -> Result<Vec<CellKey>, String> {
    let outcomes = Outcomes::collect();
    match workload {
        Workload::QuickCold | Workload::QuickWarm => {
            run_quick_reports(runner).map_err(|err| err.to_string())?
        }
        Workload::FlickrLarge => {
            let group = Experiment::builder()
                .scale(ExperimentScale::Large)
                .dataset(DatasetKind::Flickr)
                .method(FLICKR_METHOD)
                .seed(seed)
                .build()
                .and_then(|experiment| experiment.group(runner))
                .map_err(|err| err.to_string())?;
            if let Some(err) = runner.run_cells(&group.keys).error() {
                return Err(err.to_string());
            }
        }
    }
    outcomes.finish()
}
