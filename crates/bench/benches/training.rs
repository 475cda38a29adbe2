//! Training-engine benchmark: epochs/sec and tape-buffer bytes allocated
//! per epoch for Cora-GCN training, pooled engine vs the historical
//! fresh-tape-per-epoch engine.  Results are written to
//! `BENCH_training.json` at the workspace root (`target/bench-quick/` under
//! `BENCH_QUICK=1`, see `bgc_bench::output`).
//!
//! Two gates run when the bench executes (CI runs it with `BENCH_QUICK=1`):
//!
//! * **Hard (machine-independent):** the pooled engine must reach at least
//!   80% of the fresh-tape engine's epochs/sec measured in the same run —
//!   the allocation-free engine regressing below the engine it replaced
//!   fails the bench.
//! * **Soft (machine-dependent):** the pooled epochs/sec is compared against
//!   the committed `BENCH_training.json`; a >20% regression prints a loud
//!   warning (CI hardware varies, so this does not hard-fail).

use std::fmt::Write as _;
use std::fs;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};

use bgc_graph::DatasetKind;
use bgc_nn::{Adam, AdjacencyRef, GnnArchitecture, GnnModel, Optimizer};
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::{Matrix, Tape};

const EPOCHS: usize = 60;

struct EngineRun {
    epochs_per_second: f64,
    bytes_per_epoch: f64,
}

/// One epoch of Cora-GCN training on the given tape (forward, cross-entropy,
/// backward, Adam step) — the hot loop both engines share.
#[allow(clippy::too_many_arguments)]
fn train_epoch(
    tape: &mut Tape,
    model: &mut dyn GnnModel,
    adj: &AdjacencyRef,
    features: &std::sync::Arc<Matrix>,
    train_idx: &[usize],
    train_labels: &[usize],
    zero_grads: &[Matrix],
    optimizer: &mut Adam,
) {
    let x = tape.const_leaf(features.clone());
    let pass = model.forward(tape, adj, x);
    let train_logits = tape.row_select(pass.logits, train_idx);
    let loss = tape.softmax_cross_entropy(train_logits, train_labels);
    let grads = tape.backward(loss);
    {
        let grad_refs: Vec<&Matrix> = pass
            .param_vars
            .iter()
            .zip(zero_grads.iter())
            .map(|(&v, zero)| grads.get_or(v, zero))
            .collect();
        let mut params = model.parameters_mut();
        optimizer.step(&mut params, &grad_refs);
    }
    tape.absorb(grads);
}

/// Runs `EPOCHS` epochs; `pooled` keeps one tape across epochs (resetting
/// it), the fresh mode drops and rebuilds the tape every epoch, which is the
/// pre-engine behaviour the pool replaced.
fn run_engine(pooled: bool) -> EngineRun {
    let graph = DatasetKind::Cora.load_small(0);
    let adj = AdjacencyRef::from_graph(&graph);
    let mut rng = rng_from_seed(0);
    let mut model =
        GnnArchitecture::Gcn.build(graph.num_features(), 32, graph.num_classes, 2, &mut rng);
    let train_idx = graph.split.train.clone();
    let train_labels: Vec<usize> = train_idx.iter().map(|&i| graph.labels[i]).collect();
    let zero_grads: Vec<Matrix> = model
        .parameters()
        .iter()
        .map(|p| Matrix::zeros(p.rows(), p.cols()))
        .collect();
    let mut optimizer = Adam::new(0.05, 5e-4);

    let mut tape = Tape::new();
    let mut bytes = 0usize;
    // Warm-up epoch: fills the pool (pooled mode) and the caches.
    train_epoch(
        &mut tape,
        model.as_mut(),
        &adj,
        &graph.features,
        &train_idx,
        &train_labels,
        &zero_grads,
        &mut optimizer,
    );
    if pooled {
        tape.reset();
        tape.reset_pool_stats();
    }
    let start = Instant::now();
    for _ in 0..EPOCHS {
        if pooled {
            tape.reset();
        } else {
            // Fresh-tape engine: every epoch re-allocates every buffer.
            tape = Tape::new();
        }
        train_epoch(
            &mut tape,
            model.as_mut(),
            &adj,
            &graph.features,
            &train_idx,
            &train_labels,
            &zero_grads,
            &mut optimizer,
        );
        if !pooled {
            bytes += tape.pool_stats().fresh_bytes;
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    if pooled {
        bytes = tape.pool_stats().fresh_bytes;
    }
    EngineRun {
        epochs_per_second: EPOCHS as f64 / elapsed,
        bytes_per_epoch: bytes as f64 / EPOCHS as f64,
    }
}

fn best_of(reps: usize, pooled: bool) -> EngineRun {
    let mut best = run_engine(pooled);
    for _ in 1..reps {
        let run = run_engine(pooled);
        if run.epochs_per_second > best.epochs_per_second {
            best.epochs_per_second = run.epochs_per_second;
        }
        best.bytes_per_epoch = best.bytes_per_epoch.min(run.bytes_per_epoch);
    }
    best
}

/// Reads `pooled.epochs_per_second` from a previously committed
/// `BENCH_training.json` (hand-rolled scan; the file is written by this
/// bench in a fixed format).
fn committed_epochs_per_second(text: &str) -> Option<f64> {
    let pooled_section = text.split("\"pooled\"").nth(1)?;
    let field = pooled_section.split("\"epochs_per_second\":").nth(1)?;
    field
        .trim_start()
        .split([',', '\n', '}'])
        .next()?
        .trim()
        .parse()
        .ok()
}

fn bench_training_engine(_c: &mut Criterion) {
    let reps = if bgc_bench::output::quick_mode() {
        1
    } else {
        3
    };

    let pooled = best_of(reps, true);
    let fresh = best_of(reps, false);
    let reduction = if pooled.bytes_per_epoch > 0.0 {
        fresh.bytes_per_epoch / pooled.bytes_per_epoch
    } else {
        f64::INFINITY
    };
    println!(
        "training_engine/pooled  {:.1} epochs/s  {:.0} tape bytes/epoch",
        pooled.epochs_per_second, pooled.bytes_per_epoch
    );
    println!(
        "training_engine/fresh   {:.1} epochs/s  {:.0} tape bytes/epoch",
        fresh.epochs_per_second, fresh.bytes_per_epoch
    );
    println!(
        "training_engine/allocation reduction: {:.1}x (>= 5x required)",
        reduction
    );

    // Soft gate: compare against the committed baseline before overwriting.
    if let Ok(previous) =
        fs::read_to_string(bgc_bench::output::committed_path("BENCH_training.json"))
    {
        if let Some(baseline) = committed_epochs_per_second(&previous) {
            let ratio = pooled.epochs_per_second / baseline;
            if ratio < 0.8 {
                println!(
                    "WARNING: pooled epochs/sec regressed to {:.0}% of the committed \
                     baseline ({:.1} vs {:.1}); hardware differs across machines, so this \
                     is advisory — investigate if it happened on comparable hardware",
                    ratio * 100.0,
                    pooled.epochs_per_second,
                    baseline
                );
            }
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"cora_gcn_training_60_epochs\",");
    let _ = writeln!(
        json,
        "  \"pooled\": {{\n    \"epochs_per_second\": {:.3},\n    \"tape_bytes_per_epoch\": {:.1}\n  }},",
        pooled.epochs_per_second, pooled.bytes_per_epoch
    );
    let _ = writeln!(
        json,
        "  \"fresh_tape\": {{\n    \"epochs_per_second\": {:.3},\n    \"tape_bytes_per_epoch\": {:.1}\n  }},",
        fresh.epochs_per_second, fresh.bytes_per_epoch
    );
    let _ = writeln!(
        json,
        "  \"allocation_reduction\": {}",
        if reduction.is_finite() {
            format!("{:.3}", reduction)
        } else {
            "\"inf\"".to_string()
        }
    );
    json.push('}');
    json.push('\n');
    let path = bgc_bench::output::output_path("BENCH_training.json");
    if let Err(err) = fs::write(&path, &json) {
        eprintln!("warning: could not write {}: {}", path.display(), err);
    }

    // Hard gates (machine-independent).
    assert!(
        reduction >= 5.0,
        "pooled engine must allocate >= 5x less per epoch than the fresh-tape engine \
         (got {:.2}x: {:.0} vs {:.0} bytes/epoch)",
        reduction,
        fresh.bytes_per_epoch,
        pooled.bytes_per_epoch
    );
    assert!(
        pooled.epochs_per_second >= 0.8 * fresh.epochs_per_second,
        "pooled engine regressed >20% below the fresh-tape engine it replaced \
         ({:.1} vs {:.1} epochs/sec)",
        pooled.epochs_per_second,
        fresh.epochs_per_second
    );
}

criterion_group!(benches, bench_training_engine);
criterion_main!(benches);
