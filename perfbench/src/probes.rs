//! Per-layer probes on the workload's largest graph: one epoch of neighbour
//! sampling, and sampled and full-batch training through `train_with_plan`.

use std::time::Instant;

use bgc_graph::{mix_seed, Graph, NeighborSampler};
use bgc_nn::{train_with_plan, GnnArchitecture, SampledPlan, TrainConfig, TrainingPlan};
use bgc_tensor::init::rng_from_seed;

use crate::trace::Tracer;

/// Fanouts and batch size of the sampled probes (the large tier's plan).
const FANOUTS: [usize; 2] = [10, 10];
const BATCH: usize = 1024;
/// Training nodes each training probe processes at least (whole epochs).
const TRAIN_NODES: usize = 100_000;

pub struct LayerProbes {
    pub sample_s: f64,
    pub sampled_targets: f64,
    pub sampled_train_nodes_per_s: f64,
    pub full_train_nodes_per_s: f64,
}

pub fn run(tracer: &Tracer, graph: &Graph, seed: u64) -> LayerProbes {
    let mut train = graph.split.train.clone();
    train.sort_unstable();

    let sampler = NeighborSampler::new(FANOUTS.to_vec(), seed);
    let started = Instant::now();
    {
        let _span = tracer.probe("graph.sample");
        for (index, batch) in train.chunks(BATCH).enumerate() {
            let sampled = sampler.sample(&graph.normalized, batch, mix_seed(&[0, index as u64]));
            std::hint::black_box(sampled);
        }
    }
    let sample_s = started.elapsed().as_secs_f64();

    let sampled = TrainingPlan::Sampled(SampledPlan {
        fanouts: FANOUTS.to_vec(),
        batch_size: BATCH,
    });
    let epochs = TRAIN_NODES.div_ceil(train.len().max(1)).max(2);
    let sampled_rate = {
        let _span = tracer.probe("nn.train_sampled");
        train_rate(graph, &sampled, epochs, seed)
    };
    let full_rate = {
        let _span = tracer.probe("nn.train_full");
        train_rate(graph, &TrainingPlan::FullBatch, epochs, seed)
    };
    LayerProbes {
        sample_s,
        sampled_targets: train.len() as f64,
        sampled_train_nodes_per_s: sampled_rate,
        full_train_nodes_per_s: full_rate,
    }
}

/// Training nodes per second of a two-layer GCN trained for `epochs`.
fn train_rate(graph: &Graph, plan: &TrainingPlan, epochs: usize, seed: u64) -> f64 {
    let mut rng = rng_from_seed(seed);
    let mut model =
        GnnArchitecture::Gcn.build(graph.num_features(), 32, graph.num_classes, 2, &mut rng);
    let config = TrainConfig {
        epochs,
        patience: None,
        ..TrainConfig::quick()
    };
    let started = Instant::now();
    let report = train_with_plan(model.as_mut(), graph, &config, plan, seed);
    let elapsed = started.elapsed().as_secs_f64();
    (graph.split.train.len() * report.epochs_run) as f64 / elapsed
}
