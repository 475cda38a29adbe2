//! Poisoned-node selection (Section IV-B, Eq. 7–9).
//!
//! A selector GCN `f_sel` is trained on the original graph; its penultimate
//! representations are clustered per class with K-means, and nodes are scored
//! with `m(v) = ||h_v - h_centroid||_2 + lambda * deg(v)`, balancing
//! representativeness against the utility damage of relabelling high-degree
//! nodes.  The top-n nodes per cluster are selected, with
//! `n = Delta_P / ((C - 1) * K)`.

use std::ops::Deref;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;

use bgc_condense::working_graph;
use bgc_graph::Graph;
use bgc_nn::models::Gcn;
use bgc_nn::{train_with_plan, AdjacencyRef, TrainConfig, TrainingPlan};
use bgc_runtime::OnceMap;
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::{Matrix, Tape};

use crate::config::{BgcConfig, SelectionStrategy};
use crate::error::BgcError;
use crate::kmeans::kmeans;

/// Outcome of poisoned-node selection.
#[derive(Clone, Debug)]
pub struct SelectionResult {
    /// Selected poisoned nodes `V_P` (indices into the graph).
    pub poisoned_nodes: Vec<usize>,
    /// Per-node selection scores (lower index = selected earlier).
    pub scores: Vec<f32>,
    /// Validation-style accuracy of the selector GCN on the training split
    /// (diagnostic only).
    pub selector_train_accuracy: f32,
}

/// The graph that clean and attack stages run on (the training subgraph for
/// inductive datasets, the graph itself otherwise; see [`working_graph`])
/// plus a cache of its selector representations, keyed by `(seed,
/// hidden_dim, selector_epochs, plan)`. Owning the graph ties the cache to
/// it, so an entry is never served for another graph; concurrent callers of
/// one entry wait for one training.
pub struct WorkingGraph {
    graph: Graph,
    selectors: OnceMap<(u64, usize, usize, TrainingPlan), Representations>,
}

/// Penultimate-layer selector representations of every node plus the
/// selector's training accuracy.
type Representations = Arc<(Matrix, f32)>;

impl WorkingGraph {
    /// Derives the working graph of `graph` with an empty selector cache.
    pub fn new(graph: &Graph) -> Self {
        Self {
            graph: working_graph(graph),
            selectors: OnceMap::default(),
        }
    }

    /// Selects the poisoned node set `V_P` according to the configured
    /// strategy. Representative selection trains the selector GCN only if
    /// no earlier call with the same selector settings did.
    ///
    /// Nodes of the target class are never selected (they already carry the
    /// target label), matching the `C - 1` term of the budget formula. Fails
    /// with [`BgcError::NoPoisonCandidates`] when no node can be selected,
    /// e.g. for a directed attack whose source class has no training nodes.
    pub fn select(&self, config: &BgcConfig) -> Result<SelectionResult, BgcError> {
        let graph = &self.graph;
        let budget = config
            .poison_budget
            .resolve(graph.split.train.len())
            .min(graph.split.train.len());
        let selection = match config.selection {
            SelectionStrategy::Random => random_selection(graph, config, budget),
            SelectionStrategy::Representative => {
                representative_selection(self, config, budget, None)?
            }
            SelectionStrategy::DirectedFrom(source) => {
                representative_selection(self, config, budget, Some(source))?
            }
        };
        if selection.poisoned_nodes.is_empty() {
            return Err(BgcError::NoPoisonCandidates(format!(
                "{:?} selection found none among {} training nodes",
                config.selection,
                graph.split.train.len()
            )));
        }
        Ok(selection)
    }

    /// `(trained, shared)`: selector GCNs trained by [`WorkingGraph::select`]
    /// and selections that reused one.
    pub fn selector_counts(&self) -> (usize, usize) {
        self.selectors.counts()
    }

    fn representations(&self, config: &BgcConfig) -> Representations {
        // The selector GCN's depth is fixed at 2: adapt a shared sampled
        // plan to it instead of requiring every caller to match the fanout
        // count.
        let plan = match &config.training_plan {
            TrainingPlan::FullBatch => TrainingPlan::FullBatch,
            TrainingPlan::Sampled(sampled) => TrainingPlan::Sampled(sampled.with_depth(2)),
        };
        let key = (
            config.seed,
            config.hidden_dim,
            config.selector_epochs,
            plan.clone(),
        );
        self.selectors.get_or_compute(key, || {
            Arc::new(selector_representations(&self.graph, config, &plan))
        })
    }
}

impl Deref for WorkingGraph {
    type Target = Graph;

    fn deref(&self) -> &Graph {
        &self.graph
    }
}

/// Selects the poisoned node set `V_P` of `graph` itself (not of its working
/// graph) with a throwaway selector cache; see [`WorkingGraph::select`].
pub fn select_poisoned_nodes(
    graph: &Graph,
    config: &BgcConfig,
) -> Result<SelectionResult, BgcError> {
    let work = WorkingGraph {
        graph: graph.clone(),
        selectors: OnceMap::default(),
    };
    work.select(config)
}

/// Trains the selector GCN and returns hidden representations of every node
/// plus its training accuracy.
fn selector_representations(
    graph: &Graph,
    config: &BgcConfig,
    plan: &TrainingPlan,
) -> (Matrix, f32) {
    let adj = AdjacencyRef::from_graph(graph);
    let mut rng = rng_from_seed(config.seed ^ 0x5e1e);
    let mut gcn = Gcn::new(
        graph.num_features(),
        config.hidden_dim,
        graph.num_classes,
        2,
        &mut rng,
    );
    let train_cfg = TrainConfig {
        epochs: config.selector_epochs,
        patience: None,
        ..TrainConfig::default()
    };
    // The plan decides how the selector trains on the (possibly paper-scale)
    // original graph; `FullBatch` is byte-identical to the historical
    // `train_node_classifier` call.
    train_with_plan(&mut gcn, graph, &train_cfg, plan, config.seed ^ 0x3a1f);
    // One forward pass yields both the predictions and the hidden layer.
    let mut tape = Tape::new();
    let x = tape.const_leaf(graph.features.clone());
    let (pass, hidden) = gcn.forward_with_hidden(&mut tape, &adj, x);
    let preds = tape.value_ref(pass.logits).argmax_rows();
    let train_labels: Vec<usize> = graph.labels_of(&graph.split.train);
    let train_preds: Vec<usize> = graph.split.train.iter().map(|&i| preds[i]).collect();
    let acc = bgc_nn::accuracy(&train_preds, &train_labels);
    (tape.value_ref(hidden).clone(), acc)
}

fn random_selection(graph: &Graph, config: &BgcConfig, budget: usize) -> SelectionResult {
    let mut rng = rng_from_seed(config.seed ^ xrand_seed());
    let candidates: Vec<usize> = graph
        .split
        .train
        .iter()
        .copied()
        .filter(|&i| graph.labels[i] != config.target_class)
        .collect();
    let mut chosen = Vec::new();
    let mut pool = candidates;
    while chosen.len() < budget && !pool.is_empty() {
        let idx = rng.gen_range(0..pool.len());
        chosen.push(pool.swap_remove(idx));
    }
    SelectionResult {
        poisoned_nodes: chosen,
        scores: Vec::new(),
        selector_train_accuracy: 0.0,
    }
}

const fn xrand_seed() -> u64 {
    0x7a6d
}

fn representative_selection(
    work: &WorkingGraph,
    config: &BgcConfig,
    budget: usize,
    source_class: Option<usize>,
) -> Result<SelectionResult, BgcError> {
    let graph = &work.graph;
    // Classes eligible for poisoning.
    let classes: Vec<usize> = match source_class {
        Some(c) => vec![c],
        None => (0..graph.num_classes)
            .filter(|&c| c != config.target_class)
            .collect(),
    };
    if classes.is_empty() {
        return Err(BgcError::NoPoisonCandidates(format!(
            "no class other than the target class {} is eligible",
            config.target_class
        )));
    }
    let representations = work.representations(config);
    let (hidden, selector_acc) = &*representations;
    let degrees = graph.degrees();
    let mut rng: StdRng = rng_from_seed(config.seed ^ 0x6b6d);
    let k = config.kmeans_clusters.max(1);
    // n = Delta_P / ((C - 1) * K), at least 1 (Section IV-B).
    let per_cluster = (budget as f32 / (classes.len() * k) as f32).ceil() as usize;
    let per_cluster = per_cluster.max(1);

    let mut scored: Vec<(f32, usize)> = Vec::new();
    for &class in &classes {
        let members: Vec<usize> = graph
            .split
            .train
            .iter()
            .copied()
            .filter(|&i| graph.labels[i] == class)
            .collect();
        if members.is_empty() {
            continue;
        }
        let class_hidden = hidden.select_rows(&members);
        let clustering = kmeans(&class_hidden, k, 50, &mut rng);
        for cluster in 0..clustering.centroids.rows() {
            let mut cluster_scores: Vec<(f32, usize)> = clustering
                .members(cluster)
                .into_iter()
                .map(|local| {
                    let node = members[local];
                    let dist = clustering.distance_to_centroid(&class_hidden, local);
                    let score = dist + config.selection_lambda * degrees[node] as f32;
                    (score, node)
                })
                .collect();
            // Eq. 9 + "top-n highest scores in each cluster".
            cluster_scores
                .sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
            scored.extend(cluster_scores.into_iter().take(per_cluster));
        }
    }
    // Respect the overall budget: keep the globally highest-scoring nodes.
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(budget);
    let scores: Vec<f32> = scored.iter().map(|&(s, _)| s).collect();
    let poisoned_nodes: Vec<usize> = scored.into_iter().map(|(_, n)| n).collect();
    Ok(SelectionResult {
        poisoned_nodes,
        scores,
        selector_train_accuracy: *selector_acc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::{DatasetKind, PoisonBudget};

    fn quick_config() -> BgcConfig {
        BgcConfig {
            selector_epochs: 30,
            ..BgcConfig::quick()
        }
    }

    #[test]
    fn representative_selection_respects_budget_and_classes() {
        let graph = DatasetKind::Cora.load_small(7);
        let mut config = quick_config();
        config.poison_budget = PoisonBudget::Count(10);
        let result = select_poisoned_nodes(&graph, &config).unwrap();
        assert!(result.poisoned_nodes.len() <= 10);
        assert!(!result.poisoned_nodes.is_empty());
        for &node in &result.poisoned_nodes {
            assert_ne!(
                graph.labels[node], config.target_class,
                "target-class nodes must not be poisoned"
            );
            assert!(
                graph.split.train.contains(&node),
                "poisoned nodes come from the training split"
            );
        }
        // No duplicates.
        let unique: std::collections::HashSet<_> = result.poisoned_nodes.iter().collect();
        assert_eq!(unique.len(), result.poisoned_nodes.len());
        assert!(result.selector_train_accuracy > 0.3);
    }

    #[test]
    fn random_selection_differs_from_representative() {
        let graph = DatasetKind::Cora.load_small(8);
        let mut rep_cfg = quick_config();
        rep_cfg.poison_budget = PoisonBudget::Count(8);
        let mut rand_cfg = rep_cfg.clone();
        rand_cfg.selection = SelectionStrategy::Random;
        let rep = select_poisoned_nodes(&graph, &rep_cfg).unwrap();
        let rnd = select_poisoned_nodes(&graph, &rand_cfg).unwrap();
        assert_eq!(rnd.poisoned_nodes.len(), 8);
        assert_ne!(rep.poisoned_nodes, rnd.poisoned_nodes);
        for &node in &rnd.poisoned_nodes {
            assert_ne!(graph.labels[node], rand_cfg.target_class);
        }
    }

    #[test]
    fn directed_selection_only_uses_the_source_class() {
        let graph = DatasetKind::Citeseer.load_small(9);
        let mut config = quick_config();
        config.poison_budget = PoisonBudget::Count(6);
        config.selection = SelectionStrategy::DirectedFrom(2);
        config.target_class = 0;
        let result = select_poisoned_nodes(&graph, &config).unwrap();
        assert!(!result.poisoned_nodes.is_empty());
        for &node in &result.poisoned_nodes {
            assert_eq!(graph.labels[node], 2);
        }
    }

    #[test]
    fn selection_is_deterministic_given_seed() {
        let graph = DatasetKind::Cora.load_small(5);
        let mut config = quick_config();
        config.poison_budget = PoisonBudget::Count(6);
        let a = select_poisoned_nodes(&graph, &config).unwrap();
        let b = select_poisoned_nodes(&graph, &config).unwrap();
        assert_eq!(a.poisoned_nodes, b.poisoned_nodes);
    }
}
