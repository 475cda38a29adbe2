//! The trigger attachment operator `a(G_C^i, g_i)` (Eq. 2/4) and the
//! construction of the poisoned graph `G_P`.
//!
//! Two forms of attachment are needed:
//!
//! * **Computation-graph attachment** — for the trigger-generator update
//!   (Eq. 13/17) and for ASR evaluation, a trigger block is appended to the
//!   k-hop computation graph of a single node and the combined adjacency is
//!   re-normalized; the trigger features may be differentiable tape variables.
//! * **Full-graph attachment** — to build the poisoned graph `G_P` that the
//!   condensation step consumes (Eq. 14/18), trigger nodes are appended to
//!   the original graph, each group fully connected internally, linked to its
//!   poisoned node, labelled with the target class and added to the training
//!   split; the poisoned node itself is relabelled to the target class.

use std::sync::Arc;

use bgc_graph::{k_hop_subgraph, ComputationGraph, Graph, NeighborSampler};
use bgc_nn::{AdjacencyRef, TrainingPlan};
use bgc_tensor::{Matrix, Tape, Var};

use crate::config::BgcConfig;

/// A computation graph with an attached (fully connected) trigger block.
#[derive(Clone, Debug)]
pub struct AttachedGraph {
    /// The centre node in original-graph indexing.
    pub node: usize,
    /// Features of the computation-graph nodes (constant part of the input).
    pub sub_features: Arc<Matrix>,
    /// GCN-normalized dense adjacency of `computation graph + trigger block`.
    /// Trigger rows occupy the last `trigger_size` positions.
    pub norm_adj: Arc<Matrix>,
    /// Row index of the centre node (always 0).
    pub center: usize,
    /// Hop distance of every row from the centre over the non-zeros of
    /// `norm_adj` (see [`Matrix::hop_distances`]), cached for
    /// [`AttachedGraph::propagated_center`]. Private: it must stay the
    /// distances of `norm_adj`, and only [`AttachedGraph::new`] sets it.
    hops: Arc<[usize]>,
    /// Number of computation-graph nodes (excluding the trigger).
    pub sub_nodes: usize,
    /// Number of trigger nodes.
    pub trigger_size: usize,
}

impl AttachedGraph {
    /// Attaches a trigger block of `trigger_size` nodes to the extracted
    /// computation graph `sub` of `node`.
    fn new(node: usize, sub: ComputationGraph, trigger_size: usize) -> Self {
        let norm_adj = normalized_attached_adjacency(&sub.adjacency, trigger_size, sub.center);
        let hops = norm_adj.hop_distances(sub.center).into();
        AttachedGraph {
            node,
            sub_features: Arc::new(sub.features),
            norm_adj: Arc::new(norm_adj),
            center: sub.center,
            hops,
            sub_nodes: sub.nodes.len(),
            trigger_size,
        }
    }

    /// Total number of nodes including the trigger block.
    pub fn total_nodes(&self) -> usize {
        self.sub_nodes + self.trigger_size
    }

    /// Wraps the dense normalized adjacency for GNN forward passes.
    pub fn adjacency_ref(&self) -> AdjacencyRef {
        AdjacencyRef::Dense(self.norm_adj.clone())
    }

    /// Differentiable centre readout after `steps` propagation steps: row
    /// `center` of `norm_adjᴷ · [sub_features; trigger_features]`, the
    /// representation the surrogate classifies (see
    /// [`Tape::propagate_readout`]).
    pub fn propagated_center(&self, tape: &mut Tape, trigger_features: Var, steps: usize) -> Var {
        assert_eq!(
            tape.shape(trigger_features),
            (self.trigger_size, self.sub_features.cols()),
            "trigger feature block has the wrong shape"
        );
        tape.propagate_readout(
            self.norm_adj.clone(),
            &self.sub_features,
            trigger_features,
            self.hops.clone(),
            self.center,
            steps,
        )
    }

    /// Plain combined feature matrix for non-differentiable evaluation.
    pub fn combined_features_plain(&self, trigger_features: &Matrix) -> Matrix {
        assert_eq!(
            trigger_features.shape(),
            (self.trigger_size, self.sub_features.cols()),
            "trigger feature block has the wrong shape"
        );
        self.sub_features.vstack(trigger_features)
    }
}

/// Builds the dense, GCN-normalized adjacency of a computation graph with a
/// fully connected trigger block, every node of which links to `center`.
fn normalized_attached_adjacency(
    sub_adj: &bgc_tensor::CsrMatrix,
    trigger_size: usize,
    center: usize,
) -> Matrix {
    let n_sub = sub_adj.rows();
    let total = n_sub + trigger_size;
    let mut a = Matrix::zeros(total, total);
    for (r, c, v) in sub_adj.triplets() {
        a.set(r, c, v);
    }
    // Fully connected trigger block.
    for i in 0..trigger_size {
        for j in 0..trigger_size {
            if i != j {
                a.set(n_sub + i, n_sub + j, 1.0);
            }
        }
    }
    // Link every trigger node to the centre node (the trigger subgraph is
    // attached to v_i).
    for t in 0..trigger_size {
        a.set(center, n_sub + t, 1.0);
        a.set(n_sub + t, center, 1.0);
    }
    // Self-loops + symmetric normalization.
    for i in 0..total {
        let v = a.get(i, i);
        a.set(i, i, v + 1.0);
    }
    let deg: Vec<f32> = (0..total).map(|r| a.row(r).iter().sum()).collect();
    let inv_sqrt: Vec<f32> = deg
        .iter()
        .map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 })
        .collect();
    Matrix::from_fn(total, total, |r, c| a.get(r, c) * inv_sqrt[r] * inv_sqrt[c])
}

/// Extracts the k-hop computation graph of `node` and attaches a trigger
/// block of the given size (features to be supplied separately).
pub fn attach_to_computation_graph(
    graph: &Graph,
    node: usize,
    trigger_size: usize,
    khop: usize,
    max_per_hop: usize,
) -> AttachedGraph {
    let sub = k_hop_subgraph(graph, node, khop, Some(max_per_hop));
    AttachedGraph::new(node, sub, trigger_size)
}

/// Extracts a *sampled* computation graph of `node` (randomized,
/// fanout-capped neighbour draws through the deterministic
/// [`NeighborSampler`], one cap per hop) and attaches a trigger block — the
/// sampled-plan counterpart of [`attach_to_computation_graph`], so the
/// trigger subgraph joins the same kind of computation graph the sampled
/// training pipeline sees.  `seed` keys the neighbour draws; extraction is a
/// pure function of `(graph, node, fanouts, seed)`.
pub fn attach_to_sampled_computation_graph(
    graph: &Graph,
    node: usize,
    trigger_size: usize,
    fanouts: &[usize],
    seed: u64,
) -> AttachedGraph {
    let sampler = NeighborSampler::new(fanouts.to_vec(), seed ^ 0x47ac);
    let sub = sampler.sampled_computation_graph(graph, node);
    AttachedGraph::new(node, sub, trigger_size)
}

/// Attachment used by the ASR evaluation: full-batch plans keep the
/// historical deterministic first-k capped extraction; sampled plans route
/// through [`attach_to_sampled_computation_graph`] with the plan's fanouts.
pub fn attach_for_evaluation(
    graph: &Graph,
    node: usize,
    trigger_size: usize,
    config: &BgcConfig,
    plan: &TrainingPlan,
    seed: u64,
) -> AttachedGraph {
    match plan {
        TrainingPlan::FullBatch => attach_to_computation_graph(
            graph,
            node,
            trigger_size,
            config.khop,
            config.max_neighbors_per_hop,
        ),
        TrainingPlan::Sampled(sampled) => {
            attach_to_sampled_computation_graph(graph, node, trigger_size, &sampled.fanouts, seed)
        }
    }
}

/// Builds the poisoned graph `G_P`: appends one fully connected trigger group
/// per poisoned node (features taken from consecutive blocks of
/// `trigger_features`), links it to the poisoned node, labels everything with
/// `target_class` and adds the trigger nodes to the training split.
pub fn build_poisoned_graph(
    graph: &Graph,
    poisoned_nodes: &[usize],
    trigger_features: &Matrix,
    trigger_size: usize,
    target_class: usize,
) -> Graph {
    assert_eq!(
        trigger_features.rows(),
        poisoned_nodes.len() * trigger_size,
        "expected {} trigger rows ({} nodes x size {}), got {}",
        poisoned_nodes.len() * trigger_size,
        poisoned_nodes.len(),
        trigger_size,
        trigger_features.rows()
    );
    let n_old = graph.num_nodes();
    let new_labels = vec![target_class; trigger_features.rows()];
    let mut new_edges = Vec::new();
    let mut extra_train = Vec::new();
    for (j, &node) in poisoned_nodes.iter().enumerate() {
        let base = n_old + j * trigger_size;
        for a in 0..trigger_size {
            extra_train.push(base + a);
            // Link every trigger node of the group to its poisoned node.
            new_edges.push((node, base + a));
            // Fully connect the group.
            for b in (a + 1)..trigger_size {
                new_edges.push((base + a, base + b));
            }
        }
    }
    let relabel: Vec<(usize, usize)> = poisoned_nodes.iter().map(|&n| (n, target_class)).collect();
    graph.with_appended_nodes(
        trigger_features,
        &new_labels,
        &new_edges,
        &relabel,
        &extra_train,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;
    use bgc_tensor::init::{randn, rng_from_seed};

    #[test]
    fn attached_adjacency_is_normalized_and_contains_trigger_links() {
        let graph = DatasetKind::Cora.load_small(1);
        let node = graph.split.train[0];
        let attached = attach_to_computation_graph(&graph, node, 3, 2, 8);
        assert_eq!(attached.center, 0);
        assert_eq!(attached.total_nodes(), attached.sub_nodes + 3);
        let a = &attached.norm_adj;
        // Symmetric.
        for r in 0..attached.total_nodes() {
            for c in 0..attached.total_nodes() {
                assert!((a.get(r, c) - a.get(c, r)).abs() < 1e-5);
            }
        }
        // Centre connects to the first trigger node.
        assert!(a.get(attached.center, attached.sub_nodes) > 0.0);
        // Trigger block is fully connected.
        assert!(a.get(attached.sub_nodes, attached.sub_nodes + 1) > 0.0);
        assert!(a.get(attached.sub_nodes + 1, attached.sub_nodes + 2) > 0.0);
    }

    #[test]
    fn propagated_center_is_bit_identical_to_concat_matmul_select() {
        let graph = DatasetKind::Cora.load_small(5);
        let d = graph.num_features();
        let mut rng = rng_from_seed(3);
        let weight = randn(d, graph.num_classes, 0.0, 1.0, &mut rng);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for trigger_size in [1, 3] {
            for &node in graph.split.train.iter().take(3) {
                let attached = attach_to_computation_graph(&graph, node, trigger_size, 2, 8);
                let trigger = randn(trigger_size, d, 0.0, 1.0, &mut rng);
                for steps in 0..=3 {
                    // Value and trigger gradient through the surrogate's
                    // cross-entropy, as in the generator update.
                    let run = |fused: bool| {
                        let mut tape = Tape::new();
                        let t = tape.leaf(trigger.clone());
                        let center = if fused {
                            attached.propagated_center(&mut tape, t, steps)
                        } else {
                            let base = tape.const_leaf(attached.sub_features.clone());
                            let mut z = tape.concat_rows(base, t);
                            for _ in 0..steps {
                                z = tape.const_matmul(attached.norm_adj.clone(), z);
                            }
                            tape.row_select(z, &[attached.center])
                        };
                        let w = tape.leaf_detached(&weight);
                        let logits = tape.matmul(center, w);
                        let loss = tape.softmax_cross_entropy(logits, &[1]);
                        let value = tape.value_ref(center).clone();
                        let grads = tape.backward(loss);
                        (value, grads.get(t).expect("trigger gradient").clone())
                    };
                    let (want_v, want_g) = run(false);
                    let (got_v, got_g) = run(true);
                    let case = format!("node {node}, size {trigger_size}, K = {steps}");
                    assert_eq!(bits(&got_v), bits(&want_v), "value, {case}");
                    assert_eq!(bits(&got_g), bits(&want_g), "trigger gradient, {case}");
                }
            }
        }
    }

    #[test]
    fn poisoned_working_graph_is_its_own_working_graph_bit_for_bit() {
        use bgc_condense::working_graph;
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let entries = |a: &bgc_tensor::CsrMatrix| {
            (0..a.rows())
                .flat_map(|r| a.row_iter(r).map(move |(c, v)| (r, c, v.to_bits())))
                .collect::<Vec<_>>()
        };
        for dataset in [DatasetKind::Flickr, DatasetKind::Reddit] {
            for seed in 0..3 {
                let work = working_graph(&dataset.load_small(seed));
                let nodes = &work.split.train[..4];
                let mut rng = rng_from_seed(seed);
                let triggers = randn(nodes.len() * 2, work.num_features(), 0.0, 1.0, &mut rng);
                let poisoned = build_poisoned_graph(&work, nodes, &triggers, 2, 0);
                for graph in [&work, &poisoned] {
                    let same = working_graph(graph);
                    assert!(Arc::ptr_eq(&same.features, &graph.features));
                    assert!(Arc::ptr_eq(&same.adjacency, &graph.adjacency));
                    assert!(Arc::ptr_eq(&same.normalized, &graph.normalized));
                    let derived = graph.training_subgraph();
                    assert_eq!(bits(&derived.features), bits(&graph.features));
                    assert_eq!(entries(&derived.adjacency), entries(&graph.adjacency));
                    assert_eq!(entries(&derived.normalized), entries(&graph.normalized));
                    assert_eq!(derived.labels, graph.labels);
                    assert_eq!(derived.split, graph.split);
                }
            }
        }
    }

    #[test]
    fn combined_features_stack_in_the_right_order() {
        let graph = DatasetKind::Cora.load_small(2);
        let node = graph.split.train[1];
        let attached = attach_to_computation_graph(&graph, node, 2, 1, 8);
        let mut rng = rng_from_seed(0);
        let trig = randn(2, graph.num_features(), 0.0, 1.0, &mut rng);
        let combined = attached.combined_features_plain(&trig);
        assert_eq!(combined.rows(), attached.total_nodes());
        assert_eq!(combined.row(0), graph.features.row(node));
        assert_eq!(
            combined.row(attached.sub_nodes),
            trig.row(0),
            "trigger rows follow the computation-graph rows"
        );
    }

    #[test]
    fn poisoned_graph_has_expected_shape_and_labels() {
        let graph = DatasetKind::Cora.load_small(3);
        let poisoned: Vec<usize> = graph.split.train[..3].to_vec();
        let mut rng = rng_from_seed(1);
        let trig = randn(3 * 4, graph.num_features(), 0.0, 0.1, &mut rng);
        let gp = build_poisoned_graph(&graph, &poisoned, &trig, 4, 0);
        assert_eq!(gp.num_nodes(), graph.num_nodes() + 12);
        // Poisoned nodes are relabelled to the target class.
        for &p in &poisoned {
            assert_eq!(gp.labels[p], 0);
        }
        // Trigger nodes carry the target label and are in the training split.
        for t in graph.num_nodes()..gp.num_nodes() {
            assert_eq!(gp.labels[t], 0);
            assert!(gp.split.train.contains(&t));
        }
        // Each poisoned node gained exactly one trigger edge.
        for (j, &p) in poisoned.iter().enumerate() {
            let first_trigger = graph.num_nodes() + j * 4;
            assert!(gp.adjacency.get(p, first_trigger) > 0.0);
        }
        // The training split grew by exactly the trigger nodes.
        assert_eq!(gp.split.train.len(), graph.split.train.len() + 12);
    }

    #[test]
    #[should_panic(expected = "trigger rows")]
    fn mismatched_trigger_rows_panic() {
        let graph = DatasetKind::Cora.load_small(4);
        let poisoned: Vec<usize> = graph.split.train[..2].to_vec();
        let trig = Matrix::zeros(3, graph.num_features());
        let _ = build_poisoned_graph(&graph, &poisoned, &trig, 2, 0);
    }
}
