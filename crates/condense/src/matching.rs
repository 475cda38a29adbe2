//! Gradient-matching graph condensation (Eq. 6 of the paper), implemented as
//! a re-entrant state machine.
//!
//! The same state machine drives three things:
//!
//! * the stand-alone condensation methods DC-Graph, GCond and GCond-X
//!   ([`crate::methods`]),
//! * the *backdoored* condensation of BGC, which interleaves trigger-generator
//!   updates between condensation steps (Algorithm 1 of the paper) — the
//!   attack crate calls [`GradientMatchingState::step`] with the poisoned
//!   graph `G_P` instead of the clean graph,
//! * the surrogate SGC model `f_c` (Eq. 12/16), whose weight matrix lives in
//!   the state and is refreshed/trained here.
//!
//! # The real-graph class pass
//!
//! Every step first computes the per-class surrogate gradients on the real
//! graph, `∇_W L_c = Z_cᵀ (softmax(Z_c W) − Y_c) / n_c`. That pass reads
//! `Z`'s rows in place: each class's training nodes are listed once per
//! graph, and the class is walked [`KC`] rows at a time. Each chunk's
//! logits come from [`kernel::gemm_gather`], are turned into
//! `softmax − one-hot` in a `KC x C` scratch buffer, and
//! [`kernel::gemm_tn_gather`] accumulates the chunk into the class's
//! `d x C` gradient. No `Z_c` copy is made. The sums do not change:
//! `gemm_tn` splits its depth on `KC` boundaries anyway, so chunk-wise
//! accumulation repeats the whole product's sequence, and a row's logits
//! never depend on the other rows. The gradients are bit-identical to the
//! former `select_rows` → `matmul` → `softmax_rows` → `sub` →
//! `transpose_matmul` → `scale` chain. Classes run as parallel jobs once the
//! pass reaches [`PAR_GEMM_WORK`] multiply-adds. Each job owns its output,
//! so thread count does not change a bit, and small graphs stay serial.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use rayon::prelude::*;

use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, Optimizer};
use bgc_tensor::init::{rng_from_seed, xavier_uniform};
use bgc_tensor::kernel::{self, KC, PAR_GEMM_WORK};
use bgc_tensor::matrix::softmax_row_in_place;
use bgc_tensor::{Matrix, Tape};

use crate::config::CondensationConfig;
use crate::labels::allocate_synthetic_labels;
use crate::structure::StructureGenerator;

/// Which flavour of gradient matching to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MatchingVariant {
    /// DC adapted to graphs: raw features, structure-free condensed graph.
    DcGraph,
    /// GCond: propagated features, learned synthetic structure.
    GCond,
    /// GCond-X: propagated features, structure-free condensed graph.
    GCondX,
}

impl MatchingVariant {
    /// Whether the original features are propagated through `Â^K` before
    /// gradients are computed.
    pub fn propagates_real_features(&self) -> bool {
        !matches!(self, MatchingVariant::DcGraph)
    }

    /// Whether a synthetic structure generator is learned.
    pub fn learns_structure(&self) -> bool {
        matches!(self, MatchingVariant::GCond)
    }

    /// Display name used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            MatchingVariant::DcGraph => "DC-Graph",
            MatchingVariant::GCond => "GCond",
            MatchingVariant::GCondX => "GCond-X",
        }
    }
}

/// Preallocated buffers for the surrogate SGC training loop (Eq. 16): the
/// inner steps write into these instead of allocating per step.
struct SurrogateScratch {
    /// `Z'^T` (`d x N'`), packed once per [`GradientMatchingState::train_surrogate`] call.
    zt: Matrix,
    /// `Z' W` (`N' x C`).
    logits: Matrix,
    /// `softmax(Z' W)` (`N' x C`).
    probs: Matrix,
    /// `probs - Y'` (`N' x C`).
    diff: Matrix,
    /// `Z'^T diff / N'` (`d x C`).
    grad: Matrix,
}

/// Re-entrant gradient-matching condensation state.
pub struct GradientMatchingState {
    /// Matching flavour.
    pub variant: MatchingVariant,
    /// Hyper-parameters.
    pub config: CondensationConfig,
    /// Synthetic features `X'` (optimized).
    pub syn_features: Matrix,
    /// Synthetic labels `Y'` (fixed).
    pub syn_labels: Vec<usize>,
    /// Surrogate SGC weight `W` (`d x C`).
    pub surrogate_weight: Matrix,
    structure: Option<LearnedStructure>,
    feature_opt: Adam,
    structure_opt: Adam,
    num_classes: usize,
    rng: StdRng,
    epochs_done: usize,
    /// Pooled tape reused across every matching step (reset, not rebuilt).
    tape: Tape,
    /// Synthetic node indices per class (labels are fixed at construction).
    syn_class_indices: Vec<Vec<usize>>,
    /// Per-class one-hot targets, recorded as shared constant leaves;
    /// `None` for classes without a synthetic node.
    class_onehots: Vec<Option<Arc<Matrix>>>,
    /// One-hot `Y'` for surrogate training.
    syn_onehot: Matrix,
    /// Zero gradient fallback of `X'` (preallocated; see
    /// [`bgc_tensor::Gradients::get_or`]).
    x_zero_grad: Matrix,
    scratch: SurrogateScratch,
    /// Real training nodes per class, for the last graph stepped on.
    real_classes: Option<RealClasses>,
}

/// The learned synthetic structure of GCond, with the constants its
/// matching step records.
struct LearnedStructure {
    generator: StructureGenerator,
    /// `I_{N'}` for the self-loops (shared constant).
    identity: Arc<Matrix>,
    /// Zero gradient fallbacks of the generator's parameters.
    zero_grads: Vec<Matrix>,
}

/// The real graph's training nodes grouped by class, in split order. Kept
/// across steps and rebuilt only when the training split or its labels
/// change (BGC steps on one poisoned graph whose features alone change).
struct RealClasses {
    train: Vec<usize>,
    train_labels: Vec<usize>,
    by_class: Vec<Vec<usize>>,
}

impl RealClasses {
    fn new(graph: &Graph, num_classes: usize) -> Self {
        let train = graph.split.train.clone();
        let train_labels: Vec<usize> = train.iter().map(|&i| graph.labels[i]).collect();
        let mut by_class = vec![Vec::new(); num_classes];
        for (&node, &label) in train.iter().zip(&train_labels) {
            if let Some(nodes) = by_class.get_mut(label) {
                nodes.push(node);
            }
        }
        Self {
            train,
            train_labels,
            by_class,
        }
    }

    /// Whether `graph` has this training split with these labels.
    fn describes(&self, graph: &Graph) -> bool {
        self.train == graph.split.train
            && self
                .train
                .iter()
                .zip(&self.train_labels)
                .all(|(&node, &label)| graph.labels.get(node) == Some(&label))
    }
}

/// Surrogate gradient of one class on the real graph, `Z_cᵀ (softmax(Z_c W)
/// − Y_c) / n_c` with `Z_c` the rows `nodes` of `z` (see the module docs
/// for the chunked pass and why it is bit-identical to the matrix chain).
fn real_class_gradient(z: &Matrix, nodes: &[usize], weight: &Matrix, class: usize) -> Matrix {
    let (d, c) = (z.cols(), weight.cols());
    let mut grad = Matrix::zeros(d, c);
    let mut diff = vec![0.0f32; KC.min(nodes.len()) * c];
    for chunk in nodes.chunks(KC) {
        let diff = &mut diff[..chunk.len() * c];
        diff.fill(0.0);
        kernel::gemm_gather(chunk, d, c, z.data(), weight.data(), diff);
        for row in diff.chunks_exact_mut(c) {
            softmax_row_in_place(row);
            for (j, v) in row.iter_mut().enumerate() {
                *v -= if j == class { 1.0 } else { 0.0 };
            }
        }
        kernel::gemm_tn_gather(chunk, d, c, z.data(), diff, grad.data_mut());
    }
    grad.scale_assign(1.0 / nodes.len() as f32);
    grad
}

impl GradientMatchingState {
    /// Initializes the state from a (clean) graph: allocates synthetic labels
    /// proportionally and initializes `X'` by sampling real training nodes of
    /// the matching class, exactly as GCond does.
    pub fn new(graph: &Graph, variant: MatchingVariant, config: CondensationConfig) -> Self {
        let mut rng = rng_from_seed(config.seed);
        let n_syn = config.synthetic_nodes(graph.split.train.len(), graph.num_classes);
        let syn_labels = allocate_synthetic_labels(graph, n_syn);
        let d = graph.num_features();
        let mut syn_features = Matrix::zeros(syn_labels.len(), d);
        for (i, &c) in syn_labels.iter().enumerate() {
            let candidates = graph.train_nodes_of_class(c);
            let source = candidates[rng.gen_range(0..candidates.len())];
            syn_features
                .row_mut(i)
                .copy_from_slice(graph.features.row(source));
        }
        let generator = variant
            .learns_structure()
            .then(|| StructureGenerator::new(d, config.structure_rank, &mut rng));
        let surrogate_weight = xavier_uniform(d, graph.num_classes, &mut rng);
        let feature_opt = Adam::new(config.feature_lr, 0.0);
        let structure_opt = Adam::new(config.structure_lr, 0.0);
        let num_classes = graph.num_classes;
        let n_syn = syn_labels.len();
        let syn_class_indices: Vec<Vec<usize>> = (0..num_classes)
            .map(|class| {
                syn_labels
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| l == class)
                    .map(|(i, _)| i)
                    .collect()
            })
            .collect();
        let class_onehots: Vec<Option<Arc<Matrix>>> = syn_class_indices
            .iter()
            .enumerate()
            .map(|(class, idx)| {
                if idx.is_empty() {
                    None
                } else {
                    Some(Arc::new(Matrix::one_hot(
                        &vec![class; idx.len()],
                        num_classes,
                    )))
                }
            })
            .collect();
        let structure = generator.map(|generator| LearnedStructure {
            identity: Arc::new(Matrix::identity(n_syn)),
            zero_grads: generator
                .parameters()
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect(),
            generator,
        });
        Self {
            variant,
            config,
            syn_onehot: Matrix::one_hot(&syn_labels, num_classes),
            x_zero_grad: Matrix::zeros(n_syn, d),
            scratch: SurrogateScratch {
                zt: Matrix::zeros(d, n_syn),
                logits: Matrix::zeros(n_syn, num_classes),
                probs: Matrix::zeros(n_syn, num_classes),
                diff: Matrix::zeros(n_syn, num_classes),
                grad: Matrix::zeros(d, num_classes),
            },
            syn_features,
            syn_labels,
            surrogate_weight,
            structure,
            feature_opt,
            structure_opt,
            num_classes,
            rng,
            epochs_done: 0,
            tape: Tape::new(),
            syn_class_indices,
            class_onehots,
            real_classes: None,
        }
    }

    /// Number of synthetic nodes `N'`.
    pub fn num_synthetic(&self) -> usize {
        self.syn_labels.len()
    }

    /// Number of condensation steps performed so far.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Propagation steps of the real-graph representation: `K` for GCond /
    /// GCond-X, 0 for DC-Graph, which matches on raw features.
    pub fn real_propagation_steps(&self) -> usize {
        if self.variant.propagates_real_features() {
            self.config.propagation_steps
        } else {
            0
        }
    }

    /// Real-graph representation the gradients are computed on: raw features
    /// for DC-Graph, `Â^K X` for GCond / GCond-X.
    pub fn real_representation(&self, graph: &Graph) -> Matrix {
        graph.propagated_features(self.real_propagation_steps())
    }

    /// Draws a fresh random surrogate initialization (gradient matching is
    /// performed across many initializations).
    pub fn resample_surrogate(&mut self) {
        self.surrogate_weight = xavier_uniform(
            self.surrogate_weight.rows(),
            self.surrogate_weight.cols(),
            &mut self.rng,
        );
    }

    /// Row-normalized synthetic propagation operator `(A' + I)` (dense), using
    /// the current materialized structure; identity-based for structure-free
    /// variants.
    pub fn synthetic_propagation_matrix(&self) -> Matrix {
        let n = self.num_synthetic();
        let adj = match &self.structure {
            Some(structure) => structure.generator.materialize(&self.syn_features, 0.0),
            None => Matrix::zeros(n, n),
        };
        let mut a = adj;
        for i in 0..n {
            a.add_at(i, i, 1.0);
        }
        // Row-normalize.
        for r in 0..n {
            let sum: f32 = a.row(r).iter().sum::<f32>() + 1e-8;
            for v in a.row_mut(r) {
                *v /= sum;
            }
        }
        a
    }

    /// Propagated synthetic representation `Z' = (D^{-1}(A'+I))^K X'` as a
    /// plain matrix (used for surrogate training).
    pub fn synthetic_representation(&self) -> Matrix {
        let prop = self.synthetic_propagation_matrix();
        let mut z = self.syn_features.clone();
        for _ in 0..self.config.propagation_steps {
            z = prop.matmul(&z);
        }
        z
    }

    /// Trains the surrogate SGC weight on the current condensed graph for
    /// `steps` gradient steps (the `T` inner iterations of Eq. 16).
    ///
    /// The inner loop writes into the preallocated [`SurrogateScratch`]
    /// buffers and packs `Z'^T` once per call instead of once per step; the
    /// floating-point sequence matches the former allocating implementation.
    pub fn train_surrogate(&mut self, steps: usize) {
        let z = self.synthetic_representation();
        let n = self.syn_labels.len().max(1) as f32;
        let scratch = &mut self.scratch;
        z.transpose_into(&mut scratch.zt);
        for _ in 0..steps {
            z.matmul_into(&self.surrogate_weight, &mut scratch.logits);
            scratch.logits.softmax_rows_into(&mut scratch.probs);
            scratch.probs.sub_into(&self.syn_onehot, &mut scratch.diff);
            scratch.zt.matmul_into(&scratch.diff, &mut scratch.grad);
            scratch.grad.scale_assign(1.0 / n);
            self.surrogate_weight
                .add_scaled_assign(&scratch.grad, -self.config.surrogate_lr);
        }
    }

    /// Surrogate training loss on the current condensed graph (diagnostic).
    pub fn surrogate_loss(&self) -> f32 {
        let z = self.synthetic_representation();
        let logits = z.matmul(&self.surrogate_weight);
        let probs = logits.softmax_rows();
        let mut loss = 0.0;
        for (i, &c) in self.syn_labels.iter().enumerate() {
            loss -= (probs.get(i, c) + 1e-12).ln();
        }
        loss / self.syn_labels.len().max(1) as f32
    }

    /// Per-class surrogate gradients on the real (possibly poisoned) graph,
    /// constants during the synthetic-graph update. `None` for classes with
    /// no synthetic or no real training node. Classes run in parallel once
    /// the pass reaches [`PAR_GEMM_WORK`] multiply-adds.
    fn real_class_gradients(&mut self, graph: &Graph, z_real: &Matrix) -> Vec<Option<Arc<Matrix>>> {
        let classes = match self.real_classes.take() {
            Some(classes) if classes.describes(graph) => classes,
            _ => RealClasses::new(graph, self.num_classes),
        };
        let by_class = &classes.by_class;
        let weight = &self.surrogate_weight;
        let syn_class_indices = &self.syn_class_indices;
        let job = |class: usize| {
            let nodes = &by_class[class];
            (!nodes.is_empty() && !syn_class_indices[class].is_empty())
                .then(|| Arc::new(real_class_gradient(z_real, nodes, weight, class)))
        };
        let rows: usize = by_class.iter().map(Vec::len).sum();
        let work = rows * z_real.cols() * self.num_classes;
        let mut grads: Vec<Option<Arc<Matrix>>> = vec![None; self.num_classes];
        if work >= PAR_GEMM_WORK && rayon::current_num_threads() > 1 {
            grads
                .par_chunks_mut(1)
                .enumerate()
                .for_each(|(class, slot)| slot[0] = job(class));
        } else {
            for (class, slot) in grads.iter_mut().enumerate() {
                *slot = job(class);
            }
        }
        self.real_classes = Some(classes);
        grads
    }

    /// One outer condensation step (Eq. 18): matches per-class surrogate
    /// gradients of the synthetic graph against those of `graph` (which may be
    /// the clean graph or BGC's poisoned graph) and updates `X'` and the
    /// structure generator.  Returns the matching loss.
    pub fn step(&mut self, graph: &Graph) -> f32 {
        let z_real = self.real_representation(graph);
        self.step_with_real_representation(graph, &z_real)
    }

    /// Same as [`GradientMatchingState::step`] but with a precomputed real
    /// representation (avoids re-propagating when the caller already has it).
    /// Only `graph`'s labels and training split are read.
    pub fn step_with_real_representation(&mut self, graph: &Graph, z_real: &Matrix) -> f32 {
        assert_eq!(
            z_real.cols(),
            self.syn_features.cols(),
            "real representation feature dimension mismatch"
        );
        let real_grads = self.real_class_gradients(graph, z_real);
        self.match_gradients(real_grads)
    }

    /// The tape section of a step: matches the synthetic graph's per-class
    /// gradients against `real_grads` and updates `X'` and the structure
    /// generator. Returns the matching loss.
    fn match_gradients(&mut self, real_grads: Vec<Option<Arc<Matrix>>>) -> f32 {
        self.tape.reset();
        let x_var = self.tape.leaf_copied(&self.syn_features);
        // Synthetic representation Z' (differentiable w.r.t. X' and structure).
        let (z_syn, structure_params) = match &self.structure {
            Some(structure) => {
                let (adj, params) = structure.generator.forward(&mut self.tape, x_var);
                let identity = self.tape.const_leaf(structure.identity.clone());
                let adj_loops = self.tape.add(adj, identity);
                let prop = self.tape.row_normalize(adj_loops);
                let mut z = x_var;
                for _ in 0..self.config.propagation_steps {
                    z = self.tape.matmul(prop, z);
                }
                (z, params)
            }
            None => (x_var, Vec::new()),
        };
        let w_const = self.tape.leaf_detached(&self.surrogate_weight);

        // Per-class matching terms. A real gradient exists only for classes
        // with synthetic nodes, which are exactly the classes with a one-hot.
        let mut total: Option<bgc_tensor::Var> = None;
        let targets = real_grads.into_iter().zip(&self.class_onehots);
        for (class, target) in targets.enumerate() {
            let (Some(real_grad), Some(onehot)) = target else {
                continue;
            };
            let syn_idx = &self.syn_class_indices[class];
            let zc = self.tape.row_select(z_syn, syn_idx);
            let logits = self.tape.matmul(zc, w_const);
            let probs = self.tape.softmax_rows(logits);
            let onehot = self.tape.const_leaf(onehot.clone());
            let diff = self.tape.sub(probs, onehot);
            let zc_t = self.tape.transpose(zc);
            let grad_syn = self.tape.matmul(zc_t, diff);
            let grad_syn = self.tape.scale(grad_syn, 1.0 / syn_idx.len() as f32);
            let term = self.tape.cosine_match_to_const(grad_syn, real_grad);
            total = Some(match total {
                Some(acc) => self.tape.add(acc, term),
                None => term,
            });
        }
        let total = match total {
            Some(t) => t,
            None => return 0.0,
        };
        let loss_value = self.tape.scalar(total);
        let grads = self.tape.backward(total);

        // Update X'.
        let x_grad = grads.get_or(x_var, &self.x_zero_grad);
        self.feature_opt
            .step(&mut [&mut self.syn_features], &[x_grad]);
        // Update the structure generator (if any).
        if let Some(structure) = &mut self.structure {
            let grad_refs: Vec<&Matrix> = structure_params
                .iter()
                .zip(&structure.zero_grads)
                .map(|(&v, zero)| grads.get_or(v, zero))
                .collect();
            let mut params = structure.generator.parameters_mut();
            self.structure_opt.step(&mut params, &grad_refs);
        }
        self.tape.absorb(grads);
        self.epochs_done += 1;
        loss_value
    }

    /// Materializes the current condensed graph `S = {A', X', Y'}`.
    pub fn to_condensed(&self) -> CondensedGraph {
        match &self.structure {
            Some(structure) => {
                let adj = structure
                    .generator
                    .materialize(&self.syn_features, self.config.structure_threshold);
                CondensedGraph::new(
                    self.syn_features.clone(),
                    adj,
                    self.syn_labels.clone(),
                    self.num_classes,
                )
            }
            None => CondensedGraph::structure_free(
                self.syn_features.clone(),
                self.syn_labels.clone(),
                self.num_classes,
            ),
        }
    }

    /// Runs the full condensation loop on a single (clean or poisoned) graph:
    /// resample/train the surrogate, then one matching step, for
    /// `config.outer_epochs` iterations.
    ///
    /// The real-graph representation is fixed across the loop, so it is
    /// propagated once up front instead of once per epoch.
    pub fn run(&mut self, graph: &Graph) -> Vec<f32> {
        let z_real = self.real_representation(graph);
        let mut losses = Vec::with_capacity(self.config.outer_epochs);
        for epoch in 0..self.config.outer_epochs {
            bgc_runtime::checkpoint();
            bgc_runtime::fault::fire("condense.outer");
            if epoch % self.config.surrogate_resample_every == 0 {
                self.resample_surrogate();
            }
            self.train_surrogate(self.config.surrogate_steps);
            losses.push(self.step_with_real_representation(graph, &z_real));
        }
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;

    fn quick_state(variant: MatchingVariant) -> (Graph, GradientMatchingState) {
        let graph = DatasetKind::Cora.load_small(1);
        let config = CondensationConfig::quick(0.1);
        let state = GradientMatchingState::new(&graph, variant, config);
        (graph, state)
    }

    /// The former per-class chain: copy `Z_c`, then `matmul` →
    /// `softmax_rows` → `sub` → `transpose_matmul` → `scale`.
    fn select_rows_chain(z: &Matrix, nodes: &[usize], weight: &Matrix, class: usize) -> Matrix {
        let zc = z.select_rows(nodes);
        let y = Matrix::one_hot(&vec![class; nodes.len()], weight.cols());
        let diff = zc.matmul(weight).softmax_rows().sub(&y);
        zc.transpose_matmul(&diff).scale(1.0 / nodes.len() as f32)
    }

    /// The former gradients of every class, `None` where either side has
    /// no node of the class.
    fn select_rows_gradients(
        state: &GradientMatchingState,
        graph: &Graph,
        z: &Matrix,
    ) -> Vec<Option<Arc<Matrix>>> {
        (0..state.num_classes)
            .map(|class| {
                let nodes: Vec<usize> = graph
                    .split
                    .train
                    .iter()
                    .copied()
                    .filter(|&i| graph.labels[i] == class)
                    .collect();
                (!nodes.is_empty() && !state.syn_class_indices[class].is_empty())
                    .then(|| Arc::new(select_rows_chain(z, &nodes, &state.surrogate_weight, class)))
            })
            .collect()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn class_gradients_are_bit_identical_to_the_select_rows_chain() {
        let mut rng = rng_from_seed(5);
        for &classes in &[2usize, 6, 7, 8, 41] {
            for &d in &[5usize, 37] {
                let z = bgc_tensor::init::randn(400, d, 0.0, 1.0, &mut rng);
                let weight = xavier_uniform(d, classes, &mut rng);
                for &size in &[1usize, 3, 128, 129, 300] {
                    let nodes: Vec<usize> = (0..size).map(|i| (i * 131 + 7) % 400).collect();
                    let class = size % classes;
                    let got = real_class_gradient(&z, &nodes, &weight, class);
                    let want = select_rows_chain(&z, &nodes, &weight, class);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "C = {classes}, d = {d}, n_c = {size}"
                    );
                }
            }
        }
    }

    #[test]
    fn class_pass_is_bit_identical_with_an_empty_class_and_a_changed_graph() {
        let (graph, mut state) = quick_state(MatchingVariant::GCondX);
        // Drop every training node of class 0: its gradient must be absent.
        let mut without_zero = graph.clone();
        without_zero.split.train.retain(|&i| graph.labels[i] != 0);
        let z = state.real_representation(&graph);
        for g in [&graph, &without_zero, &graph] {
            let got = state.real_class_gradients(g, &z);
            let want = select_rows_gradients(&state, g, &z);
            assert_eq!(got.len(), want.len());
            for (class, (got, want)) in got.iter().zip(&want).enumerate() {
                match (got, want) {
                    (Some(got), Some(want)) => assert_eq!(bits(got), bits(want), "class {class}"),
                    (None, None) => {}
                    _ => panic!("class {class}: presence differs"),
                }
            }
            assert_eq!(got[0].is_none(), std::ptr::eq(g, &without_zero));
        }
    }

    #[test]
    fn run_is_bit_identical_to_the_select_rows_chain() {
        // Full-size Cora's class pass (140 x 1433 x 7 multiply-adds) is
        // above PAR_GEMM_WORK, so multi-core machines run its classes in
        // parallel; the small graph stays serial.
        let small = DatasetKind::Cora.load_small(3);
        let full = DatasetKind::Cora.load(3);
        for (variant, graph) in [
            (MatchingVariant::DcGraph, &small),
            (MatchingVariant::GCond, &small),
            (MatchingVariant::GCondX, &small),
            (MatchingVariant::GCondX, &full),
        ] {
            let mut config = CondensationConfig::quick(0.1);
            config.outer_epochs = 6;
            let mut state = GradientMatchingState::new(graph, variant, config.clone());
            let losses = state.run(graph);

            // The former loop, with the former per-class chain.
            let mut reference = GradientMatchingState::new(graph, variant, config.clone());
            let z = reference.real_representation(graph);
            let mut want = Vec::new();
            for epoch in 0..config.outer_epochs {
                if epoch % config.surrogate_resample_every == 0 {
                    reference.resample_surrogate();
                }
                reference.train_surrogate(config.surrogate_steps);
                let grads = select_rows_gradients(&reference, graph, &z);
                want.push(reference.match_gradients(grads));
            }
            let loss_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(loss_bits(&losses), loss_bits(&want), "{}", variant.name());
            let (got, want) = (state.to_condensed(), reference.to_condensed());
            assert_eq!(
                bits(&got.features),
                bits(&want.features),
                "{}",
                variant.name()
            );
            assert_eq!(
                bits(&got.adjacency),
                bits(&want.adjacency),
                "{}",
                variant.name()
            );
        }
    }

    #[test]
    fn initialization_matches_label_allocation() {
        let (graph, state) = quick_state(MatchingVariant::GCond);
        assert_eq!(state.num_synthetic(), state.syn_labels.len());
        assert!(state.num_synthetic() >= graph.num_classes);
        assert_eq!(state.syn_features.cols(), graph.num_features());
        // Features were copied from real nodes, hence have unit-ish norm.
        assert!(state.syn_features.frobenius_norm() > 0.0);
    }

    #[test]
    fn matching_step_reduces_loss() {
        let (graph, mut state) = quick_state(MatchingVariant::GCondX);
        state.train_surrogate(5);
        let first = state.step(&graph);
        let mut last = first;
        for _ in 0..30 {
            last = state.step(&graph);
        }
        assert!(
            last < first,
            "matching loss should decrease: {} -> {}",
            first,
            last
        );
        assert_eq!(state.epochs_done(), 31);
    }

    #[test]
    fn structure_variant_materializes_structure() {
        let (graph, mut state) = quick_state(MatchingVariant::GCond);
        state.train_surrogate(3);
        for _ in 0..5 {
            state.step(&graph);
        }
        let condensed = state.to_condensed();
        assert_eq!(condensed.num_nodes(), state.num_synthetic());
        // Adjacency is symmetric.
        for r in 0..condensed.num_nodes() {
            for c in 0..condensed.num_nodes() {
                let a = condensed.adjacency.get(r, c);
                let b = condensed.adjacency.get(c, r);
                assert!((a - b).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn structure_free_variants_have_identity_adjacency() {
        for variant in [MatchingVariant::DcGraph, MatchingVariant::GCondX] {
            let (_, state) = quick_state(variant);
            let condensed = state.to_condensed();
            assert!(
                !condensed.has_structure(1e-6),
                "{} must be structure-free",
                variant.name()
            );
        }
    }

    #[test]
    fn surrogate_training_reduces_surrogate_loss() {
        let (_, mut state) = quick_state(MatchingVariant::GCondX);
        let before = state.surrogate_loss();
        state.train_surrogate(30);
        let after = state.surrogate_loss();
        assert!(
            after < before,
            "surrogate loss should decrease: {} -> {}",
            before,
            after
        );
    }

    #[test]
    fn dc_graph_uses_raw_features() {
        let (graph, state) = quick_state(MatchingVariant::DcGraph);
        let repr = state.real_representation(&graph);
        assert!(repr.approx_eq(&graph.features, 0.0));
        let (graph, state) = quick_state(MatchingVariant::GCond);
        let repr = state.real_representation(&graph);
        assert!(!repr.approx_eq(&graph.features, 1e-6));
    }
}
