//! GC-SNTK: graph condensation as kernel ridge regression (KRR) with a
//! structure-based kernel (Wang et al., WWW 2024).
//!
//! The condensed features `X'` are optimized so that a KRR model fitted on
//! `(X', Y')` predicts the training labels of the original graph well:
//!
//! ```text
//! min_{X'} || Y_train - K_tS (K_SS + lambda I)^{-1} Y' ||_F^2
//! ```
//!
//! The kernel operates on `Â^K`-propagated node representations (the
//! "structure-based" part) and uses a degree-2 polynomial lift in place of the
//! original arc-cosine NTK recursion — both are PSD kernels over propagated
//! features, and the substitution keeps the objective differentiable with the
//! operation set of `bgc-tensor` (see DESIGN.md).  The gradient flows through
//! the matrix solve via [`bgc_tensor::Tape::solve_spd`].

use std::sync::Arc;

use rand::Rng;

use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, Optimizer};
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::linalg;
use bgc_tensor::{Matrix, Tape, Var};

use crate::config::CondensationConfig;
use crate::error::CondenseError;
use crate::labels::allocate_synthetic_labels;

/// Weight of the degree-2 polynomial term of the kernel.
const POLY_WEIGHT: f32 = 0.5;

/// Plain (non-differentiable) kernel between two sets of representations.
pub fn sntk_kernel(a: &Matrix, b: &Matrix) -> Matrix {
    let lin = a.matmul_transpose(b);
    let quad = lin.hadamard(&lin);
    lin.add(&quad.scale(POLY_WEIGHT))
}

/// Differentiable kernel where `a` is a tape variable and `b` a constant.
fn kernel_var_const(tape: &mut Tape, a: Var, b: Arc<Matrix>) -> Var {
    // a (n x d) * b^T (m x d)^T runs directly on the blocked
    // `matmul_transpose` substrate (no transposes materialized on the tape).
    let lin = tape.matmul_transpose_const(a, b);
    let quad = tape.hadamard(lin, lin);
    let quad = tape.scale(quad, POLY_WEIGHT);
    tape.add(lin, quad)
}

/// Differentiable kernel between a tape variable and itself.
fn kernel_var_var(tape: &mut Tape, a: Var) -> Var {
    let a_t = tape.transpose(a);
    let lin = tape.matmul(a, a_t);
    let quad = tape.hadamard(lin, lin);
    let quad = tape.scale(quad, POLY_WEIGHT);
    tape.add(lin, quad)
}

/// A fitted KRR predictor over the SNTK kernel (the "NTK-based model" the
/// paper trains on GC-SNTK's condensed data).
#[derive(Clone, Debug)]
pub struct SntkPredictor {
    support: Matrix,
    alpha: Matrix,
    num_classes: usize,
}

impl SntkPredictor {
    /// Fits a KRR predictor on condensed representations and labels.
    pub fn fit(
        support: &Matrix,
        labels: &[usize],
        num_classes: usize,
        lambda: f32,
    ) -> Result<Self, CondenseError> {
        let y = Matrix::one_hot(labels, num_classes);
        let mut k = sntk_kernel(support, support);
        for i in 0..k.rows() {
            k.add_at(i, i, lambda.max(1e-6));
        }
        let alpha = linalg::solve_spd(&k, &y).map_err(|_| CondenseError::SingularKernel)?;
        Ok(Self {
            support: support.clone(),
            alpha,
            num_classes,
        })
    }

    /// Class scores for query representations.
    pub fn scores(&self, queries: &Matrix) -> Matrix {
        sntk_kernel(queries, &self.support).matmul(&self.alpha)
    }

    /// Predicted class per query row.
    pub fn predict(&self, queries: &Matrix) -> Vec<usize> {
        self.scores(queries).argmax_rows()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }
}

/// Runs GC-SNTK condensation on `graph`.
///
/// Returns [`CondenseError::OutOfMemory`] when the training set exceeds
/// `config.sntk_node_limit`, mirroring the OOM entries of Table II.
pub fn condense_sntk(
    graph: &Graph,
    config: &CondensationConfig,
) -> Result<CondensedGraph, CondenseError> {
    let train = &graph.split.train;
    if train.is_empty() {
        return Err(CondenseError::NoTrainingNodes);
    }
    if train.len() > config.sntk_node_limit {
        return Err(CondenseError::OutOfMemory {
            nodes: train.len(),
            limit: config.sntk_node_limit,
        });
    }
    let mut rng = rng_from_seed(config.seed ^ 0x5347_4e54);
    let n_syn = config.synthetic_nodes(train.len(), graph.num_classes);
    let syn_labels = allocate_synthetic_labels(graph, n_syn);

    // Structure-based representations of the real training nodes (constant).
    let z_real_full = graph.propagated_features(config.propagation_steps);
    let z_train = Arc::new(z_real_full.select_rows(train));
    let y_train = Arc::new(Matrix::one_hot(&graph.labels_of(train), graph.num_classes));
    let y_syn = Matrix::one_hot(&syn_labels, graph.num_classes);

    // Initialize X' from real training nodes of the matching class (in the
    // propagated representation space, since the kernel operates there).
    let mut syn_features = Matrix::zeros(syn_labels.len(), graph.num_features());
    for (i, &c) in syn_labels.iter().enumerate() {
        let candidates = graph.train_nodes_of_class(c);
        let source = candidates[rng.gen_range(0..candidates.len())];
        syn_features
            .row_mut(i)
            .copy_from_slice(z_real_full.row(source));
    }

    let mut optimizer = Adam::new(config.feature_lr, 0.0);
    // Epoch constants, recorded by reference every iteration; the tape is
    // pooled and reset rather than rebuilt.
    let ridge = Arc::new(Matrix::identity(syn_labels.len()).scale(config.krr_lambda.max(1e-4)));
    let y_syn = Arc::new(y_syn);
    let x_zero_grad = Matrix::zeros(syn_features.rows(), syn_features.cols());
    let mut tape = Tape::new();
    for _ in 0..config.outer_epochs {
        bgc_runtime::checkpoint();
        bgc_runtime::fault::fire("condense.outer");
        tape.reset();
        let x = tape.leaf_copied(&syn_features);
        let k_ss = kernel_var_var(&mut tape, x);
        let ridge_var = tape.const_leaf(ridge.clone());
        let k_reg = tape.add(k_ss, ridge_var);
        let y_syn_var = tape.const_leaf(y_syn.clone());
        let alpha = tape
            .solve_spd(k_reg, y_syn_var)
            .map_err(|_| CondenseError::SingularKernel)?;
        let k_ts = kernel_var_const(&mut tape, x, z_train.clone());
        // K_tS is (n_syn-major) ... kernel_var_const(a=x, b=z_train) gives
        // shape (n_syn x n_train); the prediction needs (n_train x n_syn).
        let k_st = tape.transpose(k_ts);
        let pred = tape.matmul(k_st, alpha);
        let loss = tape.mse_to_const(pred, y_train.clone());
        let grads = tape.backward(loss);
        optimizer.step(&mut [&mut syn_features], &[grads.get_or(x, &x_zero_grad)]);
        tape.absorb(grads);
    }

    Ok(CondensedGraph::structure_free(
        syn_features,
        syn_labels,
        graph.num_classes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;

    #[test]
    fn kernel_is_symmetric_and_psd_on_the_diagonal() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 1.0]]);
        let k = sntk_kernel(&a, &a);
        for r in 0..3 {
            assert!(k.get(r, r) >= 0.0);
            for c in 0..3 {
                assert!((k.get(r, c) - k.get(c, r)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn predictor_fits_separable_data() {
        let support = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.9, 0.1],
            vec![0.0, 1.0],
            vec![0.1, 0.9],
        ]);
        let predictor = SntkPredictor::fit(&support, &[0, 0, 1, 1], 2, 1e-3).unwrap();
        let queries = Matrix::from_rows(&[vec![0.95, 0.0], vec![0.05, 1.0]]);
        assert_eq!(predictor.predict(&queries), vec![0, 1]);
        assert_eq!(predictor.num_classes(), 2);
    }

    #[test]
    fn oom_is_reported_above_the_node_limit() {
        let graph = DatasetKind::Cora.load_small(0);
        let config = CondensationConfig {
            sntk_node_limit: 3,
            ..CondensationConfig::quick(0.1)
        };
        match condense_sntk(&graph, &config) {
            Err(CondenseError::OutOfMemory { nodes, limit }) => {
                assert_eq!(limit, 3);
                assert_eq!(nodes, graph.split.train.len());
            }
            other => panic!("expected OOM, got {:?}", other.map(|c| c.num_nodes())),
        }
    }

    #[test]
    fn sntk_condensation_produces_useful_features() {
        let graph = DatasetKind::Cora.load_small(2);
        let mut config = CondensationConfig::quick(0.2);
        config.outer_epochs = 30;
        let condensed = condense_sntk(&graph, &config).expect("condensation should succeed");
        assert!(condensed.num_nodes() >= graph.num_classes);
        assert!(!condensed.has_structure(1e-6));
        // A KRR predictor fitted on the condensed data should classify the
        // training nodes far better than chance.
        let predictor = SntkPredictor::fit(
            &condensed.features,
            &condensed.labels,
            condensed.num_classes,
            1e-2,
        )
        .unwrap();
        let z = graph.propagated_features(2);
        let train_z = z.select_rows(&graph.split.train);
        let preds = predictor.predict(&train_z);
        let labels = graph.labels_of(&graph.split.train);
        let acc = bgc_nn::accuracy(&preds, &labels);
        assert!(
            acc > 1.5 / graph.num_classes as f32,
            "KRR accuracy {} too low",
            acc
        );
    }
}
