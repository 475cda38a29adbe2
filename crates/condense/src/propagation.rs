//! Incremental `Â^K X` for a graph whose features change only on a fixed
//! range of rows.
//!
//! BGC's outer loop (Algorithm 1) propagates the poisoned graph `G_P` once
//! per epoch, but only the trigger rows of `X` change between epochs: the
//! structure is a reused template. Row `r` of `Â·Z` reads only the rows of
//! `Z` named by `r`'s non-zeros, so after the first full propagation each
//! step needs to recompute only the rows that reach a changed input row.
//! Those row sets are fixed by the structure and computed once here.

use std::ops::Range;
use std::sync::Arc;

use bgc_graph::Graph;
use bgc_tensor::{CsrMatrix, Matrix};

/// The persistent input and intermediate products of `Â^K X` for a graph
/// whose features change only on `changing` rows.
pub struct IncrementalPropagation {
    adjacency: Arc<CsrMatrix>,
    /// `X`, with the changing rows overwritten in place.
    input: Matrix,
    changing: Range<usize>,
    /// `dirty[s]`: rows of step `s`'s product with a non-zero in a column
    /// that changed in its input (the changing rows for `s = 0`, the rows of
    /// `dirty[s - 1]` after that), ascending.
    dirty: Vec<Vec<usize>>,
    /// `products[s] = Â^{s+1} X`; empty until the first propagation.
    products: Vec<Matrix>,
}

impl IncrementalPropagation {
    /// Builds the state for `steps` propagation steps over `graph`'s
    /// normalized adjacency, starting from `graph`'s features.
    ///
    /// # Panics
    /// Panics when `changing` does not lie inside the graph's node range.
    pub fn new(graph: &Graph, changing: Range<usize>, steps: usize) -> Self {
        let n = graph.num_nodes();
        assert!(
            changing.start <= changing.end && changing.end <= n,
            "changing rows {:?} out of range for {} nodes",
            changing,
            n
        );
        let adjacency = graph.normalized.clone();
        let mut changed = vec![false; n];
        changed[changing.clone()].fill(true);
        let mut dirty = Vec::with_capacity(steps);
        for _ in 0..steps {
            let rows: Vec<usize> = (0..n)
                .filter(|&r| adjacency.row_indices(r).iter().any(|&c| changed[c]))
                .collect();
            changed.fill(false);
            for &r in &rows {
                changed[r] = true;
            }
            dirty.push(rows);
        }
        Self {
            adjacency,
            input: (*graph.features).clone(),
            changing,
            dirty,
            products: Vec::new(),
        }
    }

    /// Overwrites the changing rows of the input with `rows`.
    ///
    /// # Panics
    /// Panics when `rows` does not match the changing range's shape.
    pub fn set_changing_rows(&mut self, rows: &Matrix) {
        let d = self.input.cols();
        assert_eq!(
            rows.shape(),
            (self.changing.len(), d),
            "expected {} changing rows of width {}",
            self.changing.len(),
            d
        );
        self.input.data_mut()[self.changing.start * d..self.changing.end * d]
            .copy_from_slice(rows.data());
    }

    /// `Â^K X` for the current input, bit-identical to
    /// [`Graph::propagated_features`] on a graph with these features.
    ///
    /// The first call propagates in full. Later calls recompute only the
    /// dirty rows of each step: a clean row reads only input rows that did
    /// not change, and a recomputed row repeats the full product's
    /// accumulation sequence ([`CsrMatrix::spmm_rows_into`]).
    pub fn representation(&mut self) -> &Matrix {
        if self.products.len() < self.dirty.len() {
            for _ in 0..self.dirty.len() {
                let prev = self.products.last().unwrap_or(&self.input);
                let next = self.adjacency.spmm(prev);
                self.products.push(next);
            }
        } else {
            for (s, rows) in self.dirty.iter().enumerate() {
                let (done, rest) = self.products.split_at_mut(s);
                let prev = done.last().unwrap_or(&self.input);
                self.adjacency.spmm_rows_into(rows, prev, &mut rest[0]);
            }
        }
        self.products.last().unwrap_or(&self.input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;
    use bgc_tensor::init::{randn, rng_from_seed};

    #[test]
    fn incremental_propagation_is_bit_identical_to_full_propagation() {
        let graph = DatasetKind::Cora.load_small(3);
        let n = graph.num_nodes();
        let d = graph.num_features();
        let changing = n - 12..n - 4;
        let mut rng = rng_from_seed(5);
        for steps in 0..=3 {
            let mut state = IncrementalPropagation::new(&graph, changing.clone(), steps);
            let mut features = (*graph.features).clone();
            for _ in 0..4 {
                let rows = randn(changing.len(), d, 0.0, 1.0, &mut rng);
                state.set_changing_rows(&rows);
                for (i, r) in changing.clone().enumerate() {
                    features.row_mut(r).copy_from_slice(rows.row(i));
                }
                let want = graph
                    .with_replaced_features(features.clone())
                    .propagated_features(steps);
                let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(state.representation()), bits(&want), "K = {steps}");
            }
        }
    }
}
