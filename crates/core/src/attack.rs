//! The BGC attack loop (Algorithm 1 of the paper).
//!
//! Per condensation epoch the attack (i) refreshes/trains the surrogate SGC
//! model on the current condensed graph (Eq. 16), (ii) updates the adaptive
//! trigger generator so that the surrogate misclassifies triggered computation
//! graphs into the target class (Eq. 17), (iii) attaches the current triggers
//! to the selected poisoned nodes to form the poisoned graph `G_P`, and
//! (iv) performs one gradient-matching update of the condensed graph against
//! `G_P` (Eq. 18).  The output is the poisoned condensed graph plus the
//! trained trigger generator used at inference time.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use bgc_condense::{
    CondensationKind, CondensationMethod, CondenseError, GradientMatchingState,
    IncrementalPropagation, MatchingVariant,
};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{Adam, AdjacencyRef, Optimizer};
use bgc_tensor::init::{rng_from_seed, sample_without_replacement};
use bgc_tensor::{Matrix, Tape};

use crate::attach::{attach_to_computation_graph, build_poisoned_graph, AttachedGraph};
use crate::config::BgcConfig;
use crate::error::BgcError;
use crate::selector::WorkingGraph;
use crate::trigger::TriggerGenerator;

/// Result of a BGC attack run.
pub struct BgcOutcome {
    /// The poisoned condensed graph `S` handed to the victim.
    pub condensed: CondensedGraph,
    /// The trained adaptive trigger generator `f_g` (used at test time).
    pub generator: TriggerGenerator,
    /// The poisoned node set `V_P` (indices into the working graph).
    pub poisoned_nodes: Vec<usize>,
    /// Gradient-matching loss per condensation epoch.
    pub matching_losses: Vec<f32>,
    /// Trigger-generator loss per generator update.
    pub trigger_losses: Vec<f32>,
}

/// The BGC attack (the malicious condensation service provider).
pub struct BgcAttack {
    /// Attack configuration.
    pub config: BgcConfig,
}

impl BgcAttack {
    /// Creates an attack with the given configuration.
    pub fn new(config: BgcConfig) -> Self {
        Self { config }
    }

    /// Runs the attack against one of the built-in condensation methods.
    pub fn run(&self, graph: &Graph, kind: CondensationKind) -> Result<BgcOutcome, BgcError> {
        self.run_with(graph, kind.build().as_ref())
    }

    /// Runs the attack against an arbitrary registered condensation method
    /// on the working graph of `graph` (see [`BgcAttack::run_on`]).
    pub fn run_with(
        &self,
        graph: &Graph,
        method: &dyn CondensationMethod,
    ) -> Result<BgcOutcome, BgcError> {
        self.run_on(&WorkingGraph::new(graph), method)
    }

    /// Runs the attack against `method` on `work`, selecting the poisoned
    /// nodes through its shared selector.
    ///
    /// For gradient-matching methods (those reporting a
    /// [`CondensationMethod::matching_variant`], e.g. DC-Graph, GCond,
    /// GCond-X) the trigger updates are interleaved with the condensation
    /// updates exactly as in Algorithm 1. Kernel methods like GC-SNTK have no
    /// per-epoch condensed-graph update to interleave with: the triggers are
    /// optimized against a GCond-X gradient-matching surrogate run for the
    /// same epochs, and the graph poisoned with the final triggers is then
    /// condensed once with the method itself. The method's capacity check
    /// runs before selection, so GC-SNTK above its node limit reports OOM.
    ///
    /// The poisoned graph `G_P` keeps one structure for the whole loop; only
    /// its trigger rows (the last `|V_P| · trigger_size` rows of `X`) change
    /// between epochs. So `Â^K X` is propagated in full once, and later
    /// epochs recompute only the dirty rows of each step
    /// ([`IncrementalPropagation`]): step 0's rows with a non-zero in a
    /// trigger column, step `s + 1`'s rows with a non-zero in a column dirty
    /// at step `s`. Every other row reads only unchanged inputs, and a
    /// recomputed row repeats the full product's accumulation sequence, so
    /// the representation is bit-identical to propagating `G_P` from scratch.
    ///
    /// Fails with [`BgcError::NoPoisonCandidates`] when selection finds no
    /// node to poison, e.g. a directed attack whose source class has no
    /// training nodes.
    pub fn run_on(
        &self,
        work: &WorkingGraph,
        method: &dyn CondensationMethod,
    ) -> Result<BgcOutcome, BgcError> {
        self.run_observed(work, method, &mut |_, _, _| {})
    }

    /// [`BgcAttack::run_on`], calling `observe(poisoned, trigger_features,
    /// z_real)` after each outer epoch's propagation. `poisoned` holds the
    /// structure, labels and split of `G_P` with its first epoch's features.
    fn run_observed(
        &self,
        work: &WorkingGraph,
        method: &dyn CondensationMethod,
        observe: &mut dyn FnMut(&Graph, &Matrix, &Matrix),
    ) -> Result<BgcOutcome, BgcError> {
        if work.split.train.is_empty() {
            return Err(CondenseError::NoTrainingNodes.into());
        }
        method.check_capacity(work, &self.config.condensation)?;
        let selection = work.select(&self.config)?;
        let mut rng = rng_from_seed(self.config.seed ^ 0xb6c);
        let mut generator = TriggerGenerator::with_feature_scale(
            self.config.generator,
            work.num_features(),
            self.config.hidden_dim,
            self.config.trigger_size,
            self.config.trigger_feature_scale,
            &mut rng,
        );
        let adj = AdjacencyRef::from_graph(work);
        let matching_variant = method.matching_variant().unwrap_or(MatchingVariant::GCondX);
        let mut state =
            GradientMatchingState::new(work, matching_variant, self.config.condensation.clone());
        let mut generator_opt = Adam::new(self.config.generator_lr, 0.0);
        let mut attached_cache: BTreeMap<usize, AttachedGraph> = BTreeMap::new();
        let mut matching_losses = Vec::new();
        let mut trigger_losses = Vec::new();
        // One pooled tape serves every generator update and trigger
        // materialization of the attack loop; zero-gradient fallbacks are
        // preallocated per generator parameter.
        let mut scratch_tape = Tape::new();
        let gen_zero_grads: Vec<Matrix> = generator
            .parameters()
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        // `G_P` (assembled on the first epoch) and the propagation state
        // that carries its current trigger rows.
        let mut poisoned_state: Option<(Graph, IncrementalPropagation)> = None;

        for epoch in 0..self.config.condensation.outer_epochs {
            bgc_runtime::checkpoint();
            if epoch % self.config.condensation.surrogate_resample_every == 0 {
                state.resample_surrogate();
            }
            // (i) T surrogate steps on the current condensed graph (Eq. 16).
            state.train_surrogate(self.config.surrogate_steps);
            // (ii) M trigger-generator steps (Eq. 17).
            for _ in 0..self.config.generator_steps {
                let loss = generator_update_step(
                    &self.config,
                    &mut scratch_tape,
                    &mut generator,
                    &mut generator_opt,
                    &gen_zero_grads,
                    work,
                    &adj,
                    &state.surrogate_weight,
                    &mut rng,
                    &mut attached_cache,
                );
                trigger_losses.push(loss);
            }
            // (iii) attach the updated triggers to V_P to form G_P.
            let trigger_features = generator.generate_plain_on(
                &mut scratch_tape,
                &adj,
                &work.features,
                &selection.poisoned_nodes,
            );
            let (poisoned, propagation) = poisoned_state.get_or_insert_with(|| {
                let built = build_poisoned_graph(
                    work,
                    &selection.poisoned_nodes,
                    &trigger_features,
                    self.config.trigger_size,
                    self.config.target_class,
                );
                let triggers = work.num_nodes()..built.num_nodes();
                let propagation =
                    IncrementalPropagation::new(&built, triggers, state.real_propagation_steps());
                (built, propagation)
            });
            propagation.set_changing_rows(&trigger_features);
            let z_real = propagation.representation();
            observe(poisoned, &trigger_features, z_real);
            // (iv) one condensed-graph update against G_P (Eq. 18).
            matching_losses.push(state.step_with_real_representation(poisoned, z_real));
        }

        let condensed = if method.matching_variant().is_none() {
            // Kernel methods (GC-SNTK) cannot interleave: poison the graph
            // with the final triggers and condense it with the method itself.
            let trigger_features =
                generator.generate_plain(&adj, &work.features, &selection.poisoned_nodes);
            let poisoned = build_poisoned_graph(
                work,
                &selection.poisoned_nodes,
                &trigger_features,
                self.config.trigger_size,
                self.config.target_class,
            );
            method.condense(&poisoned, &self.config.condensation)?
        } else {
            state.to_condensed()
        };

        Ok(BgcOutcome {
            condensed,
            generator,
            poisoned_nodes: selection.poisoned_nodes,
            matching_losses,
            trigger_losses,
        })
    }
}

/// One trigger-generator update step (Eq. 17): sample `V_U`, attach the
/// generated triggers to each node's computation graph, and minimize the
/// surrogate's cross-entropy towards the target class.  Shared with the GTA
/// baseline (which optimizes against a static surrogate).
///
/// `tape` is a pooled tape reused across steps (reset here); `zero_grads`
/// are preallocated per-parameter zero fallbacks aligned with
/// [`TriggerGenerator::parameters`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn generator_update_step(
    config: &BgcConfig,
    tape: &mut Tape,
    generator: &mut TriggerGenerator,
    optimizer: &mut Adam,
    zero_grads: &[Matrix],
    graph: &Graph,
    adj: &AdjacencyRef,
    surrogate_weight: &Matrix,
    rng: &mut StdRng,
    cache: &mut BTreeMap<usize, AttachedGraph>,
) -> f32 {
    let sample_size = config.update_sample_size.min(graph.num_nodes()).max(1);
    let sample = sample_without_replacement(graph.num_nodes(), sample_size, rng);
    for &node in &sample {
        cache.entry(node).or_insert_with(|| {
            attach_to_computation_graph(
                graph,
                node,
                config.trigger_size,
                config.khop,
                config.max_neighbors_per_hop,
            )
        });
    }
    tape.reset();
    let batch = generator.generate(tape, adj, &graph.features, &sample);
    let w_const = tape.leaf_detached(surrogate_weight);
    let mut total: Option<bgc_tensor::Var> = None;
    for (i, &node) in sample.iter().enumerate() {
        // Populated for every sampled node above; a (impossible) miss
        // drops the node from the batch instead of panicking.
        let attached = match cache.get(&node) {
            Some(attached) => attached.clone(),
            None => continue,
        };
        let rows: Vec<usize> = (i * config.trigger_size..(i + 1) * config.trigger_size).collect();
        let trigger_block = tape.row_select(batch.features, &rows);
        let center =
            attached.propagated_center(tape, trigger_block, config.condensation.propagation_steps);
        let logits = tape.matmul(center, w_const);
        let term = tape.softmax_cross_entropy(logits, &[config.target_class]);
        total = Some(match total {
            Some(acc) => tape.add(acc, term),
            None => term,
        });
    }
    // `sample_size` is clamped to ≥ 1, so a term always accumulates; an
    // empty batch is a no-op step rather than a panic.
    let Some(total) = total else {
        return 0.0;
    };
    let loss = tape.scale(total, 1.0 / sample.len() as f32);
    let loss_value = tape.scalar(loss);
    let grads = tape.backward(loss);
    {
        let grad_refs: Vec<&Matrix> = batch
            .param_vars
            .iter()
            .zip(zero_grads.iter())
            .map(|(&v, zero)| grads.get_or(v, zero))
            .collect();
        let mut params = generator.parameters_mut();
        optimizer.step(&mut params, &grad_refs);
    }
    tape.absorb(grads);
    loss_value
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::{DatasetKind, PoisonBudget};

    fn tiny_config() -> BgcConfig {
        let mut config = BgcConfig::quick();
        config.condensation.outer_epochs = 15;
        config.condensation.ratio = 0.2;
        config.poison_budget = PoisonBudget::Count(8);
        config.update_sample_size = 8;
        config.max_neighbors_per_hop = 6;
        config
    }

    #[test]
    fn attack_produces_condensed_graph_and_decreasing_trigger_loss() {
        let graph = DatasetKind::Cora.load_small(21);
        let work = WorkingGraph::new(&graph);
        let attack = BgcAttack::new(tiny_config());
        let outcome = attack
            .run_on(&work, CondensationKind::GCondX.build().as_ref())
            .expect("attack should run");
        assert!(outcome.condensed.num_nodes() >= graph.num_classes);
        assert_eq!(outcome.matching_losses.len(), 15);
        assert!(!outcome.trigger_losses.is_empty());
        // The trigger loss at the end should be far below the start: the
        // generator learns to flip the surrogate towards the target class.
        let first = outcome.trigger_losses[0];
        let last = *outcome.trigger_losses.last().unwrap();
        assert!(
            last < first,
            "trigger loss should decrease ({} -> {})",
            first,
            last
        );
        // Poisoned nodes never come from the target class.
        for &p in &outcome.poisoned_nodes {
            assert_ne!(work.labels[p], attack.config.target_class);
        }
    }

    #[test]
    fn incremental_representation_is_bit_identical_to_full_propagation() {
        let graph = DatasetKind::Cora.load_small(24);
        for kind in [CondensationKind::GCondX, CondensationKind::GCond] {
            for steps in 1..=3 {
                let mut config = tiny_config();
                config.condensation.outer_epochs = 4;
                config.condensation.propagation_steps = steps;
                let mut epochs = 0;
                BgcAttack::new(config)
                    .run_observed(
                        &WorkingGraph::new(&graph),
                        kind.build().as_ref(),
                        &mut |poisoned, triggers, z| {
                            // The former per-epoch path: stack the clean rows
                            // over the current triggers and propagate G_P anew.
                            let clean = poisoned.num_nodes() - triggers.rows();
                            let rows: Vec<usize> = (0..clean).collect();
                            let features = poisoned.features.select_rows(&rows).vstack(triggers);
                            let want = poisoned
                                .with_replaced_features(features)
                                .propagated_features(steps);
                            let bits = |m: &Matrix| {
                                m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(
                                bits(z),
                                bits(&want),
                                "{kind:?}, K = {steps}, epoch {epochs}"
                            );
                            epochs += 1;
                        },
                    )
                    .expect("attack should run");
                assert_eq!(epochs, 4);
            }
        }
    }

    #[test]
    fn attack_reports_oom_for_sntk_above_limit() {
        let graph = DatasetKind::Cora.load_small(22);
        let mut config = tiny_config();
        config.condensation.sntk_node_limit = 2;
        let attack = BgcAttack::new(config);
        let result = attack.run(&graph, CondensationKind::GcSntk);
        assert!(matches!(result, Err(err) if err.is_oom()));
    }

    #[test]
    fn attack_against_sntk_produces_structure_free_graph() {
        let graph = DatasetKind::Citeseer.load_small(23);
        let mut config = tiny_config();
        config.condensation.outer_epochs = 8;
        let attack = BgcAttack::new(config);
        let outcome = attack
            .run(&graph, CondensationKind::GcSntk)
            .expect("attack should run");
        assert!(!outcome.condensed.has_structure(1e-6));
    }
}
