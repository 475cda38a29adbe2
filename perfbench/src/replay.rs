//! Replays a workload's cells through each layer's public functions, with a
//! span around every call.  It recomputes what the runner computes for a
//! cell — dataset, clean condensation, attack, victim evaluation — shares
//! stages the same way (by condensation and attack config canon), and
//! persists stage artifacts in its own artifact store.  Every replayed cell
//! must reproduce the runner's result bit for bit.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;

use bgc_condense::resolve_condenser;
use bgc_core::{
    asr_sample_nodes, attach_for_evaluation, evaluate_backdoor, resolve_attack,
    select_poisoned_nodes, AttackKind, BgcConfig, BgcError, EvaluationOptions, TriggerProvider,
    VictimSpec,
};
use bgc_defense::{resolve_defense, Defense};
use bgc_eval::artifact_codec;
use bgc_eval::{
    attack_stage, clean_stage, AttackArtifacts, CellKey, CellResult, EvalKind, ExperimentScale,
    Runner,
};
use bgc_graph::{CondensedGraph, Graph};
use bgc_nn::{accuracy, attack_success_rate, train_on_condensed, AdjacencyRef};
use bgc_store::{KeyBuilder, Store, StoreKey};
use bgc_tensor::init::rng_from_seed;
use bgc_tensor::Matrix;

use crate::trace::Tracer;

/// Code epoch of the replay's own store keys.
const REPLAY_KEY_EPOCH: u32 = 1;

type Stage<T> = Result<T, BgcError>;

pub struct Replay<'a> {
    scale: ExperimentScale,
    tracer: &'a Tracer,
    store: Arc<Store>,
    graphs: BTreeMap<(String, u64), Arc<Graph>>,
    cleans: BTreeMap<String, Stage<Arc<CondensedGraph>>>,
    attacks: BTreeMap<String, Stage<AttackArtifacts>>,
    /// Attack stages whose victim was trained by the victim probe.
    victims_trained: BTreeSet<String>,
    /// A standard cell's inputs, kept for the defense probe.
    last_standard: Option<(CellKey, String)>,
    defended_cells: usize,
    written: Vec<(StoreKey, Vec<u8>, bool)>,
}

impl<'a> Replay<'a> {
    pub fn new(scale: ExperimentScale, tracer: &'a Tracer, store_root: &Path) -> Self {
        Replay {
            scale,
            tracer,
            store: Store::open(store_root),
            graphs: BTreeMap::new(),
            cleans: BTreeMap::new(),
            attacks: BTreeMap::new(),
            victims_trained: BTreeSet::new(),
            last_standard: None,
            defended_cells: 0,
            written: Vec::new(),
        }
    }

    /// Drops every in-memory stage, so the next pass starts like a fresh
    /// process on the same store.
    pub fn forget_stages(&mut self) {
        self.graphs.clear();
        self.cleans.clear();
        self.attacks.clear();
        self.victims_trained.clear();
        self.written.clear();
    }

    /// Replays every cell and checks each result against `runner`'s.
    pub fn pass(&mut self, keys: &[CellKey], runner: &Runner) -> Result<(), String> {
        for key in keys {
            let expected = runner.result(key).map_err(|e| e.to_string())?;
            let got = self
                .cell(key)
                .map_err(|e| format!("replaying {}: {e}", key.canon()))?;
            if !same_result(&got, &expected) {
                return Err(format!(
                    "replay of {} gave {got:?}, the runner {expected:?}",
                    key.canon()
                ));
            }
        }
        Ok(())
    }

    /// The largest generated graph (the per-layer probes run on it).
    pub fn largest_graph(&self) -> Option<Arc<Graph>> {
        self.graphs.values().max_by_key(|g| g.num_nodes()).cloned()
    }

    fn graph(&mut self, key: &CellKey) -> Arc<Graph> {
        let memo = (key.dataset.name().to_string(), key.seed());
        if let Some(graph) = self.graphs.get(&memo) {
            return graph.clone();
        }
        let graph = {
            let _span = self.tracer.span("graph.generate");
            Arc::new(self.scale.load(key.dataset, key.seed()))
        };
        self.graphs.insert(memo, graph.clone());
        graph
    }

    fn cell(&mut self, key: &CellKey) -> Result<CellResult, BgcError> {
        let attack = resolve_attack(key.attack.as_str())
            .ok_or_else(|| BgcError::UnknownAttack(key.attack.to_string()))?;
        let method = resolve_condenser(key.method.as_str())
            .ok_or_else(|| BgcError::UnknownMethod(key.method.to_string()))?;
        let defense = match &key.eval {
            EvalKind::Standard => None,
            EvalKind::Defended(id) => Some(
                resolve_defense(id.as_str())
                    .ok_or_else(|| BgcError::UnknownDefense(id.to_string()))?,
            ),
        };
        let graph = self.graph(key);
        let seed = key.seed();
        let mut config = self.scale.bgc_config(key.dataset, key.ratio(), seed);
        let mut victim = self.scale.victim_spec_for(key.dataset);
        let mut options = self.scale.evaluation_options_for(key.dataset, seed);
        key.overrides.apply(&mut config, &mut victim, &mut options);

        let stage_prefix = format!(
            "{}|{}|{}|{}",
            self.scale.name(),
            key.dataset.name(),
            seed,
            key.method
        );
        let needs_clean = key.eval == EvalKind::Standard || attack.needs_clean_reference();
        let clean = if needs_clean {
            let clean_key = format!("{stage_prefix}|{}", config.condensation.canon());
            if !self.cleans.contains_key(&clean_key) {
                let store_key = KeyBuilder::new("replay-clean", REPLAY_KEY_EPOCH)
                    .field("stage", &clean_key)
                    .build();
                let outcome = match self.read(&store_key, artifact_codec::decode_condensed) {
                    Some(clean) => Ok(Arc::new(clean)),
                    None => {
                        let computed = {
                            let _span = self.tracer.span("condense.clean");
                            clean_stage(&graph, method.as_ref(), &config).map(Arc::new)
                        };
                        if let Ok(clean) = &computed {
                            let bytes = {
                                let _span = self.tracer.span("store.encode");
                                artifact_codec::encode_condensed(clean)
                            };
                            self.write(store_key, bytes, false)?;
                        }
                        computed
                    }
                };
                self.cleans.insert(clean_key.clone(), outcome);
            }
            match &self.cleans[&clean_key] {
                Ok(clean) => Some(clean.clone()),
                Err(err) if err.is_oom() => return Ok(oom_result()),
                Err(err) => return Err(err.clone()),
            }
        } else {
            None
        };

        let attack_key = format!("{stage_prefix}|{}|{}", key.attack, config.canon());
        if !self.attacks.contains_key(&attack_key) {
            let store_key = KeyBuilder::new("replay-attack", REPLAY_KEY_EPOCH)
                .field("stage", &attack_key)
                .field("clean", needs_clean && attack.needs_clean_reference())
                .build();
            let outcome = match self.read(&store_key, artifact_codec::decode_attack) {
                Some(artifacts) => Ok(artifacts),
                None => {
                    if key.attack.as_str() == AttackKind::Bgc.name() {
                        // The BGC attack selects its poisoned nodes first;
                        // the same call on its own times that step.
                        let _span = self.tracer.probe("core.select");
                        select_poisoned_nodes(&graph, &config);
                    }
                    let computed = {
                        let _span = self.tracer.span("core.attack");
                        attack_stage(
                            attack.as_ref(),
                            method.as_ref(),
                            &graph,
                            &config,
                            clean.as_deref(),
                        )
                    };
                    if let Ok(artifacts) = &computed {
                        let bytes = {
                            let _span = self.tracer.span("store.encode");
                            artifact_codec::encode_attack(artifacts)
                        };
                        if let Some(bytes) = bytes {
                            self.write(store_key, bytes, true)?;
                        }
                    }
                    computed
                }
            };
            self.attacks.insert(attack_key.clone(), outcome);
        }
        let artifacts = match &self.attacks[&attack_key] {
            Ok(artifacts) => artifacts.clone(),
            Err(err) if err.is_oom() => return Ok(oom_result()),
            Err(err) => return Err(err.clone()),
        };
        if self.victims_trained.insert(attack_key.clone()) {
            // Victim training on its own: the evaluation below trains the
            // same victim inside `evaluate_backdoor`.
            let _span = self.tracer.probe("nn.victim_train");
            let mut rng = rng_from_seed(options.seed);
            let mut model = victim.architecture.build(
                graph.num_features(),
                victim.hidden_dim,
                graph.num_classes,
                victim.num_layers,
                &mut rng,
            );
            train_on_condensed(model.as_mut(), &artifacts.condensed, &victim.train);
        }

        match defense {
            None => {
                let clean = clean.ok_or_else(|| BgcError::MissingCleanReference {
                    attack: key.attack.as_str().to_string(),
                })?;
                // The runner evaluates the clean reference with the same
                // function as the backdoored condensation.
                let _span = self.tracer.span("core.evaluate");
                let provider = artifacts.provider.as_ref();
                let backdoored = evaluate_backdoor(
                    &graph,
                    &artifacts.condensed,
                    provider,
                    &config,
                    &victim,
                    &options,
                );
                let reference =
                    evaluate_backdoor(&graph, &clean, provider, &config, &victim, &options);
                self.last_standard = Some((key.clone(), attack_key));
                Ok(CellResult {
                    c_cta: reference.cta,
                    cta: backdoored.cta,
                    c_asr: reference.asr,
                    asr: backdoored.asr,
                    asr_nodes: backdoored.asr_nodes,
                    oom: false,
                })
            }
            Some(defense) => {
                self.defended_cells += 1;
                let _span = self.tracer.span("defense.eval");
                let (cta, asr, asr_nodes) = defended_evaluation(
                    &graph,
                    &artifacts.condensed,
                    defense.as_ref(),
                    artifacts.provider.as_ref(),
                    &config,
                    &victim,
                    &options,
                );
                Ok(CellResult {
                    c_cta: 0.0,
                    cta,
                    c_asr: 0.0,
                    asr,
                    asr_nodes,
                    oom: false,
                })
            }
        }
    }

    /// Reads and decodes one stage artifact; `None` on a miss.
    fn read<T>(&self, key: &StoreKey, decode: impl Fn(&[u8]) -> Option<T>) -> Option<T> {
        let bytes = {
            let _span = self.tracer.span("store.read");
            self.store.read_artifact(key).ok().flatten()?
        };
        self.tracer.count("store.read_bytes", bytes.len() as f64);
        let _span = self.tracer.span("store.decode");
        decode(&bytes)
    }

    fn write(&mut self, key: StoreKey, bytes: Vec<u8>, attack: bool) -> Result<(), BgcError> {
        {
            let _span = self.tracer.span("store.write");
            self.store
                .write_artifact(&key, &bytes)
                .map_err(|e| BgcError::invalid(format!("store write: {e}")))?;
        }
        self.tracer.count("store.write_bytes", bytes.len() as f64);
        self.written.push((key, bytes, attack));
        Ok(())
    }

    /// Measures layers the replayed pass left idle, so every per-layer
    /// metric is a measurement: a pass that wrote artifacts but read none
    /// reads each one back and checks it decodes to the bytes written; a
    /// workload without defended cells evaluates its last standard cell
    /// through the prune defense.
    pub fn probe_idle_layers(&mut self) -> Result<(), String> {
        if self.tracer.total("store.decode") == 0.0 {
            for (key, written, attack) in std::mem::take(&mut self.written) {
                let bytes = {
                    let _span = self.tracer.probe("store.read");
                    self.store.read_artifact(&key)?
                }
                .ok_or_else(|| format!("artifact {} vanished", key.canon()))?;
                self.tracer.count("store.read_bytes", bytes.len() as f64);
                let round_trip = {
                    let _span = self.tracer.probe("store.decode");
                    if attack {
                        artifact_codec::decode_attack(&bytes)
                            .and_then(|a| artifact_codec::encode_attack(&a))
                    } else {
                        artifact_codec::decode_condensed(&bytes)
                            .map(|g| artifact_codec::encode_condensed(&g))
                    }
                };
                if round_trip.as_deref() != Some(written.as_slice()) {
                    return Err(format!("artifact {} does not round-trip", key.canon()));
                }
            }
        }
        if self.defended_cells == 0 {
            let (key, attack_key) = self
                .last_standard
                .clone()
                .ok_or("no standard cell to evaluate through a defense")?;
            let Some(Ok(artifacts)) = self.attacks.get(&attack_key).cloned() else {
                return Err("the standard cell's attack stage is missing".to_string());
            };
            let defense = resolve_defense("prune").ok_or("the prune defense is not registered")?;
            let graph = self.graph(&key);
            let seed = key.seed();
            let mut config = self.scale.bgc_config(key.dataset, key.ratio(), seed);
            let mut victim = self.scale.victim_spec_for(key.dataset);
            let mut options = self.scale.evaluation_options_for(key.dataset, seed);
            key.overrides.apply(&mut config, &mut victim, &mut options);
            let _span = self.tracer.probe("defense.eval");
            defended_evaluation(
                &graph,
                &artifacts.condensed,
                defense.as_ref(),
                artifacts.provider.as_ref(),
                &config,
                &victim,
                &options,
            );
        }
        Ok(())
    }
}

fn oom_result() -> CellResult {
    CellResult {
        c_cta: 0.0,
        cta: 0.0,
        c_asr: 0.0,
        asr: 0.0,
        asr_nodes: 0,
        oom: true,
    }
}

fn same_result(a: &CellResult, b: &CellResult) -> bool {
    a.c_cta.to_bits() == b.c_cta.to_bits()
        && a.cta.to_bits() == b.cta.to_bits()
        && a.c_asr.to_bits() == b.c_asr.to_bits()
        && a.asr.to_bits() == b.asr.to_bits()
        && a.asr_nodes == b.asr_nodes
        && a.oom == b.oom
}

/// A defended cell's evaluation, as the runner performs it: the victim
/// trains on the defense-sanitized condensation and predicts through the
/// defense's hook.
fn defended_evaluation(
    graph: &Graph,
    condensed: &CondensedGraph,
    defense: &dyn Defense,
    provider: &dyn TriggerProvider,
    config: &BgcConfig,
    victim: &VictimSpec,
    options: &EvaluationOptions,
) -> (f32, f32, usize) {
    let sanitized = defense.sanitize(condensed);
    let mut init_rng = rng_from_seed(options.seed ^ 0x5107);
    let mut model = victim.architecture.build(
        graph.num_features(),
        victim.hidden_dim,
        graph.num_classes,
        victim.num_layers,
        &mut init_rng,
    );
    train_on_condensed(model.as_mut(), &sanitized, &victim.train);
    let predict = |adj: &AdjacencyRef, features: &Matrix| -> Vec<usize> {
        defense
            .predict(model.as_ref(), adj, features, graph.num_classes)
            .unwrap_or_else(|| model.predict(adj, features))
    };
    let full_adj = AdjacencyRef::from_graph(graph);
    let preds = predict(&full_adj, &graph.features);
    let test_preds: Vec<usize> = graph.split.test.iter().map(|&i| preds[i]).collect();
    let cta = accuracy(&test_preds, &graph.labels_of(&graph.split.test));
    let sample = asr_sample_nodes(graph, options, config.target_class);
    let triggered: Vec<usize> = sample
        .iter()
        .map(|&node| {
            let attached = attach_for_evaluation(
                graph,
                node,
                provider.trigger_size(),
                config,
                &options.plan,
                options.seed,
            );
            let trigger = provider.trigger_for(&full_adj, &graph.features, node);
            let features = attached.combined_features_plain(&trigger);
            predict(&attached.adjacency_ref(), &features)[attached.center]
        })
        .collect();
    let asr = attack_success_rate(&triggered, config.target_class);
    (cta, asr, sample.len())
}
