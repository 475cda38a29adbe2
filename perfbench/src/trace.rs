//! The traced run: spans recorded around public calls into each layer, kept
//! in memory and written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bgc_eval::{Runner, DEFAULT_BASE_SEED};
use serde::Value;

use crate::grid::{self, scale_of};
use crate::replay::Replay;
use crate::{kernels, probes, Workload};

/// One recorded call: `name` ran from `start_ns` to `end_ns` (relative to
/// the tracer's origin), called from span `parent`.  `probe` marks calls the
/// benchmark adds to measure a layer that the runner does not make in that
/// form (they are excluded from the attributed share of a pass).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub probe: bool,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Single-threaded span recorder with a parent stack.
pub struct Tracer {
    origin: Instant,
    inner: RefCell<TracerState>,
}

#[derive(Default)]
struct TracerState {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// Open span; closes on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        let mut state = self.tracer.inner.borrow_mut();
        state.spans[self.index].end_ns = end;
        if state.stack.last() == Some(&self.index) {
            state.stack.pop();
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            inner: RefCell::new(TracerState::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&self, name: &'static str, probe: bool) -> SpanGuard<'_> {
        let start = self.now_ns();
        let mut state = self.inner.borrow_mut();
        let parent = state.stack.last().copied();
        let index = state.spans.len();
        state.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            probe,
        });
        state.stack.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Opens a span around a call the runner itself makes.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, false)
    }

    /// Opens a span around a call the benchmark adds to measure a layer.
    pub fn probe(&self, name: &'static str) -> SpanGuard<'_> {
        self.open(name, true)
    }

    /// Adds `value` to a named counter (bytes, node counts).
    pub fn count(&self, name: &'static str, value: f64) {
        *self.inner.borrow_mut().counters.entry(name).or_default() += value;
    }

    pub fn counter(&self, name: &'static str) -> f64 {
        self.inner
            .borrow()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Total seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.inner
            .borrow()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Seconds of the spans directly under the span at `root`, split into
    /// runner calls and probes.
    fn children_of(&self, root: usize) -> (f64, f64) {
        let state = self.inner.borrow();
        let children = state.spans.iter().filter(|s| s.parent == Some(root));
        children.fold((0.0, 0.0), |(calls, probes), s| {
            if s.probe {
                (calls, probes + s.seconds())
            } else {
                (calls + s.seconds(), probes)
            }
        })
    }

    fn last_index_of(&self, name: &str) -> Option<usize> {
        self.inner
            .borrow()
            .spans
            .iter()
            .rposition(|s| s.name == name)
    }

    /// Writes every span (name, start, end, parent, self time) as JSON.
    fn write(&self, path: &Path, meta: Vec<(String, Value)>) -> Result<(), String> {
        let state = self.inner.borrow();
        let mut child_ns = vec![0u64; state.spans.len()];
        for span in &state.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let spans = state
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let duration = s.end_ns - s.start_ns;
                Value::Object(vec![
                    ("id".to_string(), Value::Number(id as f64)),
                    ("name".to_string(), Value::String(s.name.to_string())),
                    ("start_ns".to_string(), Value::Number(s.start_ns as f64)),
                    ("end_ns".to_string(), Value::Number(s.end_ns as f64)),
                    (
                        "parent".to_string(),
                        s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                    ),
                    ("probe".to_string(), Value::Bool(s.probe)),
                    (
                        "self_ns".to_string(),
                        Value::Number(duration.saturating_sub(child_ns[id]) as f64),
                    ),
                ])
            })
            .collect();
        let mut fields = meta;
        fields.push(("spans".to_string(), Value::Array(spans)));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, Value::Object(fields).to_json_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

fn set_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_current_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run of `workload`.  Runs inside the current directory, in two
/// subdirectories: `runner/` for the untraced serial reference pass and
/// `replay/` for the traced replay.
pub fn run(workload: Workload, seed: u64, spans_path: &Path) -> Result<(), String> {
    let base = std::env::current_dir().map_err(|e| e.to_string())?;
    let spans_path = base.join(spans_path);
    let scale = scale_of(workload);
    // `bgc all` pins the quick grid's base seed; the seed still keys the
    // probes' inputs.
    let grid_seed = match workload {
        Workload::FlickrLarge => seed,
        Workload::QuickCold | Workload::QuickWarm => DEFAULT_BASE_SEED,
    };
    let prefetch_before = bgc_nn::prefetch_stats();

    // Untraced serial reference pass through the runner, on the workload's
    // start state.  Its cells are what the replay recomputes, and its
    // results are what the replay must reproduce.
    set_dir(&base.join("runner"))?;
    if workload == Workload::QuickWarm {
        // Set-up: fill the store, then drop the cell cache.
        let fill = Runner::new(scale).with_base_seed(grid_seed);
        grid::run_cells(workload, &fill, grid_seed)?;
        drop(fill);
        let cells = Path::new("target/experiments");
        std::fs::remove_dir_all(cells).map_err(|e| format!("{}: {e}", cells.display()))?;
    }
    let reference = Runner::new(scale).with_base_seed(grid_seed).serial();
    let started = Instant::now();
    let keys = grid::run_cells(workload, &reference, grid_seed)?;
    let reference_s = started.elapsed().as_secs_f64();
    let stats = reference.stats();

    // Traced replay of the same cells.
    set_dir(&base.join("replay"))?;
    let tracer = Tracer::new();
    let mut replay = Replay::new(scale, &tracer, Path::new("target/store"));
    if workload == Workload::QuickWarm {
        let _setup = tracer.probe("setup");
        replay.pass(&keys, &reference)?;
        replay.forget_stages();
    }
    let replay_s = {
        let _measured = tracer.span("measured");
        let started = Instant::now();
        replay.pass(&keys, &reference)?;
        started.elapsed().as_secs_f64()
    };
    let measured = tracer
        .last_index_of("measured")
        .ok_or("measured span missing")?;
    let (attributed, probed) = tracer.children_of(measured);

    // Layer probes outside the measured pass.
    replay.probe_idle_layers()?;
    let probe_graph = replay
        .largest_graph()
        .ok_or("the workload loaded no graph")?;
    let layer = probes::run(&tracer, &probe_graph, seed);
    let prefetch_after = bgc_nn::prefetch_stats();
    let kernel_columns = kernels::measure(seed)?;
    std::env::set_current_dir(&base).map_err(|e| e.to_string())?;

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| metrics.push((name.to_string(), value));
    put("graph.generate_s", tracer.total("graph.generate"));
    put("graph.sample_s", layer.sample_s);
    put(
        "graph.sampled_nodes_per_s",
        layer.sampled_targets / layer.sample_s,
    );
    for (name, value) in &kernel_columns {
        put(name, *value);
    }
    put("nn.sampled_nodes_per_s", layer.sampled_train_nodes_per_s);
    put("nn.full_nodes_per_s", layer.full_train_nodes_per_s);
    put(
        "nn.prefetch_stall_ms",
        (prefetch_after.trainer_stall_ms - prefetch_before.trainer_stall_ms) as f64,
    );
    put(
        "nn.prefetch_idle_ms",
        (prefetch_after.sampler_idle_ms - prefetch_before.sampler_idle_ms) as f64,
    );
    put(
        "nn.prefetch_batches",
        (prefetch_after.batches_produced - prefetch_before.batches_produced) as f64,
    );
    put("nn.victim_train_s", tracer.total("nn.victim_train"));
    put("condense.clean_s", tracer.total("condense.clean"));
    let select_s = tracer.total("core.select");
    let attack_s = tracer.total("core.attack");
    put("core.select_s", select_s);
    put("core.attack_s", attack_s);
    put("core.attack_loop_s", attack_s - select_s);
    put("core.evaluate_s", tracer.total("core.evaluate"));
    put("defense.eval_s", tracer.total("defense.eval"));
    put("store.write_s", tracer.total("store.write"));
    put("store.write_bytes", tracer.counter("store.write_bytes"));
    put("store.read_s", tracer.total("store.read"));
    put("store.read_bytes", tracer.counter("store.read_bytes"));
    put("store.decode_s", tracer.total("store.decode"));
    put("store.encode_s", tracer.total("store.encode"));
    put(
        "store.hit_ratio",
        ratio(stats.store_hits, stats.store_hits + stats.store_computed),
    );
    put(
        "eval.attack_share_ratio",
        ratio(
            stats.attack_stage_hits,
            stats.attack_stage_hits + stats.attack_stages_computed,
        ),
    );
    put(
        "eval.clean_share_ratio",
        ratio(
            stats.clean_stage_hits,
            stats.clean_stage_hits + stats.clean_stages_computed,
        ),
    );
    put("eval.cells_computed", stats.cells_computed as f64);
    put("eval.unattributed_s", reference_s - attributed);
    put("eval.reference_pass_s", reference_s);
    put("trace.replay_pass_s", replay_s);
    put("trace.overhead_s", replay_s - probed - reference_s);

    let meta = vec![
        (
            "workload".to_string(),
            Value::String(format!("{workload:?}")),
        ),
        ("seed".to_string(), Value::Number(seed as f64)),
        ("scale".to_string(), Value::String(scale.name().to_string())),
        ("cells".to_string(), Value::Number(keys.len() as f64)),
        (
            "simd_level".to_string(),
            Value::String(bgc_tensor::kernel::simd_level().label().to_string()),
        ),
        ("nproc".to_string(), Value::Number(kernels::nproc() as f64)),
    ];
    tracer.write(&spans_path, meta)?;

    let fields = metrics
        .into_iter()
        .map(|(name, value)| (name, Value::Number(value)))
        .collect();
    println!("{}", Value::Object(fields).to_json_string());
    Ok(())
}
