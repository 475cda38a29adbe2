//! Overlapped producer/consumer pipeline for neighbour-sampled training.
//!
//! The synchronous sampled loop interleaves two very different workloads on
//! one thread: *sampling* (pointer-chasing over the CSR adjacency plus the
//! feature gather) and *compute* (dense forward/backward).  This module
//! moves sampling onto a dedicated producer thread that keeps a bounded
//! channel of ready-to-train [`PreparedBatch`]es `depth` batches ahead of
//! the trainer, so the sampler's memory-bound work overlaps the trainer's
//! compute-bound work.
//!
//! Invariants:
//!
//! * **Bit-identity.**  The producer derives the epoch shuffle and every
//!   per-batch sampling decision from exactly the seeds the synchronous
//!   loop uses (`plan_seed ^ mix(0x5a7c, epoch)` for the shuffle,
//!   `mix(epoch, batch)` per batch), and batches are consumed strictly in
//!   order, so training results are bit-identical to the synchronous path
//!   for every prefetch depth and thread count (property-tested in
//!   `tests/sampled_training.rs`).
//! * **Allocation-free steady state.**  Input-feature matrices are gathered
//!   into pool-backed buffers owned by the producer; after the trainer's
//!   tape releases a batch's features the storage travels back over a
//!   recycle channel into the producer's [`BufferPool`], so a warmed-up
//!   pipeline performs no per-batch feature allocations.  The gather itself
//!   is batched: consecutive runs of input nodes are copied with one
//!   `memcpy` per run instead of one per row.
//! * **Fault containment.**  A producer panic (including the injected
//!   `sampler.produce` fault) is caught on the producer thread, forwarded
//!   through the channel and re-raised on the trainer thread, where the
//!   runner's per-cell unwind boundary contains it — one poisoned cell,
//!   no deadlocked trainer.  Fault scopes are thread-local, so the producer
//!   re-enters the trainer's scope via [`bgc_runtime::fault::ScopeSnapshot`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use bgc_graph::{mix_seed, Graph, NeighborSampler, SampledBatch, SamplerWorkspace};
use bgc_tensor::init::{rng_from_seed, shuffle};
use bgc_tensor::{BufferPool, Matrix};

/// One ready-to-train minibatch: everything the trainer consumes that does
/// not need the tape.
#[derive(Debug)]
pub struct PreparedBatch {
    /// Epoch this batch belongs to (consumption-order check).
    pub epoch: usize,
    /// Batch index within the epoch (consumption-order check).
    pub index: usize,
    /// The batch's target nodes, ascending.
    pub targets: Vec<usize>,
    /// Labels of `targets`.
    pub labels: Vec<usize>,
    /// The sampled bipartite block chain.
    pub sampled: SampledBatch,
    /// Positions of `targets` inside the chain's input nodes.
    pub target_positions: Vec<usize>,
    /// Gathered input features (`|input_nodes| x num_features`), shared so
    /// the tape can record them without copying and the storage can be
    /// recovered for recycling afterwards.
    pub input_features: Arc<Matrix>,
}

/// Where the sampled training loop gets its next minibatch from: the
/// in-thread [`SyncSampler`] (prefetch depth 0) or a [`Prefetcher`] backed
/// by the producer thread.  Both produce bit-identical batches.
pub trait BatchSource {
    /// The prepared batch for `(epoch, index)`.  Must be called in exactly
    /// the epoch-major order the schedule defines.
    fn next_batch(&mut self, epoch: usize, index: usize) -> PreparedBatch;

    /// Hands a consumed batch's feature storage back for reuse.  Callers
    /// pass the [`PreparedBatch::input_features`] handle once the tape has
    /// released its reference (after the next [`bgc_tensor::Tape::reset`]);
    /// a still-shared handle is silently dropped instead.
    fn recycle(&mut self, features: Arc<Matrix>);
}

/// The batch schedule both sources derive from: how the training split is
/// shuffled and chunked each epoch.
#[derive(Clone, Debug)]
pub struct BatchSchedule<'a> {
    /// The training node ids (unshuffled).
    pub train_idx: &'a [usize],
    /// Nodes per batch (the last batch of an epoch may be smaller).
    pub batch_size: usize,
    /// Upper bound on epochs (early stopping may consume fewer).
    pub epochs: usize,
    /// Seed every shuffle and sampling decision derives from.
    pub plan_seed: u64,
}

impl BatchSchedule<'_> {
    /// Number of batches per epoch.
    pub fn batches_per_epoch(&self) -> usize {
        self.train_idx.len().div_ceil(self.batch_size)
    }

    /// The shuffled order of `epoch` — the exact RNG stream the historical
    /// synchronous loop used.
    fn epoch_order(&self, epoch: usize, order: &mut Vec<usize>) {
        order.clear();
        order.extend_from_slice(self.train_idx);
        let mut rng = rng_from_seed(self.plan_seed ^ mix_seed(&[0x5a7c, epoch as u64]));
        shuffle(order, &mut rng);
    }
}

/// Produces one prepared batch: fault point, sort, sample, gather.  Shared
/// by both sources so the produced bytes cannot diverge between them.
fn produce_batch(
    graph: &Graph,
    sampler: &NeighborSampler,
    chunk: &[usize],
    epoch: usize,
    index: usize,
    ws: &mut SamplerWorkspace,
    pool: &mut BufferPool,
) -> PreparedBatch {
    bgc_runtime::fault::fire("sampler.produce");
    let mut targets = chunk.to_vec();
    targets.sort_unstable();
    let labels: Vec<usize> = targets.iter().map(|&i| graph.labels[i]).collect();
    let sampled = sampler.sample_into(
        &graph.normalized,
        &targets,
        mix_seed(&[epoch as u64, index as u64]),
        ws,
    );
    let target_positions = sampled.target_positions_in_inputs();
    let inputs = sampled.input_nodes();
    let cols = graph.num_features();
    let mut features = pool.raw(inputs.len(), cols);
    // Batched gather: input nodes are ascending, and large receptive fields
    // contain long runs of consecutive ids — copy each run with a single
    // memcpy over the row-major storage instead of one copy per row.
    let src = graph.features.data();
    let dst = features.data_mut();
    let mut r = 0;
    while r < inputs.len() {
        let node = inputs[r];
        let mut run = 1;
        while r + run < inputs.len() && inputs[r + run] == node + run {
            run += 1;
        }
        dst[r * cols..(r + run) * cols].copy_from_slice(&src[node * cols..(node + run) * cols]);
        r += run;
    }
    PreparedBatch {
        epoch,
        index,
        targets,
        labels,
        sampled,
        target_positions,
        input_features: Arc::new(features),
    }
}

// ---------------------------------------------------------------------------
// Depth 0: in-thread source
// ---------------------------------------------------------------------------

/// The prefetch-depth-0 source: samples each batch on the trainer thread,
/// immediately before it is consumed (the historical synchronous loop).
#[derive(Debug)]
pub struct SyncSampler<'a> {
    graph: &'a Graph,
    sampler: &'a NeighborSampler,
    schedule: BatchSchedule<'a>,
    ws: SamplerWorkspace,
    pool: BufferPool,
    order: Vec<usize>,
    order_epoch: Option<usize>,
}

impl<'a> SyncSampler<'a> {
    /// A synchronous source over the given schedule.
    pub fn new(
        graph: &'a Graph,
        sampler: &'a NeighborSampler,
        schedule: BatchSchedule<'a>,
    ) -> Self {
        Self {
            graph,
            sampler,
            schedule,
            ws: SamplerWorkspace::new(),
            pool: BufferPool::new(),
            order: Vec::new(),
            order_epoch: None,
        }
    }
}

impl BatchSource for SyncSampler<'_> {
    fn next_batch(&mut self, epoch: usize, index: usize) -> PreparedBatch {
        if self.order_epoch != Some(epoch) {
            self.schedule.epoch_order(epoch, &mut self.order);
            self.order_epoch = Some(epoch);
        }
        let lo = index * self.schedule.batch_size;
        let hi = (lo + self.schedule.batch_size).min(self.order.len());
        let chunk = self.order[lo..hi].to_vec();
        produce_batch(
            self.graph,
            self.sampler,
            &chunk,
            epoch,
            index,
            &mut self.ws,
            &mut self.pool,
        )
    }

    fn recycle(&mut self, features: Arc<Matrix>) {
        if let Ok(matrix) = Arc::try_unwrap(features) {
            self.pool.recycle_vec(matrix.into_data());
        }
    }
}

// ---------------------------------------------------------------------------
// Depth > 0: producer thread + bounded channel
// ---------------------------------------------------------------------------

/// What travels over the pipeline channel: a batch, or a forwarded producer
/// panic (re-raised on the trainer thread).
enum Produced {
    Batch(Box<PreparedBatch>),
    Panicked(Box<dyn Any + Send>),
}

// Cumulative pipeline counters, process-wide: the eval runner snapshots
// them into `RunnerStats` (and `--format json`) after each request.
static BATCHES_PRODUCED: AtomicU64 = AtomicU64::new(0);
static BATCHES_CONSUMED: AtomicU64 = AtomicU64::new(0);
static TRAINER_STALL_NANOS: AtomicU64 = AtomicU64::new(0);
static SAMPLER_IDLE_NANOS: AtomicU64 = AtomicU64::new(0);

/// Cumulative prefetch-pipeline counters since process start.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Batches produced by sampler threads.
    pub batches_produced: u64,
    /// Batches consumed by trainers.
    pub batches_consumed: u64,
    /// Milliseconds trainers spent stalled waiting on the channel.
    pub trainer_stall_ms: u64,
    /// Milliseconds sampler threads spent idle with a full channel.
    pub sampler_idle_ms: u64,
}

/// Snapshot of the process-wide pipeline counters.
pub fn prefetch_stats() -> PrefetchStats {
    PrefetchStats {
        batches_produced: BATCHES_PRODUCED.load(Ordering::Relaxed),
        batches_consumed: BATCHES_CONSUMED.load(Ordering::Relaxed),
        trainer_stall_ms: TRAINER_STALL_NANOS.load(Ordering::Relaxed) / 1_000_000,
        sampler_idle_ms: SAMPLER_IDLE_NANOS.load(Ordering::Relaxed) / 1_000_000,
    }
}

/// The trainer-side handle of a running pipeline (see [`with_prefetcher`]).
#[derive(Debug)]
pub struct Prefetcher {
    rx: Receiver<Produced>,
    recycle_tx: Sender<Vec<f32>>,
}

impl BatchSource for Prefetcher {
    fn next_batch(&mut self, epoch: usize, index: usize) -> PreparedBatch {
        let start = Instant::now();
        let produced = self
            .rx
            .recv()
            // bgc-lint: allow(unchecked-panic) — protocol invariant: the producer sends every scheduled batch (or a Panicked notice) before exiting, so recv only fails after a harness bug
            .unwrap_or_else(|_| panic!("prefetch producer exited before batch ({epoch}, {index})"));
        TRAINER_STALL_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match produced {
            Produced::Batch(batch) => {
                BATCHES_CONSUMED.fetch_add(1, Ordering::Relaxed);
                debug_assert_eq!((batch.epoch, batch.index), (epoch, index));
                *batch
            }
            Produced::Panicked(payload) => resume_unwind(payload),
        }
    }

    fn recycle(&mut self, features: Arc<Matrix>) {
        if let Ok(matrix) = Arc::try_unwrap(features) {
            // The producer may already be gone (last epoch drained); storage
            // is simply dropped then.
            let _ = self.recycle_tx.send(matrix.into_data());
        }
    }
}

/// Runs `f` with a [`Prefetcher`] fed by a producer thread that stays up to
/// `depth` batches ahead.
///
/// The producer walks the schedule epoch-major, exactly like the trainer
/// consumes it.  Early stopping simply drops the `Prefetcher`: the
/// producer's next send fails and it exits cleanly (the scoped thread is
/// joined before this function returns).  A producer panic is forwarded and
/// re-raised inside `f`.
pub fn with_prefetcher<R>(
    graph: &Graph,
    sampler: &NeighborSampler,
    schedule: BatchSchedule<'_>,
    depth: usize,
    f: impl FnOnce(&mut Prefetcher) -> R,
) -> R {
    assert!(depth > 0, "use SyncSampler for prefetch depth 0");
    let fault_scope = bgc_runtime::fault::ScopeSnapshot::capture();
    let (tx, rx) = std::sync::mpsc::sync_channel::<Produced>(depth);
    let (recycle_tx, recycle_rx) = std::sync::mpsc::channel::<Vec<f32>>();
    std::thread::scope(|scope| {
        let producer_schedule = schedule.clone();
        scope.spawn(move || {
            let _scope = fault_scope.as_ref().map(|snapshot| snapshot.enter());
            let mut ws = SamplerWorkspace::new();
            let mut pool = BufferPool::new();
            let mut order: Vec<usize> = Vec::new();
            let per_epoch = producer_schedule.batches_per_epoch();
            for epoch in 0..producer_schedule.epochs {
                producer_schedule.epoch_order(epoch, &mut order);
                for index in 0..per_epoch {
                    while let Ok(buffer) = recycle_rx.try_recv() {
                        pool.recycle_vec(buffer);
                    }
                    let lo = index * producer_schedule.batch_size;
                    let hi = (lo + producer_schedule.batch_size).min(order.len());
                    let chunk = &order[lo..hi];
                    let produced = catch_unwind(AssertUnwindSafe(|| {
                        produce_batch(graph, sampler, chunk, epoch, index, &mut ws, &mut pool)
                    }));
                    match produced {
                        Ok(batch) => {
                            BATCHES_PRODUCED.fetch_add(1, Ordering::Relaxed);
                            let start = Instant::now();
                            if tx.send(Produced::Batch(Box::new(batch))).is_err() {
                                return; // trainer stopped early
                            }
                            SAMPLER_IDLE_NANOS
                                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        }
                        Err(payload) => {
                            // Forward the panic and shut down; the trainer
                            // re-raises it inside its cell's unwind boundary.
                            let _ = tx.send(Produced::Panicked(payload));
                            return;
                        }
                    }
                }
            }
        });
        let mut prefetcher = Prefetcher { rx, recycle_tx };
        f(&mut prefetcher)
        // `prefetcher` drops here, closing the channel; the scope joins the
        // producer, which exits on its next (failing) send.
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgc_graph::DatasetKind;

    fn schedule(graph: &Graph) -> BatchSchedule<'_> {
        BatchSchedule {
            train_idx: &graph.split.train,
            batch_size: 16,
            epochs: 3,
            plan_seed: 7,
        }
    }

    #[test]
    fn prefetched_batches_are_bit_identical_to_sync() {
        let graph = DatasetKind::Cora.load_small(3);
        let sampler = NeighborSampler::new(vec![4, 4], 7);
        let sched = schedule(&graph);
        let per_epoch = sched.batches_per_epoch();
        let mut sync = SyncSampler::new(&graph, &sampler, sched.clone());
        with_prefetcher(&graph, &sampler, sched.clone(), 2, |prefetcher| {
            for epoch in 0..sched.epochs {
                for index in 0..per_epoch {
                    let a = sync.next_batch(epoch, index);
                    let b = prefetcher.next_batch(epoch, index);
                    assert_eq!(a.targets, b.targets);
                    assert_eq!(a.labels, b.labels);
                    assert_eq!(a.target_positions, b.target_positions);
                    assert_eq!(
                        a.input_features.data(),
                        b.input_features.data(),
                        "gathered features must match bit for bit"
                    );
                    for (x, y) in a.sampled.blocks.iter().zip(b.sampled.blocks.iter()) {
                        assert_eq!(x.src_nodes, y.src_nodes);
                        assert_eq!(x.dst_in_src, y.dst_in_src);
                        assert_eq!(*x.adj, *y.adj);
                    }
                    sync.recycle(a.input_features);
                    prefetcher.recycle(b.input_features);
                }
            }
        });
    }

    #[test]
    fn early_drop_shuts_the_producer_down_cleanly() {
        let graph = DatasetKind::Citeseer.load_small(1);
        let sampler = NeighborSampler::new(vec![3], 1);
        let sched = BatchSchedule {
            epochs: 50,
            ..schedule(&graph)
        };
        // Consume two batches of a 50-epoch schedule, then drop: the scoped
        // producer must unblock and join (the test would hang otherwise).
        with_prefetcher(&graph, &sampler, sched, 4, |prefetcher| {
            let _ = prefetcher.next_batch(0, 0);
            let _ = prefetcher.next_batch(0, 1);
        });
    }

    #[test]
    fn recycled_buffers_make_the_steady_state_allocation_free() {
        let graph = DatasetKind::Cora.load_small(5);
        let sampler = NeighborSampler::new(vec![0, 0], 3);
        let sched = BatchSchedule {
            train_idx: &graph.split.train,
            batch_size: graph.split.train.len(),
            epochs: 6,
            plan_seed: 3,
        };
        // Unbounded single-batch schedule: every epoch gathers the same
        // receptive field, so after the first epoch the producer must serve
        // every gather from recycled storage.
        let mut sync = SyncSampler::new(&graph, &sampler, sched.clone());
        for epoch in 0..sched.epochs {
            let batch = sync.next_batch(epoch, 0);
            sync.recycle(batch.input_features);
        }
        let stats = sync.pool.stats();
        assert_eq!(stats.fresh_allocations, 1, "one cold gather, then reuse");
        assert_eq!(stats.reuses, sched.epochs - 1);
    }

    #[test]
    fn producer_panic_is_forwarded_and_reraised_on_the_trainer() {
        use bgc_runtime::fault::{FaultAction, FaultPlan, FaultSpec};
        let graph = DatasetKind::Cora.load_small(2);
        let sampler = NeighborSampler::new(vec![2], 9);
        let sched = schedule(&graph);
        let plan =
            FaultPlan::new().with(FaultSpec::new("sampler.produce", FaultAction::Panic).on_hit(2));
        let _scope = plan.enter("pipeline-test");
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_prefetcher(&graph, &sampler, sched, 2, |prefetcher| {
                let mut consumed = 0;
                for index in 0..4 {
                    let _ = prefetcher.next_batch(0, index);
                    consumed += 1;
                }
                consumed
            })
        }));
        let payload = result.expect_err("the forwarded panic must surface");
        let message = payload
            .downcast_ref::<String>()
            .expect("injected panics carry string payloads");
        assert!(message.contains("sampler.produce"), "{message}");
    }
}
