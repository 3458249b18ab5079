//! The superstep executor: master loop, phase scheduling and thread fan-out.
//!
//! [`execute`] drives a full BSP run over sharded worker state. Each
//! superstep is two phases:
//!
//! 1. **compute** — every shard runs [`WorkerShard::run_superstep`]; shards
//!    are disjoint, so the executor spreads them over the worker pool;
//! 2. **delivery** — the master transposes the per-worker routed outboxes
//!    into per-destination inbound rows (an `O(workers²)` pointer swap, no
//!    message is copied), then every shard runs [`WorkerShard::deliver`],
//!    again in parallel.
//!
//! Everything order-sensitive stays on the master thread between phases:
//! counters are collected, aggregates merged and the [`ClusterClock`] advanced
//! in ascending worker order, exactly as the old sequential loop did. See
//! [`crate::runtime`] for the resulting determinism contract.

use crate::aggregator::Aggregates;
use crate::config::BspConfig;
use crate::cost::ClusterClock;
use crate::engine::{BspRunResult, HaltReason};
use crate::profile::{RunProfile, SuperstepProfile};
use crate::program::VertexProgram;
use crate::runtime::layout::ShardLayout;
use crate::runtime::pool::WorkerPool;
use crate::runtime::shard::WorkerShard;
use crate::storage::StorageRef;
use predict_graph::VertexId;

/// One row of the inbound transpose matrix: the message buffers destined for
/// (or produced by) one worker, one buffer per peer worker.
type MessageRow<M> = Vec<Vec<(VertexId, M)>>;

/// Splits `items` into at most `threads` contiguous chunks and runs `f` on
/// every item, scheduling the chunks as one scope on the persistent `pool`
/// workers (zero spawns once warm). `threads == 1` degenerates to a plain
/// in-place loop with no pool interaction at all.
///
/// `f` must be safe to run concurrently on distinct items; chunk boundaries
/// never affect results, only wall-clock time.
fn for_each_chunked<T: Send, F: Fn(&mut T) + Sync>(
    items: &mut [T],
    threads: usize,
    pool: &WorkerPool,
    f: F,
) {
    if threads <= 1 || items.len() <= 1 {
        for item in items {
            f(item);
        }
        return;
    }
    let chunk_size = items.len().div_ceil(threads);
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = items
        .chunks_mut(chunk_size)
        .map(|chunk| {
            Box::new(move || {
                for item in chunk {
                    f(item);
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    pool.run_scoped(threads, tasks);
}

/// Executes `program` against `storage` — the unified CSR or one
/// [`ShardedCsr`](predict_graph::ShardedCsr) per worker — over the sharded
/// state described by `layout`, spreading per-shard phases over `threads`
/// threads of `pool`.
///
/// This is the engine's whole run loop; [`crate::BspEngine::run`] and
/// [`crate::BspEngine::run_storage`] are thin facades over it. The output is
/// byte-identical for every `threads` value *and* for both storage layouts:
/// under sharded storage each worker's phases read only its own shard's
/// adjacency, which holds exactly the bytes the unified CSR holds for the
/// worker's owned vertices. The pool only decides which OS thread runs a
/// chunk, never the chunking, the merge order, or anything else the
/// determinism contract pins.
pub fn execute<P: VertexProgram>(
    program: &P,
    storage: StorageRef<'_>,
    layout: &ShardLayout,
    config: &BspConfig,
    threads: usize,
    pool: &WorkerPool,
) -> BspRunResult<P::VertexValue> {
    let num_workers = layout.num_workers();
    let _run_span = predict_obs::trace::span("bsp.run")
        .arg("algorithm", program.name())
        .arg("workers", num_workers)
        .arg("threads", threads);
    let superstep_ns = predict_obs::registry().histogram("bsp.superstep_ns");
    let mut clock = ClusterClock::new(config.cost.clone());

    // Setup and read phases.
    let setup_ms = clock.setup_time_ms();
    let read_ms = clock.read_time_ms(storage.num_edges(), num_workers);

    // Per-worker sharded state; value initialization fans out like a phase.
    let mut shards: Vec<WorkerShard<P>> = (0..num_workers)
        .map(|w| WorkerShard::init_empty(w, layout))
        .collect();
    for_each_chunked(&mut shards, threads, pool, |shard| {
        shard.init_values(program, storage.worker_graph(shard.worker), layout);
    });

    // Inbound matrix: `inbound[dst][src]` buffers circulate between the
    // shards' routed outboxes and the delivery phase, so message buffers are
    // pooled across supersteps rather than reallocated.
    let mut inbound: Vec<MessageRow<P::Message>> = (0..num_workers)
        .map(|_| (0..num_workers).map(|_| Vec::new()).collect())
        .collect();

    let combiner = program.combiner();
    let mut previous_aggregates = Aggregates::new();
    let mut supersteps: Vec<SuperstepProfile> = Vec::new();
    let mut halt_reason = HaltReason::MaxSupersteps;

    for superstep in 0..config.max_supersteps {
        let _superstep_span =
            predict_obs::trace::span("bsp.superstep").arg("superstep", superstep as u64);
        let superstep_start = std::time::Instant::now();
        // Compute phase: every shard processes its vertices against its own
        // view of the graph. Shards are disjoint; the fan-out cannot reorder
        // anything observable.
        {
            let _compute_span = predict_obs::trace::span("bsp.compute");
            let previous_aggregates = &previous_aggregates;
            for_each_chunked(&mut shards, threads, pool, |shard| {
                shard.run_superstep(
                    program,
                    storage.worker_graph(shard.worker),
                    layout,
                    superstep,
                    previous_aggregates,
                );
            });
        }

        // Master: merge worker outputs in ascending worker order — the same
        // order the sequential loop used, which pins counter vectors, float
        // aggregate sums and message delivery order bit-for-bit.
        let mut worker_counters = Vec::with_capacity(num_workers);
        let mut aggregates = Aggregates::new();
        let mut messages_sent = 0u64;
        for shard in &shards {
            worker_counters.push(shard.counters);
            aggregates.merge(&shard.partial_aggregates);
            messages_sent += shard.counters.total_messages();
        }

        // Transpose routed outboxes into inbound rows by swapping buffers.
        for (w, shard) in shards.iter_mut().enumerate() {
            for (d, buf) in shard.routed.iter_mut().enumerate() {
                std::mem::swap(buf, &mut inbound[d][w]);
            }
        }

        // Delivery phase: every destination shard pulls its inbound row
        // (ascending source worker, production order within a source).
        {
            let _deliver_span = predict_obs::trace::span("bsp.deliver");
            let mut pairs: Vec<(&mut WorkerShard<P>, &mut MessageRow<P::Message>)> =
                shards.iter_mut().zip(inbound.iter_mut()).collect();
            for_each_chunked(&mut pairs, threads, pool, |(shard, row)| {
                shard.deliver(layout, row, combiner);
            });
        }

        // Synchronization phase: the simulated clock charges the critical
        // path (slowest worker) plus fixed overhead and barrier.
        let (wall_time_ms, worker_times_ms) = clock.superstep_time_ms(&worker_counters);
        supersteps.push(SuperstepProfile {
            superstep,
            workers: worker_counters,
            worker_times_ms,
            wall_time_ms,
            aggregates: aggregates.clone(),
        });
        superstep_ns.record(superstep_start.elapsed().as_nanos() as u64);

        // Termination checks, in the same priority order as Giraph: the
        // algorithm's global convergence condition first, then the
        // "all halted and silent" default.
        if program.master_halt(superstep, &aggregates) {
            halt_reason = HaltReason::MasterConverged;
            break;
        }
        if messages_sent == 0 && shards.iter().all(|s| s.all_halted()) {
            halt_reason = HaltReason::AllVerticesHalted;
            break;
        }
        previous_aggregates = aggregates;
    }
    predict_obs::registry()
        .counter("bsp.supersteps")
        .add(supersteps.len() as u64);

    let n = storage.num_vertices();
    let write_ms = clock.write_time_ms(n, num_workers);

    // Scatter shard values back into a dense vertex-indexed vector. Shard
    // slots ascend with vertex id, so walking one cursor per shard moves
    // every value without cloning it.
    let mut cursors: Vec<_> = shards.into_iter().map(|s| s.values.into_iter()).collect();
    let mut values: Vec<P::VertexValue> = Vec::with_capacity(n);
    for v in 0..n {
        values.push(
            cursors[layout.owner_of(v as VertexId)]
                .next()
                .expect("every vertex has a shard value"),
        );
    }

    let profile = RunProfile {
        algorithm: program.name().to_string(),
        num_vertices: n,
        num_edges: storage.num_edges(),
        num_workers,
        setup_ms,
        read_ms,
        write_ms,
        supersteps,
        measured: None,
    };
    BspRunResult {
        values,
        profile,
        halt_reason,
    }
}
