//! The parallel deterministic BSP runtime.
//!
//! This subsystem replaces the old sequential superstep loop inside
//! [`BspEngine::run`](crate::engine::BspEngine::run). It owns three things:
//!
//! * **sharded worker state** ([`WorkerShard`]) — per-worker vertex values,
//!   halt flags, inboxes and outbox buffers, laid out by a cached
//!   [`ShardLayout`]. Layouts depend only on `(num_vertices, num_workers,
//!   strategy)` (vertex assignment never inspects edges), so the engine's
//!   [`LayoutCache`] shares them across runs and across graphs of equal size
//!   instead of rebuilding a `Partitioning` scan per run;
//! * **a parallel executor** ([`execute`]) that fans each superstep's
//!   compute and delivery phases out over the engine's persistent
//!   [`WorkerPool`], with per-worker outboxes routed by destination worker
//!   and merged in a fixed order;
//! * **a persistent worker pool** ([`WorkerPool`]) — long-lived threads with
//!   per-worker injector deques, work stealing and scoped task latches, so a
//!   warm service batch runs its supersteps with zero thread spawns (see
//!   [`pool`](self) module docs for lifecycle and barrier semantics);
//! * **buffer reuse** — inboxes, outboxes and the inbound transpose matrix
//!   are allocated once per run and cleared in place; counter and aggregate
//!   accumulators are reset, never reallocated.
//!
//! # Determinism contract
//!
//! A run's observable output — final vertex values, [`RunProfile`] (Table 1
//! counters, aggregates, simulated [`ClusterClock`] timings) and halt reason
//! — is **byte-identical for every [`ExecutionMode`] and thread count**,
//! given the same graph, program and [`BspConfig`] seeds. Threads only change
//! wall-clock time. This holds because every order-sensitive step is pinned:
//!
//! 1. within a shard, vertices compute in increasing vertex-id order (shard
//!    slots follow vertex-id order by construction);
//! 2. shards are disjoint: a worker's compute phase touches only its own
//!    values, halt flags, inboxes and outboxes, so phase fan-out cannot race;
//! 3. the master merges counters, float aggregate sums and `messages_sent`
//!    in ascending worker order between phases, on one thread;
//! 4. a vertex's inbox receives messages ordered by (source worker asc,
//!    source vertex asc, send order) — exactly the order the old sequential
//!    delivery produced;
//! 5. the simulated clock consumes its deterministic noise stream in a fixed
//!    call order (setup, read, per-superstep workers in ascending order,
//!    write) on the master thread;
//! 6. optional message combining ([`VertexProgram::combiner`]) folds each
//!    inbox left-to-right in delivery order, after delivery, so it is
//!    insensitive to phase scheduling too;
//! 7. the worker pool only decides *which OS thread* executes a chunk
//!    closure: chunk boundaries come from the resolved thread count alone,
//!    chunks write disjoint state, work stealing moves whole chunks and
//!    never splits one, and the scope latch joins all of them before the
//!    master proceeds — so a pooled phase is observationally the sequential
//!    loop over the same shards;
//! 8. the contract extends across the process boundary: the cluster
//!    transports (`predict_cluster`, selected by
//!    [`TransportMode`](crate::remote::TransportMode)) replay this exact
//!    loop with each shard behind a message channel or a socket. Message
//!    batches are sequenced by (source worker, batch sequence number) and
//!    runs within a batch are stably grouped by destination vertex, so every
//!    inbox sees the order of point (4); the master merges `StepDone`
//!    replies in ascending worker order and drives the same clock call
//!    order, so values, [`RunProfile`] and halt reason stay byte-identical
//!    under in-memory, in-process-channel and spawned-process execution
//!    (pinned by the golden scenarios run under `PREDICT_TRANSPORT`).
//!
//! Property (2) is also why the runtime exists at all: PREDIcT executes
//! thousands of sample runs (see `PredictService::submit_batch`), and the
//! compute phase dominates them end to end.
//!
//! [`BspConfig`]: crate::config::BspConfig
//! [`ExecutionMode`]: crate::config::ExecutionMode
//! [`ClusterClock`]: crate::cost::ClusterClock
//! [`RunProfile`]: crate::profile::RunProfile
//! [`VertexProgram::combiner`]: crate::program::VertexProgram::combiner

mod executor;
mod layout;
mod pool;
mod shard;

pub use executor::execute;
pub use layout::{LayoutCache, ShardLayout};
pub use pool::{WorkerPool, DEFAULT_POOL_CAPACITY};
pub use shard::WorkerShard;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BspConfig, ExecutionMode};
    use crate::cost::ClusterCostConfig;
    use crate::program::{ComputeContext, InitContext, VertexProgram};
    use crate::storage::StorageRef;
    use predict_graph::generators::{generate_rmat, RmatConfig};
    use predict_graph::VertexId;

    /// Flood-style program exercising messages, aggregates and halting.
    struct Ripple;

    impl VertexProgram for Ripple {
        type VertexValue = u64;
        type Message = u32;

        fn name(&self) -> &'static str {
            "ripple"
        }

        fn init_vertex(&self, v: VertexId, _ctx: &InitContext<'_>) -> u64 {
            v as u64
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u64, u32>, messages: &[u32]) {
            *ctx.value += messages.len() as u64;
            ctx.aggregate("touched", 1.0);
            if ctx.superstep < 3 {
                let v = ctx.vertex;
                ctx.send_to_all_neighbors(v);
            }
            ctx.vote_to_halt();
        }

        fn message_size_bytes(&self, _m: &u32) -> u64 {
            4
        }
    }

    #[test]
    fn thread_count_never_changes_the_run() {
        let graph = generate_rmat(&RmatConfig::new(9, 6).with_seed(11));
        let config = BspConfig::with_workers(7);
        let layout = ShardLayout::build(graph.num_vertices(), 7, config.partition_strategy);
        let storage = StorageRef::Unified(&graph);
        let pool = WorkerPool::new(7);
        let baseline = execute(&Ripple, storage, &layout, &config, 1, &pool);
        for threads in [2usize, 3, 7] {
            let run = execute(&Ripple, storage, &layout, &config, threads, &pool);
            assert_eq!(baseline.values, run.values, "{threads} threads");
            assert_eq!(baseline.profile, run.profile, "{threads} threads");
            assert_eq!(baseline.halt_reason, run.halt_reason, "{threads} threads");
        }
    }

    #[test]
    fn execution_mode_resolution_is_plumbed_through_the_engine() {
        let graph = generate_rmat(&RmatConfig::new(8, 5).with_seed(3));
        let seq = crate::engine::BspEngine::new(
            BspConfig::with_workers(4)
                .with_cost(ClusterCostConfig::default())
                .with_execution(ExecutionMode::Sequential),
        );
        let par = crate::engine::BspEngine::new(
            BspConfig::with_workers(4)
                .with_cost(ClusterCostConfig::default())
                .with_execution(ExecutionMode::Parallel { threads: 4 }),
        );
        let a = seq.run(&graph, &Ripple);
        let b = par.run(&graph, &Ripple);
        assert_eq!(a.values, b.values);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn sharded_storage_is_byte_identical_to_unified() {
        let graph = generate_rmat(&RmatConfig::new(9, 6).with_seed(13));
        let engine = crate::engine::BspEngine::new(
            BspConfig::with_workers(5).with_cost(ClusterCostConfig::default()),
        );
        let unified = engine.run(&graph, &Ripple);
        let sharded_engine = engine.with_storage(crate::storage::StorageMode::Sharded);
        let sharded = sharded_engine.run(&graph, &Ripple);
        assert_eq!(unified.values, sharded.values);
        assert_eq!(unified.profile, sharded.profile);
        assert_eq!(unified.halt_reason, sharded.halt_reason);
        // Pre-built storage takes the same path.
        let storage = crate::storage::GraphStorage::shard_graph(
            &graph,
            5,
            engine.config().partition_strategy,
        );
        let prebuilt = engine.run_storage(&storage, &Ripple);
        assert_eq!(unified.values, prebuilt.values);
        assert_eq!(unified.profile, prebuilt.profile);
    }

    #[test]
    fn sharded_storage_is_thread_count_independent() {
        let graph = generate_rmat(&RmatConfig::new(9, 6).with_seed(17));
        let config = BspConfig::with_workers(6);
        let storage =
            crate::storage::GraphStorage::shard_graph(&graph, 6, config.partition_strategy);
        let layout = ShardLayout::build(graph.num_vertices(), 6, config.partition_strategy);
        let storage = storage.as_storage_ref();
        let pool = WorkerPool::new(6);
        let baseline = execute(&Ripple, storage, &layout, &config, 1, &pool);
        for threads in [2usize, 4, 6] {
            let run = execute(&Ripple, storage, &layout, &config, threads, &pool);
            assert_eq!(baseline.values, run.values, "{threads} threads");
            assert_eq!(baseline.profile, run.profile, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "ownership does not match")]
    fn mismatched_partition_strategy_is_rejected() {
        use crate::partition::PartitionStrategy;
        let graph = generate_rmat(&RmatConfig::new(7, 4).with_seed(1));
        let engine = crate::engine::BspEngine::new(
            BspConfig::with_workers(4).with_partition_strategy(PartitionStrategy::Range),
        );
        // Same worker count, different strategy: shard sizes can coincide,
        // but ownership cannot — the engine must reject it even in release
        // builds instead of silently misrouting adjacency.
        let storage =
            crate::storage::GraphStorage::shard_graph(&graph, 4, PartitionStrategy::Modulo);
        let _ = engine.run_storage(&storage, &Ripple);
    }

    #[test]
    #[should_panic(expected = "sharded over")]
    fn mismatched_shard_count_is_rejected() {
        let graph = generate_rmat(&RmatConfig::new(7, 4).with_seed(1));
        let engine = crate::engine::BspEngine::new(BspConfig::with_workers(4));
        let storage = crate::storage::GraphStorage::shard_graph(
            &graph,
            3,
            engine.config().partition_strategy,
        );
        let _ = engine.run_storage(&storage, &Ripple);
    }

    // The name predates the removal of the scoped-thread executor; the
    // reference is now the `threads = 1` loop, which never touches the pool.
    #[test]
    fn pooled_execution_is_byte_identical_to_scoped_threads() {
        let graph = generate_rmat(&RmatConfig::new(9, 6).with_seed(19));
        let config = BspConfig::with_workers(6);
        let layout = ShardLayout::build(graph.num_vertices(), 6, config.partition_strategy);
        let storage = StorageRef::Unified(&graph);
        let pool = WorkerPool::new(4);
        let sequential = execute(&Ripple, storage, &layout, &config, 1, &pool);
        assert_eq!(
            pool.threads_spawned(),
            0,
            "one thread never touches the pool"
        );
        for threads in [2usize, 4] {
            let pooled = execute(&Ripple, storage, &layout, &config, threads, &pool);
            assert_eq!(sequential.values, pooled.values, "{threads} pooled threads");
            assert_eq!(
                sequential.profile, pooled.profile,
                "{threads} pooled threads"
            );
            assert_eq!(sequential.halt_reason, pooled.halt_reason);
        }
        // Repeated pooled runs reuse the warm workers instead of spawning.
        let warm = pool.threads_spawned();
        for _ in 0..3 {
            let _ = execute(&Ripple, storage, &layout, &config, 4, &pool);
        }
        assert_eq!(pool.threads_spawned(), warm, "warm runs must not spawn");
    }

    #[test]
    fn engine_reuses_cached_layouts_across_runs() {
        let graph = generate_rmat(&RmatConfig::new(8, 5).with_seed(3));
        let engine = crate::engine::BspEngine::new(BspConfig::with_workers(4));
        engine.run(&graph, &Ripple);
        engine.run(&graph, &Ripple);
        let clone = engine.clone();
        clone.run(&graph, &Ripple);
        let (hits, misses) = engine.layout_cache_stats();
        assert_eq!(misses, 1, "layout must be built exactly once");
        assert_eq!(hits, 2, "subsequent runs (and clones) must hit the cache");
    }
}
