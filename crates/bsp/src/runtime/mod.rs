//! The parallel deterministic BSP runtime.
//!
//! Six pieces:
//!
//! * **one master loop** ([`run_master`]) — the simulated clock, the
//!   ascending-worker merges, the halt priority, profile assembly and value
//!   scatter, written once against the [`Workers`] trait. Two production
//!   implementations plug into it, both monomorphized: the in-memory
//!   executor below and `predict_cluster`'s driver, whose workers sit behind
//!   a channel or a socket;
//! * **sharded worker state** ([`WorkerShard`]) — per-worker vertex values,
//!   halt flags, [`Inbox`] and outbox buffers, laid out by a cached
//!   [`ShardLayout`]. Layouts depend only on `(num_vertices, num_workers,
//!   strategy)` (vertex assignment never inspects edges), so the engine's
//!   [`LayoutCache`] shares them across runs and across graphs of equal size;
//! * **the in-memory executor** ([`execute`]) — the [`Workers`]
//!   implementation that fans each superstep's compute and delivery phases
//!   out over the engine's persistent [`WorkerPool`], with per-worker
//!   outboxes routed by destination worker;
//! * **a persistent worker pool** ([`WorkerPool`]) — long-lived threads with
//!   per-worker injector deques, work stealing and scoped task latches, so a
//!   warm service batch runs its supersteps with zero thread spawns (see
//!   [`pool`](self) module docs for lifecycle and barrier semantics);
//! * **one payload per send, one entry per destination worker** — a sent
//!   payload is stored once in its worker's payload table, however many
//!   vertices it goes to; a point send routes one 4-byte handle, and a
//!   broadcast routes one handle per destination worker, tagged with an
//!   [`EdgeGroups`] group that each worker resolves from its out-edges once
//!   per run. Delivery expands a group straight into destination slots and
//!   reads the payload from the table, folding it into the destination's
//!   slot by reference or cloning it into the destination's list;
//! * **buffer reuse** — inboxes, payload tables, outboxes and the inbound
//!   transpose matrix are allocated once per run and cleared in place;
//!   counters are reset, and a vertex's aggregate contribution lands in its
//!   worker's per-name slot ([`AggregateSlots`](crate::AggregateSlots)),
//!   folded into the worker's named partial set once per superstep.
//!
//! # Determinism contract
//!
//! A run's observable output — final vertex values, [`RunProfile`] (Table 1
//! counters, aggregates, simulated [`ClusterClock`] timings) and halt reason
//! — is **byte-identical for every [`ExecutionMode`], thread count and
//! transport**, given the same graph, program and [`BspConfig`] seeds.
//! Threads and transports only change wall-clock time. This holds because
//! every order-sensitive step is pinned:
//!
//! 1. within a shard, vertices compute in increasing vertex-id order (shard
//!    slots follow vertex-id order by construction);
//! 2. shards are disjoint: a worker's compute phase touches only its own
//!    values, halt flags, inboxes and outboxes, so phase fan-out cannot race;
//! 3. the master merges counters, float aggregate sums and `messages_sent`
//!    in ascending worker order, on one thread ([`StepSink::report`]);
//! 4. a vertex's inbox receives messages in **delivery order**: source
//!    worker ascending, then source vertex ascending, then send order;
//! 5. the simulated clock consumes its deterministic noise stream in a fixed
//!    call order (setup, read, per-superstep workers in ascending order,
//!    write) on the master thread;
//! 6. message combining ([`VertexProgram::combiner`]) is a **left fold in
//!    the delivery order of point 4**, applied by reference as each message
//!    arrives: the inbox slot of a vertex that is delivered `m1, m2, m3`
//!    starts as a clone of `m1`, then `combine(slot, m2)` and
//!    `combine(slot, m3)` fold the later payloads in, read in place from
//!    their senders' tables — bit for bit what a compute function folding
//!    the uncombined list front to back computes, and, the order being point
//!    4's, insensitive to phase scheduling too. The fold is statically
//!    dispatched — each program's combiner is a concrete type, fetched once
//!    per delivery call — which changes its speed, not its order;
//! 7. the worker pool only decides *which OS thread* executes a chunk
//!    closure: chunk boundaries come from the resolved thread count alone,
//!    chunks write disjoint state, work stealing moves whole chunks and
//!    never splits one, and the scope latch joins all of them before the
//!    master proceeds — so a pooled phase is observationally the sequential
//!    loop over the same shards;
//! 8. same master, by construction: points 3 and 5 and the halt priority
//!    are lines of [`run_master`], which the cluster transports
//!    (`predict_cluster`, selected by
//!    [`TransportMode`](crate::remote::TransportMode)) run too. All a
//!    transport has to get right is per-worker: each worker computes over a
//!    shard holding exactly its vertices' adjacency, a worker's messages to
//!    a peer travel as one batch section in production order — groups
//!    kept: a broadcast is one entry naming the sender's group for that
//!    peer, whose slots crossed once per drive, nothing regrouped — and are
//!    delivered in ascending source-worker order, each group expanded
//!    through its sender's slots, with the receiver's own messages at its
//!    own position, so every inbox receives exactly what the in-memory
//!    transpose delivers, in the order of point (4); `StepDone` replies are
//!    reported in ascending worker order.
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
mod master;
mod pool;
mod shard;

pub use executor::{execute, RunMetrics};
pub use layout::{LayoutCache, ShardLayout};
pub use master::{run_master, StepSink, Workers};
pub use pool::{WorkerPool, DEFAULT_POOL_CAPACITY};
pub use shard::{group_of, EdgeGroups, Inbox, WorkerShard, GROUP_BIT};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BspConfig, ExecutionMode};
    use crate::cost::ClusterCostConfig;
    use crate::program::{ComputeContext, InitContext, VertexProgram};
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
        let pool = WorkerPool::new(7);
        let metrics = RunMetrics::new(&predict_obs::Registry::new());
        let baseline = execute(&Ripple, &graph, &layout, &config, 1, &pool, &metrics);
        for threads in [2usize, 3, 7] {
            let run = execute(&Ripple, &graph, &layout, &config, threads, &pool, &metrics);
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
    fn pooled_execution_is_byte_identical_to_the_calling_thread_loop() {
        let graph = generate_rmat(&RmatConfig::new(9, 6).with_seed(19));
        let config = BspConfig::with_workers(6);
        let layout = ShardLayout::build(graph.num_vertices(), 6, config.partition_strategy);
        let pool = WorkerPool::new(4);
        let metrics = RunMetrics::new(&predict_obs::Registry::new());
        let sequential = execute(&Ripple, &graph, &layout, &config, 1, &pool, &metrics);
        assert_eq!(
            pool.threads_spawned(),
            0,
            "one thread never touches the pool"
        );
        for threads in [2usize, 4] {
            let pooled = execute(&Ripple, &graph, &layout, &config, threads, &pool, &metrics);
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
            let _ = execute(&Ripple, &graph, &layout, &config, 4, &pool, &metrics);
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
