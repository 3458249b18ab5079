//! Per-worker superstep phases, operating on sharded state.
//!
//! A worker owns one [`WorkerShard`]: the values, halt flags, inboxes and
//! outbox buffers of its partition of the vertices. This module implements
//! the two phases the runtime executor schedules every superstep:
//!
//! * [`WorkerShard::run_superstep`] — the **compute phase**: execute the
//!   program's compute function for every active owned vertex (ascending
//!   vertex id), maintain the Table 1 counters, accumulate partial
//!   aggregates, and route produced messages into per-destination-worker
//!   buffers;
//! * [`WorkerShard::deliver`] — the **delivery phase**: append the inbound
//!   messages (ascending source worker, production order within a source) to
//!   the owned vertices' inboxes and optionally apply the program's message
//!   combiner.
//!
//! Both phases touch only the shard's own state, so the executor
//! ([`crate::runtime`]) may run any number of shards concurrently; the
//! master merges the per-worker outputs in worker-index order, which keeps
//! the whole run deterministic.

use crate::aggregator::Aggregates;
use crate::combiner::{combine_in_place, MessageCombiner};
use crate::program::{ComputeContext, VertexProgram};
use crate::runtime::{ShardLayout, WorkerShard};
use crate::storage::WorkerGraph;
use predict_graph::VertexId;

impl<P: VertexProgram> WorkerShard<P> {
    /// Executes the compute phase of superstep `superstep` for this shard.
    ///
    /// Runs [`VertexProgram::compute`] for every active owned vertex in
    /// increasing vertex-id order, maintains the Table 1 counters, and routes
    /// the produced messages into the per-destination-worker buffers
    /// (`self.routed`), preserving production order. `graph` is this worker's
    /// view of the graph — the whole CSR in memory, only the worker's own
    /// shard on a cluster worker; the phase never reads adjacency outside
    /// the owned vertices either way.
    pub fn run_superstep(
        &mut self,
        program: &P,
        graph: WorkerGraph<'_>,
        layout: &ShardLayout,
        superstep: usize,
        previous_aggregates: &Aggregates,
    ) {
        self.counters.reset(self.values.len() as u64);
        self.partial_aggregates.clear();
        debug_assert!(self.outbox.is_empty());

        for (i, &v) in layout.shard_vertices(self.worker).iter().enumerate() {
            let incoming = &mut self.inboxes[i];
            if self.halted[i] && incoming.is_empty() {
                continue;
            }
            // Receipt of a message re-activates a halted vertex (Pregel
            // semantics); an active vertex stays active unless it votes to
            // halt.
            self.counters.active_vertices += 1;

            let outbox_start = self.outbox.len();
            let mut vertex_halted = false;
            {
                let mut ctx = ComputeContext {
                    vertex: v,
                    superstep,
                    value: &mut self.values[i],
                    out_neighbors: graph.out_neighbors(i, v),
                    out_weights: graph.out_weights(i, v),
                    num_vertices: graph.num_vertices(),
                    num_edges: graph.num_edges(),
                    previous_aggregates,
                    outbox: &mut self.outbox,
                    partial_aggregates: &mut self.partial_aggregates,
                    halted: &mut vertex_halted,
                };
                program.compute(&mut ctx, incoming);
            }
            incoming.clear();
            self.halted[i] = vertex_halted;

            // Classify and count the messages this vertex just sent.
            for (dst, msg) in &self.outbox[outbox_start..] {
                let bytes = program.message_size_bytes(msg);
                let local = layout.owner_of(*dst) == self.worker;
                self.counters.record_message(bytes, local);
            }
        }

        // Route the outbox into per-destination-worker buffers, preserving
        // production order (ascending sender vertex, send order within a
        // vertex) — the order the old sequential delivery loop used.
        for (dst, msg) in self.outbox.drain(..) {
            self.routed[layout.owner_of(dst)].push((dst, msg));
        }
    }

    /// Executes the delivery phase for this shard: appends the messages of
    /// `inbound` (one buffer per source worker, in ascending source-worker
    /// order) to the owned vertices' inboxes, then applies the program's
    /// message combiner, if any, to every non-trivial inbox.
    ///
    /// Buffers in `inbound` are drained in place so their capacity is reused
    /// by the next superstep.
    pub fn deliver(
        &mut self,
        layout: &ShardLayout,
        inbound: &mut [Vec<(VertexId, P::Message)>],
        combiner: Option<&dyn MessageCombiner<P::Message>>,
    ) {
        for buf in inbound.iter_mut() {
            for (dst, msg) in buf.drain(..) {
                debug_assert_eq!(layout.owner_of(dst), self.worker);
                self.inboxes[layout.slot_of(dst)].push(msg);
            }
        }
        if let Some(combiner) = combiner {
            for inbox in &mut self.inboxes {
                combine_in_place(combiner, inbox);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combiner::MinCombiner;
    use crate::partition::PartitionStrategy;
    use crate::program::InitContext;
    use predict_graph::{CsrGraph, EdgeList};

    /// Every vertex sends its id to all out-neighbors in superstep 0, then
    /// halts; reactivated vertices sum what they received.
    struct SumIds;

    impl VertexProgram for SumIds {
        type VertexValue = u64;
        type Message = u32;

        fn name(&self) -> &'static str {
            "sum-ids"
        }

        fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) -> u64 {
            0
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u64, u32>, messages: &[u32]) {
            if ctx.superstep == 0 {
                let id = ctx.vertex;
                ctx.send_to_all_neighbors(id);
            } else {
                *ctx.value += messages.iter().map(|&m| m as u64).sum::<u64>();
                ctx.aggregate("received", messages.len() as f64);
            }
            ctx.vote_to_halt();
        }

        fn message_size_bytes(&self, _m: &u32) -> u64 {
            4
        }
    }

    fn two_worker_setup() -> (CsrGraph, ShardLayout) {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let el: EdgeList = [(0u32, 1u32), (0, 2), (1, 3), (2, 3)].into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        let l = ShardLayout::build(g.num_vertices(), 2, PartitionStrategy::Modulo);
        (g, l)
    }

    #[test]
    fn superstep_zero_sends_messages_and_counts_them() {
        let (g, l) = two_worker_setup();
        let program = SumIds;
        // Worker 0 owns vertices 0 and 2 (modulo layout).
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 0);
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            0,
            &Aggregates::new(),
        );

        assert_eq!(shard.counters.active_vertices, 2);
        assert_eq!(shard.counters.total_vertices, 2);
        // Vertex 0 sends to 1 (worker 1, remote) and 2 (worker 0, local);
        // vertex 2 sends to 3 (worker 1, remote).
        assert_eq!(shard.counters.local_messages, 1);
        assert_eq!(shard.counters.remote_messages, 2);
        assert_eq!(shard.counters.total_message_bytes(), 12);
        // Messages were routed by destination worker, in production order.
        assert_eq!(shard.routed[0], vec![(2, 0)]);
        assert_eq!(shard.routed[1], vec![(1, 0), (3, 2)]);
        // Both vertices voted to halt.
        assert!(shard.all_halted());
    }

    #[test]
    fn halted_vertices_without_messages_are_skipped() {
        let (g, l) = two_worker_setup();
        let program = SumIds;
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 0);
        shard.halted = vec![true; 2];
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            1,
            &Aggregates::new(),
        );
        assert_eq!(shard.counters.active_vertices, 0);
        assert!(shard.routed.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn messages_reactivate_halted_vertices_and_are_consumed() {
        let (g, l) = two_worker_setup();
        let program = SumIds;
        // Worker 1 owns vertices 1 and 3.
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 1);
        shard.halted = vec![true; 2];
        let mut inbound = vec![vec![(3u32, 1u32), (3, 2)], Vec::new()];
        shard.deliver(&l, &mut inbound, None);
        assert!(inbound[0].is_empty(), "inbound buffers must be drained");

        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            1,
            &Aggregates::new(),
        );
        assert_eq!(shard.counters.active_vertices, 1);
        assert_eq!(shard.values[l.slot_of(3)], 3);
        assert!(
            shard.inboxes.iter().all(|i| i.is_empty()),
            "inboxes must be consumed"
        );
        assert_eq!(shard.partial_aggregates.get("received"), Some(2.0));
        // The vertex voted to halt again after processing.
        assert!(shard.all_halted());
    }

    #[test]
    fn deliver_applies_the_combiner_per_inbox() {
        let (g, l) = two_worker_setup();
        let program = SumIds;
        let mut shard = WorkerShard::<SumIds>::init(&program, WorkerGraph::Unified(&g), &l, 1);
        let mut inbound = vec![vec![(3u32, 9u32), (3, 4), (1, 7)], vec![(3, 6)]];
        shard.deliver(&l, &mut inbound, Some(&MinCombiner));
        // Vertex 3 received 9, 4, 6 -> combined to the minimum.
        assert_eq!(shard.inboxes[l.slot_of(3)], vec![4]);
        // Single-message inboxes pass through untouched.
        assert_eq!(shard.inboxes[l.slot_of(1)], vec![7]);
    }

    #[test]
    fn buffers_keep_their_capacity_across_supersteps() {
        let (g, l) = two_worker_setup();
        let program = SumIds;
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 0);
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            0,
            &Aggregates::new(),
        );
        // Superstep 0 produced 3 messages through the outbox scratch.
        let capacity = shard.outbox.capacity();
        assert!(capacity >= 3);
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            1,
            &Aggregates::new(),
        );
        assert_eq!(
            shard.outbox.capacity(),
            capacity,
            "outbox scratch must be reused, not reallocated"
        );
    }
}
