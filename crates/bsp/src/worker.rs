//! Per-worker superstep phases, operating on sharded state.
//!
//! A worker owns one [`WorkerShard`]: the values, halt flags, inbox and
//! outbox buffers of its partition of the vertices. This module implements
//! the two phases the runtime executor schedules every superstep:
//!
//! * [`WorkerShard::run_superstep`] — the **compute phase**: execute the
//!   program's compute function for every active owned vertex (ascending
//!   vertex id), accumulate aggregate contributions in one slot per name
//!   (named partial aggregates once, at the end), and route what each vertex
//!   sent — one payload per send, one entry per destination worker. The
//!   shard's payload table holds each sent payload once, sized once; a
//!   point send routes one `(vertex, handle)` entry after one ownership
//!   lookup, a broadcast one `(GROUP_BIT | group, handle)` entry per
//!   destination worker of the sender's [`EdgeGroups`], and the Table 1
//!   counters still count every edge;
//! * [`WorkerShard::deliver`] — the **delivery phase**: hand the inbound
//!   messages (ascending source worker, production order within a source) to
//!   the owned vertices' [`Inbox`], expanding each group entry through its
//!   source worker's groups straight into destination slots and reading each
//!   payload from its source's table — folded into the vertex's slot by
//!   reference when the program declares a combiner, cloned into its list
//!   otherwise.
//!
//! Both phases touch only the shard's own state, so the executor
//! ([`crate::runtime`]) may run any number of shards concurrently; the
//! master merges the per-worker outputs in worker-index order, which keeps
//! the whole run deterministic.

use crate::aggregator::Aggregates;
use crate::combiner::MessageCombiner;
use crate::program::{ComputeContext, VertexProgram, BROADCAST};
use crate::runtime::{group_of, EdgeGroups, Inbox, ShardLayout, WorkerShard, GROUP_BIT};
use crate::storage::WorkerGraph;
use predict_graph::VertexId;

impl<P: VertexProgram> WorkerShard<P> {
    /// Executes the compute phase of superstep `superstep` for this shard.
    ///
    /// Runs [`VertexProgram::compute`] for every active owned vertex in
    /// increasing vertex-id order and, as each call returns, routes what the
    /// vertex sent into the per-destination-worker buffers (`self.routed`),
    /// preserving production order (ascending sender vertex, send order
    /// within a vertex) and counting every message at send time. A broadcast
    /// is routed through `groups`, this worker's edge groups. The payloads
    /// land in `self.payloads`, cleared first. Aggregate contributions
    /// collect in `self.aggregate_slots`, which replace
    /// `self.partial_aggregates` as the phase ends. `graph` is this worker's
    /// view of the graph — the whole CSR in memory, only the worker's own
    /// shard on a cluster worker; the phase never reads adjacency outside
    /// the owned vertices either way.
    pub fn run_superstep(
        &mut self,
        program: &P,
        graph: WorkerGraph<'_>,
        layout: &ShardLayout,
        groups: &EdgeGroups,
        superstep: usize,
        previous_aggregates: &Aggregates,
    ) {
        self.counters.reset(self.values.len() as u64);
        self.payloads.clear();
        debug_assert!(self.outbox.is_empty());

        for (i, &v) in layout.shard_vertices(self.worker).iter().enumerate() {
            let incoming = self.inbox.messages(i);
            if self.halted[i] && incoming.is_empty() {
                continue;
            }
            // Receipt of a message re-activates a halted vertex (Pregel
            // semantics); an active vertex stays active unless it votes to
            // halt.
            self.counters.active_vertices += 1;

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
                    payloads: &mut self.payloads,
                    outbox: &mut self.outbox,
                    aggregate_slots: &mut self.aggregate_slots,
                    halted: &mut vertex_halted,
                };
                program.compute(&mut ctx, incoming);
            }
            self.inbox.clear(i);
            self.halted[i] = vertex_halted;

            // Route what this vertex just sent, sizing each payload once. A
            // point send takes one ownership lookup; a broadcast routes one
            // entry per edge group and counts its edges in bulk.
            for (dst, handle) in self.outbox.drain(..) {
                let bytes = program.message_size_bytes(&self.payloads[handle as usize]);
                if dst == BROADCAST {
                    let (local, remote) = groups.edge_counts(i);
                    self.counters.record_messages(bytes, local, remote);
                    for group in groups.of_vertex(i) {
                        self.routed[groups.worker(group)].push((GROUP_BIT | group as u32, handle));
                    }
                } else {
                    let owner = layout.owner_of(dst);
                    self.counters.record_message(bytes, owner == self.worker);
                    self.routed[owner].push((dst, handle));
                }
            }
        }
        // The slots become the named partial aggregates once per superstep.
        self.aggregate_slots
            .drain_into(&mut self.partial_aggregates);
    }

    /// Executes the delivery phase for this shard: hands the messages of
    /// `inbound` (one buffer of `(entry, handle)` pairs per source worker, in
    /// ascending source-worker order) to the owned vertices' inbox, reading
    /// each payload from its source worker's table in `tables`. A vertex
    /// entry is one message; a group entry `GROUP_BIT | g` of `inbound[src]`
    /// is one message per slot of group `g` of `groups[src]`, in the group's
    /// order. A program with a combiner has each message folded into its
    /// destination's slot as it arrives — the first arrival cloned, every
    /// later one folded in by reference through the program's concrete
    /// combiner, fetched once per call, a left fold in delivery order (see
    /// [`crate::combiner`]); any other program has a clone of it appended
    /// to the destination's list.
    ///
    /// Buffers in `inbound` are drained in place so their capacity is reused
    /// by the next superstep; `groups` and `tables` are only read.
    pub fn deliver(
        &mut self,
        program: &P,
        layout: &ShardLayout,
        groups: &[EdgeGroups],
        inbound: &mut [Vec<(VertexId, u32)>],
        tables: &[Vec<P::Message>],
    ) {
        let worker = self.worker;
        match &mut self.inbox {
            Inbox::Folded(slots) => {
                let combiner = program
                    .combiner()
                    .expect("a folded inbox belongs to a combining program");
                drain_arrivals(
                    layout,
                    worker,
                    groups,
                    inbound,
                    tables,
                    |slot, msg| match &mut slots[slot] {
                        Some(folded) => combiner.combine(folded, msg),
                        empty => *empty = Some(msg.clone()),
                    },
                );
            }
            Inbox::Lists(lists) => {
                drain_arrivals(layout, worker, groups, inbound, tables, |slot, msg| {
                    lists[slot].push(msg.clone())
                });
            }
        }
    }
}

/// Drains `inbound` in delivery order, handing `place` each message's
/// payload, read from its source's table, with the slot its destination
/// vertex has in the shard of `worker`. Group entries of `inbound[src]`
/// expand through `groups[src]`.
fn drain_arrivals<M>(
    layout: &ShardLayout,
    worker: usize,
    groups: &[EdgeGroups],
    inbound: &mut [Vec<(VertexId, u32)>],
    tables: &[Vec<M>],
    mut place: impl FnMut(usize, &M),
) {
    debug_assert_eq!(inbound.len(), tables.len());
    for (src, (buf, table)) in inbound.iter_mut().zip(tables).enumerate() {
        for (entry, handle) in buf.drain(..) {
            let msg = &table[handle as usize];
            match group_of(entry) {
                Some(group) => {
                    let groups = &groups[src];
                    debug_assert_eq!(groups.worker(group), worker);
                    for &slot in groups.slots(group) {
                        place(slot as usize, msg);
                    }
                }
                None => {
                    debug_assert_eq!(layout.owner_of(entry), worker);
                    place(layout.slot_of(entry), msg);
                }
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

    /// The graph, its layout over two workers and both workers' edge groups.
    fn two_worker_setup() -> (CsrGraph, ShardLayout, Vec<EdgeGroups>) {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let el: EdgeList = [(0u32, 1u32), (0, 2), (1, 3), (2, 3)].into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        let l = ShardLayout::build(g.num_vertices(), 2, PartitionStrategy::Modulo);
        let groups = (0..2)
            .map(|w| EdgeGroups::build(WorkerGraph::Unified(&g), &l, w))
            .collect();
        (g, l, groups)
    }

    /// Inbound `(destination, message)` buffers, one per source worker, as
    /// delivery input: handle buffers and the payload tables they index.
    type Inbound<M> = (Vec<Vec<(VertexId, u32)>>, Vec<Vec<M>>);

    /// Splits each buffer of `rows` into handles and a table holding one
    /// payload per message.
    fn inbound<M>(rows: Vec<Vec<(VertexId, M)>>) -> Inbound<M> {
        rows.into_iter()
            .map(|row| {
                let (dsts, table): (Vec<VertexId>, Vec<M>) = row.into_iter().unzip();
                (dsts.into_iter().zip(0u32..).collect(), table)
            })
            .unzip()
    }

    #[test]
    fn superstep_zero_sends_messages_and_counts_them() {
        let (g, l, groups) = two_worker_setup();
        let program = SumIds;
        // Worker 0 owns vertices 0 and 2 (modulo layout).
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 0);
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            &groups[0],
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
        // Each vertex's payload was stored once, and each broadcast was
        // routed as one entry per destination worker, in production order:
        // vertex 0's groups 0 (to vertex 2) and 1 (to vertex 1), vertex 2's
        // group 2 (to vertex 3).
        assert_eq!(shard.payloads, [0, 2]);
        assert_eq!(shard.routed[0], vec![(GROUP_BIT, 0)]);
        assert_eq!(
            shard.routed[1],
            vec![(GROUP_BIT | 1, 0), (GROUP_BIT | 2, 1)]
        );
        let slots = |v: VertexId| vec![l.slot_of(v) as u32];
        assert_eq!(groups[0].slots(0), slots(2));
        assert_eq!(groups[0].slots(1), slots(1));
        assert_eq!(groups[0].slots(2), slots(3));
        // A broadcast routes at most min(out-degree, workers) entries.
        for (handle, &v) in (0u32..).zip(l.shard_vertices(0)) {
            let entries = shard.routed.iter().flatten().filter(|e| e.1 == handle);
            assert!(entries.count() <= g.out_degree(v).min(l.num_workers()));
        }
        // Both vertices voted to halt.
        assert!(shard.all_halted());
    }

    #[test]
    fn halted_vertices_without_messages_are_skipped() {
        let (g, l, groups) = two_worker_setup();
        let program = SumIds;
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 0);
        shard.halted = vec![true; 2];
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            &groups[0],
            1,
            &Aggregates::new(),
        );
        assert_eq!(shard.counters.active_vertices, 0);
        assert!(shard.routed.iter().all(|r| r.is_empty()));
    }

    #[test]
    fn messages_reactivate_halted_vertices_and_are_consumed() {
        let (g, l, groups) = two_worker_setup();
        let program = SumIds;
        // Worker 1 owns vertices 1 and 3.
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 1);
        shard.halted = vec![true; 2];
        let (mut handles, tables) = inbound(vec![vec![(3u32, 1u32), (3, 2)], Vec::new()]);
        shard.deliver(&program, &l, &groups, &mut handles, &tables);
        assert!(handles[0].is_empty(), "inbound buffers must be drained");

        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            &groups[1],
            1,
            &Aggregates::new(),
        );
        assert_eq!(shard.counters.active_vertices, 1);
        assert_eq!(shard.values[l.slot_of(3)], 3);
        assert!(shard.inbox.is_empty(), "the inbox must be consumed");
        assert_eq!(shard.partial_aggregates.get("received"), Some(2.0));
        // The vertex voted to halt again after processing.
        assert!(shard.all_halted());
    }

    /// [`SumIds`]' reactivated vertices keep the smallest id they received:
    /// the same program, declared combine-safe.
    struct MinIds;

    impl VertexProgram for MinIds {
        type VertexValue = u64;
        type Message = u32;

        fn name(&self) -> &'static str {
            "min-ids"
        }

        fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) -> u64 {
            u64::MAX
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u64, u32>, messages: &[u32]) {
            assert!(messages.len() <= 1, "a combining program sees one message");
            if let Some(&m) = messages.first() {
                *ctx.value = m as u64;
            }
            ctx.vote_to_halt();
        }

        fn message_size_bytes(&self, _m: &u32) -> u64 {
            4
        }

        fn combiner(&self) -> Option<impl MessageCombiner<u32>> {
            Some(MinCombiner)
        }
    }

    #[test]
    fn deliver_applies_the_combiner_per_inbox() {
        let (g, l, groups) = two_worker_setup();
        let program = MinIds;
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 1);
        let (mut handles, tables) = inbound(vec![vec![(3u32, 9u32), (3, 4), (1, 7)], vec![(3, 6)]]);
        shard.deliver(&program, &l, &groups, &mut handles, &tables);
        assert!(handles.iter().all(Vec::is_empty), "buffers must be drained");
        assert_eq!(tables, [vec![9, 4, 7], vec![6]], "tables are only read");
        // Vertex 3 received 9, 4, 6 -> folded to the minimum on arrival.
        assert_eq!(shard.inbox.messages(l.slot_of(3)), [4]);
        // A single message is its own fold.
        assert_eq!(shard.inbox.messages(l.slot_of(1)), [7]);
        // A second delivery before compute keeps folding into the same slot.
        let (mut handles, tables) = inbound(vec![vec![(3u32, 2u32)], Vec::new()]);
        shard.deliver(&program, &l, &groups, &mut handles, &tables);
        assert_eq!(shard.inbox.messages(l.slot_of(3)), [2]);

        shard.halted = vec![true; 2];
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            &groups[1],
            1,
            &Aggregates::new(),
        );
        assert_eq!(shard.values, vec![7, 2]);
        assert!(shard.inbox.is_empty(), "slots must be consumed");
    }

    #[test]
    fn the_fold_is_a_left_fold_in_delivery_order() {
        /// Records the order of combination: only a left fold over
        /// (source worker asc, production order) yields "((a+b)+c)+d".
        struct Trace;
        impl MessageCombiner<String> for Trace {
            fn combine(&self, acc: &mut String, msg: &String) {
                *acc = format!("({acc}+{msg})");
            }
        }
        struct Traced;
        impl VertexProgram for Traced {
            type VertexValue = ();
            type Message = String;
            fn name(&self) -> &'static str {
                "traced"
            }
            fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) {}
            fn compute(&self, _ctx: &mut ComputeContext<'_, (), String>, _m: &[String]) {}
            fn message_size_bytes(&self, m: &String) -> u64 {
                m.len() as u64
            }
            fn combiner(&self) -> Option<impl MessageCombiner<String>> {
                Some(Trace)
            }
        }
        let (g, l, groups) = two_worker_setup();
        let mut shard = WorkerShard::init(&Traced, WorkerGraph::Unified(&g), &l, 1);
        let msg = |dst: u32, m: &str| (dst, m.to_string());
        let (mut handles, tables) = inbound(vec![
            vec![msg(3, "a"), msg(1, "x"), msg(3, "b")],
            vec![msg(3, "c"), msg(3, "d")],
        ]);
        shard.deliver(&Traced, &l, &groups, &mut handles, &tables);
        assert_eq!(shard.inbox.messages(l.slot_of(3)), ["(((a+b)+c)+d)"]);
        assert_eq!(shard.inbox.messages(l.slot_of(1)), ["x"]);
    }

    #[test]
    fn a_name_untouched_in_a_superstep_is_absent_from_its_aggregates() {
        /// Every vertex contributes to "every" each superstep, to "odd" in
        /// odd supersteps only, and never halts.
        struct Alternating;
        impl VertexProgram for Alternating {
            type VertexValue = ();
            type Message = u32;
            fn name(&self) -> &'static str {
                "alternating"
            }
            fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) {}
            fn compute(&self, ctx: &mut ComputeContext<'_, (), u32>, _m: &[u32]) {
                ctx.aggregate("every", 1.0);
                if ctx.superstep % 2 == 1 {
                    ctx.aggregate("odd", 1.0);
                }
            }
            fn message_size_bytes(&self, _m: &u32) -> u64 {
                4
            }
        }
        let (g, _, _) = two_worker_setup();
        let config = crate::config::BspConfig::with_workers(2).with_max_supersteps(4);
        let run = crate::engine::BspEngine::new(config).run(&g, &Alternating);
        let merged = |name| -> Vec<Option<f64>> {
            let steps = &run.profile.supersteps;
            steps.iter().map(|s| s.aggregates.get(name)).collect()
        };
        assert_eq!(merged("every"), [Some(4.0); 4]);
        assert_eq!(merged("odd"), [None, Some(4.0), None, Some(4.0)]);
    }

    #[test]
    fn a_shared_payload_reaches_every_list_it_is_handed_to() {
        let (g, l, groups) = two_worker_setup();
        let program = SumIds;
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 1);
        // One payload per source, each handed to both owned vertices: by a
        // vertex entry and by worker 0's group 2 (to vertex 3), and by
        // worker 1's own group 0 (vertex 1's edge to vertex 3).
        let mut handles = vec![vec![(GROUP_BIT | 2, 0u32), (1, 0)], vec![(GROUP_BIT, 0)]];
        let tables = vec![vec![5u32], vec![8]];
        shard.deliver(&program, &l, &groups, &mut handles, &tables);
        assert_eq!(shard.inbox.messages(l.slot_of(3)), [5, 8]);
        assert_eq!(shard.inbox.messages(l.slot_of(1)), [5]);
    }

    #[test]
    fn buffers_keep_their_capacity_across_supersteps() {
        let (g, l, groups) = two_worker_setup();
        let program = SumIds;
        let mut shard = WorkerShard::init(&program, WorkerGraph::Unified(&g), &l, 0);
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            &groups[0],
            0,
            &Aggregates::new(),
        );
        // Superstep 0 routed each vertex's broadcast through the per-vertex
        // scratch.
        assert!(shard.outbox.is_empty(), "the scratch is emptied per vertex");
        let capacity = shard.outbox.capacity();
        assert!(capacity >= 1);
        let payloads = shard.payloads.capacity();
        let routed: Vec<usize> = shard.routed.iter().map(Vec::capacity).collect();
        shard.routed.iter_mut().for_each(Vec::clear);
        shard.halted = vec![false; 2];
        shard.run_superstep(
            &program,
            WorkerGraph::Unified(&g),
            &l,
            &groups[0],
            0,
            &Aggregates::new(),
        );
        assert_eq!(
            shard.outbox.capacity(),
            capacity,
            "outbox scratch must be reused, not reallocated"
        );
        assert_eq!(
            shard.payloads,
            [0, 2],
            "the table is cleared, then refilled"
        );
        assert_eq!(
            shard.payloads.capacity(),
            payloads,
            "the payload table must be reused, not reallocated"
        );
        assert_eq!(
            shard.routed.iter().map(Vec::capacity).collect::<Vec<_>>(),
            routed,
            "routed buffers must be reused, not reallocated"
        );
    }
}
