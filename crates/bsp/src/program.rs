//! The vertex-centric programming model.
//!
//! Algorithms are expressed exactly as in Pregel/Giraph (section 2.2 of the
//! paper): a user-defined [`VertexProgram::compute`] function is executed for
//! every active vertex in every superstep; vertices exchange data only through
//! messages delivered in the next superstep, contribute to global
//! [`Aggregates`], and may vote to halt. The
//! master evaluates [`VertexProgram::master_halt`] — the algorithm's global
//! convergence condition — after every superstep.

use crate::aggregator::{AggregateSlots, Aggregates};
use crate::combiner::{MessageCombiner, NoCombiner};
use predict_graph::{CsrGraph, VertexId};

/// The destination of an outbox entry that stands for every out-edge of the
/// sending vertex ([`ComputeContext::send_to_all_neighbors`]). No vertex has
/// this id: [`ShardLayout::build`](crate::runtime::ShardLayout::build)
/// keeps vertex ids below `2^31`.
pub const BROADCAST: VertexId = VertexId::MAX;

/// What a vertex program may observe while initializing one vertex's value:
/// global graph totals plus the vertex's own out-adjacency.
///
/// This is deliberately *not* a full [`CsrGraph`]: a cluster worker (see
/// [`crate::storage::WorkerGraph`]) holds only its own
/// [`ShardedCsr`](predict_graph::ShardedCsr) slice, so initialization — like
/// [`VertexProgram::compute`] — can only read the local adjacency of the
/// vertex being initialized. Every algorithm in `predict_algorithms` needs
/// exactly this much (PageRank reads `num_vertices`, semi-clustering reads
/// the vertex's incident weights).
pub struct InitContext<'a> {
    /// Number of vertices in the whole graph.
    pub num_vertices: usize,
    /// Number of edges in the whole graph.
    pub num_edges: usize,
    /// Out-neighbors of the vertex being initialized.
    pub out_neighbors: &'a [VertexId],
    /// Weights aligned with `out_neighbors` (`None` for unweighted graphs).
    pub out_weights: Option<&'a [f32]>,
}

impl<'a> InitContext<'a> {
    /// The context for vertex `v` of a unified graph. Handy in tests and in
    /// direct [`VertexProgram::init_vertex`] invocations outside the engine.
    pub fn for_vertex(graph: &'a CsrGraph, v: VertexId) -> Self {
        Self {
            num_vertices: graph.num_vertices(),
            num_edges: graph.num_edges(),
            out_neighbors: graph.out_neighbors(v),
            out_weights: graph.out_weights(v),
        }
    }

    /// Out-degree of the vertex being initialized.
    pub fn out_degree(&self) -> usize {
        self.out_neighbors.len()
    }
}

/// A vertex-centric iterative algorithm.
///
/// Implementations must be deterministic: the engine may execute workers in
/// parallel and relies on per-vertex computation not depending on execution
/// order within a superstep.
pub trait VertexProgram: Sync {
    /// Per-vertex state.
    type VertexValue: Clone + Send + Sync;
    /// Message exchanged between vertices.
    type Message: Clone + Send + Sync;

    /// Human-readable algorithm name (used in run profiles and reports).
    fn name(&self) -> &'static str;

    /// Initial value of vertex `v`. Called once per vertex before superstep 0;
    /// `ctx` exposes the graph totals and the vertex's own out-adjacency
    /// (all a cluster worker can see).
    fn init_vertex(&self, vertex: VertexId, ctx: &InitContext<'_>) -> Self::VertexValue;

    /// The compute function executed for every active vertex in every
    /// superstep. `messages` contains the messages sent to this vertex during
    /// the previous superstep.
    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, Self::VertexValue, Self::Message>,
        messages: &[Self::Message],
    );

    /// Size in bytes of a message on the (simulated) wire. Drives the
    /// `LocMsgSize` / `RemMsgSize` features of Table 1; implementations should
    /// return the serialized payload size, not `size_of::<Message>()`, for
    /// variable-length messages.
    fn message_size_bytes(&self, msg: &Self::Message) -> u64;

    /// Global convergence condition evaluated by the master after every
    /// superstep over the merged aggregates. Returning `true` terminates the
    /// run. The default never terminates early (the run still stops when all
    /// vertices halt or the superstep cap is reached).
    fn master_halt(&self, _superstep: usize, _aggregates: &Aggregates) -> bool {
        false
    }

    /// Optional message combiner applied by the runtime's delivery phase:
    /// when `Some`, every message is folded into its destination vertex's
    /// single inbox slot as it arrives, so compute sees at most one message
    /// (see [`crate::combiner`] for the fold order). Table 1 counters are
    /// recorded at send time and are unaffected. The answer must not change
    /// during a run.
    ///
    /// The combiner is a concrete type per program, not a trait object:
    /// delivery fetches it once per call and the fold is statically
    /// dispatched, so a plain-value fold inlines into the delivery loop. A
    /// program that is its own combiner returns `Some(self)`.
    ///
    /// Only opt in when the program's semantics are combine-safe — i.e. its
    /// compute function only consumes the combined reduction of its messages,
    /// never their count or individual values. The default is no combining
    /// ([`NoCombiner`]), which preserves exact message multisets.
    fn combiner(&self) -> Option<impl MessageCombiner<Self::Message>> {
        None::<NoCombiner>
    }
}

/// Everything a vertex can see and do during one invocation of `compute`.
pub struct ComputeContext<'a, V, M> {
    /// Id of the vertex being computed.
    pub vertex: VertexId,
    /// Current superstep number (0-based).
    pub superstep: usize,
    /// Mutable per-vertex state.
    pub value: &'a mut V,
    /// Out-neighbors of the vertex.
    pub out_neighbors: &'a [VertexId],
    /// Weights aligned with `out_neighbors` (`None` for unweighted graphs).
    pub out_weights: Option<&'a [f32]>,
    /// Number of vertices in the graph the program is running on.
    pub num_vertices: usize,
    /// Number of edges in the graph the program is running on.
    pub num_edges: usize,
    /// Aggregates computed during the *previous* superstep (empty in
    /// superstep 0).
    pub previous_aggregates: &'a Aggregates,
    /// The executing worker's payload table for this superstep: every
    /// message payload sent so far, each stored once however many vertices
    /// it goes to. Handles in [`Self::outbox`] index it.
    pub payloads: &'a mut Vec<M>,
    /// What the vertex has sent so far, in send order: one `(destination,
    /// payload handle)` pair per [`Self::send`], one `(BROADCAST, handle)`
    /// pair per [`Self::send_to_all_neighbors`]. The executor routes and
    /// empties it after the call. Public, like the fields around it, so that
    /// an executor outside this crate — the reference interpreter the runtime
    /// is tested against — can run a program.
    pub outbox: &'a mut Vec<(VertexId, u32)>,
    /// The executing worker's aggregate slots of this superstep
    /// ([`Self::aggregate`]).
    pub aggregate_slots: &'a mut AggregateSlots,
    /// The vertex's halt vote ([`Self::vote_to_halt`]).
    pub halted: &'a mut bool,
}

impl<'a, V, M> ComputeContext<'a, V, M> {
    /// Out-degree of this vertex.
    pub fn out_degree(&self) -> usize {
        self.out_neighbors.len()
    }

    /// Stores `msg` in the payload table and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` payloads in one worker's superstep.
    fn store(&mut self, msg: M) -> u32 {
        let handle = u32::try_from(self.payloads.len()).expect("a payload table fits u32 handles");
        self.payloads.push(msg);
        handle
    }

    /// Sends `msg` to vertex `dst`, to be delivered in the next superstep.
    pub fn send(&mut self, dst: VertexId, msg: M) {
        let handle = self.store(msg);
        self.outbox.push((dst, handle));
    }

    /// Sends `msg` to every out-neighbor of this vertex: the payload is
    /// stored once, and one [`BROADCAST`] entry stands for every out-edge —
    /// the executor resolves it against the edge list, one message per edge.
    pub fn send_to_all_neighbors(&mut self, msg: M) {
        if self.out_neighbors.is_empty() {
            return;
        }
        let handle = self.store(msg);
        self.outbox.push((BROADCAST, handle));
    }

    /// Contributes `value` to the global sum-aggregator `name` — a name
    /// fixed at compile time, resolved to the worker's slot for it without
    /// touching the named [`Aggregates`].
    #[inline]
    pub fn aggregate(&mut self, name: &'static str, value: f64) {
        self.aggregate_slots.add(name, value);
    }

    /// Votes to halt: the vertex becomes inactive and will not execute
    /// `compute` again unless it receives a message.
    pub fn vote_to_halt(&mut self) {
        *self.halted = true;
    }

    /// Revokes a vote to halt issued earlier in the same compute call.
    pub fn stay_active(&mut self) {
        *self.halted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_graph::EdgeList;

    /// A trivial program used to exercise the context plumbing: every vertex
    /// forwards its id to all neighbors once and halts.
    struct Broadcast;

    impl VertexProgram for Broadcast {
        type VertexValue = u32;
        type Message = u32;

        fn name(&self) -> &'static str {
            "broadcast"
        }

        fn init_vertex(&self, vertex: VertexId, _ctx: &InitContext<'_>) -> u32 {
            vertex
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, _messages: &[u32]) {
            if ctx.superstep == 0 {
                let v = ctx.vertex;
                ctx.send_to_all_neighbors(v);
                ctx.aggregate("sent", ctx.out_degree() as f64);
            }
            ctx.vote_to_halt();
        }

        fn message_size_bytes(&self, _msg: &u32) -> u64 {
            4
        }
    }

    #[test]
    fn context_send_and_aggregate_work() {
        let el: EdgeList = [(0u32, 1u32), (0, 2), (1, 2)].into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        let program = Broadcast;
        let prev = Aggregates::new();
        let (mut payloads, mut outbox) = (vec![7u32], Vec::new());
        let mut slots = AggregateSlots::new();
        let mut halted = false;
        let mut value = program.init_vertex(0, &InitContext::for_vertex(&g, 0));

        let mut ctx = ComputeContext {
            vertex: 0,
            superstep: 0,
            value: &mut value,
            out_neighbors: g.out_neighbors(0),
            out_weights: g.out_weights(0),
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            previous_aggregates: &prev,
            payloads: &mut payloads,
            outbox: &mut outbox,
            aggregate_slots: &mut slots,
            halted: &mut halted,
        };
        program.compute(&mut ctx, &[]);
        ctx.send(2, 9);

        // The broadcast payload is stored once, behind the table's earlier
        // entry, and sent as one entry for both neighbors; a point send adds
        // its own.
        assert_eq!(payloads, [7, 0, 9]);
        assert_eq!(outbox, [(BROADCAST, 1), (2, 2)]);
        let mut partial = Aggregates::new();
        slots.drain_into(&mut partial);
        assert_eq!(partial.get("sent"), Some(2.0));
        assert!(halted);
    }

    #[test]
    fn stay_active_revokes_halt() {
        let el: EdgeList = [(0u32, 1u32)].into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        let prev = Aggregates::new();
        let mut payloads: Vec<u32> = Vec::new();
        let mut outbox = Vec::new();
        let mut slots = AggregateSlots::new();
        let mut halted = false;
        let mut value = 0u32;
        let mut ctx = ComputeContext {
            vertex: 0,
            superstep: 0,
            value: &mut value,
            out_neighbors: g.out_neighbors(0),
            out_weights: None,
            num_vertices: 2,
            num_edges: 1,
            previous_aggregates: &prev,
            payloads: &mut payloads,
            outbox: &mut outbox,
            aggregate_slots: &mut slots,
            halted: &mut halted,
        };
        ctx.vote_to_halt();
        ctx.stay_active();
        assert!(!halted);
    }
}
