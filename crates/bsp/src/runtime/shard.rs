//! Per-worker sharded state of one BSP run.
//!
//! A [`WorkerShard`] owns every piece of mutable per-vertex state of the
//! vertices assigned to one worker — values, halt flags, the [`Inbox`] —
//! plus the worker's outbox buffers, counters and partial aggregates. Shards
//! are disjoint by construction, which is what lets the executor run compute
//! and delivery phases of different workers on different OS threads without
//! synchronization. All buffers are allocated once per run and reused across
//! supersteps (cleared, never dropped): once the payload tables and routed
//! buffers have grown to the run's volume, sending and delivering a message
//! allocates nothing for a program with a plain-value combiner.
//!
//! The phase logic itself — compute and delivery — lives in
//! [`crate::worker`], which operates on shards.

use crate::aggregator::Aggregates;
use crate::counters::WorkerCounters;
use crate::program::{InitContext, VertexProgram};
use crate::runtime::layout::ShardLayout;
use crate::storage::WorkerGraph;
use predict_graph::VertexId;

/// The messages delivered to a shard's vertices at the end of the previous
/// superstep, indexed by shard slot. The compute phase reads a vertex's
/// messages as a slice and empties them in place.
///
/// Which form a run uses is the program's choice, made once at
/// [`WorkerShard::init_empty`] by whether it declares a
/// [`combiner`](VertexProgram::combiner).
#[derive(Debug, PartialEq)]
pub enum Inbox<M> {
    /// One slot per vertex holding the left fold, in delivery order, of
    /// everything the vertex received (see [`crate::combiner`]): delivery
    /// writes one slot per message and compute reads a slice of length ≤ 1.
    Folded(Vec<Option<M>>),
    /// One list per vertex holding every message in delivery order, for
    /// programs that read individual messages. Lists keep their capacity
    /// across supersteps.
    Lists(Vec<Vec<M>>),
}

impl<M> Inbox<M> {
    /// An empty inbox for `vertices` vertices, folded or not.
    fn new(vertices: usize, folded: bool) -> Self {
        if folded {
            Self::Folded((0..vertices).map(|_| None).collect())
        } else {
            Self::Lists((0..vertices).map(|_| Vec::new()).collect())
        }
    }

    /// The messages awaiting the vertex at `slot`.
    #[inline]
    pub fn messages(&self, slot: usize) -> &[M] {
        match self {
            Self::Folded(slots) => slots[slot].as_slice(),
            Self::Lists(lists) => &lists[slot],
        }
    }

    /// Drops the messages of the vertex at `slot`.
    #[inline]
    pub(crate) fn clear(&mut self, slot: usize) {
        match self {
            Self::Folded(slots) => slots[slot] = None,
            Self::Lists(lists) => lists[slot].clear(),
        }
    }

    /// True when no vertex has a message waiting.
    pub fn is_empty(&self) -> bool {
        match self {
            Self::Folded(slots) => slots.iter().all(Option::is_none),
            Self::Lists(lists) => lists.iter().all(Vec::is_empty),
        }
    }
}

/// All mutable state of one worker during a run, indexed by shard slot
/// (see [`ShardLayout::slot_of`]).
pub struct WorkerShard<P: VertexProgram> {
    /// Index of the worker this shard belongs to.
    pub worker: usize,
    /// Per-vertex values of the owned vertices.
    pub values: Vec<P::VertexValue>,
    /// Per-vertex halt flags of the owned vertices.
    pub halted: Vec<bool>,
    /// Messages delivered at the end of the previous superstep, consumed
    /// (and emptied in place) by the compute phase.
    pub inbox: Inbox<P::Message>,
    /// The payload table of the current superstep: every payload the shard's
    /// vertices sent, each stored once. The executor swaps it out after the
    /// compute phase so delivery can read it; the compute phase clears what
    /// it swaps back (capacity kept).
    pub payloads: Vec<P::Message>,
    /// Compute-phase scratch: what the vertex being computed has sent so
    /// far, as `(destination, payload handle)` pairs, routed and emptied
    /// (capacity kept) as soon as its compute call returns.
    pub outbox: Vec<(VertexId, u32)>,
    /// Routed outboxes, one per destination worker, in production order:
    /// `(destination, handle into `payloads`)` pairs. Swapped with the
    /// executor's inbound matrix between phases; capacity circulates across
    /// supersteps instead of being reallocated.
    pub routed: Vec<Vec<(VertexId, u32)>>,
    /// Table 1 counters of the current superstep (reset in place).
    pub counters: WorkerCounters,
    /// Partial aggregates of the current superstep (cleared in place).
    pub partial_aggregates: Aggregates,
}

impl<P: VertexProgram> WorkerShard<P> {
    /// Creates the shard of worker `worker` with every buffer allocated but
    /// no vertex values yet; [`WorkerShard::init_values`] fills them (the
    /// executor fans value initialization out like any other phase). The
    /// inbox is [`Inbox::Folded`] exactly when `program` declares a combiner.
    pub fn init_empty(program: &P, worker: usize, layout: &ShardLayout) -> Self {
        let vertices = layout.shard_vertices(worker);
        Self {
            worker,
            values: Vec::with_capacity(vertices.len()),
            halted: vec![false; vertices.len()],
            inbox: Inbox::new(vertices.len(), program.combiner().is_some()),
            payloads: Vec::new(),
            outbox: Vec::new(),
            routed: (0..layout.num_workers()).map(|_| Vec::new()).collect(),
            counters: WorkerCounters::new(vertices.len() as u64),
            partial_aggregates: Aggregates::new(),
        }
    }

    /// Initializes every owned vertex's value via
    /// [`VertexProgram::init_vertex`], in increasing vertex-id order. The
    /// `graph` view resolves adjacency from the unified CSR or from this
    /// worker's own [`ShardedCsr`](predict_graph::ShardedCsr) slice.
    pub fn init_values(&mut self, program: &P, graph: WorkerGraph<'_>, layout: &ShardLayout) {
        self.values.clear();
        self.values
            .extend(
                layout
                    .shard_vertices(self.worker)
                    .iter()
                    .enumerate()
                    .map(|(slot, &v)| {
                        let ctx = InitContext {
                            num_vertices: graph.num_vertices(),
                            num_edges: graph.num_edges(),
                            out_neighbors: graph.out_neighbors(slot, v),
                            out_weights: graph.out_weights(slot, v),
                        };
                        program.init_vertex(v, &ctx)
                    }),
            );
    }

    /// Creates the fully-initialized shard of worker `worker`.
    pub fn init(program: &P, graph: WorkerGraph<'_>, layout: &ShardLayout, worker: usize) -> Self {
        let mut shard = Self::init_empty(program, worker, layout);
        shard.init_values(program, graph, layout);
        shard
    }

    /// True when every owned vertex has voted to halt.
    pub fn all_halted(&self) -> bool {
        self.halted.iter().all(|&h| h)
    }
}
