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
//! Beside the shard, each worker's [`EdgeGroups`] — its out-edges resolved
//! against the layout once per run — let a broadcast travel as one routed
//! entry per destination worker instead of one per edge.
//!
//! The phase logic itself — compute and delivery — lives in
//! [`crate::worker`], which operates on shards.

use crate::aggregator::{AggregateSlots, Aggregates};
use crate::counters::WorkerCounters;
use crate::program::{InitContext, VertexProgram};
use crate::runtime::layout::ShardLayout;
use crate::storage::WorkerGraph;
use predict_graph::VertexId;
use std::ops::Range;

/// Tag bit of a routed entry that names one of its source worker's edge
/// groups instead of a destination vertex. Vertex ids stay below it
/// ([`ShardLayout::build`] asserts so).
pub const GROUP_BIT: VertexId = 1 << 31;

/// The edge group a routed entry names, or `None` for a vertex entry.
#[inline]
pub fn group_of(entry: VertexId) -> Option<usize> {
    (entry & GROUP_BIT != 0).then_some((entry & !GROUP_BIT) as usize)
}

/// One worker's out-edges, resolved against a [`ShardLayout`] once per run.
///
/// Every owned vertex gets one *edge group* per destination worker that owns
/// at least one of its out-neighbors, in ascending worker order. A group
/// holds those neighbors' shard slots in adjacency order, parallel edges and
/// self-loops included. A broadcast then routes one `GROUP_BIT | group`
/// entry per group, and delivery expands it straight into destination slots
/// with no per-edge ownership lookup. Each vertex's `(local, remote)` edge
/// counts keep the Table 1 counters per edge.
///
/// A cluster worker sends each peer the slot lists of the groups bound for
/// it once, in group order, and the peer keeps them as the slot-lists-only
/// groups of [`EdgeGroups::from_slot_lists`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct EdgeGroups {
    /// The groups of the vertex at slot `i` are
    /// `vertex_groups[i]..vertex_groups[i + 1]`.
    vertex_groups: Vec<u32>,
    /// Group -> the worker owning its destinations.
    workers: Vec<u32>,
    /// The slots of group `g` are `slots[group_slots[g]..group_slots[g + 1]]`.
    group_slots: Vec<u32>,
    /// Destination shard slots, group after group.
    slots: Vec<u32>,
    /// Vertex slot -> `(local, remote)` out-edge counts.
    edge_counts: Vec<(u32, u32)>,
}

impl EdgeGroups {
    /// Resolves the out-edges of worker `worker`'s vertices, read through
    /// `graph` — the unified CSR and the worker's own
    /// [`ShardedCsr`](predict_graph::ShardedCsr) build equal groups.
    ///
    /// # Panics
    ///
    /// Panics if the worker's out-edges overflow `u32` offsets, or its group
    /// count reaches `2^31` (it must fit below [`GROUP_BIT`]).
    pub fn build(graph: WorkerGraph<'_>, layout: &ShardLayout, worker: usize) -> Self {
        let vertices = layout.shard_vertices(worker);
        let offset = |len: usize| u32::try_from(len).expect("a worker's out-edges fit u32");
        // Sized up front from one pass over the degrees, which costs less
        // than growing the buffers by reallocation.
        let degree = |(i, &v): (usize, &VertexId)| graph.out_neighbors(i, v).len();
        let edges: usize = vertices.iter().enumerate().map(degree).sum();
        let max_groups = edges.min(vertices.len() * layout.num_workers());
        let mut groups = Self {
            vertex_groups: Vec::with_capacity(vertices.len() + 1),
            workers: Vec::with_capacity(max_groups),
            group_slots: Vec::with_capacity(max_groups + 1),
            slots: Vec::with_capacity(edges),
            edge_counts: Vec::with_capacity(vertices.len()),
        };
        groups.vertex_groups.push(0);
        groups.group_slots.push(0);
        // Per destination worker: the slots of the current vertex's
        // out-neighbors it owns, in adjacency order.
        let mut pending: Vec<Vec<u32>> = vec![Vec::new(); layout.num_workers()];
        for (i, &v) in vertices.iter().enumerate() {
            let neighbors = graph.out_neighbors(i, v);
            for &n in neighbors {
                pending[layout.owner_of(n)].push(layout.slot_of(n) as u32);
            }
            let local = pending[worker].len();
            for (w, slots) in pending.iter_mut().enumerate() {
                if !slots.is_empty() {
                    groups.workers.push(w as u32);
                    groups.slots.append(slots);
                    groups.group_slots.push(offset(groups.slots.len()));
                }
            }
            groups.vertex_groups.push(offset(groups.workers.len()));
            let remote = neighbors.len() - local;
            groups.edge_counts.push((offset(local), offset(remote)));
        }
        assert!(
            groups.workers.len() < GROUP_BIT as usize,
            "{} edge groups do not fit below the group tag bit",
            groups.workers.len()
        );
        groups
    }

    /// The groups a peer received as a table, kept for delivery: group `g`
    /// (the sender's `g`-th group bound for `worker`) goes to `worker`, at
    /// the slots
    /// `slots[ends[g - 1]..ends[g]]` (from 0 for the first group). Only
    /// [`Self::worker`], [`Self::slots`] and [`Self::len`] answer on the
    /// result.
    ///
    /// # Errors
    ///
    /// Fails unless every group has at least one slot, `ends` rises strictly
    /// to `slots.len()`, and every slot is below `shard_len`, the size of
    /// `worker`'s shard.
    pub fn from_slot_lists(
        worker: usize,
        shard_len: usize,
        ends: &[u32],
        slots: Vec<u32>,
    ) -> Result<Self, String> {
        let mut group_slots = Vec::with_capacity(ends.len() + 1);
        group_slots.push(0);
        for &end in ends {
            if end <= group_slots[group_slots.len() - 1] {
                return Err(format!("group ends {end}: groups must hold a slot each"));
            }
            group_slots.push(end);
        }
        let last = group_slots[group_slots.len() - 1] as usize;
        if last != slots.len() {
            return Err(format!(
                "groups end at {last}, not at {} slots",
                slots.len()
            ));
        }
        if let Some(slot) = slots.iter().find(|&&s| s as usize >= shard_len) {
            return Err(format!("slot {slot} of a shard of {shard_len} vertices"));
        }
        Ok(Self {
            workers: vec![worker as u32; ends.len()],
            group_slots,
            slots,
            ..Self::default()
        })
    }

    /// Number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// True when there is no group.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The groups of the owned vertex at shard slot `slot`.
    #[inline]
    pub fn of_vertex(&self, slot: usize) -> Range<usize> {
        self.vertex_groups[slot] as usize..self.vertex_groups[slot + 1] as usize
    }

    /// The worker owning every destination of group `group`.
    #[inline]
    pub fn worker(&self, group: usize) -> usize {
        self.workers[group] as usize
    }

    /// The destination shard slots of group `group`, in adjacency order.
    #[inline]
    pub fn slots(&self, group: usize) -> &[u32] {
        &self.slots[self.group_slots[group] as usize..self.group_slots[group + 1] as usize]
    }

    /// `(local, remote)` out-edge counts of the owned vertex at `slot`.
    #[inline]
    pub fn edge_counts(&self, slot: usize) -> (u64, u64) {
        let (local, remote) = self.edge_counts[slot];
        (local.into(), remote.into())
    }
}

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
    /// far, as `(destination, payload handle)` pairs — the destination
    /// [`BROADCAST`](crate::program::BROADCAST) for a broadcast — routed and
    /// emptied (capacity kept) as soon as its compute call returns.
    pub outbox: Vec<(VertexId, u32)>,
    /// Routed outboxes, one per destination worker, in production order:
    /// `(entry, handle into `payloads`)` pairs, where the entry is the
    /// destination vertex of a point send or `GROUP_BIT | group` for a
    /// broadcast, one per destination worker ([`EdgeGroups`]). Swapped with
    /// the executor's inbound matrix between phases; capacity circulates
    /// across supersteps instead of being reallocated.
    pub routed: Vec<Vec<(VertexId, u32)>>,
    /// Table 1 counters of the current superstep (reset in place).
    pub counters: WorkerCounters,
    /// Compute-phase scratch: the aggregate contributions of the superstep
    /// being computed, one slot per name, drained into
    /// [`Self::partial_aggregates`] as the phase ends (capacity kept).
    pub aggregate_slots: AggregateSlots,
    /// Partial aggregates of the last computed superstep, by name: what the
    /// master merges and a cluster worker reports.
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
            aggregate_slots: AggregateSlots::new(),
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
