//! The in-memory workers: sharded state, phase scheduling and thread fan-out.
//!
//! [`execute`] runs a full BSP run in this address space by handing
//! [`LocalWorkers`] to the shared master loop
//! ([`run_master`](crate::runtime::master::run_master)). Each superstep is
//! two phases:
//!
//! 1. **compute** — every shard runs [`WorkerShard::run_superstep`], which
//!    stores each sent payload once in the shard's payload table and routes
//!    a handle to it per point send, and per destination worker of a
//!    broadcast, to that worker's buffer; shards are disjoint, so the phase
//!    spreads over the worker pool;
//! 2. **delivery** — every shard's payload table is swapped out into the
//!    executor's tables and the per-worker routed outboxes are transposed
//!    into per-destination inbound rows (`O(workers²)` pointer swaps, no
//!    message is copied), then every shard runs [`WorkerShard::deliver`],
//!    again in parallel, reading all source tables and edge groups while it
//!    fills its own inbox — folding into one slot per vertex when the
//!    program declares a combiner.
//!
//! Every worker's [`EdgeGroups`] are built once per run, in the fan-out that
//! initializes the vertex values.
//!
//! Between the phases, on the calling thread, every shard is reported to the
//! master in ascending worker order. Everything order-sensitive — merges,
//! the simulated clock, the halt decision — happens there, not here. See
//! [`crate::runtime`] for the resulting determinism contract.

use crate::aggregator::Aggregates;
use crate::config::BspConfig;
use crate::engine::BspRunResult;
use crate::program::VertexProgram;
use crate::runtime::layout::ShardLayout;
use crate::runtime::master::{run_master, StepSink, Workers};
use crate::runtime::pool::WorkerPool;
use crate::runtime::shard::{EdgeGroups, WorkerShard};
use crate::storage::WorkerGraph;
use predict_graph::{CsrGraph, VertexId};
use predict_obs::metrics::{Counter, Histogram};
use predict_obs::Registry;
use std::convert::Infallible;
use std::sync::Arc;

/// One row of the inbound transpose matrix: the `(destination, handle)`
/// buffers destined for one worker, one buffer per source worker.
type MessageRow = Vec<Vec<(VertexId, u32)>>;

/// The instruments an engine's runs record into: resolved once, when the
/// engine is built, and shared by its clones, so a run never looks an
/// instrument up by name.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// `bsp.runs`: one per in-memory run.
    pub(crate) runs: Arc<Counter>,
    /// `bsp.supersteps`: the supersteps of every in-memory run.
    pub(crate) supersteps: Arc<Counter>,
    /// `bsp.superstep_ns`: wall time of each in-memory superstep.
    pub(crate) superstep_ns: Arc<Histogram>,
}

impl RunMetrics {
    /// Resolves the three instruments in `registry`.
    pub fn new(registry: &Registry) -> Self {
        Self {
            runs: registry.counter("bsp.runs"),
            supersteps: registry.counter("bsp.supersteps"),
            superstep_ns: registry.histogram("bsp.superstep_ns"),
        }
    }
}

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

/// Every worker of an in-memory run: one [`WorkerShard`] each over the
/// shared unified CSR, stepped on `threads` threads of `pool`.
struct LocalWorkers<'a, P: VertexProgram> {
    program: &'a P,
    graph: WorkerGraph<'a>,
    layout: &'a ShardLayout,
    threads: usize,
    pool: &'a WorkerPool,
    shards: Vec<WorkerShard<P>>,
    /// `groups[w]`: worker `w`'s edge groups, read by its compute phase and
    /// by every delivery.
    groups: Vec<EdgeGroups>,
    /// `inbound[dst][src]` buffers circulate between the shards' routed
    /// outboxes and the delivery phase, so message buffers are pooled across
    /// supersteps rather than reallocated.
    inbound: Vec<MessageRow>,
    /// `tables[src]`: worker `src`'s payload table of the superstep being
    /// delivered, swapped with the shard's own the same way.
    tables: Vec<Vec<P::Message>>,
    superstep_ns: &'a Histogram,
}

impl<P: VertexProgram> Workers<P> for LocalWorkers<'_, P> {
    type Error = Infallible;

    fn step(
        &mut self,
        superstep: usize,
        previous_aggregates: &Aggregates,
        sink: &mut StepSink,
    ) -> Result<(), Infallible> {
        let (program, graph, layout) = (self.program, self.graph, self.layout);
        let (threads, pool, groups) = (self.threads, self.pool, &self.groups);
        let _superstep_span =
            predict_obs::trace::span("bsp.superstep").arg("superstep", superstep as u64);
        let superstep_start = std::time::Instant::now();
        // Compute phase: every shard processes its vertices against the
        // graph. Shards are disjoint; the fan-out cannot reorder anything
        // observable. Each phase span carries what it processed — active
        // vertices, then delivered messages — read from the counters the
        // master is sent.
        let mut messages = 0;
        {
            let mut compute_span = predict_obs::trace::span("bsp.compute");
            for_each_chunked(&mut self.shards, threads, pool, |shard| {
                let own = &groups[shard.worker];
                shard.run_superstep(program, graph, layout, own, superstep, previous_aggregates);
            });
            let mut active = 0;
            for shard in &self.shards {
                active += shard.counters.active_vertices;
                messages += shard.counters.total_messages();
            }
            compute_span.set_arg("active", active);
        }

        for shard in &self.shards {
            sink.report(
                &shard.counters,
                &shard.partial_aggregates,
                shard.all_halted(),
            );
        }

        // Take every shard's payload table (it gets back the one delivered
        // last superstep, which its next compute phase clears) and
        // transpose routed outboxes into inbound rows, all by swapping.
        for (w, shard) in self.shards.iter_mut().enumerate() {
            std::mem::swap(&mut shard.payloads, &mut self.tables[w]);
            for (d, buf) in shard.routed.iter_mut().enumerate() {
                std::mem::swap(buf, &mut self.inbound[d][w]);
            }
        }

        // Delivery phase: every destination shard pulls its inbound row
        // (ascending source worker, production order within a source),
        // reading the payloads and edge groups of every source.
        {
            let _deliver_span = predict_obs::trace::span("bsp.deliver").arg("messages", messages);
            let tables = &self.tables;
            let mut pairs: Vec<(&mut WorkerShard<P>, &mut MessageRow)> = self
                .shards
                .iter_mut()
                .zip(self.inbound.iter_mut())
                .collect();
            for_each_chunked(&mut pairs, threads, pool, |(shard, row)| {
                shard.deliver(program, layout, groups, row, tables);
            });
        }
        self.superstep_ns
            .record(superstep_start.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn finish(&mut self) -> Result<Vec<Vec<P::VertexValue>>, Infallible> {
        Ok(self.shards.drain(..).map(|shard| shard.values).collect())
    }
}

/// Executes `program` on `graph` over the sharded state described by
/// `layout`, spreading per-shard phases over `threads` threads of `pool`.
///
/// This is the engine's whole in-memory run; [`crate::BspEngine::run`] is a
/// thin facade over it. The output is byte-identical for every `threads`
/// value: the pool only decides which OS thread runs a chunk, never the
/// chunking, the merge order, or anything else the determinism contract
/// pins.
pub fn execute<P: VertexProgram>(
    program: &P,
    graph: &CsrGraph,
    layout: &ShardLayout,
    config: &BspConfig,
    threads: usize,
    pool: &WorkerPool,
    metrics: &RunMetrics,
) -> BspRunResult<P::VertexValue> {
    let _run_span = predict_obs::trace::span("bsp.run")
        .arg("algorithm", program.name())
        .arg("workers", layout.num_workers())
        .arg("threads", threads);
    let num_workers = layout.num_workers();
    let mut workers = LocalWorkers {
        program,
        graph: WorkerGraph::Unified(graph),
        layout,
        threads,
        pool,
        shards: (0..num_workers)
            .map(|w| WorkerShard::init_empty(program, w, layout))
            .collect(),
        groups: vec![EdgeGroups::default(); num_workers],
        inbound: (0..num_workers)
            .map(|_| (0..num_workers).map(|_| Vec::new()).collect())
            .collect(),
        tables: (0..num_workers).map(|_| Vec::new()).collect(),
        superstep_ns: &metrics.superstep_ns,
    };
    // Value initialization and edge grouping fan out like a phase.
    let view = workers.graph;
    let mut init: Vec<_> = workers
        .shards
        .iter_mut()
        .zip(workers.groups.iter_mut())
        .collect();
    for_each_chunked(&mut init, threads, pool, |(shard, groups)| {
        shard.init_values(program, view, layout);
        **groups = EdgeGroups::build(view, layout, shard.worker);
    });
    let result = match run_master(program, graph, layout, config, &mut workers) {
        Ok(result) => result,
        Err(never) => match never {},
    };
    metrics
        .supersteps
        .add(result.profile.supersteps.len() as u64);
    result
}
