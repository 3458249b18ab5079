//! The BSP engine: the public facade over the parallel runtime.
//!
//! [`BspEngine::run`] executes a [`VertexProgram`] on a graph the way Giraph
//! does (section 2.2 of the paper): the master shards the graph over workers,
//! then repeats supersteps — compute phase on every worker, message delivery,
//! barrier — until a termination condition holds. Every superstep is profiled
//! with the per-worker Table 1 counters and timed with the simulated cluster
//! clock, producing the [`RunProfile`] PREDIcT trains and predicts on.
//!
//! The loop itself lives in [`crate::runtime`]: the engine resolves its
//! [`ExecutionMode`](crate::config::ExecutionMode) to a thread count, fetches
//! the cached [`ShardLayout`](crate::runtime::ShardLayout) for
//! `(num_vertices, num_workers, strategy)` and hands both to
//! [`execute`](crate::runtime::execute). Results are byte-identical for every
//! execution mode.

use crate::config::BspConfig;
use crate::profile::RunProfile;
use crate::program::VertexProgram;
use crate::runtime::{self, LayoutCache, RunMetrics, WorkerPool};
use predict_graph::CsrGraph;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a BSP run terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HaltReason {
    /// The program's global convergence condition
    /// ([`VertexProgram::master_halt`]) was satisfied.
    MasterConverged,
    /// Every vertex voted to halt and no messages were in flight.
    AllVerticesHalted,
    /// The configured superstep cap was reached before convergence.
    MaxSupersteps,
}

/// Result of executing a vertex program.
#[derive(Debug, Clone)]
pub struct BspRunResult<V> {
    /// Final per-vertex values, indexed by vertex id.
    pub values: Vec<V>,
    /// Full profile of the run (phase times, per-superstep counters and
    /// simulated timings).
    pub profile: RunProfile,
    /// Why the run stopped.
    pub halt_reason: HaltReason,
}

impl<V> BspRunResult<V> {
    /// Number of supersteps the run executed.
    pub fn num_iterations(&self) -> usize {
        self.profile.num_iterations()
    }
}

/// A Giraph-like BSP execution engine with a simulated cluster clock.
///
/// The engine keeps a cumulative count of executed runs, a cache of shard
/// layouts, a persistent [`WorkerPool`] and its run instruments
/// ([`RunMetrics`], resolved once in [`BspEngine::new`]) behind [`Arc`]s, so
/// clones share all four. The prediction layer relies on the run counter to
/// measure how many engine invocations a cached prediction session actually
/// performed (its amortization guarantee); the layout cache means repeated
/// runs over same-sized graphs skip the per-run partitioning scan entirely;
/// the shared pool means warm parallel runs — and whole service batches
/// scheduled onto it — spawn zero OS threads.
#[derive(Debug, Clone)]
pub struct BspEngine {
    config: BspConfig,
    /// Number of [`BspEngine::run`] invocations, shared across clones.
    runs: Arc<AtomicU64>,
    /// Shard layouts keyed by `(num_vertices, num_workers, strategy)`,
    /// shared across clones.
    layouts: Arc<LayoutCache>,
    /// Persistent worker pool for parallel phases, shared across clones.
    pool: Arc<WorkerPool>,
    /// The `bsp.*` instruments every run records into, shared across clones.
    metrics: RunMetrics,
}

impl Default for BspEngine {
    fn default() -> Self {
        Self::new(BspConfig::default())
    }
}

impl BspEngine {
    /// Creates an engine with the given configuration.
    pub fn new(config: BspConfig) -> Self {
        Self {
            config,
            runs: Arc::new(AtomicU64::new(0)),
            layouts: Arc::new(LayoutCache::default()),
            pool: Arc::new(WorkerPool::default()),
            metrics: RunMetrics::new(predict_obs::registry()),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &BspConfig {
        &self.config
    }

    /// Counts one engine run that was executed outside [`BspEngine::run`] —
    /// the cluster runner drives supersteps through its own transport but
    /// still reports each drive here, so
    /// [`runs_executed`](BspEngine::runs_executed) keeps its meaning (and the
    /// prediction layer's cache-amortization accounting stays comparable)
    /// across transports.
    pub fn record_external_run(&self) {
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// The engine's persistent worker pool. The prediction service schedules
    /// whole request batches onto this same pool, so request stages and
    /// superstep phases interleave on one set of warm threads.
    pub fn worker_pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// OS threads the engine's pool has spawned over its lifetime (flat
    /// across warm runs — the basis of the zero-spawn warm-batch tests).
    pub fn pool_threads_spawned(&self) -> u64 {
        self.pool.threads_spawned()
    }

    /// Total number of runs this engine (and every clone sharing its counter)
    /// has executed. Used by tests and benchmarks to assert how many engine
    /// invocations a prediction-session cache saved.
    pub fn runs_executed(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` of the shared shard-layout cache.
    pub fn layout_cache_stats(&self) -> (u64, u64) {
        self.layouts.stats()
    }

    /// Executes `program` on `graph` until convergence, full halt or the
    /// superstep cap, and returns the per-vertex values together with the run
    /// profile.
    ///
    /// This is a thin facade over [`runtime::execute`]; see
    /// [`crate::runtime`] for the execution model and its determinism
    /// contract.
    pub fn run<P: VertexProgram>(
        &self,
        graph: &CsrGraph,
        program: &P,
    ) -> BspRunResult<P::VertexValue> {
        self.runs.fetch_add(1, Ordering::Relaxed);
        self.metrics.runs.incr();
        let num_workers = self.config.workers();
        let layout = self.layouts.get_or_build(
            graph.num_vertices(),
            num_workers,
            self.config.partition_strategy,
        );
        let threads = self
            .config
            .execution
            .resolve_threads(num_workers, graph.num_vertices() + graph.num_edges());
        runtime::execute(
            program,
            graph,
            &layout,
            &self.config,
            threads,
            &self.pool,
            &self.metrics,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Aggregates;
    use crate::cost::ClusterCostConfig;
    use crate::program::{ComputeContext, InitContext};
    use predict_graph::generators::{chain, generate_rmat, RmatConfig};
    use predict_graph::{CsrGraph, EdgeList, VertexId};

    /// Propagates the maximum vertex id through the graph: each vertex keeps
    /// the largest id it has heard of and forwards increases to neighbors.
    struct MaxId;

    impl VertexProgram for MaxId {
        type VertexValue = u32;
        type Message = u32;

        fn name(&self) -> &'static str {
            "max-id"
        }

        fn init_vertex(&self, v: VertexId, _ctx: &InitContext<'_>) -> u32 {
            v
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, messages: &[u32]) {
            let incoming_max = messages.iter().copied().max().unwrap_or(0);
            let current = *ctx.value;
            let best = current.max(incoming_max);
            if ctx.superstep == 0 || best > current {
                *ctx.value = best;
                ctx.send_to_all_neighbors(best);
            }
            ctx.vote_to_halt();
        }

        fn message_size_bytes(&self, _m: &u32) -> u64 {
            4
        }
    }

    /// Counts active vertices per superstep and stops via the master when the
    /// count drops below a threshold (a toy global convergence condition).
    struct CountDown {
        threshold: f64,
    }

    impl VertexProgram for CountDown {
        type VertexValue = u32;
        type Message = u32;

        fn name(&self) -> &'static str {
            "count-down"
        }

        fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) -> u32 {
            0
        }

        fn compute(&self, ctx: &mut ComputeContext<'_, u32, u32>, _messages: &[u32]) {
            ctx.aggregate("active", 1.0);
            // Vertices whose id is below the superstep stay silent; the rest
            // keep themselves alive by messaging themselves.
            if (ctx.vertex as usize) > ctx.superstep {
                let v = ctx.vertex;
                ctx.send(v, v);
            }
            ctx.vote_to_halt();
        }

        fn message_size_bytes(&self, _m: &u32) -> u64 {
            4
        }

        fn master_halt(&self, _superstep: usize, aggregates: &Aggregates) -> bool {
            aggregates.get_or("active", 0.0) < self.threshold
        }
    }

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    #[test]
    fn max_id_converges_to_global_maximum_on_a_cycle() {
        // Directed cycle 0 -> 1 -> 2 -> ... -> 9 -> 0: the maximum id must
        // propagate all the way around.
        let mut el = EdgeList::new();
        for i in 0..10u32 {
            el.push(i, (i + 1) % 10);
        }
        let g = CsrGraph::from_edge_list(&el);
        let result = engine().run(&g, &MaxId);
        assert!(result.values.iter().all(|&v| v == 9));
        assert_eq!(result.halt_reason, HaltReason::AllVerticesHalted);
        // Propagation around a 10-cycle needs about 10 supersteps.
        assert!(result.num_iterations() >= 9 && result.num_iterations() <= 12);
    }

    #[test]
    fn master_convergence_stops_the_run() {
        let g = chain(50);
        let result = engine().run(&g, &CountDown { threshold: 25.0 });
        assert_eq!(result.halt_reason, HaltReason::MasterConverged);
        // Active vertices shrink by one per superstep starting from 50.
        let last = result.profile.supersteps.last().unwrap();
        assert!(last.aggregates.get_or("active", 0.0) < 25.0);
    }

    #[test]
    fn superstep_cap_is_enforced() {
        let g = chain(50);
        let capped = BspEngine::new(
            BspConfig::with_workers(2)
                .with_max_supersteps(3)
                .with_cost(ClusterCostConfig::noiseless()),
        );
        let result = capped.run(&g, &CountDown { threshold: 0.0 });
        assert_eq!(result.halt_reason, HaltReason::MaxSupersteps);
        assert_eq!(result.num_iterations(), 3);
    }

    #[test]
    fn profile_counters_match_graph_structure() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let result = engine().run(&g, &MaxId);
        let first = &result.profile.supersteps[0];
        let totals = first.totals();
        // In superstep 0 every vertex is active and sends to all neighbors.
        assert_eq!(totals.active_vertices as usize, g.num_vertices());
        assert_eq!(totals.total_vertices as usize, g.num_vertices());
        assert_eq!(totals.total_messages() as usize, g.num_edges());
        assert_eq!(totals.total_message_bytes() as usize, g.num_edges() * 4);
        // Worker vertex counts partition the graph.
        assert_eq!(first.workers.len(), 4);
    }

    #[test]
    fn run_is_deterministic() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let a = engine().run(&g, &MaxId);
        let b = engine().run(&g, &MaxId);
        assert_eq!(a.values, b.values);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn worker_count_does_not_change_results_only_locality() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(2));
        let one =
            BspEngine::new(BspConfig::with_workers(1).with_cost(ClusterCostConfig::noiseless()))
                .run(&g, &MaxId);
        let many =
            BspEngine::new(BspConfig::with_workers(8).with_cost(ClusterCostConfig::noiseless()))
                .run(&g, &MaxId);
        assert_eq!(one.values, many.values);
        assert_eq!(one.num_iterations(), many.num_iterations());
        // With a single worker every message is local.
        for s in &one.profile.supersteps {
            assert_eq!(s.totals().remote_messages, 0);
        }
        // With 8 workers most messages are remote.
        let totals_many: u64 = many
            .profile
            .supersteps
            .iter()
            .map(|s| s.totals().remote_messages)
            .sum();
        assert!(totals_many > 0);
    }

    #[test]
    fn phase_times_are_populated() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(3));
        let result = engine().run(&g, &MaxId);
        let p = &result.profile;
        assert!(p.setup_ms > 0.0);
        assert!(p.read_ms > 0.0);
        assert!(p.write_ms > 0.0);
        assert!(p.superstep_phase_ms() > 0.0);
        assert!(p.total_ms() > p.superstep_phase_ms());
    }

    #[test]
    fn empty_graph_runs_a_single_silent_superstep() {
        let g = CsrGraph::from_edges(0, &[]);
        let result = engine().run(&g, &MaxId);
        assert!(result.values.is_empty());
        assert_eq!(result.halt_reason, HaltReason::AllVerticesHalted);
        assert_eq!(result.num_iterations(), 1);
    }
}
