//! Engine configuration.

use crate::cost::ClusterCostConfig;
use crate::partition::PartitionStrategy;
use crate::remote::TransportMode;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Default number of workers. The paper's deployment runs 29 workers plus one
/// master on 10 physical nodes; the default here is smaller so tests and
/// examples stay fast, and the experiment harness raises it explicitly when a
/// paper-faithful worker count matters.
pub const DEFAULT_NUM_WORKERS: usize = 8;

/// Hard cap on supersteps so a mis-specified convergence threshold can never
/// hang a run.
pub const DEFAULT_MAX_SUPERSTEPS: usize = 500;

/// Below this many vertices-plus-edges, automatic thread selection keeps a
/// run on the calling thread regardless of available parallelism: PREDIcT
/// executes thousands of tiny sample runs, and per-phase hand-offs to pool
/// threads would dwarf the microseconds of per-shard work. An
/// explicit [`ExecutionMode::Parallel`] thread count always wins over this
/// heuristic. Purely a scheduling decision — results are thread-count
/// independent either way.
pub const MIN_PARALLEL_WORK: usize = 1 << 14;

/// How the runtime executes the compute phase of each superstep.
///
/// Execution mode is a pure performance setting, read only from
/// [`BspConfig::execution`]: the runtime guarantees that a run produces
/// byte-identical values, counters and simulated timings under every mode
/// and thread count (see [`crate::runtime`] for the determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecutionMode {
    /// Pick automatically: the machine's available parallelism, capped at
    /// the worker count — except for runs smaller than
    /// [`MIN_PARALLEL_WORK`], which stay on the calling thread.
    #[default]
    Auto,
    /// Run every worker's compute phase on the calling thread.
    Sequential,
    /// Run worker compute phases on `threads` worker-pool threads
    /// (`threads == 0` behaves like [`ExecutionMode::Auto`]).
    Parallel {
        /// Number of OS threads the superstep phases are spread over.
        threads: usize,
    },
}

impl ExecutionMode {
    /// Resolves the mode to a concrete thread count for a run over
    /// `num_workers` workers with `run_work` total vertices-plus-edges.
    /// Always at least 1 and never more than `num_workers` (extra threads
    /// would have no worker to execute).
    ///
    /// Under [`ExecutionMode::Auto`], runs below [`MIN_PARALLEL_WORK`] stay
    /// on the calling thread; otherwise the machine's available parallelism
    /// is used, read once per process (it reads cgroup files). No
    /// environment variable is consulted.
    pub fn resolve_threads(self, num_workers: usize, run_work: usize) -> usize {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        let threads = match self {
            Self::Sequential => 1,
            Self::Auto | Self::Parallel { threads: 0 } => {
                if run_work < MIN_PARALLEL_WORK {
                    1
                } else {
                    *AVAILABLE.get_or_init(|| {
                        std::thread::available_parallelism()
                            .map(|p| p.get())
                            .unwrap_or(1)
                    })
                }
            }
            Self::Parallel { threads } => threads,
        };
        threads.clamp(1, num_workers.max(1))
    }
}

/// Configuration of a [`BspEngine`](crate::engine::BspEngine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BspConfig {
    /// Number of BSP workers the graph is partitioned over.
    pub num_workers: usize,
    /// Vertex-to-worker assignment strategy.
    pub partition_strategy: PartitionStrategy,
    /// Maximum number of supersteps before the engine aborts the run.
    pub max_supersteps: usize,
    /// Cost coefficients of the simulated cluster clock.
    pub cost: ClusterCostConfig,
    /// How superstep phases are executed (sequentially or on OS threads).
    /// Never affects results — see [`crate::runtime`]. Defaults to
    /// [`ExecutionMode::Auto`] when absent from serialized configs (configs
    /// written before this field existed keep deserializing).
    #[serde(default)]
    pub execution: ExecutionMode,
    /// Which executor runs the supersteps: the in-memory runtime or a
    /// transport-backed worker cluster (interpreted by `predict_cluster`,
    /// which sits above this crate). Never affects results — see
    /// [`crate::remote`]. Defaults to [`TransportMode::Auto`] (honor
    /// `PREDICT_TRANSPORT`) when absent from serialized configs.
    #[serde(default)]
    pub transport: TransportMode,
}

impl Default for BspConfig {
    fn default() -> Self {
        Self {
            num_workers: DEFAULT_NUM_WORKERS,
            partition_strategy: PartitionStrategy::Hash,
            max_supersteps: DEFAULT_MAX_SUPERSTEPS,
            cost: ClusterCostConfig::default(),
            execution: ExecutionMode::Auto,
            transport: TransportMode::Auto,
        }
    }
}

impl BspConfig {
    /// Creates a configuration with `num_workers` workers and defaults for
    /// everything else.
    pub fn with_workers(num_workers: usize) -> Self {
        Self {
            num_workers,
            ..Self::default()
        }
    }

    /// The worker count a run actually uses: [`BspConfig::num_workers`],
    /// but never zero. Every executor sizes its layout, shards and worker
    /// group from this, so a zero-worker config runs as one worker everywhere.
    pub fn workers(&self) -> usize {
        self.num_workers.max(1)
    }

    /// Replaces the cluster cost configuration.
    pub fn with_cost(mut self, cost: ClusterCostConfig) -> Self {
        self.cost = cost;
        self
    }

    /// Replaces the partition strategy.
    pub fn with_partition_strategy(mut self, strategy: PartitionStrategy) -> Self {
        self.partition_strategy = strategy;
        self
    }

    /// Replaces the superstep cap.
    pub fn with_max_supersteps(mut self, max: usize) -> Self {
        self.max_supersteps = max;
        self
    }

    /// Replaces the execution mode.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Replaces the transport mode.
    pub fn with_transport(mut self, transport: TransportMode) -> Self {
        self.transport = transport;
        self
    }

    /// A paper-like configuration: 29 workers (the paper's Giraph setup) and
    /// default costs.
    pub fn paper_cluster() -> Self {
        Self::with_workers(29)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = BspConfig::default();
        assert_eq!(c.num_workers, DEFAULT_NUM_WORKERS);
        assert_eq!(c.max_supersteps, DEFAULT_MAX_SUPERSTEPS);
        assert_eq!(c.partition_strategy, PartitionStrategy::Hash);
    }

    #[test]
    fn builders_override_fields() {
        let c = BspConfig::with_workers(4)
            .with_max_supersteps(10)
            .with_partition_strategy(PartitionStrategy::Modulo);
        assert_eq!(c.num_workers, 4);
        assert_eq!(c.max_supersteps, 10);
        assert_eq!(c.partition_strategy, PartitionStrategy::Modulo);
    }

    #[test]
    fn paper_cluster_has_29_workers() {
        assert_eq!(BspConfig::paper_cluster().num_workers, 29);
    }

    /// A run large enough that the small-run heuristic never triggers.
    const BIG_RUN: usize = MIN_PARALLEL_WORK * 2;

    #[test]
    fn execution_mode_resolves_to_bounded_thread_counts() {
        assert_eq!(ExecutionMode::Sequential.resolve_threads(8, BIG_RUN), 1);
        assert_eq!(
            ExecutionMode::Parallel { threads: 4 }.resolve_threads(8, BIG_RUN),
            4
        );
        // Never more threads than workers, never zero.
        assert_eq!(
            ExecutionMode::Parallel { threads: 9 }.resolve_threads(3, BIG_RUN),
            3
        );
        assert_eq!(
            ExecutionMode::Parallel { threads: 0 }.resolve_threads(1, BIG_RUN),
            1
        );
        let auto = ExecutionMode::Auto.resolve_threads(64, BIG_RUN);
        assert!((1..=64).contains(&auto));
        assert_eq!(ExecutionMode::Sequential.resolve_threads(0, BIG_RUN), 1);
    }

    #[test]
    fn small_runs_stay_sequential_unless_explicitly_parallel() {
        // Below the work cutoff, Auto and Parallel{0} stay on the calling
        // thread...
        assert_eq!(
            ExecutionMode::Auto.resolve_threads(8, MIN_PARALLEL_WORK - 1),
            1
        );
        assert_eq!(
            ExecutionMode::Parallel { threads: 0 }.resolve_threads(8, MIN_PARALLEL_WORK - 1),
            1
        );
        // ...but an explicit thread request is honored as given.
        assert_eq!(
            ExecutionMode::Parallel { threads: 4 }.resolve_threads(8, MIN_PARALLEL_WORK - 1),
            4
        );
    }

    #[test]
    fn configs_serialized_before_the_execution_field_still_deserialize() {
        let config = BspConfig::with_workers(2);
        let json = serde_json::to_string(&config).unwrap();
        let stripped = json.replace(",\"execution\":\"Auto\"", "");
        assert_ne!(stripped, json, "execution field must be present and Auto");
        let back: BspConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, config, "missing execution must default to Auto");
    }

    #[test]
    fn configs_serialized_before_the_transport_field_still_deserialize() {
        let config = BspConfig::with_workers(2);
        let json = serde_json::to_string(&config).unwrap();
        let stripped = json.replace(",\"transport\":\"Auto\"", "");
        assert_ne!(stripped, json, "transport field must be present and Auto");
        let back: BspConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, config, "missing transport must default to Auto");
    }

    #[test]
    fn transport_mode_round_trips_with_the_config() {
        let config = BspConfig::with_workers(2).with_transport(TransportMode::InProc);
        let json = serde_json::to_string(&config).unwrap();
        let back: BspConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.transport, TransportMode::InProc);
    }

    #[test]
    fn configs_that_still_carry_the_removed_pool_field_deserialize() {
        // `pool` selected scoped threads vs the worker pool and `storage` a
        // sharded in-memory graph layout until those paths were deleted;
        // stored configs that still name them keep loading, with the fields
        // ignored.
        let config = BspConfig::with_workers(2);
        let json = serde_json::to_string(&config).unwrap();
        let legacy = json.replacen('{', "{\"pool\":\"Off\",\"storage\":\"Sharded\",", 1);
        let back: BspConfig = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn execution_mode_serializes_with_the_config() {
        let config =
            BspConfig::with_workers(2).with_execution(ExecutionMode::Parallel { threads: 3 });
        let json = serde_json::to_string(&config).unwrap();
        let back: BspConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        assert_eq!(back.execution, ExecutionMode::Parallel { threads: 3 });
    }
}
