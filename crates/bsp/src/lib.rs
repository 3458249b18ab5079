//! A Giraph-like Bulk Synchronous Parallel (BSP) engine with a simulated
//! cluster clock.
//!
//! The paper executes its iterative algorithms on Apache Giraph (BSP on top of
//! Hadoop). This crate reproduces the parts of that stack PREDIcT interacts
//! with:
//!
//! * a vertex-centric programming model ([`VertexProgram`], [`ComputeContext`])
//!   with messages, global [`Aggregates`] and vote-to-halt semantics;
//! * a master/worker execution structure with hash partitioning
//!   ([`PartitionStrategy`]) and per-worker, per-superstep Table 1 feature
//!   counters ([`WorkerCounters`]);
//! * a **parallel deterministic runtime** ([`runtime`]) that shards all
//!   per-vertex state by worker ([`WorkerShard`], cached [`ShardLayout`]s)
//!   and fans superstep phases out over a persistent work-stealing
//!   [`WorkerPool`] ([`ExecutionMode`]) while producing byte-identical
//!   profiles at every thread count;
//! * **one master loop** ([`runtime::run_master`]) behind a [`Workers`]
//!   trait, shared by the in-memory executor and the `predict_cluster`
//!   driver, so a cluster run is the same computation by construction;
//! * the phase breakdown of a Giraph job (setup / read / superstep / write)
//!   recorded in a [`RunProfile`];
//! * a **simulated cluster clock** ([`ClusterClock`]) that converts worker
//!   counters into superstep wall times with a hidden, network-dominant cost
//!   function — the stand-in for the paper's 10-node cluster (see
//!   `docs/ARCHITECTURE.md` for why this substitution preserves the
//!   evaluation).
//!
//! # Example
//!
//! ```
//! use predict_bsp::{BspConfig, BspEngine, ComputeContext, InitContext, VertexProgram};
//! use predict_graph::{CsrGraph, EdgeList, VertexId};
//!
//! /// Count the in-degree of every vertex by messaging over each edge once.
//! struct InDegree;
//!
//! impl VertexProgram for InDegree {
//!     type VertexValue = u64;
//!     type Message = u8;
//!
//!     fn name(&self) -> &'static str { "in-degree" }
//!     fn init_vertex(&self, _v: VertexId, _ctx: &InitContext<'_>) -> u64 { 0 }
//!     fn compute(&self, ctx: &mut ComputeContext<'_, u64, u8>, messages: &[u8]) {
//!         if ctx.superstep == 0 {
//!             ctx.send_to_all_neighbors(1);
//!         } else {
//!             *ctx.value = messages.len() as u64;
//!         }
//!         ctx.vote_to_halt();
//!     }
//!     fn message_size_bytes(&self, _m: &u8) -> u64 { 1 }
//! }
//!
//! let el: EdgeList = [(0u32, 1u32), (2, 1)].into_iter().collect();
//! let graph = CsrGraph::from_edge_list(&el);
//! let result = BspEngine::new(BspConfig::default()).run(&graph, &InDegree);
//! assert_eq!(result.values[1], 2);
//! ```

pub mod aggregator;
pub mod combiner;
pub mod config;
pub mod cost;
pub mod counters;
pub mod engine;
pub mod knobs;
pub mod partition;
pub mod profile;
pub mod program;
pub mod remote;
pub mod runtime;
pub mod storage;
pub mod worker;

pub use aggregator::{Aggregates, AggregatorKind};
pub use combiner::{MessageCombiner, MinCombiner, SumCombiner};
pub use config::{BspConfig, ExecutionMode};
pub use cost::{ClusterClock, ClusterCostConfig};
pub use counters::{sum_counters, WorkerCounters};
pub use engine::{BspEngine, BspRunResult, HaltReason};
pub use knobs::{env_store_path, env_trace_path};
pub use partition::PartitionStrategy;
pub use profile::{RunProfile, SuperstepProfile};
pub use program::{ComputeContext, InitContext, VertexProgram};
pub use remote::{MeasuredRun, MeasuredSuperstep, TransportMode};
pub use runtime::{
    run_master, Inbox, LayoutCache, ShardLayout, StepSink, WorkerPool, WorkerShard, Workers,
};
