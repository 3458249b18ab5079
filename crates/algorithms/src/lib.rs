//! The iterative graph algorithms evaluated by PREDIcT.
//!
//! These are the workloads of the paper's evaluation (section 4 and 5),
//! implemented as vertex programs on top of the [`predict_bsp`] engine:
//!
//! | Paper name | Module | Runtime pattern | Convergence |
//! |---|---|---|---|
//! | PageRank (PR) | [`pagerank`] | constant per iteration | average rank delta < τ (absolute) |
//! | Top-k ranking (TOP-K) | [`topk`] | variable message *counts* | updated-vertex ratio < τ |
//! | Semi-clustering (SC) | [`semi_clustering`] | variable message *sizes* | updated-cluster ratio < τ |
//! | Connected components (CC) | [`connected_components`] | sparse, shrinking frontier | fixed point |
//! | Neighborhood estimation (NH) | [`neighborhood`] | shrinking frontier | changed-sketch ratio < τ |
//! | SSSP (extra) | [`sssp`] | sparse frontier | fixed point |
//!
//! The [`workload`] module wraps each of them in the uniform [`Workload`]
//! interface the prediction pipeline consumes; a workload describes its run
//! once as a [`RunPlan`] (undirected conversion, PageRank pre-pass for top-k,
//! the [`ProgramSpec`] of the profiled program) that the in-memory engine
//! and the cluster runner both execute.
//!
//! # Example
//!
//! ```
//! use predict_algorithms::pagerank::{PageRank, PageRankParams};
//! use predict_bsp::{BspConfig, BspEngine};
//! use predict_graph::generators::{generate_rmat, RmatConfig};
//!
//! let graph = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
//! let engine = BspEngine::new(BspConfig::default());
//! let result = PageRank::new(PageRankParams::with_epsilon(0.01, graph.num_vertices()))
//!     .run(&engine, &graph);
//! assert!(result.iterations > 1);
//! ```

pub mod connected_components;
pub mod convergence;
pub mod neighborhood;
pub mod pagerank;
pub mod semi_clustering;
pub mod sssp;
pub mod topk;
pub mod workload;

pub use connected_components::{ConnectedComponents, ConnectedComponentsResult};
pub use convergence::ConvergenceKind;
pub use neighborhood::{
    NeighborhoodEstimation, NeighborhoodParams, NeighborhoodResult, NeighborhoodSketch,
};
pub use pagerank::{PageRank, PageRankParams, PageRankResult};
pub use semi_clustering::{
    SemiCluster, SemiClusterList, SemiClustering, SemiClusteringParams, SemiClusteringResult,
};
pub use sssp::{ShortestPaths, ShortestPathsResult};
pub use topk::{TopKParams, TopKRanking, TopKResult, TopKState};
pub use workload::{
    ConnectedComponentsWorkload, NeighborhoodWorkload, PageRankWorkload, ProgramSpec, RunPlan,
    SemiClusteringWorkload, TopKWorkload, Workload, WorkloadRun,
};
