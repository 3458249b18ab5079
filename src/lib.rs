//! # predict-repro
//!
//! A from-scratch Rust reproduction of **PREDIcT** (Popescu, Balmin,
//! Ercegovac, Ailamaki — *PREDIcT: Towards Predicting the Runtime of Large
//! Scale Iterative Analytics*, PVLDB 6(13), 2013): an experimental methodology
//! that predicts the number of iterations and the runtime of iterative graph
//! algorithms from short sample runs.
//!
//! This root crate re-exports the workspace members under stable module names
//! so applications can depend on a single crate:
//!
//! * [`graph`] — CSR graphs, generators, dataset analogs, property analysis;
//! * [`sampling`] — Biased Random Jump and the other sampling techniques;
//! * [`bsp`] — the Giraph-like BSP engine with a simulated cluster clock;
//! * [`algorithms`] — PageRank, top-k ranking, semi-clustering, connected
//!   components, neighborhood estimation, SSSP and the
//!   [`Workload`](algorithms::Workload) trait;
//! * [`cluster`] — out-of-process BSP workers behind a transport
//!   abstraction (wire format, worker protocol, measured superstep
//!   timings);
//! * [`predict`] — the PREDIcT pipeline itself (transform functions,
//!   extrapolation, cost models), decomposed into cached prediction
//!   sessions and the concurrent `PredictService` front-end.
//!
//! The [`prelude`] pulls in the handful of types most applications need.
//!
//! # Quickstart
//!
//! ```
//! use predict_repro::prelude::*;
//!
//! // A scaled-down analog of the paper's Wikipedia graph.
//! let graph = Dataset::Wikipedia.load_small();
//!
//! // The workload whose runtime we want to predict.
//! let workload = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
//!
//! // PREDIcT session: BRJ sampling + transform function + cost model,
//! // bound to the dataset once. Stage artifacts (sample draws, sample
//! // runs, trained models) are cached across predictions.
//! let session = PredictorBuilder::new()
//!     .engine(BspEngine::new(BspConfig::default()))
//!     .sampler(BiasedRandomJump::default())
//!     .config(PredictorConfig::single_ratio(0.1))
//!     .bind(graph, "Wiki");
//! let prediction = session.predict(&workload).expect("prediction succeeds");
//!
//! assert!(prediction.predicted_iterations > 0);
//! assert!(prediction.predicted_superstep_ms > 0.0);
//! ```

/// Graph substrate: CSR graphs, generators, dataset analogs and property
/// analysis (re-export of `predict-graph`).
pub use predict_graph as graph;

/// Sampling techniques: BRJ, RJ, MHRW and the random-node baseline
/// (re-export of `predict-sampling`).
pub use predict_sampling as sampling;

/// The Giraph-like BSP engine with per-worker feature counters and a
/// simulated cluster clock (re-export of `predict-bsp`).
pub use predict_bsp as bsp;

/// The iterative algorithms evaluated by the paper (re-export of
/// `predict-algorithms`).
pub use predict_algorithms as algorithms;

/// Out-of-process BSP workers, one graph shard each: wire format,
/// transports and the measured-superstep cluster driver (re-export of
/// `predict-cluster`).
pub use predict_cluster as cluster;

/// The PREDIcT prediction pipeline (re-export of `predict-core`).
pub use predict_core as predict;

/// The types most applications need, in one import.
pub mod prelude {
    pub use predict_algorithms::{
        ConnectedComponentsWorkload, NeighborhoodWorkload, PageRankWorkload,
        SemiClusteringWorkload, TopKWorkload, Workload, WorkloadRun,
    };
    pub use predict_bsp::{
        BspConfig, BspEngine, ClusterCostConfig, ExecutionMode, RunProfile, TransportMode,
        WorkerPool,
    };
    pub use predict_core::{
        Evaluation, HistoryStore, KeyFeature, PredictError, PredictRequest, PredictService,
        Prediction, PredictionSession, PredictorBuilder, PredictorConfig, TrainingSource,
        TransformFunction,
    };
    pub use predict_graph::datasets::{Dataset, DatasetScale};
    pub use predict_graph::CsrGraph;
    pub use predict_sampling::{BiasedRandomJump, RandomJump, Sampler};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_an_end_to_end_workflow() {
        let graph = Dataset::LiveJournal.load_small();
        let workload = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
        let session = PredictorBuilder::new()
            .engine(BspEngine::new(BspConfig::with_workers(4)))
            .sampler(BiasedRandomJump::default())
            .config(PredictorConfig::single_ratio(0.1))
            .bind(graph, "LJ");
        let prediction = session.predict(&workload).expect("prediction succeeds");
        assert!(prediction.predicted_iterations > 0);
    }
}
