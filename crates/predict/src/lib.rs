//! PREDIcT: sample-run based runtime prediction for large-scale iterative
//! analytics.
//!
//! This crate is the paper's primary contribution — an experimental
//! methodology that predicts both the number of iterations and the runtime of
//! network-intensive iterative graph algorithms executing on a BSP engine:
//!
//! * [`transform`] — the transform function that rescales convergence
//!   thresholds so a sample run converges in the same number of iterations as
//!   the actual run (section 3.2.2);
//! * [`features`] / [`critical_path`] — the Table 1 key input features and
//!   the critical-path worker selection used to extract them from run
//!   profiles (sections 3.3 and 3.4);
//! * [`extrapolator`] — per-iteration scaling of sample-run features to the
//!   full dataset by vertex/edge ratios (section 3.4);
//! * [`regression`], [`cost_model`] — the customizable cost model: a
//!   non-negative linear regression over all Table 1 features, fit on every
//!   worker of every training superstep, plus a fixed per-superstep term
//!   (section 3.4);
//! * [`history`] — the historical-run store that improves cost models when
//!   prior actual runs exist (section 5.2);
//! * [`metrics`] — the signed-relative-error metrics of section 5;
//! * [`bounds`] — the analytical iteration upper bounds PREDIcT is compared
//!   against (section 5.1).
//!
//! # Architecture: artifacts → sessions → service
//!
//! The paper motivates prediction as a *service* for schedulers doing SLA
//! feasibility and capacity planning, so the pipeline is decomposed into
//! reusable stages layered for that deployment shape:
//!
//! * [`artifacts`] — the first-class stage products: [`SampleArtifact`]
//!   (sampled graph + achieved ratio + seed provenance), [`SampleRunArtifact`]
//!   (profile of the transformed sample run plus the sample's
//!   [`SampleScale`]) and [`TrainedModel`] (cost model plus
//!   [`TrainingProvenance`]), each independently constructible and
//!   serializable;
//! * [`session`] — [`PredictionSession`] binds one dataset to an engine and a
//!   sampler and caches artifacts across predictions, so predicting many
//!   workloads or sweep points on one dataset performs each `(ratio, seed)`
//!   sample run exactly once. Sessions are built fluently via
//!   [`PredictorBuilder`];
//! * [`service`] — [`PredictService`], a `Sync` front-end holding sessions in
//!   a sharded LRU cache and answering [`PredictRequest`]s, one at a time or
//!   in deterministic batches on the engine's worker pool;
//! * [`error`] — the unified [`PredictError`] spanning sampling, cluster
//!   transport and model failures.
//!
//! # Example
//!
//! ```
//! use predict_core::{PredictorBuilder, PredictorConfig};
//! use predict_algorithms::PageRankWorkload;
//! use predict_bsp::{BspConfig, BspEngine};
//! use predict_graph::generators::{generate_rmat, RmatConfig};
//! use predict_sampling::BiasedRandomJump;
//!
//! let graph = generate_rmat(&RmatConfig::new(10, 8).with_seed(7));
//! let workload = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
//!
//! // Bind the dataset once; every prediction after the first reuses the
//! // cached sample runs and trained models.
//! let session = PredictorBuilder::new()
//!     .engine(BspEngine::new(BspConfig::default()))
//!     .sampler(BiasedRandomJump::default())
//!     .config(PredictorConfig::single_ratio(0.1))
//!     .bind(graph, "quickstart");
//! let prediction = session.predict(&workload).unwrap();
//! assert!(prediction.predicted_iterations > 0);
//! assert!(prediction.predicted_superstep_ms > 0.0);
//! ```

pub mod artifacts;
pub mod bounds;
pub mod cost_model;
pub mod critical_path;
pub mod error;
pub mod extrapolator;
pub mod features;
pub mod history;
pub mod metrics;
pub mod regression;
pub mod service;
pub mod session;
pub mod transform;

pub use artifacts::{
    ModelKey, RunKey, SampleArtifact, SampleKey, SampleRunArtifact, SampleScale, TrainedModel,
    TrainingProvenance, TrainingSource,
};
pub use cost_model::CostModel;
pub use critical_path::WorkerSelection;
pub use error::PredictError;
pub use extrapolator::{ExtrapolationRule, Extrapolator};
pub use features::{ExtrapolationKind, FeatureSet, KeyFeature};
pub use history::{HistoricalRun, HistoryStore};
pub use metrics::{absolute_relative_error, signed_relative_error};
pub use predict_store::{ArtifactKind, ArtifactStore};
pub use regression::{LinearModel, RegressionError};
pub use service::{PredictRequest, PredictService, PredictServiceConfig};
pub use session::{
    ConfigIdentity, Evaluation, Prediction, PredictionSession, PredictorBuilder, PredictorConfig,
    SessionStats,
};
pub use transform::{ThresholdRule, TransformFunction};
