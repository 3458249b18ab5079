//! The unified error type of the prediction stack.
//!
//! Every stage of the pipeline — sampling, sample-run and actual-run
//! execution, training-set assembly, cost-model fitting — reports failures
//! through [`PredictError`], so sessions and the concurrent
//! [`crate::PredictService`] share one error surface. A run placed on a
//! cluster transport that loses a worker is [`PredictError::Cluster`], the
//! driver's structured report carried by value. Conditions that
//! used to panic inside stage code (non-finite or non-positive ratios
//! reaching the transform function's assertions) are validated up front and
//! surfaced as [`PredictError::InvalidConfig`] instead.

use crate::regression::RegressionError;
use predict_cluster::ClusterError;
use serde::Serialize;

/// Errors produced by the prediction pipeline, sessions and the service.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum PredictError {
    /// The predictor configuration is unusable: the sampling ratio or a
    /// training ratio is non-finite or non-positive. (An *empty*
    /// `training_ratios` list is valid — it means history-only or, failing
    /// that, sample-only training, which provenance marks as
    /// [`crate::TrainingSource::ExtrapolationSampleOnly`].) Validated before
    /// any stage runs so malformed configs fail fast instead of panicking
    /// deep inside the transform or extrapolation code.
    InvalidConfig(String),
    /// The sampling stage produced a graph with no vertices or edges (ratio
    /// too small, or an empty input graph).
    EmptySample {
        /// Name of the sampling technique that produced the empty sample.
        technique: String,
        /// The sampling ratio that was requested.
        ratio: f64,
        /// The seed the sampler was driven by.
        seed: u64,
    },
    /// The cost model could not be trained on the assembled training set.
    CostModel(RegressionError),
    /// A sample run or actual run was placed on a cluster transport and the
    /// drive failed: a worker died, hung past the read deadline or spoke the
    /// protocol wrong. The report names the worker and superstep and quotes
    /// the worker's stderr tail. Nothing is cached for the failed stage, so
    /// resubmitting the request runs it again on a fresh worker group.
    Cluster(ClusterError),
    /// A service worker panicked while evaluating this request. The panic is
    /// caught at the request boundary so one poisoned request cannot take
    /// down its batch (or the service): the other requests in the batch
    /// complete normally and this one reports the payload here.
    WorkerPanicked {
        /// The panic payload rendered as text, or `"non-string panic
        /// payload"` when the payload was not a string.
        message: String,
    },
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::InvalidConfig(reason) => {
                write!(f, "invalid predictor configuration: {reason}")
            }
            PredictError::EmptySample {
                technique,
                ratio,
                seed,
            } => write!(
                f,
                "sample graph has no vertices or edges ({technique} at ratio {ratio}, seed {seed})"
            ),
            PredictError::CostModel(e) => write!(f, "cost model training failed: {e}"),
            PredictError::Cluster(e) => write!(f, "cluster transport failed: {e}"),
            PredictError::WorkerPanicked { message } => {
                write!(f, "prediction worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PredictError {}

impl From<ClusterError> for PredictError {
    fn from(e: ClusterError) -> Self {
        PredictError::Cluster(e)
    }
}

impl PredictError {
    /// True when this error is the sampling stage's empty-sample condition,
    /// regardless of which technique/ratio/seed produced it.
    pub fn is_empty_sample(&self) -> bool {
        matches!(self, PredictError::EmptySample { .. })
    }

    /// Converts a caught panic payload (from `std::panic::catch_unwind`)
    /// into [`PredictError::WorkerPanicked`], preserving `panic!` message
    /// strings.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        PredictError::WorkerPanicked { message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = PredictError::EmptySample {
            technique: "BRJ".to_string(),
            ratio: 0.001,
            seed: 7,
        };
        let msg = e.to_string();
        assert!(msg.contains("BRJ") && msg.contains("0.001"));
        assert!(e.is_empty_sample());

        let e = PredictError::CostModel(RegressionError::EmptyTrainingSet);
        assert!(e.to_string().contains("cost model"));
        assert!(!e.is_empty_sample());

        let e = PredictError::InvalidConfig("sampling ratio must be positive".to_string());
        assert!(e.to_string().contains("positive"));
    }

    #[test]
    fn panic_payloads_convert_to_worker_panicked() {
        let static_str = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(
            PredictError::from_panic(static_str),
            PredictError::WorkerPanicked {
                message: "boom".to_string()
            }
        );
        let formatted = std::panic::catch_unwind(|| panic!("bad ratio {}", 0.5)).unwrap_err();
        let e = PredictError::from_panic(formatted);
        assert!(e.to_string().contains("bad ratio 0.5"), "{e}");
        let opaque = std::panic::catch_unwind(|| std::panic::panic_any(17u32)).unwrap_err();
        let e = PredictError::from_panic(opaque);
        assert!(e.to_string().contains("non-string"), "{e}");
    }

    #[test]
    fn cluster_errors_keep_their_structure() {
        let died = ClusterError::WorkerDied {
            worker: 3,
            superstep: Some(0),
            stderr_tail: "thread panicked".to_string(),
        };
        let e = PredictError::from(died.clone());
        assert_eq!(e, PredictError::Cluster(died));
        let text = e.to_string();
        assert!(text.starts_with("cluster transport failed: "), "{text}");
        assert!(text.contains("worker 3") && text.contains("superstep 0"));
        assert_eq!(
            serde_json::to_string(&e).unwrap(),
            r#"{"Cluster":{"WorkerDied":{"worker":3,"superstep":0,"stderr_tail":"thread panicked"}}}"#
        );
        let timeout = PredictError::Cluster(ClusterError::Timeout {
            worker: 1,
            superstep: None,
            timeout_ms: 1500,
            stderr_tail: String::new(),
        });
        assert!(timeout.to_string().contains("1500ms"));
        let json = serde_json::to_string(&timeout).unwrap();
        assert!(json.contains(r#""timeout_ms":1500"#), "{json}");
    }

    #[test]
    fn cost_model_errors_wrap_regression_errors() {
        let e = PredictError::CostModel(RegressionError::EmptyTrainingSet);
        assert_eq!(
            e,
            PredictError::CostModel(RegressionError::EmptyTrainingSet)
        );
        assert!(e.to_string().contains("training"));
    }
}
