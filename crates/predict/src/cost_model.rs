//! The customizable cost model (section 3.4 of the paper).
//!
//! The cost model translates extrapolated key input features into
//! per-iteration runtime. It is a multivariate linear regression over the
//! features chosen by sequential forward selection, trained on the
//! per-iteration observations of sample runs and, when available, of
//! historical actual runs on other datasets. Its coefficients are the "cost
//! values" of each feature; the intercept absorbs the fixed per-superstep
//! overheads of the execution engine.

use crate::feature_selection::{forward_select, SelectionConfig};
use crate::features::{FeatureSet, IterationObservation, KeyFeature};
use crate::regression::{LinearModel, RegressionError};
use serde::{Deserialize, Serialize};

/// Configuration of cost model training.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModelConfig {
    /// Candidate features offered to the selection procedure.
    pub candidate_features: Vec<KeyFeature>,
    /// Forward-selection settings.
    pub selection: SelectionConfig,
    /// Ridge regularization of the final fit (0 = ordinary least squares;
    /// the selection step always uses a tiny ridge internally).
    pub ridge_lambda: f64,
}

impl Default for CostModelConfig {
    fn default() -> Self {
        Self {
            candidate_features: KeyFeature::ALL.to_vec(),
            selection: SelectionConfig::default(),
            ridge_lambda: 0.0,
        }
    }
}

/// A trained per-iteration cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// The features the model actually uses, in selection order.
    pub features: Vec<KeyFeature>,
    /// The fitted regression over those features.
    pub model: LinearModel,
    /// Number of observations the model was trained on.
    pub training_observations: usize,
}

impl CostModel {
    /// Trains a cost model on per-iteration observations.
    ///
    /// Training fails only when no observations are provided or when even a
    /// ridge-regularized single-feature model cannot be fit.
    pub fn train(
        observations: &[IterationObservation],
        config: &CostModelConfig,
    ) -> Result<Self, RegressionError> {
        if observations.is_empty() {
            return Err(RegressionError::EmptyTrainingSet);
        }
        let features: Vec<FeatureSet> = observations.iter().map(|o| o.features).collect();
        let targets: Vec<f64> = observations.iter().map(|o| o.wall_time_ms).collect();

        let selection = forward_select(
            &features,
            &targets,
            &config.candidate_features,
            &config.selection,
        );
        let selected = if selection.features.is_empty() {
            // Degenerate training data (e.g. all-zero features): fall back to
            // the full candidate pool so the model is at least well formed.
            config.candidate_features.clone()
        } else {
            selection.features
        };

        let rows: Vec<Vec<f64>> = features.iter().map(|f| f.select(&selected)).collect();
        let model = match LinearModel::fit_ridge(&rows, &targets, config.ridge_lambda) {
            Ok(m) => m,
            // Collinear features on tiny training sets: retry with a small
            // ridge penalty, which is always solvable.
            Err(RegressionError::SingularSystem) => LinearModel::fit_ridge(&rows, &targets, 1e-6)?,
            Err(e) => return Err(e),
        };
        Ok(Self {
            features: selected,
            model,
            training_observations: observations.len(),
        })
    }

    /// Predicted runtime in milliseconds of one iteration described by
    /// `features` (typically the extrapolated features of a sample-run
    /// iteration).
    pub fn predict_iteration_ms(&self, features: &FeatureSet) -> f64 {
        self.model.predict(&features.select(&self.features))
    }

    /// R² of the model on its training data.
    pub fn r_squared(&self) -> f64 {
        self.model.r_squared
    }

    /// R² of the model on an arbitrary set of observations (e.g. held-out
    /// actual runs).
    pub fn r_squared_on(&self, observations: &[IterationObservation]) -> f64 {
        let rows: Vec<Vec<f64>> = observations
            .iter()
            .map(|o| o.features.select(&self.features))
            .collect();
        let targets: Vec<f64> = observations.iter().map(|o| o.wall_time_ms).collect();
        self.model.r_squared_on(&rows, &targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::WorkerCounters;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Observations from a synthetic cluster whose true cost function is
    /// known: 15 ms fixed + 0.0002 ms/remote byte + 0.002 ms/active vertex.
    fn synthetic_observations(n: usize, scale: f64, seed: u64) -> Vec<IterationObservation> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let active = (rng.gen_range(100.0..1_000.0) * scale) as u64;
                let remote_bytes = (rng.gen_range(10_000.0..100_000.0) * scale) as u64;
                let counters = WorkerCounters {
                    active_vertices: active,
                    total_vertices: active * 2,
                    local_messages: active / 2,
                    remote_messages: remote_bytes / 50,
                    local_message_bytes: remote_bytes / 10,
                    remote_message_bytes: remote_bytes,
                };
                let noise: f64 = rng.gen_range(-0.5..0.5);
                IterationObservation {
                    superstep: i,
                    features: FeatureSet::from_counters(&counters),
                    wall_time_ms: 15.0
                        + 0.0002 * remote_bytes as f64
                        + 0.002 * active as f64
                        + noise,
                }
            })
            .collect()
    }

    #[test]
    fn trains_and_fits_well_on_synthetic_cluster_data() {
        let obs = synthetic_observations(100, 1.0, 1);
        let model = CostModel::train(&obs, &CostModelConfig::default()).unwrap();
        assert!(model.r_squared() > 0.95, "R² {}", model.r_squared());
        assert!(!model.features.is_empty());
        assert_eq!(model.training_observations, 100);
    }

    #[test]
    fn predicts_outside_the_training_range() {
        // Train at sample-run scale, predict at 10x scale (the paper's
        // "train on sample run, test on actual run" requirement).
        let train = synthetic_observations(100, 1.0, 2);
        let test = synthetic_observations(50, 10.0, 3);
        let model = CostModel::train(&train, &CostModelConfig::default()).unwrap();
        for o in &test {
            let predicted = model.predict_iteration_ms(&o.features);
            let err = (predicted - o.wall_time_ms).abs() / o.wall_time_ms;
            assert!(err < 0.25, "relative error {err} too high at 10x scale");
        }
        assert!(model.r_squared_on(&test) > 0.8);
    }

    #[test]
    fn intercept_absorbs_fixed_overhead() {
        let obs = synthetic_observations(200, 1.0, 5);
        let model = CostModel::train(&obs, &CostModelConfig::default()).unwrap();
        // The true fixed overhead is 15 ms; the fitted intercept should land
        // in its vicinity (collinearity with TotVert can shift it a little).
        assert!(
            model.model.intercept > 5.0 && model.model.intercept < 25.0,
            "intercept {} not near the 15 ms overhead",
            model.model.intercept
        );
    }

    #[test]
    fn empty_training_set_is_an_error() {
        assert_eq!(
            CostModel::train(&[], &CostModelConfig::default()).unwrap_err(),
            RegressionError::EmptyTrainingSet
        );
    }

    #[test]
    fn restricted_candidate_pool_is_used() {
        let obs = synthetic_observations(100, 1.0, 7);
        let config = CostModelConfig {
            candidate_features: vec![KeyFeature::RemoteMessageBytes],
            ..Default::default()
        };
        let model = CostModel::train(&obs, &config).unwrap();
        assert_eq!(model.features, vec![KeyFeature::RemoteMessageBytes]);
    }

    #[test]
    fn degenerate_constant_observations_still_train() {
        let counters = WorkerCounters::default();
        let obs: Vec<IterationObservation> = (0..5)
            .map(|i| IterationObservation {
                superstep: i,
                features: FeatureSet::from_counters(&counters),
                wall_time_ms: 25.0,
            })
            .collect();
        let model = CostModel::train(&obs, &CostModelConfig::default()).unwrap();
        assert!((model.predict_iteration_ms(&obs[0].features) - 25.0).abs() < 1e-6);
    }
}
