//! The customizable cost model (section 3.4 of the paper).
//!
//! The cost model translates extrapolated key input features into
//! per-iteration runtime. It is trained on **every worker of every training
//! superstep**: one row per worker, its Table 1 counters against its own
//! processing time (`SuperstepProfile::{workers, worker_times_ms}`), from the
//! sample runs and, when available, historical actual runs on other
//! datasets. The per-worker fit is a non-negative linear regression over all
//! seven features ([`LinearModel::fit`]); its coefficients are the "cost
//! values" of each feature. What no worker pays — coordination and the
//! barrier — is the model's fixed term: the median over the training
//! supersteps of the wall time minus the slowest worker's time.
//!
//! An iteration costs the fixed term plus the per-worker model applied to
//! the features of the worker that represents it (the critical-path worker
//! by default). Every input and coefficient is non-negative, so an iteration
//! never costs less than the fixed term.

use crate::features::FeatureSet;
use crate::regression::{LinearModel, RegressionError};
use predict_bsp::RunProfile;
use serde::{Deserialize, Serialize};

/// A trained per-iteration cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// The per-worker fit: one non-negative cost value per Table 1 feature
    /// plus a non-negative intercept.
    pub model: LinearModel,
    /// Fixed per-superstep cost outside the workers: the median over the
    /// training supersteps of `wall_time_ms − max(worker_times_ms)`.
    pub fixed_ms: f64,
    /// Number of worker rows the model was trained on.
    pub training_observations: usize,
}

impl CostModel {
    /// Trains a cost model on every worker of every superstep of `profiles`.
    ///
    /// Training fails only when the profiles hold no worker rows.
    pub fn train(profiles: &[&RunProfile]) -> Result<Self, RegressionError> {
        let supersteps = || profiles.iter().flat_map(|p| &p.supersteps);
        let rows = supersteps().flat_map(|s| {
            s.workers
                .iter()
                .zip(&s.worker_times_ms)
                .map(|(counters, &ms)| (FeatureSet::from_counters(counters), ms))
        });
        let model = LinearModel::fit(rows)?;
        let mut gaps: Vec<f64> = supersteps()
            .map(|s| s.wall_time_ms - s.worker_times_ms.iter().copied().fold(0.0, f64::max))
            .collect();
        gaps.sort_by(f64::total_cmp);
        let mid = gaps.len() / 2;
        let fixed_ms = if gaps.len() % 2 == 1 {
            gaps[mid]
        } else {
            (gaps[mid - 1] + gaps[mid]) / 2.0
        };
        Ok(Self {
            model,
            fixed_ms,
            training_observations: supersteps().map(|s| s.workers.len()).sum(),
        })
    }

    /// Predicted runtime in milliseconds of one iteration whose representing
    /// worker has `features` (typically the extrapolated features of a
    /// sample-run iteration): the fixed term plus that worker's cost.
    pub fn predict_iteration_ms(&self, features: &FeatureSet) -> f64 {
        self.fixed_ms + self.model.predict(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{Aggregates, SuperstepProfile, WorkerCounters};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A profile of a synthetic cluster whose true per-worker cost is known:
    /// 0.0002 ms/remote byte + 0.002 ms/active vertex (plus up to 0.5 ms noise),
    /// with 15 ms per superstep outside the workers.
    fn synthetic_profile(supersteps: usize, scale: f64, seed: u64) -> RunProfile {
        let mut rng = StdRng::seed_from_u64(seed);
        let supersteps = (0..supersteps)
            .map(|superstep| {
                let workers: Vec<WorkerCounters> = (0..4)
                    .map(|_| {
                        let active = (rng.gen_range(100.0..1_000.0) * scale) as u64;
                        let remote_bytes = (rng.gen_range(10_000.0..100_000.0) * scale) as u64;
                        WorkerCounters {
                            active_vertices: active,
                            total_vertices: active * 2,
                            local_messages: active / 2,
                            remote_messages: remote_bytes / 50,
                            local_message_bytes: remote_bytes / 10,
                            remote_message_bytes: remote_bytes,
                        }
                    })
                    .collect();
                let worker_times_ms: Vec<f64> = workers
                    .iter()
                    .map(|w| {
                        0.0002 * w.remote_message_bytes as f64
                            + 0.002 * w.active_vertices as f64
                            + rng.gen_range(0.0..0.5)
                    })
                    .collect();
                let slowest = worker_times_ms.iter().copied().fold(0.0, f64::max);
                SuperstepProfile {
                    superstep,
                    workers,
                    worker_times_ms,
                    wall_time_ms: 15.0 + slowest,
                    aggregates: Aggregates::new(),
                }
            })
            .collect();
        RunProfile {
            algorithm: "synthetic".into(),
            num_vertices: 0,
            num_edges: 0,
            num_workers: 4,
            setup_ms: 0.0,
            read_ms: 0.0,
            write_ms: 0.0,
            supersteps,
            measured: None,
        }
    }

    #[test]
    fn trains_and_fits_well_on_synthetic_cluster_data() {
        let profile = synthetic_profile(25, 1.0, 1);
        let model = CostModel::train(&[&profile]).unwrap();
        // One row per worker of every superstep.
        assert_eq!(model.training_observations, 100);
        assert!(model.model.coefficients.iter().all(|&c| c >= 0.0));
        // Every worker's time is fit to within the 0.5 ms of noise.
        for s in &profile.supersteps {
            for (counters, &ms) in s.workers.iter().zip(&s.worker_times_ms) {
                let residual = model.model.predict(&FeatureSet::from_counters(counters)) - ms;
                assert!(residual.abs() < 0.5, "residual {residual} ms");
            }
        }
    }

    #[test]
    fn intercept_absorbs_fixed_overhead() {
        // The 15 ms no worker pays is the fixed term, not a worker cost.
        let profile = synthetic_profile(40, 1.0, 5);
        let model = CostModel::train(&[&profile]).unwrap();
        assert!((model.fixed_ms - 15.0).abs() < 1e-9, "{}", model.fixed_ms);
        assert!(
            model.model.intercept < 1.0,
            "intercept {} took on the superstep overhead",
            model.model.intercept
        );
    }

    #[test]
    fn predicts_outside_the_training_range() {
        // Train at sample-run scale, predict at 10x scale (the paper's
        // "train on sample run, test on actual run" requirement).
        let train = synthetic_profile(25, 1.0, 2);
        let test = synthetic_profile(10, 10.0, 3);
        let model = CostModel::train(&[&train]).unwrap();
        for s in &test.supersteps {
            let features = FeatureSet::from_counters(&s.critical_path_counters());
            let predicted = model.predict_iteration_ms(&features);
            let err = (predicted - s.wall_time_ms).abs() / s.wall_time_ms;
            assert!(err < 0.05, "relative error {err} too high at 10x scale");
        }
    }

    #[test]
    fn empty_training_set_is_an_error() {
        assert_eq!(
            CostModel::train(&[]).unwrap_err(),
            RegressionError::EmptyTrainingSet
        );
    }

    #[test]
    fn degenerate_constant_observations_still_train() {
        // Idle workers and a constant wall time: the model is the fixed term.
        let mut profile = synthetic_profile(5, 1.0, 4);
        for s in &mut profile.supersteps {
            s.workers = vec![WorkerCounters::default(); 4];
            s.worker_times_ms = vec![0.0; 4];
            s.wall_time_ms = 25.0;
        }
        let model = CostModel::train(&[&profile]).unwrap();
        let idle = FeatureSet::from_counters(&WorkerCounters::default());
        assert_eq!(model.predict_iteration_ms(&idle), 25.0);
    }
}
