//! Critical-path worker selection.
//!
//! In the BSP model the runtime of a superstep is determined by the slowest
//! worker (section 3.3 / 3.4 of the paper). PREDIcT therefore bases both cost
//! model training and prediction on the features of the worker on the
//! critical path. The paper identifies that worker *before execution* by the
//! number of outbound edges owned by each worker (piggybacked on the read
//! phase); here the sample run has already executed, so its profile names the
//! worker that was actually slowest in each superstep, and that worker's
//! counters represent the iteration. A mean-worker alternative is the
//! ablation baseline.

use crate::features::{FeatureSet, IterationObservation};
use predict_bsp::{sum_counters, RunProfile, SuperstepProfile, WorkerCounters};
use serde::{Deserialize, Serialize};

/// Which worker's counters represent an iteration when extracting features
/// from a run profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum WorkerSelection {
    /// The worker with the largest simulated processing time in that
    /// iteration — the measured critical path (default, matches how the paper
    /// instruments per-worker counters and models the slowest worker).
    #[default]
    SlowestWorker,
    /// The average over all workers — an ablation that ignores skew.
    MeanWorker,
}

fn mean_counters(workers: &[WorkerCounters]) -> WorkerCounters {
    if workers.is_empty() {
        return WorkerCounters::default();
    }
    let total = sum_counters(workers);
    let n = workers.len() as u64;
    WorkerCounters {
        active_vertices: total.active_vertices / n,
        total_vertices: total.total_vertices / n,
        local_messages: total.local_messages / n,
        remote_messages: total.remote_messages / n,
        local_message_bytes: total.local_message_bytes / n,
        remote_message_bytes: total.remote_message_bytes / n,
    }
}

/// Counters representing one superstep under the given selection.
pub fn select_counters(superstep: &SuperstepProfile, selection: WorkerSelection) -> WorkerCounters {
    match selection {
        WorkerSelection::SlowestWorker => superstep.critical_path_counters(),
        WorkerSelection::MeanWorker => mean_counters(&superstep.workers),
    }
}

/// Extracts one [`IterationObservation`] per superstep of `profile`, using
/// `selection` to decide which worker's counters represent the iteration and
/// pairing them with the superstep's wall time. These observations are both
/// the training rows of the cost model and the per-iteration inputs of the
/// extrapolator.
pub fn observations_from_profile(
    profile: &RunProfile,
    selection: WorkerSelection,
) -> Vec<IterationObservation> {
    profile
        .supersteps
        .iter()
        .map(|s| IterationObservation {
            superstep: s.superstep,
            features: FeatureSet::from_counters(&select_counters(s, selection)),
            wall_time_ms: s.wall_time_ms,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::KeyFeature;
    use predict_bsp::Aggregates;

    fn superstep() -> SuperstepProfile {
        let worker = |active: u64, remote_bytes: u64| WorkerCounters {
            active_vertices: active,
            total_vertices: active * 2,
            local_messages: 1,
            remote_messages: 4,
            local_message_bytes: 8,
            remote_message_bytes: remote_bytes,
        };
        SuperstepProfile {
            superstep: 3,
            workers: vec![worker(10, 100), worker(30, 900), worker(20, 500)],
            worker_times_ms: vec![1.0, 9.0, 5.0],
            wall_time_ms: 12.0,
            aggregates: Aggregates::new(),
        }
    }

    #[test]
    fn slowest_worker_selection_picks_the_heaviest_counters() {
        let s = superstep();
        let c = select_counters(&s, WorkerSelection::SlowestWorker);
        assert_eq!(c.active_vertices, 30);
        assert_eq!(c.remote_message_bytes, 900);
    }

    #[test]
    fn mean_worker_selection_averages_counters() {
        let s = superstep();
        let c = select_counters(&s, WorkerSelection::MeanWorker);
        assert_eq!(c.active_vertices, 20);
        assert_eq!(c.remote_message_bytes, 500);
    }

    #[test]
    fn observations_pair_features_with_wall_times() {
        let profile = RunProfile {
            algorithm: "x".into(),
            num_vertices: 10,
            num_edges: 20,
            num_workers: 3,
            setup_ms: 0.0,
            read_ms: 0.0,
            write_ms: 0.0,
            supersteps: vec![superstep()],
            measured: None,
        };
        let obs = observations_from_profile(&profile, WorkerSelection::SlowestWorker);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].superstep, 3);
        assert_eq!(obs[0].wall_time_ms, 12.0);
        assert_eq!(obs[0].features.get(KeyFeature::ActiveVertices), 30.0);
    }
}
