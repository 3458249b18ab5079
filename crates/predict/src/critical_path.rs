//! Critical-path worker selection.
//!
//! In the BSP model the runtime of a superstep is determined by the slowest
//! worker (section 3.3 / 3.4 of the paper). The cost model is trained on
//! every worker, but PREDIcT prices an iteration by the features of the
//! worker on the critical path. The paper identifies that worker *before
//! execution* by the number of outbound edges owned by each worker
//! (piggybacked on the read phase); here the sample run has already
//! executed, so its profile names the worker that was actually slowest in
//! each superstep, and that worker's counters represent the iteration. A mean-worker alternative is the
//! ablation baseline.

use crate::features::FeatureSet;
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

/// Extracts one observation per superstep of `profile`: the features of the
/// worker that `selection` picks to represent the iteration. These are the
/// per-iteration inputs of the extrapolator.
pub fn observations_from_profile(
    profile: &RunProfile,
    selection: WorkerSelection,
) -> Vec<FeatureSet> {
    profile
        .supersteps
        .iter()
        .map(|s| FeatureSet::from_counters(&select_counters(s, selection)))
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
    fn observations_are_the_selected_workers_features() {
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
        assert_eq!(obs[0].get(KeyFeature::ActiveVertices), 30.0);
    }
}
