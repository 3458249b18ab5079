//! Historical-run store.
//!
//! Analytical workloads are executed repetitively over newly arriving
//! datasets, so profiles of earlier *actual* runs are usually available. The
//! paper trains its cost models on sample runs plus (when they exist) those
//! historical runs, which improves the fitted cost factors — the difference
//! between the (a) and (b) variants of Figures 7 and 8. [`HistoryStore`] keeps
//! those profiles, keyed by workload and dataset, and can persist them to a
//! JSON file so a deployment accumulates history across invocations.

use crate::critical_path::{observations_from_profile, WorkerSelection};
use crate::features::IterationObservation;
use predict_bsp::RunProfile;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::path::Path;

/// A recorded actual run of a workload on some dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoricalRun {
    /// Workload name (e.g. "SC", "TOP-K").
    pub workload: String,
    /// Dataset label (e.g. "Wiki", "UK").
    pub dataset: String,
    /// Full run profile of the execution.
    pub profile: RunProfile,
}

/// A collection of historical runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoryStore {
    runs: Vec<HistoricalRun>,
}

impl HistoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs are stored.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Records an actual run of `workload` on `dataset`.
    pub fn record(&mut self, workload: &str, dataset: &str, profile: RunProfile) {
        self.runs.push(HistoricalRun {
            workload: workload.to_string(),
            dataset: dataset.to_string(),
            profile,
        });
    }

    /// All stored runs.
    pub fn runs(&self) -> &[HistoricalRun] {
        &self.runs
    }

    /// Runs of a given workload, optionally excluding one dataset (the
    /// leave-the-predicted-dataset-out protocol of section 5.2: "prior runs on
    /// all other datasets but the predicted one").
    pub fn runs_for(&self, workload: &str, exclude_dataset: Option<&str>) -> Vec<&HistoricalRun> {
        self.runs
            .iter()
            .filter(|r| r.workload == workload)
            .filter(|r| exclude_dataset.map(|d| r.dataset != d).unwrap_or(true))
            .collect()
    }

    /// Per-iteration training observations extracted from the stored runs of
    /// `workload` (excluding `exclude_dataset` when given).
    pub fn observations_for(
        &self,
        workload: &str,
        exclude_dataset: Option<&str>,
        selection: WorkerSelection,
    ) -> Vec<IterationObservation> {
        self.runs_for(workload, exclude_dataset)
            .iter()
            .flat_map(|r| observations_from_profile(&r.profile, selection))
            .collect()
    }

    /// Serializes the store to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes a store from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }

    /// Writes the store to a JSON file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        let json = self.to_json().map_err(std::io::Error::other)?;
        let mut file = std::fs::File::create(path)?;
        file.write_all(json.as_bytes())
    }

    /// Loads a store from a JSON file.
    pub fn load<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let mut json = String::new();
        std::fs::File::open(path)?.read_to_string(&mut json)?;
        Self::from_json(&json).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{Aggregates, SuperstepProfile, WorkerCounters};

    fn profile(name: &str, supersteps: usize) -> RunProfile {
        RunProfile {
            algorithm: name.to_string(),
            num_vertices: 100,
            num_edges: 500,
            num_workers: 2,
            setup_ms: 1.0,
            read_ms: 2.0,
            write_ms: 3.0,
            supersteps: (0..supersteps)
                .map(|s| SuperstepProfile {
                    superstep: s,
                    workers: vec![WorkerCounters::new(50), WorkerCounters::new(50)],
                    worker_times_ms: vec![1.0, 2.0],
                    wall_time_ms: 5.0,
                    aggregates: Aggregates::new(),
                })
                .collect(),
            measured: None,
        }
    }

    #[test]
    fn record_and_filter_by_workload_and_dataset() {
        let mut store = HistoryStore::new();
        store.record("SC", "Wiki", profile("semi-clustering", 3));
        store.record("SC", "UK", profile("semi-clustering", 4));
        store.record("PR", "Wiki", profile("pagerank", 5));
        assert_eq!(store.len(), 3);
        assert_eq!(store.runs_for("SC", None).len(), 2);
        assert_eq!(store.runs_for("SC", Some("UK")).len(), 1);
        assert_eq!(store.runs_for("SC", Some("UK"))[0].dataset, "Wiki");
        assert!(store.runs_for("NH", None).is_empty());
    }

    #[test]
    fn observations_concatenate_iterations_of_matching_runs() {
        let mut store = HistoryStore::new();
        store.record("SC", "Wiki", profile("semi-clustering", 3));
        store.record("SC", "UK", profile("semi-clustering", 4));
        let obs = store.observations_for("SC", None, WorkerSelection::SlowestWorker);
        assert_eq!(obs.len(), 7);
        let excluded = store.observations_for("SC", Some("UK"), WorkerSelection::SlowestWorker);
        assert_eq!(excluded.len(), 3);
    }

    #[test]
    fn json_roundtrip() {
        let mut store = HistoryStore::new();
        store.record("TOP-K", "LJ", profile("topk-ranking", 2));
        let json = store.to_json().unwrap();
        let back = HistoryStore::from_json(&json).unwrap();
        assert_eq!(store, back);
    }

    #[test]
    fn a_history_file_of_the_boxed_profile_form_still_loads() {
        // What `save` wrote before profiles serialized as columns: one map
        // per superstep, one map per worker.
        let worker = r#"{"active_vertices": 0, "total_vertices": 50, "local_messages": 0,
            "remote_messages": 0, "local_message_bytes": 0, "remote_message_bytes": 0}"#;
        let step = |s: usize| {
            format!(
                r#"{{"superstep": {s}, "workers": [{worker}, {worker}],
                "worker_times_ms": [1.0, 2.0], "wall_time_ms": 5.0,
                "aggregates": {{"values": {{}}}}}}"#
            )
        };
        let old = format!(
            r#"{{"runs": [{{"workload": "PR", "dataset": "Wiki", "profile": {{
                "algorithm": "pagerank", "num_vertices": 100, "num_edges": 500,
                "num_workers": 2, "setup_ms": 1.0, "read_ms": 2.0, "write_ms": 3.0,
                "supersteps": [{}, {}]}}}}]}}"#,
            step(0),
            step(1)
        );
        let mut expected = HistoryStore::new();
        expected.record("PR", "Wiki", profile("pagerank", 2));
        assert_eq!(HistoryStore::from_json(&old).unwrap(), expected);
        // Saving again writes the column form, which reads back the same.
        let columns = expected.to_json().unwrap();
        assert!(columns.contains("\"worker_count\""), "{columns}");
        assert_eq!(HistoryStore::from_json(&columns).unwrap(), expected);
    }

    #[test]
    fn a_non_finite_timing_survives_the_json_roundtrip() {
        // Non-finite floats serialize as `null` (JSON has no NaN literal); a
        // store containing one must still load — it comes back as NaN rather
        // than poisoning the whole history file with a deserialization error.
        let mut store = HistoryStore::new();
        let mut p = profile("pagerank", 1);
        p.supersteps[0].wall_time_ms = f64::NAN;
        store.record("PR", "Wiki", p);
        let json = store.to_json().unwrap();
        assert!(json.contains("null"), "{json}");
        let back = HistoryStore::from_json(&json).expect("null float failed to deserialize");
        assert!(back.runs()[0].profile.supersteps[0].wall_time_ms.is_nan());
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let mut store = HistoryStore::new();
        store.record("PR", "TW", profile("pagerank", 2));
        let dir = std::env::temp_dir().join("predict_history_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("history.json");
        store.save(&path).unwrap();
        let back = HistoryStore::load(&path).unwrap();
        assert_eq!(store, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_behaves() {
        let store = HistoryStore::new();
        assert!(store.is_empty());
        assert!(store
            .observations_for("PR", None, WorkerSelection::SlowestWorker)
            .is_empty());
    }
}
