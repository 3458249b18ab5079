//! Integration tests for the historical-run store and for end-to-end
//! determinism of the pipeline, through the session API.

use predict_repro::algorithms::TopKParams;
use predict_repro::prelude::*;

fn engine() -> BspEngine {
    BspEngine::new(BspConfig::with_workers(8))
}

#[test]
fn history_store_roundtrips_through_disk_and_feeds_predictions() {
    let engine = engine();
    let workload = TopKWorkload::new(TopKParams::new(5, 0.001), 0.01);

    // Record actual runs on two datasets.
    let mut history = HistoryStore::new();
    for dataset in [Dataset::LiveJournal, Dataset::Uk2002] {
        let graph = dataset.load_small();
        let run = workload.run(&engine, &graph);
        history.record(workload.name(), dataset.prefix(), run.profile);
    }

    // Persist and reload.
    let dir = std::env::temp_dir().join("predict_repro_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("history.json");
    history.save(&path).unwrap();
    let reloaded = HistoryStore::load(&path).unwrap();
    assert_eq!(reloaded.len(), 2);
    std::fs::remove_file(&path).ok();

    // Bind a session on a third dataset with the reloaded history.
    let with_history_session = PredictorBuilder::new()
        .engine(engine.clone())
        .sampler(BiasedRandomJump::default())
        .config(PredictorConfig::single_ratio(0.1))
        .bind_with_history(Dataset::Wikipedia.load_small(), "Wiki", reloaded);
    let with_history = with_history_session
        .predict(&workload)
        .expect("prediction succeeds");
    assert!(with_history.cost_model.training_observations > 0);
    assert!(with_history.predicted_superstep_ms > 0.0);
    assert_eq!(
        with_history.training.source,
        TrainingSource::SampleRunsWithHistory
    );

    // History from other datasets adds training rows compared to sample-only.
    let without_history_session = PredictorBuilder::new()
        .engine(engine)
        .sampler(BiasedRandomJump::default())
        .config(PredictorConfig::single_ratio(0.1))
        .bind(Dataset::Wikipedia.load_small(), "Wiki");
    let without_history = without_history_session
        .predict(&workload)
        .expect("prediction succeeds");
    assert!(
        with_history.cost_model.training_observations
            > without_history.cost_model.training_observations
    );
    assert_eq!(without_history.training.source, TrainingSource::SampleRuns);
    assert_eq!(without_history.training.history_observations, 0);
}

/// A session bound for one prediction: cold caches, every stage computes.
fn cold_prediction(
    engine: &BspEngine,
    graph: &CsrGraph,
    workload: &dyn Workload,
    config: PredictorConfig,
    dataset: &str,
) -> Prediction {
    PredictorBuilder::new()
        .engine(engine.clone())
        .config(config)
        .bind(graph.clone(), dataset)
        .predict(workload)
        .expect("prediction succeeds")
}

#[test]
fn pipeline_is_deterministic_for_fixed_seeds() {
    let engine = engine();
    let graph = Dataset::Wikipedia.load_small();
    let workload = PageRankWorkload::with_epsilon(0.001, graph.num_vertices());
    let config = || PredictorConfig::single_ratio(0.1).with_seed(42);

    // Two independently bound sessions: nothing is shared between the runs
    // but the inputs and the seed.
    let a = cold_prediction(&engine, &graph, &workload, config(), "Wiki");
    let b = cold_prediction(&engine, &graph, &workload, config(), "Wiki");
    assert_eq!(a.predicted_iterations, b.predicted_iterations);
    assert_eq!(a.predicted_superstep_ms, b.predicted_superstep_ms);
    assert_eq!(a.per_iteration_ms, b.per_iteration_ms);
}

#[test]
fn same_seed_runs_serialize_to_byte_identical_history_json() {
    // Regression test for end-to-end determinism of the serialized artifacts:
    // two pipeline runs with the same seed must produce byte-identical
    // `HistoryStore::to_json()` output, not just equal in-memory predictions.
    // This guards both the pipeline (no hidden nondeterminism in sampling or
    // the simulated clock) and the serializer (deterministic field and map
    // ordering). One prediction is served warm from a session's caches, the
    // other computed by a freshly bound cold session, so cache hits are also
    // pinned to recomputation.
    let engine = engine();
    let graph = Dataset::LiveJournal.load_small();
    let workload = PageRankWorkload::with_epsilon(0.001, graph.num_vertices());
    let config = || PredictorConfig::single_ratio(0.1).with_seed(0xD5);

    let history_json = |prediction: Prediction| {
        let mut history = HistoryStore::new();
        history.record(workload.name(), "LJ", prediction.sample_profile);
        history.to_json().expect("history serializes")
    };

    let session = PredictorBuilder::new()
        .engine(engine.clone())
        .sampler(BiasedRandomJump::default())
        .config(config())
        .bind(graph.clone(), "LJ");
    session.predict(&workload).expect("prediction succeeds");
    let a = history_json(session.predict(&workload).expect("prediction succeeds"));
    let b = history_json(cold_prediction(&engine, &graph, &workload, config(), "LJ"));
    assert!(!a.is_empty());
    assert_eq!(a.as_bytes(), b.as_bytes(), "same-seed history JSON differs");
}

#[test]
fn different_seeds_still_give_consistent_iteration_predictions() {
    // The prediction should be robust to the sampling seed: iteration
    // estimates across seeds must stay within a small band of each other.
    // One session serves all seeds; each seed is a distinct cached artifact.
    let session = PredictorBuilder::new()
        .engine(engine())
        .sampler(BiasedRandomJump::default())
        .bind(Dataset::Uk2002.load_small(), "UK");
    let workload = PageRankWorkload::with_epsilon(0.001, session.graph().num_vertices());

    let mut iterations = Vec::new();
    for seed in [1u64, 2, 3, 4] {
        let p = session
            .predict_with(
                &workload,
                &PredictorConfig::single_ratio(0.1).with_seed(seed),
            )
            .unwrap();
        iterations.push(p.predicted_iterations as f64);
    }
    let min = iterations.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = iterations.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max - min <= max * 0.35,
        "iteration predictions vary too much across seeds: {iterations:?}"
    );
}
