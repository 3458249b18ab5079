//! Property-based tests of the persistent artifact store: every artifact
//! kind — samples, sample runs, trained models, actual runs — survives the
//! full write → compress → publish → read → decompress → decode path
//! byte-identically, a restarted service answers from its sample run and
//! its model without reading the sample, and a crash that leaves a partial
//! write behind is recovered (swept or quarantined) without losing the
//! store.

use predict_algorithms::{PageRankWorkload, TopKWorkload, Workload};
use predict_bsp::{BspConfig, BspEngine};
use predict_core::{
    ArtifactKind, ArtifactStore, PredictRequest, PredictService, PredictServiceConfig,
    PredictionSession, PredictorBuilder, PredictorConfig, TrainingSource, TransformFunction,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_sampling::BiasedRandomJump;
use proptest::prelude::*;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Fresh per-case store directory; best-effort cleanup on drop.
struct TempStoreDir(PathBuf);

impl TempStoreDir {
    fn new() -> Self {
        static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "predict_store_prop_{}_{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).unwrap();
        TempStoreDir(path)
    }
}

impl Drop for TempStoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The store's own payload bytes of the artifact each of the four stages
/// hands out, in [`ArtifactKind::ALL`] order — the exact-equality view of an
/// artifact (float bit patterns included) that no `PartialEq` gives.
fn stage_artifact_bytes(
    session: &PredictionSession,
    workload: &dyn Workload,
    config: &PredictorConfig,
) -> [Vec<u8>; 4] {
    fn bytes<T: Serialize>(artifact: &T) -> Vec<u8> {
        let encoded = predict_store::encode_value(&artifact.serialize_value());
        [encoded.tree, encoded.columns].concat()
    }
    let (ratio, seed) = (config.sampling_ratio, config.seed);
    let transform = TransformFunction::default_for(workload.convergence());
    [
        bytes(&*session.sample_artifact(ratio, seed).unwrap()),
        bytes(
            &*session
                .sample_run(workload, ratio, seed, transform)
                .unwrap(),
        ),
        bytes(&*session.trained_model(workload, config).unwrap()),
        bytes(&*session.actual_run(workload)),
    ]
}

/// The `store.reads` counter is process-global and both properties of this
/// file read stores; holding this lock while reading one keeps the other's
/// reads out of a counted window.
static STORE_READS: Mutex<()> = Mutex::new(());

fn store_reads_lock() -> MutexGuard<'static, ()> {
    STORE_READS.lock().unwrap_or_else(|e| e.into_inner())
}

fn store_reads() -> u64 {
    predict_obs::registry().counter("store.reads").get()
}

/// A training ratio whose sample of these 256-vertex graphs is one vertex
/// and no edge: an empty sample that training skips.
const EMPTY_RATIO: f64 = 0.001;

/// Case count bounded by `PROPTEST_CASES` (CI keeps the suites fast); same
/// convention as `proptest_prediction.rs`.
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(8)))]

    /// End-to-end byte identity for all four artifact kinds at once: run a
    /// real prediction + evaluation with a store attached (populating
    /// sample, sample-run, model and actual-run artifacts on disk), then
    /// answer the same prediction from a second store-backed session with a
    /// fresh engine. Everything must come back from disk bit-exact — the
    /// serialized predictions match byte for byte and the warm engine
    /// executes zero runs.
    ///
    /// Between the two, a restarted service `submit`s the same request: it
    /// reads the sample run and the model (two store reads), never the
    /// sample, and runs nothing. It then predicts a new workload on the
    /// stored sample, which reads that sample once and runs once. With
    /// `empty_training_ratio` the config also trains at [`EMPTY_RATIO`],
    /// which every pass skips.
    #[test]
    fn every_artifact_kind_roundtrips_byte_identically(
        graph_seed in 0u64..50,
        predict_seed in 0u64..1000,
        ratio in 0.1f64..0.4,
        use_topk in any::<bool>(),
        empty_training_ratio in any::<bool>(),
    ) {
        let dir = TempStoreDir::new();
        let graph = generate_rmat(&RmatConfig::new(8, 5).with_seed(graph_seed));
        prop_assume!(graph.num_edges() > 0);
        let workload: Arc<dyn Workload> = if use_topk {
            Arc::new(TopKWorkload::default())
        } else {
            Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices()))
        };
        let mut config = PredictorConfig::single_ratio(ratio).with_seed(predict_seed);
        if empty_training_ratio {
            config.training_ratios = vec![EMPTY_RATIO, ratio];
        }
        let graph = Arc::new(graph);

        let store = Arc::new(ArtifactStore::open(&dir.0).unwrap());
        let cold = PredictorBuilder::new()
            .engine(BspEngine::new(BspConfig::with_workers(3)))
            .sampler(BiasedRandomJump::default())
            .config(config.clone())
            .store_arc(Arc::clone(&store))
            .bind(Arc::clone(&graph), "prop");
        let (cold_eval, cold_prediction) = match cold.evaluate(workload.as_ref()) {
            Ok(eval) => (
                serde_json::to_string(&eval).unwrap(),
                serde_json::to_string(&eval.prediction).unwrap(),
            ),
            // Tiny ratios on sparse graphs may legitimately fail to sample;
            // nothing is stored, nothing to round-trip. Any other failure,
            // an empty training sample included, fails the case.
            Err(e) if e.is_empty_sample()
                && cold.sample_artifact(ratio, predict_seed).is_err() => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("cold evaluation: {e}"))),
        };
        if empty_training_ratio {
            // The empty ratio is skipped: the model trains on the
            // extrapolation run's workers alone, and no run is cached for it.
            let empty = cold.sample_artifact(EMPTY_RATIO, predict_seed + 1);
            prop_assert!(empty.unwrap_err().is_empty_sample());
            let training = cold.trained_model(workload.as_ref(), &config).unwrap();
            let run = cold
                .sample_run(
                    workload.as_ref(),
                    ratio,
                    predict_seed,
                    TransformFunction::default_for(workload.convergence()),
                )
                .unwrap();
            let rows: usize = run.profile.supersteps.iter().map(|s| s.workers.len()).sum();
            prop_assert_eq!(training.provenance.source, TrainingSource::SampleRuns);
            prop_assert_eq!(training.provenance.sample_observations, rows);
            prop_assert_eq!(cold.stats().sample_runs, 1);
        }
        // The cold pass must have published every artifact kind.
        for kind in ArtifactKind::ALL {
            prop_assert!(
                store.artifact_count(kind) > 0,
                "cold pass published no {} artifacts",
                kind.name()
            );
        }
        let cold_artifacts = stage_artifact_bytes(&cold, workload.as_ref(), &config);
        drop(cold);
        drop(store);

        // Restart as a service: the same request reads its sample run and
        // its model, never its sample, and runs nothing.
        let restarted_engine = Arc::new(BspEngine::new(BspConfig::with_workers(3)));
        let restarted = PredictService::with_config(
            Arc::clone(&restarted_engine),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig {
                store: Some(dir.0.clone()),
                predictor: config.clone(),
                ..PredictServiceConfig::default()
            },
        );
        let request = |workload: &Arc<dyn Workload>| {
            PredictRequest::new("prop", Arc::clone(&graph), Arc::clone(workload))
        };
        let (reads, prediction) = {
            let _lock = store_reads_lock();
            let before = store_reads();
            let prediction = restarted.submit(&request(&workload)).unwrap();
            (store_reads() - before, prediction)
        };
        prop_assert_eq!(serde_json::to_string(&prediction).unwrap(), cold_prediction);
        prop_assert_eq!(reads, 2, "a restarted submit reads the sample run and the model");
        let session = restarted.session_for("prop", &graph);
        let stats = session.stats();
        prop_assert_eq!((stats.store_hits, stats.sample_runs, stats.models), (2, 1, 1));
        prop_assert_eq!(stats.samples, 0, "a restarted submit read its sample");
        prop_assert_eq!(restarted_engine.runs_executed(), 0);

        // A new workload on the stored sample: its submit reads that sample
        // (its one store hit) and runs once.
        let other: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.05, graph.num_vertices()));
        restarted.submit(&request(&other)).unwrap();
        let after = session.stats();
        prop_assert_eq!(
            (after.store_hits - stats.store_hits, after.samples - stats.samples),
            (1, 1)
        );
        prop_assert_eq!(restarted_engine.runs_executed(), 1);
        drop(session);
        drop(restarted);

        // Restart: fresh store handle, fresh engine, same directory.
        let warm_engine = Arc::new(BspEngine::new(BspConfig::with_workers(3)));
        let warm = PredictorBuilder::new()
            .engine(Arc::clone(&warm_engine))
            .sampler(BiasedRandomJump::default())
            .config(config.clone())
            .store_arc(Arc::new(ArtifactStore::open(&dir.0).unwrap()))
            .bind(graph, "prop");
        // Kind by kind first: each stage's artifact is read back from disk
        // (nothing is in the fresh session's memory) exactly as computed.
        let warm_artifacts = stage_artifact_bytes(&warm, workload.as_ref(), &config);
        for (kind, (cold, warm)) in ArtifactKind::ALL
            .iter()
            .zip(cold_artifacts.iter().zip(&warm_artifacts))
        {
            prop_assert!(cold == warm, "{} artifact changed on disk", kind.name());
        }
        prop_assert_eq!(warm.stats().store_hits, 4, "one disk read per artifact kind");
        prop_assert_eq!(warm_engine.runs_executed(), 0);
        let warm_eval = serde_json::to_string(&warm.evaluate(workload.as_ref()).unwrap()).unwrap();
        prop_assert_eq!(cold_eval, warm_eval, "disk round-trip changed bytes");
        prop_assert_eq!(
            warm_engine.runs_executed(),
            0,
            "warm session re-executed a stored run"
        );
        prop_assert!(warm.stats().store_hits > 0);
    }

    /// A crash between payload and manifest publication can only leave a
    /// `tmp/` orphan (publication is atomic rename) or a torn published
    /// file. Simulate both from a random prefix length: reopening the store
    /// sweeps the orphan, and reading the torn file quarantines it and
    /// reports a miss — never a panic, never a wrong artifact.
    #[test]
    fn partial_writes_are_recovered_on_reopen(
        graph_seed in 0u64..50,
        cut_at in 1usize..200,
    ) {
        let dir = TempStoreDir::new();
        let graph = generate_rmat(&RmatConfig::new(8, 5).with_seed(graph_seed));
        prop_assume!(graph.num_edges() > 0);

        let _lock = store_reads_lock();
        let store = ArtifactStore::open(&dir.0).unwrap();
        store.put(ArtifactKind::Sample, "partial", 7, &graph).unwrap();
        let published = store.artifact_path(ArtifactKind::Sample, "partial");
        let bytes = std::fs::read(&published).unwrap();
        prop_assume!(cut_at < bytes.len());

        // Torn published file: only a prefix reached the disk.
        std::fs::write(&published, &bytes[..cut_at]).unwrap();
        // Crash-orphaned temp file from a write that never published.
        let orphan = dir.0.join("tmp").join("crashed-0.tmp");
        std::fs::write(&orphan, &bytes[..cut_at]).unwrap();
        drop(store);

        let store = ArtifactStore::open(&dir.0).unwrap();
        prop_assert!(!orphan.exists(), "reopen did not sweep the tmp orphan");
        prop_assert!(
            store.get(ArtifactKind::Sample, "partial", 7).is_none(),
            "a torn file must read as a miss"
        );
        prop_assert_eq!(store.quarantined_files(), 1);
        // The slot is immediately reusable.
        store.put(ArtifactKind::Sample, "partial", 7, &graph).unwrap();
        prop_assert!(store.get(ArtifactKind::Sample, "partial", 7).is_some());
    }
}
