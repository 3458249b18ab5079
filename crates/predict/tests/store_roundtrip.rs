//! Property-based tests of the persistent artifact store: every artifact
//! kind — samples, sample runs, trained models, actual runs — survives the
//! full write → compress → publish → read → decompress → decode path
//! byte-identically, and a crash that leaves a partial write behind is
//! recovered (swept or quarantined) without losing the store.

use predict_algorithms::{PageRankWorkload, TopKWorkload, Workload};
use predict_bsp::{BspConfig, BspEngine};
use predict_core::{
    ArtifactKind, ArtifactStore, PredictionSession, PredictorBuilder, PredictorConfig,
    TransformFunction,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_sampling::BiasedRandomJump;
use proptest::prelude::*;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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
    #[test]
    fn every_artifact_kind_roundtrips_byte_identically(
        graph_seed in 0u64..50,
        predict_seed in 0u64..1000,
        ratio in 0.1f64..0.4,
        use_topk in any::<bool>(),
    ) {
        let dir = TempStoreDir::new();
        let graph = generate_rmat(&RmatConfig::new(8, 5).with_seed(graph_seed));
        prop_assume!(graph.num_edges() > 0);
        let workload: Box<dyn Workload> = if use_topk {
            Box::new(TopKWorkload::default())
        } else {
            Box::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices()))
        };
        let config = PredictorConfig::single_ratio(ratio).with_seed(predict_seed);
        let graph = std::sync::Arc::new(graph);

        let store = std::sync::Arc::new(ArtifactStore::open(&dir.0).unwrap());
        let cold = PredictorBuilder::new()
            .engine(BspEngine::new(BspConfig::with_workers(3)))
            .sampler(BiasedRandomJump::default())
            .config(config.clone())
            .store_arc(std::sync::Arc::clone(&store))
            .bind(std::sync::Arc::clone(&graph), "prop");
        let cold_eval = match cold.evaluate(workload.as_ref()) {
            Ok(eval) => serde_json::to_string(&eval).unwrap(),
            // Tiny ratios on sparse graphs may legitimately fail to sample;
            // nothing is stored, nothing to round-trip.
            Err(_) => return Ok(()),
        };
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

        // Restart: fresh store handle, fresh engine, same directory.
        let warm_engine = std::sync::Arc::new(BspEngine::new(BspConfig::with_workers(3)));
        let warm = PredictorBuilder::new()
            .engine(std::sync::Arc::clone(&warm_engine))
            .sampler(BiasedRandomJump::default())
            .config(config.clone())
            .store_arc(std::sync::Arc::new(ArtifactStore::open(&dir.0).unwrap()))
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
