//! No library reads the process environment: what a caller builds is what
//! runs, whatever `PREDICT_*` variables the process carries. Only the
//! `predict_bench` binary reads them, and hands their values to the library
//! explicitly (`BspConfig::with_transport`, `PredictServiceConfig::store`).
//!
//! An integration test runs in its own process, so the variables set here
//! cannot race another test.

use predict_repro::prelude::*;
use std::sync::Arc;

#[test]
fn predict_variables_reach_no_library_default() {
    let store = std::env::temp_dir().join(format!("predict_no_ambient_{}", std::process::id()));
    std::fs::create_dir_all(&store).expect("temp store dir");
    std::env::set_var("PREDICT_TRANSPORT", "socket");
    std::env::set_var("PREDICT_STORE", &store);

    let outcome = std::panic::catch_unwind(|| {
        assert_eq!(BspConfig::default().transport, TransportMode::InMemory);

        let engine = BspEngine::new(BspConfig::default());
        let service = PredictService::new(engine, Arc::new(BiasedRandomJump::default()));
        assert!(
            service.artifact_store().is_none(),
            "the service opened a store"
        );

        let graph = Arc::new(Dataset::Wikipedia.load_small());
        let workload = Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices()));
        let request = PredictRequest::new("Wiki", graph, workload)
            .with_config(PredictorConfig::single_ratio(0.1));
        let prediction = service.submit(&request).expect("prediction succeeds");
        assert!(
            prediction.sample_profile.measured.is_none(),
            "the sample run went over a transport"
        );
    });

    let written = std::fs::read_dir(&store).map_or(0, |entries| entries.count());
    std::fs::remove_dir_all(&store).ok();
    if let Err(panic) = outcome {
        std::panic::resume_unwind(panic);
    }
    assert_eq!(
        written, 0,
        "the service wrote to the PREDICT_STORE directory"
    );
}
