//! Integration test for the parallel runtime's determinism contract, end to
//! end: a full prediction — sampling, sample runs, training, extrapolation —
//! serializes to byte-identical JSON no matter how many OS threads execute
//! the superstep phases (see `predict_bsp::runtime`). Engine runs alone are
//! held to the same contract program by program, thread count by thread
//! count, by the oracle suite (`crates/bsp/tests/oracle.rs`).

use predict_repro::prelude::*;

#[test]
fn end_to_end_prediction_is_byte_identical_across_thread_counts() {
    // The full pipeline — sampling, sample runs, training, extrapolation —
    // rides on engine runs; pin its output bytes across execution modes too.
    let graph = std::sync::Arc::new(Dataset::Uk2002.load_small());
    let workload = TopKWorkload::default();
    let mut outputs = Vec::new();
    for mode in [
        ExecutionMode::Sequential,
        ExecutionMode::Parallel { threads: 2 },
        ExecutionMode::Parallel { threads: 4 },
    ] {
        let session = PredictorBuilder::new()
            .engine(BspEngine::new(
                BspConfig::with_workers(8).with_execution(mode),
            ))
            .sampler(BiasedRandomJump::default())
            .config(PredictorConfig::single_ratio(0.1))
            .bind(std::sync::Arc::clone(&graph), "UK");
        let prediction = session.predict(&workload).expect("prediction succeeds");
        outputs.push(serde_json::to_string(&prediction).expect("prediction serializes"));
    }
    assert_eq!(outputs[0], outputs[1]);
    assert_eq!(outputs[0], outputs[2]);
}
