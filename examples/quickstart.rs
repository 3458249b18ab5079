//! Quickstart: the end-to-end PREDIcT methodology (Figure 1 of the paper) on
//! a single workload, through the session API.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The example: (1) builds a scaled-down analog of the paper's Wikipedia
//! graph, (2) binds a prediction session to it — engine + Biased Random Jump
//! sampler + pipeline configuration, (3) asks the session to evaluate
//! PageRank: it draws a 10% sample, runs PageRank on the sample with the
//! transformed convergence threshold, trains a cost model from sample runs
//! at ratios 0.05–0.2, extrapolates the per-iteration features, predicts the
//! runtime — and then runs the actual job to show how close the prediction
//! landed. A second prediction against the same session would reuse every
//! cached stage artifact (see `examples/feasibility_analysis.rs`).

use predict_repro::prelude::*;
use std::sync::Arc;

fn main() {
    // 1. Input dataset: the Wikipedia analog at the default experiment scale.
    let graph = Arc::new(Dataset::Wikipedia.load());
    println!(
        "dataset: Wikipedia analog with {} vertices and {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );

    // 2. The workload: PageRank with the paper's threshold convention
    //    (tau = epsilon / N, epsilon = 0.001).
    let workload = PageRankWorkload::with_epsilon(0.001, graph.num_vertices());
    println!("workload: PageRank, damping 0.85, tau = 0.001 / N");

    // 3. PREDIcT session: bind the dataset once to an 8-worker engine, BRJ
    //    sampling at 10%, the default transform, and a cost model trained on
    //    sample runs at ratios 0.05-0.2. Every stage artifact (sample draw,
    //    sample runs, trained model, actual run) is cached in the session.
    let session = PredictorBuilder::new()
        .engine(BspEngine::new(BspConfig::with_workers(8)))
        .sampler(BiasedRandomJump::default())
        .config(PredictorConfig::default())
        .bind(graph, "Wiki");

    // 4. Evaluate: predict from the sample run, then execute the actual run
    //    to measure the prediction error.
    let evaluation = session.evaluate(&workload).expect("prediction succeeds");
    let prediction = &evaluation.prediction;

    println!("\n--- prediction (from the 10% sample run) ---");
    println!(
        "predicted iterations:        {}",
        prediction.predicted_iterations
    );
    println!(
        "predicted superstep runtime: {:.0} ms (simulated)",
        prediction.predicted_superstep_ms
    );
    let cost_model = &prediction.cost_model;
    let costs: Vec<String> = KeyFeature::ALL
        .iter()
        .zip(&cost_model.model.coefficients)
        .filter(|(_, &c)| c > 0.0)
        .map(|(f, c)| format!("{} {c:.2e}", f.name()))
        .collect();
    println!(
        "cost model: {:.1} ms fixed + per-worker costs [{}]",
        cost_model.fixed_ms,
        costs.join(", ")
    );
    println!(
        "training sources: {:?} ({} sample rows, {} history rows)",
        prediction.training.source,
        prediction.training.sample_observations,
        prediction.training.history_observations
    );
    println!(
        "sample run cost: {:.0} ms ({:.1}% of the actual run)",
        prediction.sample_run_total_ms,
        evaluation.sample_overhead_ratio() * 100.0
    );

    println!("\n--- actual run ---");
    println!(
        "actual iterations:           {}",
        evaluation.actual_iterations
    );
    println!(
        "actual superstep runtime:    {:.0} ms (simulated)",
        evaluation.actual_superstep_ms
    );

    println!("\n--- errors ---");
    println!(
        "iteration error: {:+.1}% ({} predicted / {} actual iterations)",
        evaluation.iteration_error() * 100.0,
        prediction.predicted_iterations,
        evaluation.actual_iterations
    );
    println!(
        "runtime error:   {:+.1}%",
        evaluation.runtime_error() * 100.0
    );
}
