//! Feasibility analysis: "Given a cluster deployment and a workload of
//! iterative algorithms, is it feasible to execute the workload on an input
//! dataset while guaranteeing user specified SLAs?" (paper, section 1).
//!
//! ```bash
//! cargo run --release --example feasibility_analysis
//! ```
//!
//! The example predicts the runtime of a small mixed workload (PageRank,
//! connected components, neighborhood estimation) on the UK-2002 analog from
//! 10% sample runs, sums the predictions and compares the total against an
//! SLA deadline — without ever executing the full workload. All three
//! predictions go through one session, so the 10% sample of the graph is
//! drawn once and shared; only the per-workload sample runs and cost models
//! differ (the session's cache statistics at the end show the sharing).

use predict_repro::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Arc::new(Dataset::Uk2002.load());
    println!(
        "cluster: 8 workers | dataset: UK-2002 analog ({} vertices, {} edges)",
        graph.num_vertices(),
        graph.num_edges()
    );

    let workloads: Vec<Box<dyn Workload>> = vec![
        Box::new(PageRankWorkload::with_epsilon(0.001, graph.num_vertices())),
        Box::new(ConnectedComponentsWorkload),
        Box::new(NeighborhoodWorkload::default()),
    ];

    let session = PredictorBuilder::new()
        .engine(BspEngine::new(BspConfig::with_workers(8)))
        .sampler(BiasedRandomJump::default())
        .config(PredictorConfig::default())
        .bind(graph, "UK");
    let mut total_predicted_ms = 0.0;
    let mut total_sample_cost_ms = 0.0;
    println!(
        "\n{:<8} {:>12} {:>16}",
        "workload", "iterations", "predicted [ms]"
    );
    for workload in &workloads {
        let prediction = session
            .predict(workload.as_ref())
            .expect("prediction succeeds");
        println!(
            "{:<8} {:>12} {:>16.0}",
            workload.name(),
            prediction.predicted_iterations,
            prediction.predicted_superstep_ms
        );
        total_predicted_ms += prediction.predicted_superstep_ms;
        total_sample_cost_ms += prediction.sample_run_total_ms;
    }

    let stats = session.stats();
    println!(
        "\nsession cache: {} sample draw(s) shared by {} sample runs ({} hits, {} misses)",
        stats.samples, stats.sample_runs, stats.hits, stats.misses
    );

    let sla_ms = 20_000.0;
    println!("predicted workload runtime: {total_predicted_ms:.0} ms (simulated cluster time)");
    println!("cost of the sample runs:    {total_sample_cost_ms:.0} ms");
    println!("SLA budget:                 {sla_ms:.0} ms");
    if total_predicted_ms <= sla_ms {
        println!(
            "=> FEASIBLE: the workload is predicted to finish {:.0} ms under the SLA",
            sla_ms - total_predicted_ms
        );
    } else {
        println!(
            "=> NOT FEASIBLE: the workload is predicted to overrun the SLA by {:.0} ms",
            total_predicted_ms - sla_ms
        );
    }
}
