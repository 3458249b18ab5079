//! Capacity planning: how many workers does a job need to meet a deadline?
//!
//! ```bash
//! cargo run --release --example capacity_planning
//! ```
//!
//! The paper motivates runtime prediction with cluster resource allocation:
//! schedulers need runtime estimates per candidate allocation. This example
//! predicts the runtime of semi-clustering on the Wikipedia analog for
//! several worker counts (PREDIcT's assumption iii — sample run and actual
//! run use the same configuration — is satisfied per candidate allocation)
//! and picks the smallest allocation whose predicted runtime meets the
//! deadline. Each allocation gets its own prediction session, because the
//! engine configuration is part of what a session binds; the dataset graph
//! is shared across all of them through an `Arc`.

use predict_repro::algorithms::SemiClusteringParams;
use predict_repro::prelude::*;
use std::sync::Arc;

fn main() {
    let graph = Arc::new(Dataset::Wikipedia.load());
    let workload = SemiClusteringWorkload::new(SemiClusteringParams::default());
    let deadline_ms = 12_000.0;

    println!(
        "dataset: Wikipedia analog ({} vertices, {} edges); workload: semi-clustering; deadline {:.0} ms",
        graph.num_vertices(),
        graph.num_edges(),
        deadline_ms
    );
    println!(
        "\n{:>8} {:>18} {:>14}",
        "workers", "predicted [ms]", "meets deadline"
    );

    let mut chosen: Option<(usize, f64)> = None;
    for workers in [2usize, 4, 8, 16, 29] {
        let session = PredictorBuilder::new()
            .engine(BspEngine::new(BspConfig::with_workers(workers)))
            .sampler(BiasedRandomJump::default())
            .config(PredictorConfig::default())
            .bind(Arc::clone(&graph), "Wiki");
        let prediction = session.predict(&workload).expect("prediction succeeds");
        let meets = prediction.predicted_superstep_ms <= deadline_ms;
        println!(
            "{:>8} {:>18.0} {:>14}",
            workers,
            prediction.predicted_superstep_ms,
            if meets { "yes" } else { "no" }
        );
        if meets && chosen.is_none() {
            chosen = Some((workers, prediction.predicted_superstep_ms));
        }
    }

    match chosen {
        Some((workers, ms)) => println!(
            "\n=> allocate {workers} workers: predicted runtime {ms:.0} ms meets the {deadline_ms:.0} ms deadline"
        ),
        None => println!("\n=> no evaluated allocation meets the deadline; consider a larger cluster"),
    }
}
