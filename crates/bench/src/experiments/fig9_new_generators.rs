//! Figure 9 extension: sampling-technique sensitivity on the new generators.
//!
//! Figure 9 of the paper compares BRJ / RJ / MHRW on the UK web analog; this
//! experiment runs the same comparison on the datasets *outside* the paper's
//! power-law regime — the grid road network, the bipartite web graph and the
//! degree-corrected block model — using the PageRank iteration-prediction
//! pipeline. These are the structures where the techniques genuinely
//! diverge: BRJ's hub bias has nothing to grab on a road grid, alternates
//! sides on a bipartite graph, and tends to stay inside dense DC-SBM
//! communities, so the iteration error spread across techniques is the
//! interesting output.

use predict_algorithms::{PageRankWorkload, Workload};
use predict_bench::{
    pct, prediction_sweep, HistoryMode, PredictionPoint, ResultTable, EXPERIMENT_SEED,
};
use predict_core::PredictorConfig;
use predict_graph::datasets::Dataset;
use predict_graph::CsrGraph;
use predict_sampling::{BiasedRandomJump, Mhrw, RandomJump, Sampler};
use std::sync::Arc;

/// Ratios swept per technique (a subset of the paper's x-axis keeps the
/// 3 datasets x 3 techniques sweep fast enough for CI's golden diff).
const RATIOS: [f64; 3] = [0.05, 0.1, 0.2];

fn sweep(sampler: Arc<dyn Sampler>) -> Vec<PredictionPoint> {
    prediction_sweep(
        &Dataset::EXTENDED,
        &RATIOS,
        sampler,
        HistoryMode::SampleRunsOnly,
        &|g: &CsrGraph| -> Box<dyn Workload> {
            Box::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()))
        },
        &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
    )
}

pub fn run() -> std::io::Result<()> {
    let samplers: [(&str, Arc<dyn Sampler>); 3] = [
        ("BRJ", Arc::new(BiasedRandomJump::default())),
        ("RJ", Arc::new(RandomJump::default())),
        ("MHRW", Arc::new(Mhrw::default())),
    ];

    let mut table = ResultTable::new(
        "Figure 9 (extended): sampling sensitivity on road/bipartite/DC-SBM analogs",
        &[
            "dataset",
            "sampler",
            "ratio",
            "pred iters",
            "actual iters",
            "iter error",
            "runtime error",
        ],
    );
    let mut payload = Vec::new();
    for (sampler_name, sampler) in &samplers {
        let points = sweep(Arc::clone(sampler));
        for p in &points {
            table.push_row(vec![
                p.dataset.clone(),
                sampler_name.to_string(),
                format!("{:.2}", p.ratio),
                p.predicted_iterations.to_string(),
                p.actual_iterations.to_string(),
                pct(p.iteration_error),
                pct(p.runtime_error),
            ]);
        }
        payload.push(serde_json::json!({
            "workload": "PR",
            "sampler": sampler_name,
            "points": points,
        }));
    }
    table.emit("fig9_new_generators", &payload)
}
