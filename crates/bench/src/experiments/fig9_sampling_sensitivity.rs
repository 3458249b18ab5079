//! Figure 9: sensitivity of iteration prediction to the sampling technique.
//!
//! Compares BRJ (the paper's default), RJ and MHRW on the UK web graph analog
//! for semi-clustering (top plot) and top-k ranking (bottom plot). All
//! techniques use restart probability `p = 0.15`; BRJ draws its seeds from the
//! top 1% of vertices by out-degree.

use predict_algorithms::{
    SemiClusteringParams, SemiClusteringWorkload, TopKParams, TopKWorkload, Workload,
};
use predict_bench::{
    pct, prediction_sweep, HistoryMode, PredictionPoint, ResultTable, EXPERIMENT_SEED,
    PAPER_SAMPLING_RATIOS,
};
use predict_core::PredictorConfig;
use predict_graph::datasets::Dataset;
use predict_graph::CsrGraph;
use predict_sampling::{BiasedRandomJump, Mhrw, RandomJump, Sampler};
use std::sync::Arc;

fn sweep(
    sampler: Arc<dyn Sampler>,
    make_workload: &dyn Fn(&CsrGraph) -> Box<dyn Workload>,
) -> Vec<PredictionPoint> {
    prediction_sweep(
        &[Dataset::Uk2002],
        &PAPER_SAMPLING_RATIOS,
        sampler,
        HistoryMode::SampleRunsOnly,
        make_workload,
        &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
    )
}

pub fn run() -> std::io::Result<()> {
    let samplers: [(&str, Arc<dyn Sampler>); 3] = [
        ("BRJ", Arc::new(BiasedRandomJump::default())),
        ("RJ", Arc::new(RandomJump::default())),
        ("MHRW", Arc::new(Mhrw::default())),
    ];

    let semi_clustering = |_: &CsrGraph| -> Box<dyn Workload> {
        Box::new(SemiClusteringWorkload::new(SemiClusteringParams {
            tolerance: 0.001,
            ..SemiClusteringParams::default()
        }))
    };
    let topk = |_: &CsrGraph| -> Box<dyn Workload> {
        Box::new(TopKWorkload::new(TopKParams::new(5, 0.001), 0.01))
    };

    let mut table = ResultTable::new(
        "Figure 9: sensitivity to sampling technique (UK analog)",
        &[
            "workload",
            "sampler",
            "ratio",
            "pred iters",
            "actual iters",
            "iter error",
        ],
    );
    let mut payload = Vec::new();
    for (workload_name, make_workload) in [
        (
            "SC",
            &semi_clustering as &dyn Fn(&CsrGraph) -> Box<dyn Workload>,
        ),
        ("TOP-K", &topk as &dyn Fn(&CsrGraph) -> Box<dyn Workload>),
    ] {
        for (sampler_name, sampler) in &samplers {
            let points = sweep(Arc::clone(sampler), make_workload);
            for p in &points {
                table.push_row(vec![
                    workload_name.to_string(),
                    sampler_name.to_string(),
                    format!("{:.2}", p.ratio),
                    p.predicted_iterations.to_string(),
                    p.actual_iterations.to_string(),
                    pct(p.iteration_error),
                ]);
            }
            payload.push(serde_json::json!({
                "workload": workload_name,
                "sampler": sampler_name,
                "points": points,
            }));
        }
    }
    table.emit("fig9_sampling_sensitivity", &payload)
}
