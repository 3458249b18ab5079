//! Section 5.1, "Upper Bound Estimates": analytical iteration bounds versus
//! the iterations PageRank actually needs.
//!
//! The Langville & Meyer bound `log10(ε) / log10(d)` ignores the input
//! dataset, so the paper shows it over-estimates the measured iteration count
//! by 2–3.5x; PREDIcT's sample-run estimate is far tighter. This experiment
//! reports the bound, the actual iteration count on every dataset analog, and
//! PREDIcT's estimate from a 10% BRJ sample.

use predict_algorithms::PageRankWorkload;
use predict_bench::{
    experiment_engine, experiment_scale, load_dataset, ResultTable, EXPERIMENT_SEED,
};
use predict_core::{bounds::pagerank_iteration_upper_bound, PredictService, PredictorConfig};
use predict_graph::datasets::Dataset;
use predict_sampling::BiasedRandomJump;
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let scale = experiment_scale();
    let service = PredictService::new(experiment_engine(), Arc::new(BiasedRandomJump::default()));
    let damping = 0.85;

    // One cached session per dataset: the 10% sample is drawn once and the
    // actual runs are cached per workload configuration.
    let sessions: Vec<_> = Dataset::ALL
        .iter()
        .map(|&dataset| {
            let graph = Arc::new(load_dataset(dataset, scale));
            (dataset, service.session_for(dataset.prefix(), &graph))
        })
        .collect();

    let mut table = ResultTable::new(
        "Upper bound estimates: analytical bound vs actual vs PREDIcT (PageRank, d = 0.85)",
        &[
            "epsilon",
            "dataset",
            "analytical bound",
            "actual iters",
            "bound / actual",
            "PREDIcT iters (10% sample)",
        ],
    );
    let mut payload = Vec::new();
    for &epsilon in &[0.1, 0.01, 0.001] {
        let bound = pagerank_iteration_upper_bound(epsilon, damping);
        for (dataset, session) in &sessions {
            let dataset = *dataset;
            let workload = PageRankWorkload::with_epsilon(epsilon, session.graph().num_vertices());
            let actual = session.actual_run(&workload);
            let predicted = session
                .predict_with(
                    &workload,
                    &PredictorConfig::single_ratio(0.1).with_seed(EXPERIMENT_SEED),
                )
                .map(|p| p.predicted_iterations)
                .unwrap_or(0);
            table.push_row(vec![
                format!("{epsilon}"),
                dataset.prefix().to_string(),
                bound.to_string(),
                actual.iterations().to_string(),
                format!("{:.1}x", bound as f64 / actual.iterations() as f64),
                predicted.to_string(),
            ]);
            payload.push(serde_json::json!({
                "epsilon": epsilon,
                "dataset": dataset.prefix(),
                "analytical_bound": bound,
                "actual_iterations": actual.iterations(),
                "predict_iterations": predicted,
            }));
        }
    }
    table.emit("upper_bounds", &payload)
}
