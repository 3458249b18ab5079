//! Table 3: runtime of sample runs versus actual runs.
//!
//! For the paper's workload/dataset pairs — PageRank on UK and Twitter,
//! semi-clustering on UK, connected components on Twitter, top-k ranking and
//! neighborhood estimation on UK — report the simulated end-to-end runtime of
//! sample runs at ratios 0.01, 0.1 and 0.2 next to the actual run (ratio 1.0),
//! plus the overhead percentage of the 10% sample run.

use predict_algorithms::{
    ConnectedComponentsWorkload, NeighborhoodWorkload, PageRankWorkload, SemiClusteringParams,
    SemiClusteringWorkload, TopKParams, TopKWorkload, Workload,
};
use predict_bench::{ms, prediction_sweep, HistoryMode, ResultTable, EXPERIMENT_SEED};
use predict_core::PredictorConfig;
use predict_graph::datasets::Dataset;
use predict_graph::CsrGraph;
use predict_sampling::{BiasedRandomJump, Sampler};
use std::sync::Arc;

pub fn run() -> std::io::Result<()> {
    let sampler: Arc<dyn Sampler> = Arc::new(BiasedRandomJump::default());
    let ratios = [0.01, 0.1, 0.2];

    type WorkloadFactory = Box<dyn Fn(&CsrGraph) -> Box<dyn Workload>>;
    let cases: Vec<(&str, Dataset, WorkloadFactory)> = vec![
        (
            "PR (UK)",
            Dataset::Uk2002,
            Box::new(|g: &CsrGraph| {
                Box::new(PageRankWorkload::with_epsilon(0.001, g.num_vertices()))
                    as Box<dyn Workload>
            }),
        ),
        (
            "PR (TW)",
            Dataset::Twitter,
            Box::new(|g: &CsrGraph| {
                Box::new(PageRankWorkload::with_epsilon(0.001, g.num_vertices()))
                    as Box<dyn Workload>
            }),
        ),
        (
            "SC (UK)",
            Dataset::Uk2002,
            Box::new(|_: &CsrGraph| {
                Box::new(SemiClusteringWorkload::new(SemiClusteringParams::default()))
                    as Box<dyn Workload>
            }),
        ),
        (
            "CC (TW)",
            Dataset::Twitter,
            Box::new(|_: &CsrGraph| Box::new(ConnectedComponentsWorkload) as Box<dyn Workload>),
        ),
        (
            "TOP-K (UK)",
            Dataset::Uk2002,
            Box::new(|_: &CsrGraph| {
                Box::new(TopKWorkload::new(TopKParams::new(5, 0.001), 0.01)) as Box<dyn Workload>
            }),
        ),
        (
            "NH (UK)",
            Dataset::Uk2002,
            Box::new(|_: &CsrGraph| Box::new(NeighborhoodWorkload::default()) as Box<dyn Workload>),
        ),
    ];

    let mut table = ResultTable::new(
        "Table 3: simulated runtime of sample runs (SR = 0.01, 0.1, 0.2) vs actual runs (SR = 1.0), in ms",
        &["workload", "SR=0.01", "SR=0.1", "SR=0.2", "SR=1.0 (actual)", "overhead @0.1"],
    );
    let mut payload = Vec::new();
    for (label, dataset, factory) in &cases {
        let points = prediction_sweep(
            &[*dataset],
            &ratios,
            Arc::clone(&sampler),
            HistoryMode::SampleRunsOnly,
            factory.as_ref(),
            &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
        );
        let by_ratio = |r: f64| {
            points
                .iter()
                .find(|p| (p.ratio - r).abs() < 1e-9)
                .map(|p| p.sample_total_ms)
                .unwrap_or(f64::NAN)
        };
        let actual = points
            .first()
            .map(|p| p.actual_total_ms)
            .unwrap_or(f64::NAN);
        let overhead = by_ratio(0.1) / actual;
        table.push_row(vec![
            label.to_string(),
            ms(by_ratio(0.01)),
            ms(by_ratio(0.1)),
            ms(by_ratio(0.2)),
            ms(actual),
            format!("{:.1}%", overhead * 100.0),
        ]);
        payload.push(serde_json::json!({
            "workload": label,
            "sample_ms": {"0.01": by_ratio(0.01), "0.1": by_ratio(0.1), "0.2": by_ratio(0.2)},
            "actual_ms": actual,
            "overhead_at_0.1": overhead,
        }));
    }
    table.emit("table3_overhead", &payload)
}
