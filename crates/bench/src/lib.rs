//! Shared harness for the experiments that regenerate every table and figure
//! of the paper.
//!
//! Each experiment is a subcommand of the `predict_bench` binary and
//! reproduces one table or figure (the architecture book,
//! `docs/ARCHITECTURE.md`, has the index). They all follow the same
//! protocol, which this library factors out:
//!
//! 1. build the dataset analogs (Table 2) at the scale selected by the
//!    `PREDICT_SCALE` environment variable (`small`, `default` or `large`);
//! 2. execute the **actual run** of the workload once per dataset;
//! 3. sweep sampling ratios, producing one PREDIcT prediction per point;
//! 4. report the paper's metrics (signed relative errors, overhead ratios)
//!    as a plain-text table on stdout and as JSON under
//!    `target/experiments/`.

pub mod knobs;

use knobs::knobs;
use predict_algorithms::Workload;
use predict_bsp::{BspConfig, BspEngine};
use predict_core::{
    Evaluation, PredictRequest, PredictService, PredictServiceConfig, PredictorConfig,
};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_graph::CsrGraph;
use predict_sampling::Sampler;
use serde::Serialize;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sampling ratios swept by the paper's figures (x-axis of Figures 4–9).
pub const PAPER_SAMPLING_RATIOS: [f64; 6] = [0.01, 0.05, 0.1, 0.15, 0.2, 0.25];

/// Seed used by every experiment so results are reproducible.
pub const EXPERIMENT_SEED: u64 = 0xE9;

/// Scale selected through the `PREDICT_SCALE` environment variable
/// (`small` / `default` / `large`, parsed by [`knobs()`]), defaulting to
/// [`DatasetScale::Default`].
pub fn experiment_scale() -> DatasetScale {
    knobs().scale.unwrap_or(DatasetScale::Default)
}

/// The BSP engine configuration shared by all experiments: 8 workers, the
/// default (hidden) simulated cluster cost model and the transport
/// `PREDICT_TRANSPORT` names.
pub fn experiment_engine() -> BspEngine {
    BspEngine::new(BspConfig::with_workers(8).with_transport(knobs().transport))
}

/// A service over [`experiment_engine`] whose artifact store is the
/// directory `PREDICT_STORE` names (memory-only when unset).
pub fn experiment_service(sampler: Arc<dyn Sampler>) -> PredictService {
    let config = PredictServiceConfig {
        store: knobs().store.clone(),
        ..Default::default()
    };
    PredictService::with_config(experiment_engine(), sampler, config)
}

/// Honors the observability knobs for this process. Call first thing in a
/// subcommand that does the work being observed, once per process, and keep
/// the guard alive for the whole run:
///
/// ```no_run
/// let _obs = predict_bench::observability_guard();
/// ```
///
/// `PREDICT_TRACE=<path>` enables span tracing; the guard writes the
/// Chrome trace-event file (with the final metrics snapshot embedded) when
/// it drops. Unset, tracing stays disabled and spans cost one atomic load.
/// On drop the guard always prints one machine-readable
/// `[run-summary] {...}` line to stderr (see [`run_summary_line`]).
pub fn observability_guard() -> ObsGuard {
    ObsGuard {
        trace: knobs().trace.as_ref().map(predict_obs::trace::start_file),
    }
}

/// Guard returned by [`observability_guard`]; emits the end-of-run reports
/// when dropped.
pub struct ObsGuard {
    trace: Option<predict_obs::TraceGuard>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        eprintln!("{}", run_summary_line());
        // `trace` drops afterwards, writing the trace file (it embeds its
        // own metrics snapshot, taken after the summary above).
        self.trace.take();
    }
}

/// Renders the `[run-summary]` stderr line: a stable prefix plus a JSON
/// object of the process-global counters — the in-memory engine runs, the
/// cluster supersteps driven, and the store's read/hit/write/quarantine
/// counts. `scenario_runner` parses it to assert that a warm pass
/// recomputed nothing and that a transported pass drove its engine work.
pub fn run_summary_line() -> String {
    let snapshot = predict_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    format!(
        "[run-summary] {{\"bsp_runs\":{},\"cluster_steps\":{},\"store_reads\":{},\
         \"store_hits\":{},\"store_writes\":{},\"store_quarantined\":{}}}",
        counter("bsp.runs"),
        counter("cluster.steps"),
        counter("store.reads"),
        counter("store.hits"),
        counter("store.writes"),
        counter("store.quarantined"),
    )
}

/// Loads one dataset analog at the experiment scale.
pub fn load_dataset(dataset: Dataset, scale: DatasetScale) -> CsrGraph {
    DatasetConfig::new(dataset, scale).generate()
}

/// Whether an experiment trains its cost model on sample runs only or also on
/// historical actual runs of the other datasets (the (a)/(b) variants of
/// Figures 7 and 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryMode {
    /// Train on sample runs only.
    SampleRunsOnly,
    /// Additionally train on the actual runs of every other dataset.
    WithHistory,
}

/// One prediction data point of a sweep: everything the figures plot.
#[derive(Debug, Clone, Serialize)]
pub struct PredictionPoint {
    /// Dataset prefix (LJ / Wiki / TW / UK).
    pub dataset: String,
    /// Sampling ratio of the sample run used for extrapolation.
    pub ratio: f64,
    /// Predicted number of iterations.
    pub predicted_iterations: usize,
    /// Iterations of the actual run.
    pub actual_iterations: usize,
    /// Signed relative error of the iteration prediction.
    pub iteration_error: f64,
    /// Predicted superstep-phase runtime (simulated ms).
    pub predicted_runtime_ms: f64,
    /// Actual superstep-phase runtime (simulated ms).
    pub actual_runtime_ms: f64,
    /// Signed relative error of the runtime prediction.
    pub runtime_error: f64,
    /// Signed relative error of the remote-message-bytes prediction.
    pub remote_bytes_error: f64,
    /// Simulated end-to-end runtime of the sample run.
    pub sample_total_ms: f64,
    /// Simulated end-to-end runtime of the actual run.
    pub actual_total_ms: f64,
}

impl PredictionPoint {
    fn from_evaluation(dataset: Dataset, ratio: f64, evaluation: &Evaluation) -> Self {
        let prediction = &evaluation.prediction;
        Self {
            dataset: dataset.prefix().to_string(),
            ratio,
            predicted_iterations: prediction.predicted_iterations,
            actual_iterations: evaluation.actual_iterations,
            iteration_error: evaluation.iteration_error(),
            predicted_runtime_ms: prediction.predicted_superstep_ms,
            actual_runtime_ms: evaluation.actual_superstep_ms,
            runtime_error: evaluation.runtime_error(),
            remote_bytes_error: evaluation.remote_bytes_error(),
            sample_total_ms: prediction.sample_run_total_ms,
            actual_total_ms: evaluation.actual_total_ms,
        }
    }
}

/// Runs a full prediction sweep: for every dataset, execute the actual run
/// once, then evaluate one PREDIcT prediction per sampling ratio against it.
///
/// The sweep goes through a [`PredictService`]: one cached
/// [`predict_core::PredictionSession`] per dataset executes and caches the
/// actual run, holds the leave-one-out history of the other datasets, and
/// shares sampling artifacts between sweep points with a common `(ratio,
/// seed)` draw. Each point is one [`PredictService::evaluate`], which reuses
/// the cached actual run, and its errors are read from the returned
/// [`Evaluation`] — the one place they are computed. Outputs are identical
/// to predicting each point with a fresh predictor — every stage is
/// deterministic — just without redundant engine invocations.
///
/// `make_workload` builds the workload for a given graph (the threshold of
/// PageRank-style workloads depends on the graph size); `make_config` builds
/// the predictor configuration for a given sampling ratio.
pub fn prediction_sweep(
    datasets: &[Dataset],
    ratios: &[f64],
    sampler: Arc<dyn Sampler>,
    history_mode: HistoryMode,
    make_workload: &dyn Fn(&CsrGraph) -> Box<dyn Workload>,
    make_config: &dyn Fn(f64) -> PredictorConfig,
) -> Vec<PredictionPoint> {
    prediction_sweep_at(
        experiment_scale(),
        datasets,
        ratios,
        sampler,
        history_mode,
        make_workload,
        make_config,
    )
}

/// [`prediction_sweep`] on the dataset analogs at `scale`.
fn prediction_sweep_at(
    scale: DatasetScale,
    datasets: &[Dataset],
    ratios: &[f64],
    sampler: Arc<dyn Sampler>,
    history_mode: HistoryMode,
    make_workload: &dyn Fn(&CsrGraph) -> Box<dyn Workload>,
    make_config: &dyn Fn(f64) -> PredictorConfig,
) -> Vec<PredictionPoint> {
    let service = experiment_service(sampler);

    // Sessions and actual runs, one per dataset. The actual run is executed
    // through the session so later evaluations of the same workload reuse it.
    // The graphs are kept so the per-point requests below clone the same
    // `Arc` — session reuse in the service is keyed on pointer identity.
    let mut sessions = Vec::new();
    let mut graphs = Vec::new();
    let mut actual_runs = Vec::new();
    for &dataset in datasets {
        let graph = Arc::new(load_dataset(dataset, scale));
        let session = service.session_for(dataset.prefix(), &graph);
        let workload = make_workload(session.graph());
        eprintln!("[actual run] {} on {}", workload.name(), dataset.prefix());
        actual_runs.push(session.actual_run(workload.as_ref()));
        sessions.push(session);
        graphs.push(graph);
    }

    // History: the actual runs of every *other* dataset.
    if history_mode == HistoryMode::WithHistory {
        for (i, session) in sessions.iter().enumerate() {
            let workload = make_workload(session.graph());
            for (j, &other) in datasets.iter().enumerate() {
                if i != j {
                    session.record_history(
                        workload.name(),
                        other.prefix(),
                        actual_runs[j].profile.clone(),
                    );
                }
            }
        }
    }

    let mut points = Vec::new();
    for (i, &dataset) in datasets.iter().enumerate() {
        let workload: Arc<dyn Workload> = Arc::from(make_workload(sessions[i].graph()));
        for &ratio in ratios {
            let config = make_config(ratio);
            eprintln!(
                "[prediction] {} on {} at ratio {:.2}",
                workload.name(),
                dataset.prefix(),
                ratio
            );
            // Through the service front door (not the raw session), so each
            // sweep point is a counted, traced `service.request`. The request
            // clones the dataset's own graph `Arc`, so the service cache-hits
            // on the session warmed above, whose actual run is cached: the
            // evaluation runs nothing beyond the prediction's stages.
            let request = PredictRequest::new(
                dataset.prefix(),
                Arc::clone(&graphs[i]),
                Arc::clone(&workload),
            )
            .with_config(config);
            match service.evaluate(&request) {
                Ok(evaluation) => points.push(PredictionPoint::from_evaluation(
                    dataset,
                    ratio,
                    &evaluation,
                )),
                Err(e) => eprintln!(
                    "[prediction] skipped {} at ratio {ratio}: {e}",
                    dataset.prefix()
                ),
            }
        }
    }
    points
}

/// A plain-text result table printed by every experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ResultTable {
    /// Title of the experiment (e.g. "Figure 4: ...").
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl ResultTable {
    /// Creates an empty table.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row of cells.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders the table as aligned plain text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and saves it (plus `points`) as JSON under
    /// `target/experiments/<name>.json`. A result that could not be saved is
    /// an error: the scenario runner diffs the saved file, never stdout.
    pub fn emit<T: Serialize>(&self, name: &str, points: &T) -> io::Result<()> {
        println!("{}", self.render());
        let path = self.save(&output_dir(), name, points)?;
        eprintln!("[saved] {}", path.display());
        Ok(())
    }

    /// Writes the table and `points` to `<dir>/<name>.json`.
    fn save<T: Serialize>(&self, dir: &Path, name: &str, points: &T) -> io::Result<PathBuf> {
        #[derive(Serialize)]
        struct Payload<'a, T> {
            table: &'a ResultTable,
            points: &'a T,
        }
        let json = serde_json::to_string_pretty(&Payload {
            table: self,
            points,
        })
        .map_err(io::Error::other)?;
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{name}.json"));
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

/// Directory experiment JSON output is written to.
pub fn output_dir() -> PathBuf {
    PathBuf::from("target").join("experiments")
}

/// Formats a signed relative error as a percentage string.
pub fn pct(value: f64) -> String {
    if value.is_finite() {
        format!("{:+.1}%", value * 100.0)
    } else {
        "inf".to_string()
    }
}

/// Formats milliseconds with one decimal.
pub fn ms(value: f64) -> String {
    format!("{value:.1}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_algorithms::PageRankWorkload;
    use predict_sampling::BiasedRandomJump;

    #[test]
    fn result_table_renders_and_aligns() {
        let mut t = ResultTable::new("Test", &["dataset", "error"]);
        t.push_row(vec!["Wiki".into(), "+10.0%".into()]);
        t.push_row(vec!["UK".into(), "-3.2%".into()]);
        let rendered = t.render();
        assert!(rendered.contains("Test"));
        assert!(rendered.contains("Wiki"));
        assert!(rendered.contains("-3.2%"));
    }

    #[test]
    fn saving_into_an_unwritable_directory_is_an_error() {
        // A directory below a regular file cannot be created, even by root.
        let file = std::env::temp_dir().join(format!("predict_emit_{}", std::process::id()));
        std::fs::write(&file, b"").expect("temp file");
        let table = ResultTable::new("Test", &["a"]);
        let saved = table.save(&file.join("experiments"), "t", &Vec::<u8>::new());
        std::fs::remove_file(&file).ok();
        assert!(saved.is_err(), "saved to {saved:?}");
    }

    #[test]
    fn pct_and_ms_format() {
        assert_eq!(pct(0.123), "+12.3%");
        assert_eq!(pct(-0.05), "-5.0%");
        assert_eq!(pct(f64::INFINITY), "inf");
        assert_eq!(ms(12.34), "12.3");
    }

    #[test]
    fn small_scale_sweep_produces_points() {
        // A minimal end-to-end exercise of the sweep machinery at Small scale
        // with a single dataset and ratio, so the harness itself is covered by
        // `cargo test`.
        let points = prediction_sweep_at(
            DatasetScale::Small,
            &[Dataset::Wikipedia],
            &[0.1],
            Arc::new(BiasedRandomJump::default()),
            HistoryMode::SampleRunsOnly,
            &|g| Box::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices())),
            &|ratio| PredictorConfig::single_ratio(ratio).with_seed(EXPERIMENT_SEED),
        );
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert_eq!(p.dataset, "Wiki");
        assert!(p.predicted_iterations > 0);
        assert!(p.actual_iterations > 0);
        assert!(p.predicted_runtime_ms > 0.0);
    }
}
