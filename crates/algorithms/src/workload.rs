//! Uniform workload interface used by the prediction pipeline.
//!
//! The PREDIcT pipeline needs to execute "the algorithm" on both a sample
//! graph (with a transformed convergence threshold) and the full graph without
//! caring which algorithm it is. [`Workload`] provides that uniform surface:
//! a name, the convergence-kind metadata the transform function needs, the
//! current threshold, a way to rebuild the workload with a different
//! threshold, and `run`, which handles any per-graph preparation the
//! algorithm needs (undirected conversion for semi-clustering and connected
//! components, a PageRank pre-pass for top-k ranking) and returns the run
//! profile PREDIcT trains and predicts on.

use crate::connected_components::ConnectedComponents;
use crate::convergence::ConvergenceKind;
use crate::neighborhood::{NeighborhoodEstimation, NeighborhoodParams};
use crate::pagerank::{PageRank, PageRankParams};
use crate::semi_clustering::{SemiClustering, SemiClusteringParams};
use crate::topk::{TopKParams, TopKRanking};
use predict_bsp::{BspEngine, HaltReason, RunProfile};
use predict_graph::CsrGraph;
use serde::{Deserialize, Serialize};

/// Result of executing a workload on one graph.
///
/// Serializable so the persistent artifact store can cache actual runs
/// across process restarts (a warm-restarted service replays the stored
/// profile instead of re-executing the workload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRun {
    /// Profile of the run (per-superstep features and simulated times).
    pub profile: RunProfile,
    /// Why the run terminated.
    pub halt_reason: HaltReason,
}

impl WorkloadRun {
    /// Number of iterations (supersteps) the run executed.
    pub fn iterations(&self) -> usize {
        self.profile.num_iterations()
    }
}

/// An iterative-analytics workload PREDIcT can predict.
///
/// Workloads are `Send + Sync + Debug`: predictions run concurrently behind
/// shared references, and the `Debug` representation doubles as the default
/// [`Workload::cache_token`] that keys cached prediction artifacts.
pub trait Workload: Send + Sync + std::fmt::Debug {
    /// Short name used in reports (matches the paper's abbreviations where
    /// possible: PR, TOP-K, SC, CC, NH).
    fn name(&self) -> &'static str;

    /// A token that uniquely identifies this workload *configuration* (name
    /// plus every parameter that influences a run). Prediction sessions key
    /// cached sample-run artifacts and trained cost models by this token, so
    /// two workloads with equal tokens must behave identically on every
    /// graph. The default uses the `Debug` representation, which covers all
    /// parameters of the derive-`Debug` workloads in this crate.
    fn cache_token(&self) -> String {
        format!("{}#{:?}", self.name(), self)
    }

    /// Whether the convergence threshold is tuned to the dataset size — the
    /// input to the default transform rule.
    fn convergence(&self) -> ConvergenceKind;

    /// Current convergence threshold `τ` (0.0 for fixed-point workloads).
    fn threshold(&self) -> f64;

    /// A copy of this workload with a different convergence threshold. Used
    /// by the transform function when configuring the sample run.
    fn with_threshold(&self, threshold: f64) -> Box<dyn Workload>;

    /// Executes the workload on `graph` and returns the run profile.
    fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> WorkloadRun;

    /// A serializable description of this workload's configuration, when one
    /// exists. Executors that ship work across a process boundary (the
    /// cluster transports) send this spec to worker processes instead of the
    /// trait object; the five workloads of this crate all return `Some`.
    /// External `Workload` implementations may return `None` (the default),
    /// in which case remote execution falls back to in-memory.
    fn spec(&self) -> Option<WorkloadSpec> {
        None
    }
}

/// Serializable configuration of one of this crate's five workloads — the
/// wire-transportable counterpart of the `dyn Workload` trait objects (see
/// [`Workload::spec`]). A spec plus a graph fully determines a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// [`PageRankWorkload`].
    PageRank {
        /// PageRank parameters.
        params: PageRankParams,
    },
    /// [`TopKWorkload`].
    TopK {
        /// Top-k parameters.
        params: TopKParams,
        /// Tolerance level of the PageRank pre-pass.
        pagerank_epsilon: f64,
    },
    /// [`SemiClusteringWorkload`].
    SemiClustering {
        /// Semi-clustering parameters.
        params: SemiClusteringParams,
    },
    /// [`ConnectedComponentsWorkload`].
    ConnectedComponents {},
    /// [`NeighborhoodWorkload`].
    Neighborhood {
        /// Neighborhood-estimation parameters.
        params: NeighborhoodParams,
    },
}

/// Undirected form of `graph`, built the way SC and CC build it before they
/// run (every edge mirrored, then re-frozen). Public so out-of-process
/// executors can reproduce exactly the graph those workloads execute on.
pub fn to_undirected(graph: &CsrGraph) -> CsrGraph {
    CsrGraph::from_edge_list(&graph.to_edge_list().to_undirected())
}

/// PageRank workload (constant per-iteration runtime; absolute-aggregate
/// convergence).
#[derive(Debug, Clone, Copy)]
pub struct PageRankWorkload {
    /// PageRank parameters (damping factor, threshold).
    pub params: PageRankParams,
}

impl PageRankWorkload {
    /// Creates the workload from explicit parameters.
    pub fn new(params: PageRankParams) -> Self {
        Self { params }
    }

    /// The paper's parameterization: threshold `τ = ε / N` for the graph the
    /// prediction targets.
    pub fn with_epsilon(epsilon: f64, num_vertices: usize) -> Self {
        Self {
            params: PageRankParams::with_epsilon(epsilon, num_vertices),
        }
    }
}

impl Workload for PageRankWorkload {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn convergence(&self) -> ConvergenceKind {
        ConvergenceKind::AbsoluteAggregate
    }

    fn threshold(&self) -> f64 {
        self.params.tolerance
    }

    fn with_threshold(&self, threshold: f64) -> Box<dyn Workload> {
        Box::new(Self {
            params: self.params.with_tolerance(threshold),
        })
    }

    fn spec(&self) -> Option<WorkloadSpec> {
        Some(WorkloadSpec::PageRank {
            params: self.params,
        })
    }

    fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> WorkloadRun {
        let result = PageRank::new(self.params).run(engine, graph);
        WorkloadRun {
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Top-k ranking workload (variable message counts; ratio convergence).
///
/// The paper runs top-k ranking on the *output* of PageRank, so this workload
/// first runs a PageRank pre-pass on whatever graph it is given (sample or
/// full) and feeds those ranks into the top-k program. Only the top-k phase
/// is profiled.
#[derive(Debug, Clone, Copy)]
pub struct TopKWorkload {
    /// Top-k parameters.
    pub params: TopKParams,
    /// Parameters of the PageRank pre-pass that produces the input ranks.
    pub pagerank_epsilon: f64,
}

impl TopKWorkload {
    /// Creates the workload with the given top-k parameters and a PageRank
    /// pre-pass tolerance level `ε` (threshold `ε / N` of the graph being
    /// run on).
    pub fn new(params: TopKParams, pagerank_epsilon: f64) -> Self {
        Self {
            params,
            pagerank_epsilon,
        }
    }
}

impl Default for TopKWorkload {
    fn default() -> Self {
        Self {
            params: TopKParams::default(),
            pagerank_epsilon: 0.01,
        }
    }
}

impl Workload for TopKWorkload {
    fn name(&self) -> &'static str {
        "TOP-K"
    }

    fn convergence(&self) -> ConvergenceKind {
        ConvergenceKind::RelativeRatio
    }

    fn threshold(&self) -> f64 {
        self.params.tolerance
    }

    fn with_threshold(&self, threshold: f64) -> Box<dyn Workload> {
        Box::new(Self {
            params: self.params.with_tolerance(threshold),
            ..*self
        })
    }

    fn spec(&self) -> Option<WorkloadSpec> {
        Some(WorkloadSpec::TopK {
            params: self.params,
            pagerank_epsilon: self.pagerank_epsilon,
        })
    }

    fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> WorkloadRun {
        let ranks = PageRank::new(PageRankParams::with_epsilon(
            self.pagerank_epsilon,
            graph.num_vertices(),
        ))
        .run(engine, graph)
        .ranks;
        let result = TopKRanking::new(self.params, ranks).run(engine, graph);
        WorkloadRun {
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Semi-clustering workload (variable message sizes; ratio convergence).
/// Converts the input graph to its undirected form, as the paper does.
#[derive(Debug, Clone, Copy, Default)]
pub struct SemiClusteringWorkload {
    /// Semi-clustering parameters.
    pub params: SemiClusteringParams,
}

impl SemiClusteringWorkload {
    /// Creates the workload.
    pub fn new(params: SemiClusteringParams) -> Self {
        Self { params }
    }
}

impl Workload for SemiClusteringWorkload {
    fn name(&self) -> &'static str {
        "SC"
    }

    fn convergence(&self) -> ConvergenceKind {
        ConvergenceKind::RelativeRatio
    }

    fn threshold(&self) -> f64 {
        self.params.tolerance
    }

    fn with_threshold(&self, threshold: f64) -> Box<dyn Workload> {
        Box::new(Self {
            params: self.params.with_tolerance(threshold),
        })
    }

    fn spec(&self) -> Option<WorkloadSpec> {
        Some(WorkloadSpec::SemiClustering {
            params: self.params,
        })
    }

    fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> WorkloadRun {
        let undirected = to_undirected(graph);
        let result = SemiClustering::new(self.params).run(engine, &undirected);
        WorkloadRun {
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Connected-components workload (fixed point, no threshold). Runs on the
/// undirected form of the graph (weak connectivity).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectedComponentsWorkload;

impl Workload for ConnectedComponentsWorkload {
    fn name(&self) -> &'static str {
        "CC"
    }

    fn convergence(&self) -> ConvergenceKind {
        ConvergenceKind::FixedPoint
    }

    fn threshold(&self) -> f64 {
        0.0
    }

    fn with_threshold(&self, _threshold: f64) -> Box<dyn Workload> {
        Box::new(Self)
    }

    fn spec(&self) -> Option<WorkloadSpec> {
        Some(WorkloadSpec::ConnectedComponents {})
    }

    fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> WorkloadRun {
        let undirected = to_undirected(graph);
        let result = ConnectedComponents.run(engine, &undirected);
        WorkloadRun {
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Neighborhood-estimation workload (ratio convergence).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighborhoodWorkload {
    /// Neighborhood-estimation parameters.
    pub params: NeighborhoodParams,
}

impl NeighborhoodWorkload {
    /// Creates the workload.
    pub fn new(params: NeighborhoodParams) -> Self {
        Self { params }
    }
}

impl Workload for NeighborhoodWorkload {
    fn name(&self) -> &'static str {
        "NH"
    }

    fn convergence(&self) -> ConvergenceKind {
        ConvergenceKind::RelativeRatio
    }

    fn threshold(&self) -> f64 {
        self.params.tolerance
    }

    fn with_threshold(&self, threshold: f64) -> Box<dyn Workload> {
        Box::new(Self {
            params: self.params.with_tolerance(threshold),
        })
    }

    fn spec(&self) -> Option<WorkloadSpec> {
        Some(WorkloadSpec::Neighborhood {
            params: self.params,
        })
    }

    fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> WorkloadRun {
        let result = NeighborhoodEstimation::new(self.params).run(engine, graph);
        WorkloadRun {
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{BspConfig, ClusterCostConfig};
    use predict_graph::generators::{generate_rmat, RmatConfig};

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    fn graph() -> CsrGraph {
        generate_rmat(&RmatConfig::new(8, 5).with_seed(11))
    }

    #[test]
    fn all_workloads_run_and_profile() {
        let g = graph();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices())),
            Box::new(TopKWorkload::default()),
            Box::new(SemiClusteringWorkload::default()),
            Box::new(ConnectedComponentsWorkload),
            Box::new(NeighborhoodWorkload::default()),
        ];
        for w in &workloads {
            let run = w.run(&engine(), &g);
            assert!(run.iterations() >= 2, "{} did not iterate", w.name());
            assert!(run.profile.superstep_phase_ms() > 0.0);
        }
    }

    #[test]
    fn names_match_paper_abbreviations() {
        assert_eq!(PageRankWorkload::with_epsilon(0.01, 10).name(), "PR");
        assert_eq!(TopKWorkload::default().name(), "TOP-K");
        assert_eq!(SemiClusteringWorkload::default().name(), "SC");
        assert_eq!(ConnectedComponentsWorkload.name(), "CC");
        assert_eq!(NeighborhoodWorkload::default().name(), "NH");
    }

    #[test]
    fn convergence_kinds_drive_transform_defaults() {
        assert_eq!(
            PageRankWorkload::with_epsilon(0.01, 10).convergence(),
            ConvergenceKind::AbsoluteAggregate
        );
        assert_eq!(
            TopKWorkload::default().convergence(),
            ConvergenceKind::RelativeRatio
        );
        assert_eq!(
            SemiClusteringWorkload::default().convergence(),
            ConvergenceKind::RelativeRatio
        );
        assert_eq!(
            ConnectedComponentsWorkload.convergence(),
            ConvergenceKind::FixedPoint
        );
    }

    #[test]
    fn with_threshold_rebuilds_the_workload() {
        let pr = PageRankWorkload::with_epsilon(0.01, 1000);
        let scaled = pr.with_threshold(pr.threshold() * 10.0);
        assert!((scaled.threshold() - pr.threshold() * 10.0).abs() < 1e-15);
        assert_eq!(scaled.name(), "PR");

        let sc = SemiClusteringWorkload::default();
        let same = sc.with_threshold(0.05);
        assert_eq!(same.threshold(), 0.05);
    }

    #[test]
    fn scaled_threshold_changes_pagerank_iterations() {
        let g = graph();
        let engine = engine();
        let tight = PageRankWorkload::with_epsilon(0.001, g.num_vertices());
        let loose = tight.with_threshold(tight.threshold() * 100.0);
        let tight_run = tight.run(&engine, &g);
        let loose_run = loose.run(&engine, &g);
        assert!(tight_run.iterations() > loose_run.iterations());
    }
}
