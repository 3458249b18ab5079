//! Uniform workload interface used by the prediction pipeline.
//!
//! The PREDIcT pipeline needs to execute "the algorithm" on both a sample
//! graph (with a transformed convergence threshold) and the full graph without
//! caring which algorithm it is. [`Workload`] provides that uniform surface:
//! a name, the convergence-kind metadata the transform function needs, the
//! current threshold, a way to rebuild the workload with a different
//! threshold, and `plan`, which describes a run on a graph *once* — the graph
//! the program executes on (undirected for semi-clustering and connected
//! components), an optional PageRank pre-pass (top-k ranking) and the
//! [`ProgramSpec`] naming the vertex program. Every executor consumes the
//! same [`RunPlan`]: [`RunPlan::run`] on the in-memory engine, the cluster
//! runner (`predict_cluster::run_workload`) over a worker group, so the
//! sample run and the actual run are the same preparation on either.

use crate::convergence::ConvergenceKind;
use crate::neighborhood::NeighborhoodParams;
use crate::pagerank::{PageRank, PageRankParams};
use crate::semi_clustering::SemiClusteringParams;
use crate::topk::TopKParams;
use predict_bsp::{BspEngine, BspRunResult, HaltReason, RunProfile};
use predict_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

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

/// A workload run keeps a program run's profile and drops its vertex values.
impl<V> From<BspRunResult<V>> for WorkloadRun {
    fn from(result: BspRunResult<V>) -> Self {
        Self {
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
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

    /// Describes this workload's run on `graph`: the graph the program
    /// executes on, the optional pre-pass and the program itself. The plan
    /// is the only way a workload runs: [`RunPlan::run`] executes it in
    /// memory, and the cluster transports ship its [`ProgramSpec`] to worker
    /// processes instead of the trait object.
    fn plan<'g>(&self, graph: &'g CsrGraph) -> RunPlan<'g>;
}

/// Which vertex program to run, with its parameters — the serializable form
/// a cluster worker rebuilds its program from (`predict_cluster` carries it
/// in the `Init` header). One spec is exactly one superstep loop; the TOP-K
/// input ranks are data, not configuration, and travel beside the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProgramSpec {
    /// [`PageRank`].
    PageRank {
        /// PageRank parameters.
        params: PageRankParams,
    },
    /// [`TopKRanking`](crate::TopKRanking) over externally supplied input
    /// ranks.
    TopK {
        /// Top-k parameters.
        params: TopKParams,
    },
    /// [`SemiClustering`](crate::SemiClustering).
    SemiClustering {
        /// Semi-clustering parameters.
        params: SemiClusteringParams,
    },
    /// [`ConnectedComponents`](crate::ConnectedComponents).
    ConnectedComponents {},
    /// [`NeighborhoodEstimation`](crate::NeighborhoodEstimation).
    Neighborhood {
        /// Neighborhood-estimation parameters.
        params: NeighborhoodParams,
    },
    /// [`ShortestPaths`](crate::ShortestPaths) — no workload runs it; the
    /// transport oracle suite drives it like every other program.
    ShortestPaths {
        /// The source vertex distances are measured from.
        source: VertexId,
    },
}

/// Evaluates `$body` with `$program` bound to a reference to the vertex
/// program `$spec` (a `&ProgramSpec`) names — the one place a spec becomes a
/// program. `$body` is compiled once per program type, so it may use the
/// program's associated types; `$ranks` (a `Vec<f64>`) is evaluated only for
/// [`ProgramSpec::TopK`], whose input ranking it is.
#[macro_export]
macro_rules! with_program {
    ($spec:expr, $ranks:expr, |$program:ident| $body:expr) => {
        match $spec {
            $crate::ProgramSpec::PageRank { params } => {
                let $program = &$crate::PageRank::new(*params);
                $body
            }
            $crate::ProgramSpec::TopK { params } => {
                let $program = &$crate::TopKRanking::new(*params, $ranks);
                $body
            }
            $crate::ProgramSpec::SemiClustering { params } => {
                let $program = &$crate::SemiClustering::new(*params);
                $body
            }
            $crate::ProgramSpec::ConnectedComponents {} => {
                let $program = &$crate::ConnectedComponents;
                $body
            }
            $crate::ProgramSpec::Neighborhood { params } => {
                let $program = &$crate::NeighborhoodEstimation::new(*params);
                $body
            }
            $crate::ProgramSpec::ShortestPaths { source } => {
                let $program = &$crate::ShortestPaths::new(*source);
                $body
            }
        }
    };
}

/// One workload run, described once for every executor (see
/// [`Workload::plan`]).
#[derive(Debug, Clone)]
pub struct RunPlan<'g> {
    /// The graph `program` (and the pre-pass) executes on: the caller's
    /// graph, or its undirected form for SC and CC.
    pub graph: Cow<'g, CsrGraph>,
    /// PageRank pre-pass whose final ranks are `program`'s input ranking
    /// (TOP-K only). The pre-pass is executed but not profiled.
    pub pre_pass: Option<PageRankParams>,
    /// The profiled program.
    pub program: ProgramSpec,
}

impl<'g> RunPlan<'g> {
    /// `program` on `graph` as given.
    pub fn on(graph: &'g CsrGraph, program: ProgramSpec) -> Self {
        Self {
            graph: Cow::Borrowed(graph),
            pre_pass: None,
            program,
        }
    }

    /// `program` on the undirected form of `graph`, as the paper runs SC and
    /// CC.
    pub fn on_undirected(graph: &CsrGraph, program: ProgramSpec) -> Self {
        Self {
            graph: Cow::Owned(graph.to_undirected()),
            pre_pass: None,
            program,
        }
    }

    /// Executes the plan on the in-memory engine.
    pub fn run(&self, engine: &BspEngine) -> WorkloadRun {
        let graph: &CsrGraph = &self.graph;
        let ranks = match self.pre_pass {
            Some(params) => engine.run(graph, &PageRank::new(params)).values,
            None => Vec::new(),
        };
        with_program!(&self.program, ranks, |program| engine
            .run(graph, program)
            .into())
    }
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

    fn plan<'g>(&self, graph: &'g CsrGraph) -> RunPlan<'g> {
        let params = self.params;
        RunPlan::on(graph, ProgramSpec::PageRank { params })
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

    fn plan<'g>(&self, graph: &'g CsrGraph) -> RunPlan<'g> {
        let params = self.params;
        RunPlan {
            pre_pass: Some(PageRankParams::with_epsilon(
                self.pagerank_epsilon,
                graph.num_vertices(),
            )),
            ..RunPlan::on(graph, ProgramSpec::TopK { params })
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

    fn plan<'g>(&self, graph: &'g CsrGraph) -> RunPlan<'g> {
        let params = self.params;
        let program = ProgramSpec::SemiClustering { params };
        RunPlan::on_undirected(graph, program)
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

    fn plan<'g>(&self, graph: &'g CsrGraph) -> RunPlan<'g> {
        let program = ProgramSpec::ConnectedComponents {};
        RunPlan::on_undirected(graph, program)
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

    fn plan<'g>(&self, graph: &'g CsrGraph) -> RunPlan<'g> {
        let params = self.params;
        RunPlan::on(graph, ProgramSpec::Neighborhood { params })
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
            let run = w.plan(&g).run(&engine());
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
        let tight_run = tight.plan(&g).run(&engine);
        let loose_run = loose.plan(&g).run(&engine);
        assert!(tight_run.iterations() > loose_run.iterations());
    }
}
