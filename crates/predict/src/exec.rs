//! Workload execution dispatch for the prediction pipeline.
//!
//! Every workload execution in this crate — sample runs, actual runs —
//! funnels through [`execute_workload`], which routes to whichever executor
//! the engine's transport mode selects: the in-memory runtime (the default)
//! or a `predict_cluster` worker group (in-process threads or
//! socket-connected worker OS processes, via `PREDICT_TRANSPORT` or
//! [`PredictorBuilder::transport`](crate::session::PredictorBuilder::transport)).
//!
//! The pipeline's interfaces are infallible (a prediction either completes
//! or panics, and the service layer catches panics into structured
//! failures), so a cluster-transport failure — worker died, hung, spoke the
//! protocol wrong — panics here with the full structured report (worker,
//! superstep, stderr tail) as the message.

use predict_algorithms::{Workload, WorkloadRun};
use predict_bsp::BspEngine;
use predict_graph::CsrGraph;

/// Runs `workload` on `graph` under the engine's resolved transport.
///
/// # Panics
///
/// Panics when the engine selects a cluster transport and the drive fails;
/// the message carries the structured `predict_cluster::ClusterError`
/// report (worker, superstep, stderr tail).
pub fn execute_workload(
    engine: &BspEngine,
    workload: &dyn Workload,
    graph: &CsrGraph,
) -> WorkloadRun {
    match predict_cluster::run_workload(engine, workload, graph) {
        Ok(run) => run,
        Err(e) => panic!("cluster transport failed: {e}"),
    }
}
