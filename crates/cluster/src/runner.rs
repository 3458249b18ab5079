//! The one seam between the prediction stack and a vertex program.
//!
//! [`run_workload`] is what every sample run and every actual run of the
//! prediction pipeline goes through. It does one thing: place the run. The
//! engine's [`TransportMode`](predict_bsp::TransportMode) (honoring
//! `PREDICT_TRANSPORT` under `Auto`) picks the executor for the workload's
//! [`RunPlan`] (graph, pre-pass, program — prepared once, by the workload):
//! `InMemory` is the in-memory [`RunPlan::run`], while `InProc`/`Socket`
//! executes the same plan as [`drive`] calls on a worker group. Either way
//! the same plan runs, so profiles are byte-identical across executors; only
//! a transported run can fail, and it fails with the structured
//! [`ClusterError`] it met. Every cluster drive is counted through
//! [`BspEngine::record_external_run`], keeping the engine's `runs_executed`
//! statistic comparable across executors (the TOP-K workload is two runs on
//! either path).

use crate::driver::{drive, DriveOptions};
use crate::error::ClusterError;
use crate::protocol::ProgramSpec;
use crate::transport::TransportKind;
use predict_algorithms::{with_program, PageRank, RunPlan, Workload, WorkloadRun};
use predict_bsp::BspEngine;
use predict_graph::CsrGraph;

/// Runs `workload` on `graph` under the engine's resolved transport. The
/// in-memory path cannot fail; every error is a cluster-transport failure.
pub fn run_workload(
    engine: &BspEngine,
    workload: &dyn Workload,
    graph: &CsrGraph,
) -> Result<WorkloadRun, ClusterError> {
    let plan = workload.plan(graph);
    match TransportKind::from_mode(engine.config().transport) {
        Some(kind) => run_plan(engine, &plan, &DriveOptions::new(kind)),
        None => Ok(plan.run(engine)),
    }
}

/// Executes `plan` as cluster drives: the in-memory [`RunPlan::run`] with
/// [`drive`] in place of `BspEngine::run`, each drive counted through
/// [`BspEngine::record_external_run`].
fn run_plan(
    engine: &BspEngine,
    plan: &RunPlan<'_>,
    opts: &DriveOptions,
) -> Result<WorkloadRun, ClusterError> {
    let graph: &CsrGraph = &plan.graph;
    let config = engine.config();
    let ranks = match plan.pre_pass {
        Some(params) => {
            let spec = ProgramSpec::PageRank { params };
            let pre = drive(&PageRank::new(params), &spec, &[], graph, config, opts)?;
            engine.record_external_run();
            pre.values
        }
        None => Vec::new(),
    };
    let run = with_program!(&plan.program, ranks.clone(), |program| {
        drive(program, &plan.program, &ranks, graph, config, opts).map(WorkloadRun::from)
    })?;
    engine.record_external_run();
    Ok(run)
}
