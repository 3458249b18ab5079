//! Workload-level entry point: run a `Workload` on whichever executor the
//! engine's transport mode selects.
//!
//! [`run_workload`] is what the prediction pipeline calls instead of
//! `Workload::run` directly. It resolves the engine's
//! [`TransportMode`](predict_bsp::TransportMode) (honoring the
//! `PREDICT_TRANSPORT` env knob under `Auto`); `InMemory` — and any workload
//! without a [`WorkloadSpec`] — dispatches straight to the in-memory trait
//! method, while `InProc`/`Socket` replays the workload's
//! preparation steps
//! (undirected conversion for SC and CC, the PageRank pre-pass for TOP-K)
//! around [`drive`] calls, so the cluster path runs exactly the graph and
//! program sequence the in-memory path runs. Every cluster drive is counted
//! through [`BspEngine::record_external_run`], keeping the engine's
//! `runs_executed` statistic comparable across executors (the TOP-K
//! workload is two runs on either path).

use crate::driver::{drive, DriveOptions};
use crate::error::ClusterError;
use crate::fault::splitmix64;
use crate::protocol::{FaultSpec, ProgramSpec};
use crate::transport::TransportKind;
use crate::wire::Wire;
use predict_algorithms::{
    to_undirected, ConnectedComponents, NeighborhoodEstimation, PageRank, PageRankParams,
    SemiClustering, TopKRanking, Workload, WorkloadRun, WorkloadSpec,
};
use predict_bsp::{BspEngine, BspRunResult, VertexProgram};
use predict_graph::CsrGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Ambient chaos for soak tests: deterministically fault a fraction of the
/// cluster drives [`run_workload`] issues, process-wide.
///
/// While a plan is installed (see [`install_chaos`]), every workload run
/// hashes `(seed, drive counter)` through splitmix64; runs landing under
/// `fault_percent` get a worker crash injected via
/// [`FaultSpec`] — which also forces the drive
/// onto a fresh, never-repooled worker group. The schedule depends only on
/// the seed and the order runs are issued, so a soak's fault mix is
/// reproducible.
#[derive(Debug, Clone, Copy)]
pub struct ChaosPlan {
    /// Seed of the per-drive fault hash.
    pub seed: u64,
    /// Percentage (0–100) of workload runs that get a fault.
    pub fault_percent: u8,
}

static CHAOS: Mutex<Option<ChaosPlan>> = Mutex::new(None);
static CHAOS_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Installs `plan` process-wide and resets the drive counter.
pub fn install_chaos(plan: ChaosPlan) {
    CHAOS_COUNTER.store(0, Ordering::SeqCst);
    *CHAOS.lock().unwrap() = Some(plan);
}

/// Removes any installed chaos plan; subsequent runs are fault-free.
pub fn clear_chaos() {
    *CHAOS.lock().unwrap() = None;
}

/// The fault (if any) the installed chaos plan assigns to the next run.
fn chaos_fault(num_workers: usize) -> Option<(usize, FaultSpec)> {
    let plan = (*CHAOS.lock().unwrap())?;
    let n = CHAOS_COUNTER.fetch_add(1, Ordering::SeqCst);
    let mut state = plan.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    if splitmix64(&mut state) % 100 >= plan.fault_percent as u64 {
        return None;
    }
    let worker = (splitmix64(&mut state) % num_workers as u64) as usize;
    let superstep = (splitmix64(&mut state) % 3) as usize;
    Some((
        worker,
        FaultSpec {
            crash_at: Some(superstep),
            hang_at: None,
        },
    ))
}

/// Runs `workload` on `graph` under the engine's resolved transport. The
/// in-memory path cannot fail; every error is a cluster-transport failure.
pub fn run_workload(
    engine: &BspEngine,
    workload: &dyn Workload,
    graph: &CsrGraph,
) -> Result<WorkloadRun, ClusterError> {
    let kind = TransportKind::from_mode(engine.config().transport);
    let (Some(kind), Some(spec)) = (kind, workload.spec()) else {
        return Ok(workload.run(engine, graph));
    };
    let mut opts = DriveOptions::new(kind);
    opts.fault = chaos_fault(engine.config().workers());
    run_spec(engine, &spec, graph, &opts)
}

/// Runs a [`WorkloadSpec`] over the cluster transport in `opts`, replaying
/// the in-memory workloads' preparation steps.
pub fn run_spec(
    engine: &BspEngine,
    spec: &WorkloadSpec,
    graph: &CsrGraph,
    opts: &DriveOptions,
) -> Result<WorkloadRun, ClusterError> {
    match spec {
        WorkloadSpec::PageRank { params } => {
            let spec = ProgramSpec::PageRank { params: *params };
            counted_drive(engine, opts, &PageRank::new(*params), &spec, &[], graph).map(into_run)
        }
        WorkloadSpec::TopK {
            params,
            pagerank_epsilon,
        } => {
            // The PageRank pre-pass that produces the input ranking; only
            // the top-k phase below is profiled, as in the in-memory path.
            let pr_params = PageRankParams::with_epsilon(*pagerank_epsilon, graph.num_vertices());
            let pr_spec = ProgramSpec::PageRank { params: pr_params };
            let pre = PageRank::new(pr_params);
            let ranks = counted_drive(engine, opts, &pre, &pr_spec, &[], graph)?.values;
            let program = TopKRanking::new(*params, ranks.clone());
            let spec = ProgramSpec::TopK { params: *params };
            counted_drive(engine, opts, &program, &spec, &ranks, graph).map(into_run)
        }
        WorkloadSpec::SemiClustering { params } => {
            let spec = ProgramSpec::SemiClustering { params: *params };
            let program = SemiClustering::new(*params);
            counted_drive(engine, opts, &program, &spec, &[], &to_undirected(graph)).map(into_run)
        }
        WorkloadSpec::ConnectedComponents {} => {
            let spec = ProgramSpec::ConnectedComponents {};
            let undirected = to_undirected(graph);
            counted_drive(engine, opts, &ConnectedComponents, &spec, &[], &undirected).map(into_run)
        }
        WorkloadSpec::Neighborhood { params } => {
            let spec = ProgramSpec::Neighborhood { params: *params };
            let program = NeighborhoodEstimation::new(*params);
            counted_drive(engine, opts, &program, &spec, &[], graph).map(into_run)
        }
    }
}

/// One cluster drive, counted through [`BspEngine::record_external_run`].
fn counted_drive<P>(
    engine: &BspEngine,
    opts: &DriveOptions,
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
) -> Result<BspRunResult<P::VertexValue>, ClusterError>
where
    P: VertexProgram,
    P::Message: Wire,
    P::VertexValue: Wire,
{
    let result = drive(program, spec, ranks, graph, engine.config(), opts)?;
    engine.record_external_run();
    Ok(result)
}

fn into_run<V>(result: BspRunResult<V>) -> WorkloadRun {
    WorkloadRun {
        profile: result.profile,
        halt_reason: result.halt_reason,
    }
}
