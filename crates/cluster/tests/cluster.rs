//! End-to-end cluster tests: transported runs must be byte-identical to
//! in-memory runs, and worker failures must surface as structured errors
//! naming the worker and the superstep. Failures are injected from outside,
//! by a fault schedule around one in-process worker's endpoint; the
//! driver-side code that attributes them is the same for both transports.
//!
//! These live in `tests/` of the `predict_cluster` package (not in a
//! downstream crate) so cargo builds the `cluster_worker` binary before
//! running them — the Socket-transport tests spawn it.

use predict_algorithms::{
    PageRank, PageRankParams, SemiClustering, SemiClusteringParams, TopKWorkload, Workload,
};
use predict_bsp::{BspConfig, BspEngine, HaltReason, TransportMode};
use predict_cluster::{
    drive, drive_on, run_workload, ClusterError, Connection, Direction, DriveOptions, FaultAction,
    FaultSchedule, ProgramSpec, TransportKind, WorkerGroup,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::CsrGraph;
use std::time::Duration;

fn test_graph() -> CsrGraph {
    generate_rmat(&RmatConfig::new(8, 6).with_seed(11))
}

fn test_config() -> BspConfig {
    BspConfig {
        num_workers: 4,
        ..BspConfig::default()
    }
}

/// Drives `program` on both the in-memory engine and the given transport and
/// asserts byte-identical values, profiles and halt reasons.
fn assert_transport_matches_in_memory<P>(
    program: &P,
    spec: &ProgramSpec,
    graph: &CsrGraph,
    kind: TransportKind,
    value_bits: impl Fn(&P::VertexValue) -> Vec<u64>,
) where
    P: predict_bsp::VertexProgram,
    P::Message: predict_cluster::Wire,
    P::VertexValue: predict_cluster::Wire,
{
    let config = test_config();
    let engine = BspEngine::new(config.clone());
    let in_memory = engine.run(graph, program);

    let opts = DriveOptions::new(kind);
    let mut transported =
        drive(program, spec, &[], graph, &config, &opts).expect("cluster drive succeeds");

    assert_eq!(transported.halt_reason, in_memory.halt_reason);
    assert_eq!(transported.values.len(), in_memory.values.len());
    for (t, m) in transported.values.iter().zip(&in_memory.values) {
        assert_eq!(
            value_bits(t),
            value_bits(m),
            "values must match bit for bit"
        );
    }

    // The transported profile carries measured timings the in-memory profile
    // cannot have; everything else must be identical.
    let measured = transported
        .profile
        .measured
        .take()
        .expect("measured timings recorded");
    assert_eq!(transported.profile, in_memory.profile);
    assert_eq!(measured.transport, kind.name());
    assert_eq!(
        measured.supersteps.len(),
        transported.profile.supersteps.len()
    );
    assert!(measured.total_wall_ns > 0);
    assert!(
        measured
            .supersteps
            .iter()
            .any(|s| s.wire_bytes.iter().sum::<u64>() > 0),
        "a multi-worker run moves bytes over the wire"
    );
    for s in &measured.supersteps {
        assert_eq!(s.worker_compute_ns.len(), config.num_workers);
        assert_eq!(s.wire_bytes.len(), config.num_workers);
    }
}

#[test]
fn pagerank_inproc_is_byte_identical_to_in_memory() {
    let graph = test_graph();
    let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
    assert_transport_matches_in_memory(
        &PageRank::new(params),
        &ProgramSpec::PageRank { params },
        &graph,
        TransportKind::InProc,
        |v: &f64| vec![v.to_bits()],
    );
}

#[test]
fn pagerank_socket_is_byte_identical_to_in_memory() {
    let graph = test_graph();
    let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
    assert_transport_matches_in_memory(
        &PageRank::new(params),
        &ProgramSpec::PageRank { params },
        &graph,
        TransportKind::Socket,
        |v: &f64| vec![v.to_bits()],
    );
}

/// Semi-clustering exercises variable-size messages (vectors of cluster
/// structs) and runs on the undirected graph, like its workload does.
fn semi_cluster_bits(v: &predict_algorithms::SemiClusterList) -> Vec<u64> {
    let mut bits = Vec::new();
    for c in &v.clusters {
        bits.push(c.vertices.len() as u64);
        bits.extend(c.vertices.iter().map(|&x| x as u64));
        bits.push(c.internal_weight.to_bits());
        bits.push(c.boundary_weight.to_bits());
    }
    bits
}

#[test]
fn semi_clustering_inproc_is_byte_identical_to_in_memory() {
    let graph = predict_algorithms::to_undirected(&test_graph());
    let params = SemiClusteringParams::default();
    assert_transport_matches_in_memory(
        &SemiClustering::new(params),
        &ProgramSpec::SemiClustering { params },
        &graph,
        TransportKind::InProc,
        semi_cluster_bits,
    );
}

#[test]
fn semi_clustering_socket_is_byte_identical_to_in_memory() {
    let graph = predict_algorithms::to_undirected(&test_graph());
    let params = SemiClusteringParams::default();
    assert_transport_matches_in_memory(
        &SemiClustering::new(params),
        &ProgramSpec::SemiClustering { params },
        &graph,
        TransportKind::Socket,
        semi_cluster_bits,
    );
}

/// The workload-level entry point must agree with `Workload::run` for a
/// two-phase workload (TOP-K: PageRank pre-pass feeding the ranking phase),
/// and must count both phases as engine runs like the in-memory path does.
#[test]
fn topk_workload_runs_identically_over_the_cluster() {
    let graph = test_graph();
    let workload = TopKWorkload::default();

    let in_memory_engine = BspEngine::new(test_config());
    let in_memory = workload.run(&in_memory_engine, &graph);

    let cluster_engine = BspEngine::new(BspConfig {
        transport: TransportMode::InProc,
        ..test_config()
    });
    let transported =
        run_workload(&cluster_engine, &workload, &graph).expect("cluster run succeeds");

    assert_eq!(transported.halt_reason, in_memory.halt_reason);
    let mut profile = transported.profile;
    assert!(profile.measured.take().is_some());
    assert_eq!(profile, in_memory.profile);
    assert_eq!(
        cluster_engine.runs_executed(),
        in_memory_engine.runs_executed(),
        "both executors must count the pre-pass and the ranking phase"
    );
}

/// Drives PageRank on the test graph over an in-process group whose worker
/// `faulted` serves behind `schedule`, returning the error the drive must
/// fail with.
fn drive_with_faulty_worker(
    faulted: usize,
    schedule: FaultSchedule,
    timeout: Duration,
) -> ClusterError {
    let graph = test_graph();
    let config = test_config();
    let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
    let group = WorkerGroup::spawn_with(TransportKind::InProc, config.workers(), |w| {
        if w == faulted {
            Connection::spawn_inproc_faulty(w, schedule.clone())
        } else {
            Connection::spawn_inproc(w)
        }
    })
    .expect("spawning the group");
    let opts = DriveOptions {
        timeout,
        ..DriveOptions::new(TransportKind::InProc)
    };
    drive_on(
        &PageRank::new(params),
        &ProgramSpec::PageRank { params },
        &[],
        &graph,
        &config,
        &opts,
        group,
    )
    .expect_err("a faulted worker must fail the drive")
}

/// Inbound frame 0 is `Init` and frame `s + 1` the `Step` of superstep `s`:
/// a worker that drops its connection there dies at superstep `s`, and the
/// driver attributes the death to it.
#[test]
fn crashed_inproc_worker_reports_a_death_too() {
    for (worker, superstep) in [(0, 0), (3, 1)] {
        let schedule = FaultSchedule::new().at(
            Direction::Inbound,
            superstep as u64 + 1,
            FaultAction::Disconnect,
        );
        let err = drive_with_faulty_worker(worker, schedule, Duration::from_secs(120));
        assert!(
            matches!(
                err,
                ClusterError::WorkerDied { worker: w, superstep: Some(s), .. }
                    if (w, s) == (worker, superstep)
            ),
            "expected WorkerDied of worker {worker} at superstep {superstep}, got: {err}"
        );
    }
}

/// A worker whose `Step` of superstep 1 is held back never answers it; the
/// driver must time out instead of hanging.
#[test]
fn hung_worker_times_out_instead_of_hanging_the_driver() {
    let schedule = FaultSchedule::new().at(Direction::Inbound, 2, FaultAction::Delay { frames: 1 });
    let err = drive_with_faulty_worker(1, schedule, Duration::from_millis(250));
    match err {
        ClusterError::Timeout {
            worker, superstep, ..
        } => {
            assert_eq!(worker, 1);
            assert_eq!(superstep, Some(1));
        }
        other => panic!("expected Timeout, got: {other}"),
    }
}

/// Sanity: runs converge for the configured graph (guards against a silent
/// max-supersteps truncation making the identity tests vacuous).
#[test]
fn test_runs_actually_converge() {
    let graph = test_graph();
    let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
    let engine = BspEngine::new(test_config());
    let result = engine.run(&graph, &PageRank::new(params));
    assert_eq!(result.halt_reason, HaltReason::MasterConverged);
    assert!(result.profile.supersteps.len() > 2);
}
