//! Property-based fault-injection battery: arbitrary deterministic fault
//! schedules wrapped around one worker's endpoint must never hang or panic
//! the driver. Every drive either completes byte-identical to the in-memory
//! engine (the fault was absorbed — e.g. a delay released in time) or fails
//! with a structured [`ClusterError`] naming the worker — and a clean retry
//! on the pooled [`drive`] path must then reproduce the in-memory bits
//! exactly, pinning the service-level recovery story.
//!
//! The schedules run over the in-process transport (worker threads, each on
//! one end of a socket pair), in a group built here and run with
//! [`drive_on`], which makes the battery fast and exact: frame indices are
//! deterministic, so a failing case shrinks to a repeatable schedule.

use predict_algorithms::{PageRank, PageRankParams};
use predict_bsp::{BspConfig, BspEngine};
use predict_cluster::{
    drive, drive_on, ClusterError, Connection, Direction, DriveOptions, FaultAction, FaultSchedule,
    ProgramSpec, TransportKind, WorkerGroup,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::CsrGraph;
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::Duration;

/// Case count for this suite, bounded by `PROPTEST_CASES` when set (CI sets
/// it so the property suites finish in seconds).
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

const NUM_WORKERS: usize = 3;

fn test_config() -> BspConfig {
    BspConfig {
        num_workers: NUM_WORKERS,
        ..BspConfig::default()
    }
}

fn test_graph() -> &'static CsrGraph {
    static GRAPH: OnceLock<CsrGraph> = OnceLock::new();
    GRAPH.get_or_init(|| generate_rmat(&RmatConfig::new(6, 4).with_seed(7)))
}

fn pagerank_params() -> PageRankParams {
    PageRankParams::with_epsilon(0.05, test_graph().num_vertices())
}

/// The in-memory reference bits every successful or retried drive must hit.
fn reference_bits() -> &'static Vec<u64> {
    static BITS: OnceLock<Vec<u64>> = OnceLock::new();
    BITS.get_or_init(|| {
        let engine = BspEngine::new(test_config());
        let result = engine.run(test_graph(), &PageRank::new(pagerank_params()));
        result.values.iter().map(|v| v.to_bits()).collect()
    })
}

/// Drives PageRank on a fresh in-process group whose worker `faulted`
/// serves behind `schedule`, under a short timeout: a starved drive (a
/// Delay holding back a frame the episode never replaces) stays quick and
/// must still be classified as a Timeout, not hang.
fn drive_faulted(
    faulted: usize,
    schedule: &FaultSchedule,
) -> Result<predict_bsp::BspRunResult<f64>, ClusterError> {
    let params = pagerank_params();
    let group = WorkerGroup::spawn_with(TransportKind::InProc, NUM_WORKERS, |w| {
        if w == faulted {
            Connection::spawn_inproc_faulty(w, schedule.clone())
        } else {
            Connection::spawn_inproc(w)
        }
    })?;
    let opts = DriveOptions {
        timeout: Duration::from_millis(400),
        ..DriveOptions::new(TransportKind::InProc)
    };
    drive_on(
        &PageRank::new(params),
        &ProgramSpec::PageRank { params },
        &[],
        test_graph(),
        &test_config(),
        &opts,
        group,
    )
}

/// All five fault kinds, selected by a discriminant draw (the vendored
/// proptest stand-in has no `prop_oneof!`).
fn fault_action() -> impl Strategy<Value = FaultAction> {
    (0u64..5, 0usize..8, 1usize..4).prop_map(|(which, keep, frames)| match which {
        0 => FaultAction::TruncateBody { keep },
        1 => FaultAction::PartialWrite { keep },
        2 => FaultAction::Delay { frames },
        3 => FaultAction::Duplicate,
        _ => FaultAction::Disconnect,
    })
}

fn direction() -> impl Strategy<Value = Direction> {
    (0u64..2).prop_map(|d| {
        if d == 0 {
            Direction::Inbound
        } else {
            Direction::Outbound
        }
    })
}

/// Strategy: one to three faults against frame indices early enough in the
/// episode to actually fire (the drive is a handful of supersteps).
fn fault_schedule() -> impl Strategy<Value = FaultSchedule> {
    prop::collection::vec((direction(), 0u64..10, fault_action()), 1..4).prop_map(|faults| {
        faults
            .into_iter()
            .fold(FaultSchedule::new(), |s, (d, i, a)| s.at(d, i, a))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(32)))]

    /// Any schedule, any worker: the drive returns (never hangs), a failure
    /// is a structured non-spawn `ClusterError`, a success is byte-identical
    /// to in-memory — and the clean retry afterwards always is.
    #[test]
    fn injected_faults_never_hang_and_clean_retry_matches(
        schedule in fault_schedule(),
        faulted_worker in 0usize..NUM_WORKERS,
    ) {
        match drive_faulted(faulted_worker, &schedule) {
            Ok(result) => {
                let bits: Vec<u64> = result.values.iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(
                    &bits,
                    reference_bits(),
                    "an absorbed fault must not change the results"
                );
            }
            Err(err) => {
                prop_assert!(
                    !matches!(err, ClusterError::Spawn { .. }),
                    "faults surface as runtime errors, not spawn failures: {:?}",
                    err
                );
                prop_assert!(
                    !err.to_string().is_empty(),
                    "errors must render a message"
                );
            }
        }

        // The faulted group is never pooled, so the retry must see only
        // healthy workers and reproduce the in-memory bits exactly.
        let params = pagerank_params();
        let clean = DriveOptions::new(TransportKind::InProc);
        let spec = ProgramSpec::PageRank { params };
        let retry = drive(&PageRank::new(params), &spec, &[], test_graph(), &test_config(), &clean)
            .expect("clean retry after a faulted drive succeeds");
        let bits: Vec<u64> = retry.values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(&bits, reference_bits(), "clean retry matches in-memory bits");
    }
}

/// A deterministic end-to-end repro of the nastiest single fault: the
/// faulted worker's very first outbound frame (its `INIT_OK`) is replaced
/// with a disconnect. The driver must name the worker rather than stall.
#[test]
fn disconnect_on_first_outbound_frame_names_the_worker() {
    let schedule = FaultSchedule::new().at(Direction::Outbound, 0, FaultAction::Disconnect);
    let err =
        drive_faulted(1, &schedule).expect_err("a disconnected worker cannot complete a drive");
    match err {
        ClusterError::WorkerDied { worker, .. } => assert_eq!(worker, 1),
        ClusterError::Timeout { worker, .. } => assert_eq!(worker, 1),
        other => panic!("expected WorkerDied or Timeout for worker 1, got {other:?}"),
    }
}

/// The faulted worker's `INIT_OK` arrives with its tables cut short: the
/// driver reads the body's framing, so the drive fails with a typed error
/// naming the worker within the timeout instead of relaying a torn table
/// or waiting for one.
#[test]
fn truncated_init_ok_is_a_typed_error_not_a_hang() {
    for keep in [0, 3, 9] {
        let schedule =
            FaultSchedule::new().at(Direction::Outbound, 0, FaultAction::TruncateBody { keep });
        match drive_faulted(1, &schedule).expect_err("a torn init-ok cannot complete a drive") {
            ClusterError::Protocol { worker, .. } => assert_eq!(worker, 1, "keep {keep}"),
            other => panic!("expected a protocol error of worker 1, got {other:?}"),
        }
    }
}
