//! Socket-transport soak: 200 mixed predict/evaluate requests through a
//! socket-backed [`PredictService`] while worker processes are killed behind
//! its back.
//!
//! Faults arrive the way real ones do, from outside the library: between
//! batches the soak takes the idle pooled worker group, kills one of its
//! `cluster_worker` processes by pid and puts the group back; the next drive
//! that pops it finds the worker dead. What the soak pins down, end to end:
//!
//! * no request ever wedges or unwinds — every submission returns a value;
//! * every failure is a [`PredictError::Cluster`] carrying the driver's
//!   [`ClusterError::WorkerDied`] report, scoped to its own request, and
//!   there are exactly as many failures as killed groups (a dead group fails
//!   one request, is dropped, and the next drive spawns a fresh one);
//! * the service keeps serving: a clean batch over fresh datasets succeeds
//!   outright afterwards;
//! * the metrics registry stays consistent — exactly one `service.requests`
//!   tick per submission, failed or not.
//!
//! Mid-superstep crashes and hangs are covered at the cluster level
//! (`crates/cluster/tests`, through `DriveOptions`).
//!
//! `#[ignore]`d by default: it spawns (and kills) real `cluster_worker`
//! processes, which `cargo build -p predict_cluster` must have built. CI
//! runs it explicitly (`cargo test -p predict_core --test soak -- --ignored`)
//! after building the worker binary.

use predict_algorithms::{PageRankWorkload, TopKWorkload, Workload};
use predict_bsp::{BspConfig, BspEngine, TransportMode};
use predict_cluster::{checkin, checkout, ClusterError, TransportKind};
use predict_core::{
    PredictError, PredictRequest, PredictService, PredictServiceConfig, PredictorConfig,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_sampling::BiasedRandomJump;
use std::sync::Arc;

const WORKERS: usize = 4;
/// 20 batches of 8 predicts, four wide, then 40 evaluates one by one.
const PREDICT_BATCHES: usize = 20;
const BATCH: usize = 8;
const EVALUATES: usize = 40;

fn soak_service() -> PredictService {
    let cluster = BspConfig::with_workers(WORKERS).with_transport(TransportMode::Socket);
    PredictService::with_config(
        BspEngine::new(cluster),
        Arc::new(BiasedRandomJump::default()),
        PredictServiceConfig::default(),
    )
}

/// Builds `count` requests over `datasets` distinct dataset labels (prefixed
/// by `tag`), alternating PageRank and top-k workloads. Every request has its
/// own sampler seed, so every request needs at least one real cluster drive
/// however warm its session is.
fn build_requests(tag: &str, count: usize, datasets: usize) -> Vec<PredictRequest> {
    let graph = Arc::new(generate_rmat(&RmatConfig::new(8, 6).with_seed(11)));
    let workloads: [Arc<dyn Workload>; 2] = [
        Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices())),
        Arc::new(TopKWorkload::default()),
    ];
    (0..count)
        .map(|i| {
            PredictRequest::new(
                &format!("{tag}-{}", i % datasets),
                Arc::clone(&graph),
                Arc::clone(&workloads[i % 2]),
            )
            .with_config(PredictorConfig::single_ratio(0.1).with_seed(7 + i as u64))
        })
        .collect()
}

/// Takes the idle pooled group (the pool is last-in first-out, so this is
/// also the group the next drive will pop), kills worker `victim`'s process
/// and checks the group back in.
fn kill_a_pooled_worker(victim: usize) {
    let group = checkout(TransportKind::Socket, WORKERS).expect("worker group");
    let pid = group.connections[victim]
        .process_id()
        .expect("socket workers are processes");
    let killed = std::process::Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .status()
        .expect("running kill");
    assert!(killed.success(), "kill -KILL {pid} failed");
    checkin(group);
}

fn counter(service: &PredictService, name: &str) -> u64 {
    service.metrics_snapshot().counter(name).unwrap_or(0)
}

#[test]
#[ignore = "soak: needs the cluster_worker binary and kills worker processes; CI runs it with --ignored"]
fn socket_service_survives_killed_workers() {
    let service = soak_service();
    let requests_before = counter(&service, "service.requests");
    let mut killed_groups = 0usize;
    let mut outcomes: Vec<Result<(), PredictError>> = Vec::new();

    // Predicts run through the batch path, four wide — the same shape a
    // loaded service sees; every other batch starts on a group with a dead
    // worker.
    let predicts = build_requests("soak", PREDICT_BATCHES * BATCH, 48);
    for (b, batch) in predicts.chunks(BATCH).enumerate() {
        if b % 2 == 1 {
            kill_a_pooled_worker(b % WORKERS);
            killed_groups += 1;
        }
        let results = service.submit_batch(batch, 4);
        assert_eq!(results.len(), batch.len(), "every slot reports back");
        outcomes.extend(results.into_iter().map(|r| r.map(|_| ())));
    }

    // Evaluates exercise the actual-run path, called directly: a failed
    // drive is a returned value there too.
    let evaluates = build_requests("soak-eval", EVALUATES, 16);
    for (i, request) in evaluates.iter().enumerate() {
        if i % 4 == 1 {
            kill_a_pooled_worker(i % WORKERS);
            killed_groups += 1;
        }
        outcomes.push(service.evaluate(request).map(|_| ()));
    }

    let mut failures = 0usize;
    for outcome in &outcomes {
        match outcome {
            Ok(()) => {}
            Err(PredictError::Cluster(ClusterError::WorkerDied { worker, .. })) => {
                assert!(*worker < WORKERS);
                failures += 1;
            }
            Err(other) => panic!("a killed worker must surface as WorkerDied, got {other:?}"),
        }
    }
    assert_eq!(outcomes.len(), PREDICT_BATCHES * BATCH + EVALUATES);
    assert_eq!(
        failures, killed_groups,
        "each killed group fails exactly the one request that pops it"
    );

    // Metrics stayed consistent through every failure: one tick per request.
    let soaked = counter(&service, "service.requests");
    assert_eq!(
        soaked - requests_before,
        outcomes.len() as u64,
        "exactly one service.requests tick per submission, failed or not"
    );

    // With no more kills the same service serves a clean batch outright —
    // no wedged pool state, no poisoned sessions blocking fresh datasets.
    let clean = build_requests("soak-clean", 16, 8);
    let clean_results = service.submit_batch(&clean, 4);
    for (i, result) in clean_results.iter().enumerate() {
        assert!(
            result.is_ok(),
            "clean request {i} after the kills must succeed, got {:?}",
            result.as_ref().err()
        );
    }
    assert_eq!(
        counter(&service, "service.requests") - soaked,
        clean.len() as u64
    );
}
