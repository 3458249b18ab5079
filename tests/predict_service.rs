//! Integration tests for the session/service layer: the amortization
//! guarantee (each `(ratio, seed)` sample run executes exactly once), the
//! concurrency determinism of `submit_batch`, the throughput win of the
//! cached path over the uncached one-shot pipeline, and a warm restart that
//! answers a concurrent batch from the store alone.

use predict_repro::bsp::BspEngine;
use predict_repro::graph::VertexId;
use predict_repro::predict::PredictServiceConfig;
use predict_repro::prelude::*;
use predict_repro::sampling::BiasedRandomJump;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sampler decorator counting how many times the underlying technique is
/// invoked — the direct measure of sampling-stage amortization.
#[derive(Debug)]
struct CountingSampler {
    inner: BiasedRandomJump,
    calls: Arc<AtomicUsize>,
}

impl Sampler for CountingSampler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn sample_vertices_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut predict_repro::sampling::SampleScratch,
    ) -> Vec<VertexId> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.sample_vertices_with(graph, ratio, seed, scratch)
    }
}

fn graph() -> Arc<CsrGraph> {
    Arc::new(Dataset::Wikipedia.load_small())
}

fn four_workloads(n: usize) -> Vec<Arc<dyn Workload>> {
    vec![
        Arc::new(PageRankWorkload::with_epsilon(0.001, n)),
        Arc::new(TopKWorkload::default()),
        Arc::new(ConnectedComponentsWorkload),
        Arc::new(NeighborhoodWorkload::default()),
    ]
}

/// One prediction through a session bound for just that call: nothing is
/// cached yet, so every stage computes.
fn predict_cold(
    engine: &BspEngine,
    g: &Arc<CsrGraph>,
    workload: &dyn Workload,
    config: &PredictorConfig,
) -> Prediction {
    PredictorBuilder::new()
        .engine(engine.clone())
        .config(config.clone())
        .bind(Arc::clone(g), "Wiki")
        .predict(workload)
        .unwrap()
}

/// The acceptance bar of the session redesign: predicting 4 workloads on one
/// dataset through a session performs each `(ratio, seed)` sample run
/// exactly once, counted by engine invocations — repeating every prediction
/// adds zero runs and changes no byte, while a freshly bound session per
/// call re-runs everything.
#[test]
fn session_performs_each_sample_run_exactly_once() {
    let g = graph();
    let workloads = four_workloads(g.num_vertices());
    let config = PredictorConfig::single_ratio(0.1);

    let calls = Arc::new(AtomicUsize::new(0));
    let engine = BspEngine::new(BspConfig::with_workers(4));
    let session = PredictorBuilder::new()
        .engine(engine.clone())
        .sampler(CountingSampler {
            inner: BiasedRandomJump::default(),
            calls: Arc::clone(&calls),
        })
        .config(config.clone())
        .bind(Arc::clone(&g), "Wiki");

    for w in &workloads {
        session.predict(w.as_ref()).unwrap();
    }
    let runs_first_pass = engine.runs_executed();
    let samples_first_pass = calls.load(Ordering::Relaxed);
    // One (ratio, seed) pair -> the sampler ran exactly once for all 4
    // workloads.
    assert_eq!(samples_first_pass, 1, "sampling was not shared");

    // Predicting all 4 workloads again: every sample run is cached.
    let warm: Vec<String> = workloads
        .iter()
        .map(|w| serde_json::to_string(&session.predict(w.as_ref()).unwrap()).unwrap())
        .collect();
    assert_eq!(
        engine.runs_executed(),
        runs_first_pass,
        "a repeated prediction re-executed a sample run"
    );
    assert_eq!(calls.load(Ordering::Relaxed), samples_first_pass);
    assert_eq!(session.stats().samples, 1);
    assert_eq!(session.stats().sample_runs, workloads.len());

    // Reference: a session bound per call starts cold and re-runs everything,
    // so two passes cost exactly twice one pass — and answer with the very
    // bytes the warm session served from its caches.
    let cold_engine = BspEngine::new(BspConfig::with_workers(4));
    for _ in 0..2 {
        let cold: Vec<String> = workloads
            .iter()
            .map(|w| {
                let p = predict_cold(&cold_engine, &g, w.as_ref(), &config);
                serde_json::to_string(&p).unwrap()
            })
            .collect();
        assert_eq!(warm, cold, "cache hits changed the prediction bytes");
    }
    assert_eq!(cold_engine.runs_executed(), 2 * runs_first_pass);
}

/// `submit_batch` output must be identical across 1-thread and N-thread
/// executions, byte for byte, in request order.
#[test]
fn submit_batch_is_deterministic_across_thread_counts() {
    let g = graph();
    let other = Arc::new(Dataset::LiveJournal.load_small());
    let config = PredictorConfig::single_ratio(0.1).with_seed(9);

    let requests: Vec<PredictRequest> =
        four_workloads(g.num_vertices())
            .into_iter()
            .map(|w| PredictRequest::new("Wiki", Arc::clone(&g), w).with_config(config.clone()))
            .chain(four_workloads(other.num_vertices()).into_iter().map(|w| {
                PredictRequest::new("LJ", Arc::clone(&other), w).with_config(config.clone())
            }))
            .collect();

    let run_batch = |threads: usize| -> Vec<String> {
        let service = PredictService::new(
            BspEngine::new(BspConfig::with_workers(4)),
            Arc::new(BiasedRandomJump::default()),
        );
        service
            .submit_batch(&requests, threads)
            .into_iter()
            .map(|r| serde_json::to_string(&r.expect("prediction succeeds")).unwrap())
            .collect()
    };

    let sequential = run_batch(1);
    let concurrent = run_batch(4);
    assert_eq!(sequential.len(), requests.len());
    assert_eq!(
        sequential, concurrent,
        "batch output depends on thread count"
    );
    // Request order is preserved: workload names follow the request list.
    for (req, json) in requests.iter().zip(&sequential) {
        assert!(
            json.contains(&format!("\"workload\":\"{}\"", req.workload.name())),
            "result out of order for {}",
            req.workload.name()
        );
    }
}

/// Repeated requests through the warm service do *zero* engine work, which
/// is the mechanism behind the ≥2x repeated-request throughput the bench
/// `bench_predict_service` measures (in practice the margin is two orders of
/// magnitude). Asserted on engine-invocation counts — deterministic — with
/// the wall-clock ratio reported for information only, so a loaded CI
/// machine cannot fail the suite spuriously.
#[test]
fn warm_service_does_no_engine_work() {
    let g = graph();
    let workloads = four_workloads(g.num_vertices());
    let config = PredictorConfig::single_ratio(0.1);
    let rounds = 3;

    let service_engine = BspEngine::new(BspConfig::with_workers(4));
    let service = PredictService::new(
        service_engine.clone(),
        Arc::new(BiasedRandomJump::default()),
    );
    let requests: Vec<PredictRequest> = workloads
        .iter()
        .map(|w| {
            PredictRequest::new("Wiki", Arc::clone(&g), Arc::clone(w)).with_config(config.clone())
        })
        .collect();
    for request in &requests {
        service.submit(request).unwrap(); // warm the caches
    }
    let warm_runs_before = service_engine.runs_executed();
    let start = Instant::now();
    for _ in 0..rounds {
        for request in &requests {
            service.submit(request).unwrap();
        }
    }
    let warm = start.elapsed();
    assert_eq!(
        service_engine.runs_executed(),
        warm_runs_before,
        "warm requests must be answered without engine work"
    );

    let engine = BspEngine::new(BspConfig::with_workers(4));
    let start = Instant::now();
    for _ in 0..rounds {
        for w in &workloads {
            predict_cold(&engine, &g, w.as_ref(), &config);
        }
    }
    let cold = start.elapsed();
    assert!(
        engine.runs_executed() > 0,
        "the cold reference must actually run the engine"
    );
    eprintln!(
        "warm service: {warm:?} for {} requests vs a cold session per request {cold:?}",
        rounds * requests.len()
    );
}

/// A restarted store-backed service answers a concurrent batch from disk
/// alone: the same bytes as the service that computed them, zero engine
/// runs, and every store read a hit. The store counters are process-global;
/// no other test of this binary touches a store.
#[test]
fn a_warm_restart_serves_a_concurrent_batch_from_the_store_alone() {
    let dir = std::env::temp_dir().join(format!("predict_warm_restart_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let g = graph();
    let requests: Vec<PredictRequest> = four_workloads(g.num_vertices())
        .into_iter()
        .flat_map(|w| {
            let g = Arc::clone(&g);
            (0..2).map(move |seed| {
                PredictRequest::new("Wiki", Arc::clone(&g), Arc::clone(&w))
                    .with_config(PredictorConfig::single_ratio(0.1).with_seed(seed))
            })
        })
        .collect();
    let service = || {
        PredictService::with_config(
            BspEngine::new(BspConfig::with_workers(4)),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig::default().store(&dir),
        )
    };
    let answer = |service: &PredictService| -> Vec<String> {
        service
            .submit_batch(&requests, 4)
            .into_iter()
            .map(|r| serde_json::to_string(&r.expect("prediction succeeds")).unwrap())
            .collect()
    };

    let cold = service();
    let computed = answer(&cold);
    assert!(cold.engine().runs_executed() > 0);
    drop(cold);

    let warm = service();
    let counter = |name: &str| warm.metrics_snapshot().counter(name).unwrap_or(0);
    let (reads, hits) = (counter("store.reads"), counter("store.hits"));
    assert_eq!(answer(&warm), computed, "the warm restart diverged");
    assert_eq!(
        warm.engine().runs_executed(),
        0,
        "a warm restart ran an engine"
    );
    let (reads, hits) = (counter("store.reads") - reads, counter("store.hits") - hits);
    assert!(reads > 0, "the warm restart never read the store");
    assert_eq!(hits, reads, "a store read of the warm restart missed");
    std::fs::remove_dir_all(&dir).ok();
}
