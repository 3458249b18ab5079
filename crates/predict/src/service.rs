//! A thread-safe prediction service with session caching.
//!
//! [`PredictService`] is the deployment shape the paper motivates: a
//! scheduler-facing front-end that answers many prediction queries over a
//! changing population of datasets. It keeps [`crate::PredictionSession`]s in
//! a sharded, LRU-bounded cache keyed by dataset label, so requests against
//! the same dataset share sampled graphs, sample runs and trained models,
//! while requests against different datasets proceed without contending on a
//! single lock.
//!
//! Batches run on the engine's persistent [`predict_bsp::WorkerPool`]:
//! [`PredictService::submit_batch`] schedules independent requests as pool
//! tasks and returns results in request order, so a warm service evaluates
//! batch after batch without spawning a single OS thread. Because every
//! pipeline stage is deterministic and cache values are immutable artifacts,
//! the output is identical regardless of thread count or interleaving — a
//! 1-thread batch and an N-thread batch produce the same bytes.
//!
//! Robustness: failure is a value. A sample or actual run that loses its
//! cluster worker returns [`PredictError::Cluster`] — from
//! [`PredictService::submit`], [`PredictService::evaluate`] and in its
//! [`PredictService::submit_batch`] slot alike — with the driver's report
//! (worker, superstep, stderr tail) intact, and the next request runs on a
//! fresh worker group. A *panic* inside one batch request (a bug, not a
//! transport failure) is caught at the request boundary and surfaced as
//! [`PredictError::WorkerPanicked`] for that request alone — the rest of the
//! batch completes, and the session-cache shard locks recover from poisoning
//! so the service keeps serving afterwards.
//!
//! How and where runs execute (threads, in-memory or a `predict_cluster`
//! worker group) is not a service setting: it is the
//! [`BspConfig`](predict_bsp::BspConfig) of the engine the service is given.

use crate::artifacts::stable_fingerprint;
use crate::error::PredictError;
use crate::session::{
    Evaluation, Prediction, PredictionSession, PredictorBuilder, PredictorConfig,
};
use predict_algorithms::Workload;
use predict_bsp::BspEngine;
use predict_graph::CsrGraph;
use predict_obs::diag;
use predict_obs::metrics::{Counter, Histogram};
use predict_sampling::Sampler;
use predict_store::ArtifactStore;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One prediction query: a dataset (label + graph), a workload, and an
/// optional configuration override.
#[derive(Clone)]
pub struct PredictRequest {
    /// Dataset label; it identifies the session (and thus the artifact
    /// cache) the request is routed to.
    pub dataset: String,
    /// The full graph of the dataset. Requests with the same label should
    /// clone the same `Arc`: session reuse is keyed on pointer identity, so
    /// a label re-used with a different `Arc` replaces the cached session
    /// (and its amortized artifacts) rather than risk serving predictions
    /// computed from a stale graph.
    pub graph: Arc<CsrGraph>,
    /// The workload to predict.
    pub workload: Arc<dyn Workload>,
    /// Configuration override; `None` uses the service's default.
    pub config: Option<PredictorConfig>,
}

impl PredictRequest {
    /// Creates a request with the service's default configuration.
    pub fn new(
        dataset: &str,
        graph: impl Into<Arc<CsrGraph>>,
        workload: Arc<dyn Workload>,
    ) -> Self {
        Self {
            dataset: dataset.to_string(),
            graph: graph.into(),
            workload,
            config: None,
        }
    }

    /// Overrides the predictor configuration for this request.
    pub fn with_config(mut self, config: PredictorConfig) -> Self {
        self.config = Some(config);
        self
    }
}

/// Configuration of the service's session cache.
#[derive(Debug, Clone)]
pub struct PredictServiceConfig {
    /// Number of lock shards the session cache is split over. More shards
    /// mean less contention between requests for different datasets.
    pub shards: usize,
    /// Maximum sessions kept per shard; the least-recently-used session is
    /// evicted beyond this bound (dropping its cached artifacts).
    pub sessions_per_shard: usize,
    /// Default pipeline configuration for requests without an override.
    pub predictor: PredictorConfig,
    /// Root directory of the persistent artifact store. `Some(path)` opens
    /// (creating on first use) a [`predict_store::ArtifactStore`] there and
    /// attaches it to every session the service binds: artifacts missing
    /// from a session's in-memory cache are read from disk before being
    /// recomputed, and freshly computed artifacts are written through. A
    /// warm-restarted service therefore answers with byte-identical
    /// predictions without re-executing stored sample runs. `None` keeps
    /// the service memory-only. Opening failures degrade to memory-only with
    /// a diagnostic — they never fail construction.
    pub store: Option<PathBuf>,
}

impl Default for PredictServiceConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            sessions_per_shard: 4,
            predictor: PredictorConfig::default(),
            store: None,
        }
    }
}

impl PredictServiceConfig {
    /// Sets the persistent artifact-store directory (see the
    /// [`store`](Self::store) field).
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }
}

struct ShardEntry {
    dataset: String,
    session: Arc<PredictionSession>,
    last_used: AtomicU64,
}

#[derive(Default)]
struct Shard {
    entries: Vec<ShardEntry>,
}

/// Locks a shard for reading, recovering from poisoning. Shard state is a
/// plain entry list that is never left half-edited across an unwind (each
/// mutation completes before stage code — the only thing that can panic —
/// runs), so a poisoned lock only means *some* request died mid-hold; the
/// data is still consistent and refusing to serve forever would turn one bad
/// request into a permanent outage.
fn shard_read(shard: &RwLock<Shard>) -> std::sync::RwLockReadGuard<'_, Shard> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-lock counterpart of [`shard_read`]; same poisoning rationale.
fn shard_write(shard: &RwLock<Shard>) -> std::sync::RwLockWriteGuard<'_, Shard> {
    shard.write().unwrap_or_else(|e| e.into_inner())
}

/// A `Sync` prediction front-end holding per-dataset sessions behind a
/// sharded, LRU-bounded cache. See the [module documentation](self).
pub struct PredictService {
    engine: Arc<BspEngine>,
    sampler: Arc<dyn Sampler>,
    config: PredictServiceConfig,
    store: Option<Arc<ArtifactStore>>,
    shards: Vec<RwLock<Shard>>,
    clock: AtomicU64,
    /// `service.requests`, resolved once in [`PredictService::with_config`].
    requests: Arc<Counter>,
    /// `service.request_ns`, resolved once in [`PredictService::with_config`].
    request_ns: Arc<Histogram>,
}

impl PredictService {
    /// Creates a service with the default cache configuration.
    pub fn new(engine: impl Into<Arc<BspEngine>>, sampler: Arc<dyn Sampler>) -> Self {
        Self::with_config(engine, sampler, PredictServiceConfig::default())
    }

    /// Creates a service with an explicit cache configuration.
    pub fn with_config(
        engine: impl Into<Arc<BspEngine>>,
        sampler: Arc<dyn Sampler>,
        config: PredictServiceConfig,
    ) -> Self {
        let shards = config.shards.max(1);
        let engine = engine.into();
        // Open the configured store directory once; every session the
        // service binds shares this handle. An unopenable store is a
        // degradation, not an outage: warn and serve memory-only.
        let store = config
            .store
            .as_ref()
            .and_then(|path| match ArtifactStore::open(path) {
                Ok(store) => Some(Arc::new(store)),
                Err(err) => {
                    diag!(
                        Warn,
                        "service: failed to open artifact store at `{}` ({err}); \
                         continuing memory-only",
                        path.display()
                    );
                    None
                }
            });
        let registry = predict_obs::registry();
        Self {
            engine,
            sampler,
            store,
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            config,
            clock: AtomicU64::new(0),
            requests: registry.counter("service.requests"),
            request_ns: registry.histogram("service.request_ns"),
        }
    }

    /// The engine shared by every session of this service.
    pub fn engine(&self) -> &Arc<BspEngine> {
        &self.engine
    }

    /// The persistent artifact store shared by every session of this
    /// service, when one was configured and opened successfully.
    pub fn artifact_store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref()
    }

    /// Stable shard assignment of a dataset label.
    fn shard_index(&self, dataset: &str) -> usize {
        (stable_fingerprint(dataset) % self.shards.len() as u64) as usize
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// True when `entry` can serve requests for `graph`: same label and the
    /// *same* graph by pointer identity. Structural comparison (vertex/edge
    /// counts) is deliberately not accepted: a regenerated graph can rewire
    /// edges while keeping its counts, and serving it cached predictions
    /// from the old graph would be silently wrong. Callers that want session
    /// reuse must ship the same `Arc` for the same dataset (which
    /// [`PredictRequest`] clones do naturally).
    fn entry_matches(entry: &ShardEntry, dataset: &str, graph: &Arc<CsrGraph>) -> bool {
        entry.dataset == dataset && Arc::ptr_eq(entry.session.graph(), graph)
    }

    /// Returns the session for `dataset`, creating (or replacing, when the
    /// label was re-bound to a different graph) and caching it on demand.
    pub fn session_for(&self, dataset: &str, graph: &Arc<CsrGraph>) -> Arc<PredictionSession> {
        let shard = &self.shards[self.shard_index(dataset)];
        {
            let guard = shard_read(shard);
            if let Some(entry) = guard
                .entries
                .iter()
                .find(|e| Self::entry_matches(e, dataset, graph))
            {
                entry.last_used.store(self.tick(), Ordering::Relaxed);
                return Arc::clone(&entry.session);
            }
        }

        // Build the session before taking the write lock: construction is
        // cheap (binding is lazy), and keeping panic-prone code outside the
        // critical section means the lock is never poisoned mid-mutation.
        let mut builder = PredictorBuilder::new()
            .engine(Arc::clone(&self.engine))
            .sampler_arc(Arc::clone(&self.sampler))
            .config(self.config.predictor.clone());
        if let Some(store) = &self.store {
            builder = builder.store_arc(Arc::clone(store));
        }
        let session = Arc::new(builder.bind(Arc::clone(graph), dataset));

        let mut guard = shard_write(shard);
        // Double-checked: another writer may have created the session while
        // we waited for the write lock.
        if let Some(entry) = guard
            .entries
            .iter()
            .find(|e| Self::entry_matches(e, dataset, graph))
        {
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            return Arc::clone(&entry.session);
        }
        // A label re-bound to a different graph drops the stale session.
        guard.entries.retain(|e| e.dataset != dataset);
        guard.entries.push(ShardEntry {
            dataset: dataset.to_string(),
            session: Arc::clone(&session),
            last_used: AtomicU64::new(self.tick()),
        });
        // LRU bound: evict the stalest session beyond the configured cap.
        let cap = self.config.sessions_per_shard.max(1);
        while guard.entries.len() > cap {
            let stalest = guard
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used.load(Ordering::Relaxed))
                .map(|(i, _)| i)
                .expect("entries is non-empty");
            guard.entries.remove(stalest);
        }
        session
    }

    /// Opens the `service.request` span with a process-unique request id,
    /// and counts the request. Ids are generated even when tracing is off so
    /// a trace started mid-process still shows where its requests sit in the
    /// service's lifetime order.
    fn request_span(&self, op: &'static str, dataset: &str) -> predict_obs::SpanGuard {
        static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);
        let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
        self.requests.incr();
        predict_obs::trace::span("service.request")
            .arg("request_id", id)
            .arg("op", op)
            .arg("dataset", dataset)
    }

    /// Evaluates one prediction request.
    pub fn submit(&self, request: &PredictRequest) -> Result<Prediction, PredictError> {
        let _span = self.request_span("predict", &request.dataset);
        let _timer = self.request_ns.start_timer();
        let session = self.session_for(&request.dataset, &request.graph);
        let config = request.config.as_ref().unwrap_or(session.config());
        session.predict_with(request.workload.as_ref(), config)
    }

    /// Evaluates one request against the measured actual run (cached in the
    /// session after the first evaluation).
    pub fn evaluate(&self, request: &PredictRequest) -> Result<Evaluation, PredictError> {
        let _span = self.request_span("evaluate", &request.dataset);
        let _timer = self.request_ns.start_timer();
        let session = self.session_for(&request.dataset, &request.graph);
        let config = request.config.as_ref().unwrap_or(session.config());
        session.evaluate_with(request.workload.as_ref(), config)
    }

    /// Freezes the process-wide metrics registry: request counts, per-stage
    /// latency histograms (`predict.stage.*_ns`), BSP/pool/cluster counters —
    /// deterministically ordered and serializable. p50/p90/p99 derive from
    /// the histogram buckets
    /// ([`HistogramSnapshot::quantile`](predict_obs::metrics::HistogramSnapshot::quantile)).
    ///
    /// The registry is process-global (instruments are cheap atomics shared
    /// by every layer), so the snapshot also covers activity outside this
    /// service instance; within one service process it is the service's
    /// telemetry view.
    pub fn metrics_snapshot(&self) -> predict_obs::MetricsSnapshot {
        predict_obs::registry().snapshot()
    }

    /// Evaluates one request with panics contained to the request boundary:
    /// an unwinding stage becomes [`PredictError::WorkerPanicked`] for this
    /// request instead of propagating into (and killing) a batch. Typed
    /// errors — a failed cluster drive included — pass through unchanged.
    fn submit_caught(&self, request: &PredictRequest) -> Result<Prediction, PredictError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.submit(request)))
            .unwrap_or_else(|payload| Err(PredictError::from_panic(payload)))
    }

    /// Evaluates independent requests concurrently (up to `threads` wide)
    /// and returns the results in request order.
    ///
    /// Requests are scheduled onto the engine's persistent
    /// [`predict_bsp::WorkerPool`], so a warm service spawns **zero** OS
    /// threads per batch and successive batches pipeline through the same
    /// workers as each run's superstep phases.
    ///
    /// A failed request reports its own error in its slot — a lost cluster
    /// worker as [`PredictError::Cluster`], a panic as
    /// [`PredictError::WorkerPanicked`]; the other requests still complete.
    ///
    /// The output is deterministic: result `i` depends only on request `i`
    /// (every stage is deterministic and cached artifacts are immutable), so
    /// thread count and interleaving change wall-clock time, never results.
    ///
    /// # Examples
    ///
    /// A scheduler asking for the same dataset under two workloads: both
    /// requests route to one cached session, so the expensive sampling stage
    /// runs once, and a 1-thread batch returns the same bytes as an N-thread
    /// batch:
    ///
    /// ```
    /// use predict_algorithms::{PageRankWorkload, TopKWorkload, Workload};
    /// use predict_bsp::{BspConfig, BspEngine};
    /// use predict_core::{PredictRequest, PredictService};
    /// use predict_graph::generators::{generate_rmat, RmatConfig};
    /// use predict_sampling::BiasedRandomJump;
    /// use std::sync::Arc;
    ///
    /// let graph = Arc::new(generate_rmat(&RmatConfig::new(10, 8).with_seed(7)));
    /// let service = PredictService::new(
    ///     BspEngine::new(BspConfig::with_workers(8)),
    ///     Arc::new(BiasedRandomJump::default()),
    /// );
    /// let requests: Vec<PredictRequest> = [
    ///     Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices()))
    ///         as Arc<dyn Workload>,
    ///     Arc::new(TopKWorkload::default()),
    /// ]
    /// .into_iter()
    /// .map(|w| PredictRequest::new("web-analog", Arc::clone(&graph), w))
    /// .collect();
    ///
    /// let parallel = service.submit_batch(&requests, 2);
    /// assert!(parallel.iter().all(Result::is_ok));
    /// // Warm re-submission on one thread: identical results, same session.
    /// let sequential = service.submit_batch(&requests, 1);
    /// assert_eq!(service.sessions_cached(), 1);
    /// for (p, s) in parallel.iter().zip(&sequential) {
    ///     let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
    ///     assert_eq!(p.predicted_superstep_ms, s.predicted_superstep_ms);
    /// }
    /// ```
    pub fn submit_batch(
        &self,
        requests: &[PredictRequest],
        threads: usize,
    ) -> Vec<Result<Prediction, PredictError>> {
        let threads = threads.clamp(1, requests.len().max(1));
        if threads == 1 {
            return requests.iter().map(|r| self.submit_caught(r)).collect();
        }
        let mut results: Vec<Option<Result<Prediction, PredictError>>> =
            (0..requests.len()).map(|_| None).collect();
        // One pool task per request: the pool's work-stealing deques balance
        // uneven request costs, and `run_scoped`'s caller participation keeps
        // this deadlock-free even when a request's own superstep phases fan
        // out onto the same pool.
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = results
            .iter_mut()
            .zip(requests)
            .map(|(slot, request)| {
                let task: Box<dyn FnOnce() + Send + '_> =
                    Box::new(move || *slot = Some(self.submit_caught(request)));
                task
            })
            .collect();
        self.engine.worker_pool().run_scoped(threads, tasks);
        results
            .into_iter()
            .map(|r| r.expect("run_scoped returns only after every task has run"))
            .collect()
    }

    /// Number of sessions currently cached across all shards.
    pub fn sessions_cached(&self) -> usize {
        self.shards
            .iter()
            .map(|s| shard_read(s).entries.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::TransformFunction;
    use predict_algorithms::{ConnectedComponentsWorkload, PageRankWorkload, TopKWorkload};
    use predict_bsp::{BspConfig, ClusterCostConfig, ExecutionMode, TransportMode};
    use predict_cluster::{checkin, checkout, ClusterError, TransportKind};
    use predict_graph::generators::{generate_rmat, RmatConfig};
    use predict_sampling::BiasedRandomJump;

    fn service() -> PredictService {
        PredictService::with_config(
            BspEngine::new(BspConfig::with_workers(4)),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig {
                predictor: PredictorConfig::single_ratio(0.1),
                ..PredictServiceConfig::default()
            },
        )
    }

    fn graph(seed: u64) -> Arc<CsrGraph> {
        Arc::new(generate_rmat(&RmatConfig::new(10, 6).with_seed(seed)))
    }

    #[test]
    fn submit_routes_requests_through_cached_sessions() {
        let svc = service();
        let g = graph(1);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let req = PredictRequest::new("Wiki", Arc::clone(&g), workload);
        let a = svc.submit(&req).unwrap();
        let runs = svc.engine().runs_executed();
        let b = svc.submit(&req).unwrap();
        assert_eq!(
            svc.engine().runs_executed(),
            runs,
            "second submit re-ran the engine"
        );
        assert_eq!(a.predicted_superstep_ms, b.predicted_superstep_ms);
        assert_eq!(svc.sessions_cached(), 1);
    }

    #[test]
    fn batch_results_keep_request_order() {
        let svc = service();
        let g = graph(2);
        let n = g.num_vertices();
        let requests: Vec<PredictRequest> = vec![
            PredictRequest::new(
                "A",
                Arc::clone(&g),
                Arc::new(PageRankWorkload::with_epsilon(0.01, n)),
            ),
            PredictRequest::new("A", Arc::clone(&g), Arc::new(TopKWorkload::default())),
            PredictRequest::new("A", Arc::clone(&g), Arc::new(ConnectedComponentsWorkload)),
        ];
        let results = svc.submit_batch(&requests, 3);
        assert_eq!(results.len(), 3);
        let names: Vec<String> = results
            .iter()
            .map(|r| r.as_ref().unwrap().workload.clone())
            .collect();
        assert_eq!(names, vec!["PR", "TOP-K", "CC"]);
    }

    #[test]
    fn metrics_snapshot_covers_every_request_in_a_warm_batch() {
        let svc = service();
        let g = graph(9);
        let n = g.num_vertices();
        let requests: Vec<PredictRequest> = vec![
            PredictRequest::new(
                "Metrics",
                Arc::clone(&g),
                Arc::new(PageRankWorkload::with_epsilon(0.01, n)),
            ),
            PredictRequest::new("Metrics", Arc::clone(&g), Arc::new(TopKWorkload::default())),
            PredictRequest::new(
                "Metrics",
                Arc::clone(&g),
                Arc::new(ConnectedComponentsWorkload),
            ),
        ];
        // Warm the session cache, then snapshot deltas around a warm batch.
        // The registry is process-global, so assertions compare before/after
        // rather than absolute values (other tests run concurrently).
        let _ = svc.submit_batch(&requests, 2);
        let hist_count = |snap: &predict_obs::MetricsSnapshot, name: &str| {
            snap.histogram(name).map_or(0, |h| h.count)
        };
        // A warm request finds its sample run and never looks up its sample,
        // so the batch adds nothing to the sample stage's histogram. Other
        // tests of this binary draw samples concurrently into the same
        // registry, so the batch is repeated until one ran without such a
        // draw; a batch that looks up a sample adds to it on every attempt.
        let sample_ns = "predict.stage.sample_ns";
        let (before, after) = (0..50)
            .map(|_| {
                let before = svc.metrics_snapshot();
                let results = svc.submit_batch(&requests, 2);
                assert!(results.iter().all(Result::is_ok));
                (before, svc.metrics_snapshot())
            })
            .find(|(before, after)| hist_count(after, sample_ns) == hist_count(before, sample_ns))
            .expect("every warm batch recorded into predict.stage.sample_ns");
        let delta =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        assert!(delta("service.requests") >= requests.len() as u64);
        // Every request in the batch landed in the request-latency histogram
        // and in the histograms of the stages it looks up (warm hits
        // included — the stage timers wrap cache lookups too).
        for name in [
            "service.request_ns",
            "session.predict_ns",
            "predict.stage.sample_run_ns",
            "predict.stage.train_ns",
        ] {
            assert!(
                hist_count(&after, name) >= hist_count(&before, name) + requests.len() as u64,
                "histogram {name} did not cover the warm batch"
            );
        }
        // Quantiles are derivable from the snapshot buckets.
        let request_ns = after.histogram("service.request_ns").unwrap();
        assert!(request_ns.p50().is_some());
        assert!(request_ns.p99().unwrap() >= request_ns.p50().unwrap());
    }

    #[test]
    fn lru_bound_evicts_the_stalest_session() {
        let svc = PredictService::with_config(
            BspEngine::new(BspConfig::with_workers(2)),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig {
                shards: 1,
                sessions_per_shard: 2,
                predictor: PredictorConfig::single_ratio(0.2),
                ..PredictServiceConfig::default()
            },
        );
        let graphs: Vec<Arc<CsrGraph>> = (0..3).map(|i| graph(10 + i)).collect();
        for (i, g) in graphs.iter().enumerate() {
            svc.session_for(&format!("ds{i}"), g);
        }
        assert_eq!(svc.sessions_cached(), 2, "LRU bound not enforced");
        // ds0 was the stalest; ds1 and ds2 survive.
        svc.session_for("ds1", &graphs[1]);
        assert_eq!(svc.sessions_cached(), 2);
    }

    #[test]
    fn rebinding_a_label_to_a_different_graph_replaces_the_session() {
        let svc = service();
        let g1 = graph(5);
        let s1 = svc.session_for("X", &g1);
        let g2 = Arc::new(generate_rmat(&RmatConfig::new(9, 4).with_seed(6)));
        let s2 = svc.session_for("X", &g2);
        assert!(!Arc::ptr_eq(&s1, &s2), "stale session served for new graph");
        assert_eq!(svc.sessions_cached(), 1);
    }

    #[test]
    fn execution_override_changes_no_bytes() {
        let g = graph(9);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let mut predictions = Vec::new();
        for mode in [
            ExecutionMode::Sequential,
            ExecutionMode::Parallel { threads: 2 },
            ExecutionMode::Parallel { threads: 4 },
        ] {
            let svc = PredictService::with_config(
                BspEngine::new(BspConfig::with_workers(4).with_execution(mode)),
                Arc::new(BiasedRandomJump::default()),
                PredictServiceConfig {
                    predictor: PredictorConfig::single_ratio(0.1),
                    ..PredictServiceConfig::default()
                },
            );
            let req = PredictRequest::new("Z", Arc::clone(&g), Arc::clone(&workload));
            let p = svc.submit(&req).unwrap();
            predictions.push(serde_json::to_string(&p).unwrap());
        }
        assert_eq!(predictions[0], predictions[1]);
        assert_eq!(predictions[0], predictions[2]);
    }

    /// A workload whose run stage always panics — the in-process stand-in
    /// for a stage bug, used to pin the batch-isolation contract.
    #[derive(Debug, Clone, Copy)]
    struct PanickingWorkload;

    impl Workload for PanickingWorkload {
        fn name(&self) -> &'static str {
            "PANIC"
        }
        fn convergence(&self) -> predict_algorithms::ConvergenceKind {
            predict_algorithms::ConvergenceKind::FixedPoint
        }
        fn threshold(&self) -> f64 {
            0.0
        }
        fn with_threshold(&self, _threshold: f64) -> Box<dyn Workload> {
            Box::new(*self)
        }
        fn plan<'g>(&self, _graph: &'g predict_graph::CsrGraph) -> predict_algorithms::RunPlan<'g> {
            panic!("injected workload failure")
        }
    }

    #[test]
    fn a_panicking_request_fails_alone_and_the_batch_survives() {
        let svc = service();
        let g = graph(21);
        let n = g.num_vertices();
        let requests: Vec<PredictRequest> = vec![
            PredictRequest::new(
                "A",
                Arc::clone(&g),
                Arc::new(PageRankWorkload::with_epsilon(0.01, n)),
            ),
            PredictRequest::new("A", Arc::clone(&g), Arc::new(PanickingWorkload)),
            PredictRequest::new("A", Arc::clone(&g), Arc::new(TopKWorkload::default())),
        ];
        for threads in [1, 3] {
            let results = svc.submit_batch(&requests, threads);
            assert!(results[0].is_ok(), "{:?}", results[0]);
            assert!(results[2].is_ok(), "{:?}", results[2]);
            match &results[1] {
                Err(PredictError::WorkerPanicked { message }) => {
                    assert!(message.contains("injected workload failure"), "{message}");
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
        // The service keeps serving after the panic.
        assert!(svc.submit(&requests[0]).is_ok());
    }

    /// Workers of the in-process cluster below. No other test of this
    /// binary drives an `InProc` group of this size, so the process-global
    /// group pool holds only what this test put there.
    const POISONED_WORKERS: usize = 5;

    /// Takes the idle pooled group (spawning one if the pool is empty), shuts
    /// one worker down behind the pool's back and checks the group in again:
    /// the next drive that pops it finds worker 2 gone.
    fn poison_the_pooled_group() {
        let mut group = checkout(TransportKind::InProc, POISONED_WORKERS).unwrap();
        group.connections[2]
            .send(predict_cluster::protocol::tag::SHUTDOWN, &[])
            .unwrap();
        checkin(group);
    }

    fn assert_worker_2_died<T: std::fmt::Debug>(result: &Result<T, PredictError>) {
        match result {
            Err(PredictError::Cluster(ClusterError::WorkerDied { worker: 2, .. })) => {}
            other => panic!("expected Cluster(WorkerDied {{ worker: 2, .. }}), got {other:?}"),
        }
    }

    #[test]
    fn a_lost_cluster_worker_is_a_typed_error_not_an_unwind() {
        let cluster =
            BspConfig::with_workers(POISONED_WORKERS).with_transport(TransportMode::InProc);
        let svc = PredictService::with_config(
            BspEngine::new(cluster),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig {
                predictor: PredictorConfig::single_ratio(0.1),
                ..PredictServiceConfig::default()
            },
        );
        let g = graph(41);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let req = PredictRequest::new("Lost", Arc::clone(&g), Arc::clone(&workload));
        let at_seed = |seed| {
            req.clone()
                .with_config(PredictorConfig::single_ratio(0.1).with_seed(seed))
        };
        // What the in-memory executor answers: the cluster must agree once
        // its worker group is healthy again.
        let in_memory = PredictService::with_config(
            BspEngine::new(BspConfig::with_workers(POISONED_WORKERS)),
            Arc::new(BiasedRandomJump::default()),
            svc.config.clone(),
        );
        let expected = serde_json::to_string(&in_memory.evaluate(&req).unwrap()).unwrap();

        // submit: the sample run loses its worker. Nothing is cached for the
        // failed stage, so the same request then runs on a fresh group.
        poison_the_pooled_group();
        assert_worker_2_died(&svc.submit(&req));
        let session = svc.session_for("Lost", &g);
        assert_eq!(session.stats().sample_runs, 0, "a failed run was cached");
        svc.submit(&req)
            .expect("a fresh worker group serves the request");

        // evaluate: the prediction is cached now, the actual run fails.
        poison_the_pooled_group();
        assert_worker_2_died(&svc.evaluate(&req));
        assert_eq!(session.stats().actual_runs, 0, "a failed run was cached");
        let recovered = serde_json::to_string(&svc.evaluate(&req).unwrap()).unwrap();
        assert_eq!(recovered, expected, "recovery changed the evaluation");

        // The session's own stage accessor reports the same variant.
        let transform = TransformFunction::default_for(workload.convergence());
        poison_the_pooled_group();
        assert_worker_2_died(&session.sample_run(workload.as_ref(), 0.1, 77, transform));
        session
            .sample_run(workload.as_ref(), 0.1, 77, transform)
            .expect("the sample run succeeds on a fresh group");

        // A pooled batch: whichever request pops the poisoned group reports
        // the typed error in its slot (not `WorkerPanicked`), the other runs.
        poison_the_pooled_group();
        let results = svc.submit_batch(&[at_seed(5), at_seed(6)], 2);
        let (failed, served): (Vec<_>, Vec<_>) = results.iter().partition(|r| r.is_err());
        assert_eq!((failed.len(), served.len()), (1, 1), "{results:?}");
        assert_worker_2_died(failed[0]);
    }

    #[test]
    fn the_service_keeps_serving_after_a_shard_lock_is_poisoned() {
        let svc = service();
        let g = graph(22);
        let dataset = "poisoned";
        let shard = &svc.shards[svc.shard_index(dataset)];
        // Panic while holding the write lock: without recovery, every later
        // lock() on this shard would return Err(Poisoned) forever.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.write().unwrap();
            panic!("poison the shard lock");
        }));
        assert!(shard.is_poisoned(), "test setup failed to poison the lock");
        let req = PredictRequest::new(
            dataset,
            Arc::clone(&g),
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices())),
        );
        let prediction = svc
            .submit(&req)
            .expect("poisoned shard stopped the service");
        assert!(prediction.predicted_superstep_ms.is_finite());
        assert_eq!(svc.sessions_cached(), 1);
    }

    // The reference is the one-thread batch, which answers in request order
    // on the caller. 2 and 4 threads schedule requests as pool tasks.
    #[test]
    fn pooled_batches_match_the_one_thread_batch() {
        let g = graph(23);
        let n = g.num_vertices();
        let mut rendered = Vec::new();
        for threads in [1usize, 2, 4] {
            let svc = service();
            let requests: Vec<PredictRequest> = vec![
                PredictRequest::new(
                    "A",
                    Arc::clone(&g),
                    Arc::new(PageRankWorkload::with_epsilon(0.01, n)),
                ),
                PredictRequest::new("A", Arc::clone(&g), Arc::new(TopKWorkload::default())),
                PredictRequest::new("A", Arc::clone(&g), Arc::new(ConnectedComponentsWorkload)),
            ];
            let results: Vec<String> = svc
                .submit_batch(&requests, threads)
                .into_iter()
                .map(|r| match r {
                    Ok(p) => serde_json::to_string(&p).unwrap(),
                    Err(e) => e.to_string(),
                })
                .collect();
            rendered.push(results);
        }
        assert_eq!(rendered[0], rendered[1], "2 pooled threads changed results");
        assert_eq!(rendered[0], rendered[2], "4 pooled threads changed results");
    }

    #[test]
    fn config_override_is_honored() {
        let svc = service();
        let g = graph(7);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let default = svc
            .submit(&PredictRequest::new(
                "Y",
                Arc::clone(&g),
                Arc::clone(&workload),
            ))
            .unwrap();
        let coarse = svc
            .submit(
                &PredictRequest::new("Y", Arc::clone(&g), workload)
                    .with_config(PredictorConfig::single_ratio(0.3)),
            )
            .unwrap();
        assert!((default.achieved_sampling_ratio - 0.1).abs() < 0.05);
        assert!((coarse.achieved_sampling_ratio - 0.3).abs() < 0.05);
    }

    /// Fresh per-test store directory; best-effort cleanup on drop.
    struct TempStoreDir(std::path::PathBuf);

    impl TempStoreDir {
        fn new() -> Self {
            static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "predict_service_store_{}_{}",
                std::process::id(),
                DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&path).unwrap();
            TempStoreDir(path)
        }
    }

    impl Drop for TempStoreDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn service_with_store(dir: &std::path::Path) -> PredictService {
        service_with_store_on(dir, BspConfig::with_workers(4))
    }

    fn service_with_store_on(dir: &std::path::Path, engine: BspConfig) -> PredictService {
        PredictService::with_config(
            BspEngine::new(engine),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig {
                predictor: PredictorConfig::single_ratio(0.1),
                ..PredictServiceConfig::default()
            }
            .store(dir),
        )
    }

    #[test]
    fn warm_restart_is_byte_identical_and_executes_zero_runs() {
        let dir = TempStoreDir::new();
        let g = graph(31);
        let n = g.num_vertices();
        let requests: Vec<PredictRequest> = vec![
            PredictRequest::new(
                "Warm",
                Arc::clone(&g),
                Arc::new(PageRankWorkload::with_epsilon(0.01, n)),
            ),
            PredictRequest::new("Warm", Arc::clone(&g), Arc::new(TopKWorkload::default())),
        ];

        // Cold service: computes everything and writes it through to disk.
        let cold = service_with_store(&dir.0);
        assert!(cold.artifact_store().is_some(), "store failed to open");
        let cold_predictions: Vec<String> = requests
            .iter()
            .map(|r| serde_json::to_string(&cold.submit(r).unwrap()).unwrap())
            .collect();
        let cold_eval = serde_json::to_string(&cold.evaluate(&requests[0]).unwrap()).unwrap();
        assert!(cold.engine().runs_executed() > 0);
        drop(cold);

        // Warm restart: new service, new engine, same directory. Every
        // artifact — samples, sample runs, models, the actual run — must
        // come from disk: byte-identical output, zero engine executions.
        let warm = service_with_store(&dir.0);
        let warm_predictions: Vec<String> = requests
            .iter()
            .map(|r| serde_json::to_string(&warm.submit(r).unwrap()).unwrap())
            .collect();
        let warm_eval = serde_json::to_string(&warm.evaluate(&requests[0]).unwrap()).unwrap();
        assert_eq!(cold_predictions, warm_predictions, "warm restart diverged");
        assert_eq!(cold_eval, warm_eval, "warm evaluation diverged");
        assert_eq!(
            warm.engine().runs_executed(),
            0,
            "warm restart re-executed a stored run"
        );
    }

    #[test]
    fn a_store_written_by_another_cluster_is_stale_not_served() {
        let dir = TempStoreDir::new();
        let g = graph(34);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let req = PredictRequest::new("Shape", Arc::clone(&g), Arc::clone(&workload));
        let sample_run_workers = |svc: &PredictService| {
            let transform = TransformFunction::default_for(workload.convergence());
            let run = svc.session_for("Shape", &g).sample_run(
                workload.as_ref(),
                0.1,
                svc.config.predictor.seed,
                transform,
            );
            run.unwrap().profile.num_workers
        };

        let eight = service_with_store_on(&dir.0, BspConfig::with_workers(8));
        let by_eight = serde_json::to_string(&eight.submit(&req).unwrap()).unwrap();
        drop(eight);

        // Another cluster shape on the same directory: every stored artifact
        // is a stale miss, recomputed and overwritten in place.
        let four = service_with_store(&dir.0);
        let by_four = serde_json::to_string(&four.submit(&req).unwrap()).unwrap();
        assert!(four.engine().runs_executed() > 0, "served the old cluster");
        assert_eq!(four.session_for("Shape", &g).stats().store_hits, 0);
        assert_eq!(sample_run_workers(&four), 4);
        assert_ne!(by_eight, by_four, "worker count must move the prediction");
        assert_eq!(four.artifact_store().unwrap().quarantined_files(), 0);
        drop(four);

        // What moved the prediction is also what keys the store: the same
        // engine under another cost model misses too.
        let costed = service_with_store_on(
            &dir.0,
            BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()),
        );
        costed.submit(&req).unwrap();
        assert!(costed.engine().runs_executed() > 0, "served the old costs");
        drop(costed);
        let four = service_with_store(&dir.0);
        four.submit(&req).unwrap();
        drop(four);

        // Execution mode and transport never change results, so neither may
        // cost a hit: the overwritten store answers a sequential, in-process
        // cluster restart of the 4-worker service with zero runs.
        let restarted = service_with_store_on(
            &dir.0,
            BspConfig::with_workers(4)
                .with_execution(ExecutionMode::Sequential)
                .with_transport(TransportMode::InProc),
        );
        let again = serde_json::to_string(&restarted.submit(&req).unwrap()).unwrap();
        assert_eq!(by_four, again, "the overwritten store diverged");
        assert_eq!(restarted.engine().runs_executed(), 0);
        assert_eq!(sample_run_workers(&restarted), 4);
    }

    #[test]
    fn a_store_written_by_another_sampler_tuning_is_stale_not_served() {
        let dir = TempStoreDir::new();
        let g = graph(35);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let req = PredictRequest::new("Tuning", Arc::clone(&g), workload);
        let default = BiasedRandomJump::default();
        let tuned = BiasedRandomJump::new(0.5, 0.2);
        let service = |sampler: BiasedRandomJump, store: Option<&std::path::Path>| {
            PredictService::with_config(
                BspEngine::new(BspConfig::with_workers(4)),
                Arc::new(sampler),
                PredictServiceConfig {
                    predictor: PredictorConfig::single_ratio(0.1),
                    store: store.map(Into::into),
                    ..PredictServiceConfig::default()
                },
            )
        };
        let answer = |svc: &PredictService| serde_json::to_string(&svc.submit(&req).unwrap());
        let by_default = answer(&service(default, Some(&dir.0))).unwrap();
        let by_tuned = answer(&service(tuned, None)).unwrap();
        assert_ne!(by_default, by_tuned, "the tuning must move the prediction");

        // Both samplers are named "BRJ", so their store keys collide; only
        // the provenance tells them apart. In each direction the other
        // tuning's artifacts are stale misses, recomputed and overwritten in
        // place; equal parameters then hit with zero runs.
        for (sampler, expected) in [(tuned, &by_tuned), (default, &by_default)] {
            let cold = service(sampler, Some(&dir.0));
            assert_eq!(&answer(&cold).unwrap(), expected, "served another sampler");
            assert!(cold.engine().runs_executed() > 0);
            assert_eq!(cold.session_for("Tuning", &g).stats().store_hits, 0);
            assert_eq!(cold.artifact_store().unwrap().quarantined_files(), 0);
            drop(cold);

            let warm = service(sampler, Some(&dir.0));
            assert_eq!(&answer(&warm).unwrap(), expected);
            assert_eq!(warm.engine().runs_executed(), 0, "equal tuning must hit");
            assert!(warm.session_for("Tuning", &g).stats().store_hits > 0);
        }

        // The actual run depends on no sampler, so it stays shared: stored by
        // the default tuning's evaluation, it is the one artifact the other
        // tuning reads back.
        service(default, Some(&dir.0)).evaluate(&req).unwrap();
        let other = service(tuned, Some(&dir.0));
        other.evaluate(&req).unwrap();
        assert_eq!(other.session_for("Tuning", &g).stats().store_hits, 1);
    }

    #[test]
    fn store_hits_are_counted_separately_from_memory_hits() {
        let dir = TempStoreDir::new();
        let g = graph(32);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let req = PredictRequest::new("Hits", Arc::clone(&g), Arc::clone(&workload));

        // Cold pass: everything is computed, so no store hits.
        let cold = service_with_store(&dir.0);
        cold.submit(&req).unwrap();
        let cold_session = cold.session_for("Hits", &g);
        assert_eq!(cold_session.stats().store_hits, 0);
        drop(cold);

        // Warm pass: disk answers, and the counter says so.
        let warm = service_with_store(&dir.0);
        warm.submit(&req).unwrap();
        let warm_session = warm.session_for("Hits", &g);
        let after_first = warm_session.stats().store_hits;
        assert!(after_first > 0, "warm pass reported zero store hits");
        // A repeat of the same request is a pure in-memory hit: the store
        // counter must not move.
        warm.submit(&req).unwrap();
        assert_eq!(warm_session.stats().store_hits, after_first);
    }

    #[test]
    fn corrupted_store_degrades_to_recompute() {
        let dir = TempStoreDir::new();
        let g = graph(33);
        let workload: Arc<dyn Workload> =
            Arc::new(PageRankWorkload::with_epsilon(0.01, g.num_vertices()));
        let req = PredictRequest::new("Corrupt", Arc::clone(&g), Arc::clone(&workload));

        let cold = service_with_store(&dir.0);
        let expected = serde_json::to_string(&cold.submit(&req).unwrap()).unwrap();
        drop(cold);

        // Flip one byte in every stored artifact.
        let mut flipped = 0;
        for kind_dir in std::fs::read_dir(&dir.0).unwrap() {
            let kind_dir = kind_dir.unwrap().path();
            if !kind_dir.is_dir() {
                continue;
            }
            for file in std::fs::read_dir(&kind_dir).unwrap() {
                let file = file.unwrap().path();
                if file.extension().is_some_and(|e| e == "art") {
                    let mut bytes = std::fs::read(&file).unwrap();
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0xFF;
                    std::fs::write(&file, bytes).unwrap();
                    flipped += 1;
                }
            }
        }
        assert!(flipped > 0, "cold pass stored no artifacts");

        // The service must answer identically by recomputing, and the store
        // must have quarantined the damaged files rather than panic.
        let recovered = service_with_store(&dir.0);
        let actual = serde_json::to_string(&recovered.submit(&req).unwrap()).unwrap();
        assert_eq!(expected, actual, "recovery changed the prediction");
        assert!(
            recovered.engine().runs_executed() > 0,
            "corrupt store should force recomputation"
        );
        let store = recovered.artifact_store().unwrap();
        assert!(
            store.quarantined_files() > 0,
            "corrupt artifacts were not quarantined"
        );
    }
}
