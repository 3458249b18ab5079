//! The adapter: the only file that names the program under test.
//!
//! Everything is driven from outside through public API, and the surface is
//! kept deliberately narrow because later changes to the program may not
//! edit this directory: `PredictService::{with_config, submit, evaluate,
//! submit_batch, session_for}`, `PredictRequest`, `PredictorConfig::
//! {single_ratio, with_seed}`, `PredictionSession::{sample_artifact,
//! sample_run, trained_model, predict_with, actual_run, stats}`,
//! `PredictorBuilder::new`, `BspEngine::new(BspConfig::with_workers(n)
//! .with_transport(..))`, `ArtifactStore::{open, put, get_typed}`,
//! `predict_cluster::{drive, encode_to_vec, decode_exact, checkout}`,
//! `DatasetConfig::generate`, `Sampler::sample_vertices`,
//! `induced_subgraph` and `predict_obs::registry().snapshot()`. It never
//! names `PoolMode`, `TransportKind::Process` or the one-shot `Predictor`.

use crate::ledger::Ledger;
use crate::stats::median;
use predict_algorithms::{
    ConnectedComponentsWorkload, PageRank, PageRankParams, PageRankWorkload,
    SemiClusteringWorkload, TopKWorkload, Workload,
};
use predict_bsp::{BspConfig, BspEngine, ExecutionMode, TransportMode};
use predict_cluster::{
    decode_exact, drive, encode_to_vec, DriveOptions, ProgramSpec, TransportKind, WireBatch,
};
use predict_core::{
    PredictRequest, PredictService, PredictServiceConfig, Prediction, PredictorBuilder,
    PredictorConfig, SampleArtifact, SampleRunArtifact, TrainedModel, TransformFunction,
};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_graph::{induced_subgraph, CsrGraph};
use predict_sampling::{BiasedRandomJump, Sampler};
use predict_store::{ArtifactKind, ArtifactStore};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sampling ratio of every request (the paper's headline setting).
pub const SAMPLING_RATIO: f64 = 0.1;

/// Repeats of each direct layer probe; the median is reported.
const PROBE_REPS: usize = 5;

/// Sampler/predictor seed of the direct layer probes (independent of
/// `--seed`: probes are pinned inputs).
const PROBE_SEED: u64 = 0x0b5e_7ed0;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Number of hardware threads; bounds client threads and worker processes.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Inputs: datasets, request classes, requests.

/// The Table 2 dataset analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DatasetId {
    Lj,
    Wiki,
    Tw,
    Uk,
}

impl DatasetId {
    pub fn label(self) -> &'static str {
        match self {
            Self::Lj => "LJ",
            Self::Wiki => "Wiki",
            Self::Tw => "TW",
            Self::Uk => "UK",
        }
    }

    fn dataset(self) -> Dataset {
        match self {
            Self::Lj => Dataset::LiveJournal,
            Self::Wiki => Dataset::Wikipedia,
            Self::Tw => Dataset::Twitter,
            Self::Uk => Dataset::Uk2002,
        }
    }
}

/// Generation scale of the analogs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Default,
    Large,
}

/// One generated dataset.
#[derive(Clone)]
pub struct Graph {
    pub dataset: DatasetId,
    csr: Arc<CsrGraph>,
}

impl Graph {
    /// Generates the analog (`DatasetConfig::generate`): the `graph` layer's
    /// ingest path.
    pub fn generate(dataset: DatasetId, scale: Scale) -> Self {
        let scale = match scale {
            Scale::Default => DatasetScale::Default,
            Scale::Large => DatasetScale::Large,
        };
        Self {
            dataset,
            csr: Arc::new(DatasetConfig::new(dataset.dataset(), scale).generate()),
        }
    }

    pub fn edges(&self) -> usize {
        self.csr.num_edges()
    }
}

/// The four request classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Pr,
    TopK,
    Cc,
    Semi,
}

impl Class {
    pub fn label(self) -> &'static str {
        match self {
            Self::Pr => "PR",
            Self::TopK => "TOPK",
            Self::Cc => "CC",
            Self::Semi => "SEMI",
        }
    }

    fn workload(self, graph: &CsrGraph) -> Arc<dyn Workload> {
        match self {
            Self::Pr => Arc::new(PageRankWorkload::with_epsilon(0.001, graph.num_vertices())),
            Self::TopK => Arc::new(TopKWorkload::default()),
            Self::Cc => Arc::new(ConnectedComponentsWorkload),
            Self::Semi => Arc::new(SemiClusteringWorkload::default()),
        }
    }
}

/// One generated request: the program only ever sees `inner`.
#[derive(Clone)]
pub struct Request {
    pub dataset: DatasetId,
    pub class: Class,
    inner: PredictRequest,
}

impl Request {
    pub fn new(graph: &Graph, class: Class, seed: u64) -> Self {
        let inner = PredictRequest::new(
            graph.dataset.label(),
            Arc::clone(&graph.csr),
            class.workload(&graph.csr),
        )
        .with_config(PredictorConfig::single_ratio(SAMPLING_RATIO).with_seed(seed));
        Self {
            dataset: graph.dataset,
            class,
            inner,
        }
    }

    /// The predictor seed the request carries.
    #[cfg(test)]
    pub fn seed(&self) -> u64 {
        self.config().seed
    }

    /// `LJ/PR`-style label of the request's class, for the latency table.
    pub fn class_label(&self) -> String {
        format!("{}/{}", self.dataset.label(), self.class.label())
    }

    fn config(&self) -> &PredictorConfig {
        self.inner
            .config
            .as_ref()
            .expect("every generated request carries its own config")
    }
}

// ---------------------------------------------------------------------------
// Outputs.

/// One prediction, as the caller received it.
pub struct Response(Prediction);

impl Response {
    /// The output check every response goes through: finite predictions
    /// and a positive iteration count.
    pub fn is_sane(&self) -> bool {
        let p = &self.0;
        p.predicted_iterations > 0
            && p.predicted_superstep_ms.is_finite()
            && p.predicted_remote_message_bytes.is_finite()
            && p.per_iteration_ms.iter().all(|ms| ms.is_finite())
    }

    /// Serialized form, for byte-identity checks.
    pub fn bytes(&self) -> String {
        serde_json::to_string(&self.0).expect("predictions serialize")
    }

    /// Messages the request's sample run exchanged (from its profile).
    pub fn sample_run_messages(&self) -> u64 {
        self.0
            .sample_profile
            .per_superstep_totals()
            .iter()
            .map(|t| t.local_messages + t.remote_messages)
            .sum()
    }
}

/// One evaluated request: a cold `submit` followed by `evaluate`, which then
/// only adds the actual run, so the two walls separate cleanly.
pub struct Evaluated {
    pub response: Response,
    pub submit_s: f64,
    pub actual_s: f64,
    /// |E| × supersteps of the actual run.
    pub edge_supersteps: f64,
    pub iteration_error: f64,
    pub runtime_error: f64,
}

impl Evaluated {
    pub fn is_sane(&self) -> bool {
        self.response.is_sane()
            && self.iteration_error.is_finite()
            && self.runtime_error.is_finite()
            && self.edge_supersteps > 0.0
    }
}

// ---------------------------------------------------------------------------
// The service under test.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    InMemory,
    Socket,
}

/// Shape of one service instance.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    pub workers: usize,
    pub transport: Transport,
    pub store: Option<PathBuf>,
}

impl ServiceSpec {
    pub fn memory(workers: usize, transport: Transport) -> Self {
        Self {
            workers,
            transport,
            store: None,
        }
    }

    pub fn with_store(mut self, dir: &Path) -> Self {
        self.store = Some(dir.to_path_buf());
        self
    }
}

fn engine(workers: usize, transport: Transport, execution: ExecutionMode) -> Arc<BspEngine> {
    let transport = match transport {
        Transport::InMemory => TransportMode::InMemory,
        Transport::Socket => TransportMode::Socket,
    };
    Arc::new(BspEngine::new(
        BspConfig::with_workers(workers)
            .with_transport(transport)
            .with_execution(execution),
    ))
}

/// Cache statistics summed over the sessions a service has bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub store_hits: u64,
}

/// One `PredictService` plus the engine handle the harness keeps.
pub struct Sut {
    service: PredictService,
    engine: Arc<BspEngine>,
    /// Datasets this service has bound a session for, so the staged replay
    /// can tell a first `session_for` (bind) from a lookup.
    bound: Mutex<Vec<(DatasetId, Arc<CsrGraph>)>>,
}

impl Sut {
    pub fn new(spec: &ServiceSpec) -> Self {
        let engine = engine(spec.workers, spec.transport, ExecutionMode::default());
        let service = PredictService::with_config(
            Arc::clone(&engine),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig {
                predictor: PredictorConfig::single_ratio(SAMPLING_RATIO),
                store: spec.store.clone(),
                ..PredictServiceConfig::default()
            },
        );
        Self {
            service,
            engine,
            bound: Mutex::new(Vec::new()),
        }
    }

    fn note_bound(&self, request: &Request) -> bool {
        let mut bound = self.bound.lock().expect("bound list lock");
        if bound.iter().any(|(d, _)| *d == request.dataset) {
            return false;
        }
        bound.push((request.dataset, Arc::clone(&request.inner.graph)));
        true
    }

    pub fn submit(&self, request: &Request) -> Result<Response, String> {
        self.note_bound(request);
        self.service
            .submit(&request.inner)
            .map(Response)
            .map_err(|e| e.to_string())
    }

    /// Cold `submit`, then `evaluate` (prediction now cached, so its wall is
    /// the actual run).
    pub fn evaluate(&self, request: &Request) -> Result<Evaluated, String> {
        self.note_bound(request);
        let t = Instant::now();
        self.service
            .submit(&request.inner)
            .map_err(|e| e.to_string())?;
        let submit_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let evaluation = self
            .service
            .evaluate(&request.inner)
            .map_err(|e| e.to_string())?;
        let actual_s = t.elapsed().as_secs_f64();
        Ok(Evaluated {
            submit_s,
            actual_s,
            edge_supersteps: request.inner.graph.num_edges() as f64
                * evaluation.actual_iterations as f64,
            iteration_error: evaluation.iteration_error(),
            runtime_error: evaluation.runtime_error(),
            response: Response(evaluation.prediction),
        })
    }

    /// The same request decomposed into per-layer calls on its session, one
    /// ledger span per call. Returns the response and the sample's share of
    /// the full graph's edges.
    pub fn submit_staged(
        &self,
        request: &Request,
        with_actual_run: bool,
        ledger: &mut Ledger,
        id: u64,
    ) -> Result<(Response, f64), String> {
        let first = self.note_bound(request);
        let config = request.config();
        let workload = request.inner.workload.as_ref();
        ledger.span("request", id, |l| {
            let bind = if first {
                "predict.session_bind"
            } else {
                "predict.session_lookup"
            };
            let session = l.span(bind, id, |_| {
                self.service
                    .session_for(&request.inner.dataset, &request.inner.graph)
            });
            let sample = l
                .span("sampling.sample_artifact", id, |_| {
                    session.sample_artifact(config.sampling_ratio, config.seed)
                })
                .map_err(|e| e.to_string())?;
            let transform = TransformFunction::default_for(workload.convergence());
            l.span("bsp.sample_run", id, |_| {
                session.sample_run(workload, config.sampling_ratio, config.seed, transform)
            })
            .map_err(|e| e.to_string())?;
            l.span("predict.trained_model", id, |_| {
                session.trained_model(workload, config)
            })
            .map_err(|e| e.to_string())?;
            let prediction = l
                .span("predict.predict_with", id, |_| {
                    session.predict_with(workload, config)
                })
                .map_err(|e| e.to_string())?;
            if with_actual_run {
                l.span("bsp.actual_run", id, |_| session.actual_run(workload));
            }
            let edge_ratio =
                sample.sample.graph.num_edges() as f64 / sample.full_edges.max(1) as f64;
            Ok((Response(prediction), edge_ratio))
        })
    }

    /// Milliseconds the first `session_for` of `graph`'s dataset takes on
    /// this service (with a store attached it hashes the whole graph).
    pub fn bind_ms(&self, graph: &Graph) -> f64 {
        let t = Instant::now();
        black_box(self.service.session_for(graph.dataset.label(), &graph.csr));
        ms_since(t)
    }

    /// Cache statistics over every session this service has bound.
    pub fn cache_stats(&self) -> CacheStats {
        let bound = self.bound.lock().expect("bound list lock");
        let mut total = CacheStats::default();
        for (dataset, graph) in bound.iter() {
            let stats = self.service.session_for(dataset.label(), graph).stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.store_hits += stats.store_hits;
        }
        total
    }

    /// OS threads the engine's worker pool has spawned so far.
    pub fn pool_threads_spawned(&self) -> u64 {
        self.engine.pool_threads_spawned()
    }
}

/// A request list pre-converted for `submit_batch`.
pub struct Batch(Vec<PredictRequest>);

impl Batch {
    pub fn new(requests: &[Request]) -> Self {
        Self(requests.iter().map(|r| r.inner.clone()).collect())
    }

    /// Runs the batch at `threads` wide; returns how many requests succeeded.
    pub fn submit(&self, sut: &Sut, threads: usize) -> usize {
        sut.service
            .submit_batch(&self.0, threads)
            .iter()
            .filter(|r| r.is_ok())
            .count()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }
}

// ---------------------------------------------------------------------------
// Counters read from the program's metrics registry.

/// Process-wide counter values; workloads assert on their deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub bsp_runs: u64,
    pub bsp_supersteps: u64,
    pub pool_tasks: u64,
    pub cluster_steps: u64,
    pub cluster_wire_bytes: u64,
    pub store_reads: u64,
    pub store_hits: u64,
    pub store_writes: u64,
    pub store_bytes: u64,
    pub store_quarantined: u64,
}

impl Counters {
    pub fn now() -> Self {
        let snapshot = predict_obs::registry().snapshot();
        let get = |name: &str| snapshot.counter(name).unwrap_or(0);
        Self {
            bsp_runs: get("bsp.runs"),
            bsp_supersteps: get("bsp.supersteps"),
            pool_tasks: get("pool.tasks"),
            cluster_steps: get("cluster.steps"),
            cluster_wire_bytes: get("cluster.wire_bytes"),
            store_reads: get("store.reads"),
            store_hits: get("store.hits"),
            store_writes: get("store.writes"),
            store_bytes: get("store.bytes"),
            store_quarantined: get("store.quarantined"),
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            bsp_runs: self.bsp_runs - earlier.bsp_runs,
            bsp_supersteps: self.bsp_supersteps - earlier.bsp_supersteps,
            pool_tasks: self.pool_tasks - earlier.pool_tasks,
            cluster_steps: self.cluster_steps - earlier.cluster_steps,
            cluster_wire_bytes: self.cluster_wire_bytes - earlier.cluster_wire_bytes,
            store_reads: self.store_reads - earlier.store_reads,
            store_hits: self.store_hits - earlier.store_hits,
            store_writes: self.store_writes - earlier.store_writes,
            store_bytes: self.store_bytes - earlier.store_bytes,
            store_quarantined: self.store_quarantined - earlier.store_quarantined,
        }
    }
}

/// Shuts down the idle pooled socket worker group of `workers` processes
/// (and waits for the processes): dropping a checked-out group kills and
/// reaps it. With one client there is at most one such group.
pub fn reap_worker_group(workers: usize) {
    if let Ok(group) = predict_cluster::checkout(TransportKind::Socket, workers) {
        drop(group);
    }
}

// ---------------------------------------------------------------------------
// Direct layer probes (traced runs only): pinned calls into one layer each.

/// `sampling` + `graph`: the vertex draw and the subgraph extraction that a
/// `sample_artifact` call is made of, on `graph`. Returns the medians and
/// the last drawn sample graph.
pub struct SamplingProbe {
    pub sample_vertices_ms: f64,
    pub subgraph_extract_ms: f64,
    pub sample: CsrGraph,
}

pub fn probe_sampling(graph: &Graph) -> SamplingProbe {
    let sampler = BiasedRandomJump::default();
    let (mut draw, mut extract, mut last) = (Vec::new(), Vec::new(), None);
    for k in 0..PROBE_REPS as u64 {
        let t = Instant::now();
        let vertices = sampler.sample_vertices(&graph.csr, SAMPLING_RATIO, PROBE_SEED + k);
        draw.push(ms_since(t));
        let t = Instant::now();
        let (sub, _) = induced_subgraph(&graph.csr, &vertices);
        extract.push(ms_since(t));
        last = Some(sub);
    }
    SamplingProbe {
        sample_vertices_ms: median(&draw),
        subgraph_extract_ms: median(&extract),
        sample: last.expect("PROBE_REPS > 0"),
    }
}

fn probe_program(sample: &CsrGraph) -> (PageRank, ProgramSpec) {
    let params = PageRankParams::with_epsilon(0.001, sample.num_vertices());
    (PageRank::new(params), ProgramSpec::PageRank { params })
}

/// `bsp`: a direct `BspEngine::run` of PageRank on `sample`.
pub fn probe_engine_run_ms(sample: &CsrGraph, workers: usize) -> f64 {
    let engine = engine(workers, Transport::InMemory, ExecutionMode::default());
    let (program, _) = probe_program(sample);
    let times: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(engine.run(sample, &program));
            ms_since(t)
        })
        .collect();
    median(&times)
}

/// `cluster`: the same PageRank run driven over two socket workers.
pub struct ClusterProbe {
    pub drive_ms: f64,
    pub worker_compute_ms: f64,
    pub group_spawn_ms: f64,
    /// Socket `drive` ÷ in-memory `engine.run`, same program/graph/workers.
    pub overhead_ratio: f64,
}

pub const CLUSTER_PROBE_WORKERS: usize = 2;

pub fn probe_cluster(sample: &CsrGraph) -> Result<ClusterProbe, String> {
    let (program, spec) = probe_program(sample);
    let config = BspConfig::with_workers(CLUSTER_PROBE_WORKERS);
    let opts = DriveOptions::new(TransportKind::Socket);
    let drive_once = || -> Result<(f64, f64), String> {
        let t = Instant::now();
        let result =
            drive(&program, &spec, &[], sample, &config, &opts).map_err(|e| e.to_string())?;
        let wall = ms_since(t);
        let measured = result
            .profile
            .measured
            .as_ref()
            .ok_or("socket drive recorded no measured timings")?;
        let compute_ns: u64 = measured
            .supersteps
            .iter()
            .map(|s| s.worker_compute_ns.iter().copied().max().unwrap_or(0))
            .sum();
        Ok((wall, compute_ns as f64 / 1e6))
    };
    // The first drive on an empty pool pays the worker-group spawn.
    reap_worker_group(CLUSTER_PROBE_WORKERS);
    let (first_ms, _) = drive_once()?;
    let (mut walls, mut computes) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let (wall, compute) = drive_once()?;
        walls.push(wall);
        computes.push(compute);
    }
    let drive_ms = median(&walls);
    let in_memory_ms = probe_engine_run_ms(sample, CLUSTER_PROBE_WORKERS);
    Ok(ClusterProbe {
        drive_ms,
        worker_compute_ms: median(&computes),
        group_spawn_ms: (first_ms - drive_ms).max(0.0),
        overhead_ratio: drive_ms / in_memory_ms.max(1e-9),
    })
}

/// Runs `op` until at least 100 ms have passed; returns ms per call.
fn ms_per_call(mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed().as_millis() < 100 {
        op();
        calls += 1;
    }
    ms_since(t) / calls as f64
}

/// `cluster` wire codec on a pinned 4096×4 `WireBatch<f64>` (the shape a
/// hub-heavy PageRank superstep produces): (encode ms, decode ms).
pub fn probe_wire() -> (f64, f64) {
    let batch = WireBatch::<f64> {
        superstep: 3,
        src: 1,
        dst: 2,
        seq: 7,
        runs: (0..4096u32)
            .map(|v| (v, vec![0.25f64, 0.5, 0.125, 0.0625]))
            .collect(),
    };
    let bytes = encode_to_vec(&batch);
    let encode = ms_per_call(|| {
        black_box(encode_to_vec(black_box(&batch)));
    });
    let decode = ms_per_call(|| {
        black_box(decode_exact::<WireBatch<f64>>(black_box(&bytes)).expect("round trip"));
    });
    (encode, decode)
}

/// `bsp` thread scaling: PageRank actual runs on UK-`Large` under the
/// default execution mode, one thread, and `nproc` threads.
pub struct ActualRunProbe {
    pub auto_ms: f64,
    pub t1_ms: f64,
    pub tmax_ms: f64,
    pub edge_supersteps_per_s: f64,
}

pub fn probe_actual_runs() -> ActualRunProbe {
    let graph = Graph::generate(DatasetId::Uk, Scale::Large);
    let workload = Class::Pr.workload(&graph.csr);
    let mut edge_supersteps = 0.0;
    let mut run = |mode: ExecutionMode| {
        let times: Vec<f64> = (0..3)
            .map(|_| {
                // A fresh session per run: actual runs are cached per session.
                let session = PredictorBuilder::new()
                    .engine(engine(8, Transport::InMemory, mode))
                    .bind(Arc::clone(&graph.csr), graph.dataset.label());
                let t = Instant::now();
                let actual = session.actual_run(workload.as_ref());
                let ms = ms_since(t);
                edge_supersteps = graph.edges() as f64 * actual.iterations() as f64;
                ms
            })
            .collect();
        median(&times)
    };
    let auto_ms = run(ExecutionMode::default());
    let t1_ms = run(ExecutionMode::Sequential);
    let tmax_ms = run(ExecutionMode::Parallel { threads: nproc() });
    ActualRunProbe {
        auto_ms,
        t1_ms,
        tmax_ms,
        edge_supersteps_per_s: edge_supersteps / (auto_ms / 1e3).max(1e-9),
    }
}

/// `algorithms`: a cold `sample_run` of each vertex program on LJ-`Default`
/// (SEMI is only affordable there), in `Class` order PR, TOPK, CC, SEMI.
pub fn probe_algorithms() -> Result<[f64; 4], String> {
    let graph = Graph::generate(DatasetId::Lj, Scale::Default);
    let session = PredictorBuilder::new()
        .engine(engine(8, Transport::InMemory, ExecutionMode::default()))
        .bind(Arc::clone(&graph.csr), graph.dataset.label());
    let mut out = [0.0; 4];
    for (slot, class) in [Class::Pr, Class::TopK, Class::Cc, Class::Semi]
        .into_iter()
        .enumerate()
    {
        let workload = class.workload(&graph.csr);
        let transform = TransformFunction::default_for(workload.convergence());
        let mut times = Vec::new();
        for k in 0..3u64 {
            let seed = PROBE_SEED + k;
            session
                .sample_artifact(SAMPLING_RATIO, seed)
                .map_err(|e| e.to_string())?;
            let t = Instant::now();
            session
                .sample_run(workload.as_ref(), SAMPLING_RATIO, seed, transform)
                .map_err(|e| e.to_string())?;
            times.push(ms_since(t));
        }
        out[slot] = median(&times);
    }
    Ok(out)
}

/// `store`: direct `put` / `get_typed` of the three artifacts one real
/// request produces, and `open` of a fresh directory.
#[derive(Default)]
pub struct StoreProbe {
    pub open_ms: f64,
    pub put_sample_ms: f64,
    pub put_run_ms: f64,
    pub put_model_ms: f64,
    pub get_sample_ms: f64,
    pub get_run_ms: f64,
    pub get_model_ms: f64,
}

pub fn probe_store(request: &Request, dir: &Path) -> Result<StoreProbe, String> {
    let session = PredictorBuilder::new()
        .engine(engine(8, Transport::InMemory, ExecutionMode::default()))
        .bind(Arc::clone(&request.inner.graph), request.dataset.label());
    let config = request.config();
    let workload = request.inner.workload.as_ref();
    let transform = TransformFunction::default_for(workload.convergence());
    let sample = session
        .sample_artifact(config.sampling_ratio, config.seed)
        .map_err(|e| e.to_string())?;
    let run = session
        .sample_run(workload, config.sampling_ratio, config.seed, transform)
        .map_err(|e| e.to_string())?;
    let model = session
        .trained_model(workload, config)
        .map_err(|e| e.to_string())?;

    let mut opens = Vec::new();
    let mut store = None;
    for k in 0..PROBE_REPS {
        let t = Instant::now();
        let opened =
            ArtifactStore::open(dir.join(format!("open-{k}"))).map_err(|e| e.to_string())?;
        opens.push(ms_since(t));
        store = Some(opened);
    }
    let store = store.expect("PROBE_REPS > 0");
    const PROVENANCE: u64 = 0x5eed;

    fn put_get<T: serde::Serialize + serde::Deserialize>(
        store: &ArtifactStore,
        kind: ArtifactKind,
        artifact: &T,
    ) -> Result<(f64, f64), String> {
        let (mut puts, mut gets) = (Vec::new(), Vec::new());
        for k in 0..PROBE_REPS {
            let key = format!("probe-{k}");
            let t = Instant::now();
            store
                .put(kind, &key, PROVENANCE, artifact)
                .map_err(|e| e.to_string())?;
            puts.push(ms_since(t));
            let t = Instant::now();
            let back = store.get_typed::<T>(kind, &key, PROVENANCE);
            gets.push(ms_since(t));
            if back.is_none() {
                return Err(format!("store probe: {key} did not read back"));
            }
        }
        Ok((median(&puts), median(&gets)))
    }

    let (put_sample_ms, get_sample_ms) =
        put_get::<SampleArtifact>(&store, ArtifactKind::Sample, &sample)?;
    let (put_run_ms, get_run_ms) =
        put_get::<SampleRunArtifact>(&store, ArtifactKind::SampleRun, &run)?;
    let (put_model_ms, get_model_ms) =
        put_get::<TrainedModel>(&store, ArtifactKind::Model, &model)?;
    Ok(StoreProbe {
        open_ms: median(&opens),
        put_sample_ms,
        put_run_ms,
        put_model_ms,
        get_sample_ms,
        get_run_ms,
        get_model_ms,
    })
}

/// `obs`: cost of a disabled span and of a counter increment, in ns.
pub fn probe_obs() -> (f64, f64) {
    const LOOPS: u32 = 1_000_000;
    let t = Instant::now();
    for _ in 0..LOOPS {
        black_box(predict_obs::trace::span("benchmark.noop"));
    }
    let span_noop_ns = t.elapsed().as_nanos() as f64 / f64::from(LOOPS);
    let counter = predict_obs::registry().counter("benchmark.probe");
    let t = Instant::now();
    for _ in 0..LOOPS {
        black_box(&counter).incr();
    }
    let counter_incr_ns = t.elapsed().as_nanos() as f64 / f64::from(LOOPS);
    (span_noop_ns, counter_incr_ns)
}
