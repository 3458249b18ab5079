//! Stage-decomposed prediction sessions.
//!
//! The paper's deployment scenario is a *service*: schedulers doing SLA
//! feasibility and capacity planning ask for many predictions against the
//! same dataset — different workloads, thresholds and sweep configurations.
//! A [`PredictionSession`] binds one dataset (graph + label) to an engine and
//! a sampling technique once, then answers any number of predictions while
//! caching the expensive stage artifacts:
//!
//! * sampling-stage [`SampleArtifact`]s keyed by `(sampler, ratio, seed)` —
//!   shared by *every* workload predicted through the session;
//! * sample-run [`SampleRunArtifact`]s keyed by `(sample, workload,
//!   transform)` — each `(ratio, seed)` sample run of a workload executes
//!   exactly once, no matter how many predictions reuse it, and carries the
//!   sample's [`SampleScale`](crate::SampleScale), the only part of the
//!   sample a prediction reads;
//! * [`TrainedModel`]s keyed by `(workload, config identity, history
//!   version)`, where the identity is every config field by value
//!   ([`PredictorConfig::identity`]);
//! * actual-run profiles keyed by workload, for [`PredictionSession::evaluate`].
//!
//! The ladder is written once: the stages are private methods of the
//! session, one private `stages` runs stages 1–3 for both
//! [`PredictionSession::predict_with`] and
//! [`PredictionSession::trained_model`], extrapolation and pricing are a
//! pure function of the stage products, and [`Evaluation`] computes the
//! prediction errors. A request looks its sample run up before its sample:
//! the sample is drawn or loaded only inside the run's compute, so a run
//! found in memory or in the store never touches the sample graph, and a
//! restarted service answers from two store reads (the run and the model).
//!
//! Sessions are `Sync`: all caches sit behind locks, the engine and sampler
//! are shared via [`Arc`], and every stage is deterministic, so concurrent
//! predictions return byte-identical results to sequential ones.
//!
//! The sample run and the actual run are the same execution path on two
//! graphs: both stages call `predict_cluster::run_workload`, which places
//! the workload's run plan on the executor the engine's
//! [`BspConfig`] names (in memory, or a worker group). A
//! transported run can fail; the failure travels up every stage by `?` as
//! [`PredictError::Cluster`] and nothing is cached for it.
//! [`PredictionSession::actual_run`], a wrapper over
//! [`PredictionSession::try_actual_run`] that the frozen benchmark adapter
//! names, is the one API that panics instead.
//!
//! Sessions are built fluently via [`PredictorBuilder`]:
//!
//! ```
//! use predict_core::{PredictorBuilder, PredictorConfig};
//! use predict_algorithms::PageRankWorkload;
//! use predict_graph::generators::{generate_rmat, RmatConfig};
//! use predict_sampling::BiasedRandomJump;
//!
//! let graph = generate_rmat(&RmatConfig::new(10, 8).with_seed(7));
//! let workload = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
//! let session = PredictorBuilder::new()
//!     .sampler(BiasedRandomJump::default())
//!     .config(PredictorConfig::single_ratio(0.1))
//!     .bind(graph, "quickstart");
//! let prediction = session.predict(&workload).unwrap();
//! assert!(prediction.predicted_iterations > 0);
//! // A second prediction reuses the cached sample run and model.
//! let again = session.predict(&workload).unwrap();
//! assert_eq!(prediction.predicted_superstep_ms, again.predicted_superstep_ms);
//! ```

use crate::artifacts::{
    stable_fingerprint, ModelKey, RunKey, SampleArtifact, SampleKey, SampleRunArtifact,
    TrainedModel, TrainingProvenance, TrainingSource,
};
use crate::cost_model::CostModel;
use crate::critical_path::WorkerSelection;
use crate::error::PredictError;
use crate::extrapolator::{ExtrapolationRule, Extrapolator};
use crate::features::{FeatureSet, IterationObservation};
use crate::history::HistoryStore;
use crate::metrics::signed_relative_error;
use crate::transform::TransformFunction;
use predict_algorithms::{Workload, WorkloadRun};
use predict_bsp::{BspConfig, BspEngine, RunProfile};
use predict_graph::CsrGraph;
use predict_obs::diag;
use predict_obs::metrics::Histogram;
use predict_obs::Registry;
use predict_sampling::{BiasedRandomJump, Sampler, ScratchPool};
use predict_store::{ArtifactKind, ArtifactStore, Checksum};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Configuration of the prediction pipeline.
#[derive(Debug, Clone)]
pub struct PredictorConfig {
    /// Sampling ratio of the sample run whose per-iteration features are
    /// extrapolated (the paper's headline setting is 0.1).
    pub sampling_ratio: f64,
    /// Sampling ratios of the additional sample runs used to train the cost
    /// model (section 5.2 trains on 0.05, 0.1, 0.15 and 0.2).
    pub training_ratios: Vec<f64>,
    /// Seed driving the sampler and any other randomized choice.
    pub seed: u64,
    /// Which worker represents an iteration when pricing it.
    pub worker_selection: WorkerSelection,
    /// Transform function override; `None` uses the paper's default rule for
    /// the workload's convergence kind.
    pub transform: Option<TransformFunction>,
    /// Extrapolation rule (the paper's per-feature rule by default; the other
    /// variants exist for the ablation benchmarks).
    pub extrapolation_rule: ExtrapolationRule,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            sampling_ratio: 0.1,
            training_ratios: vec![0.05, 0.1, 0.15, 0.2],
            seed: 0x9d1c,
            worker_selection: WorkerSelection::SlowestWorker,
            transform: None,
            extrapolation_rule: ExtrapolationRule::PerFeature,
        }
    }
}

impl PredictorConfig {
    /// Convenience constructor: predict from a sample run at `ratio`, train
    /// the cost model only on that same run (no extra training ratios).
    pub fn single_ratio(ratio: f64) -> Self {
        Self {
            sampling_ratio: ratio,
            training_ratios: vec![ratio],
            ..Self::default()
        }
    }

    /// Replaces the sampling ratio used for extrapolation, keeping the
    /// training ratios.
    pub fn with_sampling_ratio(mut self, ratio: f64) -> Self {
        self.sampling_ratio = ratio;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Checks the configuration for values that would previously have caused
    /// panics deep inside stage code (non-finite ratios reaching the
    /// transform function's assertions).
    pub fn validate(&self) -> Result<(), PredictError> {
        if !self.sampling_ratio.is_finite() || self.sampling_ratio <= 0.0 {
            return Err(PredictError::InvalidConfig(format!(
                "sampling ratio must be finite and positive, got {}",
                self.sampling_ratio
            )));
        }
        for &r in &self.training_ratios {
            if !r.is_finite() || r <= 0.0 {
                return Err(PredictError::InvalidConfig(format!(
                    "training ratios must be finite and positive, got {r}"
                )));
            }
        }
        Ok(())
    }

    /// A stable fingerprint of every field that influences a prediction,
    /// used (together with the workload token and history version) to key
    /// stored [`TrainedModel`]s on disk. Two configs with equal fingerprints
    /// train identical models on identical sessions. It formats the whole
    /// config, so it is computed only for a store key; the in-memory cache is
    /// keyed by [`PredictorConfig::identity`].
    pub fn fingerprint(&self) -> u64 {
        // The Debug rendering covers every field exactly (f64 Debug prints
        // the shortest round-trip representation).
        stable_fingerprint(&format!("{self:?}"))
    }

    /// The exact identity of this configuration: every field by value,
    /// floats by bit pattern. It keys cached [`TrainedModel`]s in memory
    /// without formatting anything.
    pub fn identity(&self) -> ConfigIdentity {
        // Exhaustive destructuring, no `..`: a field added to the config
        // does not compile here until the identity covers it.
        let Self {
            sampling_ratio,
            training_ratios,
            seed,
            worker_selection,
            transform,
            extrapolation_rule,
        } = self;
        ConfigIdentity {
            sampling_ratio: sampling_ratio.to_bits(),
            training_ratios: training_ratios.iter().map(|r| r.to_bits()).collect(),
            seed: *seed,
            worker_selection: *worker_selection,
            transform: *transform,
            extrapolation_rule: *extrapolation_rule,
        }
    }
}

/// Every field of a [`PredictorConfig`] by value — floats by bit pattern, so
/// `0.0` and `-0.0` differ — with derived `Eq` and `Hash`. Built only by
/// [`PredictorConfig::identity`]; two configs with equal identities are the
/// same config.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigIdentity {
    sampling_ratio: u64,
    training_ratios: Vec<u64>,
    seed: u64,
    worker_selection: WorkerSelection,
    transform: Option<TransformFunction>,
    extrapolation_rule: ExtrapolationRule,
}

/// The output of the prediction pipeline for one workload on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct Prediction {
    /// Workload name.
    pub workload: String,
    /// Predicted number of iterations (= iterations of the sample run, which
    /// the transform function strives to preserve).
    pub predicted_iterations: usize,
    /// Predicted runtime of the superstep phase in simulated milliseconds.
    pub predicted_superstep_ms: f64,
    /// Per-iteration runtime predictions, aligned with the sample run's
    /// iterations.
    pub per_iteration_ms: Vec<f64>,
    /// Extrapolated per-iteration features that were fed to the cost model.
    pub extrapolated_features: Vec<FeatureSet>,
    /// Predicted graph-level total of remote message bytes over the whole run
    /// (the key input feature evaluated in Figure 6, bottom).
    pub predicted_remote_message_bytes: f64,
    /// The trained cost model.
    pub cost_model: CostModel,
    /// Provenance of the cost model's training set (which sources fed it,
    /// including the sample-only fallback marker).
    pub training: TrainingProvenance,
    /// The extrapolation factors that were applied.
    pub extrapolator: Extrapolator,
    /// Profile of the sample run the prediction extrapolates from.
    pub sample_profile: RunProfile,
    /// Ratio that the sampler actually achieved.
    pub achieved_sampling_ratio: f64,
    /// Simulated end-to-end runtime of the sample run (used for the Table 3
    /// overhead analysis).
    pub sample_run_total_ms: f64,
}

/// A prediction compared against the measured actual run.
#[derive(Debug, Clone, Serialize)]
pub struct Evaluation {
    /// The prediction under evaluation.
    pub prediction: Prediction,
    /// Iterations of the actual run.
    pub actual_iterations: usize,
    /// Measured superstep-phase runtime of the actual run.
    pub actual_superstep_ms: f64,
    /// Measured end-to-end runtime of the actual run.
    pub actual_total_ms: f64,
    /// Measured graph-level total of remote message bytes of the actual run.
    pub actual_remote_message_bytes: f64,
    /// Profile of the actual run.
    pub actual_profile: RunProfile,
}

impl Evaluation {
    /// Compares `prediction` with the measured `actual` run.
    fn new(prediction: Prediction, actual: &WorkloadRun) -> Self {
        Self {
            prediction,
            actual_iterations: actual.iterations(),
            actual_superstep_ms: actual.profile.superstep_phase_ms(),
            actual_total_ms: actual.profile.total_ms(),
            actual_remote_message_bytes: remote_message_bytes(&actual.profile),
            actual_profile: actual.profile.clone(),
        }
    }

    /// Signed relative error of the iteration prediction (Figures 4–6).
    pub fn iteration_error(&self) -> f64 {
        signed_relative_error(
            self.prediction.predicted_iterations as f64,
            self.actual_iterations as f64,
        )
    }

    /// Signed relative error of the runtime prediction (Figures 7–8).
    pub fn runtime_error(&self) -> f64 {
        signed_relative_error(
            self.prediction.predicted_superstep_ms,
            self.actual_superstep_ms,
        )
    }

    /// Signed relative error of the remote-message-bytes prediction
    /// (Figure 6, bottom).
    pub fn remote_bytes_error(&self) -> f64 {
        signed_relative_error(
            self.prediction.predicted_remote_message_bytes,
            self.actual_remote_message_bytes,
        )
    }

    /// Ratio of the sample run's end-to-end runtime to the actual run's
    /// (Table 3's overhead analysis). Returns `f64::NAN` when the actual run
    /// measured zero milliseconds — a zero-cost actual run must not be
    /// reported as a free sample run.
    pub fn sample_overhead_ratio(&self) -> f64 {
        if self.actual_total_ms == 0.0 {
            f64::NAN
        } else {
            self.prediction.sample_run_total_ms / self.actual_total_ms
        }
    }
}

// ---------------------------------------------------------------------------
// Stage orchestration.

/// Cached stage artifacts of one session. All maps are keyed by exact stage
/// inputs; values are `Arc`s so cache hits are O(1) clones.
#[derive(Default)]
pub(crate) struct ArtifactCaches {
    samples: Mutex<HashMap<SampleKey, Arc<SampleArtifact>>>,
    runs: Mutex<HashMap<RunKey, Arc<SampleRunArtifact>>>,
    models: Mutex<HashMap<ModelKey, Arc<TrainedModel>>>,
    actuals: Mutex<HashMap<String, Arc<WorkloadRun>>>,
    /// Reusable sampler working memory (visited bitset + walk buffers),
    /// pooled so concurrent draws each check out their own scratch instead
    /// of either serializing on one lock or silently falling back to a
    /// throwaway allocation per draw (the bug the old `try_lock` fallback
    /// hid). Scratch state never influences the drawn sample.
    scratch: ScratchPool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactCaches {
    fn record(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A session's handle on the persistent artifact store: the shared
/// [`ArtifactStore`] plus the provenance hash binding this session's
/// dataset and engine to its stored artifacts (see [`store_provenance`]).
///
/// The store sits *behind* the in-memory caches: a stage consults memory
/// first, then the store, then computes — and every computed artifact is
/// written through so a restarted process finds it warm. Store I/O errors
/// degrade to recomputation with a [`diag!`] warning; they never fail a
/// prediction.
pub(crate) struct StoreBinding {
    store: Arc<ArtifactStore>,
    /// Dataset label, prefixed onto every store key. Stage keys identify an
    /// artifact only *within* one dataset (a `SampleKey` is `(sampler,
    /// ratio, seed)`, an actual run is keyed by its workload token); the
    /// sessions of different datasets would otherwise publish to the same
    /// file and invalidate each other on every pass via the provenance
    /// check.
    dataset: String,
    /// Provenance of what only the dataset and the engine determine — actual
    /// runs — see [`store_provenance`].
    provenance: u64,
    /// `provenance` extended by the sampler's full configuration (its `Debug`
    /// rendering): the provenance of samples, sample runs and the models
    /// trained on them. Store keys carry only the sampler's *name*, so this is
    /// what keeps a sampler tuned differently from reading another tuning's
    /// artifacts; actual runs stay shared by every sampler of a dataset.
    sampled_provenance: u64,
    /// Artifacts served from disk rather than recomputed — surfaced as
    /// [`SessionStats::store_hits`], deliberately separate from the
    /// in-memory `hits` counter so a load driver's hit-rate is honest about
    /// *which* tier answered.
    hits: AtomicU64,
}

impl StoreBinding {
    pub(crate) fn new(
        store: Arc<ArtifactStore>,
        dataset: &str,
        graph: &CsrGraph,
        config: &BspConfig,
        sampler: &dyn Sampler,
    ) -> Self {
        let provenance = store_provenance(dataset, graph, config);
        let mut sampled = provenance;
        sampled.update(format!("{sampler:?}").as_bytes());
        Self {
            provenance: provenance.finish(),
            sampled_provenance: sampled.finish(),
            dataset: dataset.to_string(),
            store,
            hits: AtomicU64::new(0),
        }
    }

    /// The provenance artifacts of `kind` are stored under.
    fn provenance_of(&self, kind: ArtifactKind) -> u64 {
        match kind {
            ArtifactKind::ActualRun => self.provenance,
            ArtifactKind::Sample | ArtifactKind::SampleRun | ArtifactKind::Model => {
                self.sampled_provenance
            }
        }
    }

    /// The shared store this binding writes through to.
    pub(crate) fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Artifacts this session has served from disk.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The full store key of a stage key: namespaced by dataset label.
    fn full_key(&self, key: &str) -> String {
        format!("{}|{key}", self.dataset)
    }

    fn load<T: serde::Deserialize>(&self, kind: ArtifactKind, key: &str) -> Option<T> {
        let loaded = self
            .store
            .get_typed::<T>(kind, &self.full_key(key), self.provenance_of(kind));
        if loaded.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        loaded
    }

    fn save<T: Serialize>(&self, kind: ArtifactKind, key: &str, artifact: &T) {
        let key = self.full_key(key);
        if let Err(err) = self
            .store
            .put(kind, &key, self.provenance_of(kind), artifact)
        {
            diag!(
                Warn,
                "store: failed to persist {} artifact `{key}` ({err}); continuing in memory",
                kind.name()
            );
        }
    }
}

/// Provenance hash binding stored artifacts to what they were computed
/// from: the dataset label, the full out-adjacency structure of the graph,
/// and the engine fields a run's profile depends on. A relabeled or
/// regenerated dataset — or a service restarted with another cluster shape
/// or cost model — therefore invalidates every stored artifact (stale miss
/// → recompute → overwrite) instead of silently serving artifacts of the
/// wrong graph or the wrong cluster. `execution` and `transport` stay out:
/// they never change results, so a store written in memory still hits
/// under `socket` and at any thread count. O(V + E), computed once per
/// store-bound session, so it is the store's word-at-a-time [`Checksum`]
/// over the raw CSR arrays (one step per offset, one per pair of targets)
/// rather than a byte-wise hash. Returned unfinished so [`StoreBinding`] can
/// extend it by the sampler.
fn store_provenance(dataset: &str, graph: &CsrGraph, config: &BspConfig) -> Checksum {
    let (offsets, targets) = graph.out_csr();
    let mut sum = Checksum::default();
    sum.update(dataset.as_bytes());
    // The counts also settle where `offsets` ends and whether `targets`
    // has an unpaired last element.
    sum.update_word(graph.num_vertices() as u64);
    sum.update_word(graph.num_edges() as u64);
    sum.update_word(graph.is_weighted().into());
    for &offset in offsets {
        sum.update_word(offset as u64);
    }
    let pairs = targets.chunks_exact(2);
    let unpaired = pairs.remainder();
    for pair in pairs {
        sum.update_word(u64::from(pair[0]) | u64::from(pair[1]) << 32);
    }
    for &target in unpaired {
        sum.update_word(target.into());
    }
    sum.update_word(config.workers() as u64);
    sum.update_word(config.max_supersteps as u64);
    sum.update(format!("{:?}|{:?}", config.partition_strategy, config.cost).as_bytes());
    sum
}

/// Acquires a cache mutex, recovering the guard if a previous holder
/// panicked. Cache maps stay internally consistent under panic (inserts are
/// single `entry().or_insert` calls; a torn value is never published), and a
/// worker panic is already reported per-request by the service — letting
/// the poison flag wedge every later prediction would turn one failed
/// request into a permanently dead session.
fn cache_lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The latency histograms a session's stages record into, resolved once at
/// bind so a request never looks an instrument up by name.
struct SessionMetrics {
    sample_ns: Arc<Histogram>,
    sample_run_ns: Arc<Histogram>,
    train_ns: Arc<Histogram>,
    actual_ns: Arc<Histogram>,
    predict_ns: Arc<Histogram>,
    evaluate_ns: Arc<Histogram>,
}

impl SessionMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            sample_ns: registry.histogram("predict.stage.sample_ns"),
            sample_run_ns: registry.histogram("predict.stage.sample_run_ns"),
            train_ns: registry.histogram("predict.stage.train_ns"),
            actual_ns: registry.histogram("predict.stage.actual_ns"),
            predict_ns: registry.histogram("session.predict_ns"),
            evaluate_ns: registry.histogram("session.evaluate_ns"),
        }
    }
}

/// What stages 1–3 produce for one request: the sample run (with its
/// sample's scale), the run's observations under the configured worker
/// selection (the iterations to price), and the model.
struct StageProducts {
    run: Arc<SampleRunArtifact>,
    observations: Vec<IterationObservation>,
    model: Arc<TrainedModel>,
}

/// Graph-level remote message bytes of a run: the sum over its supersteps.
fn remote_message_bytes(profile: &RunProfile) -> f64 {
    profile
        .per_superstep_totals()
        .iter()
        .map(|t| t.remote_message_bytes as f64)
        .sum()
}

/// Stage 4, the pure tail of the ladder: extrapolates the sample run's
/// observations to the full graph under `rule`, prices each as the model's
/// fixed term plus its representing worker's cost, and assembles the
/// prediction. It touches no cache and runs nothing, so a caller may swap
/// one stage product before it.
fn extrapolate_and_price(
    workload: &str,
    rule: ExtrapolationRule,
    products: &StageProducts,
) -> Prediction {
    let StageProducts {
        run,
        observations,
        model,
    } = products;
    let extrapolator = run.scale.extrapolator();
    let extrapolated_features: Vec<FeatureSet> = observations
        .iter()
        .map(|o| extrapolator.extrapolate_with_rule(&o.features, rule))
        .collect();
    let per_iteration_ms: Vec<f64> = extrapolated_features
        .iter()
        .map(|f| model.cost_model.predict_iteration_ms(f))
        .collect();
    Prediction {
        workload: workload.to_string(),
        predicted_iterations: run.iterations(),
        predicted_superstep_ms: per_iteration_ms.iter().sum(),
        per_iteration_ms,
        extrapolated_features,
        predicted_remote_message_bytes: remote_message_bytes(&run.profile)
            * extrapolator.edge_factor,
        cost_model: model.cost_model.clone(),
        training: model.provenance.clone(),
        extrapolator,
        sample_run_total_ms: run.profile.total_ms(),
        sample_profile: run.profile.clone(),
        achieved_sampling_ratio: run.scale.clamped_ratio(),
    }
}

impl PredictionSession {
    /// The one tiered lookup every stage goes through: memory, then the
    /// store, then `compute` — with the result written through to the store
    /// and published to memory.
    ///
    /// Tier order and counting are part of the session's observable behavior
    /// ([`SessionStats`], the `store.*` counters): a memory hit records a hit
    /// and touches nothing else; a memory miss records a miss and, on a
    /// store-backed session, costs exactly one store read; a computed
    /// artifact costs exactly one store write. `store_key` therefore runs
    /// only after a memory miss on a store-backed session — a warm request
    /// allocates no key it never reads.
    fn get_or_compute<K, T>(
        &self,
        map: &Mutex<HashMap<K, Arc<T>>>,
        key: K,
        kind: ArtifactKind,
        store_key: impl FnOnce(&K) -> String,
        compute: impl FnOnce() -> Result<T, PredictError>,
    ) -> Result<Arc<T>, PredictError>
    where
        K: Eq + std::hash::Hash,
        T: Serialize + serde::Deserialize,
    {
        if let Some(hit) = cache_lock(map).get(&key) {
            self.caches.record(true);
            return Ok(Arc::clone(hit));
        }
        self.caches.record(false);
        let store = self.store.as_ref().map(|store| (store, store_key(&key)));
        let stored = store
            .as_ref()
            .and_then(|(store, store_key)| store.load::<T>(kind, store_key));
        let artifact = match stored {
            Some(artifact) => artifact,
            None => {
                let artifact = compute()?;
                if let Some((store, store_key)) = &store {
                    store.save(kind, store_key, &artifact);
                }
                artifact
            }
        };
        // Concurrent misses may race here; both hold the same deterministic
        // artifact, so keeping the first insert is fine.
        Ok(Arc::clone(
            cache_lock(map).entry(key).or_insert(Arc::new(artifact)),
        ))
    }

    /// Stage 1: draw (or reuse) the sample for `(ratio, seed)`.
    fn stage_sample(&self, ratio: f64, seed: u64) -> Result<Arc<SampleArtifact>, PredictError> {
        let _span = predict_obs::trace::span("predict.stage.sample").arg("ratio", ratio);
        let _timer = self.metrics.sample_ns.start_timer();
        self.get_or_compute(
            &self.caches.samples,
            SampleKey::new(self.sampler.name(), ratio, seed),
            ArtifactKind::Sample,
            SampleKey::store_key,
            || {
                // Each concurrent draw checks out its own pooled scratch;
                // once the pool is warm (peak concurrency reached) no draw
                // allocates.
                let mut scratch = self.caches.scratch.acquire();
                SampleArtifact::draw_with(&*self.sampler, &self.graph, ratio, seed, &mut scratch)
            },
        )
    }

    /// Stage 2: execute (or reuse) the transformed sample run of `workload`,
    /// whose [`Workload::cache_token`] is `token`, on the `(ratio, seed)`
    /// sample. The sample stage runs only inside the compute, after the run
    /// missed in memory and in the store, so a reused run never draws or
    /// loads its sample; a cold run's time therefore includes its sample
    /// stage. An empty sample is this stage's error. A failed run is not
    /// cached, so the next request runs it again.
    fn stage_run(
        &self,
        workload: &dyn Workload,
        token: &str,
        transform: TransformFunction,
        ratio: f64,
        seed: u64,
    ) -> Result<Arc<SampleRunArtifact>, PredictError> {
        let _span =
            predict_obs::trace::span("predict.stage.sample_run").arg("workload", workload.name());
        let _timer = self.metrics.sample_run_ns.start_timer();
        self.get_or_compute(
            &self.caches.runs,
            RunKey::new(
                SampleKey::new(self.sampler.name(), ratio, seed),
                token,
                transform,
            ),
            ArtifactKind::SampleRun,
            RunKey::store_key,
            || {
                let sample = self.stage_sample(ratio, seed)?;
                SampleRunArtifact::execute(&self.engine, workload, transform, &sample)
            },
        )
    }

    /// Stage 3: assemble the training set and train (or reuse) the cost
    /// model.
    ///
    /// `extrapolation_run` is the `(sampling_ratio, seed)` sample run the
    /// ladder extrapolates from: a training ratio equal to the sampling ratio
    /// reuses it instead of re-running, and its workers are the training rows
    /// when every training ratio yields an empty sample and no history
    /// exists. The stage takes one history snapshot, so the model key and
    /// the training set see the same history version.
    fn stage_model(
        &self,
        workload: &dyn Workload,
        token: &str,
        config: &PredictorConfig,
        transform: TransformFunction,
        extrapolation_run: &Arc<SampleRunArtifact>,
    ) -> Result<Arc<TrainedModel>, PredictError> {
        let _span =
            predict_obs::trace::span("predict.stage.train").arg("workload", workload.name());
        let _timer = self.metrics.train_ns.start_timer();
        let history = self.history_snapshot();
        self.get_or_compute(
            &self.caches.models,
            ModelKey::new(token, config, history.version),
            ArtifactKind::Model,
            // The config's fingerprint is formatted here, after a memory miss
            // on a store-backed session, and nowhere else.
            |key| key.store_key(self.sampler.name(), config),
            // A store-hit model skips the whole training-set assembly —
            // including the training-ratio sample runs — which is what lets
            // a warm restart answer with zero engine executions.
            || {
                self.train_model(
                    workload,
                    token,
                    config,
                    transform,
                    extrapolation_run,
                    &history,
                )
            },
        )
    }

    /// Assembles the training set of [`PredictionSession::stage_model`] —
    /// one sample run per training ratio plus matching history — and fits
    /// the cost model on every worker of every superstep of those runs.
    fn train_model(
        &self,
        workload: &dyn Workload,
        token: &str,
        config: &PredictorConfig,
        transform: TransformFunction,
        extrapolation_run: &Arc<SampleRunArtifact>,
        history: &HistoryState,
    ) -> Result<TrainedModel, PredictError> {
        let mut runs: Vec<Arc<SampleRunArtifact>> = Vec::new();
        for (i, &train_ratio) in config.training_ratios.iter().enumerate() {
            if (train_ratio - config.sampling_ratio).abs() < 1e-12 {
                runs.push(Arc::clone(extrapolation_run));
                continue;
            }
            let seed = config.seed.wrapping_add(1 + i as u64);
            match self.stage_run(workload, token, transform, train_ratio, seed) {
                Ok(run) => runs.push(run),
                // An empty training sample is skipped, exactly as the paper's
                // protocol drops ratios too small for the dataset.
                Err(e) if e.is_empty_sample() => continue,
                Err(e) => return Err(e),
            }
        }
        // Historical actual runs of the same workload on *other* datasets.
        let history_runs = history.store.runs_for(workload.name(), Some(&self.dataset));
        let worker_rows = |profile: &RunProfile| -> usize {
            profile.supersteps.iter().map(|s| s.workers.len()).sum()
        };
        let history_rows: usize = history_runs.iter().map(|r| worker_rows(&r.profile)).sum();
        let source = if history_rows > 0 {
            TrainingSource::SampleRunsWithHistory
        } else if runs.iter().any(|r| worker_rows(&r.profile) > 0) {
            TrainingSource::SampleRuns
        } else {
            runs = vec![Arc::clone(extrapolation_run)];
            TrainingSource::ExtrapolationSampleOnly
        };
        let sample_rows: usize = runs.iter().map(|r| worker_rows(&r.profile)).sum();
        let profiles: Vec<&RunProfile> = runs
            .iter()
            .map(|r| &r.profile)
            .chain(history_runs.iter().map(|r| &r.profile))
            .collect();

        let cost_model = CostModel::train(&profiles).map_err(PredictError::CostModel)?;
        Ok(TrainedModel {
            cost_model,
            provenance: TrainingProvenance {
                source,
                sample_observations: sample_rows,
                history_observations: history_rows,
                history_version: history.version,
                training_ratios: config.training_ratios.clone(),
            },
        })
    }

    /// Executes (or reuses) the actual run of `workload`, whose
    /// [`Workload::cache_token`] is `token`, on the full graph — through the
    /// same `predict_cluster::run_workload` seam as the sample run, on
    /// whichever executor the engine's transport mode names. Actual runs are
    /// the most expensive artifact of all; persisting them is what makes a
    /// warm evaluation pass execute zero runs.
    fn stage_actual(
        &self,
        workload: &dyn Workload,
        token: String,
    ) -> Result<Arc<WorkloadRun>, PredictError> {
        let _span =
            predict_obs::trace::span("predict.stage.actual").arg("workload", workload.name());
        let _timer = self.metrics.actual_ns.start_timer();
        self.get_or_compute(
            &self.caches.actuals,
            token,
            ArtifactKind::ActualRun,
            String::clone,
            || {
                Ok(predict_cluster::run_workload(
                    &self.engine,
                    workload,
                    &self.graph,
                )?)
            },
        )
    }

    /// The ladder, written once: validates `config`, resolves the transform,
    /// then runs stages 1–3. `token` is the workload's
    /// [`Workload::cache_token`], rendered once per request by the caller
    /// and shared by the run and model keys.
    fn stages(
        &self,
        workload: &dyn Workload,
        token: &str,
        config: &PredictorConfig,
    ) -> Result<StageProducts, PredictError> {
        config.validate()?;
        let transform = config
            .transform
            .unwrap_or_else(|| TransformFunction::default_for(workload.convergence()));
        let run = self.stage_run(
            workload,
            token,
            transform,
            config.sampling_ratio,
            config.seed,
        )?;
        let model = self.stage_model(workload, token, config, transform, &run)?;
        let observations = run.observations(config.worker_selection);
        Ok(StageProducts {
            run,
            observations,
            model,
        })
    }

    /// The full prediction: the ladder plus its pure tail.
    fn predict_stages(
        &self,
        workload: &dyn Workload,
        token: &str,
        config: &PredictorConfig,
    ) -> Result<Prediction, PredictError> {
        let _span = predict_obs::trace::span("session.predict").arg("workload", workload.name());
        let _timer = self.metrics.predict_ns.start_timer();
        let products = self.stages(workload, token, config)?;
        Ok(extrapolate_and_price(
            workload.name(),
            config.extrapolation_rule,
            &products,
        ))
    }
}

// ---------------------------------------------------------------------------
// Builder and session.

/// Fluent builder for [`PredictionSession`]s: bind a dataset once, then
/// predict many workloads/configurations against it with sample runs and
/// trained models cached across calls.
///
/// Defaults: a [`BspEngine`] with the default configuration, the paper's
/// [`BiasedRandomJump`] sampler, and [`PredictorConfig::default`]. How and
/// where the session's runs execute — thread count, in-memory or on a
/// `predict_cluster` worker group — is set in one place, the
/// [`BspConfig`] the engine is built from
/// (`BspConfig::{with_execution, with_transport}`); neither ever changes a
/// prediction byte.
pub struct PredictorBuilder {
    engine: Arc<BspEngine>,
    sampler: Arc<dyn Sampler>,
    config: PredictorConfig,
    store: Option<Arc<ArtifactStore>>,
}

impl Default for PredictorBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PredictorBuilder {
    /// Creates a builder with default engine, sampler and configuration.
    ///
    /// # Examples
    ///
    /// Bind a dataset and predict two workloads; both share the same cached
    /// sampling artifact, and repeating a prediction re-runs nothing:
    ///
    /// ```
    /// use predict_algorithms::{PageRankWorkload, TopKWorkload};
    /// use predict_bsp::{BspConfig, BspEngine, ExecutionMode};
    /// use predict_core::{PredictorBuilder, PredictorConfig};
    /// use predict_graph::generators::{generate_rmat, RmatConfig};
    /// use predict_sampling::BiasedRandomJump;
    ///
    /// let graph = generate_rmat(&RmatConfig::new(10, 8).with_seed(7));
    /// let pagerank = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
    ///
    /// // A performance knob, never a result knob: superstep phases on OS
    /// // threads.
    /// let cluster = BspConfig::with_workers(8).with_execution(ExecutionMode::Auto);
    /// let session = PredictorBuilder::new()
    ///     .engine(BspEngine::new(cluster))
    ///     .sampler(BiasedRandomJump::default())
    ///     .config(PredictorConfig::single_ratio(0.1))
    ///     .bind(graph, "my-dataset");
    ///
    /// let first = session.predict(&pagerank).unwrap();
    /// session.predict(&TopKWorkload::default()).unwrap();
    /// let runs_after_two_workloads = session.engine().runs_executed();
    ///
    /// // Re-predicting hits the artifact caches: no new engine runs.
    /// let again = session.predict(&pagerank).unwrap();
    /// assert_eq!(first.predicted_superstep_ms, again.predicted_superstep_ms);
    /// assert_eq!(session.engine().runs_executed(), runs_after_two_workloads);
    /// ```
    pub fn new() -> Self {
        Self {
            engine: Arc::new(BspEngine::default()),
            sampler: Arc::new(BiasedRandomJump::default()),
            config: PredictorConfig::default(),
            store: None,
        }
    }

    /// Sets the BSP engine (owned or already shared).
    pub fn engine(mut self, engine: impl Into<Arc<BspEngine>>) -> Self {
        self.engine = engine.into();
        self
    }

    /// Attaches a persistent artifact store (shared; typically one store
    /// serves every session of a service). Store-backed sessions consult the
    /// store after an in-memory cache miss and write every computed artifact
    /// through, so a session bound to the same dataset in a later process
    /// answers warm — byte-identically, without re-executing stored sample
    /// runs.
    pub fn store_arc(mut self, store: Arc<ArtifactStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Sets the sampling technique.
    pub fn sampler<S: Sampler + 'static>(mut self, sampler: S) -> Self {
        self.sampler = Arc::new(sampler);
        self
    }

    /// Sets an already-shared sampling technique.
    pub fn sampler_arc(mut self, sampler: Arc<dyn Sampler>) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the default pipeline configuration of the session (individual
    /// predictions may still override it via
    /// [`PredictionSession::predict_with`]).
    pub fn config(mut self, config: PredictorConfig) -> Self {
        self.config = config;
        self
    }

    /// Binds the builder to a dataset, producing a session with empty caches
    /// and an empty history store.
    pub fn bind(self, graph: impl Into<Arc<CsrGraph>>, dataset: &str) -> PredictionSession {
        self.bind_with_history(graph, dataset, HistoryStore::new())
    }

    /// Binds the builder to a dataset with a pre-loaded history store.
    /// Historical runs recorded under the session's own `dataset` label are
    /// excluded from training (the paper's leave-one-out protocol).
    pub fn bind_with_history(
        self,
        graph: impl Into<Arc<CsrGraph>>,
        dataset: &str,
        history: HistoryStore,
    ) -> PredictionSession {
        let graph = graph.into();
        // Provenance (an O(V + E) graph hash) is computed here, once per
        // store-bound session, not per lookup.
        let store = self.store.map(|store| {
            let sampler = self.sampler.as_ref();
            StoreBinding::new(store, dataset, &graph, self.engine.config(), sampler)
        });
        PredictionSession {
            engine: self.engine,
            sampler: self.sampler,
            config: self.config,
            graph,
            dataset: dataset.to_string(),
            caches: ArtifactCaches::default(),
            store,
            metrics: SessionMetrics::new(predict_obs::registry()),
            history: RwLock::new(Arc::new(HistoryState {
                store: history,
                version: 0,
            })),
        }
    }
}

/// The history store and its version, behind copy-on-write: readers
/// snapshot the `Arc` in a narrow lock scope (see
/// [`PredictionSession::history_snapshot`]), so the lock is never held
/// across engine work.
#[derive(Clone)]
struct HistoryState {
    store: HistoryStore,
    version: u64,
}

/// Cache occupancy and hit statistics of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SessionStats {
    /// Cached sampling-stage artifacts.
    pub samples: usize,
    /// Cached sample-run artifacts.
    pub sample_runs: usize,
    /// Cached trained models.
    pub models: usize,
    /// Cached actual-run profiles.
    pub actual_runs: usize,
    /// Total cache hits across all stages.
    pub hits: u64,
    /// Total cache misses across all stages.
    pub misses: u64,
    /// Sampler scratch buffers ever allocated by this session's scratch
    /// pool — bounded by the peak number of concurrent draws, flat once the
    /// pool is warm (the warm-service tests assert this).
    pub scratch_allocations: u64,
    /// Artifacts served from the persistent store rather than recomputed —
    /// counted separately from the in-memory `hits` so a warm-restart
    /// hit-rate cannot be confused with same-process cache reuse (always 0
    /// for sessions without a store).
    pub store_hits: u64,
}

/// A thread-safe prediction session bound to one dataset.
///
/// See the [module documentation](self) for the caching model. All methods
/// take `&self`; the session is `Sync` and cheap to share behind an [`Arc`]
/// (which is how [`crate::PredictService`] holds it).
pub struct PredictionSession {
    engine: Arc<BspEngine>,
    sampler: Arc<dyn Sampler>,
    config: PredictorConfig,
    graph: Arc<CsrGraph>,
    dataset: String,
    caches: ArtifactCaches,
    store: Option<StoreBinding>,
    metrics: SessionMetrics,
    history: RwLock<Arc<HistoryState>>,
}

impl PredictionSession {
    /// The dataset label this session is bound to.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The full graph this session predicts on.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The session's engine (shared; its run counter spans all users).
    pub fn engine(&self) -> &Arc<BspEngine> {
        &self.engine
    }

    /// The session's default pipeline configuration.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// Snapshots the history store and its version in a narrow lock scope.
    /// Stages run against the snapshot `Arc`, never under the lock, so a
    /// concurrent [`PredictionSession::record_history`] is not blocked by
    /// in-flight predictions (and cannot serialize other readers behind a
    /// waiting writer).
    fn history_snapshot(&self) -> Arc<HistoryState> {
        Arc::clone(&self.history.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Predicts `workload` with the session's default configuration.
    pub fn predict(&self, workload: &dyn Workload) -> Result<Prediction, PredictError> {
        self.predict_with(workload, &self.config)
    }

    /// Predicts `workload` with an explicit configuration override (e.g. one
    /// point of a sampling-ratio sweep). Artifacts shared with other
    /// configurations — equal `(ratio, seed)` draws and sample runs — are
    /// reused from the cache.
    pub fn predict_with(
        &self,
        workload: &dyn Workload,
        config: &PredictorConfig,
    ) -> Result<Prediction, PredictError> {
        self.predict_stages(workload, &workload.cache_token(), config)
    }

    /// Predicts and then executes (or reuses) the actual run, returning both
    /// so the prediction error can be measured.
    pub fn evaluate(&self, workload: &dyn Workload) -> Result<Evaluation, PredictError> {
        self.evaluate_with(workload, &self.config)
    }

    /// [`PredictionSession::evaluate`] with an explicit configuration.
    pub fn evaluate_with(
        &self,
        workload: &dyn Workload,
        config: &PredictorConfig,
    ) -> Result<Evaluation, PredictError> {
        let _span = predict_obs::trace::span("session.evaluate").arg("workload", workload.name());
        let _timer = self.metrics.evaluate_ns.start_timer();
        let token = workload.cache_token();
        let prediction = self.predict_stages(workload, &token, config)?;
        let actual = self.stage_actual(workload, token)?;
        Ok(Evaluation::new(prediction, &actual))
    }

    /// Draws (or reuses) the stage-1 sampling artifact for `(ratio, seed)`.
    pub fn sample_artifact(
        &self,
        ratio: f64,
        seed: u64,
    ) -> Result<Arc<SampleArtifact>, PredictError> {
        self.stage_sample(ratio, seed)
    }

    /// Executes (or reuses) the stage-2 sample run of `workload` on the
    /// `(ratio, seed)` sample under `transform`.
    pub fn sample_run(
        &self,
        workload: &dyn Workload,
        ratio: f64,
        seed: u64,
        transform: TransformFunction,
    ) -> Result<Arc<SampleRunArtifact>, PredictError> {
        self.stage_run(workload, &workload.cache_token(), transform, ratio, seed)
    }

    /// Trains (or reuses) the stage-3 cost model of `workload` under
    /// `config`.
    pub fn trained_model(
        &self,
        workload: &dyn Workload,
        config: &PredictorConfig,
    ) -> Result<Arc<TrainedModel>, PredictError> {
        self.stages(workload, &workload.cache_token(), config)
            .map(|products| products.model)
    }

    /// Executes (or reuses) the actual run of `workload` on the full graph.
    /// A failed cluster drive is a [`PredictError::Cluster`], and nothing is
    /// cached for it.
    pub fn try_actual_run(
        &self,
        workload: &dyn Workload,
    ) -> Result<Arc<WorkloadRun>, PredictError> {
        self.stage_actual(workload, workload.cache_token())
    }

    /// [`PredictionSession::try_actual_run`] for callers that cannot take a
    /// `Result` (the signature is part of the frozen benchmark adapter).
    ///
    /// # Panics
    ///
    /// Panics with the error's message when
    /// [`PredictionSession::try_actual_run`] fails.
    pub fn actual_run(&self, workload: &dyn Workload) -> Arc<WorkloadRun> {
        self.try_actual_run(workload)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Records a historical actual run. Bumps the history version, so models
    /// trained against the previous history are not reused for subsequent
    /// predictions (sampling and sample-run artifacts stay valid).
    ///
    /// Copy-on-write: in-flight predictions keep reading their snapshot of
    /// the previous store; only the first record after a snapshot clones the
    /// underlying data.
    pub fn record_history(&self, workload: &str, dataset: &str, profile: RunProfile) {
        let mut history = self.history.write().unwrap_or_else(|e| e.into_inner());
        let history = Arc::make_mut(&mut history);
        history.store.record(workload, dataset, profile);
        history.version += 1;
    }

    /// The current history version (starts at 0, +1 per recorded run).
    pub fn history_version(&self) -> u64 {
        self.history_snapshot().version
    }

    /// Cache occupancy and hit statistics.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            samples: cache_lock(&self.caches.samples).len(),
            sample_runs: cache_lock(&self.caches.runs).len(),
            models: cache_lock(&self.caches.models).len(),
            actual_runs: cache_lock(&self.caches.actuals).len(),
            hits: self.caches.hits.load(Ordering::Relaxed),
            misses: self.caches.misses.load(Ordering::Relaxed),
            scratch_allocations: self.caches.scratch.allocations(),
            store_hits: self.store.as_ref().map_or(0, StoreBinding::hits),
        }
    }

    /// The persistent artifact store this session writes through, when one
    /// was attached at bind time.
    pub fn artifact_store(&self) -> Option<&Arc<ArtifactStore>> {
        self.store.as_ref().map(StoreBinding::store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::observations_from_profile;
    use predict_algorithms::{
        ConnectedComponentsWorkload, NeighborhoodWorkload, PageRankWorkload, TopKWorkload,
    };
    use predict_bsp::{BspConfig, ClusterCostConfig};
    use predict_graph::generators::{generate_rmat, RmatConfig};

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::default()))
    }

    fn graph() -> CsrGraph {
        generate_rmat(&RmatConfig::new(11, 8).with_seed(21))
    }

    fn session(config: PredictorConfig) -> PredictionSession {
        session_with_history(config, "test", HistoryStore::new())
    }

    fn session_with_history(
        config: PredictorConfig,
        dataset: &str,
        history: HistoryStore,
    ) -> PredictionSession {
        PredictorBuilder::new()
            .engine(engine())
            .sampler(BiasedRandomJump::default())
            .config(config)
            .bind_with_history(graph(), dataset, history)
    }

    #[test]
    fn session_matches_fresh_predictor_exactly() {
        let config = PredictorConfig::default().with_seed(13);
        let workload = PageRankWorkload::with_epsilon(0.001, graph().num_vertices());
        let render = |p: &Prediction| serde_json::to_string(p).unwrap();

        // A freshly bound session has nothing cached: every stage computes.
        let fresh = render(&session(config.clone()).predict(&workload).unwrap());

        let s = session(config);
        let cold = render(&s.predict(&workload).unwrap());
        let runs = s.engine().runs_executed();
        let warm = render(&s.predict(&workload).unwrap());
        assert_eq!(s.engine().runs_executed(), runs, "warm predict re-ran");
        assert_eq!(fresh, cold);
        assert_eq!(fresh, warm, "cache hits changed the prediction bytes");
    }

    #[test]
    fn pagerank_prediction_is_reasonably_accurate() {
        let s = session(PredictorConfig::default());
        let workload = PageRankWorkload::with_epsilon(0.001, s.graph().num_vertices());
        let eval = s.evaluate(&workload).unwrap();

        assert!(eval.prediction.predicted_iterations > 3);
        assert!(
            eval.iteration_error().abs() <= 0.5,
            "iteration error {} too large ({} vs {})",
            eval.iteration_error(),
            eval.prediction.predicted_iterations,
            eval.actual_iterations
        );
        assert!(
            eval.runtime_error().abs() <= 0.6,
            "runtime error {} too large ({} vs {})",
            eval.runtime_error(),
            eval.prediction.predicted_superstep_ms,
            eval.actual_superstep_ms
        );
        assert!(eval.prediction.cost_model.r_squared() > 0.5);
    }

    #[test]
    fn sample_run_is_much_cheaper_than_actual_run() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = PageRankWorkload::with_epsilon(0.001, s.graph().num_vertices());
        let eval = s.evaluate(&workload).unwrap();
        assert!(
            eval.sample_overhead_ratio() < 0.5,
            "sample run overhead ratio {} should be well below 1",
            eval.sample_overhead_ratio()
        );
    }

    #[test]
    fn history_improves_or_matches_cost_model_fit_on_actual_runs() {
        let workload = TopKWorkload::default();

        // Record an actual run on a *different* dataset in the history store.
        let other = generate_rmat(&RmatConfig::new(10, 6).with_seed(5));
        let other_run = workload.plan(&other).run(&engine());
        let mut history = HistoryStore::new();
        history.record(workload.name(), "other", other_run.profile);

        let config = PredictorConfig::single_ratio(0.1);
        let without = session_with_history(config.clone(), "this", HistoryStore::new())
            .evaluate(&workload)
            .unwrap();
        let with = session_with_history(config, "this", history)
            .evaluate(&workload)
            .unwrap();

        // Fit quality on the actual run's own observations: history-trained
        // models have seen full-scale iterations and should not fit worse.
        let actual_obs =
            observations_from_profile(&with.actual_profile, WorkerSelection::SlowestWorker);
        let r2_without = without.prediction.cost_model.r_squared_on(&actual_obs);
        let r2_with = with.prediction.cost_model.r_squared_on(&actual_obs);
        assert!(
            r2_with >= r2_without - 0.05,
            "history should not hurt the fit: {r2_with} vs {r2_without}"
        );
    }

    #[test]
    fn leave_one_out_excludes_the_predicted_dataset() {
        let g = graph();
        let workload = PageRankWorkload::with_epsilon(0.01, g.num_vertices());
        // History contains only runs on the dataset being predicted: they
        // must be excluded, so predictions match the no-history case exactly.
        let actual = workload.plan(&g).run(&engine());
        let mut history = HistoryStore::new();
        history.record(workload.name(), "this", actual.profile);

        let config = PredictorConfig::single_ratio(0.1);
        let a = session_with_history(config.clone(), "this", HistoryStore::new())
            .predict(&workload)
            .unwrap();
        let b = session_with_history(config, "this", history)
            .predict(&workload)
            .unwrap();
        assert_eq!(a.predicted_iterations, b.predicted_iterations);
        assert!((a.predicted_superstep_ms - b.predicted_superstep_ms).abs() < 1e-9);
    }

    #[test]
    fn per_iteration_predictions_align_with_sample_iterations() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        let p = s.predict(&workload).unwrap();
        assert_eq!(p.per_iteration_ms.len(), p.predicted_iterations);
        assert_eq!(p.extrapolated_features.len(), p.predicted_iterations);
        assert!((p.per_iteration_ms.iter().sum::<f64>() - p.predicted_superstep_ms).abs() < 1e-9);
        assert!(p.extrapolator.vertex_factor > 5.0 && p.extrapolator.vertex_factor < 20.0);
    }

    #[test]
    fn empty_graph_is_rejected() {
        let s = PredictorBuilder::new()
            .engine(engine())
            .bind(CsrGraph::from_edges(0, &[]), "x");
        let workload = PageRankWorkload::with_epsilon(0.01, 1);
        let err = s.predict(&workload).unwrap_err();
        assert!(err.is_empty_sample(), "unexpected error: {err:?}");
    }

    #[test]
    fn repeated_predictions_hit_the_cache() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        s.predict(&workload).unwrap();
        let after_first = s.engine().runs_executed();
        assert!(after_first >= 1);
        let cold = s.stats();
        // The cold predict misses the sample run, its sample and the model
        // once each.
        assert_eq!((cold.hits, cold.misses), (0, 3));
        s.predict(&workload).unwrap();
        assert_eq!(
            s.engine().runs_executed(),
            after_first,
            "second prediction must not re-run the engine"
        );
        let stats = s.stats();
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.sample_runs, 1);
        assert_eq!(stats.models, 1);
        // The warm predict makes two lookups, the sample run and the model,
        // and both hit; the sample is never looked up.
        assert_eq!(stats.hits, cold.hits + 2);
        assert_eq!(stats.misses, cold.misses);
    }

    #[test]
    fn one_sampling_pass_serves_many_workloads() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let n = s.graph().num_vertices();
        let workloads: Vec<Box<dyn Workload>> = vec![
            Box::new(PageRankWorkload::with_epsilon(0.01, n)),
            Box::new(TopKWorkload::default()),
            Box::new(ConnectedComponentsWorkload),
            Box::new(NeighborhoodWorkload::default()),
        ];
        for w in &workloads {
            s.predict(w.as_ref()).unwrap();
        }
        let stats = s.stats();
        // One (ratio, seed) pair -> one sampling artifact for all workloads.
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.sample_runs, workloads.len());
        assert_eq!(stats.models, workloads.len());
    }

    #[test]
    fn config_override_shares_compatible_artifacts() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        s.predict(&workload).unwrap();
        let runs_before = s.engine().runs_executed();
        // Same (ratio, seed) and transform, different extrapolation rule:
        // sampling and the sample run are reused; only the model key differs.
        let mut other = PredictorConfig::single_ratio(0.1);
        other.extrapolation_rule = ExtrapolationRule::EdgesOnly;
        s.predict_with(&workload, &other).unwrap();
        assert_eq!(s.engine().runs_executed(), runs_before);
        assert_eq!(s.stats().sample_runs, 1);
        assert_eq!(s.stats().models, 2);
    }

    #[test]
    fn recording_history_invalidates_models_but_not_runs() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = TopKWorkload::default();
        s.predict(&workload).unwrap();
        let runs_before = s.engine().runs_executed();

        // An actual run on a different dataset becomes history.
        let other = generate_rmat(&RmatConfig::new(10, 6).with_seed(5));
        let other_run = workload.plan(&other).run(s.engine());
        let runs_after_actual = s.engine().runs_executed();
        assert!(runs_after_actual > runs_before);
        s.record_history(workload.name(), "other", other_run.profile);
        assert_eq!(s.history_version(), 1);

        let p = s.predict(&workload).unwrap();
        // The model was retrained against the new history...
        assert_eq!(p.training.history_version, 1);
        assert_eq!(p.training.source, TrainingSource::SampleRunsWithHistory);
        assert!(p.training.history_observations > 0);
        // ...but no new engine runs were needed: sample runs stayed cached.
        assert_eq!(s.engine().runs_executed(), runs_after_actual);
        assert_eq!(s.stats().models, 2);
        // Stage 3 reached directly keys and trains on the same snapshot.
        let model = s.trained_model(&workload, s.config()).unwrap();
        assert_eq!(model.provenance.history_version, 1);
        assert_eq!(s.engine().runs_executed(), runs_after_actual);
    }

    #[test]
    fn without_training_data_the_extrapolation_run_trains_the_model() {
        // training_ratios empty and no history: the only data is the
        // extrapolation sample run itself, every worker of it.
        let mut config = PredictorConfig::single_ratio(0.1);
        config.training_ratios = Vec::new();
        let s = session(config);
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        let p = s.predict(&workload).unwrap();
        assert_eq!(p.training.source, TrainingSource::ExtrapolationSampleOnly);
        let workers = p.sample_profile.num_workers;
        assert_eq!(
            p.training.sample_observations,
            p.sample_profile.supersteps.len() * workers
        );
        assert_eq!(
            p.cost_model.training_observations,
            p.training.sample_observations
        );
    }

    #[test]
    fn invalid_configs_error_instead_of_panicking() {
        let s = session(PredictorConfig::default());
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        // Every entry point of the ladder validates through it.
        let rejects = |config: &PredictorConfig| {
            let invalid = |err: PredictError| matches!(err, PredictError::InvalidConfig(_));
            invalid(s.predict_with(&workload, config).unwrap_err())
                && invalid(s.trained_model(&workload, config).unwrap_err())
                && invalid(s.evaluate_with(&workload, config).unwrap_err())
        };
        for bad in [f64::NAN, f64::INFINITY, 0.0, -0.5] {
            let config = PredictorConfig::default().with_sampling_ratio(bad);
            assert!(rejects(&config), "{bad}");
        }
        let config = PredictorConfig {
            training_ratios: vec![0.1, f64::NAN],
            ..Default::default()
        };
        assert!(rejects(&config));
        assert_eq!(s.engine().runs_executed(), 0, "a rejected config ran");
    }

    #[test]
    fn evaluate_reuses_the_cached_actual_run() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        let a = s.evaluate(&workload).unwrap();
        let runs = s.engine().runs_executed();
        let b = s.evaluate(&workload).unwrap();
        assert_eq!(s.engine().runs_executed(), runs);
        assert_eq!(a.actual_iterations, b.actual_iterations);
        assert_eq!(a.actual_superstep_ms, b.actual_superstep_ms);
        assert!(a.sample_overhead_ratio() < 1.0);
    }

    #[test]
    fn zero_cost_actual_run_reports_nan_overhead() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        let mut eval = s.evaluate(&workload).unwrap();
        eval.actual_total_ms = 0.0;
        assert!(eval.sample_overhead_ratio().is_nan());
    }

    #[test]
    fn predictions_serialize_to_json() {
        let s = session(PredictorConfig::single_ratio(0.1));
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        let eval = s.evaluate(&workload).unwrap();
        let json = serde_json::to_string(&eval).unwrap();
        assert!(json.contains("predicted_superstep_ms"));
        assert!(json.contains("training"));
        // Deterministic writer: serializing twice is byte-identical.
        assert_eq!(json, serde_json::to_string(&eval).unwrap());
    }

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let a = PredictorConfig::default();
        assert_eq!(a.fingerprint(), PredictorConfig::default().fingerprint());
        assert_ne!(a.fingerprint(), a.clone().with_seed(1).fingerprint());
        assert_ne!(
            a.fingerprint(),
            a.clone().with_sampling_ratio(0.2).fingerprint()
        );
    }

    #[test]
    fn the_model_cache_keys_every_config_field_and_store_keys_never_move() {
        let base = PredictorConfig::single_ratio(0.1);
        let s = session(base.clone());
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());
        let models = |s: &PredictionSession| s.stats().models;
        s.trained_model(&workload, &base).unwrap();
        assert_eq!(models(&s), 1);

        // One variant per field of `PredictorConfig`, each differing from
        // `base` there alone: each misses.
        let vary = |change: &dyn Fn(&mut PredictorConfig)| {
            let mut config = base.clone();
            change(&mut config);
            config
        };
        let variants = [
            vary(&|c| c.sampling_ratio = 0.2),
            vary(&|c| c.training_ratios = vec![0.1, 0.2]),
            vary(&|c| c.seed += 1),
            vary(&|c| c.worker_selection = WorkerSelection::MeanWorker),
            vary(&|c| c.transform = Some(TransformFunction::identity())),
            vary(&|c| c.extrapolation_rule = ExtrapolationRule::EdgesOnly),
        ];
        for (i, config) in variants.iter().enumerate() {
            assert_ne!(config.identity(), base.identity(), "variant {i}");
            s.trained_model(&workload, config).unwrap();
            assert_eq!(models(&s), 2 + i, "variant {i} hit another config's model");
        }
        // An equal config built independently hits.
        let before = s.stats();
        let model = s
            .trained_model(&workload, &PredictorConfig::single_ratio(0.1))
            .unwrap();
        assert_eq!(models(&s), 1 + variants.len());
        assert_eq!(
            (s.stats().hits, s.stats().misses),
            (before.hits + 2, before.misses),
            "the sample run and the model hit, and the sample is never looked up"
        );
        assert!(Arc::ptr_eq(
            &model,
            &s.trained_model(&workload, &base).unwrap()
        ));

        // Store keys, pinned as the literals the formatted in-memory keys
        // rendered: an in-memory key change must never re-key the store. A
        // model's key carries the config's fingerprint, so it moves with the
        // config's fields; sample and run keys never move.
        let sample = SampleKey::new("BRJ", 0.1, 7);
        let pagerank = PageRankWorkload::with_epsilon(0.001, 1000);
        let token = pagerank.cache_token();
        let transform = TransformFunction::default_for(pagerank.convergence());
        let config = PredictorConfig::single_ratio(0.1).with_seed(7);
        assert_eq!(sample.store_key(), "BRJ:3fb999999999999a:0000000000000007");
        assert_eq!(
            RunKey::new(sample.clone(), &token, transform).store_key(),
            "BRJ:3fb999999999999a:0000000000000007|PR#PageRankWorkload { params: \
             PageRankParams { damping: 0.85, tolerance: 1e-6 } }|TransformFunction { rule: \
             InverseSamplingRatio }"
        );
        assert_eq!(
            ModelKey::new(&token, &config, 3).store_key("BRJ", &config),
            "BRJ|PR#PageRankWorkload { params: PageRankParams { damping: 0.85, tolerance: \
             1e-6 } }|670631cb418e98cc|0000000000000003"
        );
    }

    #[test]
    fn a_failed_socket_drive_is_a_typed_error_from_try_actual_run() {
        use predict_bsp::TransportMode;
        use predict_cluster::{checkin, checkout, protocol::tag, TransportKind};
        // No other test of this binary drives a socket group, so the
        // process-global group pool holds only what this test put there.
        const WORKERS: usize = 3;
        // Shuts one worker of a pooled socket group down behind the pool's
        // back, so the next drive finds it gone. Without a `cluster_worker`
        // binary the drive fails to spawn its group instead.
        let poison = || {
            if let Ok(mut group) = checkout(TransportKind::Socket, WORKERS) {
                group.connections[1].send(tag::SHUTDOWN, &[]).unwrap();
                checkin(group);
            }
        };
        let socket = BspConfig::with_workers(WORKERS).with_transport(TransportMode::Socket);
        let s = PredictorBuilder::new()
            .engine(BspEngine::new(socket))
            .sampler(BiasedRandomJump::default())
            .config(PredictorConfig::single_ratio(0.1))
            .bind(generate_rmat(&RmatConfig::new(8, 4).with_seed(5)), "socket");
        let workload = PageRankWorkload::with_epsilon(0.01, s.graph().num_vertices());

        poison();
        match s.try_actual_run(&workload).err() {
            Some(PredictError::Cluster(_)) => {}
            other => panic!("expected PredictError::Cluster, got {other:?}"),
        }
        assert_eq!(s.stats().actual_runs, 0, "a failed run was cached");
        // The frozen signature turns the same failure into a panic.
        poison();
        let run = std::panic::AssertUnwindSafe(|| s.actual_run(&workload));
        assert!(std::panic::catch_unwind(run).is_err());
    }
}
