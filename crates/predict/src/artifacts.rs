//! First-class artifacts of the decomposed prediction pipeline.
//!
//! A prediction is assembled from three expensive intermediate products, each
//! of which is independently constructible, serializable and reusable across
//! predictions:
//!
//! 1. [`SampleArtifact`] — the sampled graph with its achieved ratio and full
//!    seed provenance (stage 1, keyed by [`SampleKey`]);
//! 2. [`SampleRunArtifact`] — the profile of the transformed workload
//!    executed on a sample graph, plus the sample's [`SampleScale`] (stage 2,
//!    keyed by [`RunKey`]);
//! 3. [`TrainedModel`] — a cost model plus the [`TrainingProvenance`]
//!    describing what it was trained on (stage 3, keyed by [`ModelKey`]).
//!
//! [`crate::PredictionSession`] caches all three so repeated predictions on
//! one dataset — the scheduler pattern the paper targets — amortize the
//! sample runs, which dominate prediction cost. The keys capture exactly the
//! inputs that influence each stage: sampling is deterministic in
//! `(sampler, ratio, seed)`, a sample run additionally depends on the
//! workload configuration and the transform rule, and a trained model
//! depends on the whole predictor configuration plus the history version.
//! A sample run carries the few numbers a prediction reads from its sample
//! (the [`SampleScale`]), so a prediction whose run is cached never needs
//! the sample graph itself.
//! In memory the keys compare and hash by value — floats by bit pattern,
//! nothing formatted; each renders a string only as its store key, after a
//! memory miss.

use crate::cost_model::CostModel;
use crate::critical_path::{observations_from_profile, WorkerSelection};
use crate::error::PredictError;
use crate::extrapolator::Extrapolator;
use crate::features::FeatureSet;
use crate::session::{ConfigIdentity, PredictorConfig};
use crate::transform::TransformFunction;
use predict_algorithms::Workload;
use predict_bsp::{BspEngine, HaltReason, RunProfile};
use predict_graph::CsrGraph;
use predict_sampling::{GraphSample, Sampler};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// Cache key of a sampling-stage artifact: sampling is deterministic in the
/// `(technique, ratio, seed)` triple, so two draws with equal keys produce
/// identical samples. The ratio is stored by its bit pattern so the key is
/// hashable and exact (no epsilon comparisons).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SampleKey {
    sampler: String,
    ratio_bits: u64,
    seed: u64,
}

impl SampleKey {
    /// Builds the key for a draw of `sampler` at `ratio` with `seed`.
    pub fn new(sampler: &str, ratio: f64, seed: u64) -> Self {
        Self {
            sampler: sampler.to_string(),
            ratio_bits: ratio.to_bits(),
            seed,
        }
    }

    /// Name of the sampling technique.
    pub fn sampler(&self) -> &str {
        &self.sampler
    }

    /// The requested sampling ratio.
    pub fn ratio(&self) -> f64 {
        f64::from_bits(self.ratio_bits)
    }

    /// The seed that drove the sampler.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Stable textual rendering of this key for the persistent artifact
    /// store: exact (ratio by bit pattern) and process-independent.
    pub fn store_key(&self) -> String {
        format!(
            "{}:{:016x}:{:016x}",
            self.sampler, self.ratio_bits, self.seed
        )
    }
}

/// What a prediction reads from a sample: the vertex and edge counts of the
/// full graph and of the sample, and the ratio the sampler achieved. A
/// [`SampleArtifact`] derives it from its graph, and a [`SampleRunArtifact`]
/// carries a copy, so both compute the extrapolation factors and the
/// transform's ratio through the same two methods.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleScale {
    /// Vertex count of the full graph the sample was drawn from.
    pub full_vertices: usize,
    /// Edge count of the full graph the sample was drawn from.
    pub full_edges: usize,
    /// Vertex count of the sample.
    pub sample_vertices: usize,
    /// Edge count of the sample.
    pub sample_edges: usize,
    /// The ratio the sampler actually achieved.
    pub achieved_ratio: f64,
}

impl SampleScale {
    /// The achieved ratio clamped into `(0, 1]`, the domain the transform
    /// function accepts.
    pub fn clamped_ratio(&self) -> f64 {
        self.achieved_ratio.clamp(f64::MIN_POSITIVE, 1.0)
    }

    /// The extrapolation factors from the sample to the full graph.
    pub fn extrapolator(&self) -> Extrapolator {
        Extrapolator::from_counts(
            self.full_vertices,
            self.full_edges,
            self.sample_vertices,
            self.sample_edges,
        )
    }
}

/// Stage-1 artifact: a drawn sample of the bound dataset, with enough
/// provenance to rebuild the extrapolation factors without the full graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleArtifact {
    /// The `(sampler, ratio, seed)` triple that produced this artifact.
    pub key: SampleKey,
    /// The sample itself: induced subgraph, id mapping and achieved ratio.
    pub sample: GraphSample,
    /// Vertex count of the full graph the sample was drawn from.
    pub full_vertices: usize,
    /// Edge count of the full graph the sample was drawn from.
    pub full_edges: usize,
}

impl SampleArtifact {
    /// Draws a sample of `graph`, failing with [`PredictError::EmptySample`]
    /// when the induced subgraph has no vertices or edges.
    pub fn draw(
        sampler: &dyn Sampler,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
    ) -> Result<Self, PredictError> {
        Self::draw_with(
            sampler,
            graph,
            ratio,
            seed,
            &mut predict_sampling::SampleScratch::new(),
        )
    }

    /// [`SampleArtifact::draw`] reusing `scratch` for the sampler walk, so a
    /// session drawing many samples amortizes the visited-set and buffer
    /// allocations (the scratch never changes the drawn sample).
    pub fn draw_with(
        sampler: &dyn Sampler,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut predict_sampling::SampleScratch,
    ) -> Result<Self, PredictError> {
        let sample = sampler.sample_with(graph, ratio, seed, scratch);
        if sample.graph.num_vertices() == 0 || sample.graph.num_edges() == 0 {
            return Err(PredictError::EmptySample {
                technique: sampler.name().to_string(),
                ratio,
                seed,
            });
        }
        Ok(Self {
            key: SampleKey::new(sampler.name(), ratio, seed),
            full_vertices: graph.num_vertices(),
            full_edges: graph.num_edges(),
            sample,
        })
    }

    /// The ratio the sampler actually achieved.
    pub fn achieved_ratio(&self) -> f64 {
        self.sample.achieved_ratio
    }

    /// The counts and ratio a prediction reads from this sample.
    pub fn scale(&self) -> SampleScale {
        SampleScale {
            full_vertices: self.full_vertices,
            full_edges: self.full_edges,
            sample_vertices: self.sample.graph.num_vertices(),
            sample_edges: self.sample.graph.num_edges(),
            achieved_ratio: self.sample.achieved_ratio,
        }
    }

    /// [`SampleScale::clamped_ratio`] of this sample.
    pub fn clamped_ratio(&self) -> f64 {
        self.scale().clamped_ratio()
    }

    /// [`SampleScale::extrapolator`] of this sample.
    pub fn extrapolator(&self) -> Extrapolator {
        self.scale().extrapolator()
    }
}

/// Cache key of a sample-run artifact: the sample it ran on, the workload
/// configuration (via [`Workload::cache_token`]) and the transform rule that
/// rescaled the convergence threshold. Compared and hashed structurally; only
/// [`RunKey::store_key`] renders it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Key of the sample graph the run executed on.
    pub sample: SampleKey,
    /// The workload's [`Workload::cache_token`].
    pub workload: String,
    /// The transform function (exact: its parameters compare by bit
    /// pattern).
    pub transform: TransformFunction,
}

impl RunKey {
    /// Builds the key for the workload whose [`Workload::cache_token`] is
    /// `workload`, run on the sample identified by `sample` under
    /// `transform`.
    pub fn new(sample: SampleKey, workload: &str, transform: TransformFunction) -> Self {
        Self {
            sample,
            workload: workload.to_string(),
            transform,
        }
    }

    /// Stable textual rendering of this key for the persistent artifact
    /// store (the transform by its `Debug` rendering).
    pub fn store_key(&self) -> String {
        format!(
            "{}|{}|{:?}",
            self.sample.store_key(),
            self.workload,
            self.transform
        )
    }
}

/// Stage-2 artifact: the profile of one transformed workload execution on a
/// sample graph — the "sample run" the paper's methodology revolves around —
/// and the scale of that sample, which is all a prediction reads from it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleRunArtifact {
    /// Key of the sample the run executed on.
    pub sample_key: SampleKey,
    /// Counts and achieved ratio of the sample the run executed on.
    pub scale: SampleScale,
    /// The workload's cache token.
    pub workload: String,
    /// The transformed convergence threshold the sample run used.
    pub transformed_threshold: f64,
    /// Full profile of the run.
    pub profile: RunProfile,
    /// Why the run terminated.
    pub halt_reason: HaltReason,
}

impl SampleRunArtifact {
    /// Executes `workload` on the sample graph with its threshold rescaled by
    /// `transform` at the sample's achieved ratio, profiling the run. The run
    /// goes through `predict_cluster::run_workload` like the actual run does,
    /// so it fails only when the engine places it on a cluster transport and
    /// the drive fails.
    pub fn execute(
        engine: &BspEngine,
        workload: &dyn Workload,
        transform: TransformFunction,
        sample: &SampleArtifact,
    ) -> Result<Self, PredictError> {
        let scale = sample.scale();
        let sample_workload = transform.apply(workload, scale.clamped_ratio());
        let run =
            predict_cluster::run_workload(engine, sample_workload.as_ref(), &sample.sample.graph)?;
        Ok(Self {
            sample_key: sample.key.clone(),
            scale,
            workload: workload.cache_token(),
            transformed_threshold: sample_workload.threshold(),
            profile: run.profile,
            halt_reason: run.halt_reason,
        })
    }

    /// Number of iterations (supersteps) the run executed.
    pub fn iterations(&self) -> usize {
        self.profile.num_iterations()
    }

    /// Per-iteration observations: the features of the worker that
    /// `selection` picks in each superstep. Derived on demand so one cached
    /// profile serves every selection strategy.
    pub fn observations(&self, selection: WorkerSelection) -> Vec<FeatureSet> {
        observations_from_profile(&self.profile, selection)
    }
}

/// What a [`TrainedModel`] was trained on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainingSource {
    /// Sample runs at the configured training ratios only.
    SampleRuns,
    /// Sample runs plus historical actual runs on other datasets.
    SampleRunsWithHistory,
    /// Every training ratio yielded an empty sample and no history was
    /// available, so the model was trained on the workers of the
    /// extrapolation sample run itself. Predictions from such a model
    /// extrapolate from the very run the model was fit on.
    ExtrapolationSampleOnly,
}

/// Provenance of a trained cost model: where its training rows came from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingProvenance {
    /// Which data sources contributed training rows.
    pub source: TrainingSource,
    /// Worker rows contributed by sample runs (including the fallback
    /// case): one per worker of every superstep.
    pub sample_observations: usize,
    /// Worker rows contributed by historical actual runs.
    pub history_observations: usize,
    /// Version of the history store the model was trained against.
    pub history_version: u64,
    /// The training ratios that were configured (not all necessarily yielded
    /// a non-empty sample).
    pub training_ratios: Vec<f64>,
}

/// Stage-3 artifact: a trained cost model plus its training provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedModel {
    /// The fitted cost model.
    pub cost_model: CostModel,
    /// What the model was trained on.
    pub provenance: TrainingProvenance,
}

/// Cache key of a trained model: workload configuration, the exact identity
/// of the full predictor configuration, and the history version the training
/// set was assembled against. Compared and hashed structurally; only
/// [`ModelKey::store_key`] renders (and fingerprints) anything.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// The workload's [`Workload::cache_token`].
    pub workload: String,
    /// Every field of the predictor configuration (see
    /// [`PredictorConfig::identity`]).
    pub config: ConfigIdentity,
    /// Version of the session's history store.
    pub history_version: u64,
}

impl ModelKey {
    /// Builds the key for the workload whose [`Workload::cache_token`] is
    /// `workload`, trained under `config` against history `history_version`.
    pub fn new(workload: &str, config: &PredictorConfig, history_version: u64) -> Self {
        Self {
            workload: workload.to_string(),
            config: config.identity(),
            history_version,
        }
    }

    /// Stable textual rendering of this key for the persistent artifact
    /// store: `sampler|workload|fingerprint|history version`, where `config`
    /// is the configuration the key was built from and `fingerprint` its
    /// [`PredictorConfig::fingerprint`]. The sampler is part of the store key
    /// because the store is shared by every session of a process, while an
    /// in-memory cache lives inside one single-sampler session. History
    /// replay is deterministic, so equal versions identify equal training
    /// sets across restarts.
    pub fn store_key(&self, sampler: &str, config: &PredictorConfig) -> String {
        debug_assert!(
            config.identity() == self.config,
            "a model's store key renders the config its key was built from"
        );
        format!(
            "{sampler}|{}|{:016x}|{:016x}",
            self.workload,
            config.fingerprint(),
            self.history_version
        )
    }
}

/// Stable FNV-1a hash used for configuration fingerprints — deterministic
/// across processes, unlike `DefaultHasher`'s unspecified algorithm.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Fingerprints any hashable value with the crate's stable hasher.
pub(crate) fn stable_fingerprint<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = Fnv1a::new();
    value.hash(&mut hasher);
    Hasher::finish(&hasher)
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_algorithms::PageRankWorkload;
    use predict_bsp::BspConfig;
    use predict_graph::generators::{generate_rmat, RmatConfig};
    use predict_sampling::BiasedRandomJump;

    fn graph() -> CsrGraph {
        generate_rmat(&RmatConfig::new(9, 6).with_seed(3))
    }

    #[test]
    fn sample_keys_are_exact_in_ratio_and_seed() {
        let a = SampleKey::new("BRJ", 0.1, 7);
        let b = SampleKey::new("BRJ", 0.1, 7);
        assert_eq!(a, b);
        assert_ne!(a, SampleKey::new("RJ", 0.1, 7));
        assert_ne!(a, SampleKey::new("BRJ", 0.2, 7));
        assert_ne!(a, SampleKey::new("BRJ", 0.1, 8));
        assert_eq!(a.ratio(), 0.1);
        assert_eq!(a.seed(), 7);
        assert_eq!(a.sampler(), "BRJ");
    }

    #[test]
    fn draw_produces_reusable_artifacts() {
        let g = graph();
        let sampler = BiasedRandomJump::default();
        let a = SampleArtifact::draw(&sampler, &g, 0.2, 11).unwrap();
        assert!(a.sample.graph.num_vertices() > 0);
        assert!(a.achieved_ratio() > 0.0 && a.achieved_ratio() <= 1.0);
        assert_eq!(a.full_vertices, g.num_vertices());
        let e = a.extrapolator();
        assert!(e.vertex_factor > 1.0 && e.edge_factor >= 1.0);
        // Identical draw parameters produce an identical artifact.
        let b = SampleArtifact::draw(&sampler, &g, 0.2, 11).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.achieved_ratio(), b.achieved_ratio());
    }

    #[test]
    fn empty_draw_is_an_error_with_provenance() {
        let g = CsrGraph::from_edges(0, &[]);
        let sampler = BiasedRandomJump::default();
        let err = SampleArtifact::draw(&sampler, &g, 0.5, 3).unwrap_err();
        match err {
            PredictError::EmptySample {
                technique,
                ratio,
                seed,
            } => {
                assert_eq!(technique, "BRJ");
                assert_eq!(ratio, 0.5);
                assert_eq!(seed, 3);
            }
            other => panic!("expected EmptySample, got {other:?}"),
        }
    }

    #[test]
    fn sample_run_artifact_profiles_the_transformed_workload() {
        let g = graph();
        let sampler = BiasedRandomJump::default();
        let engine = BspEngine::new(BspConfig::with_workers(4));
        let workload = PageRankWorkload::with_epsilon(0.01, g.num_vertices());
        let sample = SampleArtifact::draw(&sampler, &g, 0.2, 5).unwrap();
        let transform = TransformFunction::default_for(workload.convergence());
        let run = SampleRunArtifact::execute(&engine, &workload, transform, &sample).unwrap();
        assert!(run.iterations() >= 2);
        assert!(run.transformed_threshold > workload.threshold());
        assert_eq!(run.sample_key, sample.key);
        assert_eq!(run.scale, sample.scale());
        assert!(!run.observations(WorkerSelection::SlowestWorker).is_empty());
    }

    #[test]
    fn run_keys_distinguish_workload_configurations() {
        let g = graph();
        let sampler = BiasedRandomJump::default();
        let sample = SampleArtifact::draw(&sampler, &g, 0.2, 5).unwrap();
        let pr_a = PageRankWorkload::with_epsilon(0.01, g.num_vertices());
        let pr_b = PageRankWorkload::with_epsilon(0.001, g.num_vertices());
        let t = TransformFunction::default_for(pr_a.convergence());
        let (a, b) = (pr_a.cache_token(), pr_b.cache_token());
        assert_ne!(
            RunKey::new(sample.key.clone(), &a, t),
            RunKey::new(sample.key.clone(), &b, t)
        );
        assert_eq!(
            RunKey::new(sample.key.clone(), &a, t),
            RunKey::new(sample.key.clone(), &a, t)
        );
        assert_ne!(
            RunKey::new(sample.key.clone(), &a, t),
            RunKey::new(sample.key.clone(), &a, TransformFunction::identity())
        );
    }

    /// The stored form of a sample holds only what was sampled: the
    /// subgraph's out-adjacency, the forward id mapping and the ratios. The
    /// literals pin the encoded tree (bytes and checksum) and the column
    /// section of one fixed draw, so neither the in-adjacency nor the
    /// inverse id map can creep back into the store unnoticed.
    #[test]
    fn stored_sample_holds_only_what_it_samples() {
        let artifact =
            SampleArtifact::draw(&BiasedRandomJump::default(), &graph(), 0.2, 11).unwrap();
        let value = artifact.serialize_value();
        let keys = |v: &serde::Value| -> Vec<String> {
            v.as_map().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        // `SampleArtifact.sample` holds `graph`, then `mapping`.
        let sample = value.as_map().unwrap()[1].1.as_map().unwrap();
        assert_eq!(
            keys(&sample[0].1),
            ["num_vertices", "out_offsets", "out_targets", "out_weights"]
        );
        assert_eq!(keys(&sample[1].1), ["to_original", "num_original"]);
        let encoded = predict_store::encode_value(&value);
        let mut checksum = predict_store::Checksum::default();
        checksum.update(&encoded.tree);
        assert_eq!(
            (encoded.tree.len(), encoded.columns.len(), checksum.finish()),
            (414, 1208, 0xd59f_f39e_d469_d9a4)
        );
    }

    /// A model stored before the cost model dropped its R² still carries an
    /// `r_squared` field; it decodes to the same model (fields are looked up
    /// by name), so such a store stays warm without a schema bump.
    #[test]
    fn stored_model_with_r_squared_decodes_to_the_same_model() {
        let stored = |model_extra: &str| {
            format!(
                r#"{{"cost_model": {{"model": {{"coefficients": [0.5, 0.0, 0.25, 0.0, 0.0, 0.0, 2.0],
                "intercept": 1.5{model_extra}}}, "fixed_ms": 3.0, "training_observations": 40}},
                "provenance": {{"source": "SampleRuns", "sample_observations": 40,
                "history_observations": 0, "history_version": 2, "training_ratios": [0.1, 0.2]}}}}"#
            )
        };
        let with: TrainedModel = serde_json::from_str(&stored(r#", "r_squared": 0.999"#)).unwrap();
        let without: TrainedModel = serde_json::from_str(&stored("")).unwrap();
        let expected = CostModel {
            model: crate::LinearModel {
                coefficients: [0.5, 0.0, 0.25, 0.0, 0.0, 0.0, 2.0],
                intercept: 1.5,
            },
            fixed_ms: 3.0,
            training_observations: 40,
        };
        assert_eq!(with.cost_model, expected);
        assert_eq!(with.cost_model, without.cost_model);
        assert_eq!(with.provenance, without.provenance);
    }

    #[test]
    fn stable_fingerprint_is_deterministic_and_sensitive() {
        let a = stable_fingerprint("hello");
        assert_eq!(a, stable_fingerprint("hello"));
        assert_ne!(a, stable_fingerprint("hellp"));
    }
}
