//! Property-based tests for the prediction building blocks: transform rules,
//! cost models, feature selection and error metrics — plus the session
//! equivalence property: a warm `PredictionSession` and a freshly bound cold
//! one produce byte-identical predictions for the same
//! `(workload, graph, config, seed)`.

use predict_algorithms::{PageRankWorkload, TopKWorkload, Workload};
use predict_bsp::{BspConfig, BspEngine, WorkerCounters};
use predict_core::{
    absolute_relative_error, forward_select, signed_relative_error, CostModel, CostModelConfig,
    FeatureSet, IterationObservation, KeyFeature, PredictorBuilder, PredictorConfig,
    SelectionConfig, ThresholdRule, TransformFunction,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_sampling::BiasedRandomJump;
use proptest::prelude::*;

fn counters_strategy() -> impl Strategy<Value = WorkerCounters> {
    (
        1u64..10_000,
        0u64..5_000,
        0u64..5_000,
        0u64..1_000_000,
        0u64..1_000_000,
    )
        .prop_map(
            |(active, local, remote, local_bytes, remote_bytes)| WorkerCounters {
                active_vertices: active,
                total_vertices: active * 2,
                local_messages: local,
                remote_messages: remote,
                local_message_bytes: local_bytes,
                remote_message_bytes: remote_bytes,
            },
        )
}

/// Case count for this suite: the local default, bounded by `PROPTEST_CASES`
/// when set (CI sets it so the property suites finish in seconds).
///
/// Kept at the call site (not only in the vendored proptest) because the real
/// registry `proptest` ignores `PROPTEST_CASES` once `with_cases` is used;
/// this keeps the CI bound working if the workspace swaps back to it.
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(48)))]

    /// The default inverse-ratio transform always loosens the threshold for
    /// sub-unit sampling ratios, degrades to the identity at ratio 1.0, and is
    /// monotone in the ratio.
    #[test]
    fn inverse_ratio_transform_is_monotone(
        threshold in 1e-9f64..1.0,
        ratio_a in 0.01f64..1.0,
        ratio_b in 0.01f64..1.0,
    ) {
        let t = TransformFunction::new(ThresholdRule::InverseSamplingRatio);
        let at_one = t.sample_threshold(threshold, 1.0);
        prop_assert!((at_one - threshold).abs() < 1e-15);
        let a = t.sample_threshold(threshold, ratio_a);
        let b = t.sample_threshold(threshold, ratio_b);
        prop_assert!(a >= threshold && b >= threshold);
        if ratio_a < ratio_b {
            prop_assert!(a >= b);
        }
    }

    /// Signed relative error has the paper's sign convention and its magnitude
    /// equals the absolute relative error.
    #[test]
    fn error_metrics_are_consistent(predicted in 0.0f64..1e6, actual in 1e-3f64..1e6) {
        let signed = signed_relative_error(predicted, actual);
        prop_assert!((signed.abs() - absolute_relative_error(predicted, actual)).abs() < 1e-12);
        if predicted < actual {
            prop_assert!(signed < 0.0);
        } else if predicted > actual {
            prop_assert!(signed > 0.0);
        } else {
            prop_assert!(signed.abs() < 1e-12);
        }
    }

    /// Forward selection only ever returns features from the candidate pool,
    /// without duplicates and within the configured cap.
    #[test]
    fn forward_selection_respects_the_pool(
        counters in prop::collection::vec(counters_strategy(), 5..40),
        max_features in 1usize..5,
    ) {
        let observations: Vec<FeatureSet> =
            counters.iter().map(FeatureSet::from_counters).collect();
        let targets: Vec<f64> = counters
            .iter()
            .map(|c| 5.0 + 0.001 * c.remote_message_bytes as f64 + 0.01 * c.active_vertices as f64)
            .collect();
        let pool = [
            KeyFeature::ActiveVertices,
            KeyFeature::RemoteMessages,
            KeyFeature::RemoteMessageBytes,
        ];
        let config = SelectionConfig { max_features, ..Default::default() };
        let result = forward_select(&observations, &targets, &pool, &config);
        prop_assert!(result.features.len() <= max_features);
        let mut unique = result.features.clone();
        unique.dedup();
        prop_assert_eq!(unique.len(), result.features.len());
        for f in &result.features {
            prop_assert!(pool.contains(f));
        }
    }

    /// A cost model trained on observations generated by a linear cost
    /// function predicts those same observations accurately (interpolation)
    /// and scales linearly when every extrapolated feature is scaled
    /// (the property extrapolation relies on).
    #[test]
    fn cost_model_is_linear_in_features(
        counters in prop::collection::vec(counters_strategy(), 12..50),
        scale in 2.0f64..20.0,
    ) {
        let observations: Vec<IterationObservation> = counters
            .iter()
            .enumerate()
            .map(|(i, c)| IterationObservation {
                superstep: i,
                features: FeatureSet::from_counters(c),
                wall_time_ms: 10.0
                    + 0.0005 * c.remote_message_bytes as f64
                    + 0.0001 * c.local_message_bytes as f64
                    + 0.002 * c.active_vertices as f64,
            })
            .collect();
        let model = match CostModel::train(&observations, &CostModelConfig::default()) {
            Ok(m) => m,
            Err(_) => return Ok(()), // degenerate random data; nothing to check
        };
        // Interpolation accuracy on the training data.
        for o in &observations {
            let predicted = model.predict_iteration_ms(&o.features);
            prop_assert!(
                (predicted - o.wall_time_ms).abs() <= o.wall_time_ms.abs() * 0.35 + 5.0,
                "prediction {} too far from {}",
                predicted,
                o.wall_time_ms
            );
        }
        // Linearity: predicting scaled features equals scaling the
        // feature-dependent part of the prediction.
        let base = &observations[0].features;
        let mut scaled = *base;
        for f in KeyFeature::ALL {
            scaled.set(f, base.get(f) * scale);
        }
        let p_base = model.predict_iteration_ms(base);
        let p_scaled = model.predict_iteration_ms(&scaled);
        let intercept = model.model.intercept;
        let expected = intercept + (p_base - intercept) * scale;
        prop_assert!(
            (p_scaled - expected).abs() <= expected.abs() * 1e-6 + 1e-6,
            "linearity violated: {} vs {}",
            p_scaled,
            expected
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(8)))]

    /// Cache transparency: for any small graph, workload choice, sampling
    /// ratio and seed, a `PredictionSession` asked twice (so the second
    /// answer comes entirely from cached artifacts) and a freshly bound
    /// session that computes every stage produce byte-identical serialized
    /// predictions.
    #[test]
    fn cached_session_matches_fresh_predictor_byte_identically(
        graph_seed in 0u64..50,
        predict_seed in 0u64..1000,
        ratio in 0.08f64..0.4,
        use_topk in any::<bool>(),
    ) {
        let graph = generate_rmat(&RmatConfig::new(8, 5).with_seed(graph_seed));
        prop_assume!(graph.num_edges() > 0);
        let workload: Box<dyn Workload> = if use_topk {
            Box::new(TopKWorkload::default())
        } else {
            Box::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices()))
        };
        let config = PredictorConfig::single_ratio(ratio).with_seed(predict_seed);
        let engine = BspEngine::new(BspConfig::with_workers(3));

        let bind = || {
            PredictorBuilder::new()
                .engine(engine.clone())
                .sampler(BiasedRandomJump::default())
                .config(config.clone())
                .bind(graph.clone(), "ds")
        };
        let fresh = bind().predict(workload.as_ref());

        let session = bind();
        let cold = session.predict(workload.as_ref());
        let warm = session.predict(workload.as_ref());

        match (fresh, cold, warm) {
            (Ok(fresh), Ok(cold), Ok(warm)) => {
                let fresh_json = serde_json::to_string(&fresh).unwrap();
                prop_assert_eq!(&fresh_json, &serde_json::to_string(&cold).unwrap());
                prop_assert_eq!(&fresh_json, &serde_json::to_string(&warm).unwrap());
            }
            // Tiny ratios on sparse graphs may legitimately yield empty
            // samples; the two paths must at least fail identically.
            (Err(f), Err(c), Err(w)) => {
                prop_assert_eq!(&f, &c);
                prop_assert_eq!(&f, &w);
            }
            (fresh, cold, warm) => prop_assert!(
                false,
                "paths disagree on success: fresh {:?} cold {:?} warm {:?}",
                fresh.is_ok(), cold.is_ok(), warm.is_ok()
            ),
        }
    }
}
