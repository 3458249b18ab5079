//! Property-based integration tests (proptest) for the invariants the
//! pipeline relies on: sampler contracts, extrapolation arithmetic and
//! regression recovery.

use predict_repro::graph::generators::{generate_rmat, RmatConfig};
use predict_repro::predict::{Extrapolator, FeatureSet, KeyFeature, LinearModel};
use predict_repro::prelude::*;
use predict_repro::sampling::{Mhrw, RandomJump, RandomNode};
use proptest::prelude::*;

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
    #![proptest_config(ProptestConfig::with_cases(suite_cases(24)))]

    /// Every sampler returns the requested number of unique, in-range
    /// vertices for any ratio and seed.
    #[test]
    fn samplers_respect_ratio_and_uniqueness(
        scale in 6u32..9,
        degree in 2usize..6,
        ratio in 0.02f64..0.9,
        seed in 0u64..1_000,
    ) {
        let graph = generate_rmat(&RmatConfig::new(scale, degree).with_seed(seed));
        let expected = ((graph.num_vertices() as f64 * ratio).round() as usize)
            .clamp(1, graph.num_vertices());
        let brj = BiasedRandomJump::default();
        let rj = RandomJump::default();
        let mhrw = Mhrw::default();
        let rn = RandomNode;
        let samplers: [&dyn Sampler; 4] = [&brj, &rj, &mhrw, &rn];
        for sampler in samplers {
            let vertices = sampler.sample_vertices(&graph, ratio, seed);
            prop_assert_eq!(vertices.len(), expected, "{} size", sampler.name());
            let mut unique = vertices.clone();
            unique.sort_unstable();
            unique.dedup();
            prop_assert_eq!(unique.len(), vertices.len(), "{} uniqueness", sampler.name());
            prop_assert!(vertices.iter().all(|&v| (v as usize) < graph.num_vertices()));
        }
    }

    /// The induced sample graph never has more vertices/edges than the full
    /// graph and its per-vertex degrees are bounded by the originals.
    #[test]
    fn induced_samples_are_subgraphs(
        scale in 6u32..9,
        ratio in 0.05f64..0.5,
        seed in 0u64..500,
    ) {
        let graph = generate_rmat(&RmatConfig::new(scale, 5).with_seed(seed));
        let sample = BiasedRandomJump::default().sample(&graph, ratio, seed);
        prop_assert!(sample.graph.num_vertices() <= graph.num_vertices());
        prop_assert!(sample.graph.num_edges() <= graph.num_edges());
        for (s, o) in sample.mapping.iter() {
            prop_assert!(sample.graph.out_degree(s) <= graph.out_degree(o));
        }
    }

    /// Extrapolating features by (eV, eE) and scaling them back down is the
    /// identity (up to floating point).
    #[test]
    fn extrapolation_is_invertible(
        active in 1u64..100_000,
        msgs in 1u64..1_000_000,
        bytes in 1u64..100_000_000,
        ev in 1.0f64..100.0,
        ee in 1.0f64..100.0,
    ) {
        let counters = predict_repro::bsp::WorkerCounters {
            active_vertices: active,
            total_vertices: active * 2,
            local_messages: msgs / 3,
            remote_messages: msgs,
            local_message_bytes: bytes / 5,
            remote_message_bytes: bytes,
        };
        let features = FeatureSet::from_counters(&counters);
        let up = Extrapolator::new(ev, ee).extrapolate(&features);
        let down = Extrapolator::new(1.0 / ev, 1.0 / ee).extrapolate(&up);
        for f in KeyFeature::ALL {
            let original = features.get(f);
            let roundtrip = down.get(f);
            prop_assert!((original - roundtrip).abs() <= original.abs() * 1e-9 + 1e-9);
        }
    }

    /// Non-negative least squares recovers a noiseless linear relationship
    /// for arbitrary non-negative coefficients and intercept.
    #[test]
    fn regression_recovers_arbitrary_linear_models(
        intercept in 0.0f64..100.0,
        c1 in 0.0f64..10.0,
        c2 in 0.0f64..10.0,
    ) {
        let rows: Vec<(FeatureSet, f64)> = (0..40)
            .map(|i| {
                let (x1, x2) = (i as f64, ((i * 7) % 13) as f64);
                let mut features = FeatureSet::default();
                features.set(KeyFeature::ActiveVertices, x1);
                features.set(KeyFeature::TotalVertices, x2);
                (features, intercept + c1 * x1 + c2 * x2)
            })
            .collect();
        let model = LinearModel::fit(rows.iter().copied()).unwrap();
        prop_assert!((model.intercept - intercept).abs() < 1e-6);
        prop_assert!((model.coefficients[0] - c1).abs() < 1e-6);
        prop_assert!((model.coefficients[1] - c2).abs() < 1e-6);
    }
}
