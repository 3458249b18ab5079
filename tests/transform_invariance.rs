//! Integration tests for the transform function: the paper's core insight
//! that only the combination of a structure-preserving sampling technique and
//! a threshold transform preserves the number of iterations.

use predict_repro::algorithms::ConvergenceKind;
use predict_repro::predict::TransformFunction;
use predict_repro::prelude::*;

fn engine() -> BspEngine {
    BspEngine::new(BspConfig::with_workers(8))
}

#[test]
fn transform_keeps_pagerank_iterations_closer_than_no_transform() {
    // Figure 2 / section 1.1: without scaling the threshold the sample run
    // converges after a different number of iterations than the actual run.
    let session = PredictorBuilder::new()
        .engine(engine())
        .sampler(BiasedRandomJump::default())
        .bind(Dataset::Uk2002.load_small(), "UK");
    let workload = PageRankWorkload::with_epsilon(0.001, session.graph().num_vertices());
    let actual = session.actual_run(&workload).iterations() as f64;

    let error_with = |transform: Option<TransformFunction>| -> f64 {
        let mut config = PredictorConfig::single_ratio(0.1).with_seed(5);
        config.transform = transform;
        let p = session
            .predict_with(&workload, &config)
            .expect("prediction succeeds");
        (p.predicted_iterations as f64 - actual).abs() / actual
    };

    let with_transform = error_with(None);
    let without_transform = error_with(Some(TransformFunction::identity()));
    assert!(
        with_transform < without_transform,
        "default transform ({with_transform:.2}) should beat the identity transform ({without_transform:.2})"
    );
    // Without the transform the sample run keeps iterating against a
    // threshold that is 10x too tight for its size, so it overshoots badly.
    assert!(without_transform > 0.2);
}

#[test]
fn ratio_convergence_workloads_keep_their_threshold() {
    // Semi-clustering and top-k converge on ratios, so the paper's default
    // rule is the identity: the sample-run workload must carry the same
    // threshold as the actual-run workload.
    let sc = SemiClusteringWorkload::default();
    let transform = TransformFunction::default_for(sc.convergence());
    let transformed = transform.apply(&sc, 0.1);
    assert_eq!(transformed.threshold(), sc.threshold());

    let pr = PageRankWorkload::with_epsilon(0.01, 10_000);
    assert_eq!(pr.convergence(), ConvergenceKind::AbsoluteAggregate);
    let transform = TransformFunction::default_for(pr.convergence());
    let transformed = transform.apply(&pr, 0.1);
    assert!((transformed.threshold() - pr.threshold() * 10.0).abs() < 1e-15);
}

#[test]
fn transformed_sample_run_converges_in_similar_iterations_as_actual() {
    // Direct check of the invariant the transform is designed to maintain,
    // independent of the rest of the pipeline.
    let graph = Dataset::Wikipedia.load_small();
    let engine = engine();
    let sampler = BiasedRandomJump::default();
    let workload = PageRankWorkload::with_epsilon(0.001, graph.num_vertices());

    let actual_iterations = workload.plan(&graph).run(&engine).iterations();

    let sample = sampler.sample(&graph, 0.1, 3);
    let transform = TransformFunction::default_for(workload.convergence());
    let sample_workload = transform.apply(&workload, sample.achieved_ratio);
    let sample_iterations = sample_workload
        .plan(&sample.graph)
        .run(&engine)
        .iterations();

    let error =
        (sample_iterations as f64 - actual_iterations as f64).abs() / actual_iterations as f64;
    assert!(
        error <= 0.65,
        "transformed sample run iterations {sample_iterations} too far from actual {actual_iterations}"
    );
}
