//! The scratch-reuse contract: threading one `SampleScratch` through many
//! draws — across techniques, ratios, seeds and even different graphs — must
//! produce exactly the selections a fresh scratch per draw produces. This is
//! what lets `PredictionSession` reuse one allocation for every sample it
//! draws without any observable effect.

use predict_graph::generators::{
    generate_bipartite, generate_grid_road, generate_rmat, BipartiteConfig, GridRoadConfig,
    RmatConfig,
};
use predict_graph::CsrGraph;
use predict_sampling::{BiasedRandomJump, Mhrw, RandomJump, RandomNode, SampleScratch, Sampler};

fn samplers() -> Vec<Box<dyn Sampler>> {
    vec![
        Box::new(BiasedRandomJump::default()),
        Box::new(RandomJump::default()),
        Box::new(Mhrw::default()),
        Box::new(RandomNode),
    ]
}

fn graphs() -> Vec<CsrGraph> {
    vec![
        generate_rmat(&RmatConfig::new(10, 8).with_seed(5)),
        generate_grid_road(&GridRoadConfig::new(24, 24).with_seed(5)),
        generate_bipartite(&BipartiteConfig::new(600, 120, 4000).with_seed(5)),
    ]
}

#[test]
fn reused_scratch_matches_fresh_scratch_across_draws() {
    // One dirty scratch threaded through every (graph, sampler, ratio, seed)
    // combination, in an order that changes the universe size between draws.
    let mut scratch = SampleScratch::new();
    for graph in &graphs() {
        for sampler in samplers() {
            for (ratio, seed) in [(0.05, 1u64), (0.2, 7), (0.5, 1), (0.05, 2)] {
                let reused = sampler.sample_vertices_with(graph, ratio, seed, &mut scratch);
                let fresh = sampler.sample_vertices(graph, ratio, seed);
                assert_eq!(
                    reused,
                    fresh,
                    "{} at ratio {ratio} seed {seed} diverged with a reused scratch",
                    sampler.name()
                );
            }
        }
    }
}

#[test]
fn sample_with_matches_sample() {
    let graph = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
    let mut scratch = SampleScratch::new();
    for sampler in samplers() {
        // Dirty the scratch on a different graph first.
        let other = generate_grid_road(&GridRoadConfig::new(40, 10).with_seed(1));
        let _ = sampler.sample_vertices_with(&other, 0.3, 9, &mut scratch);

        let with = sampler.sample_with(&graph, 0.1, 11, &mut scratch);
        let without = sampler.sample(&graph, 0.1, 11);
        assert_eq!(with.technique, without.technique);
        assert_eq!(with.achieved_ratio, without.achieved_ratio);
        assert_eq!(with.graph.num_vertices(), without.graph.num_vertices());
        assert_eq!(with.graph.num_edges(), without.graph.num_edges());
        for v in with.graph.vertices() {
            assert_eq!(
                with.graph.out_neighbors(v),
                without.graph.out_neighbors(v),
                "{} subgraph adjacency diverged",
                sampler.name()
            );
        }
    }
}
