//! Uniform random vertex sampling, the naive baseline.
//!
//! This is the baseline that the walk-based techniques are measured
//! against: uniform vertex selection destroys connectivity (the induced
//! subgraph of a sparse graph at a 10% vertex sample keeps roughly 1% of the
//! edges), which is exactly the failure mode the paper's sampling requirements
//! (section 3.2.1) are designed to avoid.

use crate::traits::{target_sample_size, Sampler};
use crate::visited::SampleScratch;
use predict_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Uniform random vertex sampling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RandomNode;

impl Sampler for RandomNode {
    fn name(&self) -> &'static str {
        "RN"
    }

    fn sample_vertices_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        _scratch: &mut SampleScratch,
    ) -> Vec<VertexId> {
        let target = target_sample_size(graph.num_vertices(), ratio);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut vertices: Vec<VertexId> = graph.vertices().collect();
        vertices.shuffle(&mut rng);
        vertices.truncate(target);
        vertices
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biased_random_jump::BiasedRandomJump;
    use predict_graph::generators::{generate_rmat, RmatConfig};
    use predict_graph::induced_subgraph;
    use std::collections::HashSet;

    #[test]
    fn random_node_respects_target_size() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let s = RandomNode.sample_vertices(&g, 0.1, 7);
        assert_eq!(s.len(), (g.num_vertices() as f64 * 0.1).round() as usize);
    }

    #[test]
    fn random_node_is_deterministic() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        assert_eq!(
            RandomNode.sample_vertices(&g, 0.2, 5),
            RandomNode.sample_vertices(&g, 0.2, 5)
        );
    }

    #[test]
    fn vertices_are_unique() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let s = RandomNode.sample_vertices(&g, 0.3, 9);
        let set: HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), s.len(), "RandomNode returned duplicates");
    }

    #[test]
    fn walk_based_sampling_keeps_more_edges_than_random_node() {
        // The whole point of walk-based sampling: the induced subgraph of a
        // uniform vertex sample is much sparser than a BRJ sample.
        let g = generate_rmat(&RmatConfig::new(11, 8).with_seed(31));
        let ratio = 0.1;
        let edges = |vs: &[VertexId]| induced_subgraph(&g, vs).0.num_edges();
        let rn = edges(&RandomNode.sample_vertices(&g, ratio, 3));
        let brj = edges(&BiasedRandomJump::default().sample_vertices(&g, ratio, 3));
        assert!(
            brj > rn,
            "BRJ sample should retain more edges ({brj}) than uniform vertices ({rn})"
        );
    }

    #[test]
    fn empty_and_zero_cases() {
        let empty = CsrGraph::from_edges(0, &[]);
        assert!(RandomNode.sample_vertices(&empty, 0.5, 1).is_empty());
        let g = generate_rmat(&RmatConfig::new(6, 4).with_seed(2));
        assert!(RandomNode.sample_vertices(&g, 0.0, 1).is_empty());
    }
}
