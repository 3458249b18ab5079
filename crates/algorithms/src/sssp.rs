//! Single-source shortest paths (SSSP).
//!
//! Not part of the paper's evaluation, but the canonical Pregel example and a
//! useful extra workload for exercising the engine: distances relax outward
//! from a source vertex, only vertices whose distance improved send messages,
//! and the run terminates at the fixed point. Like connected components it
//! belongs to the "sparse computation" family with highly variable
//! per-iteration work.

use predict_bsp::{
    BspEngine, ComputeContext, InitContext, MessageCombiner, MinCombiner, VertexProgram,
};
use predict_graph::{CsrGraph, VertexId};

/// Aggregator counting distance relaxations per superstep.
pub const RELAXATIONS_AGGREGATOR: &str = "sssp/relaxations";

/// The SSSP vertex program.
#[derive(Debug, Clone, Copy)]
pub struct ShortestPaths {
    /// The source vertex distances are measured from.
    pub source: VertexId,
}

impl ShortestPaths {
    /// Creates an SSSP program rooted at `source`.
    pub fn new(source: VertexId) -> Self {
        Self { source }
    }

    /// Runs the program and returns the distance of every vertex from the
    /// source (`f64::INFINITY` for unreachable vertices) plus the profile.
    pub fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> ShortestPathsResult {
        let result = engine.run(graph, self);
        ShortestPathsResult {
            distances: result.values,
            iterations: result.profile.num_iterations(),
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Output of an SSSP run.
#[derive(Debug, Clone)]
pub struct ShortestPathsResult {
    /// Distance of every vertex from the source.
    pub distances: Vec<f64>,
    /// Number of supersteps executed.
    pub iterations: usize,
    /// Full run profile.
    pub profile: predict_bsp::RunProfile,
    /// Why the run terminated.
    pub halt_reason: predict_bsp::HaltReason,
}

impl VertexProgram for ShortestPaths {
    type VertexValue = f64;
    type Message = f64;

    fn name(&self) -> &'static str {
        "sssp"
    }

    fn init_vertex(&self, vertex: VertexId, _ctx: &InitContext<'_>) -> f64 {
        if vertex == self.source {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, f64, f64>, messages: &[f64]) {
        let incoming_min = messages.iter().copied().fold(f64::INFINITY, f64::min);
        let candidate = if ctx.superstep == 0 {
            *ctx.value
        } else {
            incoming_min
        };

        if candidate < *ctx.value || (ctx.superstep == 0 && ctx.vertex == self.source) {
            if candidate < *ctx.value {
                *ctx.value = candidate;
            }
            ctx.aggregate(RELAXATIONS_AGGREGATOR, 1.0);
            let base = *ctx.value;
            let (neighbors, weights) = (ctx.out_neighbors, ctx.out_weights);
            for (i, &dst) in neighbors.iter().enumerate() {
                let weight = weights.map_or(1.0, |ws| ws[i] as f64);
                ctx.send(dst, base + weight);
            }
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, _msg: &f64) -> u64 {
        8
    }

    /// Only the shortest offered distance matters.
    fn combiner(&self) -> Option<impl MessageCombiner<f64>> {
        Some(MinCombiner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{BspConfig, ClusterCostConfig, HaltReason};
    use predict_graph::generators::{chain, generate_rmat, RmatConfig};
    use predict_graph::properties::bfs_distances_undirected;
    use predict_graph::EdgeList;

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    #[test]
    fn chain_distances_are_hop_counts() {
        let g = chain(10);
        let result = ShortestPaths::new(0).run(&engine(), &g);
        for (v, &d) in result.distances.iter().enumerate() {
            assert!((d - v as f64).abs() < 1e-12);
        }
        assert_eq!(result.halt_reason, HaltReason::AllVerticesHalted);
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let el: EdgeList = [(0u32, 1u32), (2, 3)].into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        let result = ShortestPaths::new(0).run(&engine(), &g);
        assert_eq!(result.distances[1], 1.0);
        assert!(result.distances[2].is_infinite());
        assert!(result.distances[3].is_infinite());
    }

    #[test]
    fn weighted_edges_are_respected() {
        let mut el = EdgeList::new();
        el.push_weighted(0, 1, 5.0);
        el.push_weighted(0, 2, 1.0);
        el.push_weighted(2, 1, 1.0);
        let g = CsrGraph::from_edge_list(&el);
        let result = ShortestPaths::new(0).run(&engine(), &g);
        // Path 0 -> 2 -> 1 (cost 2) beats the direct edge (cost 5).
        assert!((result.distances[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn matches_bfs_on_unweighted_symmetric_graphs() {
        let base = generate_rmat(&RmatConfig::new(7, 4).with_seed(9));
        let g = CsrGraph::from_edge_list(&base.to_edge_list().to_undirected());
        let result = ShortestPaths::new(0).run(&engine(), &g);
        let bfs = bfs_distances_undirected(&g, 0);
        for v in g.vertices() {
            let d = result.distances[v as usize];
            if bfs[v as usize] == usize::MAX {
                assert!(d.is_infinite());
            } else {
                assert!((d - bfs[v as usize] as f64).abs() < 1e-12, "vertex {v}");
            }
        }
    }
}
