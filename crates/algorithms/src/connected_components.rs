//! Connected components by minimum-label propagation.
//!
//! Labels every vertex with the smallest vertex id of its (weakly) connected
//! component by propagating the smallest id seen so far along edges. The
//! number of active vertices shrinks rapidly after the first iterations while
//! long chains keep a few vertices active for many more — the paper cites
//! this "sparse computation" behaviour (section 1) as the reason per-iteration
//! runtimes can vary by orders of magnitude. The algorithm runs to a fixed
//! point (no tunable convergence threshold).

use predict_bsp::{
    BspEngine, ComputeContext, InitContext, MessageCombiner, MinCombiner, VertexProgram,
};
use predict_graph::{CsrGraph, VertexId};

/// Aggregator counting label updates per superstep.
pub const UPDATES_AGGREGATOR: &str = "cc/updates";

/// The connected-components vertex program.
///
/// For weakly connected components of a directed graph, run it on the
/// undirected (mirrored) version of the graph, as
/// [`crate::workload::ConnectedComponentsWorkload`] does.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectedComponents;

impl ConnectedComponents {
    /// Runs the program and returns per-vertex component labels plus the run
    /// profile.
    pub fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> ConnectedComponentsResult {
        let result = engine.run(graph, self);
        ConnectedComponentsResult {
            labels: result.values,
            iterations: result.profile.num_iterations(),
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Output of a connected-components run.
#[derive(Debug, Clone)]
pub struct ConnectedComponentsResult {
    /// Component label (smallest reachable vertex id) of every vertex.
    pub labels: Vec<VertexId>,
    /// Number of supersteps executed.
    pub iterations: usize,
    /// Full run profile.
    pub profile: predict_bsp::RunProfile,
    /// Why the run terminated.
    pub halt_reason: predict_bsp::HaltReason,
}

impl ConnectedComponentsResult {
    /// Number of distinct components found.
    pub fn num_components(&self) -> usize {
        let mut labels = self.labels.clone();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }
}

impl VertexProgram for ConnectedComponents {
    type VertexValue = VertexId;
    type Message = VertexId;

    fn name(&self) -> &'static str {
        "connected-components"
    }

    fn init_vertex(&self, vertex: VertexId, _ctx: &InitContext<'_>) -> VertexId {
        vertex
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, VertexId, VertexId>, messages: &[VertexId]) {
        if ctx.superstep == 0 {
            // Seed the propagation with the vertex's own id.
            let own = *ctx.value;
            ctx.send_to_all_neighbors(own);
            ctx.vote_to_halt();
            return;
        }
        let incoming_min = messages.iter().copied().min().unwrap_or(VertexId::MAX);
        if incoming_min < *ctx.value {
            *ctx.value = incoming_min;
            ctx.aggregate(UPDATES_AGGREGATOR, 1.0);
            ctx.send_to_all_neighbors(incoming_min);
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, _msg: &VertexId) -> u64 {
        4
    }

    /// Only the smallest incoming label matters.
    fn combiner(&self) -> Option<impl MessageCombiner<VertexId>> {
        Some(MinCombiner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{BspConfig, ClusterCostConfig, HaltReason};
    use predict_graph::generators::{chain, generate_rmat, RmatConfig};
    use predict_graph::properties::weakly_connected_components;
    use predict_graph::EdgeList;

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    fn undirected(graph: &CsrGraph) -> CsrGraph {
        CsrGraph::from_edge_list(&graph.to_edge_list().to_undirected())
    }

    #[test]
    fn two_components_get_two_labels() {
        // 0 - 1 - 2 and 3 - 4, undirected.
        let el: EdgeList = [(0u32, 1u32), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]
            .into_iter()
            .collect();
        let g = CsrGraph::from_edge_list(&el);
        let result = ConnectedComponents.run(&engine(), &g);
        assert_eq!(result.labels[0], 0);
        assert_eq!(result.labels[1], 0);
        assert_eq!(result.labels[2], 0);
        assert_eq!(result.labels[3], 3);
        assert_eq!(result.labels[4], 3);
        assert_eq!(result.num_components(), 2);
        assert_eq!(result.halt_reason, HaltReason::AllVerticesHalted);
    }

    #[test]
    fn matches_bfs_based_reference_on_random_graph() {
        let g = undirected(&generate_rmat(&RmatConfig::new(8, 4).with_seed(7)));
        let result = ConnectedComponents.run(&engine(), &g);
        let reference = weakly_connected_components(&g);
        // Same partition into components: two vertices share a BSP label iff
        // they share a reference label.
        for v in g.vertices() {
            for u in g.vertices().take(200) {
                let same_bsp = result.labels[v as usize] == result.labels[u as usize];
                let same_ref = reference[v as usize] == reference[u as usize];
                assert_eq!(same_bsp, same_ref, "vertices {v} and {u} disagree");
            }
        }
    }

    #[test]
    fn chain_requires_length_proportional_iterations() {
        // Label 0 has to travel the whole chain, one hop per superstep.
        let g = undirected(&chain(64));
        let result = ConnectedComponents.run(&engine(), &g);
        assert!(
            result.iterations >= 63,
            "got only {} iterations",
            result.iterations
        );
        assert!(result.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn active_vertices_shrink_over_time() {
        // The paper's runtime-variability observation: after the first few
        // supersteps only a small frontier keeps updating.
        let g = undirected(&generate_rmat(&RmatConfig::new(9, 4).with_seed(3)));
        let result = ConnectedComponents.run(&engine(), &g);
        let totals = result.profile.per_superstep_totals();
        assert!(totals.len() >= 3);
        let first = totals[0].active_vertices;
        let last = totals[totals.len() - 1].active_vertices;
        assert!(
            last < first / 4,
            "active vertices should collapse: {first} -> {last}"
        );
    }

    #[test]
    fn isolated_vertices_keep_their_own_label() {
        let mut el = EdgeList::new();
        el.push(0, 1);
        el.push(1, 0);
        el.ensure_vertices(4);
        let g = CsrGraph::from_edge_list(&el);
        let result = ConnectedComponents.run(&engine(), &g);
        assert_eq!(result.labels[2], 2);
        assert_eq!(result.labels[3], 3);
        assert_eq!(result.num_components(), 3);
    }
}
