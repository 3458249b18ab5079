//! PageRank — the paper's constant-per-iteration-runtime algorithm (§4.1).
//!
//! Every superstep every vertex recomputes its rank from the incoming rank
//! transfer and forwards `rank / out_degree` to its out-neighbors, so the
//! message volume — and therefore the per-iteration runtime — is essentially
//! constant across iterations. The algorithm converges when the average
//! absolute rank change per vertex drops below a user threshold `τ`, which the
//! paper typically sets to `τ = ε / N` for a tolerance level `ε`.

use predict_bsp::{
    Aggregates, BspEngine, ComputeContext, InitContext, MessageCombiner, SumCombiner, VertexProgram,
};
use predict_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};

/// Name of the aggregator accumulating the summed absolute rank change.
pub const DELTA_SUM_AGGREGATOR: &str = "pagerank/delta_sum";

/// Name of the aggregator counting the vertices that recomputed their rank in
/// a superstep (the normalizer of the average delta).
pub const VERTEX_COUNT_AGGREGATOR: &str = "pagerank/vertices";

/// Parameters of the PageRank algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PageRankParams {
    /// Damping factor `d` (the paper uses 0.85 throughout).
    pub damping: f64,
    /// Convergence threshold `τ`: the run stops once the average absolute
    /// rank change per vertex is below it.
    pub tolerance: f64,
}

impl Default for PageRankParams {
    fn default() -> Self {
        Self {
            damping: 0.85,
            tolerance: 1e-6,
        }
    }
}

impl PageRankParams {
    /// Creates parameters with an explicit threshold `τ`.
    pub fn new(damping: f64, tolerance: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&damping),
            "damping must be in [0, 1), got {damping}"
        );
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        Self { damping, tolerance }
    }

    /// The paper's threshold convention: `τ = ε / N` where `ε` is the
    /// tolerance level (0.01 or 0.001 in the evaluation) and `N` the number of
    /// vertices of the graph the algorithm is tuned for.
    pub fn with_epsilon(epsilon: f64, num_vertices: usize) -> Self {
        Self::new(0.85, epsilon / num_vertices.max(1) as f64)
    }

    /// Returns a copy with a different convergence threshold (used by the
    /// transform function during sample runs).
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// The PageRank vertex program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRank {
    /// Algorithm parameters.
    pub params: PageRankParams,
}

impl PageRank {
    /// Creates a PageRank program with the given parameters.
    pub fn new(params: PageRankParams) -> Self {
        Self { params }
    }

    /// Runs PageRank on `graph` and returns the final per-vertex ranks
    /// together with the run profile.
    pub fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> PageRankResult {
        let result = engine.run(graph, self);
        PageRankResult {
            ranks: result.values,
            iterations: result.profile.num_iterations(),
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Output of a PageRank run.
#[derive(Debug, Clone)]
pub struct PageRankResult {
    /// Final rank of every vertex.
    pub ranks: Vec<f64>,
    /// Number of supersteps executed.
    pub iterations: usize,
    /// Full run profile.
    pub profile: predict_bsp::RunProfile,
    /// Why the run terminated.
    pub halt_reason: predict_bsp::HaltReason,
}

impl VertexProgram for PageRank {
    type VertexValue = f64;
    type Message = f64;

    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn init_vertex(&self, _vertex: VertexId, ctx: &InitContext<'_>) -> f64 {
        1.0 / ctx.num_vertices.max(1) as f64
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, f64, f64>, messages: &[f64]) {
        let n = ctx.num_vertices.max(1) as f64;
        let d = self.params.damping;

        if ctx.superstep > 0 {
            let incoming: f64 = messages.iter().sum();
            let new_rank = (1.0 - d) / n + d * incoming;
            let delta = (new_rank - *ctx.value).abs();
            ctx.aggregate(DELTA_SUM_AGGREGATOR, delta);
            ctx.aggregate(VERTEX_COUNT_AGGREGATOR, 1.0);
            *ctx.value = new_rank;
        }

        // Forward the rank transfer for the next iteration. Dangling vertices
        // (no out-edges) simply retain their rank mass, as in the paper's
        // formulation of equation (1).
        let out_degree = ctx.out_degree();
        if out_degree > 0 {
            let share = *ctx.value / out_degree as f64;
            ctx.send_to_all_neighbors(share);
        }
        // PageRank vertices never vote to halt: every vertex recomputes its
        // rank every superstep until the master detects global convergence,
        // which is what makes this the paper's constant-per-iteration-runtime
        // algorithm (ActVert == TotVert for every iteration).
    }

    fn message_size_bytes(&self, _msg: &f64) -> u64 {
        8
    }

    /// A vertex only needs the sum of its rank transfers; the runtime's
    /// delivery-order left fold is the sum `compute` would have taken.
    fn combiner(&self) -> Option<impl MessageCombiner<f64>> {
        Some(SumCombiner)
    }

    fn master_halt(&self, superstep: usize, aggregates: &Aggregates) -> bool {
        if superstep == 0 {
            // The first superstep only distributes the initial ranks; there is
            // no delta to compare against the threshold yet.
            return false;
        }
        let delta_sum = aggregates.get_or(DELTA_SUM_AGGREGATOR, f64::INFINITY);
        let avg_delta = delta_sum / self.active_vertex_normalizer(aggregates);
        avg_delta < self.params.tolerance
    }
}

impl PageRank {
    /// The paper normalizes the delta sum by the number of vertices `N`. The
    /// engine does not pass `N` to the master hook, so the program aggregates
    /// it once per superstep through the number of compute invocations, which
    /// for PageRank equals `N` (every vertex is active every superstep).
    fn active_vertex_normalizer(&self, aggregates: &Aggregates) -> f64 {
        aggregates.get_or(VERTEX_COUNT_AGGREGATOR, 0.0).max(1.0)
    }
}

/// Computes the exact average-delta sequence of PageRank on `graph` without
/// the BSP engine — a straightforward reference implementation used in tests
/// to validate the vertex program.
pub fn reference_pagerank(
    graph: &CsrGraph,
    params: &PageRankParams,
    max_iterations: usize,
) -> (Vec<f64>, usize) {
    let n = graph.num_vertices();
    if n == 0 {
        return (Vec::new(), 0);
    }
    let mut ranks = vec![1.0 / n as f64; n];
    for it in 1..=max_iterations {
        let mut incoming = vec![0.0f64; n];
        for v in graph.vertices() {
            let out_degree = graph.out_degree(v);
            if out_degree == 0 {
                continue;
            }
            let share = ranks[v as usize] / out_degree as f64;
            for &u in graph.out_neighbors(v) {
                incoming[u as usize] += share;
            }
        }
        let mut delta_sum = 0.0;
        let mut next = vec![0.0f64; n];
        for v in 0..n {
            next[v] = (1.0 - params.damping) / n as f64 + params.damping * incoming[v];
            delta_sum += (next[v] - ranks[v]).abs();
        }
        ranks = next;
        if delta_sum / (n as f64) < params.tolerance {
            return (ranks, it);
        }
    }
    (ranks, max_iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{BspConfig, ClusterCostConfig, HaltReason};
    use predict_graph::generators::{complete, cycle, generate_rmat, RmatConfig};
    use predict_graph::EdgeList;

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    #[test]
    fn ranks_sum_to_approximately_one() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let pr = PageRank::new(PageRankParams::with_epsilon(0.001, g.num_vertices()));
        let result = pr.run(&engine(), &g);
        let sum: f64 = result.ranks.iter().sum();
        // Dangling vertices retain mass, so the sum stays close to 1 but is
        // not exactly 1; allow a generous band.
        assert!(sum > 0.5 && sum < 1.5, "rank sum {sum} out of range");
    }

    #[test]
    fn converges_via_master_condition() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let pr = PageRank::new(PageRankParams::with_epsilon(0.01, g.num_vertices()));
        let result = pr.run(&engine(), &g);
        assert_eq!(result.halt_reason, HaltReason::MasterConverged);
        assert!(result.iterations > 1);
    }

    #[test]
    fn symmetric_graph_has_uniform_ranks() {
        let g = complete(10);
        let pr = PageRank::new(PageRankParams::new(0.85, 1e-9));
        let result = pr.run(&engine(), &g);
        for &r in &result.ranks {
            assert!(
                (r - 0.1).abs() < 1e-6,
                "rank {r} should be 0.1 on a complete graph"
            );
        }
    }

    #[test]
    fn cycle_has_uniform_ranks() {
        let g = cycle(20);
        let pr = PageRank::new(PageRankParams::new(0.85, 1e-10));
        let result = pr.run(&engine(), &g);
        for &r in &result.ranks {
            assert!((r - 0.05).abs() < 1e-6);
        }
    }

    #[test]
    fn hub_receives_higher_rank_than_leaves() {
        // Star pointing inward: leaves all point at vertex 0.
        let mut el = EdgeList::new();
        for leaf in 1..50u32 {
            el.push(leaf, 0);
            el.push(0, leaf); // make it strongly connected so mass cycles
        }
        let g = CsrGraph::from_edge_list(&el);
        let pr = PageRank::new(PageRankParams::new(0.85, 1e-9));
        let result = pr.run(&engine(), &g);
        let hub = result.ranks[0];
        let leaf = result.ranks[1];
        assert!(
            hub > leaf * 5.0,
            "hub rank {hub} should dominate leaf rank {leaf}"
        );
    }

    #[test]
    fn matches_reference_implementation() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(5));
        let params = PageRankParams::with_epsilon(0.001, g.num_vertices());
        let bsp = PageRank::new(params).run(&engine(), &g);
        let (reference, ref_iterations) = reference_pagerank(&g, &params, 500);
        // The BSP run counts superstep 0 (initial distribution) as an
        // iteration, the reference loop does not.
        assert_eq!(bsp.iterations, ref_iterations + 1);
        for (a, b) in bsp.ranks.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-9, "BSP rank {a} != reference {b}");
        }
    }

    #[test]
    fn tighter_tolerance_needs_more_iterations() {
        let g = generate_rmat(&RmatConfig::new(8, 6).with_seed(2));
        let loose =
            PageRank::new(PageRankParams::with_epsilon(0.01, g.num_vertices())).run(&engine(), &g);
        let tight =
            PageRank::new(PageRankParams::with_epsilon(0.001, g.num_vertices())).run(&engine(), &g);
        assert!(tight.iterations > loose.iterations);
    }

    #[test]
    fn per_iteration_message_volume_is_constant() {
        // The defining property of the paper's "constant runtime" category:
        // message counts do not vary across supersteps (except the last,
        // truncated one).
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(3));
        let pr = PageRank::new(PageRankParams::with_epsilon(0.001, g.num_vertices()));
        let result = pr.run(&engine(), &g);
        let totals = result.profile.per_superstep_totals();
        let first = totals[0].total_messages();
        for t in &totals[..totals.len() - 1] {
            assert_eq!(t.total_messages(), first);
        }
    }

    #[test]
    fn epsilon_constructor_matches_paper_convention() {
        let p = PageRankParams::with_epsilon(0.01, 1000);
        assert!((p.tolerance - 1e-5).abs() < 1e-15);
        assert_eq!(p.damping, 0.85);
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn invalid_damping_panics() {
        let _ = PageRankParams::new(1.0, 1e-6);
    }
}
