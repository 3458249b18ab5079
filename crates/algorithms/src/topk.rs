//! Top-k ranking — variable number of messages per iteration (§4.3).
//!
//! Top-k ranking runs on the *output* of PageRank: every vertex maintains the
//! `k` highest ranks reachable from it. In the first iteration each vertex
//! sends its own rank to its neighbors; in later iterations a vertex merges
//! the rank lists it received, and only if its local top-k list changed does
//! it forward the updated list. Vertices that perform no update send nothing,
//! so both the number of messages and the message byte counts vary wildly
//! between iterations — the paper's category ii).b) of runtime variability.
//!
//! Convergence uses a size-invariant ratio: the run stops when the fraction
//! of vertices that performed an update drops below `τ`.

use predict_bsp::{Aggregates, BspEngine, ComputeContext, InitContext, VertexProgram};
use predict_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::sync::Arc;

/// Aggregator counting vertices that updated their top-k list this superstep.
pub const UPDATED_VERTICES_AGGREGATOR: &str = "topk/updated_vertices";

/// Parameters of top-k ranking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TopKParams {
    /// Number of top ranks each vertex tracks.
    pub k: usize,
    /// Convergence threshold on the ratio of updating vertices
    /// (`activeVertices / totalVertices < τ`).
    pub tolerance: f64,
}

impl Default for TopKParams {
    fn default() -> Self {
        Self {
            k: 5,
            tolerance: 0.001,
        }
    }
}

impl TopKParams {
    /// Creates parameters for tracking the `k` highest reachable ranks with
    /// convergence threshold `tolerance`.
    pub fn new(k: usize, tolerance: f64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        Self { k, tolerance }
    }

    /// Returns a copy with a different convergence threshold.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// A `(rank, vertex)` entry of a top-k list.
pub type RankEntry = (f64, VertexId);

/// Per-vertex state: the best `k` ranks seen so far, sorted descending.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopKState {
    /// The vertex's own PageRank value.
    pub own_rank: f64,
    /// Best `k` `(rank, vertex)` entries reachable so far, highest first.
    pub entries: Vec<RankEntry>,
}

/// The top-k ranking vertex program.
#[derive(Debug, Clone)]
pub struct TopKRanking {
    /// Algorithm parameters.
    pub params: TopKParams,
    /// Input ranks, one per vertex of the graph the program will run on
    /// (typically the output of a PageRank run on the same graph).
    pub ranks: Vec<f64>,
}

impl TopKRanking {
    /// Creates a top-k ranking program over the given per-vertex input ranks.
    pub fn new(params: TopKParams, ranks: Vec<f64>) -> Self {
        Self { params, ranks }
    }

    /// Runs the program and returns the final per-vertex top-k lists and the
    /// run profile.
    pub fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> TopKResult {
        assert_eq!(
            self.ranks.len(),
            graph.num_vertices(),
            "input ranks must cover every vertex of the graph"
        );
        let result = engine.run(graph, self);
        TopKResult {
            top_k: result.values,
            iterations: result.profile.num_iterations(),
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }

    /// Merges `incoming` entries into `entries` — sorted by rank descending,
    /// ties by vertex id — keeping the `k` highest distinct vertices. Returns
    /// `true` when the list changed. Every list holds a vertex under its one
    /// input rank, so an entry is a duplicate exactly when it compares equal.
    fn merge_into(&self, entries: &mut Vec<RankEntry>, incoming: &[RankEntry]) -> bool {
        let k = self.params.k;
        let mut changed = false;
        for &entry in incoming {
            // A full list takes nothing that does not beat its last entry.
            let full = entries.len() >= k;
            if full
                && entries
                    .last()
                    .is_none_or(|last| rank_order(last, &entry) != Ordering::Greater)
            {
                continue;
            }
            // First position whose entry does not sort before `entry`.
            let at = entries
                .iter()
                .position(|held| rank_order(held, &entry) != Ordering::Less)
                .unwrap_or(entries.len());
            if entries.get(at) == Some(&entry) {
                continue;
            }
            if full {
                entries.pop();
            }
            entries.insert(at, entry);
            changed = true;
        }
        changed
    }
}

/// Order of a top-k list: rank descending, ties by ascending vertex id.
fn rank_order(a: &RankEntry, b: &RankEntry) -> Ordering {
    let by_rank = b.0.partial_cmp(&a.0).expect("ranks are never NaN");
    by_rank.then_with(|| a.1.cmp(&b.1))
}

/// Output of a top-k ranking run.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// Final top-k list of every vertex.
    pub top_k: Vec<TopKState>,
    /// Number of supersteps executed.
    pub iterations: usize,
    /// Full run profile.
    pub profile: predict_bsp::RunProfile,
    /// Why the run terminated.
    pub halt_reason: predict_bsp::HaltReason,
}

/// A top-k list on its way to a vertex's neighbors: built once by the
/// sender, shared by every copy the runtime hands out.
pub type TopKMessage = Arc<[RankEntry]>;

impl VertexProgram for TopKRanking {
    type VertexValue = TopKState;
    type Message = TopKMessage;

    fn name(&self) -> &'static str {
        "topk-ranking"
    }

    fn init_vertex(&self, vertex: VertexId, _ctx: &InitContext<'_>) -> TopKState {
        let own_rank = self.ranks.get(vertex as usize).copied().unwrap_or(0.0);
        let mut entries = Vec::with_capacity(self.params.k);
        entries.push((own_rank, vertex));
        TopKState { own_rank, entries }
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, TopKState, TopKMessage>,
        messages: &[TopKMessage],
    ) {
        if ctx.superstep == 0 {
            // First iteration: every vertex advertises its own rank.
            let own = [(ctx.value.own_rank, ctx.vertex)];
            ctx.send_to_all_neighbors(own.into());
            ctx.vote_to_halt();
            return;
        }

        let mut changed = false;
        for msg in messages {
            changed |= self.merge_into(&mut ctx.value.entries, msg);
        }
        if changed {
            ctx.aggregate(UPDATED_VERTICES_AGGREGATOR, 1.0);
            let update = ctx.value.entries.as_slice();
            ctx.send_to_all_neighbors(update.into());
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, msg: &TopKMessage) -> u64 {
        // Each entry is an 8-byte rank plus a 4-byte vertex id.
        (msg.len() * 12) as u64
    }

    fn master_halt(&self, superstep: usize, aggregates: &Aggregates) -> bool {
        if superstep == 0 {
            return false;
        }
        let updated = aggregates.get_or(UPDATED_VERTICES_AGGREGATOR, 0.0);
        let total = self.ranks.len().max(1) as f64;
        updated / total < self.params.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pagerank::{PageRank, PageRankParams};
    use predict_bsp::{BspConfig, ClusterCostConfig};
    use predict_graph::generators::{chain, generate_rmat, RmatConfig};
    use predict_graph::EdgeList;

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    fn uniform_ranks(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i + 1) as f64 / n as f64).collect()
    }

    #[test]
    fn propagates_best_rank_along_a_chain() {
        // Chain 0 -> 1 -> 2 -> 3 -> 4 with ranks increasing by vertex id:
        // vertex 4 has the highest rank but nothing downstream, vertex 0 can
        // only ever see its own rank propagated forward.
        let g = chain(5);
        let ranks = uniform_ranks(5);
        let topk = TopKRanking::new(TopKParams::new(3, 0.0), ranks.clone());
        let result = topk.run(&engine(), &g);
        // Vertex 4 receives everything upstream; its best reachable ranks are
        // its own (1.0) plus the best of what flowed downstream.
        let v4 = &result.top_k[4];
        assert_eq!(v4.entries.len(), 3);
        assert!((v4.entries[0].0 - 1.0).abs() < 1e-12);
        // Vertex 0 never receives messages, so it only knows itself.
        assert_eq!(result.top_k[0].entries, vec![(ranks[0], 0)]);
    }

    #[test]
    fn entries_are_sorted_descending_and_bounded_by_k() {
        let g = generate_rmat(&RmatConfig::new(8, 6).with_seed(1));
        let ranks = uniform_ranks(g.num_vertices());
        let topk = TopKRanking::new(TopKParams::new(4, 0.001), ranks);
        let result = topk.run(&engine(), &g);
        for state in &result.top_k {
            assert!(state.entries.len() <= 4);
            for pair in state.entries.windows(2) {
                assert!(pair[0].0 >= pair[1].0);
            }
        }
    }

    #[test]
    fn message_volume_decreases_over_iterations() {
        // The defining property of the paper's "variable number of messages"
        // category: later iterations send far fewer messages than early ones.
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let ranks = uniform_ranks(g.num_vertices());
        let topk = TopKRanking::new(TopKParams::new(5, 0.0001), ranks);
        let result = topk.run(&engine(), &g);
        let totals = result.profile.per_superstep_totals();
        assert!(totals.len() >= 3, "expected at least 3 iterations");
        let first = totals[1].total_messages();
        let last = totals[totals.len() - 1].total_messages();
        assert!(
            last < first / 2,
            "message volume should shrink: first {first}, last {last}"
        );
    }

    #[test]
    fn runs_on_real_pagerank_output() {
        let g = generate_rmat(&RmatConfig::new(8, 6).with_seed(5));
        let pr =
            PageRank::new(PageRankParams::with_epsilon(0.001, g.num_vertices())).run(&engine(), &g);
        let topk = TopKRanking::new(TopKParams::default(), pr.ranks.clone());
        let result = topk.run(&engine(), &g);
        assert!(result.iterations >= 2);
        // Every vertex's list contains ranks that actually exist in the input.
        for state in &result.top_k {
            for &(rank, v) in &state.entries {
                assert!((rank - pr.ranks[v as usize]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn looser_tolerance_means_fewer_iterations() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(7));
        let ranks = uniform_ranks(g.num_vertices());
        let loose = TopKRanking::new(TopKParams::new(5, 0.05), ranks.clone()).run(&engine(), &g);
        let tight = TopKRanking::new(TopKParams::new(5, 0.0005), ranks).run(&engine(), &g);
        assert!(loose.iterations <= tight.iterations);
    }

    #[test]
    fn merge_into_deduplicates_vertices() {
        let topk = TopKRanking::new(TopKParams::new(3, 0.1), vec![0.0; 4]);
        let mut entries = vec![(0.5, 1)];
        let changed = topk.merge_into(&mut entries, &[(0.5, 1), (0.9, 2), (0.1, 3)]);
        assert!(changed);
        assert_eq!(entries, vec![(0.9, 2), (0.5, 1), (0.1, 3)]);
        // Re-merging the same data changes nothing.
        let changed_again = topk.merge_into(&mut entries, &[(0.9, 2)]);
        assert!(!changed_again);
    }

    #[test]
    fn message_size_reflects_entry_count() {
        let topk = TopKRanking::new(TopKParams::default(), vec![0.0]);
        assert_eq!(topk.message_size_bytes(&[].into()), 0);
        assert_eq!(topk.message_size_bytes(&[(0.1, 1), (0.2, 2)].into()), 24);
    }

    #[test]
    #[should_panic(expected = "must cover every vertex")]
    fn mismatched_rank_vector_panics() {
        let el: EdgeList = [(0u32, 1u32)].into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        let topk = TopKRanking::new(TopKParams::default(), vec![0.5]);
        let _ = topk.run(&engine(), &g);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let _ = TopKParams::new(0, 0.1);
    }
}
