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
//!
//! # Why top-k is combine-safe
//!
//! The program is its own [`MessageCombiner`]: the runtime folds every rank
//! list bound for a vertex into one list at delivery, merging each arrival
//! into the first at capacity `k` — the same merge compute applies. Folding
//! changes nothing a run observes:
//!
//! * **values** — lists are kept in one total order (rank descending, ties
//!   by ascending vertex id; a vertex carries its one input rank in every
//!   list, so equal entries are the same entry), and the top `k` of a union
//!   under a total order does not depend on how the union is grouped or in
//!   which order its parts arrive. Merging the folded list into the vertex's
//!   own gives the top `k` of the own list and every message, as merging
//!   the messages one by one does;
//! * **the update flag** — merging inserts an entry exactly when the list
//!   it ends with differs from the one it started with: once an entry
//!   enters, the list is the top `k` of a union the initial list is not the
//!   top `k` of, and stays so as the union grows. So `changed` is "final
//!   list ≠ initial list" either way, and with it the
//!   [`UPDATED_VERTICES_AGGREGATOR`] aggregate, what is sent, and every
//!   Table 1 counter (counted at send time, before combining).
//!
//! What folding saves is the per-message work: a vertex's inbox is one list
//! of at most `k` entries, and merging a message into it allocates nothing.

use predict_bsp::{
    Aggregates, BspEngine, ComputeContext, InitContext, MessageCombiner, VertexProgram,
};
use predict_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

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
/// sender, which the runtime stores once however many neighbors it has.
pub type TopKMessage = Vec<RankEntry>;

/// Folds rank lists bound for one vertex into one list of the `k` best
/// entries (see the [module docs](self) for why this is exact).
impl MessageCombiner<TopKMessage> for TopKRanking {
    fn combine(&self, acc: &mut TopKMessage, msg: &TopKMessage) {
        // The first arrival is a clone sized to its own length: grow it to
        // `k` once, so no later merge reallocates.
        acc.reserve(self.params.k.saturating_sub(acc.len()));
        self.merge_into(acc, msg);
    }
}

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
            let own = vec![(ctx.value.own_rank, ctx.vertex)];
            ctx.send_to_all_neighbors(own);
            ctx.vote_to_halt();
            return;
        }

        // One folded list from the runtime; the uncombined lists, in
        // delivery order, from an executor that does not combine.
        let mut changed = false;
        for msg in messages {
            changed |= self.merge_into(&mut ctx.value.entries, msg);
        }
        if changed {
            ctx.aggregate(UPDATED_VERTICES_AGGREGATOR, 1.0);
            let update = ctx.value.entries.clone();
            ctx.send_to_all_neighbors(update);
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, msg: &TopKMessage) -> u64 {
        // Each entry is an 8-byte rank plus a 4-byte vertex id.
        (msg.len() * 12) as u64
    }

    fn combiner(&self) -> Option<impl MessageCombiner<TopKMessage>> {
        Some(self)
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
    use proptest::prelude::*;

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

    /// The sorted, duplicate-free entry list of `members`, each vertex under
    /// its one rank from `ranks` (a quarter-step palette, so different
    /// vertices tie on rank).
    fn entries(ranks: &[u8], members: &[VertexId]) -> Vec<RankEntry> {
        let mut list: Vec<RankEntry> = members
            .iter()
            .map(|&v| (f64::from(ranks[v as usize]) / 4.0, v))
            .collect();
        list.sort_by(rank_order);
        list.dedup();
        list
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The combiner algebra: folding the incoming lists with the
        /// combiner — in any order, in any grouping — and merging the fold
        /// once gives the entries and the `changed` flag of merging the lists
        /// one by one, and `changed` is exactly "the list moved".
        #[test]
        fn folding_then_merging_once_equals_merging_one_by_one(
            k in 1usize..5,
            ranks in prop::collection::vec(0u8..4, 12),
            own in prop::collection::vec(0u32..12, 1..6),
            incoming in prop::collection::vec(
                (any::<u32>(), any::<bool>(), prop::collection::vec(0u32..12, 0..9)),
                1..7,
            ),
        ) {
            let topk = TopKRanking::new(TopKParams::new(k, 0.0), vec![0.0; 12]);
            let mut initial = entries(&ranks, &own);
            initial.truncate(k);
            let lists: Vec<TopKMessage> =
                incoming.iter().map(|(_, _, members)| entries(&ranks, members)).collect();

            let mut one_by_one = initial.clone();
            let mut changed_one_by_one = false;
            for list in &lists {
                changed_one_by_one |= topk.merge_into(&mut one_by_one, list);
            }

            // Shuffle by key, cut into groups at the flags, fold each group
            // front to back, then fold the groups together back to front.
            let mut order: Vec<usize> = (0..lists.len()).collect();
            order.sort_by_key(|&i| incoming[i].0);
            let mut groups: Vec<TopKMessage> = Vec::new();
            for i in order {
                match groups.last_mut() {
                    Some(acc) if !incoming[i].1 => topk.combine(acc, &lists[i]),
                    _ => groups.push(lists[i].clone()),
                }
            }
            let mut folded = groups.pop().expect("one list at least");
            while let Some(group) = groups.pop() {
                topk.combine(&mut folded, &group);
            }
            let mut merged = initial.clone();
            let changed = topk.merge_into(&mut merged, &folded);

            prop_assert_eq!(&merged, &one_by_one);
            prop_assert_eq!(changed, changed_one_by_one);
            prop_assert_eq!(changed, merged != initial);
        }
    }

    #[test]
    fn message_size_reflects_entry_count() {
        let topk = TopKRanking::new(TopKParams::default(), vec![0.0]);
        assert_eq!(topk.message_size_bytes(&vec![]), 0);
        assert_eq!(topk.message_size_bytes(&vec![(0.1, 1), (0.2, 2)]), 24);
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
