//! Per-worker sharded CSR graph storage.
//!
//! PREDIcT's methodology assumes the BSP engine partitions the input graph
//! across workers (section 2.2 of the paper) and that per-worker key input
//! features — messages, bytes, active vertices — fall out of that partition.
//! A [`ShardedCsr`] makes the partition structural: it is the slice of a
//! graph owned by *one* worker, holding only the out-adjacency of the
//! vertices assigned to that worker — exactly what a cluster worker reads
//! while it computes, and therefore exactly what the `Init` frame ships. A
//! graph sharded over `W` workers is a `Vec<ShardedCsr>` whose shards
//! together cover every edge exactly once.
//!
//! [`shard_csr`] cuts the shards out of a frozen
//! [`CsrGraph`](crate::csr::CsrGraph) by copying each owned vertex's
//! adjacency slice, so a shard's adjacency of vertex `v` is byte-identical
//! to the unified `CsrGraph::out_neighbors(v)` — the property that lets a
//! cluster run reproduce an in-memory run bit for bit (see
//! `predict_bsp::runtime`).
//!
//! Ownership is expressed as a plain `owner(v) -> worker` function so this
//! crate stays partitioning-agnostic; the cluster driver supplies its
//! `ShardLayout`'s assignment.

use crate::csr::prefix_sum;
use crate::types::VertexId;
use serde::Serialize;

/// The slice of a graph owned by one worker: a local CSR over the worker's
/// owned vertices.
///
/// * **Owned vertices** — ascending global vertex ids assigned to this
///   worker; local *slot* `i` is the `i`-th owned vertex, the same dense
///   order `predict_bsp`'s shard layout uses.
/// * **Local CSR** — `out_offsets`/`out_targets` indexed by slot; targets are
///   *global* vertex ids (a message can leave the shard, the adjacency
///   cannot).
#[derive(Debug, Clone, Serialize)]
pub struct ShardedCsr {
    worker: usize,
    num_workers: usize,
    /// Vertices of the *whole* graph, not of this shard.
    global_vertices: usize,
    /// Edges of the *whole* graph, not of this shard.
    global_edges: usize,
    /// Owned global vertex ids, ascending. Slot `i` is `owned[i]`.
    owned: Vec<VertexId>,
    /// Slot-indexed prefix offsets into `out_targets` (`owned.len() + 1`).
    out_offsets: Vec<usize>,
    /// Out-neighbors (global ids) of the owned vertices, grouped by slot.
    out_targets: Vec<VertexId>,
    /// Weights aligned with `out_targets`; `None` when the graph is
    /// unweighted (the decision is global, matching `CsrGraph`).
    out_weights: Option<Vec<f32>>,
}

impl ShardedCsr {
    /// Reassembles a shard from its raw parts — the decode half of a wire
    /// format (`predict_cluster` ships shards to worker processes this way).
    /// Validates the structural invariants [`shard_csr`] guarantees so a
    /// corrupted or truncated payload is rejected instead of producing a
    /// shard that would misroute messages.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        worker: usize,
        num_workers: usize,
        global_vertices: usize,
        global_edges: usize,
        owned: Vec<VertexId>,
        out_offsets: Vec<usize>,
        out_targets: Vec<VertexId>,
        out_weights: Option<Vec<f32>>,
    ) -> Result<Self, String> {
        if num_workers == 0 {
            return Err("at least one worker is required".into());
        }
        if worker >= num_workers {
            return Err(format!(
                "worker {worker} out of range for {num_workers} workers"
            ));
        }
        if owned.windows(2).any(|w| w[0] >= w[1]) {
            return Err("owned vertex ids must be strictly ascending".into());
        }
        if owned.iter().any(|&v| v as usize >= global_vertices) {
            return Err("owned vertex id exceeds global vertex count".into());
        }
        if out_offsets.len() != owned.len() + 1 {
            return Err(format!(
                "expected {} offsets for {} owned vertices, got {}",
                owned.len() + 1,
                owned.len(),
                out_offsets.len(),
            ));
        }
        if out_offsets.first() != Some(&0) || out_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must start at 0 and be non-decreasing".into());
        }
        if out_offsets.last() != Some(&out_targets.len()) {
            return Err("last offset must equal the local edge count".into());
        }
        if out_targets.len() > global_edges {
            return Err("shard holds more edges than the whole graph".into());
        }
        if out_targets.iter().any(|&t| t as usize >= global_vertices) {
            return Err("edge target exceeds global vertex count".into());
        }
        if let Some(ws) = &out_weights {
            if ws.len() != out_targets.len() {
                return Err("weights must align with targets".into());
            }
        }
        Ok(Self {
            worker,
            num_workers,
            global_vertices,
            global_edges,
            owned,
            out_offsets,
            out_targets,
            out_weights,
        })
    }

    /// Index of the worker this shard belongs to.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Number of workers the graph was sharded over.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// Vertices of the whole graph (across all shards).
    pub fn global_vertices(&self) -> usize {
        self.global_vertices
    }

    /// Edges of the whole graph (across all shards).
    pub fn global_edges(&self) -> usize {
        self.global_edges
    }

    /// Owned global vertex ids, ascending; slot `i` is `owned()[i]`.
    pub fn owned(&self) -> &[VertexId] {
        &self.owned
    }

    /// Number of vertices this shard owns.
    pub fn num_local_vertices(&self) -> usize {
        self.owned.len()
    }

    /// Number of out-edges leaving this shard's owned vertices.
    pub fn num_local_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// True when the graph stores per-edge weights.
    pub fn is_weighted(&self) -> bool {
        self.out_weights.is_some()
    }

    /// Out-neighbors (global ids) of the owned vertex at `slot`.
    pub fn out_neighbors_at(&self, slot: usize) -> &[VertexId] {
        &self.out_targets[self.out_offsets[slot]..self.out_offsets[slot + 1]]
    }

    /// Weights of the out-edges of the owned vertex at `slot`, aligned with
    /// [`Self::out_neighbors_at`]; `None` for unweighted graphs.
    pub fn out_weights_at(&self, slot: usize) -> Option<&[f32]> {
        self.out_weights
            .as_ref()
            .map(|w| &w[self.out_offsets[slot]..self.out_offsets[slot + 1]])
    }

    /// Slot-indexed prefix offsets into [`Self::out_targets`]
    /// (`num_local_vertices() + 1` entries). The raw-parts counterpart of
    /// [`Self::from_parts`], used by the cluster wire encoder.
    pub fn out_offsets(&self) -> &[usize] {
        &self.out_offsets
    }

    /// All out-neighbors (global ids) of the owned vertices, grouped by slot.
    pub fn out_targets(&self) -> &[VertexId] {
        &self.out_targets
    }

    /// All out-edge weights aligned with [`Self::out_targets`], `None` when
    /// the graph is unweighted.
    pub fn out_weights(&self) -> Option<&[f32]> {
        self.out_weights.as_deref()
    }

    /// Rough in-memory footprint of the shard in bytes, the per-worker
    /// analog of [`CsrGraph::size_bytes`](crate::csr::CsrGraph::size_bytes).
    pub fn size_bytes(&self) -> usize {
        self.owned.len() * std::mem::size_of::<VertexId>()
            + self.out_offsets.len() * std::mem::size_of::<usize>()
            + self.out_targets.len() * std::mem::size_of::<VertexId>()
            + self
                .out_weights
                .as_ref()
                .map(|w| w.len() * std::mem::size_of::<f32>())
                .unwrap_or(0)
    }
}

/// Shards a frozen [`CsrGraph`](crate::csr::CsrGraph) over `num_workers`
/// workers by copying each owned vertex's adjacency slice into its worker's
/// shard; per-source edge order (and weights) are preserved.
///
/// `owner_of` maps every vertex id below `graph.num_vertices()` to its worker
/// (must be `< num_workers`).
///
/// # Panics
///
/// Panics if `num_workers == 0` or `owner_of` returns an out-of-range worker.
pub fn shard_csr(
    graph: &crate::csr::CsrGraph,
    num_workers: usize,
    owner_of: impl Fn(VertexId) -> usize,
) -> Vec<ShardedCsr> {
    assert!(num_workers > 0, "at least one worker is required");
    let n = graph.num_vertices();
    let mut owned: Vec<Vec<VertexId>> = vec![Vec::new(); num_workers];
    for v in 0..n as VertexId {
        let w = owner_of(v);
        assert!(w < num_workers, "owner {w} of vertex {v} out of range");
        owned[w].push(v);
    }
    owned
        .into_iter()
        .enumerate()
        .map(|(worker, owned)| {
            let degrees: Vec<usize> = owned.iter().map(|&v| graph.out_degree(v)).collect();
            let out_offsets = prefix_sum(&degrees);
            let local_edges = *out_offsets.last().unwrap_or(&0);
            let mut out_targets = Vec::with_capacity(local_edges);
            let mut out_weights = graph.is_weighted().then(|| Vec::with_capacity(local_edges));
            for &v in &owned {
                out_targets.extend_from_slice(graph.out_neighbors(v));
                if let Some(ws) = out_weights.as_mut() {
                    ws.extend_from_slice(graph.out_weights(v).expect("weighted graph has weights"));
                }
            }
            ShardedCsr {
                worker,
                num_workers,
                global_vertices: n,
                global_edges: graph.num_edges(),
                owned,
                out_offsets,
                out_targets,
                out_weights,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;
    use crate::edge_list::EdgeList;
    use crate::generators::{generate_rmat, RmatConfig};

    fn modulo(workers: usize) -> impl Fn(VertexId) -> usize {
        move |v| v as usize % workers
    }

    fn shard_list(el: &EdgeList, workers: usize) -> Vec<ShardedCsr> {
        shard_csr(&CsrGraph::from_edge_list(el), workers, modulo(workers))
    }

    fn diamond() -> EdgeList {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        [(0u32, 1u32), (0, 2), (1, 3), (2, 3)].into_iter().collect()
    }

    #[test]
    fn shards_partition_vertices_and_edges() {
        let shards = shard_list(&diamond(), 2);
        assert_eq!(shards.len(), 2);
        // Worker 0 owns 0, 2; worker 1 owns 1, 3.
        assert_eq!(shards[0].owned(), &[0, 2]);
        assert_eq!(shards[1].owned(), &[1, 3]);
        assert_eq!(shards[0].num_local_edges() + shards[1].num_local_edges(), 4);
        for s in &shards {
            assert_eq!(s.global_vertices(), 4);
            assert_eq!(s.global_edges(), 4);
        }
    }

    #[test]
    fn shard_adjacency_matches_unified_csr() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(7));
        for workers in [1usize, 3, 5] {
            let shards = shard_csr(&g, workers, modulo(workers));
            let mut edges = 0;
            for shard in &shards {
                edges += shard.num_local_edges();
                for (slot, &v) in shard.owned().iter().enumerate() {
                    assert_eq!(
                        shard.out_neighbors_at(slot),
                        g.out_neighbors(v),
                        "worker {} vertex {v}",
                        shard.worker()
                    );
                }
            }
            assert_eq!(
                edges,
                g.num_edges(),
                "every edge lands in exactly one shard"
            );
        }
    }

    #[test]
    fn single_worker_owns_everything() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(3));
        let shards = shard_csr(&g, 1, modulo(1));
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].num_local_vertices(), g.num_vertices());
        assert_eq!(shards[0].num_local_edges(), g.num_edges());
    }

    #[test]
    fn more_workers_than_vertices_leaves_empty_shards() {
        let el: EdgeList = [(0u32, 1u32), (1, 2)].into_iter().collect();
        let shards = shard_list(&el, 8);
        assert_eq!(shards.len(), 8);
        for (w, s) in shards.iter().enumerate() {
            if w < 3 {
                assert_eq!(s.num_local_vertices(), 1);
            } else {
                assert_eq!(s.num_local_vertices(), 0, "worker {w} must own nothing");
                assert_eq!(s.num_local_edges(), 0);
                assert_eq!(s.out_offsets, vec![0]);
            }
        }
    }

    #[test]
    fn empty_graph_shards_are_empty() {
        let shards = shard_list(&EdgeList::new(), 3);
        assert_eq!(shards.len(), 3);
        for s in &shards {
            assert_eq!(s.global_vertices(), 0);
            assert_eq!(s.global_edges(), 0);
            assert_eq!(s.num_local_vertices(), 0);
        }
    }

    #[test]
    fn cross_shard_weighted_edges_keep_their_weights() {
        let mut el = EdgeList::new();
        el.push_weighted(0, 1, 0.25); // worker 0 -> worker 1
        el.push_weighted(1, 2, 4.0); // worker 1 -> worker 0
        el.push_weighted(2, 0, 1.0); // worker 0 -> worker 0 (local)
        let g = CsrGraph::from_edge_list(&el);
        let shards = shard_csr(&g, 2, modulo(2));
        assert!(shards.iter().all(ShardedCsr::is_weighted));
        for shard in &shards {
            for (slot, &v) in shard.owned().iter().enumerate() {
                assert_eq!(
                    shard.out_weights_at(slot).unwrap(),
                    g.out_weights(v).unwrap()
                );
            }
        }
        // The cross-shard edge 0 -> 1 carries its weight on worker 0's shard.
        assert_eq!(shards[0].out_neighbors_at(0), &[1]);
        assert_eq!(shards[0].out_weights_at(0).unwrap(), &[0.25]);
    }

    #[test]
    fn parallel_edges_are_preserved_per_shard() {
        let mut el = EdgeList::new();
        el.push(0, 1);
        el.push(0, 1);
        let shards = shard_list(&el, 2);
        assert_eq!(shards[0].num_local_edges(), 2);
        assert_eq!(shards[0].out_neighbors_at(0), &[1, 1]);
    }

    #[test]
    fn size_bytes_sums_to_sharded_footprint() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(5));
        let shards = shard_csr(&g, 4, modulo(4));
        assert!(shards.iter().map(ShardedCsr::size_bytes).sum::<usize>() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = shard_csr(&CsrGraph::from_edges(0, &[]), 0, modulo(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_owner_panics() {
        let _ = shard_csr(&CsrGraph::from_edge_list(&diamond()), 2, |_| 7);
    }

    #[test]
    fn from_parts_round_trips_a_built_shard() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(11));
        for shard in shard_csr(&g, 3, modulo(3)) {
            let rebuilt = ShardedCsr::from_parts(
                shard.worker(),
                shard.num_workers(),
                shard.global_vertices(),
                shard.global_edges(),
                shard.owned().to_vec(),
                shard.out_offsets().to_vec(),
                shard.out_targets().to_vec(),
                shard.out_weights().map(<[f32]>::to_vec),
            )
            .expect("built shards satisfy the invariants");
            assert_eq!(rebuilt.owned(), shard.owned());
            assert_eq!(rebuilt.out_offsets, shard.out_offsets);
            assert_eq!(rebuilt.out_targets, shard.out_targets);
        }
    }

    #[test]
    fn from_parts_rejects_malformed_payloads() {
        // Well-formed baseline: worker 0 of 2 owns vertex 0 with edge 0 -> 1.
        type Parts = (
            usize,
            Vec<VertexId>,
            Vec<usize>,
            Vec<VertexId>,
            Option<Vec<f32>>,
        );
        let build = |(worker, owned, offsets, targets, weights): Parts| {
            ShardedCsr::from_parts(worker, 2, 2, 1, owned, offsets, targets, weights)
        };
        assert!(build((0, vec![0], vec![0, 1], vec![1], None)).is_ok());
        let cases: Vec<(&str, Parts)> = vec![
            (
                "worker out of range",
                (2, vec![0], vec![0, 1], vec![1], None),
            ),
            (
                "owned not ascending",
                (0, vec![1, 0], vec![0, 1, 1], vec![1], None),
            ),
            (
                "owned out of range",
                (0, vec![5], vec![0, 1], vec![1], None),
            ),
            ("offsets truncated", (0, vec![0], vec![0], vec![1], None)),
            (
                "offsets decreasing",
                (0, vec![0, 1], vec![0, 1, 0], vec![1], None),
            ),
            ("last offset off", (0, vec![0], vec![0, 0], vec![1], None)),
            (
                "more edges than the graph",
                (0, vec![0], vec![0, 2], vec![1, 1], None),
            ),
            (
                "target out of range",
                (0, vec![0], vec![0, 1], vec![9], None),
            ),
            (
                "misaligned weights",
                (0, vec![0], vec![0, 1], vec![1], Some(vec![1.0, 2.0])),
            ),
        ];
        for (what, parts) in cases {
            assert!(build(parts).is_err(), "{what} must be rejected");
        }
    }
}
