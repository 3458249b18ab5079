//! One worker's view of the graph.
//!
//! A worker reads adjacency through a [`WorkerGraph`]: in memory every
//! worker shares the one unified [`CsrGraph`]; a cluster worker
//! (`predict_cluster`) owns exactly one [`ShardedCsr`] — the out-adjacency
//! of its own vertices — and nothing else of the graph. Both views hold byte-identical adjacency per owned vertex
//! (shards preserve per-source edge order), which is one of the things that
//! makes a cluster run the same computation as an in-memory one.

use predict_graph::{CsrGraph, ShardedCsr, VertexId};

/// One worker's read-only view of the graph during compute and
/// initialization phases. Vertices are addressed by `(slot, vertex)` pairs —
/// the dense shard slot plus the global id — which resolve to a direct index
/// under either layout.
#[derive(Clone, Copy)]
pub enum WorkerGraph<'a> {
    Unified(&'a CsrGraph),
    Shard(&'a ShardedCsr),
}

impl<'a> WorkerGraph<'a> {
    /// Vertices of the whole graph.
    pub fn num_vertices(&self) -> usize {
        match self {
            Self::Unified(g) => g.num_vertices(),
            Self::Shard(s) => s.global_vertices(),
        }
    }

    /// Edges of the whole graph.
    pub fn num_edges(&self) -> usize {
        match self {
            Self::Unified(g) => g.num_edges(),
            Self::Shard(s) => s.global_edges(),
        }
    }

    /// Out-neighbors of owned vertex `v` at shard slot `slot`.
    pub fn out_neighbors(&self, slot: usize, v: VertexId) -> &'a [VertexId] {
        match self {
            Self::Unified(g) => g.out_neighbors(v),
            Self::Shard(s) => {
                debug_assert_eq!(s.owned()[slot], v, "slot/vertex mismatch");
                s.out_neighbors_at(slot)
            }
        }
    }

    /// Out-edge weights of owned vertex `v` at shard slot `slot`.
    pub fn out_weights(&self, slot: usize, v: VertexId) -> Option<&'a [f32]> {
        match self {
            Self::Unified(g) => g.out_weights(v),
            Self::Shard(s) => {
                debug_assert_eq!(s.owned()[slot], v, "slot/vertex mismatch");
                s.out_weights_at(slot)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{assign_vertex, PartitionStrategy};
    use predict_graph::generators::{generate_rmat, RmatConfig};

    #[test]
    fn worker_graph_views_agree() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(5));
        let n = g.num_vertices();
        let shards = predict_graph::shard_csr(&g, 3, |v| {
            assign_vertex(v as usize, n, 3, PartitionStrategy::Modulo) as usize
        });
        let vu = WorkerGraph::Unified(&g);
        for shard in &shards {
            let vs = WorkerGraph::Shard(shard);
            assert_eq!(vu.num_vertices(), vs.num_vertices());
            assert_eq!(vu.num_edges(), vs.num_edges());
            for (slot, &v) in shard.owned().iter().enumerate() {
                assert_eq!(vu.out_neighbors(slot, v), vs.out_neighbors(slot, v));
                assert_eq!(vu.out_weights(slot, v), vs.out_weights(slot, v));
            }
        }
    }
}
