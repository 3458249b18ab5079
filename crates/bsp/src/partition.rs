//! Vertex-to-worker partitioning.
//!
//! The Giraph master partitions the input graph over workers before the first
//! superstep (section 2.2 of the paper). The partitioning scheme determines
//! which messages are local versus remote and which worker ends up on the
//! critical path. The runtime materializes the assignment once per
//! `(num_vertices, num_workers, strategy)` as a cached
//! [`ShardLayout`](crate::ShardLayout).

use serde::{Deserialize, Serialize};

/// Strategy for assigning vertices to workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// Giraph's default: vertex `v` goes to worker `hash(v) % num_workers`.
    /// With dense vertex ids this is implemented as a multiplicative hash so
    /// consecutive ids do not all land on consecutive workers.
    Hash,
    /// Contiguous ranges of vertex ids per worker (`v * workers / n`).
    Range,
    /// Plain modulo assignment (`v % num_workers`); simplest to reason about
    /// in tests.
    Modulo,
}

/// Assigns vertex `v` of an `n`-vertex graph to one of `num_workers` workers.
///
/// This is a pure function of `(v, n, num_workers, strategy)` — it never looks
/// at the edges — which is what lets the runtime cache shard layouts across
/// graphs of equal size (see [`crate::runtime`]).
pub(crate) fn assign_vertex(
    v: usize,
    n: usize,
    num_workers: usize,
    strategy: PartitionStrategy,
) -> u32 {
    match strategy {
        PartitionStrategy::Hash => {
            // Fibonacci hashing of the vertex id.
            let h = (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 32) % num_workers as u64) as u32
        }
        PartitionStrategy::Range => ((v * num_workers) / n.max(1)) as u32,
        PartitionStrategy::Modulo => (v % num_workers) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STRATEGIES: [PartitionStrategy; 3] = [
        PartitionStrategy::Hash,
        PartitionStrategy::Range,
        PartitionStrategy::Modulo,
    ];

    #[test]
    fn every_vertex_is_assigned_exactly_once() {
        for strategy in STRATEGIES {
            assert!((0..300).all(|v| assign_vertex(v, 300, 7, strategy) < 7));
        }
    }

    #[test]
    fn hash_partitioning_is_roughly_balanced() {
        let n = 1024;
        let mut owned = [0usize; 8];
        for v in 0..n {
            owned[assign_vertex(v, n, 8, PartitionStrategy::Hash) as usize] += 1;
        }
        let expected = n / 8;
        for (w, &v) in owned.iter().enumerate() {
            assert!(
                v > expected / 2 && v < expected * 2,
                "worker {w} owns {v} vertices, expected around {expected}"
            );
        }
    }

    #[test]
    fn modulo_strategy_is_predictable() {
        let owners: Vec<u32> = (0..4)
            .map(|v| assign_vertex(v, 64, 3, PartitionStrategy::Modulo))
            .collect();
        assert_eq!(owners, [0, 1, 2, 0]);
    }

    #[test]
    fn critical_path_worker_owns_the_hub_in_a_star() {
        // Most edges leave the hub (vertex 0), so the worker that owns vertex
        // 0 owns the most outbound edges: it is the critical-path worker.
        let g = predict_graph::generators::star(100);
        let n = g.num_vertices();
        let owner = |v| assign_vertex(v, n, 4, PartitionStrategy::Modulo) as usize;
        let mut outbound = [0usize; 4];
        for v in g.vertices() {
            outbound[owner(v as usize)] += g.out_degree(v);
        }
        let hub_owner = owner(0);
        for (w, &edges) in outbound.iter().enumerate() {
            assert!(
                w == hub_owner || edges < outbound[hub_owner],
                "{outbound:?}"
            );
        }
    }

    #[test]
    fn single_worker_owns_everything() {
        for strategy in STRATEGIES {
            assert!((0..64).all(|v| assign_vertex(v, 64, 1, strategy) == 0));
        }
    }
}
