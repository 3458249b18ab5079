//! Cached shard layouts: the topology-independent half of a partitioning.
//!
//! Vertex-to-worker assignment is a pure function of `(num_vertices,
//! num_workers, strategy)` — it never inspects edges (see
//! [`crate::partition::assign_vertex`]). A [`ShardLayout`] therefore captures
//! everything the runtime needs to shard per-vertex state — owner and
//! shard-slot of every vertex plus the sorted vertex list of every shard —
//! and can be cached and shared between runs, graphs of equal size, and
//! engine clones.

use crate::partition::{assign_vertex, PartitionStrategy};
use predict_graph::VertexId;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Per-worker decomposition of the vertex id space.
///
/// For every vertex `v` the layout knows its owning worker
/// ([`ShardLayout::owner_of`]) and its dense index within that worker's shard
/// ([`ShardLayout::slot_of`]); for every worker it knows the owned vertices in
/// increasing id order ([`ShardLayout::shard_vertices`]). Shard-local slots
/// follow vertex id order, which is what keeps sharded execution
/// byte-identical to the old single-vector engine.
#[derive(Debug)]
pub struct ShardLayout {
    num_vertices: usize,
    num_workers: usize,
    strategy: PartitionStrategy,
    /// Vertex -> owning worker.
    owner: Vec<u32>,
    /// Vertex -> dense index within its owner's shard.
    slot: Vec<u32>,
    /// Worker -> owned vertices, ascending.
    shards: Vec<Vec<VertexId>>,
}

impl ShardLayout {
    /// Builds the layout for `num_vertices` vertices over `num_workers`
    /// workers.
    ///
    /// # Panics
    ///
    /// Panics if `num_workers == 0`, or if `num_vertices` reaches `2^31`: a
    /// routed message entry tells a vertex from an edge group by the top bit
    /// (see [`EdgeGroups`](crate::runtime::EdgeGroups)).
    pub fn build(num_vertices: usize, num_workers: usize, strategy: PartitionStrategy) -> Self {
        assert!(num_workers > 0, "at least one worker is required");
        assert!(
            num_vertices < 1 << 31,
            "{num_vertices} vertices: vertex ids must stay below 2^31"
        );
        let mut owner = vec![0u32; num_vertices];
        let mut slot = vec![0u32; num_vertices];
        let mut shards: Vec<Vec<VertexId>> = vec![Vec::new(); num_workers];
        for v in 0..num_vertices {
            let w = assign_vertex(v, num_vertices, num_workers, strategy);
            owner[v] = w;
            let shard = &mut shards[w as usize];
            slot[v] = shard.len() as u32;
            shard.push(v as VertexId);
        }
        Self {
            num_vertices,
            num_workers,
            strategy,
            owner,
            slot,
            shards,
        }
    }

    /// Number of vertices the layout covers.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of workers the layout shards over.
    pub fn num_workers(&self) -> usize {
        self.num_workers
    }

    /// The strategy the layout was built with.
    pub fn strategy(&self) -> PartitionStrategy {
        self.strategy
    }

    /// Worker that owns vertex `v`.
    #[inline]
    pub fn owner_of(&self, v: VertexId) -> usize {
        self.owner[v as usize] as usize
    }

    /// Dense index of vertex `v` within its owner's shard.
    #[inline]
    pub fn slot_of(&self, v: VertexId) -> usize {
        self.slot[v as usize] as usize
    }

    /// Vertices owned by worker `w`, in increasing id order.
    pub fn shard_vertices(&self, w: usize) -> &[VertexId] {
        &self.shards[w]
    }
}

/// Key of one cached layout.
type LayoutKey = (usize, usize, PartitionStrategy);

/// Bound on cached layouts per engine; beyond it the least-recently-used
/// entry is evicted (layouts are cheap to rebuild — the bound only caps
/// memory for engines fed many distinct graph sizes).
const LAYOUT_CACHE_CAP: usize = 32;

/// A small LRU-bounded cache of [`ShardLayout`]s, shared between clones of
/// one engine (the engine holds it behind an [`Arc`], like its run counter).
/// Hits refresh an entry's position, so a layout in steady use — the sample
/// graphs a prediction service replays constantly — survives a flood of
/// one-off sizes past the cap (FIFO, the original policy, evicted exactly
/// the hottest entries first under that mix).
#[derive(Debug, Default)]
pub struct LayoutCache {
    inner: Mutex<LayoutCacheInner>,
}

#[derive(Debug, Default)]
struct LayoutCacheInner {
    map: HashMap<LayoutKey, Arc<ShardLayout>>,
    order: VecDeque<LayoutKey>,
    hits: u64,
    misses: u64,
}

impl LayoutCache {
    /// Returns the cached layout for the key, building and inserting it on a
    /// miss.
    pub fn get_or_build(
        &self,
        num_vertices: usize,
        num_workers: usize,
        strategy: PartitionStrategy,
    ) -> Arc<ShardLayout> {
        let key = (num_vertices, num_workers, strategy);
        let mut inner = self.inner.lock().unwrap();
        if let Some(hit) = inner.map.get(&key).map(Arc::clone) {
            inner.hits += 1;
            // LRU touch: move the key to the back of the eviction order.
            if let Some(pos) = inner.order.iter().position(|k| *k == key) {
                inner.order.remove(pos);
                inner.order.push_back(key);
            }
            return hit;
        }
        inner.misses += 1;
        let layout = Arc::new(ShardLayout::build(num_vertices, num_workers, strategy));
        while inner.order.len() >= LAYOUT_CACHE_CAP {
            if let Some(oldest) = inner.order.pop_front() {
                inner.map.remove(&oldest);
            }
        }
        inner.order.push_back(key);
        inner.map.insert(key, Arc::clone(&layout));
        layout
    }

    /// `(hits, misses)` of the cache since construction. Tests use this to
    /// assert that repeated runs stop rebuilding shard layouts.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock().unwrap();
        (inner.hits, inner.misses)
    }

    /// Number of layouts currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_matches_partitioning_assignment() {
        let n = 256;
        for strategy in [
            PartitionStrategy::Hash,
            PartitionStrategy::Range,
            PartitionStrategy::Modulo,
        ] {
            let l = ShardLayout::build(n, 5, strategy);
            for v in 0..n {
                let owner = assign_vertex(v, n, 5, strategy) as usize;
                assert_eq!(l.owner_of(v as VertexId), owner, "vertex {v}");
            }
        }
    }

    #[test]
    fn slots_are_dense_and_ordered_within_each_shard() {
        let l = ShardLayout::build(100, 4, PartitionStrategy::Hash);
        let mut seen = 0;
        for w in 0..4 {
            let vs = l.shard_vertices(w);
            assert!(vs.windows(2).all(|p| p[0] < p[1]), "shard not sorted");
            for (i, &v) in vs.iter().enumerate() {
                assert_eq!(l.owner_of(v), w);
                assert_eq!(l.slot_of(v), i);
            }
            seen += vs.len();
        }
        assert_eq!(seen, 100);
    }

    #[test]
    fn cache_hits_on_repeated_keys_and_evicts_least_recently_used() {
        let cache = LayoutCache::default();
        let a = cache.get_or_build(10, 2, PartitionStrategy::Hash);
        let b = cache.get_or_build(10, 2, PartitionStrategy::Hash);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        // Distinct keys are distinct entries.
        cache.get_or_build(10, 3, PartitionStrategy::Hash);
        cache.get_or_build(10, 2, PartitionStrategy::Modulo);
        assert_eq!(cache.len(), 3);
        // Flood past the cap with one-off keys, never touching the first
        // three again: they are now the least recently used and get evicted.
        for n in 0..LAYOUT_CACHE_CAP {
            cache.get_or_build(1000 + n, 2, PartitionStrategy::Hash);
        }
        assert_eq!(cache.len(), LAYOUT_CACHE_CAP);
        let (_, misses_before) = cache.stats();
        cache.get_or_build(10, 2, PartitionStrategy::Hash);
        let (_, misses_after) = cache.stats();
        assert_eq!(misses_after, misses_before + 1, "evicted key must rebuild");
    }

    #[test]
    fn a_repeatedly_used_layout_survives_inserts_past_the_cap() {
        // The prediction-service access pattern: one hot sample-graph layout
        // interleaved with a stream of one-off sizes. Under the old FIFO
        // policy the hot key aged out purely by insertion time; under LRU
        // every touch refreshes it.
        let cache = LayoutCache::default();
        let hot = (10usize, 2usize, PartitionStrategy::Hash);
        let first = cache.get_or_build(hot.0, hot.1, hot.2);
        for n in 0..(3 * LAYOUT_CACHE_CAP) {
            cache.get_or_build(1000 + n, 2, PartitionStrategy::Hash);
            let again = cache.get_or_build(hot.0, hot.1, hot.2);
            assert!(
                Arc::ptr_eq(&first, &again),
                "hot layout must never be evicted (insert {n})"
            );
        }
        let (_, misses) = cache.stats();
        assert_eq!(
            misses as usize,
            1 + 3 * LAYOUT_CACHE_CAP,
            "the hot layout must have been built exactly once"
        );
    }

    #[test]
    fn empty_layout_is_valid() {
        let l = ShardLayout::build(0, 3, PartitionStrategy::Range);
        assert_eq!(l.num_vertices(), 0);
        for w in 0..3 {
            assert!(l.shard_vertices(w).is_empty());
        }
    }
}
