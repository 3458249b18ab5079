//! Reusable visited-set and scratch buffers for sampler walks.
//!
//! Every walk-based sampling technique needs per-walk "have I selected this
//! vertex yet" state. The naive representation — `vec![false; n]` per draw —
//! allocates and zeroes the whole vertex space on every sample, which is pure
//! overhead for PREDIcT's small sampling ratios (a 10% sample touches ~10% of
//! the words). [`VisitedSet`] packs the flags into `u64` words and remembers
//! which words were dirtied, so clearing for the next draw costs
//! **O(set bits)**, not O(n); [`SampleScratch`] bundles it with the vertex
//! buffers the samplers need, so a prediction session can thread one scratch
//! allocation through every sample it draws (see
//! [`Sampler::sample_vertices_with`](crate::Sampler::sample_vertices_with)).

use predict_graph::VertexId;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A fixed-universe bitset over vertex ids with O(set-bits) reset.
///
/// Bits are stored in `u64` words; the indices of words that ever became
/// non-zero since the last reset are tracked, so [`VisitedSet::reset`] clears
/// only those words instead of the whole allocation. Membership semantics are
/// identical to a `Vec<bool>` of the same length.
#[derive(Debug, Default, Clone)]
pub struct VisitedSet {
    words: Vec<u64>,
    /// Indices of words with at least one set bit (each pushed once, when the
    /// word transitions from zero).
    dirty: Vec<u32>,
    /// Number of addressable bits (the vertex-universe size of the last
    /// [`VisitedSet::reset`]).
    universe: usize,
}

impl VisitedSet {
    /// Creates an empty set; call [`VisitedSet::reset`] to size it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the set and (re)sizes it for a universe of `num_vertices` ids.
    ///
    /// Only words dirtied since the last reset are cleared, so back-to-back
    /// samples at small ratios touch a small fraction of the allocation. The
    /// word storage grows monotonically and is reused across resets.
    pub fn reset(&mut self, num_vertices: usize) {
        for &w in &self.dirty {
            self.words[w as usize] = 0;
        }
        self.dirty.clear();
        let needed = num_vertices.div_ceil(64);
        if self.words.len() < needed {
            self.words.resize(needed, 0);
        }
        self.universe = num_vertices;
    }

    /// Number of addressable vertex ids (set by the last reset).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// True when `v`'s bit is set.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe (mirrors `Vec<bool>` indexing).
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        assert!((v as usize) < self.universe, "vertex {v} out of universe");
        self.words[(v >> 6) as usize] & (1u64 << (v & 63)) != 0
    }

    /// Sets `v`'s bit; returns `true` when it was previously unset.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the universe.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        assert!((v as usize) < self.universe, "vertex {v} out of universe");
        let word = (v >> 6) as usize;
        let bit = 1u64 << (v & 63);
        let old = self.words[word];
        if old & bit != 0 {
            return false;
        }
        if old == 0 {
            self.dirty.push(word as u32);
        }
        self.words[word] = old | bit;
        true
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.dirty
            .iter()
            .map(|&w| self.words[w as usize].count_ones() as usize)
            .sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Reusable working memory for one sampler draw.
///
/// Samplers receive a `&mut SampleScratch` through
/// [`Sampler::sample_vertices_with`](crate::Sampler::sample_vertices_with);
/// all state is reset at the start of each draw, so reusing one scratch
/// across draws is observably identical to a fresh scratch per draw (pinned
/// by the `scratch_reuse` integration tests) — only the allocations are
/// amortized.
#[derive(Debug, Default)]
pub struct SampleScratch {
    /// Visited/selected membership of the current draw.
    pub(crate) visited: VisitedSet,
    /// Vertex buffer for the remainder fill.
    pub(crate) buf: Vec<VertexId>,
}

impl SampleScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A pool of [`SampleScratch`] buffers for concurrent draws.
///
/// One shared `Mutex<SampleScratch>` forces concurrent samplers to either
/// serialize or fall back to a fresh allocation per draw — which silently
/// re-pays exactly the cost the scratch exists to amortize whenever a
/// service batch draws samples in parallel. The pool instead hands each
/// draw its own scratch: [`ScratchPool::acquire`] pops a pooled buffer (or
/// creates one only when every buffer is in use) and the returned guard
/// pushes it back on drop, so the pool's size converges to the peak draw
/// concurrency and then stays allocation-free. [`ScratchPool::allocations`]
/// counts the scratches ever created; warm-service tests assert it stays
/// flat.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<SampleScratch>>,
    created: AtomicU64,
}

impl ScratchPool {
    /// Creates an empty pool; scratches are created on first demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks out a scratch, creating one only if none is free. The guard
    /// returns it to the pool when dropped.
    pub fn acquire(&self) -> ScratchGuard<'_> {
        let pooled = self.free.lock().unwrap_or_else(|e| e.into_inner()).pop();
        let scratch = pooled.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::SeqCst);
            SampleScratch::new()
        });
        ScratchGuard {
            scratch: Some(scratch),
            pool: self,
        }
    }

    /// Total scratches this pool has ever created — flat once the pool is
    /// warm (bounded by the peak number of concurrent draws).
    pub fn allocations(&self) -> u64 {
        self.created.load(Ordering::SeqCst)
    }

    /// Scratches currently checked in (idle).
    pub fn idle(&self) -> usize {
        self.free.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

/// Exclusive checkout of one [`SampleScratch`] from a [`ScratchPool`];
/// dereferences to the scratch and checks it back in on drop (including
/// during a panic unwind, so a failed draw never leaks its buffer).
#[derive(Debug)]
pub struct ScratchGuard<'a> {
    scratch: Option<SampleScratch>,
    pool: &'a ScratchPool,
}

impl Deref for ScratchGuard<'_> {
    type Target = SampleScratch;

    fn deref(&self) -> &SampleScratch {
        self.scratch.as_ref().expect("scratch present until drop")
    }
}

impl DerefMut for ScratchGuard<'_> {
    fn deref_mut(&mut self) -> &mut SampleScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for ScratchGuard<'_> {
    fn drop(&mut self) {
        if let Some(scratch) = self.scratch.take() {
            self.pool
                .free
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_contains_match_vec_bool() {
        let mut set = VisitedSet::new();
        set.reset(200);
        let mut reference = [false; 200];
        for v in [0u32, 1, 63, 64, 65, 127, 128, 199, 64, 0] {
            let newly = set.insert(v);
            assert_eq!(newly, !reference[v as usize], "insert({v})");
            reference[v as usize] = true;
        }
        for v in 0..200u32 {
            assert_eq!(set.contains(v), reference[v as usize], "contains({v})");
        }
        assert_eq!(set.len(), reference.iter().filter(|&&b| b).count());
    }

    #[test]
    fn reset_clears_previous_bits_only_logically() {
        let mut set = VisitedSet::new();
        set.reset(1000);
        for v in [3u32, 64, 500, 999] {
            set.insert(v);
        }
        assert_eq!(set.len(), 4);
        set.reset(1000);
        assert!(set.is_empty());
        for v in 0..1000u32 {
            assert!(!set.contains(v), "bit {v} survived reset");
        }
    }

    #[test]
    fn reset_tracks_dirty_words_exactly() {
        let mut set = VisitedSet::new();
        set.reset(64 * 100);
        // Three bits in the same word dirty one word; bits in two other
        // words dirty one each.
        for v in [10u32, 11, 12, 640, 6399] {
            set.insert(v);
        }
        assert_eq!(set.dirty.len(), 3);
    }

    #[test]
    fn reset_can_grow_and_shrink_the_universe() {
        let mut set = VisitedSet::new();
        set.reset(10);
        set.insert(9);
        set.reset(100_000);
        assert!(!set.contains(9));
        set.insert(99_999);
        assert!(set.contains(99_999));
        set.reset(8);
        assert!(!set.contains(7));
        assert_eq!(set.universe(), 8);
    }

    #[test]
    fn double_insert_reports_not_new() {
        let mut set = VisitedSet::new();
        set.reset(10);
        assert!(set.insert(5));
        assert!(!set.insert(5));
        assert_eq!(set.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_contains_panics() {
        let mut set = VisitedSet::new();
        set.reset(10);
        let _ = set.contains(10);
    }

    #[test]
    #[should_panic(expected = "out of universe")]
    fn out_of_universe_insert_panics() {
        let mut set = VisitedSet::new();
        set.reset(0);
        set.insert(0);
    }

    #[test]
    fn scratch_pool_reuses_buffers_once_warm() {
        let pool = ScratchPool::new();
        assert_eq!(pool.allocations(), 0);
        {
            let mut a = pool.acquire();
            a.visited.reset(100);
            a.visited.insert(7);
            let _b = pool.acquire();
            assert_eq!(pool.allocations(), 2, "two concurrent checkouts");
        }
        assert_eq!(pool.idle(), 2);
        // Sequential reuse never allocates again.
        for _ in 0..10 {
            let mut s = pool.acquire();
            s.visited.reset(50);
            s.visited.insert(3);
        }
        assert_eq!(pool.allocations(), 2, "warm pool must not allocate");
    }

    #[test]
    fn scratch_pool_recovers_buffers_from_panicking_draws() {
        let pool = ScratchPool::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _s = pool.acquire();
            panic!("draw failed");
        }));
        assert!(caught.is_err());
        assert_eq!(pool.idle(), 1, "the guard must check the scratch back in");
        let _again = pool.acquire();
        assert_eq!(pool.allocations(), 1, "the recovered scratch is reused");
    }
}
