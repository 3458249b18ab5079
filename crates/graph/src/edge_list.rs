//! A mutable list-of-edges graph representation.
//!
//! [`EdgeList`] is the intermediate representation produced by generators,
//! readers and samplers before the graph is frozen into a
//! [`CsrGraph`](crate::csr::CsrGraph). It supports deduplication, self-loop removal and
//! conversion to an undirected graph (by mirroring every edge), which is how
//! the paper feeds directed web/social graphs to algorithms that operate on
//! undirected graphs (semi-clustering).

use crate::types::{Edge, VertexId};

/// A growable collection of directed, optionally weighted edges.
#[derive(Debug, Clone, Default)]
pub struct EdgeList {
    edges: Vec<Edge>,
    /// Largest vertex id seen plus one; may be raised explicitly to include
    /// isolated vertices.
    num_vertices: usize,
}

impl EdgeList {
    /// Creates an empty edge list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty edge list with capacity for `cap` edges.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            edges: Vec::with_capacity(cap),
            num_vertices: 0,
        }
    }

    /// Adds an unweighted edge.
    pub fn push(&mut self, src: VertexId, dst: VertexId) {
        self.push_edge(Edge::new(src, dst));
    }

    /// Adds a weighted edge.
    pub fn push_weighted(&mut self, src: VertexId, dst: VertexId, weight: f32) {
        self.push_edge(Edge::weighted(src, dst, weight));
    }

    /// Adds an [`Edge`].
    pub fn push_edge(&mut self, edge: Edge) {
        let hi = edge.src.max(edge.dst) as usize + 1;
        if hi > self.num_vertices {
            self.num_vertices = hi;
        }
        self.edges.push(edge);
    }

    /// Ensures the vertex id space covers at least `n` vertices, so isolated
    /// vertices (no incident edges) are representable.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.num_vertices {
            self.num_vertices = n;
        }
    }

    /// Number of vertices in the id space (`max id + 1`, or an explicitly
    /// ensured larger value).
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges currently stored (including any duplicates).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns true when no edges are stored.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Immutable view of the stored edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Removes duplicate `(src, dst)` pairs in place, keeping the first
    /// occurrence (and therefore its weight). Sorts the list by `(src, dst)`
    /// as a side effect.
    ///
    /// The ordering pass is adaptive. The default path is a two-round stable
    /// counting (LSD radix) sort — `O(E + V)` instead of the `O(E log E)`
    /// comparison sort it replaced — which produces exactly the permutation
    /// a stable `sort_by_key(|e| (e.src, e.dst))` would: sorted by key,
    /// equal keys in insertion order, so the kept first occurrence is the
    /// earliest pushed. Two stream shapes fall back to that comparison sort
    /// (same result, different constant factors):
    ///
    /// * **nearly-sorted streams** — a single `O(E)` presortedness probe
    ///   counts adjacent inversions; below 1/32 of the edge count
    ///   the std stable sort's run detection finishes in near-linear time
    ///   and beats the radix's two full placement passes (the grid-road
    ///   lattice regression the ROADMAP records: its CSR-ordered edge stream
    ///   deduped 3.5x slower on the radix path);
    /// * **sparse id spaces** — vertex id spaces that dwarf the edge count
    ///   would pay `O(V)` histograms per radix round.
    pub fn dedup(&mut self) {
        let n = self.num_vertices;
        if self.edges.len() > 1 {
            if nearly_sorted(&self.edges) || n > self.edges.len().saturating_mul(4).max(64) {
                self.edges.sort_by_key(|e| (e.src, e.dst));
            } else {
                let mut scratch = vec![Edge::new(0, 0); self.edges.len()];
                // LSD radix: stable pass on the low key (dst), then a stable
                // pass on the high key (src).
                counting_sort_pass(&mut self.edges, &mut scratch, n, |e| e.dst as usize);
                counting_sort_pass(&mut self.edges, &mut scratch, n, |e| e.src as usize);
            }
        }
        self.edges.dedup_by_key(|e| (e.src, e.dst));
    }

    /// Returns a new edge list where every edge also appears reversed, which
    /// models an undirected graph in a directed representation (the convention
    /// the paper uses for Giraph). Duplicates created by mirroring already
    /// bidirectional edges are removed.
    pub fn to_undirected(&self) -> EdgeList {
        let mut out = EdgeList::with_capacity(self.edges.len() * 2);
        out.ensure_vertices(self.num_vertices);
        for e in &self.edges {
            if e.src == e.dst {
                continue;
            }
            out.push_edge(*e);
            out.push_edge(e.reversed());
        }
        out.dedup();
        out
    }
}

/// Presortedness threshold: a stream whose adjacent-inversion count is below
/// `len / NEARLY_SORTED_INVERSION_DIV` is handled by the std stable sort
/// (whose run detection makes nearly-sorted input near-`O(E)`) instead of
/// the radix path. 32 keeps genuinely shuffled streams (≈50% inversions) on
/// the radix path while catching CSR-ordered and append-mostly streams.
const NEARLY_SORTED_INVERSION_DIV: usize = 32;

/// The adaptive-dedup presortedness probe: one linear scan counting adjacent
/// pairs out of `(src, dst)` order, with an early exit once the stream is
/// provably not nearly-sorted.
fn nearly_sorted(edges: &[Edge]) -> bool {
    let budget = edges.len() / NEARLY_SORTED_INVERSION_DIV;
    let mut inversions = 0usize;
    for pair in edges.windows(2) {
        if (pair[0].src, pair[0].dst) > (pair[1].src, pair[1].dst) {
            inversions += 1;
            if inversions > budget {
                return false;
            }
        }
    }
    true
}

/// One stable counting-sort pass over `edges` by `key` (which must be
/// `< num_keys` for every edge): histogram, prefix offsets, direct placement
/// into `scratch`, then swap the buffers.
fn counting_sort_pass(
    edges: &mut Vec<Edge>,
    scratch: &mut Vec<Edge>,
    num_keys: usize,
    key: impl Fn(&Edge) -> usize,
) {
    let mut counts = vec![0usize; num_keys + 1];
    for e in edges.iter() {
        counts[key(e) + 1] += 1;
    }
    for i in 1..counts.len() {
        counts[i] += counts[i - 1];
    }
    for e in edges.iter() {
        let slot = &mut counts[key(e)];
        scratch[*slot] = *e;
        *slot += 1;
    }
    std::mem::swap(edges, scratch);
}

impl FromIterator<(VertexId, VertexId)> for EdgeList {
    fn from_iter<T: IntoIterator<Item = (VertexId, VertexId)>>(iter: T) -> Self {
        let mut list = EdgeList::new();
        for (s, d) in iter {
            list.push(s, d);
        }
        list
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tracks_vertex_count() {
        let mut el = EdgeList::new();
        el.push(0, 5);
        el.push(2, 1);
        assert_eq!(el.num_vertices(), 6);
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn ensure_vertices_extends_id_space() {
        let mut el = EdgeList::new();
        el.push(0, 1);
        el.ensure_vertices(10);
        assert_eq!(el.num_vertices(), 10);
        // Ensuring a smaller count is a no-op.
        el.ensure_vertices(3);
        assert_eq!(el.num_vertices(), 10);
    }

    #[test]
    fn dedup_removes_duplicate_pairs() {
        let mut el = EdgeList::new();
        el.push(0, 1);
        el.push(0, 1);
        el.push(1, 0);
        el.dedup();
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn dedup_keeps_first_weight() {
        let mut el = EdgeList::new();
        el.push_weighted(0, 1, 2.0);
        el.push_weighted(0, 1, 9.0);
        el.dedup();
        assert_eq!(el.num_edges(), 1);
        assert_eq!(el.edges()[0].weight, 2.0);
    }

    #[test]
    fn presortedness_probe_classifies_streams() {
        // CSR-ordered (fully sorted) stream.
        let sorted: Vec<Edge> = (0..1000u32)
            .flat_map(|s| [(s, s + 1), (s, s + 2)])
            .map(|(s, d)| Edge::new(s, d))
            .collect();
        assert!(nearly_sorted(&sorted));
        // A few displaced edges stay under the budget.
        let mut few_swaps = sorted.clone();
        few_swaps.swap(10, 500);
        few_swaps.swap(900, 1200);
        assert!(nearly_sorted(&few_swaps));
        // A reversed stream is maximally inverted.
        let mut reversed = sorted.clone();
        reversed.reverse();
        assert!(!nearly_sorted(&reversed));
    }

    #[test]
    fn dedup_on_nearly_sorted_stream_matches_reference() {
        // Sorted-with-duplicates plus a handful of out-of-place edges: the
        // probe routes this to the comparison path; results must equal the
        // stable-sort + keep-first reference regardless.
        let mut el = EdgeList::new();
        for s in 0..200u32 {
            el.push_weighted(s, s + 1, s as f32);
            el.push_weighted(s, s + 1, 999.0); // duplicate, must be dropped
        }
        el.push_weighted(5, 2, 7.0); // out-of-order stragglers
        el.push_weighted(0, 1, 123.0); // duplicate of the very first edge
        let mut reference: Vec<Edge> = el.edges().to_vec();
        reference.sort_by_key(|e| (e.src, e.dst));
        reference.dedup_by_key(|e| (e.src, e.dst));

        el.dedup();
        assert_eq!(el.num_edges(), reference.len());
        for (a, b) in el.edges().iter().zip(&reference) {
            assert_eq!((a.src, a.dst, a.weight), (b.src, b.dst, b.weight));
        }
        // The surviving weight of (0, 1) is the first pushed, not the late
        // duplicate.
        assert_eq!(el.edges()[0].weight, 0.0);
    }

    #[test]
    fn to_undirected_mirrors_edges() {
        let el: EdgeList = [(0u32, 1u32), (1, 2)].into_iter().collect();
        let und = el.to_undirected();
        let pairs: Vec<_> = und.edges().iter().map(|e| (e.src, e.dst)).collect();
        assert!(pairs.contains(&(0, 1)));
        assert!(pairs.contains(&(1, 0)));
        assert!(pairs.contains(&(1, 2)));
        assert!(pairs.contains(&(2, 1)));
        assert_eq!(und.num_edges(), 4);
    }

    #[test]
    fn to_undirected_does_not_duplicate_bidirectional_edges() {
        let el: EdgeList = [(0u32, 1u32), (1, 0)].into_iter().collect();
        let und = el.to_undirected();
        assert_eq!(und.num_edges(), 2);
    }

    #[test]
    fn to_undirected_drops_self_loops() {
        let el: EdgeList = [(0u32, 0u32), (0, 1)].into_iter().collect();
        let und = el.to_undirected();
        assert_eq!(und.num_edges(), 2);
    }

    #[test]
    fn from_iterator_collects_pairs() {
        let el: EdgeList = [(0u32, 1u32), (1, 2), (2, 3)].into_iter().collect();
        assert_eq!(el.num_edges(), 3);
        assert_eq!(el.num_vertices(), 4);
    }
}
