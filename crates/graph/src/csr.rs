//! Compressed sparse row (CSR) directed graph.
//!
//! [`CsrGraph`] is the frozen, read-optimized graph representation used by the
//! BSP engine and the samplers. It stores the out-adjacency (for message
//! sending and random walks) plus optional per-out-edge weights for weighted
//! algorithms such as semi-clustering. The in-adjacency (for in-degree
//! statistics, property analysis and Metropolis–Hastings walks) is derived
//! data, built on first use unless the constructor had it for free.

use crate::edge_list::EdgeList;
use crate::types::{Edge, VertexId};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Immutable directed graph in compressed-sparse-row form.
///
/// Vertices are densely numbered `0..num_vertices()`. Out-neighbors of vertex
/// `v` are `out_offsets[v]..out_offsets[v + 1]` into `out_targets`; the
/// in-adjacency has the same shape. Edge weights, when present, are aligned
/// with `out_targets`.
///
/// Construction is sorting-free end to end: the out-adjacency is placed by a
/// two-pass counting build (degree histogram → prefix offsets → direct
/// placement), and the degree ordering consumed by Biased Random Jump seed
/// selection is produced by a counting-bucket pass cached on the graph.
///
/// The in-adjacency is a cache like the degree order. [`Self::from_edges`]
/// fills it in its single placement pass, in edge-list order; every other
/// constructor (subgraph extraction, [`Self::to_undirected`],
/// `Deserialize`) leaves it empty, and the first [`Self::in_degree`] or
/// [`Self::in_neighbors`] call builds it by a counting transpose in CSR
/// order. Both caches are excluded from serialization, so the persistent
/// artifact store (`predict_store`) keeps only the out-adjacency of the
/// sampled subgraphs it round-trips across process restarts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CsrGraph {
    num_vertices: usize,
    out_offsets: Vec<usize>,
    out_targets: Vec<VertexId>,
    out_weights: Option<Vec<f32>>,
    /// Lazily built in-adjacency. Derived data: excluded from serialization
    /// and rebuilt on demand.
    #[serde(skip)]
    in_adjacency: OnceLock<InAdjacency>,
    /// Lazily computed [`Self::vertices_by_out_degree_desc`] cache. Derived
    /// data: excluded from serialization and rebuilt on demand.
    #[serde(skip)]
    degree_order: OnceLock<Vec<VertexId>>,
}

/// The in-adjacency of a [`CsrGraph`]: sources of the incoming edges of `v`
/// are `sources[offsets[v]..offsets[v + 1]]`.
#[derive(Debug, Clone)]
struct InAdjacency {
    offsets: Vec<usize>,
    sources: Vec<VertexId>,
}

impl CsrGraph {
    /// Builds a CSR graph from an edge list. Duplicate edges are preserved
    /// as parallel edges; call [`EdgeList::dedup`] first if that is undesired.
    pub fn from_edge_list(list: &EdgeList) -> Self {
        Self::from_edges(list.num_vertices(), list.edges())
    }

    /// Builds a CSR graph from a slice of edges over `num_vertices` vertices.
    ///
    /// # Panics
    ///
    /// Panics if any edge references a vertex `>= num_vertices`.
    pub fn from_edges(num_vertices: usize, edges: &[Edge]) -> Self {
        let weighted = edges.iter().any(|e| e.weight != 1.0);

        let mut out_degree = vec![0usize; num_vertices];
        let mut in_degree = vec![0usize; num_vertices];
        for e in edges {
            assert!(
                (e.src as usize) < num_vertices && (e.dst as usize) < num_vertices,
                "edge ({}, {}) out of bounds for {} vertices",
                e.src,
                e.dst,
                num_vertices
            );
            out_degree[e.src as usize] += 1;
            in_degree[e.dst as usize] += 1;
        }

        let out_offsets = prefix_sum(&out_degree);
        let in_offsets = prefix_sum(&in_degree);
        let num_edges = edges.len();

        let mut out_targets = vec![0 as VertexId; num_edges];
        let mut out_weights = if weighted {
            Some(vec![1.0f32; num_edges])
        } else {
            None
        };
        let mut in_sources = vec![0 as VertexId; num_edges];

        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for e in edges {
            let oc = &mut out_cursor[e.src as usize];
            out_targets[*oc] = e.dst;
            if let Some(w) = out_weights.as_mut() {
                w[*oc] = e.weight;
            }
            *oc += 1;

            let ic = &mut in_cursor[e.dst as usize];
            in_sources[*ic] = e.src;
            *ic += 1;
        }

        Self {
            num_vertices,
            out_offsets,
            out_targets,
            out_weights,
            in_adjacency: OnceLock::from(InAdjacency {
                offsets: in_offsets,
                sources: in_sources,
            }),
            degree_order: OnceLock::new(),
        }
    }

    /// Builds a CSR graph directly from pre-assembled out-adjacency arrays
    /// (offsets must be a valid prefix-sum over `num_vertices + 1` entries and
    /// every target `< num_vertices`). The in-adjacency is left to be built
    /// on first use, in CSR order — identical to building from the
    /// equivalent edge list. Used by [`crate::subgraph::induced_subgraph`] to
    /// skip the intermediate edge-list materialization.
    pub(crate) fn from_csr_parts(
        num_vertices: usize,
        out_offsets: Vec<usize>,
        out_targets: Vec<VertexId>,
        out_weights: Option<Vec<f32>>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), num_vertices + 1);
        debug_assert_eq!(out_offsets.last().copied().unwrap_or(0), out_targets.len());
        Self {
            num_vertices,
            out_offsets,
            out_targets,
            out_weights,
            in_adjacency: OnceLock::new(),
            degree_order: OnceLock::new(),
        }
    }

    /// The in-adjacency, built on first use by the counting transpose of the
    /// out-adjacency: one in-degree histogram, prefix offsets, then direct
    /// placement visiting the out-edges in CSR order.
    fn in_adjacency(&self) -> &InAdjacency {
        self.in_adjacency.get_or_init(|| {
            let mut in_degree = vec![0usize; self.num_vertices];
            for &dst in &self.out_targets {
                in_degree[dst as usize] += 1;
            }
            let offsets = prefix_sum(&in_degree);
            let mut sources = vec![0 as VertexId; self.out_targets.len()];
            let mut cursor = offsets.clone();
            for v in 0..self.num_vertices {
                let row = &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]];
                for &dst in row {
                    let c = &mut cursor[dst as usize];
                    sources[*c] = v as VertexId;
                    *c += 1;
                }
            }
            InAdjacency { offsets, sources }
        })
    }

    /// Number of vertices in the graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of directed edges in the graph.
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// True when the graph stores per-edge weights.
    pub fn is_weighted(&self) -> bool {
        self.out_weights.is_some()
    }

    /// Out-degree of vertex `v`.
    pub fn out_degree(&self, v: VertexId) -> usize {
        let v = v as usize;
        self.out_offsets[v + 1] - self.out_offsets[v]
    }

    /// In-degree of vertex `v`. The first in-adjacency query of a graph
    /// not built by [`Self::from_edges`] builds the in-adjacency.
    pub fn in_degree(&self, v: VertexId) -> usize {
        let offsets = &self.in_adjacency().offsets;
        let v = v as usize;
        offsets[v + 1] - offsets[v]
    }

    /// Out-neighbors of vertex `v`.
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        &self.out_targets[self.out_offsets[v]..self.out_offsets[v + 1]]
    }

    /// The whole out-adjacency as its two CSR arrays: `offsets` (one entry
    /// per vertex plus the end sentinel) into `targets`, so that
    /// [`Self::out_neighbors`]`(v)` is `targets[offsets[v]..offsets[v + 1]]`.
    /// For consumers that stream the structure (hashing, bulk export)
    /// instead of visiting it vertex by vertex.
    pub fn out_csr(&self) -> (&[usize], &[VertexId]) {
        (&self.out_offsets, &self.out_targets)
    }

    /// Weights of the out-edges of `v`, aligned with [`Self::out_neighbors`].
    /// Returns `None` for unweighted graphs.
    pub fn out_weights(&self, v: VertexId) -> Option<&[f32]> {
        let v = v as usize;
        self.out_weights
            .as_ref()
            .map(|w| &w[self.out_offsets[v]..self.out_offsets[v + 1]])
    }

    /// In-neighbors (sources of incoming edges) of vertex `v`: in edge-list
    /// order for a graph built by [`Self::from_edges`], in CSR order (by
    /// ascending source) otherwise. Builds the in-adjacency on first use like
    /// [`Self::in_degree`].
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let inc = self.in_adjacency();
        let v = v as usize;
        &inc.sources[inc.offsets[v]..inc.offsets[v + 1]]
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices as VertexId
    }

    /// Iterates over all directed edges as `(src, dst, weight)` triples.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, f32)> + '_ {
        (0..self.num_vertices as VertexId).flat_map(move |v| {
            let nbrs = self.out_neighbors(v);
            let ws = self.out_weights(v);
            nbrs.iter().enumerate().map(move |(i, &d)| {
                let w = ws.map(|w| w[i]).unwrap_or(1.0);
                (v, d, w)
            })
        })
    }

    /// Average out-degree (`num_edges / num_vertices`), 0.0 for empty graphs.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices as f64
        }
    }

    /// Vertices ordered by descending out-degree (ties by ascending vertex
    /// id). Used by Biased Random Jump seed selection and by the
    /// critical-path worker model.
    ///
    /// Computed once per graph by a stable counting-bucket pass (`O(V +
    /// max_degree)`, no comparison sort) and cached, so samplers that restart
    /// from the hub core pay for the ordering only on their first draw
    /// instead of re-sorting the full graph on every sample.
    pub fn vertices_by_out_degree_desc(&self) -> &[VertexId] {
        self.degree_order.get_or_init(|| {
            let max_degree = (0..self.num_vertices)
                .map(|v| self.out_offsets[v + 1] - self.out_offsets[v])
                .max()
                .unwrap_or(0);
            // Stable counting sort by `max_degree - degree`: descending
            // degree, ties in ascending vertex order — exactly the order a
            // stable `sort_by_key(Reverse(degree))` produces.
            let mut counts = vec![0usize; max_degree + 1];
            for v in 0..self.num_vertices {
                let degree = self.out_offsets[v + 1] - self.out_offsets[v];
                counts[max_degree - degree] += 1;
            }
            let mut cursor = prefix_sum(&counts);
            let mut order = vec![0 as VertexId; self.num_vertices];
            for v in 0..self.num_vertices {
                let degree = self.out_offsets[v + 1] - self.out_offsets[v];
                let c = &mut cursor[max_degree - degree];
                order[*c] = v as VertexId;
                *c += 1;
            }
            order
        })
    }

    /// Converts back to an edge list (useful for re-sampling or re-weighting).
    pub fn to_edge_list(&self) -> EdgeList {
        let mut el = EdgeList::with_capacity(self.num_edges());
        el.ensure_vertices(self.num_vertices);
        for (s, d, w) in self.edges() {
            el.push_weighted(s, d, w);
        }
        el
    }

    /// The undirected form of this graph in directed representation: every
    /// edge also present reversed, self-loops dropped, parallel edges merged,
    /// adjacency sorted by neighbor id — the graph
    /// `CsrGraph::from_edge_list(&self.to_edge_list().to_undirected())`
    /// builds, without the edge list, the mirroring or the dedup sort.
    ///
    /// The structure comes from the two adjacencies of this graph (building
    /// the in-adjacency if it is not built yet) in one scatter: row `x` is
    /// sized by `out_degree(x) + in_degree(x)`, each distinct neighbor is
    /// placed once, and the rows are then compacted in place. The result is
    /// symmetric, so its own in-adjacency equals its out-adjacency and is
    /// left to be built on first use. A weighted graph keeps, for both
    /// directions of a pair, the weight of the pair's first edge in CSR order
    /// (ascending source, then stored order), which is the first occurrence
    /// [`EdgeList::to_undirected`]'s dedup keeps.
    pub fn to_undirected(&self) -> CsrGraph {
        let n = self.num_vertices;
        let inc = self.in_adjacency();
        // Both offset arrays are prefix sums, so their sum is the prefix sum
        // of `out_degree + in_degree`: the start of each row's room.
        let room: Vec<usize> = (0..=n)
            .map(|x| self.out_offsets[x] + inc.offsets[x])
            .collect();
        let mut targets = vec![0 as VertexId; room[n]];
        let mut cursor = room[..n].to_vec();
        self.for_each_undirected_edge(|x, u| {
            targets[cursor[x]] = u as VertexId;
            cursor[x] += 1;
        });
        // Compact: every row moves down to where the previous one ended,
        // never past its own start.
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for x in 0..n {
            let end = offsets[x];
            targets.copy_within(room[x]..cursor[x], end);
            offsets.push(end + cursor[x] - room[x]);
        }
        targets.truncate(offsets[n]);

        // `edges()` walks CSR order: the first edge to reach a slot, forward
        // or mirrored, is the first occurrence the edge-list dedup keeps.
        let weights = self.is_weighted().then(|| {
            let mut weights = vec![1.0f32; targets.len()];
            let mut placed = vec![false; targets.len()];
            for (u, x, weight) in self.edges().filter(|&(u, x, _)| u != x) {
                for (from, to) in [(u, x), (x, u)] {
                    let (lo, hi) = (offsets[from as usize], offsets[from as usize + 1]);
                    let found = targets[lo..hi].binary_search(&to);
                    let at = lo + found.expect("every edge is in the undirected structure");
                    if !std::mem::replace(&mut placed[at], true) {
                        weights[at] = weight;
                    }
                }
            }
            weights
        });
        // Like `from_edges`: all-1.0 weights freeze as an unweighted graph.
        let weights = weights.filter(|ws| ws.iter().any(|&w| w != 1.0));

        Self::from_csr_parts(n, offsets, targets, weights)
    }

    /// Calls `add(x, u)` once per ordered pair of distinct vertices joined
    /// by an edge in either direction, with `u` ascending for every `x`.
    ///
    /// Visiting `u` in ascending order and handing it to each vertex adjacent
    /// to it makes the repeats of one `u` (parallel edges, an edge present
    /// both ways) adjacent in time: `last[x] == u` spots them.
    fn for_each_undirected_edge(&self, mut add: impl FnMut(usize, usize)) {
        let inc = self.in_adjacency();
        let mut last = vec![usize::MAX; self.num_vertices];
        for u in 0..self.num_vertices {
            let out = &self.out_targets[self.out_offsets[u]..self.out_offsets[u + 1]];
            let inc = &inc.sources[inc.offsets[u]..inc.offsets[u + 1]];
            out.iter().chain(inc).for_each(|&x| {
                let x = x as usize;
                if x != u && last[x] != u {
                    last[x] = u;
                    add(x, u);
                }
            });
        }
    }

    /// Rough in-memory footprint in bytes of the graph structure, used by the
    /// dataset presets to report a "size" column analogous to Table 2. Counts
    /// both adjacencies whether or not the in-adjacency is built yet: it has
    /// the out-adjacency's shape.
    pub fn size_bytes(&self) -> usize {
        2 * self.out_offsets.len() * std::mem::size_of::<usize>()
            + 2 * self.out_targets.len() * std::mem::size_of::<VertexId>()
            + self
                .out_weights
                .as_ref()
                .map(|w| w.len() * std::mem::size_of::<f32>())
                .unwrap_or(0)
    }
}

pub(crate) fn prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn diamond() -> CsrGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let el: EdgeList = [(0u32, 1u32), (0, 2), (1, 3), (2, 3)].into_iter().collect();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_weighted());
        assert_eq!(g.avg_degree(), 1.0);
    }

    #[test]
    fn out_and_in_adjacency_are_consistent() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
        let mut n0: Vec<_> = g.out_neighbors(0).to_vec();
        n0.sort();
        assert_eq!(n0, vec![1, 2]);
        let mut i3: Vec<_> = g.in_neighbors(3).to_vec();
        i3.sort();
        assert_eq!(i3, vec![1, 2]);
    }

    #[test]
    fn weighted_graph_preserves_weights() {
        let mut el = EdgeList::new();
        el.push_weighted(0, 1, 0.5);
        el.push_weighted(1, 2, 2.5);
        let g = CsrGraph::from_edge_list(&el);
        assert!(g.is_weighted());
        assert_eq!(g.out_weights(0).unwrap(), &[0.5]);
        assert_eq!(g.out_weights(1).unwrap(), &[2.5]);
        assert!(g.out_weights(2).unwrap().is_empty());
    }

    #[test]
    fn unweighted_graph_has_no_weight_storage() {
        let g = diamond();
        assert!(g.out_weights(0).is_none());
    }

    #[test]
    fn edges_iterator_yields_all_edges() {
        let g = diamond();
        let mut pairs: Vec<_> = g.edges().map(|(s, d, _)| (s, d)).collect();
        pairs.sort();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn roundtrip_through_edge_list() {
        let g = diamond();
        let el = g.to_edge_list();
        let g2 = CsrGraph::from_edge_list(&el);
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for v in g.vertices() {
            let mut a = g.out_neighbors(v).to_vec();
            let mut b = g2.out_neighbors(v).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn vertices_by_out_degree_desc_orders_hubs_first() {
        let el: EdgeList = [(0u32, 1u32), (0, 2), (0, 3), (1, 2)].into_iter().collect();
        let g = CsrGraph::from_edge_list(&el);
        let order = g.vertices_by_out_degree_desc();
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 1);
    }

    #[test]
    fn empty_graph_is_well_formed() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn isolated_vertices_have_zero_degree() {
        let mut el = EdgeList::new();
        el.push(0, 1);
        el.ensure_vertices(5);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.out_degree(4), 0);
        assert_eq!(g.in_degree(4), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        CsrGraph::from_edges(2, &[Edge::new(0, 5)]);
    }

    #[test]
    fn size_bytes_is_positive_for_nonempty_graph() {
        let g = diamond();
        assert!(g.size_bytes() > 0);
    }

    /// A graph serialized with `in_offsets`/`in_sources`, the form older
    /// store files carry, still deserializes: the two extra keys are ignored
    /// and the in-adjacency is rebuilt equal. Stored graphs are induced
    /// subgraphs, whose stored in-adjacency is in CSR order, so the edges
    /// here are listed in CSR order too.
    #[test]
    fn stored_in_adjacency_is_ignored_on_read() {
        let el: EdgeList = [(0u32, 1u32), (0, 1), (1, 1), (2, 0), (2, 3), (3, 1)]
            .into_iter()
            .collect();
        let g = CsrGraph::from_edge_list(&el);
        let Value::Map(mut fields) = g.serialize_value() else {
            panic!("a graph serializes as a map");
        };
        let in_degrees: Vec<usize> = g.vertices().map(|v| g.in_degree(v)).collect();
        let in_offsets = prefix_sum(&in_degrees);
        let in_sources: Vec<VertexId> = g
            .vertices()
            .flat_map(|v| g.in_neighbors(v).to_vec())
            .collect();
        fields.push(("in_offsets".to_string(), in_offsets.serialize_value()));
        fields.push(("in_sources".to_string(), in_sources.serialize_value()));

        let back = CsrGraph::deserialize_value(&Value::Map(fields)).unwrap();
        assert_eq!(back.out_csr(), g.out_csr());
        for v in g.vertices() {
            assert_eq!(back.in_neighbors(v), g.in_neighbors(v));
        }
        assert_eq!(back.size_bytes(), g.size_bytes());
    }

    #[test]
    fn parallel_edges_are_preserved() {
        let mut el = EdgeList::new();
        el.push(0, 1);
        el.push(0, 1);
        let g = CsrGraph::from_edge_list(&el);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 2);
    }
}
