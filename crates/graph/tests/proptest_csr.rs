//! Property-based tests for the CSR graph representation and the induced
//! subgraph extraction — the invariants every other crate relies on.

use predict_graph::{induced_subgraph, shard_csr, CsrGraph, Edge, EdgeList, ShardedCsr, VertexId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// Strategy: an arbitrary edge list over up to `max_vertices` vertices.
fn edge_list(max_vertices: u32, max_edges: usize) -> impl Strategy<Value = EdgeList> {
    prop::collection::vec((0..max_vertices, 0..max_vertices), 0..max_edges).prop_map(|pairs| {
        let mut el = EdgeList::new();
        for (s, d) in pairs {
            el.push(s, d);
        }
        el
    })
}

/// Case count for this suite: the local default, bounded by `PROPTEST_CASES`
/// when set (CI sets it so the property suites finish in seconds).
///
/// Kept at the call site (not only in the vendored proptest) because the real
/// registry `proptest` ignores `PROPTEST_CASES` once `with_cases` is used;
/// this keeps the CI bound working if the workspace swaps back to it.
fn suite_cases(default_cases: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .map_or(default_cases, |env| default_cases.min(env))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(suite_cases(64)))]

    /// The CSR construction preserves every edge: out-degrees sum to the edge
    /// count, in-degrees sum to the edge count, and each edge appears in both
    /// the out-adjacency of its source and the in-adjacency of its target.
    #[test]
    fn csr_preserves_all_edges(el in edge_list(64, 256)) {
        let g = CsrGraph::from_edge_list(&el);
        prop_assert_eq!(g.num_edges(), el.num_edges());
        let out_sum: usize = g.vertices().map(|v| g.out_degree(v)).sum();
        let in_sum: usize = g.vertices().map(|v| g.in_degree(v)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());

        for e in el.edges() {
            prop_assert!(g.out_neighbors(e.src).contains(&e.dst));
            prop_assert!(g.in_neighbors(e.dst).contains(&e.src));
        }
    }

    /// Converting a CSR graph back to an edge list and rebuilding yields the
    /// same adjacency (up to neighbor order).
    #[test]
    fn csr_roundtrips_through_edge_list(el in edge_list(48, 200)) {
        let g = CsrGraph::from_edge_list(&el);
        let g2 = CsrGraph::from_edge_list(&g.to_edge_list());
        prop_assert_eq!(g.num_vertices(), g2.num_vertices());
        prop_assert_eq!(g.num_edges(), g2.num_edges());
        for v in g.vertices() {
            let mut a = g.out_neighbors(v).to_vec();
            let mut b = g2.out_neighbors(v).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    /// The undirected conversion is symmetric: u is an out-neighbor of v iff
    /// v is an out-neighbor of u, and no self loops survive.
    #[test]
    fn undirected_conversion_is_symmetric(el in edge_list(40, 150)) {
        let und = CsrGraph::from_edge_list(&el.to_undirected());
        for v in und.vertices() {
            prop_assert!(!und.out_neighbors(v).contains(&v));
            for &u in und.out_neighbors(v) {
                prop_assert!(und.out_neighbors(u).contains(&v), "missing reverse edge {u}->{v}");
            }
        }
    }

    /// `CsrGraph::to_undirected` — built from the two adjacencies the graph
    /// already holds — is the graph the edge-list path builds (mirror every
    /// edge, drop self-loops, stable dedup keeping the first occurrence,
    /// re-freeze): same adjacency in the same order both ways, same weights
    /// bit for bit, same weighted-or-not. Small id spaces force parallel
    /// edges, self-loops and pairs present in both directions; `weight_mode`
    /// covers unweighted input, arbitrary weights, and weighted input whose
    /// surviving weights are all 1.0 (which freezes unweighted).
    #[test]
    fn to_undirected_equals_the_edge_list_path(
        triples in prop::collection::vec((0u32..12, 0u32..12, 0u8..4), 0..120),
        extra_vertices in 0usize..4,
        weight_mode in 0u8..3,
    ) {
        let mut el = EdgeList::new();
        for (i, &(s, d, w)) in triples.iter().enumerate() {
            let weight = match weight_mode {
                0 => 1.0,
                1 => 0.5 + f32::from(w) + i as f32 / 128.0,
                // Only a repeat of an earlier pair carries a weight.
                _ if triples[..i].iter().any(|&(a, b, _)| (a, b) == (s, d) || (a, b) == (d, s)) => 7.0,
                _ => 1.0,
            };
            el.push_weighted(s, d, weight);
        }
        el.ensure_vertices(el.num_vertices() + extra_vertices);
        let g = CsrGraph::from_edge_list(&el);
        let expected = CsrGraph::from_edge_list(&g.to_edge_list().to_undirected());
        let direct = g.to_undirected();

        prop_assert_eq!(direct.num_vertices(), expected.num_vertices());
        prop_assert_eq!(direct.out_csr(), expected.out_csr());
        prop_assert_eq!(direct.is_weighted(), expected.is_weighted());
        for v in expected.vertices() {
            prop_assert_eq!(direct.in_neighbors(v), expected.in_neighbors(v));
            let bits = |g: &CsrGraph| g.out_weights(v).map(|ws| ws.iter().map(|w| w.to_bits()).collect::<Vec<_>>());
            prop_assert_eq!(bits(&direct), bits(&expected), "weights of vertex {}", v);
        }
    }

    /// An induced subgraph never contains edges that were absent from the
    /// parent graph, and its edge count is bounded by the parent's.
    #[test]
    fn induced_subgraph_is_a_subgraph(
        el in edge_list(48, 200),
        selector in prop::collection::vec(any::<bool>(), 48),
    ) {
        let g = CsrGraph::from_edge_list(&el);
        let selected: Vec<VertexId> = g
            .vertices()
            .filter(|&v| selector.get(v as usize).copied().unwrap_or(false))
            .collect();
        let (sub, mapping) = induced_subgraph(&g, &selected);
        prop_assert!(sub.num_vertices() <= g.num_vertices());
        prop_assert!(sub.num_edges() <= g.num_edges());
        for (s, d, _) in sub.edges() {
            let orig_s = mapping.original_id(s);
            let orig_d = mapping.original_id(d);
            prop_assert!(g.out_neighbors(orig_s).contains(&orig_d));
        }
    }

    /// Weighted edges keep their weights through CSR construction.
    #[test]
    fn weights_are_preserved(
        pairs in prop::collection::vec((0u32..32, 0u32..32, 0.1f32..10.0), 1..100),
    ) {
        let mut el = EdgeList::new();
        for &(s, d, w) in &pairs {
            el.push_edge(Edge::weighted(s, d, w));
        }
        let g = CsrGraph::from_edge_list(&el);
        let total_weight: f64 = g.edges().map(|(_, _, w)| w as f64).sum();
        let expected: f64 = pairs.iter().map(|&(_, _, w)| w as f64).sum();
        prop_assert!((total_weight - expected).abs() < 1e-3);
    }

    /// The counting-sort CSR build equals a naive per-vertex reference build
    /// edge for edge — same neighbor order, same in-adjacency order, same
    /// weights — on random edge lists with duplicates and self-loops.
    #[test]
    fn counting_csr_matches_reference_adjacency(
        triples in prop::collection::vec((0u32..48, 0u32..48, 1.0f32..4.0), 0..250),
        weighted in any::<bool>(),
    ) {
        let n = 48usize;
        let mut el = EdgeList::new();
        el.ensure_vertices(n);
        // `weighted == false` exercises the unweighted storage path too.
        for &(s, d, w) in &triples {
            el.push_edge(Edge::weighted(s, d, if weighted { w } else { 1.0 }));
        }
        let g = CsrGraph::from_edge_list(&el);

        // Reference: adjacency assembled by per-vertex pushes in edge order.
        let mut out_ref: Vec<Vec<(u32, f32)>> = vec![Vec::new(); n];
        let mut in_ref: Vec<Vec<u32>> = vec![Vec::new(); n];
        for e in el.edges() {
            out_ref[e.src as usize].push((e.dst, e.weight));
            in_ref[e.dst as usize].push(e.src);
        }
        for v in g.vertices() {
            let expected_out: Vec<u32> = out_ref[v as usize].iter().map(|&(d, _)| d).collect();
            prop_assert_eq!(g.out_neighbors(v), expected_out.as_slice());
            prop_assert_eq!(g.in_neighbors(v), in_ref[v as usize].as_slice());
            if let Some(ws) = g.out_weights(v) {
                let expected_w: Vec<f32> = out_ref[v as usize].iter().map(|&(_, w)| w).collect();
                prop_assert_eq!(ws, expected_w.as_slice());
            }
        }
    }

    /// The radix-sort `EdgeList::dedup` equals the sort-based reference it
    /// replaced (stable `sort_by_key` + keep-first `dedup_by_key`) on random
    /// lists with duplicates and self-loops, including which weight survives.
    #[test]
    fn radix_dedup_matches_sort_based_reference(
        triples in prop::collection::vec((0u32..24, 0u32..24, 0.5f32..8.0), 0..300),
        extra_vertices in 0usize..64,
    ) {
        let mut el = EdgeList::new();
        for &(s, d, w) in &triples {
            el.push_edge(Edge::weighted(s, d, w));
        }
        // A large ensured id space exercises the comparison-sort fallback.
        el.ensure_vertices(el.num_vertices() + extra_vertices);
        let mut reference: Vec<Edge> = el.edges().to_vec();
        reference.sort_by_key(|e| (e.src, e.dst));
        reference.dedup_by_key(|e| (e.src, e.dst));

        el.dedup();
        prop_assert_eq!(el.num_edges(), reference.len());
        for (a, b) in el.edges().iter().zip(&reference) {
            prop_assert_eq!((a.src, a.dst), (b.src, b.dst));
            prop_assert_eq!(a.weight, b.weight, "surviving weight differs for ({}, {})", a.src, a.dst);
        }
    }

    /// The direct induced-subgraph CSR assembly equals the edge-list
    /// reference path byte for byte: same neighbor order, same in-adjacency,
    /// same weight storage decision.
    #[test]
    fn induced_subgraph_matches_edge_list_reference(
        triples in prop::collection::vec((0u32..40, 0u32..40, 1.0f32..4.0), 0..220),
        selector in prop::collection::vec(any::<bool>(), 40),
        weighted in any::<bool>(),
    ) {
        let mut el = EdgeList::new();
        el.ensure_vertices(40);
        for &(s, d, w) in &triples {
            el.push_edge(Edge::weighted(s, d, if weighted { w } else { 1.0 }));
        }
        let g = CsrGraph::from_edge_list(&el);
        let selected: Vec<VertexId> = g
            .vertices()
            .filter(|&v| selector[v as usize])
            .collect();
        let (sub, mapping) = induced_subgraph(&g, &selected);

        // Reference: the pre-optimization implementation — push surviving
        // edges into an EdgeList and freeze it.
        let mut ref_edges = EdgeList::new();
        ref_edges.ensure_vertices(selected.len());
        for (new_src, orig_src) in mapping.iter() {
            let nbrs = g.out_neighbors(orig_src);
            let ws = g.out_weights(orig_src);
            for (i, &orig_dst) in nbrs.iter().enumerate() {
                if let Some(new_dst) = mapping.sample_id(orig_dst) {
                    let w = ws.map(|w| w[i]).unwrap_or(1.0);
                    ref_edges.push_weighted(new_src, new_dst, w);
                }
            }
        }
        let reference = CsrGraph::from_edge_list(&ref_edges);

        prop_assert_eq!(sub.num_vertices(), reference.num_vertices());
        prop_assert_eq!(sub.num_edges(), reference.num_edges());
        prop_assert_eq!(sub.is_weighted(), reference.is_weighted());
        for v in sub.vertices() {
            prop_assert_eq!(sub.out_neighbors(v), reference.out_neighbors(v));
            prop_assert_eq!(sub.in_neighbors(v), reference.in_neighbors(v));
            prop_assert_eq!(sub.out_weights(v), reference.out_weights(v));
        }
    }

    /// The in-adjacency a graph builds on first use equals the one an eager
    /// build lays down: an induced subgraph's equals that of the edge-list
    /// build over its edges listed in CSR order, before and after a serde
    /// round trip (which stores no in-adjacency); the undirected twin's
    /// equals its own out-adjacency, and the twin is the edge-list path's
    /// graph; and four threads racing the first query all see equal slices.
    #[test]
    fn lazy_in_adjacency_equals_the_eager_one(
        triples in prop::collection::vec((0u32..40, 0u32..40, 1.0f32..4.0), 0..220),
        selector in prop::collection::vec(any::<bool>(), 40),
        weighted in any::<bool>(),
    ) {
        let mut el = EdgeList::new();
        el.ensure_vertices(40);
        for &(s, d, w) in &triples {
            el.push_edge(Edge::weighted(s, d, if weighted { w } else { 1.0 }));
        }
        let g = CsrGraph::from_edge_list(&el);
        let selected: Vec<VertexId> = g.vertices().filter(|&v| selector[v as usize]).collect();
        let (sub, _) = induced_subgraph(&g, &selected);
        let racing = sub.clone();

        let eager = CsrGraph::from_edge_list(&sub.to_edge_list());
        let round_trip = CsrGraph::deserialize_value(&sub.serialize_value()).unwrap();
        prop_assert_eq!(round_trip.out_csr(), sub.out_csr());
        for v in sub.vertices() {
            prop_assert_eq!(sub.in_neighbors(v), eager.in_neighbors(v));
            prop_assert_eq!(round_trip.in_neighbors(v), eager.in_neighbors(v));
            prop_assert_eq!(round_trip.out_weights(v), sub.out_weights(v));
        }

        let twin = g.to_undirected();
        let expected = CsrGraph::from_edge_list(&g.to_edge_list().to_undirected());
        prop_assert_eq!(twin.out_csr(), expected.out_csr());
        for v in twin.vertices() {
            prop_assert_eq!(twin.in_neighbors(v), twin.out_neighbors(v));
            prop_assert_eq!(twin.out_weights(v), expected.out_weights(v));
        }

        let views: Vec<Vec<Vec<VertexId>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| racing.vertices().map(|v| racing.in_neighbors(v).to_vec()).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let reference: Vec<Vec<VertexId>> = sub.vertices().map(|v| sub.in_neighbors(v).to_vec()).collect();
        for view in &views {
            prop_assert_eq!(view, &reference);
        }
    }

    /// The adaptive dedup (presortedness probe -> comparison sort on
    /// nearly-sorted streams, radix otherwise) equals the stable-sort
    /// reference on *nearly-sorted* inputs: a sorted-with-duplicates stream
    /// perturbed by a bounded number of random swaps, the shape the probe
    /// routes to the comparison path.
    #[test]
    fn adaptive_dedup_on_nearly_sorted_streams_matches_reference(
        base in prop::collection::vec((0u32..32, 0u32..32, 0.5f32..8.0), 1..250),
        swaps in prop::collection::vec((0usize..250, 0usize..250), 0..6),
    ) {
        let mut edges: Vec<Edge> = base
            .iter()
            .map(|&(s, d, w)| Edge::weighted(s, d, w))
            .collect();
        // Sort first (keeping first-occurrence order for equal keys), then
        // displace a few edges: a nearly-sorted stream with duplicates.
        edges.sort_by_key(|e| (e.src, e.dst));
        let len = edges.len();
        for &(i, j) in &swaps {
            edges.swap(i % len, j % len);
        }
        let mut el = EdgeList::new();
        for &e in &edges {
            el.push_edge(e);
        }
        let mut reference = edges.clone();
        reference.sort_by_key(|e| (e.src, e.dst));
        reference.dedup_by_key(|e| (e.src, e.dst));

        el.dedup();
        prop_assert_eq!(el.num_edges(), reference.len());
        for (a, b) in el.edges().iter().zip(&reference) {
            prop_assert_eq!((a.src, a.dst, a.weight), (b.src, b.dst, b.weight));
        }
    }

    /// Sharding is a pure re-layout: for any (possibly weighted) edge list,
    /// worker count and modulo ownership, every shard's per-slot adjacency
    /// and weights equal the unified CSR's for the owned vertex, shard totals
    /// partition the graph, and every shard survives `from_parts`. Covers
    /// empty worker ranges (more workers than vertices) and cross-shard
    /// weighted edges by construction.
    #[test]
    fn sharded_csr_matches_unified_reference(
        pairs in prop::collection::vec((0u32..40, 0u32..40, 0.5f32..4.0), 0..160),
        workers in 1usize..9,
        weighted in any::<bool>(),
    ) {
        let mut el = EdgeList::new();
        for (s, d, w) in pairs {
            el.push_edge(Edge::weighted(s, d, if weighted { w } else { 1.0 }));
        }
        let g = CsrGraph::from_edge_list(&el);
        let owner = |v: VertexId| v as usize % workers;
        let shards = shard_csr(&g, workers, owner);

        prop_assert_eq!(shards.len(), workers);
        let vertex_total: usize = shards.iter().map(ShardedCsr::num_local_vertices).sum();
        let edge_total: usize = shards.iter().map(ShardedCsr::num_local_edges).sum();
        prop_assert_eq!(vertex_total, g.num_vertices());
        prop_assert_eq!(edge_total, g.num_edges());

        for shard in &shards {
            prop_assert_eq!(shard.is_weighted(), g.is_weighted());
            for (slot, &v) in shard.owned().iter().enumerate() {
                prop_assert_eq!(owner(v), shard.worker());
                prop_assert_eq!(shard.out_neighbors_at(slot), g.out_neighbors(v));
                prop_assert_eq!(shard.out_weights_at(slot), g.out_weights(v));
            }
            let rebuilt = ShardedCsr::from_parts(
                shard.worker(),
                shard.num_workers(),
                shard.global_vertices(),
                shard.global_edges(),
                shard.owned().to_vec(),
                shard.out_offsets().to_vec(),
                shard.out_targets().to_vec(),
                shard.out_weights().map(<[f32]>::to_vec),
            );
            prop_assert!(rebuilt.is_ok(), "{:?}", rebuilt.err());
        }
    }

    /// The cached counting-bucket degree ordering equals a stable
    /// comparison-sort reference: descending out-degree, ties in ascending
    /// vertex order.
    #[test]
    fn degree_order_matches_stable_sort(el in edge_list(56, 300)) {
        let g = CsrGraph::from_edge_list(&el);
        let mut reference: Vec<VertexId> = g.vertices().collect();
        reference.sort_by_key(|&v| std::cmp::Reverse(g.out_degree(v)));
        prop_assert_eq!(g.vertices_by_out_degree_desc(), reference.as_slice());
        // The cache returns the identical ordering on re-query.
        prop_assert_eq!(g.vertices_by_out_degree_desc(), reference.as_slice());
    }
}
