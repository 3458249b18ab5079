//! Web-style two-mode (bipartite) graph generator.
//!
//! Two-mode graphs — users × pages, crawlers × hosts, queries × documents —
//! are a workload regime Table 2 of the paper does not cover: every edge
//! crosses between the two vertex classes, so odd-length cycles do not exist,
//! random walks strictly alternate sides, and the degree distribution is a
//! *mixture* (near-uniform on the "user" side, heavy-tailed on the "site"
//! side). That shape stresses samplers differently from a one-mode power-law
//! graph: hub-biased restarts (BRJ) lock onto the popular side, while
//! uniform techniques (MHRW) see mostly the large near-uniform side. The
//! `table2_new_datasets` / `fig9_new_generators` experiment binaries sweep
//! this generator to measure prediction error in that regime (ROADMAP
//! "bipartite web graphs" item).
//!
//! The generator draws `num_edges` left→right pairs: the left endpoint is
//! uniform (every user is about equally active), the right endpoint follows a
//! power-law popularity (`index = floor(num_right * u^skew)` — larger
//! [`BipartiteConfig::skew`] concentrates more edges on fewer sites). Every
//! pair is mirrored so walks can return from the popular side. Duplicates are
//! removed; the result is deterministic for a fixed seed.

use crate::csr::CsrGraph;
use crate::edge_list::EdgeList;
use crate::types::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`generate_bipartite`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BipartiteConfig {
    /// Vertices on the left (uniform-activity) side; ids `0..num_left`.
    pub num_left: usize,
    /// Vertices on the right (power-law popularity) side; ids
    /// `num_left..num_left + num_right`.
    pub num_right: usize,
    /// Number of left→right pairs drawn before mirroring and deduplication.
    pub num_edges: usize,
    /// Popularity skew of the right side (`u^skew` index transform);
    /// 1.0 = uniform, larger = heavier tail. Defaults to 3.0.
    pub skew: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl BipartiteConfig {
    /// Creates a config with the default popularity skew.
    ///
    /// # Panics
    ///
    /// Panics unless both sides have at least one vertex.
    pub fn new(num_left: usize, num_right: usize, num_edges: usize) -> Self {
        assert!(
            num_left >= 1 && num_right >= 1,
            "both sides need at least one vertex, got {num_left} and {num_right}"
        );
        Self {
            num_left,
            num_right,
            num_edges,
            skew: 3.0,
            seed: 0,
        }
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Number of vertices the generated graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_left + self.num_right
    }
}

/// Generates a two-mode graph according to `config`.
///
/// Every edge connects a left vertex (`0..num_left`) with a right vertex
/// (`num_left..num_left + num_right`) in both directions; no edge stays
/// within one side.
pub fn generate_bipartite(config: &BipartiteConfig) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut edges = EdgeList::with_capacity(config.num_edges * 2);
    edges.ensure_vertices(config.num_vertices());

    for _ in 0..config.num_edges {
        let left = rng.gen_range(0..config.num_left) as VertexId;
        // Power-law popularity: u^skew pushes the index towards 0, so low
        // right-side indices collect most of the edges.
        let u: f64 = rng.gen_range(0.0..1.0);
        let idx = ((config.num_right as f64) * u.powf(config.skew)) as usize;
        let right = (config.num_left + idx.min(config.num_right - 1)) as VertexId;
        edges.push(left, right);
        edges.push(right, left);
    }
    edges.dedup();
    CsrGraph::from_edge_list(&edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_left(config: &BipartiteConfig, v: VertexId) -> bool {
        (v as usize) < config.num_left
    }

    #[test]
    fn every_edge_crosses_sides() {
        let cfg = BipartiteConfig::new(200, 50, 1000).with_seed(1);
        let g = generate_bipartite(&cfg);
        assert_eq!(g.num_vertices(), 250);
        for (s, d, _) in g.edges() {
            assert_ne!(
                is_left(&cfg, s),
                is_left(&cfg, d),
                "edge {s}->{d} stays on one side"
            );
        }
    }

    #[test]
    fn edges_are_symmetric() {
        let g = generate_bipartite(&BipartiteConfig::new(100, 30, 500).with_seed(2));
        for v in g.vertices() {
            for &u in g.out_neighbors(v) {
                assert!(g.out_neighbors(u).contains(&v), "missing reverse {u}->{v}");
            }
        }
    }

    #[test]
    fn right_side_is_skewed_left_side_is_not() {
        let cfg = BipartiteConfig::new(2000, 500, 16_000).with_seed(3);
        let g = generate_bipartite(&cfg);
        let left_max = (0..cfg.num_left as VertexId)
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        let right_max = (cfg.num_left as VertexId..g.num_vertices() as VertexId)
            .map(|v| g.out_degree(v))
            .max()
            .unwrap();
        assert!(
            right_max > left_max * 4,
            "right side should grow hubs (right max {right_max}, left max {left_max})"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = BipartiteConfig::new(128, 32, 600).with_seed(9);
        let a = generate_bipartite(&cfg);
        let b = generate_bipartite(&cfg);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_bipartite(&BipartiteConfig::new(128, 32, 600).with_seed(1));
        let b = generate_bipartite(&BipartiteConfig::new(128, 32, 600).with_seed(2));
        let same = a
            .vertices()
            .all(|v| a.out_neighbors(v) == b.out_neighbors(v));
        assert!(!same, "seeds 1 and 2 produced identical graphs");
    }

    #[test]
    #[should_panic(expected = "at least one vertex")]
    fn empty_side_panics() {
        let _ = BipartiteConfig::new(0, 10, 5);
    }
}
