//! 2-D lattice road-network generator.
//!
//! Road networks are the structural opposite of the paper's Table 2 web/social
//! graphs: near-planar, effectively uniform degree (≤ 4), **no hub core** and
//! a very large effective diameter (`O(width + height)` instead of the
//! small-world `O(log n)`). They stress exactly the assumptions PREDIcT's
//! default sampler leans on — Biased Random Jump restarts from the highest
//! out-degree vertices, but on a road grid every vertex looks alike, so walk
//! bias buys nothing and iterative algorithms (PageRank, connected
//! components) need many more supersteps to propagate information across the
//! graph. The `table2_new_datasets` / `fig9_new_generators` experiment
//! binaries use this generator to measure how the prediction error behaves in
//! that regime (ROADMAP "road networks" item).
//!
//! The generator produces a `width × height` grid of intersections. Each
//! lattice edge (to the right and downward neighbor) is kept with probability
//! [`GridRoadConfig::keep_probability`] — dropped edges model rivers, ridges
//! and dead ends, which keeps the degree distribution irregular enough to be
//! interesting — and every kept road is two-way (both directions are added).
//! Deterministic for a fixed seed.

use crate::csr::CsrGraph;
use crate::edge_list::EdgeList;
use crate::types::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`generate_grid_road`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridRoadConfig {
    /// Number of intersections per row.
    pub width: usize,
    /// Number of rows.
    pub height: usize,
    /// Probability that a lattice edge exists (defaults to 0.92; 1.0 yields
    /// the full grid).
    pub keep_probability: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl GridRoadConfig {
    /// Creates a `width × height` grid config with the default keep
    /// probability.
    ///
    /// # Panics
    ///
    /// Panics unless both dimensions are at least 2.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(
            width >= 2 && height >= 2,
            "grid needs at least 2x2 intersections, got {width}x{height}"
        );
        Self {
            width,
            height,
            keep_probability: 0.92,
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
        self.width * self.height
    }
}

/// Generates a 2-D lattice road network according to `config`.
///
/// Vertex ids are row-major (`id = y * width + x`). Every kept lattice edge
/// appears in both directions, so the graph is symmetric and every vertex has
/// out-degree equal to its in-degree (at most 4).
pub fn generate_grid_road(config: &GridRoadConfig) -> CsrGraph {
    let (w, h) = (config.width, config.height);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut edges = EdgeList::with_capacity(4 * w * h);
    edges.ensure_vertices(w * h);

    let keep =
        |rng: &mut StdRng| config.keep_probability >= 1.0 || rng.gen_bool(config.keep_probability);
    for y in 0..h {
        for x in 0..w {
            let v = (y * w + x) as VertexId;
            if x + 1 < w && keep(&mut rng) {
                let right = v + 1;
                edges.push(v, right);
                edges.push(right, v);
            }
            if y + 1 < h && keep(&mut rng) {
                let down = v + w as VertexId;
                edges.push(v, down);
                edges.push(down, v);
            }
        }
    }
    CsrGraph::from_edge_list(&edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_has_exact_counts() {
        let g = generate_grid_road(&GridRoadConfig {
            keep_probability: 1.0,
            ..GridRoadConfig::new(10, 8)
        });
        assert_eq!(g.num_vertices(), 80);
        // Undirected lattice edges: (w-1)*h horizontal + w*(h-1) vertical,
        // each stored in both directions.
        assert_eq!(g.num_edges(), 2 * (9 * 8 + 10 * 7));
    }

    #[test]
    fn degrees_are_bounded_by_four() {
        let g = generate_grid_road(&GridRoadConfig::new(16, 16).with_seed(3));
        for v in g.vertices() {
            assert!(g.out_degree(v) <= 4);
            assert_eq!(g.out_degree(v), g.in_degree(v));
        }
    }

    #[test]
    fn edges_are_symmetric() {
        let g = generate_grid_road(&GridRoadConfig::new(12, 9).with_seed(5));
        for v in g.vertices() {
            for &u in g.out_neighbors(v) {
                assert!(g.out_neighbors(u).contains(&v), "missing reverse {u}->{v}");
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = GridRoadConfig::new(20, 20).with_seed(42);
        let a = generate_grid_road(&cfg);
        let b = generate_grid_road(&cfg);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_grid_road(&GridRoadConfig::new(20, 20).with_seed(1));
        let b = generate_grid_road(&GridRoadConfig::new(20, 20).with_seed(2));
        assert_ne!(
            a.to_edge_list().edges(),
            b.to_edge_list().edges(),
            "seeds 1 and 2 produced identical grids"
        );
    }

    #[test]
    fn no_hubs_unlike_rmat() {
        let g = generate_grid_road(&GridRoadConfig::new(32, 32).with_seed(7));
        let max = g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        assert!(max <= 4, "grid road must not grow hubs, got degree {max}");
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn degenerate_dimensions_panic() {
        let _ = GridRoadConfig::new(1, 5);
    }
}
