//! Degree-corrected stochastic block model (DC-SBM) generator.
//!
//! The paper's Table 2 graphs are globally power-law with one hub core. Real
//! social and web graphs additionally have *community structure*: dense
//! blocks with sparse connections between them (Karrer & Newman, "Stochastic
//! blockmodels and community structure in networks", 2011). Community
//! boundaries are what makes sampling hard in practice — a walk that enters a
//! dense block mixes inside it and rarely crosses to the next one, so a small
//! sample can miss entire communities and the sample's convergence behavior
//! diverges from the full graph's. The degree-corrected variant keeps a
//! power-law degree *propensity* inside every block, so the graph is
//! simultaneously clustered and heavy-tailed — the combination the
//! `table2_new_datasets` / `fig9_new_generators` experiment binaries use to
//! stress samplers beyond the paper's datasets (ROADMAP "degree-corrected
//! block model" item).
//!
//! Vertices are split into [`DcsbmConfig::num_blocks`] contiguous blocks.
//! Each endpoint of an edge is drawn proportionally to its vertex's
//! propensity `θ_v = (rank within block + 1)^-gamma`; the destination stays
//! in the source's block with probability
//! [`DcsbmConfig::within_probability`], otherwise it lands in a uniformly
//! chosen other block. Self-loops are dropped and duplicates removed;
//! deterministic for a fixed seed.

use crate::csr::CsrGraph;
use crate::edge_list::EdgeList;
use crate::types::VertexId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`generate_dcsbm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcsbmConfig {
    /// Number of vertices (split into `num_blocks` contiguous blocks).
    pub num_vertices: usize,
    /// Number of communities.
    pub num_blocks: usize,
    /// Average out-degree; `avg_degree * num_vertices` edges are drawn before
    /// self-loop removal and deduplication.
    pub avg_degree: usize,
    /// Probability that an edge stays inside its source's block (the
    /// assortativity knob). Defaults to 0.8.
    pub within_probability: f64,
    /// Exponent of the per-vertex degree propensity
    /// `θ = (rank + 1)^-gamma`; 0.0 = plain SBM, larger = heavier-tailed
    /// degrees. Defaults to 0.7.
    pub gamma: f64,
    /// PRNG seed.
    pub seed: u64,
}

impl DcsbmConfig {
    /// Creates a DC-SBM config with the default mixing and propensity
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics unless there are at least two blocks and at least one vertex
    /// per block.
    pub fn new(num_vertices: usize, num_blocks: usize, avg_degree: usize) -> Self {
        assert!(
            num_blocks >= 2,
            "need at least two blocks, got {num_blocks}"
        );
        assert!(
            num_vertices >= num_blocks,
            "need at least one vertex per block ({num_vertices} vertices, {num_blocks} blocks)"
        );
        Self {
            num_vertices,
            num_blocks,
            avg_degree,
            within_probability: 0.8,
            gamma: 0.7,
            seed: 0,
        }
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Block of vertex `v` (blocks are contiguous id ranges).
    ///
    /// Matches the generator's partition exactly: block `b` spans
    /// `floor(b * n / k)..floor((b + 1) * n / k)`, so this is the smallest
    /// `b` with `v < floor((b + 1) * n / k)` — important when `n` is not
    /// divisible by `k`, where a naive `v * k / n` would misassign the
    /// boundary vertices.
    pub fn block_of(&self, v: VertexId) -> usize {
        ((v as usize + 1) * self.num_blocks - 1) / self.num_vertices
    }
}

/// Per-block cumulative propensity weights for O(log n) weighted draws.
struct BlockWeights {
    /// Start vertex id of each block (length `num_blocks + 1`).
    starts: Vec<usize>,
    /// Per-block cumulative `θ` sums, indexed by rank within the block.
    cumulative: Vec<Vec<f64>>,
}

impl BlockWeights {
    fn build(config: &DcsbmConfig) -> Self {
        let (n, k) = (config.num_vertices, config.num_blocks);
        let starts: Vec<usize> = (0..=k).map(|b| b * n / k).collect();
        let cumulative = (0..k)
            .map(|b| {
                let size = starts[b + 1] - starts[b];
                let mut acc = 0.0;
                (0..size)
                    .map(|rank| {
                        acc += ((rank + 1) as f64).powf(-config.gamma);
                        acc
                    })
                    .collect()
            })
            .collect();
        Self { starts, cumulative }
    }

    /// Draws a vertex from `block` proportionally to its propensity.
    fn draw(&self, block: usize, rng: &mut StdRng) -> VertexId {
        let cum = &self.cumulative[block];
        let total = *cum.last().expect("blocks are non-empty");
        let r: f64 = rng.gen_range(0.0..total);
        let rank = cum.partition_point(|&c| c <= r).min(cum.len() - 1);
        (self.starts[block] + rank) as VertexId
    }
}

/// Generates a degree-corrected stochastic block model graph.
pub fn generate_dcsbm(config: &DcsbmConfig) -> CsrGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let weights = BlockWeights::build(config);
    let target = config.avg_degree * config.num_vertices;
    let mut edges = EdgeList::with_capacity(target);
    edges.ensure_vertices(config.num_vertices);

    for _ in 0..target {
        let src_block = rng.gen_range(0..config.num_blocks);
        let src = weights.draw(src_block, &mut rng);
        let dst_block = if rng.gen_bool(config.within_probability) {
            src_block
        } else {
            // A uniformly chosen *other* block.
            let other = rng.gen_range(0..config.num_blocks - 1);
            if other >= src_block {
                other + 1
            } else {
                other
            }
        };
        let dst = weights.draw(dst_block, &mut rng);
        if src != dst {
            edges.push(src, dst);
        }
    }
    edges.dedup();
    CsrGraph::from_edge_list(&edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_shape() {
        let cfg = DcsbmConfig::new(1000, 4, 8).with_seed(1);
        let g = generate_dcsbm(&cfg);
        assert_eq!(g.num_vertices(), 1000);
        assert!(g.num_edges() > 0);
        assert!(g.num_edges() <= 8000);
    }

    #[test]
    fn edges_are_assortative() {
        let cfg = DcsbmConfig::new(2000, 4, 10).with_seed(2);
        let g = generate_dcsbm(&cfg);
        let within = g
            .edges()
            .filter(|&(s, d, _)| cfg.block_of(s) == cfg.block_of(d))
            .count();
        let frac = within as f64 / g.num_edges() as f64;
        // within_probability is 0.8 before dedup; allow slack for the
        // deduplication removing proportionally more of the dense
        // within-block duplicates.
        assert!(frac > 0.6, "within-block fraction too low: {frac}");
    }

    #[test]
    fn degree_correction_grows_hubs() {
        let heavy = generate_dcsbm(&DcsbmConfig {
            gamma: 0.9,
            ..DcsbmConfig::new(2000, 4, 10).with_seed(3)
        });
        let flat = generate_dcsbm(&DcsbmConfig {
            gamma: 0.0,
            ..DcsbmConfig::new(2000, 4, 10).with_seed(3)
        });
        let max_deg = |g: &CsrGraph| g.vertices().map(|v| g.out_degree(v)).max().unwrap();
        assert!(
            max_deg(&heavy) > max_deg(&flat) * 2,
            "gamma should concentrate degree (heavy {}, flat {})",
            max_deg(&heavy),
            max_deg(&flat)
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let cfg = DcsbmConfig::new(512, 4, 6).with_seed(11);
        let a = generate_dcsbm(&cfg);
        let b = generate_dcsbm(&cfg);
        assert_eq!(a.num_edges(), b.num_edges());
        for v in a.vertices() {
            assert_eq!(a.out_neighbors(v), b.out_neighbors(v));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_dcsbm(&DcsbmConfig::new(512, 4, 6).with_seed(1));
        let b = generate_dcsbm(&DcsbmConfig::new(512, 4, 6).with_seed(2));
        let same = a
            .vertices()
            .all(|v| a.out_neighbors(v) == b.out_neighbors(v));
        assert!(!same, "seeds 1 and 2 produced identical graphs");
    }

    #[test]
    fn no_self_loops() {
        let g = generate_dcsbm(&DcsbmConfig::new(400, 4, 6).with_seed(5));
        for v in g.vertices() {
            assert!(!g.out_neighbors(v).contains(&v));
        }
    }

    #[test]
    fn block_of_partitions_contiguously() {
        // Non-divisible n/k: boundaries must match the generator's
        // `starts[b] = b * n / k` partition ([0, 3, 6, 10] here).
        let cfg = DcsbmConfig::new(10, 3, 2);
        let blocks: Vec<usize> = (0..10).map(|v| cfg.block_of(v)).collect();
        assert_eq!(blocks, vec![0, 0, 0, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn block_of_agrees_with_generator_partition() {
        for (n, k) in [(10usize, 3usize), (17, 4), (100, 7), (64, 8)] {
            let cfg = DcsbmConfig::new(n, k, 2);
            let weights = BlockWeights::build(&cfg);
            for b in 0..k {
                for v in weights.starts[b]..weights.starts[b + 1] {
                    assert_eq!(
                        cfg.block_of(v as VertexId),
                        b,
                        "vertex {v} of n={n} k={k} misassigned"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least two blocks")]
    fn one_block_panics() {
        let _ = DcsbmConfig::new(100, 1, 4);
    }
}
