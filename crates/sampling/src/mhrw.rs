//! Metropolis–Hastings Random Walk (MHRW) sampling.
//!
//! MHRW (Gjoka et al., INFOCOM 2010 — reference \[15\] of the paper) is a random
//! walk whose transition probabilities are corrected with a
//! Metropolis–Hastings acceptance step so that the stationary distribution is
//! *uniform* over vertices rather than proportional to degree. The paper uses
//! it in the Figure 9 sensitivity analysis as the "remove all bias" end of the
//! spectrum, contrasted with RJ (inherent random-walk bias towards high-degree
//! vertices) and BRJ (explicit bias towards high out-degree vertices).

use crate::random_jump::DEFAULT_RESTART_PROBABILITY;
use crate::traits::{target_sample_size, Sampler};
use crate::visited::{SampleScratch, VisitedSet};
use predict_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Metropolis–Hastings Random Walk sampler.
///
/// The walk moves over the undirected view of the graph (out- and
/// in-neighbors) so it cannot get stuck at sink vertices; a proposed move from
/// `v` to `w` is accepted with probability `min(1, deg(v) / deg(w))`. With
/// probability `restart_probability` the walk jumps to a fresh uniformly
/// random vertex, mirroring the restart behaviour of RJ/BRJ so the three
/// techniques differ only in their bias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mhrw {
    /// Probability of restarting the walk from a uniformly random vertex.
    pub restart_probability: f64,
}

impl Default for Mhrw {
    fn default() -> Self {
        Self {
            restart_probability: DEFAULT_RESTART_PROBABILITY,
        }
    }
}

impl Mhrw {
    /// Creates an MHRW sampler with the given restart probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < restart_probability <= 1`.
    pub fn new(restart_probability: f64) -> Self {
        assert!(
            restart_probability > 0.0 && restart_probability <= 1.0,
            "restart probability must be in (0, 1], got {restart_probability}"
        );
        Self {
            restart_probability,
        }
    }
}

fn undirected_degree(graph: &CsrGraph, v: VertexId) -> usize {
    graph.out_degree(v) + graph.in_degree(v)
}

fn undirected_neighbor(graph: &CsrGraph, v: VertexId, idx: usize) -> VertexId {
    let out = graph.out_neighbors(v);
    if idx < out.len() {
        out[idx]
    } else {
        graph.in_neighbors(v)[idx - out.len()]
    }
}

impl Sampler for Mhrw {
    fn name(&self) -> &'static str {
        "MHRW"
    }

    fn sample_vertices_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut SampleScratch,
    ) -> Vec<VertexId> {
        let target = target_sample_size(graph.num_vertices(), ratio);
        if target == 0 {
            return Vec::new();
        }
        let n = graph.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed);
        let SampleScratch { visited, buf } = scratch;
        visited.reset(n);
        let mut picked = Vec::with_capacity(target);
        let visit = |v: VertexId, visited: &mut VisitedSet, picked: &mut Vec<VertexId>| {
            if visited.insert(v) {
                picked.push(v);
            }
        };

        let mut current = rng.gen_range(0..n) as VertexId;
        visit(current, visited, &mut picked);

        let max_steps = n.saturating_mul(400).max(10_000);
        let mut steps = 0usize;
        while picked.len() < target && steps < max_steps {
            steps += 1;
            let deg_v = undirected_degree(graph, current);
            if deg_v == 0 || rng.gen_bool(self.restart_probability) {
                current = rng.gen_range(0..n) as VertexId;
                visit(current, visited, &mut picked);
                continue;
            }
            let proposal = undirected_neighbor(graph, current, rng.gen_range(0..deg_v));
            let deg_w = undirected_degree(graph, proposal).max(1);
            // Metropolis–Hastings acceptance: accept with min(1, deg(v)/deg(w)).
            let accept = deg_w <= deg_v || rng.gen_bool(deg_v as f64 / deg_w as f64);
            if accept {
                current = proposal;
                visit(current, visited, &mut picked);
            }
        }

        // Fill up from the unvisited remainder if the walk stalled.
        if picked.len() < target {
            let remaining = buf;
            remaining.clear();
            remaining.extend((0..n as VertexId).filter(|&v| !visited.contains(v)));
            while picked.len() < target && !remaining.is_empty() {
                let idx = rng.gen_range(0..remaining.len());
                let v = remaining.swap_remove(idx);
                visit(v, visited, &mut picked);
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biased_random_jump::BiasedRandomJump;
    use predict_graph::generators::{generate_rmat, star, RmatConfig};
    use std::collections::HashSet;

    #[test]
    fn respects_target_size() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let s = Mhrw::default().sample_vertices(&g, 0.1, 7);
        assert_eq!(s.len(), (g.num_vertices() as f64 * 0.1).round() as usize);
    }

    #[test]
    fn vertices_are_unique() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let s = Mhrw::default().sample_vertices(&g, 0.4, 11);
        let set: HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), s.len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        assert_eq!(
            Mhrw::default().sample_vertices(&g, 0.2, 5),
            Mhrw::default().sample_vertices(&g, 0.2, 5)
        );
    }

    #[test]
    fn mhrw_selects_fewer_hubs_than_brj() {
        // MHRW removes the degree bias, so the average out-degree of its
        // sample should be below BRJ's (which deliberately targets hubs).
        let g = generate_rmat(&RmatConfig::new(11, 8).with_seed(21));
        let avg_degree = |vs: &[VertexId]| {
            vs.iter().map(|&v| g.out_degree(v)).sum::<usize>() as f64 / vs.len() as f64
        };
        let mhrw = avg_degree(&Mhrw::default().sample_vertices(&g, 0.1, 3));
        let brj = avg_degree(&BiasedRandomJump::default().sample_vertices(&g, 0.1, 3));
        assert!(
            mhrw < brj,
            "MHRW sample avg degree {mhrw} should be below BRJ's {brj}"
        );
    }

    #[test]
    fn handles_star_graph() {
        let g = star(300);
        let s = Mhrw::default().sample_vertices(&g, 0.3, 2);
        assert_eq!(s.len(), 90);
    }

    #[test]
    fn zero_ratio_is_empty() {
        let g = generate_rmat(&RmatConfig::new(6, 4).with_seed(2));
        assert!(Mhrw::default().sample_vertices(&g, 0.0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "restart probability")]
    fn invalid_probability_panics() {
        let _ = Mhrw::new(1.5);
    }
}
