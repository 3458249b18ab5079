//! Random Jump (RJ) sampling.
//!
//! Random Jump is the technique the paper adopts from Leskovec & Faloutsos
//! ("Sampling from Large Graphs", KDD 2006) as its starting point: it performs
//! random walks over out-edges and, with probability `p` at every step, ends
//! the current walk and restarts from a *new* uniformly random seed vertex.
//! Jumping avoids getting stuck in isolated regions while the walk itself
//! preserves connectivity inside each walk.

use crate::traits::{target_sample_size, Sampler};
use crate::visited::{SampleScratch, VisitedSet};
use predict_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Default restart ("jump") probability used by the paper (section 5.3).
pub const DEFAULT_RESTART_PROBABILITY: f64 = 0.15;

/// Random Jump sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomJump {
    /// Probability of ending the current walk at each step and jumping to a
    /// fresh uniformly random seed vertex.
    pub restart_probability: f64,
}

impl Default for RandomJump {
    fn default() -> Self {
        Self {
            restart_probability: DEFAULT_RESTART_PROBABILITY,
        }
    }
}

impl RandomJump {
    /// Creates a Random Jump sampler with the given restart probability.
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

impl Sampler for RandomJump {
    fn name(&self) -> &'static str {
        "RJ"
    }

    fn sample_vertices_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut SampleScratch,
    ) -> Vec<VertexId> {
        let target = target_sample_size(graph.num_vertices(), ratio);
        let mut rng = StdRng::seed_from_u64(seed);
        walk_until(
            graph,
            target,
            self.restart_probability,
            default_step_budget(graph),
            &mut rng,
            scratch,
            |rng, graph| rng.gen_range(0..graph.num_vertices()) as VertexId,
        )
    }
}

/// The default walk step budget: a hard cap on the number of steps so that
/// pathological graphs (e.g. a single giant sink) cannot loop forever. The
/// cap is far above what any real walk on a hub-bearing graph needs; walks
/// that exhaust it fall back to the uniform fill.
pub(crate) fn default_step_budget(graph: &CsrGraph) -> usize {
    graph
        .num_vertices()
        .saturating_mul(200)
        .max(graph.num_edges().saturating_mul(4))
        .max(10_000)
}

/// Runs restart-based random walks over out-edges until `target` distinct
/// vertices have been visited or `max_steps` walk steps were taken, using
/// `pick_seed` to choose the start of every new walk. Shared by Random Jump
/// and Biased Random Jump (which passes a degree-aware budget). All per-walk
/// state lives in `scratch` (reset here), so repeated draws reuse one
/// allocation.
pub(crate) fn walk_until(
    graph: &CsrGraph,
    target: usize,
    restart_probability: f64,
    max_steps: usize,
    rng: &mut StdRng,
    scratch: &mut SampleScratch,
    mut pick_seed: impl FnMut(&mut StdRng, &CsrGraph) -> VertexId,
) -> Vec<VertexId> {
    if target == 0 || graph.num_vertices() == 0 {
        return Vec::new();
    }

    let SampleScratch { visited, buf } = scratch;
    visited.reset(graph.num_vertices());
    let mut picked: Vec<VertexId> = Vec::with_capacity(target);
    let visit = |v: VertexId, visited: &mut VisitedSet, picked: &mut Vec<VertexId>| {
        if visited.insert(v) {
            picked.push(v);
        }
    };

    let mut current = pick_seed(rng, graph);
    visit(current, visited, &mut picked);

    let mut steps = 0usize;

    while picked.len() < target && steps < max_steps {
        steps += 1;
        let nbrs = graph.out_neighbors(current);
        let jump = nbrs.is_empty() || rng.gen_bool(restart_probability);
        current = if jump {
            pick_seed(rng, graph)
        } else {
            nbrs[rng.gen_range(0..nbrs.len())]
        };
        visit(current, visited, &mut picked);
    }

    // If the walk stalled (graph with many unreachable vertices), fill up the
    // remainder uniformly at random so the requested ratio is honoured.
    if picked.len() < target {
        let remaining = buf;
        remaining.clear();
        remaining.extend((0..graph.num_vertices() as VertexId).filter(|&v| !visited.contains(v)));
        while picked.len() < target && !remaining.is_empty() {
            let idx = rng.gen_range(0..remaining.len());
            let v = remaining.swap_remove(idx);
            visit(v, visited, &mut picked);
        }
    }

    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_graph::generators::{chain, generate_rmat, star, RmatConfig};
    use std::collections::HashSet;

    #[test]
    fn respects_target_size() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let s = RandomJump::default().sample_vertices(&g, 0.1, 7);
        assert_eq!(s.len(), (g.num_vertices() as f64 * 0.1).round() as usize);
    }

    #[test]
    fn selected_vertices_are_unique_and_in_range() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let s = RandomJump::default().sample_vertices(&g, 0.3, 42);
        let set: HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), s.len());
        assert!(s.iter().all(|&v| (v as usize) < g.num_vertices()));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let a = RandomJump::default().sample_vertices(&g, 0.2, 5);
        let b = RandomJump::default().sample_vertices(&g, 0.2, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let g = generate_rmat(&RmatConfig::new(9, 4).with_seed(1));
        let a = RandomJump::default().sample_vertices(&g, 0.1, 5);
        let b = RandomJump::default().sample_vertices(&g, 0.1, 6);
        assert_ne!(a, b);
    }

    #[test]
    fn full_ratio_selects_everything() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(2));
        let s = RandomJump::default().sample_vertices(&g, 1.0, 1);
        assert_eq!(s.len(), g.num_vertices());
    }

    #[test]
    fn handles_dead_end_heavy_graphs() {
        // A star pointing outward: every walk immediately dead-ends at a leaf.
        let g = star(500);
        let s = RandomJump::default().sample_vertices(&g, 0.5, 3);
        assert_eq!(s.len(), 250);
    }

    #[test]
    fn handles_chain() {
        let g = chain(200);
        let s = RandomJump::default().sample_vertices(&g, 0.25, 3);
        assert_eq!(s.len(), 50);
    }

    #[test]
    fn zero_ratio_selects_nothing() {
        let g = generate_rmat(&RmatConfig::new(6, 4).with_seed(2));
        assert!(RandomJump::default().sample_vertices(&g, 0.0, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "restart probability")]
    fn invalid_probability_panics() {
        let _ = RandomJump::new(0.0);
    }
}
