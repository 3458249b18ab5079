//! Neighborhood estimation with Flajolet–Martin sketches.
//!
//! Estimates, for every vertex, the number of vertices reachable within a
//! growing number of hops — the "total number of professionals reachable
//! within a few hops" workload the paper's introduction attributes to
//! LinkedIn, and the `NH` column of Table 3. The classic distributed
//! formulation (HADI / PEGASUS, reference \[20\] of the paper) gives every
//! vertex a set of Flajolet–Martin bitstrings; each iteration a vertex ORs in
//! its in-neighbors' bitstrings, so after `h` iterations the sketch encodes
//! the size of the `h`-hop neighborhood. The run converges when the total
//! estimated neighborhood size stops growing by more than a ratio `τ`.

use predict_bsp::{Aggregates, BspEngine, ComputeContext, InitContext, VertexProgram};
use predict_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregator summing the per-vertex neighborhood estimates of a superstep.
pub const TOTAL_ESTIMATE_AGGREGATOR: &str = "neighborhood/total_estimate";
/// Aggregator counting vertices whose sketch changed this superstep.
pub const CHANGED_AGGREGATOR: &str = "neighborhood/changed";
/// Aggregator counting the vertices that executed compute this superstep.
pub const ACTIVE_AGGREGATOR: &str = "neighborhood/active";

/// Correction constant of the Flajolet–Martin estimator.
const FM_PHI: f64 = 0.77351;

/// Parameters of neighborhood estimation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NeighborhoodParams {
    /// Number of independent Flajolet–Martin bitstrings per vertex (more
    /// sketches = lower estimate variance, bigger messages).
    pub num_sketches: usize,
    /// Convergence threshold: the run stops when the relative growth of the
    /// summed neighborhood estimate falls below this ratio.
    pub tolerance: f64,
    /// Seed for the deterministic hash mixing used by the sketches.
    pub seed: u64,
}

impl Default for NeighborhoodParams {
    fn default() -> Self {
        Self {
            num_sketches: 4,
            tolerance: 0.01,
            seed: 0xFA57,
        }
    }
}

impl NeighborhoodParams {
    /// Creates a parameter set.
    pub fn new(num_sketches: usize, tolerance: f64) -> Self {
        assert!(num_sketches > 0, "at least one sketch is required");
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        Self {
            num_sketches,
            tolerance,
            seed: 0xFA57,
        }
    }

    /// Returns a copy with a different convergence threshold.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// Per-vertex Flajolet–Martin sketch set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NeighborhoodSketch {
    /// One 64-bit FM bitstring per sketch.
    pub bitmasks: Vec<u64>,
}

impl NeighborhoodSketch {
    /// Estimated number of distinct vertices encoded in the sketch set
    /// (average of the per-sketch estimates).
    pub fn estimate(&self) -> f64 {
        if self.bitmasks.is_empty() {
            return 0.0;
        }
        let mean_r: f64 = self
            .bitmasks
            .iter()
            .map(|&m| lowest_zero_bit(m) as f64)
            .sum::<f64>()
            / self.bitmasks.len() as f64;
        2f64.powf(mean_r) / FM_PHI
    }

    /// ORs another sketch into this one; returns `true` if any bit changed.
    pub fn union_with(&mut self, other: &NeighborhoodSketch) -> bool {
        self.union_with_bitmasks(&other.bitmasks)
    }

    /// ORs another sketch's bitstrings into this one; returns `true` if any
    /// bit changed.
    fn union_with_bitmasks(&mut self, other: &[u64]) -> bool {
        let mut changed = false;
        for (a, b) in self.bitmasks.iter_mut().zip(other) {
            let merged = *a | *b;
            if merged != *a {
                *a = merged;
                changed = true;
            }
        }
        changed
    }
}

/// Index of the lowest zero bit of `mask` (the FM estimator's `R` statistic).
fn lowest_zero_bit(mask: u64) -> u32 {
    (!mask).trailing_zeros()
}

/// Geometric hash: maps `(vertex, sketch, seed)` to a bit index with
/// `P(index = i) = 2^-(i+1)`.
fn fm_bit(vertex: VertexId, sketch: usize, seed: u64) -> u32 {
    let mut h = seed ^ (vertex as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= (sketch as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 31;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 29;
    // The number of trailing zeros of a uniform 64-bit value is geometrically
    // distributed: P(index = i) = 2^-(i+1).
    if h == 0 {
        62
    } else {
        h.trailing_zeros().min(62)
    }
}

/// The neighborhood-estimation vertex program.
#[derive(Debug, Clone, Copy)]
pub struct NeighborhoodEstimation {
    /// Algorithm parameters.
    pub params: NeighborhoodParams,
}

impl NeighborhoodEstimation {
    /// Creates a neighborhood-estimation program.
    pub fn new(params: NeighborhoodParams) -> Self {
        Self { params }
    }

    /// Runs the program and returns per-vertex neighborhood estimates plus
    /// the run profile.
    pub fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> NeighborhoodResult {
        let result = engine.run(graph, self);
        let estimates = result.values.iter().map(|s| s.estimate()).collect();
        NeighborhoodResult {
            sketches: result.values,
            estimates,
            iterations: result.profile.num_iterations(),
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }
}

/// Output of a neighborhood-estimation run.
#[derive(Debug, Clone)]
pub struct NeighborhoodResult {
    /// Final sketch of every vertex.
    pub sketches: Vec<NeighborhoodSketch>,
    /// Estimated reachable-vertex count of every vertex.
    pub estimates: Vec<f64>,
    /// Number of supersteps executed.
    pub iterations: usize,
    /// Full run profile.
    pub profile: predict_bsp::RunProfile,
    /// Why the run terminated.
    pub halt_reason: predict_bsp::HaltReason,
}

/// A sketch's bitstrings on their way to a vertex's neighbors: built once by
/// the sender, shared by every copy the runtime hands out.
pub type SketchMessage = Arc<[u64]>;

impl VertexProgram for NeighborhoodEstimation {
    type VertexValue = NeighborhoodSketch;
    type Message = SketchMessage;

    fn name(&self) -> &'static str {
        "neighborhood-estimation"
    }

    fn init_vertex(&self, vertex: VertexId, _ctx: &InitContext<'_>) -> NeighborhoodSketch {
        let bitmasks = (0..self.params.num_sketches)
            .map(|s| 1u64 << fm_bit(vertex, s, self.params.seed))
            .collect();
        NeighborhoodSketch { bitmasks }
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, NeighborhoodSketch, SketchMessage>,
        messages: &[SketchMessage],
    ) {
        let mut changed = ctx.superstep == 0;
        for msg in messages {
            changed |= ctx.value.union_with_bitmasks(msg);
        }
        ctx.aggregate(TOTAL_ESTIMATE_AGGREGATOR, ctx.value.estimate());
        ctx.aggregate(ACTIVE_AGGREGATOR, 1.0);
        if changed {
            ctx.aggregate(CHANGED_AGGREGATOR, 1.0);
            let payload = ctx.value.bitmasks.as_slice();
            ctx.send_to_all_neighbors(payload.into());
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, msg: &SketchMessage) -> u64 {
        (msg.len() * 8) as u64
    }

    fn master_halt(&self, superstep: usize, aggregates: &Aggregates) -> bool {
        if superstep == 0 {
            return false;
        }
        // Convergence uses the ratio of vertices whose sketch still changed
        // over the vertices that were active — the same "ratio of updates"
        // convergence family as top-k ranking and semi-clustering.
        let changed = aggregates.get_or(CHANGED_AGGREGATOR, 0.0);
        let active = aggregates.get_or(ACTIVE_AGGREGATOR, 0.0).max(1.0);
        changed == 0.0 || changed / active < self.params.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{BspConfig, ClusterCostConfig};
    use predict_graph::generators::{chain, complete, generate_rmat, RmatConfig};

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    fn undirected(graph: &CsrGraph) -> CsrGraph {
        CsrGraph::from_edge_list(&graph.to_edge_list().to_undirected())
    }

    #[test]
    fn fm_bit_is_deterministic_and_geometric() {
        let a = fm_bit(42, 0, 1);
        let b = fm_bit(42, 0, 1);
        assert_eq!(a, b);
        // Roughly half of all vertices should land on bit 0.
        let zeros = (0..10_000).filter(|&v| fm_bit(v, 0, 7) == 0).count();
        assert!(
            zeros > 4_000 && zeros < 6_000,
            "bit-0 frequency {zeros} not ~50%"
        );
    }

    #[test]
    fn sketch_estimate_grows_with_unions() {
        let params = NeighborhoodParams::new(8, 0.01);
        let program = NeighborhoodEstimation::new(params);
        // Initialization only reads the vertex id, so a bare context works
        // for ids beyond the toy graph's range.
        let ctx = InitContext {
            num_vertices: 4,
            num_edges: 12,
            out_neighbors: &[],
            out_weights: None,
        };
        let mut sketch = program.init_vertex(0, &ctx);
        let single = sketch.estimate();
        for v in 1..500u32 {
            let other = program.init_vertex(v, &ctx);
            sketch.union_with(&other);
        }
        let many = sketch.estimate();
        assert!(
            many > single * 10.0,
            "estimate should grow: {single} -> {many}"
        );
        // FM estimates are rough; accept a factor-3 band around 500.
        assert!(
            many > 150.0 && many < 1_500.0,
            "estimate {many} way off 500"
        );
    }

    #[test]
    fn complete_graph_converges_in_few_iterations() {
        let g = complete(32);
        let result = NeighborhoodEstimation::new(NeighborhoodParams::default()).run(&engine(), &g);
        // Everything is reachable in one hop; the sketches stabilize almost
        // immediately.
        assert!(
            result.iterations <= 5,
            "took {} iterations",
            result.iterations
        );
    }

    #[test]
    fn chain_needs_many_iterations() {
        let g = undirected(&chain(40));
        let result =
            NeighborhoodEstimation::new(NeighborhoodParams::new(4, 0.0)).run(&engine(), &g);
        assert!(
            result.iterations >= 20,
            "sketches must travel the chain, got {} iterations",
            result.iterations
        );
    }

    #[test]
    fn complete_graph_estimates_are_near_the_vertex_count() {
        let g = complete(64);
        let params = NeighborhoodParams::new(16, 0.0);
        let result = NeighborhoodEstimation::new(params).run(&engine(), &g);
        for &e in &result.estimates {
            assert!(
                e > 64.0 / 3.0 && e < 64.0 * 3.0,
                "estimate {e} too far from 64"
            );
        }
    }

    #[test]
    fn downstream_chain_vertices_accumulate_larger_neighborhoods() {
        // Directed chain: sketches flow along edges, so the last vertex hears
        // about every upstream vertex while the first vertex hears nothing.
        let g = chain(64);
        let params = NeighborhoodParams::new(8, 0.0);
        let result = NeighborhoodEstimation::new(params).run(&engine(), &g);
        assert!(
            result.estimates[63] > result.estimates[0] * 4.0,
            "tail estimate {} should dwarf head estimate {}",
            result.estimates[63],
            result.estimates[0]
        );
    }

    #[test]
    fn message_volume_shrinks_as_sketches_saturate() {
        let g = undirected(&generate_rmat(&RmatConfig::new(8, 5).with_seed(4)));
        let result =
            NeighborhoodEstimation::new(NeighborhoodParams::new(4, 0.0)).run(&engine(), &g);
        let totals = result.profile.per_superstep_totals();
        assert!(totals.len() >= 3);
        let first = totals[0].total_messages();
        let last = totals[totals.len() - 1].total_messages();
        assert!(last < first, "messages should shrink: {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "at least one sketch")]
    fn zero_sketches_panics() {
        let _ = NeighborhoodParams::new(0, 0.1);
    }
}
