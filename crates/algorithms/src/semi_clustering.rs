//! Semi-clustering — variable message *sizes* per iteration (§4.2).
//!
//! Semi-clustering (Malewicz et al., the Pregel paper) finds groups of
//! vertices that interact strongly with each other; a vertex may belong to
//! several semi-clusters. Every vertex maintains its `C_max` best
//! semi-clusters and, each iteration, forwards its `S_max` best ones to its
//! neighbors; receiving vertices extend those clusters with themselves when
//! allowed. Messages therefore carry whole cluster lists whose size grows
//! over the first iterations — the paper's category ii).a) of runtime
//! variability (different message sizes across iterations).
//!
//! Convergence uses the paper's practical, size-invariant condition: the run
//! stops when the fraction of semi-clusters that were updated during the
//! iteration drops below `τ`.

use predict_bsp::{Aggregates, BspEngine, ComputeContext, InitContext, VertexProgram};
use predict_graph::{CsrGraph, VertexId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregator counting semi-cluster updates performed in a superstep.
pub const UPDATED_CLUSTERS_AGGREGATOR: &str = "semicluster/updated";
/// Aggregator counting the total number of semi-clusters held by all vertices.
pub const TOTAL_CLUSTERS_AGGREGATOR: &str = "semicluster/total";

/// Parameters of the semi-clustering algorithm. Field names follow the paper:
/// `C_max`, `S_max`, `V_max`, `f_B`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemiClusteringParams {
    /// Maximum number of semi-clusters each vertex retains (`C_max`).
    pub c_max: usize,
    /// Maximum number of semi-clusters each vertex forwards to its neighbors
    /// per iteration (`S_max`).
    pub s_max: usize,
    /// Maximum number of vertices in a semi-cluster (`V_max`).
    pub v_max: usize,
    /// Boundary edge factor `f_B` penalizing edges that leave the cluster
    /// (`0 < f_B < 1`).
    pub boundary_factor: f64,
    /// Convergence threshold on the ratio of updated semi-clusters.
    pub tolerance: f64,
}

impl Default for SemiClusteringParams {
    /// The paper's base settings (section 5.1): `C_max = 1`, `S_max = 1`,
    /// `V_max = 10`, `f_B = 0.1`, `τ = 0.001`.
    fn default() -> Self {
        Self {
            c_max: 1,
            s_max: 1,
            v_max: 10,
            boundary_factor: 0.1,
            tolerance: 0.001,
        }
    }
}

impl SemiClusteringParams {
    /// Creates a parameter set.
    pub fn new(
        c_max: usize,
        s_max: usize,
        v_max: usize,
        boundary_factor: f64,
        tolerance: f64,
    ) -> Self {
        assert!(
            c_max > 0 && s_max > 0 && v_max > 1,
            "cluster capacity parameters must be positive"
        );
        assert!(
            boundary_factor > 0.0 && boundary_factor < 1.0,
            "boundary factor must be in (0, 1), got {boundary_factor}"
        );
        assert!(tolerance >= 0.0, "tolerance must be non-negative");
        Self {
            c_max,
            s_max,
            v_max,
            boundary_factor,
            tolerance,
        }
    }

    /// Returns a copy with a different convergence threshold.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// A semi-cluster: a set of vertices with its accumulated internal and
/// boundary edge weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemiCluster {
    /// Vertices in the cluster, kept sorted for cheap membership tests and
    /// deterministic comparison.
    pub vertices: Vec<VertexId>,
    /// Sum of the weights of edges with both endpoints inside the cluster
    /// (`I_c`).
    pub internal_weight: f64,
    /// Sum of the weights of edges with exactly one endpoint inside the
    /// cluster (`B_c`).
    pub boundary_weight: f64,
}

impl SemiCluster {
    /// A singleton cluster containing only `vertex`, whose incident edge
    /// weight is all boundary weight.
    pub fn singleton(vertex: VertexId, incident_weight: f64) -> Self {
        Self {
            vertices: vec![vertex],
            internal_weight: 0.0,
            boundary_weight: incident_weight,
        }
    }

    /// True when the cluster contains `vertex`.
    pub fn contains(&self, vertex: VertexId) -> bool {
        self.vertices.binary_search(&vertex).is_ok()
    }

    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the cluster has no members (never produced by the algorithm,
    /// but required for a complete API).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The paper's score (equation 2): `(I_c - f_B * B_c) / (V_c (V_c - 1) / 2)`,
    /// normalizing by the number of edges a clique over the members would
    /// have. Singleton clusters score 0 by convention (as in Pregel).
    pub fn score(&self, boundary_factor: f64) -> f64 {
        let vc = self.vertices.len() as f64;
        if vc < 2.0 {
            return 0.0;
        }
        (self.internal_weight - boundary_factor * self.boundary_weight) / (vc * (vc - 1.0) / 2.0)
    }

    /// Extends the cluster with `vertex`, whose incident edges are described
    /// by `(neighbor, weight)` pairs. Edges towards existing members move
    /// from boundary to internal weight; edges towards non-members add
    /// boundary weight.
    pub fn extended_with(&self, vertex: VertexId, incident: &[(VertexId, f32)]) -> Self {
        let mut extended = self.clone();
        let mut to_members = 0.0f64;
        let mut to_outside = 0.0f64;
        for &(nbr, w) in incident {
            if nbr == vertex {
                continue;
            }
            if extended.contains(nbr) {
                to_members += w as f64;
            } else {
                to_outside += w as f64;
            }
        }
        extended.internal_weight += to_members;
        // Edges from existing members to `vertex` previously counted as
        // boundary weight of the cluster; they are now internal.
        extended.boundary_weight = (extended.boundary_weight - to_members).max(0.0) + to_outside;
        extended.vertices.push(vertex);
        extended.vertices.sort_unstable();
        extended
    }

    /// Approximate serialized size in bytes: vertex ids plus the two weights.
    pub fn size_bytes(&self) -> u64 {
        (self.vertices.len() * 4 + 16) as u64
    }
}

/// Per-vertex state: the best `C_max` semi-clusters containing this vertex.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SemiClusterList {
    /// Best clusters containing the vertex, highest score first.
    pub clusters: Vec<SemiCluster>,
}

/// The semi-clustering vertex program.
///
/// The input graph is expected to be undirected (every edge present in both
/// directions), which is how the paper feeds directed graphs to this
/// algorithm; [`crate::workload::SemiClusteringWorkload`] performs the
/// conversion automatically.
#[derive(Debug, Clone, Copy)]
pub struct SemiClustering {
    /// Algorithm parameters.
    pub params: SemiClusteringParams,
}

impl SemiClustering {
    /// Creates a semi-clustering program.
    pub fn new(params: SemiClusteringParams) -> Self {
        Self { params }
    }

    /// Runs the program and returns per-vertex cluster lists plus the profile.
    pub fn run(&self, engine: &BspEngine, graph: &CsrGraph) -> SemiClusteringResult {
        let result = engine.run(graph, self);
        SemiClusteringResult {
            clusters: result.values,
            iterations: result.profile.num_iterations(),
            profile: result.profile,
            halt_reason: result.halt_reason,
        }
    }

    fn incident_edges(
        &self,
        ctx: &ComputeContext<'_, SemiClusterList, SemiClusterMessage>,
    ) -> Vec<(VertexId, f32)> {
        let weights = ctx.out_weights;
        ctx.out_neighbors
            .iter()
            .enumerate()
            .map(|(i, &n)| (n, weights.map(|w| w[i]).unwrap_or(1.0)))
            .collect()
    }

    fn sort_by_score(&self, clusters: &mut [SemiCluster]) {
        let f_b = self.params.boundary_factor;
        clusters.sort_by(|a, b| {
            b.score(f_b)
                .partial_cmp(&a.score(f_b))
                .unwrap()
                .then_with(|| a.vertices.cmp(&b.vertices))
        });
    }
}

/// Output of a semi-clustering run.
#[derive(Debug, Clone)]
pub struct SemiClusteringResult {
    /// Final cluster list of every vertex.
    pub clusters: Vec<SemiClusterList>,
    /// Number of supersteps executed.
    pub iterations: usize,
    /// Full run profile.
    pub profile: predict_bsp::RunProfile,
    /// Why the run terminated.
    pub halt_reason: predict_bsp::HaltReason,
}

impl SemiClusteringResult {
    /// The globally best `n` semi-clusters across all vertices, deduplicated,
    /// highest score first (the "global list of best semi-clusters" of the
    /// paper).
    pub fn best_clusters(&self, n: usize, boundary_factor: f64) -> Vec<SemiCluster> {
        let mut all: Vec<SemiCluster> = self
            .clusters
            .iter()
            .flat_map(|l| l.clusters.iter().cloned())
            .collect();
        all.sort_by(|a, b| {
            b.score(boundary_factor)
                .partial_cmp(&a.score(boundary_factor))
                .unwrap()
                .then_with(|| a.vertices.cmp(&b.vertices))
        });
        all.dedup_by(|a, b| a.vertices == b.vertices);
        all.truncate(n);
        all
    }
}

/// The clusters a vertex forwards to its neighbors: built once by the
/// sender, shared by every copy the runtime hands out.
pub type SemiClusterMessage = Arc<[SemiCluster]>;

impl VertexProgram for SemiClustering {
    type VertexValue = SemiClusterList;
    type Message = SemiClusterMessage;

    fn name(&self) -> &'static str {
        "semi-clustering"
    }

    fn init_vertex(&self, vertex: VertexId, ctx: &InitContext<'_>) -> SemiClusterList {
        let incident: f64 = ctx
            .out_weights
            .map(|ws| ws.iter().map(|&w| w as f64).sum())
            .unwrap_or(ctx.out_degree() as f64);
        SemiClusterList {
            clusters: vec![SemiCluster::singleton(vertex, incident)],
        }
    }

    fn compute(
        &self,
        ctx: &mut ComputeContext<'_, SemiClusterList, SemiClusterMessage>,
        messages: &[SemiClusterMessage],
    ) {
        if ctx.superstep == 0 {
            // First iteration: every vertex introduces itself as a singleton
            // semi-cluster to all of its neighbors.
            let own: SemiClusterMessage = ctx.value.clusters.as_slice().into();
            ctx.aggregate(TOTAL_CLUSTERS_AGGREGATOR, own.len() as f64);
            ctx.send_to_all_neighbors(own);
            ctx.vote_to_halt();
            return;
        }

        let vertex = ctx.vertex;
        let incident = self.incident_edges(ctx);

        // Candidate clusters: the ones received plus the extensions formed by
        // adding this vertex where allowed.
        let mut candidates: Vec<SemiCluster> = Vec::new();
        for msg in messages {
            for sc in msg.iter() {
                candidates.push(sc.clone());
                if !sc.contains(vertex) && sc.len() < self.params.v_max {
                    candidates.push(sc.extended_with(vertex, &incident));
                }
            }
        }

        // Forward the S_max best candidates to the neighbors.
        self.sort_by_score(&mut candidates);
        candidates.dedup_by(|a, b| a.vertices == b.vertices);
        let forward: SemiClusterMessage =
            candidates.iter().take(self.params.s_max).cloned().collect();

        // Update the vertex's own list with the candidates that contain it.
        let mut own: Vec<SemiCluster> = ctx.value.clusters.clone();
        let own_before = own.clone();
        own.extend(candidates.into_iter().filter(|c| c.contains(vertex)));
        self.sort_by_score(&mut own);
        own.dedup_by(|a, b| a.vertices == b.vertices);
        own.truncate(self.params.c_max);

        let updates = own
            .iter()
            .filter(|c| !own_before.iter().any(|o| o.vertices == c.vertices))
            .count();
        ctx.value.clusters = own;

        ctx.aggregate(UPDATED_CLUSTERS_AGGREGATOR, updates as f64);
        ctx.aggregate(TOTAL_CLUSTERS_AGGREGATOR, ctx.value.clusters.len() as f64);

        if !forward.is_empty() {
            ctx.send_to_all_neighbors(forward);
        }
        ctx.vote_to_halt();
    }

    fn message_size_bytes(&self, msg: &SemiClusterMessage) -> u64 {
        msg.iter().map(|c| c.size_bytes()).sum()
    }

    fn master_halt(&self, superstep: usize, aggregates: &Aggregates) -> bool {
        if superstep == 0 {
            return false;
        }
        let updated = aggregates.get_or(UPDATED_CLUSTERS_AGGREGATOR, 0.0);
        let total = aggregates.get_or(TOTAL_CLUSTERS_AGGREGATOR, 0.0).max(1.0);
        updated / total < self.params.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::{BspConfig, ClusterCostConfig};
    use predict_graph::generators::{generate_rmat, RmatConfig};
    use predict_graph::EdgeList;

    fn engine() -> BspEngine {
        BspEngine::new(BspConfig::with_workers(4).with_cost(ClusterCostConfig::noiseless()))
    }

    fn undirected(graph: &CsrGraph) -> CsrGraph {
        CsrGraph::from_edge_list(&graph.to_edge_list().to_undirected())
    }

    #[test]
    fn singleton_cluster_scores_zero() {
        let sc = SemiCluster::singleton(3, 5.0);
        assert_eq!(sc.score(0.1), 0.0);
        assert!(sc.contains(3));
        assert!(!sc.contains(4));
        assert_eq!(sc.len(), 1);
    }

    #[test]
    fn extending_moves_boundary_weight_to_internal() {
        // Cluster {0} with boundary weight 2 (edges 0-1 and 0-2).
        let sc = SemiCluster::singleton(0, 2.0);
        // Vertex 1's incident edges: to 0 (in cluster, weight 1) and to 2
        // (outside, weight 1).
        let extended = sc.extended_with(1, &[(0, 1.0), (2, 1.0)]);
        assert_eq!(extended.vertices, vec![0, 1]);
        assert!((extended.internal_weight - 1.0).abs() < 1e-12);
        assert!((extended.boundary_weight - 2.0).abs() < 1e-12);
        // Score of a 2-clique with I=1, B=2, f_B=0.1: (1 - 0.2)/1 = 0.8.
        assert!((extended.score(0.1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn two_triangles_yield_triangle_clusters() {
        // Two triangles {0,1,2} and {3,4,5} joined by a single weak edge 2-3.
        let edges: EdgeList = [(0u32, 1u32), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
            .into_iter()
            .collect();
        let g = CsrGraph::from_edge_list(&edges.to_undirected());
        let params = SemiClusteringParams::new(2, 2, 3, 0.2, 0.0);
        let result = SemiClustering::new(params).run(&engine(), &g);
        let best = result.best_clusters(2, params.boundary_factor);
        assert_eq!(best.len(), 2);
        for cluster in &best {
            let vs = &cluster.vertices;
            assert!(
                vs == &vec![0, 1, 2] || vs == &vec![3, 4, 5],
                "unexpected best cluster {vs:?}"
            );
            assert!(cluster.score(params.boundary_factor) > 0.0);
        }
    }

    #[test]
    fn cluster_size_never_exceeds_v_max() {
        let g = undirected(&generate_rmat(&RmatConfig::new(7, 4).with_seed(1)));
        let params = SemiClusteringParams {
            v_max: 4,
            ..Default::default()
        };
        let result = SemiClustering::new(params).run(&engine(), &g);
        for list in &result.clusters {
            for c in &list.clusters {
                assert!(c.len() <= 4);
            }
        }
    }

    #[test]
    fn list_size_never_exceeds_c_max() {
        let g = undirected(&generate_rmat(&RmatConfig::new(7, 4).with_seed(2)));
        let params = SemiClusteringParams {
            c_max: 2,
            s_max: 2,
            ..Default::default()
        };
        let result = SemiClustering::new(params).run(&engine(), &g);
        for list in &result.clusters {
            assert!(list.clusters.len() <= 2);
        }
    }

    #[test]
    fn message_bytes_grow_after_first_iteration() {
        // The paper's category ii).a): message sizes vary across iterations
        // because clusters grow. The average message size in iteration 2 must
        // exceed the singleton-sized messages of iteration 0.
        let g = undirected(&generate_rmat(&RmatConfig::new(8, 5).with_seed(3)));
        let result = SemiClustering::new(SemiClusteringParams::default()).run(&engine(), &g);
        let totals = result.profile.per_superstep_totals();
        assert!(totals.len() >= 3);
        assert!(
            totals[2].avg_message_size() > totals[0].avg_message_size(),
            "cluster messages should grow: {} vs {}",
            totals[2].avg_message_size(),
            totals[0].avg_message_size()
        );
    }

    #[test]
    fn converges_with_ratio_threshold() {
        let g = undirected(&generate_rmat(&RmatConfig::new(8, 5).with_seed(4)));
        let result = SemiClustering::new(SemiClusteringParams::default()).run(&engine(), &g);
        assert!(result.iterations >= 2);
        assert!(
            result.iterations < 100,
            "should converge well before the cap"
        );
    }

    #[test]
    fn larger_s_max_sends_more_bytes() {
        let g = undirected(&generate_rmat(&RmatConfig::new(7, 5).with_seed(5)));
        let small = SemiClustering::new(SemiClusteringParams::default()).run(&engine(), &g);
        let large = SemiClustering::new(SemiClusteringParams {
            s_max: 3,
            c_max: 3,
            ..Default::default()
        })
        .run(&engine(), &g);
        let bytes = |r: &SemiClusteringResult| {
            r.profile
                .per_superstep_totals()
                .iter()
                .map(|t| t.total_message_bytes())
                .sum::<u64>()
        };
        assert!(bytes(&large) > bytes(&small));
    }

    #[test]
    fn message_size_sums_cluster_sizes() {
        let sc = SemiClustering::new(SemiClusteringParams::default());
        let c1 = SemiCluster::singleton(1, 1.0);
        let c2 = SemiCluster {
            vertices: vec![1, 2, 3],
            internal_weight: 2.0,
            boundary_weight: 1.0,
        };
        assert_eq!(sc.message_size_bytes(&[c1.clone()].into()), 20);
        assert_eq!(sc.message_size_bytes(&[c1, c2].into()), 20 + 28);
    }

    #[test]
    fn weighted_edges_affect_scores() {
        // Vertex 0 and 1 joined by a heavy edge, 1 and 2 by a light edge.
        let mut el = EdgeList::new();
        el.push_weighted(0, 1, 10.0);
        el.push_weighted(1, 0, 10.0);
        el.push_weighted(1, 2, 0.1);
        el.push_weighted(2, 1, 0.1);
        let g = CsrGraph::from_edge_list(&el);
        let params = SemiClusteringParams::new(1, 1, 2, 0.5, 0.0);
        let result = SemiClustering::new(params).run(&engine(), &g);
        let best = result.best_clusters(1, params.boundary_factor);
        assert_eq!(
            best[0].vertices,
            vec![0, 1],
            "the heavy edge should form the best cluster"
        );
    }

    #[test]
    #[should_panic(expected = "boundary factor")]
    fn invalid_boundary_factor_panics() {
        let _ = SemiClusteringParams::new(1, 1, 10, 1.5, 0.001);
    }
}
