//! The sampling-technique abstraction used by PREDIcT sample runs.
//!
//! A sampling technique selects a set of vertices from the full graph; the
//! sample *graph* the algorithm is then executed on is the subgraph induced by
//! that set (section 3.2.1 of the paper). All techniques are deterministic
//! given a seed so experiments are reproducible.

use crate::visited::SampleScratch;
use predict_graph::{induced_subgraph, CsrGraph, SubgraphMapping, VertexId};
use serde::{Deserialize, Serialize};

/// A vertex sample of a graph: the induced subgraph plus the mapping back to
/// the original vertex ids and the ratio that was requested.
///
/// `Deserialize` is hand-written (see [`technique_from_name`]) because
/// `technique` is a `&'static str`: the persistent artifact store
/// round-trips samples through serialization, and the stored name is mapped
/// back onto the canonical static name of a known technique. A sample
/// recorded by an unknown (out-of-tree) technique fails deserialization,
/// which the store treats as a miss — the sample is recomputed, never
/// mislabeled.
#[derive(Debug, Clone, Serialize)]
pub struct GraphSample {
    /// The induced subgraph over the selected vertices (dense ids).
    pub graph: CsrGraph,
    /// Mapping between sample ids and original ids.
    pub mapping: SubgraphMapping,
    /// The sampling ratio that was requested (fraction of vertices).
    pub requested_ratio: f64,
    /// The ratio that was actually achieved (`sample vertices / full
    /// vertices`); equals the request up to rounding.
    pub achieved_ratio: f64,
    /// Name of the technique that produced the sample.
    pub technique: &'static str,
}

impl GraphSample {
    /// Vertex scaling factor `|V_G| / |V_S|` used by the extrapolator.
    pub fn vertex_scale_factor(&self, full: &CsrGraph) -> f64 {
        if self.graph.num_vertices() == 0 {
            return 0.0;
        }
        full.num_vertices() as f64 / self.graph.num_vertices() as f64
    }

    /// Edge scaling factor `|E_G| / |E_S|` used by the extrapolator.
    pub fn edge_scale_factor(&self, full: &CsrGraph) -> f64 {
        if self.graph.num_edges() == 0 {
            return 0.0;
        }
        full.num_edges() as f64 / self.graph.num_edges() as f64
    }
}

/// Maps a stored technique name back onto the canonical `&'static str` of a
/// known in-tree technique, or `None` for out-of-tree names.
///
/// Keep in sync with the [`Sampler::name`] implementations in this crate;
/// adding a technique without registering it here makes its persisted
/// samples deserialize as store misses (safe, but wasteful).
pub fn technique_from_name(name: &str) -> Option<&'static str> {
    ["BRJ", "RJ", "RN", "RE", "FF", "MHRW"]
        .into_iter()
        .find(|&t| t == name)
}

impl Deserialize for GraphSample {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::msg("GraphSample: expected a map"))?;
        let technique_name = String::deserialize_value(serde::get_field(entries, "technique")?)?;
        let technique = technique_from_name(&technique_name).ok_or_else(|| {
            serde::Error::msg(format!("GraphSample: unknown technique `{technique_name}`"))
        })?;
        Ok(GraphSample {
            graph: CsrGraph::deserialize_value(serde::get_field(entries, "graph")?)?,
            mapping: SubgraphMapping::deserialize_value(serde::get_field(entries, "mapping")?)?,
            requested_ratio: f64::deserialize_value(serde::get_field(entries, "requested_ratio")?)?,
            achieved_ratio: f64::deserialize_value(serde::get_field(entries, "achieved_ratio")?)?,
            technique,
        })
    }
}

/// A graph sampling technique.
///
/// Implementations must be deterministic for a fixed `(graph, ratio, seed)`
/// triple; all randomness must flow from the seed. Samplers are `Send + Sync`
/// so one instance can be shared behind an `Arc` by concurrent prediction
/// sessions — every implementation in this crate is a plain configuration
/// struct with no interior mutability. The `Debug` rendering must cover every
/// parameter that influences a draw: store-backed prediction sessions mix it
/// into the provenance of persisted artifacts, so a sampler tuned differently
/// never reads another tuning's samples.
pub trait Sampler: Send + Sync + std::fmt::Debug {
    /// Short name of the technique (used in reports and plots, e.g. "BRJ").
    fn name(&self) -> &'static str;

    /// Selects approximately `ratio * num_vertices` vertices from `graph`,
    /// using `scratch` for all per-draw working memory (visited bitset,
    /// vertex buffers).
    ///
    /// The returned ids are unique and refer to the original graph. The
    /// requested ratio is clamped to `[0, 1]`. Implementations must reset
    /// whatever scratch state they use, so passing a scratch left over from
    /// any previous draw produces exactly the same selection as a fresh one —
    /// the scratch only amortizes allocations across the repeated draws of a
    /// prediction session.
    ///
    /// # Examples
    ///
    /// Drawing repeatedly through one scratch: allocations are reused, and a
    /// dirty scratch never changes what is drawn:
    ///
    /// ```
    /// use predict_graph::generators::{generate_rmat, RmatConfig};
    /// use predict_sampling::{BiasedRandomJump, SampleScratch, Sampler};
    ///
    /// let graph = generate_rmat(&RmatConfig::new(10, 8).with_seed(1));
    /// let sampler = BiasedRandomJump::default();
    ///
    /// let mut scratch = SampleScratch::new();
    /// let first = sampler.sample_vertices_with(&graph, 0.1, 42, &mut scratch);
    /// assert_eq!(first.len(), (graph.num_vertices() as f64 * 0.1).round() as usize);
    ///
    /// // Same (ratio, seed) through the now-dirty scratch: same selection.
    /// let again = sampler.sample_vertices_with(&graph, 0.1, 42, &mut scratch);
    /// assert_eq!(first, again);
    /// // And identical to a fresh-scratch draw.
    /// assert_eq!(first, sampler.sample_vertices(&graph, 0.1, 42));
    /// ```
    fn sample_vertices_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut SampleScratch,
    ) -> Vec<VertexId>;

    /// [`Sampler::sample_vertices_with`] with a fresh throwaway scratch.
    fn sample_vertices(&self, graph: &CsrGraph, ratio: f64, seed: u64) -> Vec<VertexId> {
        self.sample_vertices_with(graph, ratio, seed, &mut SampleScratch::new())
    }

    /// Selects vertices and extracts the induced sample graph, reusing
    /// `scratch` for the selection walk.
    fn sample_with(
        &self,
        graph: &CsrGraph,
        ratio: f64,
        seed: u64,
        scratch: &mut SampleScratch,
    ) -> GraphSample {
        let ratio = ratio.clamp(0.0, 1.0);
        let vertices = self.sample_vertices_with(graph, ratio, seed, scratch);
        let (sub, mapping) = induced_subgraph(graph, &vertices);
        let achieved_ratio = if graph.num_vertices() == 0 {
            0.0
        } else {
            sub.num_vertices() as f64 / graph.num_vertices() as f64
        };
        GraphSample {
            graph: sub,
            mapping,
            requested_ratio: ratio,
            achieved_ratio,
            technique: self.name(),
        }
    }

    /// [`Sampler::sample_with`] with a fresh throwaway scratch.
    fn sample(&self, graph: &CsrGraph, ratio: f64, seed: u64) -> GraphSample {
        self.sample_with(graph, ratio, seed, &mut SampleScratch::new())
    }
}

/// Number of vertices a sampler should select for a given ratio: at least one
/// vertex for any positive ratio on a non-empty graph, never more than the
/// graph has.
pub fn target_sample_size(num_vertices: usize, ratio: f64) -> usize {
    if num_vertices == 0 || ratio <= 0.0 {
        return 0;
    }
    let raw = (num_vertices as f64 * ratio).round() as usize;
    raw.clamp(1, num_vertices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_graph::generators::{generate_rmat, RmatConfig};

    #[derive(Debug)]
    struct FirstK;
    impl Sampler for FirstK {
        fn name(&self) -> &'static str {
            "FirstK"
        }
        fn sample_vertices_with(
            &self,
            graph: &CsrGraph,
            ratio: f64,
            _seed: u64,
            _scratch: &mut SampleScratch,
        ) -> Vec<VertexId> {
            let k = target_sample_size(graph.num_vertices(), ratio);
            (0..k as VertexId).collect()
        }
    }

    #[test]
    fn target_sample_size_basic() {
        assert_eq!(target_sample_size(100, 0.1), 10);
        assert_eq!(target_sample_size(100, 0.0), 0);
        assert_eq!(target_sample_size(0, 0.5), 0);
        assert_eq!(target_sample_size(100, 1.0), 100);
        // Any positive ratio selects at least one vertex.
        assert_eq!(target_sample_size(100, 0.0001), 1);
        // Ratios above 1.0 are capped by the caller (sample clamps), but the
        // size helper still never exceeds the vertex count.
        assert_eq!(target_sample_size(10, 5.0), 10);
    }

    #[test]
    fn sample_builds_induced_subgraph_and_ratios() {
        let g = generate_rmat(&RmatConfig::new(8, 4).with_seed(1));
        let s = FirstK.sample(&g, 0.25, 0);
        assert_eq!(s.graph.num_vertices(), 64);
        assert!((s.achieved_ratio - 0.25).abs() < 1e-9);
        assert_eq!(s.requested_ratio, 0.25);
        assert_eq!(s.technique, "FirstK");
        assert!((s.vertex_scale_factor(&g) - 4.0).abs() < 1e-9);
        assert!(s.edge_scale_factor(&g) >= 1.0);
    }

    #[test]
    fn sample_clamps_ratio() {
        let g = generate_rmat(&RmatConfig::new(6, 4).with_seed(1));
        let s = FirstK.sample(&g, 7.5, 0);
        assert_eq!(s.graph.num_vertices(), g.num_vertices());
        assert_eq!(s.requested_ratio, 1.0);
    }

    #[test]
    fn empty_graph_sample_is_empty() {
        let g = CsrGraph::from_edges(0, &[]);
        let s = FirstK.sample(&g, 0.5, 0);
        assert_eq!(s.graph.num_vertices(), 0);
        assert_eq!(s.achieved_ratio, 0.0);
        assert_eq!(s.vertex_scale_factor(&g), 0.0);
        assert_eq!(s.edge_scale_factor(&g), 0.0);
    }
}
