//! Induced subgraph extraction.
//!
//! Sampling techniques select a set of vertices; the sample *graph* the paper
//! runs on is the subgraph induced by that set (all edges of the original
//! graph whose endpoints are both selected). [`induced_subgraph`] extracts
//! that graph with densely renumbered vertex ids and returns a
//! [`SubgraphMapping`] so per-vertex results on the sample can be mapped back
//! to original vertex ids (needed e.g. when top-k ranking runs on the sample
//! of the PageRank output).

use crate::csr::CsrGraph;
use crate::types::VertexId;
use serde::{Deserialize, Serialize, Value};

/// Mapping between the dense vertex ids of an induced subgraph and the vertex
/// ids of the graph it was extracted from.
///
/// Serializes as `to_original` plus the vertex count of the original graph;
/// `to_sample` is its exact inverse and is rebuilt on deserialization, which
/// rejects ids outside the original graph and ids selected twice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubgraphMapping {
    /// `to_original[new_id] = original_id`.
    to_original: Vec<VertexId>,
    /// `to_sample[original_id] = Some(new_id)` for selected vertices.
    to_sample: Vec<Option<VertexId>>,
}

impl Serialize for SubgraphMapping {
    fn serialize_value(&self) -> Value {
        Value::Map(vec![
            (
                "to_original".to_string(),
                self.to_original.serialize_value(),
            ),
            (
                "num_original".to_string(),
                self.to_sample.len().serialize_value(),
            ),
        ])
    }
}

impl Deserialize for SubgraphMapping {
    fn deserialize_value(value: &Value) -> Result<Self, serde::Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| serde::Error::msg("SubgraphMapping: expected a map"))?;
        let to_original =
            Vec::<VertexId>::deserialize_value(serde::get_field(entries, "to_original")?)?;
        let num_original = usize::deserialize_value(serde::get_field(entries, "num_original")?)?;
        let mut to_sample: Vec<Option<VertexId>> = vec![None; num_original];
        for (sample_id, &original_id) in to_original.iter().enumerate() {
            let slot = to_sample.get_mut(original_id as usize).ok_or_else(|| {
                serde::Error::msg(format!(
                    "SubgraphMapping: original id {original_id} out of range {num_original}"
                ))
            })?;
            if slot.is_some() {
                return Err(serde::Error::msg(format!(
                    "SubgraphMapping: original id {original_id} selected twice"
                )));
            }
            *slot = Some(sample_id as VertexId);
        }
        Ok(SubgraphMapping {
            to_original,
            to_sample,
        })
    }
}

impl SubgraphMapping {
    /// Original vertex id for a subgraph vertex id.
    ///
    /// # Panics
    ///
    /// Panics if `sample_id` is out of range for the subgraph.
    pub fn original_id(&self, sample_id: VertexId) -> VertexId {
        self.to_original[sample_id as usize]
    }

    /// Subgraph vertex id for an original vertex id, or `None` if that vertex
    /// was not selected.
    pub fn sample_id(&self, original_id: VertexId) -> Option<VertexId> {
        self.to_sample.get(original_id as usize).copied().flatten()
    }

    /// Number of vertices in the subgraph.
    pub fn num_sampled(&self) -> usize {
        self.to_original.len()
    }

    /// Iterates over `(sample_id, original_id)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.to_original
            .iter()
            .enumerate()
            .map(|(s, &o)| (s as VertexId, o))
    }
}

/// Extracts the subgraph induced by `vertices` (duplicates are ignored; order
/// determines the new dense ids). Edge weights are preserved.
///
/// The sample graph's CSR is assembled directly — no intermediate edge-list
/// materialization. Because the selected vertices are visited in ascending
/// new-id order and each adjacency in neighbor order, the surviving edges are
/// emitted already grouped by source in CSR order: the out-adjacency is a
/// single append pass, and the in-adjacency follows from the same counting
/// build a full-graph construction uses. Neighbor order is byte-identical to
/// building the equivalent edge list and freezing it (pinned by the
/// `induced_subgraph_matches_edge_list_reference` property test).
pub fn induced_subgraph(graph: &CsrGraph, vertices: &[VertexId]) -> (CsrGraph, SubgraphMapping) {
    let mut to_sample: Vec<Option<VertexId>> = vec![None; graph.num_vertices()];
    let mut to_original: Vec<VertexId> = Vec::with_capacity(vertices.len());
    for &v in vertices {
        let slot = &mut to_sample[v as usize];
        if slot.is_none() {
            *slot = Some(to_original.len() as VertexId);
            to_original.push(v);
        }
    }

    // Upper bound on the surviving edge count: the selected vertices' full
    // out-degrees.
    let capacity: usize = to_original.iter().map(|&v| graph.out_degree(v)).sum();
    let mut out_offsets: Vec<usize> = Vec::with_capacity(to_original.len() + 1);
    out_offsets.push(0);
    let mut out_targets: Vec<VertexId> = Vec::with_capacity(capacity);
    // Weight storage mirrors `CsrGraph::from_edges`: the subgraph is weighted
    // only when a surviving edge carries a non-unit weight.
    let mut weight_buf: Vec<f32> = Vec::new();
    let mut weighted = false;
    if graph.is_weighted() {
        weight_buf.reserve(capacity);
    }

    for &orig_src in &to_original {
        let nbrs = graph.out_neighbors(orig_src);
        match graph.out_weights(orig_src) {
            Some(weights) => {
                for (i, &orig_dst) in nbrs.iter().enumerate() {
                    if let Some(new_dst) = to_sample[orig_dst as usize] {
                        out_targets.push(new_dst);
                        weight_buf.push(weights[i]);
                        weighted |= weights[i] != 1.0;
                    }
                }
            }
            None => {
                for &orig_dst in nbrs {
                    if let Some(new_dst) = to_sample[orig_dst as usize] {
                        out_targets.push(new_dst);
                    }
                }
            }
        }
        out_offsets.push(out_targets.len());
    }

    let out_weights = weighted.then_some(weight_buf);
    let sub = CsrGraph::from_csr_parts(to_original.len(), out_offsets, out_targets, out_weights);
    (
        sub,
        SubgraphMapping {
            to_original,
            to_sample,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_list::EdgeList;
    use crate::generators::{generate_rmat, RmatConfig};

    fn square() -> CsrGraph {
        // 0 -> 1 -> 2 -> 3 -> 0 plus diagonal 0 -> 2
        let el: EdgeList = [(0u32, 1u32), (1, 2), (2, 3), (3, 0), (0, 2)]
            .into_iter()
            .collect();
        CsrGraph::from_edge_list(&el)
    }

    #[test]
    fn keeps_only_internal_edges() {
        let g = square();
        let (sub, map) = induced_subgraph(&g, &[0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        // Edges 0->1, 1->2, 0->2 survive; 2->3 and 3->0 do not.
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map.num_sampled(), 3);
    }

    #[test]
    fn mapping_roundtrips() {
        let g = square();
        let (_, map) = induced_subgraph(&g, &[3, 1]);
        assert_eq!(map.original_id(0), 3);
        assert_eq!(map.original_id(1), 1);
        assert_eq!(map.sample_id(3), Some(0));
        assert_eq!(map.sample_id(1), Some(1));
        assert_eq!(map.sample_id(0), None);
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(pairs, vec![(0, 3), (1, 1)]);
    }

    #[test]
    fn mapping_serializes_without_its_inverse_and_rebuilds_it() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(5));
        let (_, mapping) = induced_subgraph(&g, &[9, 3, 100, 4, 77]);
        let value = mapping.serialize_value();
        let keys: Vec<&str> = value
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["to_original", "num_original"]);
        let back = SubgraphMapping::deserialize_value(&value).unwrap();
        assert_eq!(back, mapping);
        assert_eq!(back.sample_id(100), Some(2));
        assert_eq!(back.sample_id(5), None);
        assert_eq!(back.sample_id(g.num_vertices() as VertexId), None);
    }

    #[test]
    fn deserialize_rejects_out_of_range_and_duplicate_ids() {
        let mapping = |ids: Vec<VertexId>, num_original: usize| {
            SubgraphMapping::deserialize_value(&Value::Map(vec![
                ("to_original".to_string(), ids.serialize_value()),
                ("num_original".to_string(), num_original.serialize_value()),
            ]))
        };
        assert!(mapping(vec![0, 4, 2], 5).is_ok());
        assert!(mapping(vec![], 0).is_ok());
        let out_of_range = mapping(vec![0, 5], 5).unwrap_err();
        assert!(out_of_range.to_string().contains("out of range"));
        let duplicate = mapping(vec![3, 1, 3], 5).unwrap_err();
        assert!(duplicate.to_string().contains("selected twice"));
    }

    #[test]
    fn duplicate_selection_is_ignored() {
        let g = square();
        let (sub, map) = induced_subgraph(&g, &[0, 0, 1, 1]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(map.num_sampled(), 2);
        assert_eq!(sub.num_edges(), 1); // only 0 -> 1
    }

    #[test]
    fn preserves_weights() {
        let mut el = EdgeList::new();
        el.push_weighted(0, 1, 0.5);
        el.push_weighted(1, 2, 3.0);
        let g = CsrGraph::from_edge_list(&el);
        let (sub, _) = induced_subgraph(&g, &[0, 1]);
        assert!(sub.is_weighted());
        assert_eq!(sub.out_weights(0).unwrap(), &[0.5]);
    }

    #[test]
    fn empty_selection_gives_empty_graph() {
        let g = square();
        let (sub, map) = induced_subgraph(&g, &[]);
        assert_eq!(sub.num_vertices(), 0);
        assert_eq!(sub.num_edges(), 0);
        assert_eq!(map.num_sampled(), 0);
    }

    #[test]
    fn full_selection_preserves_graph() {
        let g = generate_rmat(&RmatConfig::new(7, 4).with_seed(5));
        let all: Vec<VertexId> = g.vertices().collect();
        let (sub, map) = induced_subgraph(&g, &all);
        assert_eq!(sub.num_vertices(), g.num_vertices());
        assert_eq!(sub.num_edges(), g.num_edges());
        // Identity mapping because vertices were passed in order.
        for v in g.vertices() {
            assert_eq!(map.original_id(v), v);
        }
    }

    #[test]
    fn subgraph_degrees_never_exceed_original() {
        let g = generate_rmat(&RmatConfig::new(8, 6).with_seed(8));
        let selected: Vec<VertexId> = g.vertices().filter(|v| v % 3 == 0).collect();
        let (sub, map) = induced_subgraph(&g, &selected);
        for (s, o) in map.iter() {
            assert!(sub.out_degree(s) <= g.out_degree(o));
            assert!(sub.in_degree(s) <= g.in_degree(o));
        }
    }
}
