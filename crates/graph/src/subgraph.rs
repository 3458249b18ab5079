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
use std::sync::OnceLock;

/// Marks an original vertex that was not selected in a dense `u32` map.
const NOT_SELECTED: VertexId = VertexId::MAX;

/// Mapping between the dense vertex ids of an induced subgraph and the vertex
/// ids of the graph it was extracted from.
///
/// Holds `to_original` plus the vertex count of the original graph, and
/// serializes exactly those. The inverse (original id → sample id) is
/// derived data: [`Self::sample_id`] builds it on first use, so a mapping
/// that is only read forward never pays for a table the size of the
/// original graph. Deserialization rejects ids outside the original graph
/// and ids selected twice. Equality compares the two stored fields.
#[derive(Debug, Clone)]
pub struct SubgraphMapping {
    /// `to_original[new_id] = original_id`.
    to_original: Vec<VertexId>,
    /// Vertex count of the original graph.
    num_original: usize,
    /// `to_sample[original_id] = new_id` for selected vertices,
    /// [`NOT_SELECTED`] otherwise; built on first use.
    to_sample: OnceLock<Vec<VertexId>>,
}

impl PartialEq for SubgraphMapping {
    fn eq(&self, other: &Self) -> bool {
        self.to_original == other.to_original && self.num_original == other.num_original
    }
}

impl Eq for SubgraphMapping {}

impl Serialize for SubgraphMapping {
    fn serialize_value(&self) -> Value {
        Value::Map(vec![
            (
                "to_original".to_string(),
                self.to_original.serialize_value(),
            ),
            (
                "num_original".to_string(),
                self.num_original.serialize_value(),
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
        // One bit per original vertex: enough to reject out-of-range and
        // repeated ids without building the inverse.
        let mut seen = vec![0u64; num_original.div_ceil(64)];
        for &original_id in &to_original {
            let id = original_id as usize;
            if id >= num_original {
                return Err(serde::Error::msg(format!(
                    "SubgraphMapping: original id {original_id} out of range {num_original}"
                )));
            }
            let (word, bit) = (&mut seen[id / 64], 1u64 << (id % 64));
            if *word & bit != 0 {
                return Err(serde::Error::msg(format!(
                    "SubgraphMapping: original id {original_id} selected twice"
                )));
            }
            *word |= bit;
        }
        Ok(SubgraphMapping {
            to_original,
            num_original,
            to_sample: OnceLock::new(),
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
    /// was not selected. The first call builds the inverse map.
    pub fn sample_id(&self, original_id: VertexId) -> Option<VertexId> {
        let to_sample = self.to_sample.get_or_init(|| {
            let mut to_sample = vec![NOT_SELECTED; self.num_original];
            for (sample, original) in self.iter() {
                to_sample[original as usize] = sample;
            }
            to_sample
        });
        to_sample
            .get(original_id as usize)
            .copied()
            .filter(|&id| id != NOT_SELECTED)
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
/// The sample graph's out-adjacency is assembled directly — no intermediate
/// edge-list materialization and no in-adjacency, which the sample graph
/// builds on first use. Because the selected vertices are visited in
/// ascending new-id order and each adjacency in neighbor order, the
/// surviving edges are emitted already grouped by source in CSR order. The
/// per-edge filter is branch-free: every edge writes its mapped target (and
/// weight) at the cursor, and the cursor advances only past survivors.
/// Neighbor order is byte-identical to building the equivalent edge list and
/// freezing it (pinned by the `induced_subgraph_matches_edge_list_reference`
/// property test).
pub fn induced_subgraph(graph: &CsrGraph, vertices: &[VertexId]) -> (CsrGraph, SubgraphMapping) {
    let mut to_sample = vec![NOT_SELECTED; graph.num_vertices()];
    let mut to_original: Vec<VertexId> = Vec::with_capacity(vertices.len());
    for &v in vertices {
        let slot = &mut to_sample[v as usize];
        if *slot == NOT_SELECTED {
            *slot = to_original.len() as VertexId;
            to_original.push(v);
        }
    }

    // Room for every out-edge of a selected vertex: the cursor never passes
    // the number of edges visited so far, so every write lands in bounds.
    let capacity: usize = to_original.iter().map(|&v| graph.out_degree(v)).sum();
    let mut out_offsets: Vec<usize> = Vec::with_capacity(to_original.len() + 1);
    out_offsets.push(0);
    let mut out_targets = vec![0 as VertexId; capacity];
    let mut weights = vec![0f32; if graph.is_weighted() { capacity } else { 0 }];
    let mut len = 0usize;
    for &orig_src in &to_original {
        let src_weights = graph.out_weights(orig_src);
        for (i, &orig_dst) in graph.out_neighbors(orig_src).iter().enumerate() {
            let new_dst = to_sample[orig_dst as usize];
            out_targets[len] = new_dst;
            if let Some(ws) = src_weights {
                weights[len] = ws[i];
            }
            len += usize::from(new_dst != NOT_SELECTED);
        }
        out_offsets.push(len);
    }
    out_targets.truncate(len);
    weights.truncate(len);

    // Weight storage mirrors `CsrGraph::from_edges`: the subgraph is weighted
    // only when a surviving edge carries a non-unit weight.
    let out_weights = weights.iter().any(|&w| w != 1.0).then_some(weights);
    let num_original = graph.num_vertices();
    let sub = CsrGraph::from_csr_parts(to_original.len(), out_offsets, out_targets, out_weights);
    (
        sub,
        SubgraphMapping {
            to_original,
            num_original,
            to_sample: OnceLock::new(),
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
