//! Core identifier and count types shared across the workspace.

/// Identifier of a vertex within a graph.
///
/// Vertices are always densely numbered `0..num_vertices`, which lets the CSR
/// representation and the BSP engine index per-vertex state with plain vectors.
pub type VertexId = u32;

/// A directed edge `(source, destination)` with an optional weight.
///
/// Weights default to `1.0` and are only meaningful for algorithms operating
/// on weighted graphs (semi-clustering in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Source vertex.
    pub src: VertexId,
    /// Destination vertex.
    pub dst: VertexId,
    /// Edge weight (defaults to 1.0 for unweighted graphs).
    pub weight: f32,
}

impl Edge {
    /// Creates an unweighted (weight 1.0) edge.
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Self {
            src,
            dst,
            weight: 1.0,
        }
    }

    /// Creates a weighted edge.
    pub fn weighted(src: VertexId, dst: VertexId, weight: f32) -> Self {
        Self { src, dst, weight }
    }

    /// Returns the edge with source and destination swapped (same weight).
    pub fn reversed(&self) -> Self {
        Self {
            src: self.dst,
            dst: self.src,
            weight: self.weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_new_defaults_weight_to_one() {
        let e = Edge::new(1, 2);
        assert_eq!(e.src, 1);
        assert_eq!(e.dst, 2);
        assert_eq!(e.weight, 1.0);
    }

    #[test]
    fn edge_weighted_keeps_weight() {
        let e = Edge::weighted(3, 4, 0.25);
        assert_eq!(e.weight, 0.25);
    }

    #[test]
    fn edge_reversed_swaps_endpoints() {
        let e = Edge::weighted(3, 4, 0.5);
        let r = e.reversed();
        assert_eq!(r.src, 4);
        assert_eq!(r.dst, 3);
        assert_eq!(r.weight, 0.5);
    }
}
