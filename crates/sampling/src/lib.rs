//! Graph sampling techniques for PREDIcT sample runs.
//!
//! The first ingredient of the PREDIcT methodology (section 3.2 of the paper)
//! is a sampling technique that selects a small fraction of a graph's vertices
//! while preserving the properties that drive an iterative algorithm's
//! convergence: connectivity, in/out degree proportionality and effective
//! diameter. This crate implements:
//!
//! * [`BiasedRandomJump`] (**BRJ**) — the paper's contribution and default:
//!   random walks that always restart from the highest out-degree vertices.
//! * [`RandomJump`] (**RJ**) — restart-based random walks with uniform jumps
//!   (Leskovec & Faloutsos).
//! * [`Mhrw`] (**MHRW**) — Metropolis–Hastings random walk with uniform
//!   stationary distribution (Gjoka et al.), the unbiased extreme used in the
//!   paper's Figure 9 sensitivity analysis.
//! * [`RandomNode`] — the naive uniform-vertex baseline.
//!
//! plus [`quality`] metrics for measuring how well a technique's samples
//! preserve graph properties.
//!
//! Sampler walks are the hot path of PREDIcT sample runs, so all per-draw
//! state lives in a reusable [`SampleScratch`] (a [`VisitedSet`] bitset with
//! O(set-bits) reset plus walk buffers) threaded through
//! [`Sampler::sample_vertices_with`]; prediction sessions reuse one scratch
//! across every draw, and the scratch never changes a drawn sample.
//!
//! # Example
//!
//! ```
//! use predict_graph::generators::{generate_rmat, RmatConfig};
//! use predict_sampling::{BiasedRandomJump, Sampler};
//!
//! let graph = generate_rmat(&RmatConfig::new(10, 8).with_seed(1));
//! let sample = BiasedRandomJump::default().sample(&graph, 0.1, 42);
//! assert!((sample.achieved_ratio - 0.1).abs() < 0.01);
//! assert!(sample.graph.num_edges() > 0);
//! ```

pub mod biased_random_jump;
pub mod mhrw;
pub mod quality;
pub mod random_jump;
pub mod random_node;
pub mod traits;
pub mod visited;

pub use biased_random_jump::BiasedRandomJump;
pub use mhrw::Mhrw;
pub use quality::SampleQualityReport;
pub use random_jump::RandomJump;
pub use random_node::RandomNode;
pub use traits::{target_sample_size, technique_from_name, GraphSample, Sampler};
pub use visited::{SampleScratch, ScratchGuard, ScratchPool, VisitedSet};

/// All sampling techniques evaluated in the paper's Figure 9 sensitivity
/// analysis (BRJ, RJ, MHRW), with the paper's default parameters
/// (`p = 0.15`, BRJ seed set = 1% of vertices).
pub fn paper_samplers() -> Vec<Box<dyn Sampler>> {
    vec![
        Box::new(BiasedRandomJump::default()),
        Box::new(RandomJump::default()),
        Box::new(Mhrw::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_samplers_are_brj_rj_mhrw() {
        let names: Vec<_> = paper_samplers().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["BRJ", "RJ", "MHRW"]);
    }
}
