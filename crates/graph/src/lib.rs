//! Graph substrate for the PREDIcT reproduction.
//!
//! This crate provides the data structures and tooling that every other crate
//! in the workspace builds on:
//!
//! * [`CsrGraph`] — an immutable, compressed-sparse-row directed graph with
//!   optional edge weights and an out-adjacency plus an in-adjacency built on
//!   first use, the representation used by the BSP engine and the samplers.
//! * [`ShardedCsr`] — the per-worker slice of a graph (local CSR over the
//!   owned vertices), the only part of a graph a cluster worker holds.
//! * [`EdgeList`] — the mutable construction API, an edge buffer frozen
//!   into a [`CsrGraph`].
//! * [`generators`] — synthetic graph generators (R-MAT, Erdős–Rényi,
//!   degenerate chains, plus grid road networks, bipartite web graphs and
//!   degree-corrected block models) used to build scaled-down analogs of the
//!   paper's datasets and regimes beyond them.
//! * [`datasets`] — presets mirroring Table 2 of the paper (LiveJournal,
//!   Wikipedia, Twitter, UK-2002 analogs) plus the extended
//!   road/bipartite/DC-SBM datasets.
//! * [`properties`] — graph property analysis (degree distributions, power-law
//!   fit, effective diameter, clustering coefficient, connected components)
//!   used to validate that samples preserve the properties the paper relies on.
//! * [`dstat`] — Kolmogorov–Smirnov D-statistic comparison between a sample's
//!   property distributions and the full graph's (as in Leskovec & Faloutsos).
//!
//! # Example
//!
//! ```
//! use predict_graph::generators::{RmatConfig, generate_rmat};
//! use predict_graph::properties::GraphProperties;
//!
//! let graph = generate_rmat(&RmatConfig::new(10, 8).with_seed(42));
//! assert!(graph.num_vertices() <= 1 << 10);
//! let props = GraphProperties::analyze(&graph, 7);
//! assert!(props.avg_out_degree > 0.0);
//! ```

pub mod csr;
pub mod datasets;
pub mod dstat;
pub mod edge_list;
pub mod generators;
pub mod properties;
pub mod sharded;
pub mod subgraph;
pub mod types;

pub use csr::CsrGraph;
pub use edge_list::EdgeList;
pub use sharded::{shard_csr, ShardedCsr};
pub use subgraph::{induced_subgraph, SubgraphMapping};
pub use types::{Edge, VertexId};
