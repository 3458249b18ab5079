//! Synthetic graph generators.
//!
//! The paper evaluates PREDIcT on four real graphs (LiveJournal, Wikipedia,
//! Twitter, UK-2002). Those datasets are not redistributable inside this
//! repository, so the [`datasets`](crate::datasets) presets build scaled-down
//! *analogs* using the generators in this module:
//!
//! * [`rmat`] — recursive-matrix (R-MAT) graphs, the standard synthetic model
//!   for power-law web/social graphs (used for the Wikipedia, UK-2002 and
//!   Twitter analogs).
//! * [`erdos_renyi`] — uniform random graphs whose degree distribution is
//!   binomial rather than power-law (used for the LiveJournal analog, whose
//!   out-degree distribution the paper observes is *not* a power law).
//! * [`degenerate`] — chains, stars, cycles, complete graphs and binary trees;
//!   the "degenerate graph structures" on which the paper states its
//!   methodology does not apply, used for negative tests.
//!
//! Beyond the paper's Table 2 regime, three generators stress the samplers on
//! structures the paper does not cover (swept by the `table2_new_datasets`
//! and `fig9_new_generators` experiment binaries):
//!
//! * [`grid_road`] — 2-D lattice road networks: huge effective diameter,
//!   bounded degrees, no hub core for BRJ to bias towards.
//! * [`bipartite`] — web-style two-mode graphs: walks alternate between a
//!   uniform "user" side and a power-law "site" side.
//! * [`dcsbm`] — degree-corrected stochastic block models: community
//!   structure plus heavy-tailed degrees inside every block.
//!
//! All generators are deterministic given a seed.

pub mod bipartite;
pub mod dcsbm;
pub mod degenerate;
pub mod erdos_renyi;
pub mod grid_road;
pub mod rmat;

pub use bipartite::{generate_bipartite, BipartiteConfig};
pub use dcsbm::{generate_dcsbm, DcsbmConfig};
pub use degenerate::{binary_tree, chain, complete, cycle, star};
pub use erdos_renyi::{generate_erdos_renyi, ErdosRenyiConfig};
pub use grid_road::{generate_grid_road, GridRoadConfig};
pub use rmat::{generate_rmat, RmatConfig};
