//! Convergence-condition metadata.
//!
//! The transform function of the paper (section 3.2.2) picks its default rule
//! based on whether an algorithm's convergence threshold is *tuned to the size
//! of the input dataset*:
//!
//! * PageRank converges on an absolute aggregate (average rank delta, whose
//!   magnitude scales with `1/N`), so the sample-run threshold must be scaled
//!   by the inverse sampling ratio: `τ_S = τ_G / sr`.
//! * Semi-clustering and top-k ranking converge on a *ratio* of updates,
//!   which is size-invariant, so the threshold is kept: `τ_S = τ_G`.
//!
//! [`ConvergenceKind`] carries this distinction from each algorithm to the
//! transform function.

use serde::{Deserialize, Serialize};

/// Whether an algorithm's convergence threshold is tuned to the dataset size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConvergenceKind {
    /// Convergence compares an absolute aggregate against the threshold
    /// (e.g. PageRank's average delta, which shrinks as `1/N`). The default
    /// transform scales the threshold by `1 / sampling_ratio`.
    AbsoluteAggregate,
    /// Convergence compares a size-invariant ratio against the threshold
    /// (e.g. fraction of updated semi-clusters, fraction of active vertices).
    /// The default transform keeps the threshold unchanged.
    RelativeRatio,
    /// The algorithm runs to a structural fixed point with no tunable
    /// threshold (e.g. connected components). No transform applies.
    FixedPoint,
}
