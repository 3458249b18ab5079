//! The transform function (section 3.2.2 of the paper).
//!
//! Running an algorithm on a sample with its original parameters does *not*
//! preserve the number of iterations: convergence thresholds that are tuned to
//! the dataset size (PageRank's average-delta threshold) must be rescaled so
//! that the sample run converges after the same number of iterations as the
//! actual run. The transform function `T = (Conf_S => Conf_G, Conv_S =>
//! Conv_G)` captures this: configuration parameters are carried over unchanged
//! (the identity mapping), and the convergence threshold is either scaled by
//! the inverse sampling ratio or kept, depending on the algorithm's
//! convergence kind. Users with domain knowledge can plug in a custom scaling
//! exponent instead of the default rule.

use predict_algorithms::{ConvergenceKind, Workload};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// How the convergence threshold of the sample run relates to the threshold
/// of the actual run.
///
/// Rules compare and hash by their exact parameter bit patterns, so they can
/// key artifact caches: `Power(0.0)` and `Power(-0.0)` are different rules.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum ThresholdRule {
    /// `τ_S = τ_G`: keep the threshold (ratio-based convergence, e.g.
    /// semi-clustering, top-k ranking).
    Identity,
    /// `τ_S = τ_G / sr`: scale by the inverse sampling ratio (absolute
    /// aggregates tuned to the dataset size, e.g. PageRank).
    InverseSamplingRatio,
    /// `τ_S = τ_G / sr^exponent`: custom power of the sampling ratio for
    /// algorithms whose aggregates scale non-linearly with the sample size.
    Power(f64),
    /// `τ_S = τ_G * factor`: fixed custom factor supplied by the user.
    Fixed(f64),
}

impl ThresholdRule {
    /// The variant and its parameter's bit pattern: the rule's exact
    /// identity.
    fn identity(self) -> (u8, u64) {
        match self {
            Self::Identity => (0, 0),
            Self::InverseSamplingRatio => (1, 0),
            Self::Power(exponent) => (2, exponent.to_bits()),
            Self::Fixed(factor) => (3, factor.to_bits()),
        }
    }
}

impl PartialEq for ThresholdRule {
    fn eq(&self, other: &Self) -> bool {
        self.identity() == other.identity()
    }
}

impl Eq for ThresholdRule {}

impl Hash for ThresholdRule {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.identity().hash(state);
    }
}

/// A transform function: the identity over the configuration space plus a
/// threshold rule over the convergence space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TransformFunction {
    /// The threshold mapping `Conv_S => Conv_G`.
    pub rule: ThresholdRule,
}

impl TransformFunction {
    /// Creates a transform with an explicit rule.
    pub fn new(rule: ThresholdRule) -> Self {
        Self { rule }
    }

    /// The paper's default rule (section 3.2.2): scale the threshold by the
    /// inverse sampling ratio when convergence is an absolute aggregate tuned
    /// to the dataset size, keep it otherwise.
    pub fn default_for(kind: ConvergenceKind) -> Self {
        match kind {
            ConvergenceKind::AbsoluteAggregate => Self::new(ThresholdRule::InverseSamplingRatio),
            ConvergenceKind::RelativeRatio | ConvergenceKind::FixedPoint => {
                Self::new(ThresholdRule::Identity)
            }
        }
    }

    /// A transform that deliberately applies no scaling regardless of the
    /// convergence kind — the ablation of the paper's Figure 2 motivation.
    pub fn identity() -> Self {
        Self::new(ThresholdRule::Identity)
    }

    /// Threshold the sample run should use, given the actual run's threshold
    /// and the sampling ratio.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_ratio` is not in `(0, 1]`.
    pub fn sample_threshold(&self, full_threshold: f64, sampling_ratio: f64) -> f64 {
        assert!(
            sampling_ratio > 0.0 && sampling_ratio <= 1.0,
            "sampling ratio must be in (0, 1], got {sampling_ratio}"
        );
        match self.rule {
            ThresholdRule::Identity => full_threshold,
            ThresholdRule::InverseSamplingRatio => full_threshold / sampling_ratio,
            ThresholdRule::Power(exp) => full_threshold / sampling_ratio.powf(exp),
            ThresholdRule::Fixed(factor) => full_threshold * factor,
        }
    }

    /// Builds the sample-run workload: same configuration, transformed
    /// convergence threshold.
    pub fn apply(&self, workload: &dyn Workload, sampling_ratio: f64) -> Box<dyn Workload> {
        workload.with_threshold(self.sample_threshold(workload.threshold(), sampling_ratio))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_algorithms::{PageRankWorkload, SemiClusteringWorkload};

    #[test]
    fn default_rules_follow_the_paper() {
        assert_eq!(
            TransformFunction::default_for(ConvergenceKind::AbsoluteAggregate).rule,
            ThresholdRule::InverseSamplingRatio
        );
        assert_eq!(
            TransformFunction::default_for(ConvergenceKind::RelativeRatio).rule,
            ThresholdRule::Identity
        );
        assert_eq!(
            TransformFunction::default_for(ConvergenceKind::FixedPoint).rule,
            ThresholdRule::Identity
        );
    }

    #[test]
    fn inverse_ratio_scales_threshold() {
        let t = TransformFunction::new(ThresholdRule::InverseSamplingRatio);
        // The paper's Figure 2 example: a 50% sample doubles the threshold.
        assert!((t.sample_threshold(0.1, 0.5) - 0.2).abs() < 1e-12);
        assert!((t.sample_threshold(1e-6, 0.1) - 1e-5).abs() < 1e-18);
    }

    #[test]
    fn identity_and_fixed_and_power_rules() {
        assert_eq!(
            TransformFunction::identity().sample_threshold(0.01, 0.1),
            0.01
        );
        let fixed = TransformFunction::new(ThresholdRule::Fixed(3.0));
        assert!((fixed.sample_threshold(0.01, 0.1) - 0.03).abs() < 1e-12);
        let power = TransformFunction::new(ThresholdRule::Power(0.5));
        assert!((power.sample_threshold(0.01, 0.25) - 0.02).abs() < 1e-12);
    }

    #[test]
    fn apply_rebuilds_the_workload_with_scaled_threshold() {
        let pr = PageRankWorkload::with_epsilon(0.01, 10_000);
        let transform = TransformFunction::default_for(pr.convergence());
        let sample_pr = transform.apply(&pr, 0.1);
        assert!((sample_pr.threshold() - pr.threshold() * 10.0).abs() < 1e-15);

        let sc = SemiClusteringWorkload::default();
        let transform = TransformFunction::default_for(sc.convergence());
        let sample_sc = transform.apply(&sc, 0.1);
        assert_eq!(sample_sc.threshold(), sc.threshold());
    }

    #[test]
    #[should_panic(expected = "sampling ratio")]
    fn zero_ratio_panics() {
        let _ = TransformFunction::identity().sample_threshold(0.1, 0.0);
    }
}
