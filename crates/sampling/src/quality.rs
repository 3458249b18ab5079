//! Sample quality evaluation.
//!
//! Section 3.2.1 of the paper lists the graph properties a sample must
//! preserve for the PREDIcT methodology to work: connectivity, in/out degree
//! proportionality and effective diameter. [`SampleQualityReport`] measures
//! how well a sample preserves each of them relative to the full graph, and
//! produces a single score that can be used to rank sampling techniques (as
//! the paper ranks BRJ / RJ / MHRW in Figure 9 and Leskovec & Faloutsos rank
//! techniques by D-statistic).

use crate::traits::GraphSample;
use predict_graph::dstat::DStatReport;
use predict_graph::properties::GraphProperties;
use predict_graph::CsrGraph;

/// How well a sample graph preserves the properties the paper's methodology
/// relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleQualityReport {
    /// Name of the sampling technique that produced the sample.
    pub technique: &'static str,
    /// Sampling ratio that was achieved.
    pub ratio: f64,
    /// Kolmogorov–Smirnov D-statistics between degree distributions.
    pub dstat: DStatReport,
    /// `sample effective diameter / full effective diameter` (1.0 = preserved).
    pub effective_diameter_ratio: f64,
    /// `sample clustering coefficient / full clustering coefficient`
    /// (1.0 = preserved; may exceed 1).
    pub clustering_ratio: f64,
    /// Fraction of the sample's vertices inside its largest weakly connected
    /// component (connectivity requirement).
    pub largest_wcc_fraction: f64,
    /// `sample largest-WCC fraction / full largest-WCC fraction`: 1.0 means
    /// the sample is exactly as connected as the full graph (which may itself
    /// contain isolated vertices).
    pub connectivity_ratio: f64,
    /// `sample in/out degree ratio / full in/out degree ratio`.
    pub in_out_degree_ratio_ratio: f64,
    /// Ratio of the sample's average degree to the full graph's (how much
    /// density was lost by induced-subgraph extraction).
    pub density_ratio: f64,
}

impl SampleQualityReport {
    /// Evaluates `sample` against the full graph it was drawn from.
    ///
    /// `seed` controls the deterministic property estimators.
    pub fn evaluate(full: &CsrGraph, sample: &GraphSample, seed: u64) -> Self {
        let full_props = GraphProperties::analyze(full, seed);
        let sample_props = GraphProperties::analyze(&sample.graph, seed);
        Self::from_properties(
            sample.technique,
            sample.achieved_ratio,
            full,
            sample,
            &full_props,
            &sample_props,
        )
    }

    /// Evaluates a sample when the full graph's properties have already been
    /// computed (avoids re-analyzing the full graph for every sample in a
    /// sweep).
    pub fn evaluate_with_full_properties(
        full: &CsrGraph,
        full_props: &GraphProperties,
        sample: &GraphSample,
        seed: u64,
    ) -> Self {
        let sample_props = GraphProperties::analyze(&sample.graph, seed);
        Self::from_properties(
            sample.technique,
            sample.achieved_ratio,
            full,
            sample,
            full_props,
            &sample_props,
        )
    }

    fn from_properties(
        technique: &'static str,
        ratio: f64,
        full: &CsrGraph,
        sample: &GraphSample,
        full_props: &GraphProperties,
        sample_props: &GraphProperties,
    ) -> Self {
        let safe_ratio = |num: f64, den: f64| if den == 0.0 { 1.0 } else { num / den };
        Self {
            technique,
            ratio,
            dstat: DStatReport::compare(full, &sample.graph),
            effective_diameter_ratio: safe_ratio(
                sample_props.effective_diameter,
                full_props.effective_diameter,
            ),
            clustering_ratio: safe_ratio(
                sample_props.avg_clustering_coefficient,
                full_props.avg_clustering_coefficient,
            ),
            largest_wcc_fraction: sample_props.largest_wcc_fraction,
            connectivity_ratio: safe_ratio(
                sample_props.largest_wcc_fraction,
                full_props.largest_wcc_fraction,
            ),
            in_out_degree_ratio_ratio: safe_ratio(
                sample_props.in_out_degree_ratio,
                full_props.in_out_degree_ratio,
            ),
            density_ratio: safe_ratio(sample_props.avg_out_degree, full_props.avg_out_degree),
        }
    }

    /// Single-number quality score in `[0, +inf)`, lower is better. Combines
    /// the degree D-statistic, how far the effective diameter drifted, and how
    /// much connectivity was lost relative to the full graph.
    pub fn score(&self) -> f64 {
        let diameter_drift = (self.effective_diameter_ratio - 1.0).abs();
        let fragmentation = (1.0 - self.connectivity_ratio).max(0.0);
        self.dstat.mean_degree_dstat() + diameter_drift + fragmentation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::biased_random_jump::BiasedRandomJump;
    use crate::random_node::RandomNode;
    use crate::traits::Sampler;
    use predict_graph::generators::{generate_rmat, RmatConfig};

    #[test]
    fn full_sample_has_perfect_quality() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let sample = BiasedRandomJump::default().sample(&g, 1.0, 1);
        let report = SampleQualityReport::evaluate(&g, &sample, 1);
        assert!(report.dstat.mean_degree_dstat() < 1e-9);
        assert!((report.density_ratio - 1.0).abs() < 1e-9);
        assert!((report.effective_diameter_ratio - 1.0).abs() < 1e-9);
        assert!(report.score() < 0.2);
    }

    #[test]
    fn brj_scores_better_than_random_node() {
        let g = generate_rmat(&RmatConfig::new(11, 8).with_seed(7));
        let brj =
            SampleQualityReport::evaluate(&g, &BiasedRandomJump::default().sample(&g, 0.1, 5), 5);
        let rn = SampleQualityReport::evaluate(&g, &RandomNode.sample(&g, 0.1, 5), 5);
        assert!(
            brj.score() < rn.score(),
            "BRJ score {} should beat RandomNode score {}",
            brj.score(),
            rn.score()
        );
    }

    #[test]
    fn evaluate_with_precomputed_properties_matches_direct_evaluation() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let sample = BiasedRandomJump::default().sample(&g, 0.2, 9);
        let direct = SampleQualityReport::evaluate(&g, &sample, 9);
        let props = GraphProperties::analyze(&g, 9);
        let cached = SampleQualityReport::evaluate_with_full_properties(&g, &props, &sample, 9);
        assert_eq!(direct, cached);
    }
}
