//! Kolmogorov–Smirnov D-statistic comparison between a sample graph and the
//! graph it was drawn from.
//!
//! Leskovec & Faloutsos ("Sampling from Large Graphs", KDD 2006 — reference
//! \[23\] of the paper) evaluate sampling techniques by the D-statistic between
//! the property distributions of the sample and the full graph: the smaller
//! the statistic, the better the sample preserves the property. The paper
//! selects Random Jump (and derives Biased Random Jump) based on those scores.
//! This module reproduces that evaluation apparatus so sampler quality can be
//! quantified in tests and in the Figure 9 sensitivity experiment.

use crate::csr::CsrGraph;
use crate::properties::{in_degree_histogram, out_degree_histogram};

/// D-statistic scores comparing a sample graph against its parent graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DStatReport {
    /// D-statistic over the out-degree distributions.
    pub out_degree: f64,
    /// D-statistic over the in-degree distributions.
    pub in_degree: f64,
    /// Ratio of the sample's average degree to the parent's average degree
    /// (1.0 means density is preserved exactly).
    pub density_ratio: f64,
}

impl DStatReport {
    /// Compares `sample` against `full` on degree distributions and density.
    pub fn compare(full: &CsrGraph, sample: &CsrGraph) -> Self {
        let out_degree = ks_statistic_from_histograms(
            &out_degree_histogram(full),
            &out_degree_histogram(sample),
        );
        let in_degree =
            ks_statistic_from_histograms(&in_degree_histogram(full), &in_degree_histogram(sample));
        let density_ratio = if full.avg_degree() == 0.0 {
            1.0
        } else {
            sample.avg_degree() / full.avg_degree()
        };
        Self {
            out_degree,
            in_degree,
            density_ratio,
        }
    }

    /// Mean of the two degree D-statistics — the single-number score used to
    /// rank sampling techniques.
    pub fn mean_degree_dstat(&self) -> f64 {
        (self.out_degree + self.in_degree) / 2.0
    }
}

/// Kolmogorov–Smirnov statistic between two empirical distributions given as
/// value histograms (`hist[v]` = number of observations equal to `v`).
///
/// Returns a value in `[0, 1]`; 0 means identical distributions. Empty
/// histograms compare as distance 1 against non-empty ones and 0 against each
/// other.
pub fn ks_statistic_from_histograms(a: &[usize], b: &[usize]) -> f64 {
    let total_a: usize = a.iter().sum();
    let total_b: usize = b.iter().sum();
    match (total_a, total_b) {
        (0, 0) => return 0.0,
        (0, _) | (_, 0) => return 1.0,
        _ => {}
    }
    let len = a.len().max(b.len());
    let mut cdf_a = 0.0f64;
    let mut cdf_b = 0.0f64;
    let mut d: f64 = 0.0;
    for i in 0..len {
        cdf_a += *a.get(i).unwrap_or(&0) as f64 / total_a as f64;
        cdf_b += *b.get(i).unwrap_or(&0) as f64 / total_b as f64;
        d = d.max((cdf_a - cdf_b).abs());
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{generate_erdos_renyi, generate_rmat, ErdosRenyiConfig, RmatConfig};

    #[test]
    fn identical_histograms_have_zero_distance() {
        let h = vec![0, 5, 3, 2];
        assert_eq!(ks_statistic_from_histograms(&h, &h), 0.0);
    }

    #[test]
    fn disjoint_histograms_have_distance_one() {
        let a = vec![10, 0, 0];
        let b = vec![0, 0, 10];
        assert!((ks_statistic_from_histograms(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histograms() {
        assert_eq!(ks_statistic_from_histograms(&[], &[]), 0.0);
        assert_eq!(ks_statistic_from_histograms(&[1, 2], &[]), 1.0);
    }

    #[test]
    fn histogram_distance_is_symmetric() {
        let a = vec![1, 4, 2, 0, 1];
        let b = vec![0, 2, 2, 3];
        let d1 = ks_statistic_from_histograms(&a, &b);
        let d2 = ks_statistic_from_histograms(&b, &a);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn similar_graphs_have_smaller_dstat_than_dissimilar_ones() {
        let full = generate_rmat(&RmatConfig::new(11, 8).with_seed(1));
        // A smaller R-MAT with the same skew is "similar"; an ER graph is not.
        let similar = generate_rmat(&RmatConfig::new(9, 8).with_seed(2));
        let dissimilar = generate_erdos_renyi(&ErdosRenyiConfig::new(512, 4096).with_seed(2));
        let d_sim = DStatReport::compare(&full, &similar).mean_degree_dstat();
        let d_dis = DStatReport::compare(&full, &dissimilar).mean_degree_dstat();
        assert!(
            d_sim < d_dis,
            "similar graph D-stat {d_sim} should be below dissimilar {d_dis}"
        );
    }

    #[test]
    fn density_ratio_reflects_relative_density() {
        let full = generate_rmat(&RmatConfig::new(10, 8).with_seed(3));
        let sparse = generate_rmat(&RmatConfig::new(10, 2).with_seed(3));
        let report = DStatReport::compare(&full, &sparse);
        assert!(report.density_ratio < 0.6);
    }
}
