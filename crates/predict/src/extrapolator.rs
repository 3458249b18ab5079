//! Feature extrapolation (section 3.4 of the paper).
//!
//! Key input features profiled during the sample run are scaled up to the
//! complete dataset using two factors: the vertex ratio
//! `e_V = |V_G| / |V_S|` for features that depend primarily on the number of
//! vertices (active/total vertices) and the edge ratio `e_E = |E_G| / |E_S|`
//! for features that depend on the number of edges (message counts and byte
//! counts). The average message size and the number of iterations are not
//! extrapolated. Extrapolation is performed at the granularity of iterations:
//! iteration `i` of the sample run predicts iteration `i` of the actual run.

use crate::features::{ExtrapolationKind, FeatureSet, KeyFeature};
use predict_graph::CsrGraph;
use serde::{Deserialize, Serialize};

/// The two scaling factors of the paper's extrapolator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Extrapolator {
    /// Vertex scaling factor `e_V = |V_G| / |V_S|`.
    pub vertex_factor: f64,
    /// Edge scaling factor `e_E = |E_G| / |E_S|`.
    pub edge_factor: f64,
}

/// Ablation variants of the extrapolation rule: the paper's per-feature
/// choice versus scaling everything by one factor (compared by the
/// `ablation_extrapolation` experiment binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExtrapolationRule {
    /// Table 1's per-feature rule: vertices by `e_V`, messages by `e_E`
    /// (the paper's design).
    PerFeature,
    /// Scale every extrapolated feature by the vertex factor only.
    VerticesOnly,
    /// Scale every extrapolated feature by the edge factor only.
    EdgesOnly,
}

impl Extrapolator {
    /// Creates an extrapolator from explicit factors.
    ///
    /// # Panics
    ///
    /// Panics if either factor is not strictly positive.
    pub fn new(vertex_factor: f64, edge_factor: f64) -> Self {
        assert!(
            vertex_factor > 0.0 && edge_factor > 0.0,
            "extrapolation factors must be positive: e_V={vertex_factor}, e_E={edge_factor}"
        );
        Self {
            vertex_factor,
            edge_factor,
        }
    }

    /// Computes the factors from the full graph and the sample graph.
    ///
    /// # Panics
    ///
    /// Panics if the sample graph is empty.
    pub fn from_graphs(full: &CsrGraph, sample: &CsrGraph) -> Self {
        assert!(
            sample.num_vertices() > 0 && sample.num_edges() > 0,
            "sample graph must have vertices and edges"
        );
        Self::new(
            full.num_vertices() as f64 / sample.num_vertices() as f64,
            full.num_edges() as f64 / sample.num_edges() as f64,
        )
    }

    /// Computes the factors from raw counts.
    pub fn from_counts(
        full_vertices: usize,
        full_edges: usize,
        sample_vertices: usize,
        sample_edges: usize,
    ) -> Self {
        assert!(
            sample_vertices > 0 && sample_edges > 0,
            "sample counts must be positive"
        );
        Self::new(
            full_vertices as f64 / sample_vertices as f64,
            full_edges as f64 / sample_edges as f64,
        )
    }

    /// Scaling factor applied to one feature under the given rule.
    pub fn factor_for(&self, feature: KeyFeature, rule: ExtrapolationRule) -> f64 {
        match feature.extrapolation() {
            ExtrapolationKind::None => 1.0,
            ExtrapolationKind::Vertices | ExtrapolationKind::Edges => match rule {
                ExtrapolationRule::PerFeature => match feature.extrapolation() {
                    ExtrapolationKind::Vertices => self.vertex_factor,
                    ExtrapolationKind::Edges => self.edge_factor,
                    ExtrapolationKind::None => 1.0,
                },
                ExtrapolationRule::VerticesOnly => self.vertex_factor,
                ExtrapolationRule::EdgesOnly => self.edge_factor,
            },
        }
    }

    /// Extrapolates one iteration's features with the paper's per-feature
    /// rule.
    pub fn extrapolate(&self, features: &FeatureSet) -> FeatureSet {
        self.extrapolate_with_rule(features, ExtrapolationRule::PerFeature)
    }

    /// Extrapolates one iteration's features with an explicit rule (used by
    /// the ablation benchmark).
    pub fn extrapolate_with_rule(
        &self,
        features: &FeatureSet,
        rule: ExtrapolationRule,
    ) -> FeatureSet {
        let mut out = *features;
        for f in KeyFeature::ALL {
            out.set(f, features.get(f) * self.factor_for(f, rule));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use predict_bsp::WorkerCounters;
    use predict_graph::generators::{generate_rmat, RmatConfig};
    use predict_graph::induced_subgraph;

    fn features() -> FeatureSet {
        FeatureSet::from_counters(&WorkerCounters {
            active_vertices: 100,
            total_vertices: 200,
            local_messages: 50,
            remote_messages: 150,
            local_message_bytes: 400,
            remote_message_bytes: 1200,
        })
    }

    #[test]
    fn per_feature_rule_scales_vertices_and_edges_differently() {
        let e = Extrapolator::new(10.0, 20.0);
        let out = e.extrapolate(&features());
        assert_eq!(out.get(KeyFeature::ActiveVertices), 1_000.0);
        assert_eq!(out.get(KeyFeature::TotalVertices), 2_000.0);
        assert_eq!(out.get(KeyFeature::LocalMessages), 1_000.0);
        assert_eq!(out.get(KeyFeature::RemoteMessages), 3_000.0);
        assert_eq!(out.get(KeyFeature::LocalMessageBytes), 8_000.0);
        assert_eq!(out.get(KeyFeature::RemoteMessageBytes), 24_000.0);
        // AvgMsgSize is not extrapolated.
        assert_eq!(
            out.get(KeyFeature::AvgMessageSize),
            features().get(KeyFeature::AvgMessageSize)
        );
    }

    #[test]
    fn ablation_rules_use_a_single_factor() {
        let e = Extrapolator::new(10.0, 20.0);
        let v_only = e.extrapolate_with_rule(&features(), ExtrapolationRule::VerticesOnly);
        assert_eq!(v_only.get(KeyFeature::RemoteMessages), 1_500.0);
        let e_only = e.extrapolate_with_rule(&features(), ExtrapolationRule::EdgesOnly);
        assert_eq!(e_only.get(KeyFeature::ActiveVertices), 2_000.0);
        // AvgMsgSize still untouched under both rules.
        assert_eq!(
            v_only.get(KeyFeature::AvgMessageSize),
            features().get(KeyFeature::AvgMessageSize)
        );
        assert_eq!(
            e_only.get(KeyFeature::AvgMessageSize),
            features().get(KeyFeature::AvgMessageSize)
        );
    }

    #[test]
    fn identity_factors_leave_features_unchanged() {
        let e = Extrapolator::new(1.0, 1.0);
        assert_eq!(e.extrapolate(&features()), features());
    }

    #[test]
    fn factors_from_graphs_match_counts() {
        let g = generate_rmat(&RmatConfig::new(9, 6).with_seed(3));
        let selected: Vec<_> = g.vertices().filter(|v| v % 4 == 0).collect();
        let (sample, _) = induced_subgraph(&g, &selected);
        let e = Extrapolator::from_graphs(&g, &sample);
        assert!(
            (e.vertex_factor - g.num_vertices() as f64 / sample.num_vertices() as f64).abs()
                < 1e-12
        );
        assert!((e.edge_factor - g.num_edges() as f64 / sample.num_edges() as f64).abs() < 1e-12);
        assert!((e.vertex_factor - 4.0).abs() < 0.01);
    }

    #[test]
    fn extrapolation_is_exact_for_a_perfectly_proportional_sample() {
        // If the sample's per-iteration features are exactly 1/k of the full
        // run's, extrapolation by k recovers the full run's features. This is
        // the idealized invariant behind the paper's section 4.1 example.
        let full = features();
        let k = 8.0;
        let mut sample = FeatureSet::default();
        for f in KeyFeature::ALL {
            let scaled = match f.extrapolation() {
                ExtrapolationKind::None => full.get(f),
                _ => full.get(f) / k,
            };
            sample.set(f, scaled);
        }
        let e = Extrapolator::new(k, k);
        let recovered = e.extrapolate(&sample);
        for f in KeyFeature::ALL {
            assert!((recovered.get(f) - full.get(f)).abs() < 1e-9, "{:?}", f);
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_factor_panics() {
        let _ = Extrapolator::new(0.0, 1.0);
    }
}
