//! Key input features (Table 1 of the paper).
//!
//! PREDIcT profiles a small set of per-iteration features that are well
//! correlated with the processing requirements of network-intensive BSP
//! algorithms: active/total vertices, local/remote message counts and byte
//! counts, the average message size, and the number of iterations. The first
//! six are extrapolated from the sample run to the full dataset (by a
//! vertex-ratio or edge-ratio factor); the average message size and the number
//! of iterations are preserved as-is.

use predict_bsp::WorkerCounters;
use serde::{Deserialize, Serialize};

/// How a feature is extrapolated from the sample run to the actual run
/// (the "Extrapolation" column of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExtrapolationKind {
    /// Scaled by the vertex ratio `e_V = |V_G| / |V_S|`.
    Vertices,
    /// Scaled by the edge ratio `e_E = |E_G| / |E_S|`.
    Edges,
    /// Not extrapolated (already scale-free).
    None,
}

/// The per-iteration key input features of Table 1 (excluding `NumIter`,
/// which is a property of the whole run rather than of one iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KeyFeature {
    /// Number of vertices that executed the compute function (`ActVert`).
    ActiveVertices,
    /// Number of vertices assigned to the worker (`TotVert`).
    TotalVertices,
    /// Number of messages with same-worker destinations (`LocMsg`).
    LocalMessages,
    /// Number of messages crossing workers (`RemMsg`).
    RemoteMessages,
    /// Bytes of local messages (`LocMsgSize`).
    LocalMessageBytes,
    /// Bytes of remote messages (`RemMsgSize`).
    RemoteMessageBytes,
    /// Average size of a message in bytes (`AvgMsgSize`).
    AvgMessageSize,
}

impl KeyFeature {
    /// All features, in the order of Table 1.
    pub const ALL: [KeyFeature; 7] = [
        KeyFeature::ActiveVertices,
        KeyFeature::TotalVertices,
        KeyFeature::LocalMessages,
        KeyFeature::RemoteMessages,
        KeyFeature::LocalMessageBytes,
        KeyFeature::RemoteMessageBytes,
        KeyFeature::AvgMessageSize,
    ];

    /// The paper's short name for the feature.
    pub fn name(&self) -> &'static str {
        match self {
            KeyFeature::ActiveVertices => "ActVert",
            KeyFeature::TotalVertices => "TotVert",
            KeyFeature::LocalMessages => "LocMsg",
            KeyFeature::RemoteMessages => "RemMsg",
            KeyFeature::LocalMessageBytes => "LocMsgSize",
            KeyFeature::RemoteMessageBytes => "RemMsgSize",
            KeyFeature::AvgMessageSize => "AvgMsgSize",
        }
    }

    /// Index of the feature within [`KeyFeature::ALL`] and [`FeatureSet`].
    pub fn index(&self) -> usize {
        *self as usize
    }

    /// How the feature is extrapolated (Table 1's "Extrapolation" column).
    pub fn extrapolation(&self) -> ExtrapolationKind {
        match self {
            KeyFeature::ActiveVertices | KeyFeature::TotalVertices => ExtrapolationKind::Vertices,
            KeyFeature::LocalMessages
            | KeyFeature::RemoteMessages
            | KeyFeature::LocalMessageBytes
            | KeyFeature::RemoteMessageBytes => ExtrapolationKind::Edges,
            KeyFeature::AvgMessageSize => ExtrapolationKind::None,
        }
    }

    /// Reads the feature's value out of a worker's counters.
    pub fn extract(&self, counters: &WorkerCounters) -> f64 {
        match self {
            KeyFeature::ActiveVertices => counters.active_vertices as f64,
            KeyFeature::TotalVertices => counters.total_vertices as f64,
            KeyFeature::LocalMessages => counters.local_messages as f64,
            KeyFeature::RemoteMessages => counters.remote_messages as f64,
            KeyFeature::LocalMessageBytes => counters.local_message_bytes as f64,
            KeyFeature::RemoteMessageBytes => counters.remote_message_bytes as f64,
            KeyFeature::AvgMessageSize => counters.avg_message_size(),
        }
    }
}

/// A concrete value for every [`KeyFeature`], describing one iteration of one
/// worker (or of the whole graph, when extracted from summed counters).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FeatureSet {
    values: [f64; KeyFeature::ALL.len()],
}

impl FeatureSet {
    /// Extracts every feature from a worker's counters.
    pub fn from_counters(counters: &WorkerCounters) -> Self {
        let mut values = [0.0; KeyFeature::ALL.len()];
        for f in KeyFeature::ALL {
            values[f.index()] = f.extract(counters);
        }
        Self { values }
    }

    /// Value of one feature.
    pub fn get(&self, feature: KeyFeature) -> f64 {
        self.values[feature.index()]
    }

    /// Sets the value of one feature.
    pub fn set(&mut self, feature: KeyFeature, value: f64) {
        self.values[feature.index()] = value;
    }

    /// All values in [`KeyFeature::ALL`] order.
    pub fn as_slice(&self) -> &[f64; KeyFeature::ALL.len()] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> WorkerCounters {
        WorkerCounters {
            active_vertices: 10,
            total_vertices: 20,
            local_messages: 3,
            remote_messages: 7,
            local_message_bytes: 30,
            remote_message_bytes: 140,
        }
    }

    #[test]
    fn every_feature_has_a_distinct_index_and_name() {
        let mut names: Vec<_> = KeyFeature::ALL.iter().map(|f| f.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), KeyFeature::ALL.len());
        for (i, f) in KeyFeature::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
    }

    #[test]
    fn extraction_matches_counters() {
        let c = counters();
        assert_eq!(KeyFeature::ActiveVertices.extract(&c), 10.0);
        assert_eq!(KeyFeature::TotalVertices.extract(&c), 20.0);
        assert_eq!(KeyFeature::LocalMessages.extract(&c), 3.0);
        assert_eq!(KeyFeature::RemoteMessages.extract(&c), 7.0);
        assert_eq!(KeyFeature::LocalMessageBytes.extract(&c), 30.0);
        assert_eq!(KeyFeature::RemoteMessageBytes.extract(&c), 140.0);
        assert_eq!(KeyFeature::AvgMessageSize.extract(&c), 17.0);
    }

    #[test]
    fn extrapolation_kinds_match_table1() {
        assert_eq!(
            KeyFeature::ActiveVertices.extrapolation(),
            ExtrapolationKind::Vertices
        );
        assert_eq!(
            KeyFeature::TotalVertices.extrapolation(),
            ExtrapolationKind::Vertices
        );
        assert_eq!(
            KeyFeature::LocalMessages.extrapolation(),
            ExtrapolationKind::Edges
        );
        assert_eq!(
            KeyFeature::RemoteMessages.extrapolation(),
            ExtrapolationKind::Edges
        );
        assert_eq!(
            KeyFeature::LocalMessageBytes.extrapolation(),
            ExtrapolationKind::Edges
        );
        assert_eq!(
            KeyFeature::RemoteMessageBytes.extrapolation(),
            ExtrapolationKind::Edges
        );
        assert_eq!(
            KeyFeature::AvgMessageSize.extrapolation(),
            ExtrapolationKind::None
        );
    }

    #[test]
    fn feature_set_roundtrips_through_get_set_select() {
        let mut fs = FeatureSet::from_counters(&counters());
        assert_eq!(fs.get(KeyFeature::RemoteMessages), 7.0);
        fs.set(KeyFeature::RemoteMessages, 70.0);
        assert_eq!(fs.get(KeyFeature::RemoteMessages), 70.0);
        // The regression reads a feature by its index into `as_slice`.
        let selected: Vec<f64> = [KeyFeature::AvgMessageSize, KeyFeature::ActiveVertices]
            .iter()
            .map(|f| fs.as_slice()[f.index()])
            .collect();
        assert_eq!(selected, vec![17.0, 10.0]);
    }
}
