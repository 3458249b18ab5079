//! `BENCHMARK.json` as the harness sees it: the single list of workload
//! and metric names, units and regression bounds. The file is compiled in,
//! so the names the harness emits and the names the contract declares
//! cannot drift apart unnoticed (and the unit tests check both ways).

// The structs mirror the whole file; the fields no run reads are checked by
// the unit tests below.
#![cfg_attr(not(test), allow(dead_code))]

use serde::Deserialize;
use std::sync::OnceLock;

#[derive(Debug, Deserialize)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Deserialize)]
pub struct EndToEndSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the reference median by which the metric may worsen.
    pub bound: f64,
}

#[derive(Debug, Deserialize)]
pub struct LayerSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
}

#[derive(Debug, Deserialize)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<EndToEndSpec>,
    pub per_layer: Vec<LayerSpec>,
}

pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json matches the shape in spec.rs")
    })
}

impl Spec {
    pub fn end_to_end_unit(&self, name: &str) -> Option<&str> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }

    pub fn per_layer_unit(&self, name: &str) -> Option<&str> {
        self.per_layer
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.unit.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let spec = spec();
        let mut names: Vec<&str> = spec
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(spec.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn the_file_meets_the_contract_limits() {
        let spec = spec();
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1..=60).contains(&spec.run_seconds));
        assert!(spec
            .workloads
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let directions = spec
            .end_to_end
            .iter()
            .map(|m| m.better.as_str())
            .chain(spec.per_layer.iter().map(|m| m.better.as_str()));
        assert!(directions
            .into_iter()
            .all(|b| b == "lower" || b == "higher"));
        assert_eq!(spec.paths, ["benchmark"]);
        assert!(spec
            .command
            .iter()
            .all(|c| !c.starts_with('/') && !c.contains("..")));
    }

    #[test]
    fn workload_names_match_the_definitions() {
        let declared: Vec<&str> = spec().workloads.iter().map(|w| w.name.as_str()).collect();
        let defined: Vec<&str> = crate::workloads::all().iter().map(|w| w.name).collect();
        assert_eq!(declared, defined);
    }
}
