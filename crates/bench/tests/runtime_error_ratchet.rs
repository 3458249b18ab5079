//! Truth ratchet over the five runtime goldens.
//!
//! `scenario_runner` holds every golden byte-equal to live output, which
//! pins stability but not quality: a re-bless that makes predictions worse
//! passes it. This test reads the `points` of the runtime goldens and bounds
//! the largest |`runtime_error`| over the sampling ratios of every golden ×
//! variant (training, extrapolation rule, worker model or sampler) × dataset,
//! one class at a time — never as a pooled median, which hides the misses.
//!
//! Each bound is the measured value of the per-worker non-negative cost
//! model rounded up to the next 0.05. The paper reports 10–30 % runtime
//! error; where a class is outside that band the bound records where the
//! reproduction stands (mostly iteration misses at `PREDICT_SCALE=small`,
//! see the goldens' `predicted_iterations`), and a change that improves a
//! class tightens its bound here.

use serde_json::Value;
use std::path::Path;

/// `(variant, dataset, max |runtime_error| over ratios)`.
type Bounds = &'static [(&'static str, &'static str, f64)];

// paper: 10–30 %
const FIG7_SEMICLUSTERING_RUNTIME: Bounds = &[
    ("sample_only", "LJ", 3.65),
    ("sample_only", "Wiki", 0.40),
    ("sample_only", "UK", 0.85),
    ("with_history", "LJ", 3.60),
    ("with_history", "Wiki", 0.40),
    ("with_history", "UK", 0.85),
];

// paper: 10–30 %
const FIG8_TOPK_RUNTIME: Bounds = &[
    ("sample_only", "LJ", 1.35),
    ("sample_only", "Wiki", 0.30),
    ("sample_only", "UK", 0.20),
    ("with_history", "LJ", 1.35),
    ("with_history", "Wiki", 0.30),
    ("with_history", "UK", 0.20),
];

// paper: 10–30 %
const FIG9_NEW_GENERATORS: Bounds = &[
    ("PR/BRJ", "ROAD", 0.75),
    ("PR/BRJ", "BIP", 0.10),
    ("PR/BRJ", "DCSBM", 0.85),
    ("PR/RJ", "ROAD", 1.75),
    ("PR/RJ", "BIP", 0.10),
    ("PR/RJ", "DCSBM", 0.50),
    ("PR/MHRW", "ROAD", 1.50),
    ("PR/MHRW", "BIP", 0.15),
    ("PR/MHRW", "DCSBM", 0.95),
];

// paper: 10–30 %
const ABLATION_CRITICAL_PATH: Bounds = &[
    ("critical path (paper)", "Wiki", 0.40),
    ("critical path (paper)", "UK", 0.75),
    ("mean worker", "Wiki", 0.50),
    ("mean worker", "UK", 0.75),
];

// paper: 10–30 %
const ABLATION_EXTRAPOLATION: Bounds = &[
    ("per-feature (paper)", "Wiki", 0.15),
    ("per-feature (paper)", "UK", 0.20),
    ("vertices-only", "Wiki", 1.00),
    ("vertices-only", "UK", 1.15),
    ("edges-only", "Wiki", 0.15),
    ("edges-only", "UK", 0.20),
];

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Map(map) = value else {
        panic!("expected an object holding `{key}`, got {value:?}");
    };
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("object has no `{key}`"))
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn number(value: &Value) -> f64 {
    match value {
        Value::Float(v) => *v,
        Value::Int(v) => *v as f64,
        Value::UInt(v) => *v as f64,
        other => panic!("expected a number, got {other:?}"),
    }
}

fn seq(value: &Value) -> &[Value] {
    match value {
        Value::Seq(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// The `(variant, dataset, max |runtime_error|)` of every class of a
/// golden's `points`: either a map from variant to points, or a list of
/// groups whose string fields name the variant (joined by `/`).
fn measured_classes(golden: &Value) -> Vec<(String, String, f64)> {
    let groups: Vec<(String, &[Value])> = match field(golden, "points") {
        Value::Map(variants) => variants
            .iter()
            .map(|(variant, points)| (variant.clone(), seq(points)))
            .collect(),
        Value::Seq(groups) => groups
            .iter()
            .map(|group| {
                let Value::Map(fields) = group else {
                    panic!("a point group must be an object");
                };
                let label: Vec<&str> = fields
                    .iter()
                    .filter(|(key, value)| key != "points" && matches!(value, Value::Str(_)))
                    .map(|(_, value)| text(value))
                    .collect();
                (label.join("/"), seq(field(group, "points")))
            })
            .collect(),
        other => panic!("`points` must be an object or an array, got {other:?}"),
    };
    let mut classes: Vec<(String, String, f64)> = Vec::new();
    for (variant, points) in groups {
        for point in points {
            let dataset = text(field(point, "dataset"));
            let error = number(field(point, "runtime_error")).abs();
            match classes
                .iter_mut()
                .find(|(v, d, _)| *v == variant && d == dataset)
            {
                Some(class) => class.2 = class.2.max(error),
                None => classes.push((variant.clone(), dataset.to_string(), error)),
            }
        }
    }
    classes
}

fn check(name: &str, bounds: Bounds) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.json"));
    let json = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Value = serde_json::from_str(&json).expect("golden parses");
    let measured = measured_classes(&golden);
    let mut failures = Vec::new();
    for (variant, dataset, error) in &measured {
        match bounds.iter().find(|(v, d, _)| v == variant && d == dataset) {
            Some(&(_, _, bound)) if *error <= bound => {}
            Some(&(_, _, bound)) => failures.push(format!(
                "{variant} × {dataset}: max |runtime error| {error:.4} exceeds {bound:.2}"
            )),
            None => failures.push(format!("{variant} × {dataset} has no bound")),
        }
    }
    for (variant, dataset, _) in bounds {
        if !measured
            .iter()
            .any(|(v, d, _)| v == variant && d == dataset)
        {
            failures.push(format!(
                "{variant} × {dataset} is bounded but not in the golden"
            ));
        }
    }
    assert!(failures.is_empty(), "{name}:\n  {}", failures.join("\n  "));
}

#[test]
fn fig7_semiclustering_runtime_stays_within_its_bounds() {
    check("fig7_semiclustering_runtime", FIG7_SEMICLUSTERING_RUNTIME);
}

#[test]
fn fig8_topk_runtime_stays_within_its_bounds() {
    check("fig8_topk_runtime", FIG8_TOPK_RUNTIME);
}

#[test]
fn fig9_new_generators_stays_within_its_bounds() {
    check("fig9_new_generators", FIG9_NEW_GENERATORS);
}

#[test]
fn ablation_critical_path_stays_within_its_bounds() {
    check("ablation_critical_path", ABLATION_CRITICAL_PATH);
}

#[test]
fn ablation_extrapolation_stays_within_its_bounds() {
    check("ablation_extrapolation", ABLATION_EXTRAPOLATION);
}
