//! Run profiles through the artifact store: a profile's supersteps are
//! stored as columns and read back bit for bit, the tree section a profile
//! costs does not grow with supersteps × workers (only with aggregates), and
//! a profile stored in the boxed per-superstep, per-worker form still reads.

use predict_bsp::{Aggregates, RunProfile, SuperstepProfile, WorkerCounters};
use predict_store::{encode_value, ArtifactKind, ArtifactStore};
use serde::{Serialize, Value};
use std::path::PathBuf;

/// A fresh store directory, removed on drop.
struct TempStore {
    dir: PathBuf,
    store: ArtifactStore,
}

impl TempStore {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "predict_store_profile_{name}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).expect("opening the store");
        Self { dir, store }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// `steps` supersteps × `workers` workers of distinct counters and times
/// (a negative zero and a subnormal among them); aggregates only when
/// `with_aggregates`.
fn profile(steps: usize, workers: usize, with_aggregates: bool) -> RunProfile {
    let supersteps = (0..steps)
        .map(|s| {
            let mut aggregates = Aggregates::new();
            if with_aggregates {
                aggregates.add("delta", 1.0 / (s + 1) as f64);
            }
            SuperstepProfile {
                superstep: s,
                workers: (0..workers)
                    .map(|w| {
                        let x = (s * 1000 + w) as u64;
                        WorkerCounters {
                            active_vertices: x,
                            total_vertices: 1 << 40,
                            local_messages: x * x,
                            remote_messages: u64::MAX - x,
                            local_message_bytes: x * 8,
                            remote_message_bytes: (x * 8) << 30,
                        }
                    })
                    .collect(),
                worker_times_ms: (0..workers)
                    .map(|w| match w % 3 {
                        0 => -0.0,
                        1 => f64::MIN_POSITIVE / 7.0,
                        _ => (s + w) as f64 / 3.0,
                    })
                    .collect(),
                wall_time_ms: s as f64 * 0.1,
                aggregates,
            }
        })
        .collect();
    RunProfile {
        algorithm: "pagerank".into(),
        num_vertices: 4096,
        num_edges: 65536,
        num_workers: workers,
        setup_ms: 12.5,
        read_ms: 3.25,
        write_ms: 0.5,
        supersteps,
        measured: None,
    }
}

/// Every float of `p` as its bit pattern (`-0.0 == 0.0`, but not here).
fn float_bits(p: &RunProfile) -> Vec<u64> {
    let mut bits = vec![
        p.setup_ms.to_bits(),
        p.read_ms.to_bits(),
        p.write_ms.to_bits(),
    ];
    for s in &p.supersteps {
        bits.push(s.wall_time_ms.to_bits());
        bits.extend(s.worker_times_ms.iter().map(|t| t.to_bits()));
        bits.extend(s.aggregates.iter().map(|(_, v)| v.to_bits()));
    }
    bits
}

#[test]
fn a_stored_profile_reads_back_bit_for_bit() {
    let temp = TempStore::new("roundtrip");
    for (steps, workers) in [(0, 4), (1, 1), (15, 8), (30, 16)] {
        let p = profile(steps, workers, true);
        let key = format!("{steps}x{workers}");
        temp.store
            .put(ArtifactKind::SampleRun, &key, 7, &p)
            .expect("put");
        let back: RunProfile = temp
            .store
            .get_typed(ArtifactKind::SampleRun, &key, 7)
            .expect("a stored profile reads back");
        assert_eq!(back, p, "{key}");
        assert_eq!(float_bits(&back), float_bits(&p), "{key}");
    }
}

#[test]
fn the_tree_section_grows_with_aggregates_only() {
    let tree_len = |steps, workers, with_aggregates| {
        encode_value(&profile(steps, workers, with_aggregates).serialize_value())
            .tree
            .len()
    };
    // A superstep without workers adds only its (empty) aggregate map.
    let per_step = tree_len(2, 0, false) - tree_len(1, 0, false);
    let base = tree_len(1, 1, false) - per_step;
    for (steps, workers) in [(15, 8), (30, 16), (2, 200)] {
        assert_eq!(
            tree_len(steps, workers, false),
            base + steps * per_step,
            "{steps}x{workers}"
        );
    }
    // An aggregate costs its own bytes, the same on every superstep.
    let aggregate = tree_len(1, 1, true) - tree_len(1, 1, false);
    assert_eq!(tree_len(15, 8, true), base + 15 * (per_step + aggregate));
}

/// The value a store written before the column layout holds for `p`: a boxed sequence of
/// superstep maps, each with a boxed sequence of worker maps (numeric
/// vectors were packed columns already).
fn boxed_form(p: &RunProfile) -> Value {
    let step = |s: &SuperstepProfile| {
        Value::Map(vec![
            ("superstep".into(), Value::UInt(s.superstep as u64)),
            (
                "workers".into(),
                Value::Seq(s.workers.iter().map(Serialize::serialize_value).collect()),
            ),
            (
                "worker_times_ms".into(),
                s.worker_times_ms.serialize_value(),
            ),
            ("wall_time_ms".into(), Value::Float(s.wall_time_ms)),
            ("aggregates".into(), s.aggregates.serialize_value()),
        ])
    };
    let Value::Map(mut entries) = p.serialize_value() else {
        panic!("a profile serializes to a map");
    };
    let supersteps = entries.iter_mut().find(|(k, _)| k == "supersteps").unwrap();
    supersteps.1 = Value::Seq(p.supersteps.iter().map(step).collect());
    Value::Map(entries)
}

#[test]
fn a_profile_stored_in_the_boxed_form_still_reads() {
    let temp = TempStore::new("boxed");
    let p = profile(15, 8, true);
    temp.store
        .put(ArtifactKind::SampleRun, "boxed", 3, &boxed_form(&p))
        .expect("put");
    let back: RunProfile = temp
        .store
        .get_typed(ArtifactKind::SampleRun, "boxed", 3)
        .expect("a boxed-form profile reads back");
    assert_eq!(back, p);
    assert_eq!(float_bits(&back), float_bits(&p));
}
