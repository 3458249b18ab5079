//! Run profiles: the measurements PREDIcT consumes.
//!
//! A [`RunProfile`] records everything a sample run or an actual run exposes
//! to the predictor: the phase breakdown the paper describes in section 2.2
//! (setup / read / superstep / write) and, for every superstep, the per-worker
//! Table 1 counters together with the per-worker and wall-clock times of the
//! simulated cluster. The prediction crate trains its cost model directly on
//! these profiles.
//!
//! # Serialized form
//!
//! A run's supersteps serialize as one map of columns, not one map per
//! superstep holding one map per worker:
//!
//! ```text
//! superstep        u64 column, one element per superstep
//! wall_time_ms     f64 column, one element per superstep
//! worker_count     u64 column, one element per superstep
//! workers          six u64 counter columns (see `counters`), one element
//!                  per worker of every superstep, superstep after superstep
//! worker_times_ms  f64 column, aligned with `workers`
//! aggregates       one aggregate map per superstep
//! ```
//!
//! The artifact store therefore decodes a profile in a number of nodes that
//! grows with the supersteps' aggregates only, and each column deserializes
//! with one copy. The boxed sequence of per-superstep maps — what JSON
//! written before this layout and older stores hold — still deserializes to
//! the same value. A slice whose supersteps carry a different number of
//! worker times than workers has no column layout and keeps the boxed form.

use crate::aggregator::Aggregates;
use crate::counters::{sum_counters, WorkerCounters};
use serde::{boxed_seq, get_field, Deserialize, Error, Serialize, Value};

/// Counters and timings of a single superstep.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstepProfile {
    /// Superstep number (0-based).
    pub superstep: usize,
    /// Per-worker Table 1 counters.
    pub workers: Vec<WorkerCounters>,
    /// Simulated per-worker processing times in milliseconds (aligned with
    /// `workers`).
    pub worker_times_ms: Vec<f64>,
    /// Simulated wall time of the superstep (overhead + slowest worker +
    /// barrier).
    pub wall_time_ms: f64,
    /// Global aggregates computed during this superstep.
    pub aggregates: Aggregates,
}

impl SuperstepProfile {
    /// Graph-level totals of the per-worker counters.
    pub fn totals(&self) -> WorkerCounters {
        sum_counters(&self.workers)
    }

    /// Index of the worker with the largest simulated processing time.
    pub fn slowest_worker(&self) -> usize {
        self.worker_times_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("times are finite"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Counters of the worker with the most outbound work this superstep —
    /// the per-superstep critical-path worker.
    pub fn critical_path_counters(&self) -> WorkerCounters {
        self.workers
            .get(self.slowest_worker())
            .copied()
            .unwrap_or_default()
    }
}

impl Serialize for SuperstepProfile {
    fn serialize_value(&self) -> Value {
        Value::Map(vec![
            ("superstep".into(), self.superstep.serialize_value()),
            ("workers".into(), self.workers.serialize_value()),
            (
                "worker_times_ms".into(),
                self.worker_times_ms.serialize_value(),
            ),
            ("wall_time_ms".into(), self.wall_time_ms.serialize_value()),
            ("aggregates".into(), self.aggregates.serialize_value()),
        ])
    }

    /// The column map of the module documentation.
    fn serialize_slice(slice: &[Self]) -> Value {
        if slice
            .iter()
            .any(|s| s.workers.len() != s.worker_times_ms.len())
        {
            return Value::Seq(slice.iter().map(Serialize::serialize_value).collect());
        }
        let superstep: Vec<usize> = slice.iter().map(|s| s.superstep).collect();
        let wall_time_ms: Vec<f64> = slice.iter().map(|s| s.wall_time_ms).collect();
        let worker_count: Vec<usize> = slice.iter().map(|s| s.workers.len()).collect();
        let workers: Vec<WorkerCounters> = slice
            .iter()
            .flat_map(|s| s.workers.iter().copied())
            .collect();
        let worker_times_ms: Vec<f64> = slice
            .iter()
            .flat_map(|s| s.worker_times_ms.iter().copied())
            .collect();
        Value::Map(vec![
            ("superstep".into(), superstep.serialize_value()),
            ("wall_time_ms".into(), wall_time_ms.serialize_value()),
            ("worker_count".into(), worker_count.serialize_value()),
            ("workers".into(), workers.serialize_value()),
            ("worker_times_ms".into(), worker_times_ms.serialize_value()),
            (
                "aggregates".into(),
                Value::Seq(
                    slice
                        .iter()
                        .map(|s| s.aggregates.serialize_value())
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for SuperstepProfile {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| Error::msg(format!("expected SuperstepProfile map, got {value:?}")))?;
        let field = |key| get_field(entries, key);
        Ok(Self {
            superstep: Deserialize::deserialize_value(field("superstep")?)?,
            workers: Deserialize::deserialize_value(field("workers")?)?,
            worker_times_ms: Deserialize::deserialize_value(field("worker_times_ms")?)?,
            wall_time_ms: Deserialize::deserialize_value(field("wall_time_ms")?)?,
            aggregates: Deserialize::deserialize_value(field("aggregates")?)?,
        })
    }

    /// Reads the column map of the module documentation, or a boxed
    /// sequence of per-superstep maps. Every column length and the sum of
    /// the worker counts are checked against each other before a superstep
    /// is built, so no count in the input sizes an allocation.
    fn deserialize_seq(value: &Value) -> Result<Vec<Self>, Error> {
        let Value::Map(entries) = value else {
            return boxed_seq(value);
        };
        let field = |key| get_field(entries, key);
        let superstep: Vec<usize> = Deserialize::deserialize_value(field("superstep")?)?;
        let wall_time_ms: Vec<f64> = Deserialize::deserialize_value(field("wall_time_ms")?)?;
        let worker_count: Vec<usize> = Deserialize::deserialize_value(field("worker_count")?)?;
        let workers: Vec<WorkerCounters> = Deserialize::deserialize_value(field("workers")?)?;
        let worker_times_ms: Vec<f64> = Deserialize::deserialize_value(field("worker_times_ms")?)?;
        let aggregates: Vec<Aggregates> = Deserialize::deserialize_value(field("aggregates")?)?;

        let steps = superstep.len();
        if [wall_time_ms.len(), worker_count.len(), aggregates.len()] != [steps; 3] {
            return Err(Error::msg("superstep columns differ in length"));
        }
        let total = worker_count
            .iter()
            .try_fold(0usize, |sum, &n| sum.checked_add(n))
            .ok_or_else(|| Error::msg("worker counts overflow"))?;
        if total != workers.len() || total != worker_times_ms.len() {
            return Err(Error::msg(format!(
                "worker counts sum to {total}, but the worker columns hold {} counters and {} times",
                workers.len(),
                worker_times_ms.len()
            )));
        }
        let mut start = 0;
        Ok(superstep
            .into_iter()
            .zip(wall_time_ms)
            .zip(worker_count)
            .zip(aggregates)
            .map(|(((superstep, wall_time_ms), count), aggregates)| {
                let range = start..start + count;
                start = range.end;
                Self {
                    superstep,
                    workers: workers[range.clone()].to_vec(),
                    worker_times_ms: worker_times_ms[range].to_vec(),
                    wall_time_ms,
                    aggregates,
                }
            })
            .collect())
    }
}

/// Complete profile of one BSP run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunProfile {
    /// Name of the algorithm that was executed.
    pub algorithm: String,
    /// Number of vertices of the graph the run executed on.
    pub num_vertices: usize,
    /// Number of edges of the graph the run executed on.
    pub num_edges: usize,
    /// Number of workers.
    pub num_workers: usize,
    /// Simulated duration of the setup phase.
    pub setup_ms: f64,
    /// Simulated duration of the read phase.
    pub read_ms: f64,
    /// Simulated duration of the write phase.
    pub write_ms: f64,
    /// One entry per executed superstep.
    pub supersteps: Vec<SuperstepProfile>,
    /// Measured wall-clock and wire-byte timings when the run executed over
    /// a real transport (`predict_cluster`'s driver fills this); `None` on
    /// in-memory runs. Deliberately excluded from serialization: measured
    /// times differ run to run, while a serialized profile must not — the
    /// artifact store rewrites a stored sample run with identical bytes, and
    /// a prediction's JSON, which carries its sample profile, is compared
    /// byte for byte between a cold run and a warm restart. So this field
    /// never reaches a stored artifact, a history file or the JSON (see
    /// [`crate::remote`]).
    #[serde(skip)]
    pub measured: Option<crate::remote::MeasuredRun>,
}

impl RunProfile {
    /// Number of supersteps the run executed (the `NumIter` feature).
    pub fn num_iterations(&self) -> usize {
        self.supersteps.len()
    }

    /// Simulated duration of the superstep phase (the phase the paper's
    /// methodology predicts).
    pub fn superstep_phase_ms(&self) -> f64 {
        self.supersteps.iter().map(|s| s.wall_time_ms).sum()
    }

    /// Simulated end-to-end runtime: setup + read + supersteps + write.
    pub fn total_ms(&self) -> f64 {
        self.setup_ms + self.read_ms + self.superstep_phase_ms() + self.write_ms
    }

    /// Graph-level counter totals per superstep, in superstep order.
    pub fn per_superstep_totals(&self) -> Vec<WorkerCounters> {
        self.supersteps.iter().map(|s| s.totals()).collect()
    }

    /// Serializes the profile to a JSON string (used by the historical-run
    /// store and the experiment harness).
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Deserializes a profile from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<Self> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn sample_profile() -> RunProfile {
        let worker = |active: u64, bytes: u64| WorkerCounters {
            active_vertices: active,
            total_vertices: active,
            local_messages: 1,
            remote_messages: 2,
            local_message_bytes: bytes / 4,
            remote_message_bytes: bytes,
        };
        RunProfile {
            algorithm: "test".to_string(),
            num_vertices: 100,
            num_edges: 400,
            num_workers: 2,
            setup_ms: 10.0,
            read_ms: 20.0,
            write_ms: 5.0,
            supersteps: vec![
                SuperstepProfile {
                    superstep: 0,
                    workers: vec![worker(10, 100), worker(20, 400)],
                    worker_times_ms: vec![1.0, 4.0],
                    wall_time_ms: 6.0,
                    aggregates: Aggregates::new(),
                },
                SuperstepProfile {
                    superstep: 1,
                    workers: vec![worker(5, 50), worker(2, 20)],
                    worker_times_ms: vec![0.5, 0.2],
                    wall_time_ms: 2.5,
                    aggregates: Aggregates::new(),
                },
            ],
            measured: None,
        }
    }

    #[test]
    fn phase_sums_add_up() {
        let p = sample_profile();
        assert_eq!(p.num_iterations(), 2);
        assert!((p.superstep_phase_ms() - 8.5).abs() < 1e-9);
        assert!((p.total_ms() - 43.5).abs() < 1e-9);
    }

    #[test]
    fn superstep_totals_sum_workers() {
        let p = sample_profile();
        let totals = p.supersteps[0].totals();
        assert_eq!(totals.active_vertices, 30);
        assert_eq!(totals.remote_message_bytes, 500);
        assert_eq!(p.per_superstep_totals().len(), 2);
    }

    #[test]
    fn slowest_worker_is_identified() {
        let p = sample_profile();
        assert_eq!(p.supersteps[0].slowest_worker(), 1);
        assert_eq!(p.supersteps[1].slowest_worker(), 0);
        assert_eq!(p.supersteps[0].critical_path_counters().active_vertices, 20);
    }

    #[test]
    fn json_roundtrip_preserves_profile() {
        let p = sample_profile();
        let json = p.to_json().unwrap();
        let back = RunProfile::from_json(&json).unwrap();
        assert_eq!(p, back);
    }

    /// A profile of `steps` supersteps × `workers` workers whose counters
    /// and times span their types' ranges (odd float bit patterns included),
    /// with one aggregate on every other superstep.
    fn grid(steps: usize, workers: usize) -> RunProfile {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ (steps * 31 + workers) as u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state
        };
        let odd_floats = [-0.0, f64::MIN_POSITIVE / 3.0, f64::MAX, 1e-300, 0.1];
        let mut supersteps = Vec::new();
        for s in 0..steps {
            let mut aggregates = Aggregates::new();
            if s % 2 == 0 {
                aggregates.add("delta", s as f64 / 7.0);
            }
            supersteps.push(SuperstepProfile {
                superstep: s,
                workers: (0..workers)
                    .map(|_| WorkerCounters {
                        active_vertices: next() >> 40,
                        total_vertices: next() >> 40,
                        local_messages: next(),
                        remote_messages: next() >> 1,
                        local_message_bytes: u64::MAX - (next() >> 60),
                        remote_message_bytes: 0,
                    })
                    .collect(),
                worker_times_ms: (0..workers)
                    .map(|w| odd_floats[(w + s) % odd_floats.len()] * (1 + next() % 3) as f64)
                    .collect(),
                wall_time_ms: f64::from_bits(next() >> 2),
                aggregates,
            });
        }
        RunProfile {
            algorithm: "grid".into(),
            num_vertices: 1 << 20,
            num_edges: 1 << 24,
            num_workers: workers,
            setup_ms: 1.5,
            read_ms: 2.5,
            write_ms: 0.25,
            supersteps,
            measured: None,
        }
    }

    /// Every float of `p` as its bit pattern, in profile order: equal
    /// profiles can still differ here (`-0.0 == 0.0`).
    fn float_bits(p: &RunProfile) -> Vec<u64> {
        let mut bits = vec![
            p.setup_ms.to_bits(),
            p.read_ms.to_bits(),
            p.write_ms.to_bits(),
        ];
        for s in &p.supersteps {
            bits.push(s.wall_time_ms.to_bits());
            bits.extend(s.worker_times_ms.iter().map(|t| t.to_bits()));
        }
        bits
    }

    /// The boxed form a derived `Vec<SuperstepProfile>` serialized to before
    /// the column layout: one map per superstep, one map per worker.
    fn boxed_form(supersteps: &[SuperstepProfile]) -> Value {
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
        Value::Seq(supersteps.iter().map(step).collect())
    }

    /// Values in a tree, a packed column counting as one.
    fn nodes(value: &Value) -> usize {
        1 + match value {
            Value::Seq(items) => items.iter().map(nodes).sum(),
            Value::Map(entries) => entries.iter().map(|(_, v)| nodes(v)).sum(),
            _ => 0,
        }
    }

    fn supersteps_of(value: &Value) -> Result<Vec<SuperstepProfile>, serde::Error> {
        Deserialize::deserialize_value(value)
    }

    #[test]
    fn column_form_roundtrips_bit_for_bit() {
        for (steps, workers) in [(0, 0), (1, 1), (3, 0), (15, 8), (7, 33)] {
            let p = grid(steps, workers);
            let value = p.serialize_value();
            let back = RunProfile::deserialize_value(&value).unwrap();
            assert_eq!(back, p, "{steps}x{workers}");
            assert_eq!(float_bits(&back), float_bits(&p), "{steps}x{workers}");
        }
    }

    #[test]
    fn column_form_node_count_grows_with_aggregates_only() {
        let count = |steps, workers| {
            let mut p = grid(steps, workers);
            for s in &mut p.supersteps {
                s.aggregates = Aggregates::new();
            }
            nodes(&p.serialize_value())
        };
        let flat = count(1, 1);
        for (steps, workers) in [(15, 8), (40, 64), (3, 1000)] {
            // One aggregate map (a map holding an empty map) per superstep.
            assert_eq!(count(steps, workers), flat + 2 * (steps - 1));
        }
        let per_aggregate = nodes(&grid(2, 1).serialize_value()) - count(2, 1);
        assert!(
            per_aggregate < 10,
            "one aggregate costs {per_aggregate} nodes"
        );
        // The boxed form it replaces spends seven nodes per worker.
        let p = grid(15, 8);
        assert!(nodes(&boxed_form(&p.supersteps)) > 15 * 8 * 7);
    }

    #[test]
    fn boxed_form_still_deserializes() {
        let p = grid(6, 5);
        let back = supersteps_of(&boxed_form(&p.supersteps)).unwrap();
        assert_eq!(back, p.supersteps);
        assert_eq!(
            float_bits(&RunProfile {
                supersteps: back,
                ..p.clone()
            }),
            float_bits(&p)
        );
    }

    #[test]
    fn misaligned_worker_times_keep_the_boxed_form() {
        let mut p = grid(3, 2);
        p.supersteps[1].worker_times_ms.pop();
        let value = p.supersteps.serialize_value();
        assert!(
            value.as_seq().is_some(),
            "no column layout for ragged times"
        );
        assert_eq!(supersteps_of(&value).unwrap(), p.supersteps);
    }

    #[test]
    fn hostile_column_maps_are_errors() {
        let p = grid(4, 3);
        let columns = p.supersteps.serialize_value();
        let with = |key: &str, replacement: Value| {
            let mut entries = columns.as_map().unwrap().to_vec();
            entries.iter_mut().find(|(k, _)| k == key).unwrap().1 = replacement;
            Value::Map(entries)
        };
        let counts = |c: Vec<u64>| Value::Packed(serde::Packed::U64(c));
        let hostile = [
            // Ragged per-superstep columns.
            with("wall_time_ms", vec![1.0f64; 3].serialize_value()),
            with("aggregates", Value::Seq(Vec::new())),
            with("worker_count", counts(vec![3, 3, 3])),
            // Worker counts that sum past, or short of, the worker columns.
            with("worker_count", counts(vec![3, 3, 3, 4])),
            with("worker_count", counts(vec![3, 3, 3, 2])),
            with("worker_count", counts(vec![u64::MAX, 0, 0, 0])),
            // Sums that overflow.
            with("worker_count", counts(vec![u64::MAX, 2, 0, 0])),
            with("worker_count", counts(vec![u64::MAX / 2 + 1; 4])),
            // Worker columns of different lengths.
            with("worker_times_ms", vec![0.5f64; 11].serialize_value()),
            with("workers", {
                let mut workers = columns.as_map().unwrap()[3].1.as_map().unwrap().to_vec();
                workers[4].1 = counts(vec![1; 11]);
                Value::Map(workers)
            }),
            // A column of the wrong type, and a missing one.
            with("superstep", vec![0.5f64; 4].serialize_value()),
            Value::Map(columns.as_map().unwrap()[1..].to_vec()),
        ];
        for (case, value) in hostile.iter().enumerate() {
            assert!(supersteps_of(value).is_err(), "hostile case {case} decoded");
        }
        assert_eq!(supersteps_of(&columns).unwrap(), p.supersteps);
    }

    #[test]
    fn empty_profile_is_well_behaved() {
        let p = RunProfile {
            algorithm: "noop".into(),
            num_vertices: 0,
            num_edges: 0,
            num_workers: 1,
            setup_ms: 0.0,
            read_ms: 0.0,
            write_ms: 0.0,
            supersteps: vec![],
            measured: None,
        };
        assert_eq!(p.num_iterations(), 0);
        assert_eq!(p.superstep_phase_ms(), 0.0);
    }
}
