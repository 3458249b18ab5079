//! Per-worker, per-superstep feature counters.
//!
//! Table 1 of the paper lists the key input features PREDIcT profiles during
//! sample runs: active vertices, total vertices, local/remote message counts
//! and byte counts. The BSP engine maintains exactly these counters for every
//! worker in every superstep, mirroring how the paper instruments the code
//! path of each Giraph worker (section 3.4, "Training Methodology").
//!
//! One worker's counters serialize as a map of the six fields; a slice of
//! them (the workers of a superstep, or of a whole run) as six `u64`
//! columns under the same keys, so a stored profile decodes a handful of
//! columns instead of a map per worker. A boxed sequence of per-worker maps,
//! the form JSON and older stores hold, still deserializes.

use serde::{boxed_seq, get_field, Deserialize, Error, Packed, Serialize, Value};

/// Counters collected by a single worker during a single superstep.
///
/// "Local" messages have a destination vertex assigned to the same worker as
/// the sender; "remote" messages cross workers and therefore the (simulated)
/// network.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkerCounters {
    /// Number of vertices that executed the compute function this superstep.
    pub active_vertices: u64,
    /// Number of vertices assigned to this worker.
    pub total_vertices: u64,
    /// Messages sent to vertices on the same worker.
    pub local_messages: u64,
    /// Messages sent to vertices on other workers.
    pub remote_messages: u64,
    /// Total bytes of local messages.
    pub local_message_bytes: u64,
    /// Total bytes of remote messages.
    pub remote_message_bytes: u64,
}

impl WorkerCounters {
    /// Creates counters for a worker that owns `total_vertices` vertices and
    /// has done no work yet.
    pub fn new(total_vertices: u64) -> Self {
        Self {
            total_vertices,
            ..Default::default()
        }
    }

    /// Resets the counters in place for a new superstep of a worker owning
    /// `total_vertices` vertices. The runtime's shards reuse one accumulator
    /// across supersteps instead of constructing a fresh one.
    pub fn reset(&mut self, total_vertices: u64) {
        *self = Self::new(total_vertices);
    }

    /// Records one sent message of `bytes` bytes; `local` selects which pair
    /// of counters is incremented.
    pub fn record_message(&mut self, bytes: u64, local: bool) {
        if local {
            self.local_messages += 1;
            self.local_message_bytes += bytes;
        } else {
            self.remote_messages += 1;
            self.remote_message_bytes += bytes;
        }
    }

    /// Records `local` local and `remote` remote messages of `bytes` bytes
    /// each — a broadcast, counted per edge without a call per edge.
    pub(crate) fn record_messages(&mut self, bytes: u64, local: u64, remote: u64) {
        self.local_messages += local;
        self.local_message_bytes += local * bytes;
        self.remote_messages += remote;
        self.remote_message_bytes += remote * bytes;
    }

    /// Total messages sent (local + remote).
    pub fn total_messages(&self) -> u64 {
        self.local_messages + self.remote_messages
    }

    /// Total message bytes sent (local + remote).
    pub fn total_message_bytes(&self) -> u64 {
        self.local_message_bytes + self.remote_message_bytes
    }

    /// Average size in bytes of the messages sent by this worker
    /// (the `AvgMsgSize` feature of Table 1); 0 when no messages were sent.
    pub fn avg_message_size(&self) -> f64 {
        let msgs = self.total_messages();
        if msgs == 0 {
            0.0
        } else {
            self.total_message_bytes() as f64 / msgs as f64
        }
    }

    /// Element-wise sum of two counter sets (used to aggregate workers into
    /// per-superstep totals).
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            active_vertices: self.active_vertices + other.active_vertices,
            total_vertices: self.total_vertices + other.total_vertices,
            local_messages: self.local_messages + other.local_messages,
            remote_messages: self.remote_messages + other.remote_messages,
            local_message_bytes: self.local_message_bytes + other.local_message_bytes,
            remote_message_bytes: self.remote_message_bytes + other.remote_message_bytes,
        }
    }
}

/// The serialized field names, in declaration order: the keys of one
/// worker's map and of the columns a slice of workers becomes.
const FIELDS: [&str; 6] = [
    "active_vertices",
    "total_vertices",
    "local_messages",
    "remote_messages",
    "local_message_bytes",
    "remote_message_bytes",
];

impl WorkerCounters {
    /// The fields in [`FIELDS`] order.
    fn to_fields(self) -> [u64; 6] {
        [
            self.active_vertices,
            self.total_vertices,
            self.local_messages,
            self.remote_messages,
            self.local_message_bytes,
            self.remote_message_bytes,
        ]
    }

    /// Inverse of [`to_fields`](Self::to_fields).
    fn from_fields(f: [u64; 6]) -> Self {
        Self {
            active_vertices: f[0],
            total_vertices: f[1],
            local_messages: f[2],
            remote_messages: f[3],
            local_message_bytes: f[4],
            remote_message_bytes: f[5],
        }
    }
}

impl Serialize for WorkerCounters {
    fn serialize_value(&self) -> Value {
        let fields = self.to_fields();
        Value::Map(
            FIELDS
                .iter()
                .zip(fields)
                .map(|(key, v)| (key.to_string(), Value::UInt(v)))
                .collect(),
        )
    }

    /// Six `U64` columns, one per field.
    fn serialize_slice(slice: &[Self]) -> Value {
        Value::Map(
            FIELDS
                .iter()
                .enumerate()
                .map(|(i, key)| {
                    let column = slice.iter().map(|w| w.to_fields()[i]).collect();
                    (key.to_string(), Value::Packed(Packed::U64(column)))
                })
                .collect(),
        )
    }
}

impl Deserialize for WorkerCounters {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| Error::msg(format!("expected WorkerCounters map, got {value:?}")))?;
        let mut fields = [0u64; 6];
        for (slot, key) in fields.iter_mut().zip(FIELDS) {
            *slot = u64::deserialize_value(get_field(entries, key)?)?;
        }
        Ok(Self::from_fields(fields))
    }

    /// Reads the six columns [`serialize_slice`](Serialize::serialize_slice)
    /// writes, or a boxed sequence of per-worker maps.
    fn deserialize_seq(value: &Value) -> Result<Vec<Self>, Error> {
        let Value::Map(entries) = value else {
            return boxed_seq(value);
        };
        let mut columns: [Vec<u64>; 6] = Default::default();
        for (column, key) in columns.iter_mut().zip(FIELDS) {
            *column = Vec::deserialize_value(get_field(entries, key)?)?;
        }
        let len = columns[0].len();
        if columns.iter().any(|c| c.len() != len) {
            return Err(Error::msg("WorkerCounters columns differ in length"));
        }
        Ok((0..len)
            .map(|i| Self::from_fields(columns.each_ref().map(|c| c[i])))
            .collect())
    }
}

/// Sums a slice of per-worker counters into graph-level totals for one
/// superstep.
pub fn sum_counters(workers: &[WorkerCounters]) -> WorkerCounters {
    workers
        .iter()
        .fold(WorkerCounters::default(), |acc, w| acc.merged(w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_message_routes_to_correct_counters() {
        let mut c = WorkerCounters::new(10);
        c.record_message(8, true);
        c.record_message(16, false);
        c.record_message(24, false);
        assert_eq!(c.local_messages, 1);
        assert_eq!(c.local_message_bytes, 8);
        assert_eq!(c.remote_messages, 2);
        assert_eq!(c.remote_message_bytes, 40);
        assert_eq!(c.total_messages(), 3);
        assert_eq!(c.total_message_bytes(), 48);
        // A broadcast's bulk record is one record per message.
        let mut bulk = WorkerCounters::new(10);
        bulk.record_messages(12, 3, 2);
        let mut each = WorkerCounters::new(10);
        for local in [true, true, true, false, false] {
            each.record_message(12, local);
        }
        assert_eq!(bulk, each);
    }

    #[test]
    fn avg_message_size_handles_zero_messages() {
        let c = WorkerCounters::new(5);
        assert_eq!(c.avg_message_size(), 0.0);
        let mut c2 = c;
        c2.record_message(10, true);
        c2.record_message(30, false);
        assert_eq!(c2.avg_message_size(), 20.0);
    }

    #[test]
    fn merged_sums_all_fields() {
        let mut a = WorkerCounters::new(4);
        a.active_vertices = 3;
        a.record_message(8, true);
        let mut b = WorkerCounters::new(6);
        b.active_vertices = 5;
        b.record_message(8, false);
        let m = a.merged(&b);
        assert_eq!(m.total_vertices, 10);
        assert_eq!(m.active_vertices, 8);
        assert_eq!(m.local_messages, 1);
        assert_eq!(m.remote_messages, 1);
        assert_eq!(m.total_message_bytes(), 16);
    }

    #[test]
    fn sum_counters_over_slice() {
        let workers = vec![
            WorkerCounters::new(3),
            WorkerCounters::new(7),
            WorkerCounters::new(5),
        ];
        let total = sum_counters(&workers);
        assert_eq!(total.total_vertices, 15);
        assert_eq!(total.active_vertices, 0);
    }
}
