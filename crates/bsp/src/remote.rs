//! The remote-execution knob and measured-timing types.
//!
//! The engine's in-memory executor shares one address space between all
//! workers; the `predict_cluster` crate provides the alternative — workers
//! behind an explicit transport boundary exchanging serialized superstep
//! message batches. This module holds the pieces of that subsystem that
//! must live *in* the engine crate so they can ride [`BspConfig`] and
//! [`RunProfile`] without a dependency cycle:
//!
//! * [`TransportMode`] — the `ExecutionMode`-style setting selecting which
//!   executor a run uses. The engine only stores it on [`BspConfig`] (set
//!   with [`BspConfig::with_transport`]; the default is in memory); the
//!   dispatch to a remote transport happens in `predict_cluster`, which
//!   sits above this crate.
//! * [`MeasuredRun`] / [`MeasuredSuperstep`] — *measured* wall-clock and
//!   bytes-on-the-wire timings the cluster driver attaches to the profile
//!   of a remote run, alongside the simulated [`ClusterClock`] timings.
//!   These are the first real timings in the stack, and they let the
//!   paper's simulated cluster model be compared against an actual
//!   message-passing execution. They are intentionally **not serialized**
//!   with the profile (`#[serde(skip)]` on
//!   [`RunProfile::measured`](crate::profile::RunProfile::measured)):
//!   measured times differ run to run, while serialized profiles are pinned
//!   byte-for-byte by the golden scenarios and the history store.
//!
//! Like the execution mode, the transport is a pure performance/topology
//! setting: both executors run the same master loop (see `crate::runtime`
//! point 8), so values, serialized profiles and halt reasons are
//! byte-identical under every transport.
//!
//! [`ClusterClock`]: crate::cost::ClusterClock
//! [`BspConfig`]: crate::config::BspConfig
//! [`BspConfig::with_transport`]: crate::config::BspConfig::with_transport
//! [`RunProfile`]: crate::profile::RunProfile

use serde::Serialize;

/// Which executor a run uses: the in-memory runtime or a transport-backed
/// cluster of workers (driven by `predict_cluster`).
///
/// Never affects results — only where workers live and how messages travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// The in-memory executor (`crate::runtime`) — no transport boundary.
    #[default]
    InMemory,
    /// One worker thread per shard, serving one end of a Unix-domain socket
    /// pair whose other end the driver holds; the frames are the
    /// `Socket` transport's, byte for byte.
    InProc,
    /// One long-lived OS worker process per shard (the `cluster_worker`
    /// binary), speaking the wire format over one end of a Unix-domain
    /// socket pair handed to it as its standard input.
    Socket,
}

/// Measured timings of one superstep of a transport-backed run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeasuredSuperstep {
    /// Wall-clock time of the whole superstep round as seen by the driver:
    /// from broadcasting the step frame until the last worker's step-done
    /// frame was collected.
    pub wall_ns: u64,
    /// Per-worker compute-phase time in nanoseconds, measured inside each
    /// worker (aligned with worker index).
    pub worker_compute_ns: Vec<u64>,
    /// Serialized bytes each worker put on the wire this superstep (the
    /// encoded outbound message batches, aligned with worker index).
    pub wire_bytes: Vec<u64>,
}

/// Measured timings of a whole transport-backed run, attached to
/// [`RunProfile::measured`](crate::profile::RunProfile::measured) by the
/// cluster driver. `None` on in-memory runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeasuredRun {
    /// Name of the transport that executed the run (`"inproc"` or
    /// `"socket"`).
    pub transport: String,
    /// One entry per executed superstep, aligned with
    /// [`RunProfile::supersteps`](crate::profile::RunProfile::supersteps).
    pub supersteps: Vec<MeasuredSuperstep>,
    /// Measured wall-clock time of the whole run (worker setup through
    /// value collection).
    pub total_wall_ns: u64,
}

impl MeasuredRun {
    /// Measured wall time of the superstep phase in milliseconds — the
    /// measured counterpart of
    /// [`RunProfile::superstep_phase_ms`](crate::profile::RunProfile::superstep_phase_ms).
    pub fn superstep_phase_ms(&self) -> f64 {
        self.supersteps.iter().map(|s| s.wall_ns).sum::<u64>() as f64 / 1e6
    }

    /// Total serialized bytes that crossed the wire during the run.
    pub fn total_wire_bytes(&self) -> u64 {
        self.supersteps
            .iter()
            .map(|s| s.wire_bytes.iter().sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_run_aggregates() {
        let run = MeasuredRun {
            transport: "inproc".to_string(),
            supersteps: vec![
                MeasuredSuperstep {
                    wall_ns: 2_000_000,
                    worker_compute_ns: vec![1, 2],
                    wire_bytes: vec![10, 20],
                },
                MeasuredSuperstep {
                    wall_ns: 1_000_000,
                    worker_compute_ns: vec![3, 4],
                    wire_bytes: vec![30, 0],
                },
            ],
            total_wall_ns: 5_000_000,
        };
        assert!((run.superstep_phase_ms() - 3.0).abs() < 1e-9);
        assert_eq!(run.total_wire_bytes(), 60);
    }
}
