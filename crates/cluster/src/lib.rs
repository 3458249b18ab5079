//! Out-of-process BSP workers, one graph shard each: a transport-abstracted
//! mini-Giraph.
//!
//! The in-memory engine (`predict_bsp`) simulates a cluster: per-worker
//! vertex ranges and counters exist, but every "worker" is a thread reading
//! shared memory and the clock is synthetic. This crate makes the
//! distribution real. Each worker owns its
//! [`ShardedCsr`](predict_graph::ShardedCsr) shard behind an explicit
//! transport boundary, peer messages travel as encoded batches between
//! workers, and every superstep's wall time and bytes-on-the-wire are
//! *measured*, not simulated — the numbers the paper's simulated clock
//! (`predict_bsp::ClusterClock`) can then be judged against.
//!
//! Three layers:
//!
//! * [`wire`] — a compact, versioned, length-delimited encoding of
//!   everything that crosses a worker boundary: message batches as
//!   production-order batch sections ([`WireBatch`]) whose broadcasts name
//!   edge groups, the per-peer tables of those groups' destinations,
//!   counters, aggregates, shards, values. Pure bytes; no transport
//!   anywhere in sight.
//! * [`protocol`] + [`transport`] + [`endpoint`] — framed star-topology
//!   superstep protocol (`Init`/`Step`/`StepDone`/`Finish`), spoken over
//!   one Unix-domain socket pair per worker. The worker's end is served by a
//!   thread of this process ([`TransportKind::InProc`]) or by a long-lived
//!   `cluster_worker` OS process that gets it as its standard input
//!   ([`TransportKind::Socket`]); the frame I/O is the same code either way.
//!   Barrier, halt voting and aggregate exchange ride the same frames; the
//!   driver relays peer messages as opaque sections, encoded once by the
//!   sender and decoded once by the receiver.
//! * [`driver`] + [`runner`] — a worker group as the `Workers` of the
//!   engine's own master loop (`predict_bsp::run_master`), so results are
//!   *byte-identical* to in-memory runs by construction (the engine's
//!   determinism contract, point 8), while recording a
//!   [`MeasuredRun`](predict_bsp::MeasuredRun) into the profile.
//!   [`run_workload`] is the one seam the prediction pipeline runs every
//!   sample and actual run through — it places a workload's
//!   [`RunPlan`](predict_algorithms::RunPlan) on the executor the engine's
//!   `BspConfig::transport` names and returns the [`ClusterError`] a
//!   transported run met; `BspConfig::with_transport` switches executors
//!   without touching results.
//!
//! Failure is structured, not silent: a worker that dies or hangs
//! mid-superstep surfaces as a [`ClusterError`] naming the worker, the
//! superstep and the tail of its stderr. The [`fault`] module makes those
//! failure paths *testable* from outside the run path, which holds no fault
//! hook: a deterministic [`FaultEndpoint`] wrapped around one worker's
//! endpoint injects truncations, partial writes, delayed/duplicated frames
//! and hard disconnects at scheduled frame indices, and [`drive_on`] runs a
//! group built from such workers, so every error path is pinned by a
//! repeatable test instead of kill timing.

pub mod driver;
pub mod endpoint;
pub mod error;
pub mod fault;
pub mod protocol;
pub mod runner;
pub mod transport;
pub mod wire;
pub mod worker;

pub use driver::{drive, drive_on, DriveOptions};
pub use endpoint::{Endpoint, StreamEndpoint};
pub use error::{ClusterError, WireError};
pub use fault::{Direction, FaultAction, FaultEndpoint, FaultSchedule};
pub use protocol::{InitHeader, ProgramSpec, PROTOCOL_VERSION};
pub use runner::run_workload;
pub use transport::{checkin, checkout, worker_bin_path, Connection, TransportKind, WorkerGroup};
pub use wire::{decode_exact, encode_to_vec, Wire, WireBatch, WIRE_VERSION};
pub use worker::serve;
