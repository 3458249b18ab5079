//! The cluster driver: the transport half of a cluster run.
//!
//! [`drive`] runs one vertex program to completion against a group of
//! workers. The master loop is not here: it is
//! [`predict_bsp::run_master`], the same code the in-memory executor runs,
//! which is what makes the result byte-identical to an in-memory run
//! (determinism contract point 8). This module is `RemoteWorkers`, the
//! master's view of a worker group — what the in-memory executor does with
//! buffer swaps, it does with `Init`/`Step`/`StepDone`/`Finish` frames:
//! ship each worker its shard, fan a step out, collect the replies in
//! ascending worker order under a read timeout, validate them, relay each
//! worker's edge-group tables to superstep 0's `Step` and outbound batch
//! sections to next superstep's `Step`.
//!
//! There is one group path: [`drive`] checks a group out of the pool, runs
//! on it and checks it back in only when the run succeeded; a group that
//! failed is dropped, its workers with it. [`drive_on`] runs the same code
//! on a group the caller built — tests build theirs from workers behind a
//! fault schedule or a recording endpoint — and never pools it.
//!
//! The relay is opaque ([`Relay`]): of an `InitOk` the driver decodes each
//! table's framing, and of a `StepDone` the
//! [`StepReport`](crate::protocol::StepReport) the master reads — superstep
//! echo, counters, aggregates, halt vote, `compute_ns` — and each section's
//! framing; it copies tables and sections verbatim into their destinations'
//! next `Step`. It never decodes a group or a message, so it is generic over
//! the program only where the master and the final values need it.
//!
//! On top of the master's simulated timings it records what a simulated
//! clock cannot see: *measured* per-superstep wall time, per-worker compute
//! time and bytes-on-the-wire, attached to the returned profile as a
//! [`MeasuredRun`].

use crate::error::ClusterError;
use crate::protocol::{self, tag, InitHeader, ProgramSpec, Relay};
use crate::transport::{self, Connection, TransportKind, WorkerGroup};
use crate::wire::{decode_exact, Wire};
use predict_bsp::runtime::ShardLayout;
use predict_bsp::{
    run_master, Aggregates, BspConfig, BspRunResult, MeasuredRun, MeasuredSuperstep, StepSink,
    VertexProgram, Workers,
};
use predict_graph::{shard_csr, CsrGraph};
use predict_obs::metrics::{Counter, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How a cluster drive runs: backend and read timeout.
#[derive(Debug, Clone)]
pub struct DriveOptions {
    /// Transport backend to run the workers on.
    pub kind: TransportKind,
    /// The longest silence allowed while the driver waits for a frame. A
    /// worker that sends no byte for this long fails the drive with
    /// [`ClusterError::Timeout`] instead of hanging it.
    pub timeout: Duration,
}

impl DriveOptions {
    /// Options for a drive on `kind` with the default two-minute timeout.
    pub fn new(kind: TransportKind) -> Self {
        Self {
            kind,
            timeout: Duration::from_secs(120),
        }
    }
}

/// Runs `program` over `graph` on a worker group, returning the same
/// [`BspRunResult`] the in-memory engine returns — byte-identical values,
/// profile and halt reason — plus measured timings in
/// [`RunProfile::measured`](predict_bsp::RunProfile::measured).
///
/// `spec` must describe the same program as `program` (the driver keeps its
/// own instance for the master-side halt check; the workers build theirs
/// from the spec). `ranks` is the TOP-K input ranking and empty for every
/// other program.
pub fn drive<P>(
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
    opts: &DriveOptions,
) -> Result<BspRunResult<P::VertexValue>, ClusterError>
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    let mut group = transport::checkout(opts.kind, config.workers())?;
    let result = drive_on_group(program, spec, ranks, graph, config, opts, &mut group);
    if result.is_ok() {
        transport::checkin(group);
    }
    // On error the group drops here, killing its workers; its protocol
    // state is unknown and must not be reused.
    result
}

/// Runs one drive on a caller-provided worker group — for tests and tools
/// that build groups through custom spawns (workers behind a fault
/// schedule, a recording endpoint or a raw socket stream). The group is
/// consumed: healthy or not, it is never pooled. A group whose size is not
/// `config.workers()` fails with [`ClusterError::GroupSize`] before any
/// worker is sent a frame.
pub fn drive_on<P>(
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
    opts: &DriveOptions,
    mut group: WorkerGroup,
) -> Result<BspRunResult<P::VertexValue>, ClusterError>
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    let (expected, actual) = (config.workers(), group.connections.len());
    if actual != expected {
        return Err(ClusterError::GroupSize { expected, actual });
    }
    drive_on_group(program, spec, ranks, graph, config, opts, &mut group)
}

/// Receives one frame from `conn`, requiring tag `want`; `Error` frames
/// become [`ClusterError::Remote`], anything else [`ClusterError::Protocol`].
fn expect_frame(
    conn: &mut Connection,
    want: u8,
    timeout: Duration,
) -> Result<Vec<u8>, ClusterError> {
    let (got, body) = conn.recv(timeout)?;
    if got == tag::ERROR {
        let message: String =
            decode_exact(&body).unwrap_or_else(|_| "<undecodable error frame>".into());
        return Err(ClusterError::Remote {
            worker: conn.worker(),
            message,
        });
    }
    if got != want {
        return Err(ClusterError::Protocol {
            worker: conn.worker(),
            detail: format!("expected frame tag {want:#04x}, got {got:#04x}"),
        });
    }
    Ok(body)
}

fn drive_on_group<P>(
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
    opts: &DriveOptions,
    group: &mut WorkerGroup,
) -> Result<BspRunResult<P::VertexValue>, ClusterError>
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    let layout = ShardLayout::build(
        graph.num_vertices(),
        config.workers(),
        config.partition_strategy,
    );
    let run_start = Instant::now();
    let _run_span = predict_obs::trace::span("cluster.run")
        .arg("transport", opts.kind.name())
        .arg("workers", layout.num_workers());
    let mut workers = RemoteWorkers::init(spec, ranks, graph, &layout, opts, group)?;
    let mut result = run_master(program, graph, &layout, config, &mut workers)?;
    result.profile.measured = Some(MeasuredRun {
        transport: opts.kind.name().to_string(),
        supersteps: workers.measured,
        total_wall_ns: run_start.elapsed().as_nanos() as u64,
    });
    Ok(result)
}

/// A worker group mid-run, as the master sees it.
struct RemoteWorkers<'a> {
    group: &'a mut WorkerGroup,
    layout: &'a ShardLayout,
    timeout: Duration,
    /// Undelivered tables and sections per destination worker. Filled from
    /// `InitOk` and `StepDone` replies in ascending source order, drained
    /// into the next `Step`.
    relay: Relay,
    /// The `Step` body being sent, reused across workers and supersteps.
    step_body: Vec<u8>,
    measured: Vec<MeasuredSuperstep>,
    metrics: &'static DriveMetrics,
}

/// The `cluster.*` instruments every drive records into, resolved once per
/// process on the first drive rather than once per drive.
struct DriveMetrics {
    step_ns: Arc<Histogram>,
    wire_bytes: Arc<Counter>,
    steps: Arc<Counter>,
}

impl DriveMetrics {
    fn get() -> &'static Self {
        static METRICS: OnceLock<DriveMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let registry = predict_obs::registry();
            DriveMetrics {
                step_ns: registry.histogram("cluster.step_ns"),
                wire_bytes: registry.counter("cluster.wire_bytes"),
                steps: registry.counter("cluster.steps"),
            }
        })
    }
}

impl<'a> RemoteWorkers<'a> {
    /// Ships every worker its shard of `graph`, then collects `InitOk` in
    /// ascending worker order, queueing the tables it carries.
    fn init(
        spec: &ProgramSpec,
        ranks: &[f64],
        graph: &CsrGraph,
        layout: &'a ShardLayout,
        opts: &DriveOptions,
        group: &'a mut WorkerGroup,
    ) -> Result<Self, ClusterError> {
        let num_workers = layout.num_workers();
        let shards = shard_csr(graph, num_workers, |v| layout.owner_of(v));
        let header = InitHeader {
            protocol_version: protocol::PROTOCOL_VERSION,
            strategy: layout.strategy(),
            program: spec.clone(),
        };
        for (w, shard) in shards.iter().enumerate() {
            let body = protocol::encode_init(&header, shard, ranks);
            group.connections[w].send(tag::INIT, &body)?;
        }
        drop(shards);
        let mut relay = Relay::new(num_workers);
        for (w, conn) in group.connections.iter_mut().enumerate() {
            let body = expect_frame(conn, tag::INIT_OK, opts.timeout)?;
            relay
                .collect_tables(&body, w)
                .map_err(|e| ClusterError::from_wire(w, e))?;
        }
        Ok(Self {
            group,
            layout,
            timeout: opts.timeout,
            relay,
            step_body: Vec::new(),
            measured: Vec::new(),
            metrics: DriveMetrics::get(),
        })
    }
}

impl<P> Workers<P> for RemoteWorkers<'_>
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    type Error = ClusterError;

    fn step(
        &mut self,
        superstep: usize,
        previous_aggregates: &Aggregates,
        sink: &mut StepSink,
    ) -> Result<(), ClusterError> {
        let num_workers = self.group.connections.len();
        let mut step_span =
            predict_obs::trace::span("cluster.step").arg("superstep", superstep as u64);
        let step_start = Instant::now();

        // Fan the step out to every worker before reading any reply, so
        // workers compute concurrently.
        let mut wire_bytes = Vec::with_capacity(num_workers);
        for (w, conn) in self.group.connections.iter_mut().enumerate() {
            let body = &mut self.step_body;
            self.relay
                .step_body(body, w, superstep as u64, previous_aggregates);
            wire_bytes.push(body.len() as u64);
            conn.send(tag::STEP, body)
                .map_err(|e| e.at_superstep(superstep))?;
        }

        // Barrier: collect StepDone in ascending worker order and report in
        // that order. Relaying in that order keeps every destination's
        // sections ascending by source worker.
        let mut worker_compute_ns = Vec::with_capacity(num_workers);
        for (w, wire) in wire_bytes.iter_mut().enumerate() {
            let conn = &mut self.group.connections[w];
            let body = expect_frame(conn, tag::STEP_DONE, self.timeout)
                .map_err(|e| e.at_superstep(superstep))?;
            *wire += body.len() as u64;
            let report = self
                .relay
                .collect(&body, w, superstep as u64)
                .map_err(|e| ClusterError::from_wire(w, e))?;
            sink.report(
                &report.counters,
                &report.partial_aggregates,
                report.all_halted,
            );
            worker_compute_ns.push(report.compute_ns);
        }

        // Join the driver-side round-trip with the per-worker compute times
        // the STEP_DONE frames carried back.
        step_span.set_arg("worker_compute_ns", format!("{worker_compute_ns:?}"));
        let wall_ns = step_start.elapsed().as_nanos() as u64;
        self.metrics.step_ns.record(wall_ns);
        self.metrics.wire_bytes.add(wire_bytes.iter().sum());
        self.metrics.steps.incr();
        self.measured.push(MeasuredSuperstep {
            wall_ns,
            worker_compute_ns,
            wire_bytes,
        });
        Ok(())
    }

    fn finish(&mut self) -> Result<Vec<Vec<P::VertexValue>>, ClusterError> {
        for conn in &mut self.group.connections {
            conn.send(tag::FINISH, &[])?;
        }
        let mut values = Vec::with_capacity(self.group.connections.len());
        for (w, conn) in self.group.connections.iter_mut().enumerate() {
            let body = expect_frame(conn, tag::VALUES, self.timeout)?;
            let shard_values: Vec<P::VertexValue> =
                decode_exact(&body).map_err(|e| ClusterError::from_wire(w, e))?;
            let expected = self.layout.shard_vertices(w).len();
            if shard_values.len() != expected {
                return Err(ClusterError::Protocol {
                    worker: w,
                    detail: format!("expected {expected} values, got {}", shard_values.len()),
                });
            }
            values.push(shard_values);
        }
        Ok(values)
    }
}
