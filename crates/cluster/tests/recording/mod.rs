//! Recorded drives: a cluster drive whose workers are serve loops on
//! threads of the test process, each behind one end of a Unix socket pair
//! and a recording endpoint, so a suite can read every frame each worker
//! received and sent. Shared by path by the suites that inspect real
//! superstep bodies.

use predict_bsp::{BspConfig, VertexProgram};
use predict_cluster::endpoint::Frame;
use predict_cluster::{
    drive_on, serve, ClusterError, Connection, DriveOptions, Endpoint, ProgramSpec, StreamEndpoint,
    TransportKind, Wire, WorkerGroup,
};
use predict_graph::CsrGraph;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};

/// Frames one worker received (`false`) and sent (`true`), in order.
pub type Log = Vec<(bool, Frame)>;

/// A worker endpoint that logs every frame passing through it.
struct Recording<E> {
    inner: E,
    log: Arc<Mutex<Log>>,
}

impl<E: Endpoint> Endpoint for Recording<E> {
    fn send(&mut self, tag: u8, body: &[u8]) -> std::io::Result<()> {
        let frame = (tag, body.to_vec());
        self.log.lock().expect("log lock").push((true, frame));
        self.inner.send(tag, body)
    }

    fn recv(&mut self) -> std::io::Result<Option<Frame>> {
        let frame = self.inner.recv()?;
        if let Some(frame) = &frame {
            self.log
                .lock()
                .expect("log lock")
                .push((false, frame.clone()));
        }
        Ok(frame)
    }
}

/// Drives `program` (described by `spec`, with TopK input `ranks`) on
/// `config.workers()` recording serve loops, labelled `kind`, and returns
/// each worker's log in worker order.
pub fn record<P>(
    kind: TransportKind,
    program: &P,
    spec: &ProgramSpec,
    ranks: &[f64],
    graph: &CsrGraph,
    config: &BspConfig,
) -> Vec<Log>
where
    P: VertexProgram,
    P::VertexValue: Wire,
{
    let logs: Vec<Arc<Mutex<Log>>> = (0..config.workers()).map(|_| Arc::default()).collect();
    let mut serving = Vec::new();
    let group = WorkerGroup::spawn_with(kind, config.workers(), |w| {
        let (driver_side, worker_side) = UnixStream::pair().map_err(|e| ClusterError::Spawn {
            worker: w,
            detail: e.to_string(),
        })?;
        let log = Arc::clone(&logs[w]);
        serving.push(std::thread::spawn(move || {
            let reader = worker_side.try_clone().expect("cloning the worker socket");
            let inner = StreamEndpoint::new(reader, worker_side);
            serve(&mut Recording { inner, log })
        }));
        Connection::from_socket_stream(w, driver_side)
    })
    .expect("recording group builds");
    let opts = DriveOptions::new(kind);
    drive_on(program, spec, ranks, graph, config, &opts, group).expect("recorded drive");
    for serve_loop in serving {
        let served = serve_loop.join().expect("serve loop does not panic");
        served.expect("serve loop ends cleanly");
    }
    logs.into_iter()
        .map(|log| std::mem::take(&mut *log.lock().expect("log lock")))
        .collect()
}
