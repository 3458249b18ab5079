//! Driver-side transports: in-process worker threads and worker OS
//! processes over sockets.
//!
//! A [`Connection`] is the driver's handle to one worker. Every backend
//! exposes the same three operations — send a frame, receive a frame with a
//! deadline, read the worker's stderr tail — so the cluster driver
//! ([`crate::driver`]) is transport-agnostic:
//!
//! * [`TransportKind::InProc`] spawns a thread running the same serve loop
//!   the worker binary runs, connected by mpsc channel pairs. A panicking or
//!   crashing worker drops its sender, which the driver observes as a
//!   disconnect — the thread-level analogue of a dead process.
//! * [`TransportKind::Socket`] spawns a long-lived `cluster_worker` OS
//!   process pointed at a per-worker Unix-domain socket (`cluster_worker
//!   --socket <path>`); the driver binds and accepts with a deadline, then
//!   speaks the framed protocol over the socket stream. A reader thread
//!   pumps inbound frames into a channel (so receives can time out without
//!   platform-specific tricks) and a second thread tails the worker's
//!   stderr into a bounded ring buffer that failure reports quote.
//!
//! Workers survive across runs — after serving one episode they loop back to
//! waiting for the next `Init` — so [`WorkerGroup`]s are pooled globally,
//! keyed by `(kind, num_workers)`, and process spawn cost is paid
//! once, not per prediction run. A group that errors is dropped, never
//! re-pooled.

use crate::endpoint::{ChannelEndpoint, Frame};
use crate::error::ClusterError;
use crate::fault::{FaultEndpoint, FaultSchedule};
use crate::socket::{fresh_socket_path, SocketListener, ACCEPT_TIMEOUT};
use crate::worker::serve;
use predict_bsp::TransportMode;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::protocol::{read_frame, tag, write_frame};

/// Lines of worker stderr kept for failure reports.
const STDERR_TAIL_LINES: usize = 40;

/// Which backend a [`Connection`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Worker threads in this process, talking over channels.
    InProc,
    /// Worker OS processes, talking over Unix-domain socket streams.
    Socket,
}

impl TransportKind {
    /// The transport kind `mode` resolves to (`Auto` through
    /// `PREDICT_TRANSPORT`); `InMemory` has no transport and returns `None`.
    pub fn from_mode(mode: TransportMode) -> Option<Self> {
        match mode.resolve() {
            TransportMode::InProc => Some(Self::InProc),
            TransportMode::Socket => Some(Self::Socket),
            TransportMode::InMemory | TransportMode::Auto => None,
        }
    }

    /// Lower-case name used in profiles and reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::InProc => "inproc",
            Self::Socket => "socket",
        }
    }
}

/// Bounded ring buffer of a worker process's stderr lines.
#[derive(Default)]
struct StderrRing {
    lines: VecDeque<String>,
}

impl StderrRing {
    fn push(&mut self, line: String) {
        if self.lines.len() == STDERR_TAIL_LINES {
            self.lines.pop_front();
        }
        self.lines.push_back(line);
    }

    fn tail(&self) -> String {
        self.lines.iter().cloned().collect::<Vec<_>>().join("\n")
    }
}

/// The driver's handle to one worker.
pub struct Connection {
    worker: usize,
    inner: ConnInner,
}

enum ConnInner {
    InProc {
        tx: Sender<Frame>,
        rx: Receiver<Frame>,
    },
    Socket {
        /// The worker process, when this connection spawned one (`None` for
        /// connections built from a raw accepted stream in tests).
        child: Option<Child>,
        writer: BufWriter<UnixStream>,
        /// A second handle to the stream, shut down on drop to unblock the
        /// pump thread.
        stream: UnixStream,
        /// Frames pumped off the socket; closed on EOF or read error.
        rx: Receiver<Frame>,
        stderr: Arc<Mutex<StderrRing>>,
        /// The thread tailing the child's stderr into `stderr`; joined when
        /// the worker is reported dead so the report holds its last words.
        stderr_reader: Option<JoinHandle<()>>,
        /// Socket file unlinked on drop (`None` for connections built from a
        /// raw stream).
        path: Option<PathBuf>,
    },
}

impl Connection {
    /// Spawns an in-process worker thread serving the standard loop.
    pub fn spawn_inproc(worker: usize) -> Self {
        Self::spawn_inproc_with(worker, None)
    }

    /// Spawns an in-process worker whose endpoint is wrapped in a
    /// deterministic [`FaultSchedule`] — the repeatable-saboteur variant
    /// the fault-injection battery drives.
    pub fn spawn_inproc_faulty(worker: usize, schedule: FaultSchedule) -> Self {
        Self::spawn_inproc_with(worker, Some(schedule))
    }

    fn spawn_inproc_with(worker: usize, schedule: Option<FaultSchedule>) -> Self {
        let (to_worker, worker_rx) = mpsc::channel::<Frame>();
        let (worker_tx, from_worker) = mpsc::channel::<Frame>();
        std::thread::Builder::new()
            .name(format!("cluster-worker-{worker}"))
            .spawn(move || {
                let ep = ChannelEndpoint {
                    rx: worker_rx,
                    tx: worker_tx,
                };
                // An Err return just drops the endpoint: the driver sees a
                // disconnect, exactly like a process death.
                match schedule {
                    Some(schedule) => {
                        let _ = serve(&mut FaultEndpoint::new(ep, schedule), false);
                    }
                    None => {
                        let mut ep = ep;
                        let _ = serve(&mut ep, false);
                    }
                }
            })
            .expect("spawning an OS thread");
        Self {
            worker,
            inner: ConnInner::InProc {
                tx: to_worker,
                rx: from_worker,
            },
        }
    }

    /// Spawns a `cluster_worker` process connected over a fresh Unix-domain
    /// socket: bind, spawn `cluster_worker --socket <path>`, accept with a
    /// deadline.
    pub fn spawn_socket(worker: usize) -> Result<Self, ClusterError> {
        let path = fresh_socket_path(worker);
        let listener = SocketListener::bind_unix(&path).map_err(|e| ClusterError::Spawn {
            worker,
            detail: format!("binding {}: {e}", path.display()),
        })?;
        let cleanup_path = || {
            let _ = std::fs::remove_file(&path);
        };
        let bin = worker_bin_path().map_err(|detail| {
            cleanup_path();
            ClusterError::Spawn { worker, detail }
        })?;
        let mut child = Command::new(&bin)
            .arg("--socket")
            .arg(listener.path())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| {
                cleanup_path();
                ClusterError::Spawn {
                    worker,
                    detail: format!("{}: {e}", bin.display()),
                }
            })?;
        let child_stderr = child.stderr.take().expect("piped stderr");
        let stderr = Arc::new(Mutex::new(StderrRing::default()));
        let ring = Arc::clone(&stderr);
        let stderr_reader = std::thread::Builder::new()
            .name(format!("cluster-stderr-{worker}"))
            .spawn(move || {
                for line in BufReader::new(child_stderr).lines() {
                    match line {
                        Ok(line) => ring.lock().unwrap().push(line),
                        Err(_) => break,
                    }
                }
            })
            .expect("spawning an OS thread");

        // The worker was told where to connect; give it ACCEPT_TIMEOUT to
        // show up, then clean up the child we spawned for nothing.
        let stream = match listener.accept_timeout(ACCEPT_TIMEOUT) {
            Ok(stream) => stream,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                cleanup_path();
                return Err(ClusterError::Spawn {
                    worker,
                    detail: format!(
                        "worker never connected to {}: {e}; stderr tail:\n{}",
                        path.display(),
                        stderr.lock().unwrap().tail()
                    ),
                });
            }
        };
        Self::from_stream(
            worker,
            stream,
            Some((child, stderr_reader)),
            stderr,
            Some(path),
        )
    }

    /// Wraps an already-accepted socket stream as a connection with no
    /// child process behind it — lifecycle tests use this to play the
    /// driver against hand-rolled fake workers.
    pub fn from_socket_stream(worker: usize, stream: UnixStream) -> Result<Self, ClusterError> {
        Self::from_stream(
            worker,
            stream,
            None,
            Arc::new(Mutex::new(StderrRing::default())),
            None,
        )
    }

    fn from_stream(
        worker: usize,
        stream: UnixStream,
        child: Option<(Child, JoinHandle<()>)>,
        stderr: Arc<Mutex<StderrRing>>,
        path: Option<PathBuf>,
    ) -> Result<Self, ClusterError> {
        let reader = stream.try_clone().map_err(|e| ClusterError::Spawn {
            worker,
            detail: format!("cloning socket stream: {e}"),
        })?;
        let writer = stream.try_clone().map_err(|e| ClusterError::Spawn {
            worker,
            detail: format!("cloning socket stream: {e}"),
        })?;
        let (frame_tx, rx) = mpsc::channel::<Frame>();
        std::thread::Builder::new()
            .name(format!("cluster-socket-{worker}"))
            .spawn(move || {
                let mut reader = BufReader::new(reader);
                while let Ok(Some(frame)) = read_frame(&mut reader) {
                    if frame_tx.send(frame).is_err() {
                        break; // driver dropped the connection
                    }
                }
                // EOF or read error: dropping frame_tx signals disconnect.
            })
            .expect("spawning an OS thread");
        let (child, stderr_reader) = child.unzip();
        Ok(Self {
            worker,
            inner: ConnInner::Socket {
                child,
                writer: BufWriter::new(writer),
                stream,
                rx,
                stderr,
                stderr_reader,
                path,
            },
        })
    }

    /// Worker index this connection leads to.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Last lines of the worker's stderr (always empty for in-process
    /// workers, which share the driver's stderr).
    pub fn stderr_tail(&self) -> String {
        match &self.inner {
            ConnInner::InProc { .. } => String::new(),
            ConnInner::Socket { stderr, .. } => stderr.lock().unwrap().tail(),
        }
    }

    /// OS process id of the worker, when one exists (spawned socket
    /// workers). Lets tests verify spawn-failure cleanup actually reaped
    /// the children.
    pub fn process_id(&self) -> Option<u32> {
        match &self.inner {
            ConnInner::InProc { .. } => None,
            ConnInner::Socket { child, .. } => child.as_ref().map(Child::id),
        }
    }

    /// Reports this worker as dead. A spawned worker is reaped first —
    /// closing its stderr pipe — and the stderr reader joined, so the report
    /// carries the worker's last words instead of racing the reader for
    /// them. The caller drops a group with a dead worker anyway.
    fn died(&mut self) -> ClusterError {
        if let ConnInner::Socket {
            child: Some(child),
            stderr_reader,
            ..
        } = &mut self.inner
        {
            let _ = child.kill();
            let _ = child.wait();
            if let Some(reader) = stderr_reader.take() {
                let _ = reader.join();
            }
        }
        ClusterError::WorkerDied {
            worker: self.worker,
            superstep: None,
            stderr_tail: self.stderr_tail(),
        }
    }

    /// Sends one frame to the worker. A send failure means the worker is
    /// gone and is reported as [`ClusterError::WorkerDied`].
    pub fn send(&mut self, tag: u8, body: &[u8]) -> Result<(), ClusterError> {
        let sent = match &mut self.inner {
            ConnInner::InProc { tx, .. } => tx.send((tag, body.to_vec())).is_ok(),
            ConnInner::Socket { writer, .. } => write_frame(writer, tag, body).is_ok(),
        };
        if sent {
            Ok(())
        } else {
            Err(self.died())
        }
    }

    /// Receives the next frame, waiting at most `timeout`.
    ///
    /// A disconnect (dead process, panicked thread) is
    /// [`ClusterError::WorkerDied`]; an elapsed deadline with the worker
    /// still alive is [`ClusterError::Timeout`] — for processes the child is
    /// polled to tell the two apart. Both carry the stderr tail.
    pub fn recv(&mut self, timeout: Duration) -> Result<Frame, ClusterError> {
        let received = match &self.inner {
            ConnInner::InProc { rx, .. } => rx.recv_timeout(timeout),
            ConnInner::Socket { rx, .. } => rx.recv_timeout(timeout),
        };
        match received {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Disconnected) => Err(self.died()),
            Err(RecvTimeoutError::Timeout) => {
                // A process that died instants ago may still race the pump
                // thread; report a death as a death, not a timeout.
                let child = match &mut self.inner {
                    ConnInner::Socket { child, .. } => child.as_mut(),
                    ConnInner::InProc { .. } => None,
                };
                if let Some(child) = child {
                    if matches!(child.try_wait(), Ok(Some(_))) {
                        return Err(self.died());
                    }
                }
                Err(ClusterError::Timeout {
                    worker: self.worker,
                    superstep: None,
                    timeout_ms: timeout.as_millis() as u64,
                    stderr_tail: self.stderr_tail(),
                })
            }
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        match &mut self.inner {
            ConnInner::InProc { tx, .. } => {
                // Ask the thread to exit; if it already died this is a no-op.
                let _ = tx.send((tag::SHUTDOWN, Vec::new()));
            }
            ConnInner::Socket {
                child,
                writer,
                stream,
                path,
                ..
            } => {
                let _ = write_frame(writer, tag::SHUTDOWN, &[]);
                let _ = writer.flush();
                // Unblock the pump thread's read, then reap and unlink. Give
                // the process no reason to linger: kill unconditionally (a
                // worker that honored Shutdown is already gone).
                let _ = stream.shutdown(Shutdown::Both);
                if let Some(child) = child {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                if let Some(path) = path {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }
}

/// Locates the `cluster_worker` binary.
///
/// `PREDICT_CLUSTER_WORKER` overrides explicitly; otherwise the binary is
/// expected next to the current executable or one directory up — which
/// covers both `target/<profile>/` (bins, examples) and
/// `target/<profile>/deps/` (test binaries).
pub fn worker_bin_path() -> Result<PathBuf, String> {
    if let Some(path) = std::env::var_os("PREDICT_CLUSTER_WORKER") {
        let path = PathBuf::from(path);
        return if path.is_file() {
            Ok(path)
        } else {
            Err(format!(
                "PREDICT_CLUSTER_WORKER points to a missing file: {}",
                path.display()
            ))
        };
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate current exe: {e}"))?;
    let name = format!("cluster_worker{}", std::env::consts::EXE_SUFFIX);
    let mut dir = exe.parent();
    for _ in 0..2 {
        if let Some(d) = dir {
            let candidate = d.join(&name);
            if candidate.is_file() {
                return Ok(candidate);
            }
            dir = d.parent();
        }
    }
    Err(format!(
        "no {name} binary found near {} (build it with `cargo build -p predict_cluster` \
         or set PREDICT_CLUSTER_WORKER)",
        exe.display()
    ))
}

/// A full set of worker connections for one cluster drive, one per worker,
/// in worker order.
pub struct WorkerGroup {
    kind: TransportKind,
    /// One connection per worker, ascending worker index.
    pub connections: Vec<Connection>,
}

impl WorkerGroup {
    /// Spawns a fresh group of `num_workers` workers on `kind`.
    pub fn spawn(kind: TransportKind, num_workers: usize) -> Result<Self, ClusterError> {
        Self::spawn_with(kind, num_workers, |w| match kind {
            TransportKind::InProc => Ok(Connection::spawn_inproc(w)),
            TransportKind::Socket => Connection::spawn_socket(w),
        })
    }

    /// Spawns a group through `factory` (one call per worker index,
    /// ascending). If worker `k` of `N` fails to spawn, the `k` workers
    /// already running are shut down and reaped before the error is
    /// returned — a failed group never leaks processes, threads or socket
    /// files.
    pub fn spawn_with(
        kind: TransportKind,
        num_workers: usize,
        mut factory: impl FnMut(usize) -> Result<Connection, ClusterError>,
    ) -> Result<Self, ClusterError> {
        let mut connections = Vec::with_capacity(num_workers);
        for w in 0..num_workers {
            match factory(w) {
                Ok(conn) => connections.push(conn),
                Err(e) => {
                    // Tear down in reverse spawn order; Connection::drop
                    // sends Shutdown, kills and reaps each worker.
                    while let Some(conn) = connections.pop() {
                        drop(conn);
                    }
                    return Err(e);
                }
            }
        }
        Ok(Self { kind, connections })
    }

    /// The backend this group runs on.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }
}

/// Global pool of idle worker groups, keyed by `(kind, num_workers)`.
///
/// Workers loop back to awaiting `Init` after each episode, so a checked-in
/// group is immediately reusable. Groups that errored mid-drive must be
/// dropped (their protocol state is unknown), which the driver does by
/// simply not checking them back in.
type GroupPool = Mutex<HashMap<(TransportKind, usize), Vec<WorkerGroup>>>;

fn pool() -> &'static GroupPool {
    static POOL: OnceLock<GroupPool> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Takes an idle group from the pool, or spawns a fresh one.
pub fn checkout(kind: TransportKind, num_workers: usize) -> Result<WorkerGroup, ClusterError> {
    let pooled = pool()
        .lock()
        .unwrap()
        .get_mut(&(kind, num_workers))
        .and_then(Vec::pop);
    match pooled {
        Some(group) => Ok(group),
        None => WorkerGroup::spawn(kind, num_workers),
    }
}

/// Returns a healthy group to the pool for the next drive to reuse.
pub fn checkin(group: WorkerGroup) {
    let key = (group.kind, group.connections.len());
    pool().lock().unwrap().entry(key).or_default().push(group);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stderr_ring_keeps_only_the_tail() {
        let mut ring = StderrRing::default();
        for i in 0..(STDERR_TAIL_LINES + 5) {
            ring.push(format!("line {i}"));
        }
        let tail = ring.tail();
        assert!(!tail.contains("line 0\n"));
        assert!(tail.ends_with(&format!("line {}", STDERR_TAIL_LINES + 4)));
        assert_eq!(tail.lines().count(), STDERR_TAIL_LINES);
    }

    #[test]
    fn inproc_worker_disconnect_is_a_death_not_a_timeout() {
        let mut conn = Connection::spawn_inproc(2);
        // An unknown tag makes the worker error out and drop its endpoint.
        conn.send(0x66, &[]).unwrap();
        let err = loop {
            match conn.recv(Duration::from_secs(5)) {
                Ok(_) => continue, // drain the Error frame the worker sends
                Err(e) => break e,
            }
        };
        match err {
            ClusterError::WorkerDied {
                worker,
                superstep,
                stderr_tail,
            } => {
                assert_eq!(worker, 2);
                assert_eq!(superstep, None);
                assert!(stderr_tail.is_empty());
            }
            other => panic!("expected WorkerDied, got {other:?}"),
        }
    }

    #[test]
    fn checkout_prefers_pooled_groups() {
        let group = WorkerGroup::spawn(TransportKind::InProc, 3).unwrap();
        checkin(group);
        let group = checkout(TransportKind::InProc, 3).unwrap();
        assert_eq!(group.connections.len(), 3);
        assert_eq!(group.kind(), TransportKind::InProc);
    }
}
