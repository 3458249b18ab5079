//! Driver-side transports: in-process worker threads and worker OS
//! processes, both over one Unix-domain socket pair per worker.
//!
//! A [`Connection`] is the driver's handle to one worker: buffered frame
//! I/O over the driver's end of a `UnixStream::pair()`. Both backends hand
//! the other end to the same serve loop ([`serve`] over a
//! [`StreamEndpoint`]) and differ only in where that loop runs:
//!
//! * [`TransportKind::InProc`] spawns a thread in this process. A panicking
//!   or crashing worker drops its end, which the driver reads as end of
//!   stream — the thread-level analogue of a dead process.
//! * [`TransportKind::Socket`] spawns a long-lived `cluster_worker
//!   --stdin-socket` OS process whose standard input is the worker's end.
//!   A second thread tails the worker's stderr into a bounded ring buffer
//!   that failure reports quote.
//!
//! The driver reads frames itself, under the socket's read timeout, so a
//! receive fails once a worker has been silent for the drive's timeout.
//!
//! Workers survive across runs — after serving one episode they loop back to
//! waiting for the next `Init` — so [`WorkerGroup`]s are pooled globally,
//! keyed by `(kind, num_workers)`, and process spawn cost is paid
//! once, not per prediction run. A group that errors is dropped, never
//! re-pooled.

use crate::endpoint::{Frame, StreamEndpoint};
use crate::error::ClusterError;
use crate::fault::{FaultEndpoint, FaultSchedule};
use crate::protocol::{read_frame, tag, write_frame};
use crate::worker::serve;
use predict_bsp::TransportMode;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, ErrorKind};
use std::os::fd::OwnedFd;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Lines of worker stderr kept for failure reports.
const STDERR_TAIL_LINES: usize = 40;

/// Which backend a [`Connection`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Worker threads in this process.
    InProc,
    /// Worker OS processes.
    Socket,
}

impl TransportKind {
    /// The transport kind `mode` names; `InMemory` has no transport and
    /// returns `None`.
    pub fn from_mode(mode: TransportMode) -> Option<Self> {
        match mode {
            TransportMode::InProc => Some(Self::InProc),
            TransportMode::Socket => Some(Self::Socket),
            TransportMode::InMemory => None,
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

/// The driver's handle to one worker: buffered frame I/O over the driver's
/// end of the worker's socket pair, plus the worker process when there is
/// one.
pub struct Connection {
    worker: usize,
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    process: Option<WorkerProcess>,
}

/// A spawned `cluster_worker` and the thread tailing its stderr.
struct WorkerProcess {
    child: Child,
    stderr: Arc<Mutex<StderrRing>>,
    /// Joined when the worker is reported dead, so the report holds its last
    /// words.
    stderr_reader: Option<JoinHandle<()>>,
}

/// The error of a thread that could not be started for `worker`.
fn thread_spawn_failed(worker: usize, e: std::io::Error) -> ClusterError {
    ClusterError::Spawn {
        worker,
        detail: format!("spawning an OS thread: {e}"),
    }
}

/// A fresh socket pair for `worker`: the driver's end and the worker's.
fn socket_pair(worker: usize) -> Result<(UnixStream, UnixStream), ClusterError> {
    UnixStream::pair().map_err(|e| ClusterError::Spawn {
        worker,
        detail: format!("creating a socket pair: {e}"),
    })
}

impl Connection {
    /// Spawns an in-process worker thread serving the standard loop.
    pub fn spawn_inproc(worker: usize) -> Result<Self, ClusterError> {
        Self::spawn_inproc_with(worker, None)
    }

    /// Spawns an in-process worker whose endpoint is wrapped in a
    /// deterministic [`FaultSchedule`] — the repeatable-saboteur variant
    /// the fault-injection battery drives.
    pub fn spawn_inproc_faulty(
        worker: usize,
        schedule: FaultSchedule,
    ) -> Result<Self, ClusterError> {
        Self::spawn_inproc_with(worker, Some(schedule))
    }

    fn spawn_inproc_with(
        worker: usize,
        schedule: Option<FaultSchedule>,
    ) -> Result<Self, ClusterError> {
        let (driver_end, worker_end) = socket_pair(worker)?;
        let reader = worker_end.try_clone().map_err(|e| ClusterError::Spawn {
            worker,
            detail: format!("cloning socket stream: {e}"),
        })?;
        std::thread::Builder::new()
            .name(format!("cluster-worker-{worker}"))
            .spawn(move || {
                let mut ep = StreamEndpoint::new(reader, worker_end);
                // An Err return just drops the endpoint and closes the
                // worker's end: the driver sees a disconnect, exactly like a
                // process death.
                let _ = match schedule {
                    Some(schedule) => serve(&mut FaultEndpoint::new(ep, schedule)),
                    None => serve(&mut ep),
                };
            })
            .map_err(|e| thread_spawn_failed(worker, e))?;
        Self::from_socket_stream(worker, driver_end)
    }

    /// Spawns a `cluster_worker --stdin-socket` process whose standard input
    /// is the worker's end of a fresh socket pair.
    pub fn spawn_socket(worker: usize) -> Result<Self, ClusterError> {
        let (driver_end, worker_end) = socket_pair(worker)?;
        let mut conn = Self::from_socket_stream(worker, driver_end)?;
        let bin = worker_bin_path().map_err(|detail| ClusterError::Spawn { worker, detail })?;
        // The `Command` is a temporary dropped at the end of this statement,
        // and with it this process's copy of the worker's end: a dead worker
        // must read as end of stream.
        let mut child = Command::new(&bin)
            .arg("--stdin-socket")
            .stdin(OwnedFd::from(worker_end))
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| ClusterError::Spawn {
                worker,
                detail: format!("{}: {e}", bin.display()),
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
            });
        let stderr_reader = match stderr_reader {
            Ok(reader) => reader,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(thread_spawn_failed(worker, e));
            }
        };
        conn.process = Some(WorkerProcess {
            child,
            stderr,
            stderr_reader: Some(stderr_reader),
        });
        Ok(conn)
    }

    /// Wraps the driver's end of a socket stream as a connection with no
    /// child process behind it — tests use this to play the driver against
    /// serve loops and hand-rolled fake workers on the other end.
    pub fn from_socket_stream(worker: usize, stream: UnixStream) -> Result<Self, ClusterError> {
        let writer = stream.try_clone().map_err(|e| ClusterError::Spawn {
            worker,
            detail: format!("cloning socket stream: {e}"),
        })?;
        Ok(Self {
            worker,
            reader: BufReader::new(stream),
            writer: BufWriter::new(writer),
            process: None,
        })
    }

    /// Worker index this connection leads to.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Last lines of the worker's stderr (always empty for workers without a
    /// process, which share the driver's stderr).
    pub fn stderr_tail(&self) -> String {
        self.process
            .as_ref()
            .map_or_else(String::new, |p| p.stderr.lock().unwrap().tail())
    }

    /// OS process id of the worker, when one exists (spawned socket
    /// workers). Lets tests verify spawn-failure cleanup actually reaped
    /// the children.
    pub fn process_id(&self) -> Option<u32> {
        self.process.as_ref().map(|p| p.child.id())
    }

    /// Reports this worker as dead. A spawned worker is reaped first —
    /// closing its stderr pipe — and the stderr reader joined, so the report
    /// carries the worker's last words instead of racing the reader for
    /// them. The caller drops a group with a dead worker anyway.
    fn died(&mut self) -> ClusterError {
        if let Some(process) = &mut self.process {
            let _ = process.child.kill();
            let _ = process.child.wait();
            if let Some(reader) = process.stderr_reader.take() {
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
        write_frame(&mut self.writer, tag, body).map_err(|_| self.died())
    }

    /// Receives the next frame, failing once the worker has been silent for
    /// `timeout`.
    ///
    /// End of stream or a broken stream (dead process, panicked thread) is
    /// [`ClusterError::WorkerDied`]; a silence of `timeout` with the worker
    /// still alive is [`ClusterError::Timeout`] — for processes the child is
    /// polled to tell the two apart. Both carry the stderr tail. A frame cut
    /// off by the timeout is lost, which is harmless: a connection that
    /// errored is never reused.
    pub fn recv(&mut self, timeout: Duration) -> Result<Frame, ClusterError> {
        // A zero read timeout is an error; the shortest allowed one is 1 ns.
        let silence = timeout.max(Duration::from_nanos(1));
        let received = self
            .reader
            .get_ref()
            .set_read_timeout(Some(silence))
            .and_then(|()| read_frame(&mut self.reader));
        match received {
            Ok(Some(frame)) => Ok(frame),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                // A process that died instants ago is a death, not a timeout.
                if let Some(process) = &mut self.process {
                    if matches!(process.child.try_wait(), Ok(Some(_))) {
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
            Ok(None) | Err(_) => Err(self.died()),
        }
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // Ask the worker to exit; if it already died this is a no-op. A
        // thread worker also exits on the end of stream that dropping the
        // driver's end gives it. Give a process no reason to linger: kill
        // it unconditionally (one that honored Shutdown is already gone).
        let _ = write_frame(&mut self.writer, tag::SHUTDOWN, &[]);
        if let Some(process) = &mut self.process {
            let _ = process.child.kill();
            let _ = process.child.wait();
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
            TransportKind::InProc => Connection::spawn_inproc(w),
            TransportKind::Socket => Connection::spawn_socket(w),
        })
    }

    /// Spawns a group through `factory` (one call per worker index,
    /// ascending). If worker `k` of `N` fails to spawn, the `k` workers
    /// already running are shut down and reaped before the error is
    /// returned — a failed group never leaks processes or threads.
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
        let mut conn = Connection::spawn_inproc(2).unwrap();
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
