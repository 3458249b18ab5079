//! Socket plumbing for [`TransportKind::Socket`](crate::TransportKind):
//! the Unix-domain listeners and streams the framed protocol runs over.
//!
//! The driver binds one listener *per worker* at a unique path, spawns the
//! `cluster_worker` binary pointing at it (`--socket <path>`), and accepts
//! exactly one connection. Per-worker paths mean accept order can never
//! confuse worker identities, so the frame protocol itself is byte-for-byte
//! the one the in-process channels carry — the socket is just a byte stream
//! under the same `[len][tag][body]` framing.
//!
//! Binding is defensive about *stale* socket files: a previous driver that
//! was killed leaves its socket path behind (Unix sockets are not unlinked
//! by the OS on process death). [`SocketListener::bind_unix`] probes an
//! `AddrInUse` path with a connect — a refused connection proves the file
//! is stale and it is removed and rebound; an accepted connection proves a
//! live driver owns the path and binding fails with a structured error
//! instead of hijacking it.

use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long the driver waits for a freshly spawned worker to connect to its
/// listener before declaring the spawn failed.
pub const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a worker retries connecting to the driver's address (the driver
/// binds before spawning, so one attempt normally suffices; retries cover a
/// loaded machine).
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Poll interval of the non-blocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// A bound, listening Unix-domain socket awaiting its one worker connection.
/// Its `path` is unlinked when the connection accepted from it shuts down.
#[derive(Debug)]
pub struct SocketListener {
    listener: UnixListener,
    path: PathBuf,
}

impl SocketListener {
    /// Binds a Unix-domain listener at `path`, reclaiming a stale socket
    /// file if one is in the way.
    ///
    /// `AddrInUse` is disambiguated by connecting: a live listener accepts
    /// (bind fails — another driver owns the path), a stale file refuses
    /// (it is removed and the bind retried once).
    pub fn bind_unix(path: &Path) -> io::Result<Self> {
        let listener = match UnixListener::bind(path) {
            Ok(l) => l,
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
                if UnixStream::connect(path).is_ok() {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!(
                            "socket path {} is owned by a live listener (another driver?)",
                            path.display()
                        ),
                    ));
                }
                // Nothing answers: a stale file from a killed driver.
                std::fs::remove_file(path)?;
                UnixListener::bind(path)?
            }
            Err(e) => return Err(e),
        };
        Ok(Self {
            listener,
            path: path.to_path_buf(),
        })
    }

    /// The socket file this listener is bound at — what a worker's
    /// `--socket` flag takes.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Accepts one connection, waiting at most `timeout`.
    ///
    /// Runs a non-blocking accept loop so a worker that never connects
    /// (spawn raced a crash, wrong binary) surfaces as a `TimedOut` error
    /// instead of blocking the driver forever.
    pub fn accept_timeout(&self, timeout: Duration) -> io::Result<UnixStream> {
        let deadline = Instant::now() + timeout;
        self.listener.set_nonblocking(true)?;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no worker connected within {timeout:?}"),
                        ));
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Connects to the listener at `path`, retrying until `timeout` — the
/// worker-side half of the handshake.
pub fn connect(path: &Path, timeout: Duration) -> io::Result<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        e.kind(),
                        format!("connecting to {}: {e}", path.display()),
                    ));
                }
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// A fresh, collision-free socket path for one worker of one group:
/// `<tmp>/predict-cw-<pid>-<n>-w<worker>.sock`. The PID keys concurrent
/// drivers apart, the process-wide counter keys concurrent groups within
/// one driver apart, and the worker index keys workers within a group
/// apart — so accept order never has to disambiguate anything.
pub fn fresh_socket_path(worker: usize) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    std::env::temp_dir().join(format!("predict-cw-{pid}-{n}-w{worker}.sock"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn fresh_paths_never_collide() {
        let a = fresh_socket_path(0);
        let b = fresh_socket_path(0);
        assert_ne!(a, b);
        assert!(a.to_string_lossy().ends_with("-w0.sock"));
    }

    #[test]
    fn unix_round_trip_through_accept_and_connect() {
        let path = fresh_socket_path(7);
        let listener = SocketListener::bind_unix(&path).unwrap();
        let peer_path = listener.path().to_path_buf();
        let peer = std::thread::spawn(move || {
            let mut s = connect(&peer_path, CONNECT_TIMEOUT).unwrap();
            s.write_all(b"ping").unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            buf
        });
        let mut stream = listener.accept_timeout(ACCEPT_TIMEOUT).unwrap();
        let mut buf = [0u8; 4];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        stream.write_all(b"pong").unwrap();
        assert_eq!(&peer.join().unwrap(), b"pong");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn accept_times_out_when_nothing_connects() {
        let path = fresh_socket_path(1);
        let listener = SocketListener::bind_unix(&path).unwrap();
        let err = listener
            .accept_timeout(Duration::from_millis(50))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_socket_file_is_reclaimed_on_bind() {
        let path = fresh_socket_path(2);
        // A listener that dies without unlinking leaves the file behind.
        drop(SocketListener::bind_unix(&path).unwrap());
        assert!(path.exists(), "unix sockets are not unlinked on drop");
        let relisten = SocketListener::bind_unix(&path).unwrap();
        assert_eq!(relisten.path(), path);
        drop(relisten);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn live_listener_is_not_hijacked() {
        let path = fresh_socket_path(3);
        let _live = SocketListener::bind_unix(&path).unwrap();
        let err = SocketListener::bind_unix(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("live listener"));
        std::fs::remove_file(&path).unwrap();
    }
}
