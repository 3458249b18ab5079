//! Socket plumbing for [`TransportKind::Socket`](crate::TransportKind):
//! listeners and streams the framed protocol runs over.
//!
//! The driver binds one listener *per worker* at a unique address, spawns
//! the `cluster_worker` binary pointing at it (`--socket <path>` /
//! `--tcp <addr>`), and accepts exactly one connection. Per-worker
//! addresses mean accept order can never confuse worker identities, so the
//! frame protocol itself is byte-for-byte the one the in-process channels
//! carry — the socket is just a byte stream under the same
//! `[len][tag][body]` framing.
//!
//! Two address families behind one code path: Unix-domain sockets (the
//! `PREDICT_TRANSPORT=socket` default) and loopback-only TCP
//! ([`SocketListener::bind_tcp_loopback`], exercised by tests and available
//! to multi-machine experiments later). [`SocketStream`] erases the
//! difference for everything above this module.
//!
//! Binding is defensive about *stale* socket files: a previous driver that
//! was killed leaves its socket path behind (Unix sockets are not unlinked
//! by the OS on process death). [`SocketListener::bind_unix`] probes an
//! `AddrInUse` path with a connect — a refused connection proves the file
//! is stale and it is removed and rebound; an accepted connection proves a
//! live driver owns the path and binding fails with a structured error
//! instead of hijacking it.

use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
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

/// A bound, listening socket awaiting its one worker connection.
#[derive(Debug)]
pub enum SocketListener {
    /// Unix-domain listener; `path` is unlinked when the connection that
    /// was accepted from it shuts down.
    Unix {
        /// The listening socket.
        listener: UnixListener,
        /// Filesystem path the socket is bound at.
        path: PathBuf,
    },
    /// Loopback TCP listener.
    Tcp(TcpListener),
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
        Ok(Self::Unix {
            listener,
            path: path.to_path_buf(),
        })
    }

    /// Binds a TCP listener on a kernel-assigned loopback port.
    pub fn bind_tcp_loopback() -> io::Result<Self> {
        Ok(Self::Tcp(TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?))
    }

    /// The address a worker must connect to, in the form the
    /// `cluster_worker` binary's `--socket` / `--tcp` flag takes.
    pub fn connect_addr(&self) -> io::Result<String> {
        match self {
            Self::Unix { path, .. } => Ok(path.display().to_string()),
            Self::Tcp(l) => Ok(l.local_addr()?.to_string()),
        }
    }

    /// The socket file this listener owns, if it is a Unix listener.
    pub fn unix_path(&self) -> Option<&Path> {
        match self {
            Self::Unix { path, .. } => Some(path),
            Self::Tcp(_) => None,
        }
    }

    /// Accepts one connection, waiting at most `timeout`.
    ///
    /// Runs a non-blocking accept loop so a worker that never connects
    /// (spawn raced a crash, wrong binary) surfaces as a `TimedOut` error
    /// instead of blocking the driver forever.
    pub fn accept_timeout(&self, timeout: Duration) -> io::Result<SocketStream> {
        let deadline = Instant::now() + timeout;
        loop {
            let accepted = match self {
                Self::Unix { listener, .. } => {
                    listener.set_nonblocking(true)?;
                    listener.accept().map(|(s, _)| SocketStream::Unix(s))
                }
                Self::Tcp(listener) => {
                    listener.set_nonblocking(true)?;
                    listener.accept().map(|(s, _)| SocketStream::Tcp(s))
                }
            };
            match accepted {
                Ok(stream) => {
                    stream.set_blocking()?;
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

/// One established frame stream, Unix or TCP — `Read`/`Write` either way.
#[derive(Debug)]
pub enum SocketStream {
    /// A Unix-domain stream.
    Unix(UnixStream),
    /// A TCP stream (loopback in this crate's own usage).
    Tcp(TcpStream),
}

impl SocketStream {
    /// Connects to `addr`: a filesystem path (Unix) or `host:port` (TCP),
    /// retrying until `timeout` — the worker-side half of the handshake.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        let is_tcp = addr.parse::<SocketAddr>().is_ok();
        loop {
            let attempt = if is_tcp {
                TcpStream::connect(addr).map(Self::Tcp)
            } else {
                UnixStream::connect(addr).map(Self::Unix)
            };
            match attempt {
                Ok(stream) => {
                    if let Self::Tcp(tcp) = &stream {
                        // Frames are latency-bound request/replies; never
                        // batch them behind Nagle.
                        tcp.set_nodelay(true)?;
                    }
                    return Ok(stream);
                }
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            e.kind(),
                            format!("connecting to {addr}: {e}"),
                        ));
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
            }
        }
    }

    /// An independent handle to the same stream (reads and writes on
    /// different threads).
    pub fn try_clone(&self) -> io::Result<Self> {
        Ok(match self {
            Self::Unix(s) => Self::Unix(s.try_clone()?),
            Self::Tcp(s) => Self::Tcp(s.try_clone()?),
        })
    }

    /// Tears the stream down in both directions, unblocking any thread
    /// mid-read on a clone.
    pub fn shutdown(&self) -> io::Result<()> {
        match self {
            Self::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Self::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    fn set_blocking(&self) -> io::Result<()> {
        match self {
            Self::Unix(s) => {
                s.set_nonblocking(false)?;
            }
            Self::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_nodelay(true)?;
            }
        }
        Ok(())
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.read(buf),
            Self::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Unix(s) => s.write(buf),
            Self::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Unix(s) => s.flush(),
            Self::Tcp(s) => s.flush(),
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
        let addr = listener.connect_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let mut s = SocketStream::connect(&addr, CONNECT_TIMEOUT).unwrap();
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
    fn tcp_loopback_rides_the_same_code_path() {
        let listener = SocketListener::bind_tcp_loopback().unwrap();
        let addr = listener.connect_addr().unwrap();
        assert!(addr.starts_with("127.0.0.1:"));
        let peer = std::thread::spawn(move || {
            let mut s = SocketStream::connect(&addr, CONNECT_TIMEOUT).unwrap();
            s.write_all(b"x").unwrap();
        });
        let mut stream = listener.accept_timeout(ACCEPT_TIMEOUT).unwrap();
        let mut buf = [0u8; 1];
        stream.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x");
        peer.join().unwrap();
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
        assert!(relisten.unix_path().is_some());
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
