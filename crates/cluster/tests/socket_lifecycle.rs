//! Socket-transport lifecycle tests: what the driver reports when a socket
//! worker misbehaves *around* the protocol rather than inside it.
//!
//! Fake peers stand in for workers via [`Connection::from_socket_stream`] on
//! one end of a socket pair, so each failure mode is exact and repeatable:
//! a peer that dies before `INIT` must surface as
//! [`ClusterError::WorkerDied`], a peer that never speaks must surface as
//! [`ClusterError::Timeout`], a killed worker process must read as a death
//! at once, a worker that fails must be reported with the tail of its
//! stderr, and a group whose spawn fails partway must reap every process it
//! already created.
//!
//! Lives in `tests/` of the `predict_cluster` package so cargo builds the
//! `cluster_worker` binary first — several tests spawn real workers.

use predict_algorithms::{PageRank, PageRankParams};
use predict_bsp::BspConfig;
use predict_cluster::{
    drive_on, ClusterError, Connection, DriveOptions, ProgramSpec, TransportKind, WorkerGroup,
};
use predict_graph::generators::{generate_rmat, RmatConfig};
use predict_graph::CsrGraph;
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn test_graph() -> CsrGraph {
    generate_rmat(&RmatConfig::new(7, 5).with_seed(3))
}

fn single_worker_config() -> BspConfig {
    BspConfig {
        num_workers: 1,
        ..BspConfig::default()
    }
}

/// Wraps one end of a socket pair as a one-worker group; `peer` runs on its
/// own thread with the other end.
fn group_with_fake_peer(
    peer: impl FnOnce(UnixStream) + Send + 'static,
) -> (WorkerGroup, std::thread::JoinHandle<()>) {
    let (driver_end, peer_end) = UnixStream::pair().expect("creating a socket pair");
    let handle = std::thread::spawn(move || peer(peer_end));
    let conn = Connection::from_socket_stream(0, driver_end).expect("wrapping the driver's end");
    let mut conn = Some(conn);
    let group = WorkerGroup::spawn_with(TransportKind::Socket, 1, |_| {
        Ok(conn.take().expect("single worker"))
    })
    .expect("building a one-connection group");
    (group, handle)
}

/// A worker that dies before ever answering `INIT` must be reported as a
/// death, not a timeout or a hang.
#[test]
fn peer_death_before_init_surfaces_as_worker_died() {
    let (group, handle) = group_with_fake_peer(|stream| {
        // Vanish: close both directions and exit.
        let _ = stream.shutdown(Shutdown::Both);
    });

    let graph = test_graph();
    let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
    let opts = DriveOptions::new(TransportKind::Socket);
    let err = drive_on(
        &PageRank::new(params),
        &ProgramSpec::PageRank { params },
        &[],
        &graph,
        &single_worker_config(),
        &opts,
        group,
    )
    .expect_err("a dead peer cannot complete a drive");
    handle.join().expect("fake peer thread exits");

    match err {
        ClusterError::WorkerDied { worker, .. } => assert_eq!(worker, 0),
        other => panic!("expected WorkerDied, got {other:?}"),
    }
}

/// A worker that holds its end open but never responds must trip the
/// driver's recv timeout — and be reported as a timeout, since the peer is
/// still alive.
#[test]
fn unresponsive_peer_surfaces_as_timeout() {
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (group, handle) = group_with_fake_peer(move |stream| {
        // Hold the stream open without reading or writing until released.
        let _ = release_rx.recv();
        drop(stream);
    });

    let graph = test_graph();
    let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
    let mut opts = DriveOptions::new(TransportKind::Socket);
    opts.timeout = Duration::from_millis(300);
    let err = drive_on(
        &PageRank::new(params),
        &ProgramSpec::PageRank { params },
        &[],
        &graph,
        &single_worker_config(),
        &opts,
        group,
    )
    .expect_err("a mute peer cannot complete a drive");
    release_tx.send(()).expect("releasing the fake peer");
    handle.join().expect("fake peer thread exits");

    match err {
        ClusterError::Timeout {
            worker, timeout_ms, ..
        } => {
            assert_eq!(worker, 0);
            assert_eq!(timeout_ms, 300);
        }
        other => panic!("expected Timeout, got {other:?}"),
    }
}

/// A worker process killed while the driver waits on it must read as a
/// death as soon as it is gone, not after the receive timeout: no copy of
/// the worker's end of the socket pair may stay open in the driver.
#[test]
fn killed_socket_worker_reads_as_a_death_at_once() {
    let mut conn = Connection::spawn_socket(0).expect("spawning a socket worker");
    let pid = conn.process_id().expect("socket workers are processes");
    let killed = std::process::Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .status()
        .expect("running kill");
    assert!(killed.success(), "kill -KILL {pid} failed");
    let start = Instant::now();
    let err = conn
        .recv(Duration::from_secs(30))
        .expect_err("a killed worker sends nothing");
    let waited = start.elapsed();
    assert!(
        matches!(err, ClusterError::WorkerDied { worker: 0, .. }),
        "expected WorkerDied, got {err:?}"
    );
    assert!(waited < Duration::from_secs(5), "took {waited:?}");
}

/// A socket worker that meets a protocol violation says why on its stderr
/// and exits; the driver reports the death with those last words.
#[test]
fn failed_socket_worker_reports_its_stderr_tail() {
    let mut conn = Connection::spawn_socket(0).expect("spawning a socket worker");
    conn.send(0x66, &[]).expect("sending an unknown tag");
    let (tag, _) = conn
        .recv(Duration::from_secs(30))
        .expect("the worker answers with an error frame");
    assert_eq!(tag, predict_cluster::protocol::tag::ERROR);
    match conn.recv(Duration::from_secs(30)) {
        Err(ClusterError::WorkerDied {
            worker: 0,
            stderr_tail,
            ..
        }) => assert!(
            stderr_tail.contains("unexpected frame tag"),
            "stderr tail must quote the worker's last words, got: {stderr_tail:?}"
        ),
        other => panic!("expected WorkerDied, got {other:?}"),
    }
}

/// Waits for `/proc/<pid>` to disappear; panics if the process is still
/// around after ~2s. `Drop` kills *and reaps* children, so a clean group
/// teardown leaves no trace in the process table.
fn assert_process_gone(pid: u32) {
    let path = format!("/proc/{pid}");
    for _ in 0..200 {
        if !std::path::Path::new(&path).exists() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("worker process {pid} still exists after group spawn failure");
}

/// Pins the `WorkerGroup::spawn` partial-failure fix: when spawning worker N
/// fails, workers 0..N that already started must be killed and reaped, not
/// leaked.
#[test]
fn partial_spawn_failure_reaps_already_spawned_processes() {
    let mut pids = Vec::new();
    let group = WorkerGroup::spawn_with(TransportKind::Socket, 3, |w| {
        if w == 2 {
            return Err(ClusterError::Spawn {
                worker: 2,
                detail: "injected spawn failure".into(),
            });
        }
        let conn = Connection::spawn_socket(w)?;
        pids.push(conn.process_id().expect("socket transport has a pid"));
        Ok(conn)
    });
    let err = match group {
        Err(e) => e,
        Ok(_) => panic!("factory failure must fail the group"),
    };

    match err {
        ClusterError::Spawn { worker, detail } => {
            assert_eq!(worker, 2);
            assert!(detail.contains("injected spawn failure"));
        }
        other => panic!("expected Spawn, got {other:?}"),
    }
    assert_eq!(pids.len(), 2, "two workers spawned before the failure");
    for pid in pids {
        assert_process_gone(pid);
    }
}

/// `cluster_worker` serves only a socket handed to it as standard input.
/// With no arguments, or with `--stdin-socket` over a piped standard input,
/// it must fail fast with a usage message instead of blocking on a stdin
/// nobody writes to.
#[test]
fn worker_without_arguments_prints_usage_and_exits_2() {
    use std::io::Read;
    use std::process::{Command, Stdio};
    let bin = predict_cluster::worker_bin_path().expect("cargo built cluster_worker");
    let no_args: &[&str] = &[];
    for args in [no_args, &["--stdin-socket"]] {
        let mut child = Command::new(&bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning cluster_worker");
        // Held open for the whole wait: a worker that reads stdin would block.
        let _stdin = child.stdin.take();
        let mut status = None;
        for _ in 0..500 {
            status = child.try_wait().expect("polling cluster_worker");
            if status.is_some() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let Some(status) = status else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("cluster_worker {args:?} on a pipe is still running after 5 s");
        };
        assert_eq!(status.code(), Some(2), "args {args:?}");
        let mut stderr = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("reading stderr");
        assert!(
            stderr.contains("usage: cluster_worker"),
            "args {args:?}, got: {stderr:?}"
        );
    }
}
