//! Long-lived BSP worker process.
//!
//! Speaks the framed cluster protocol over its standard input, which the
//! driver makes the worker's end of a Unix-domain socket pair
//! (`--stdin-socket`). Serves episodes until the driver closes the
//! connection or sends `Shutdown`, then exits with status 0. Diagnostics go
//! to stderr, where the driver tails them into failure reports. Every other
//! end exits with status 2: a protocol violation (after its `Error` frame)
//! or a broken stream, and any invocation but `--stdin-socket` over a
//! socket — no arguments, or a standard input that is a pipe or a file — as
//! a usage error, so a stale launcher fails fast instead of blocking on
//! stdin.

use predict_cluster::{serve, StreamEndpoint};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;

const USAGE: &str = "cluster_worker: usage: cluster_worker --stdin-socket \
                     (standard input must be a Unix-domain socket)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stream = match args.as_slice() {
        [flag] if flag == "--stdin-socket" => stdin_socket(),
        _ => None,
    };
    let Some(stream) = stream else {
        predict_obs::diag!(Error, "{USAGE}");
        std::process::exit(2);
    };
    if let Err(message) = serve_stream(stream) {
        predict_obs::diag!(Error, "cluster_worker: {message}");
        std::process::exit(2);
    }
}

/// Standard input as a socket stream, or `None` when it is not a socket
/// (`local_addr` fails with ENOTSOCK on a pipe or a file).
fn stdin_socket() -> Option<UnixStream> {
    let fd = std::io::stdin().as_fd().try_clone_to_owned().ok()?;
    let stream = UnixStream::from(fd);
    stream.local_addr().ok()?;
    Some(stream)
}

/// Serves frames over `stream` until the driver hangs up.
fn serve_stream(stream: UnixStream) -> Result<(), String> {
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cloning socket stream: {e}"))?;
    serve(&mut StreamEndpoint::new(reader, stream))
}
