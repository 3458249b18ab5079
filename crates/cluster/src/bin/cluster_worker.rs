//! Long-lived BSP worker process.
//!
//! Speaks the framed cluster protocol over a stream it connects back to the
//! driver on: `--socket <path>` for the driver's Unix-domain listener,
//! `--tcp <host:port>` for a TCP listener — the same serve loop over either
//! byte stream. Serves episodes until the driver closes the connection or
//! sends `Shutdown`. Diagnostics go to stderr, where the driver tails them
//! into failure reports. Any other invocation — including none at all,
//! which once meant "serve on stdin/stdout" — is a usage error, so a stale
//! launcher fails fast instead of blocking on stdin.

use predict_cluster::socket::{SocketStream, CONNECT_TIMEOUT};
use predict_cluster::{serve, StreamEndpoint};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, addr] if flag == "--socket" || flag == "--tcp" => serve_socket(addr),
        _ => {
            predict_obs::diag!(
                Error,
                "cluster_worker: usage: cluster_worker (--socket <path> | --tcp <host:port>)"
            );
            std::process::exit(2);
        }
    };
    if let Err(message) = result {
        predict_obs::diag!(Error, "cluster_worker: {message}");
        std::process::exit(2);
    }
}

/// Connects back to the driver's listener and serves frames over the
/// stream. The driver binds before spawning this process, so the connect
/// normally succeeds on the first try; `CONNECT_TIMEOUT` bounds the retry
/// loop on a loaded machine.
fn serve_socket(addr: &str) -> Result<(), String> {
    let stream = SocketStream::connect(addr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connecting to driver at {addr}: {e}"))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cloning socket stream: {e}"))?;
    serve(&mut StreamEndpoint::new(reader, stream), true)
}
