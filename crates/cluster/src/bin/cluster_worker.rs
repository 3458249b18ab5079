//! Long-lived BSP worker process.
//!
//! Speaks the framed cluster protocol over the Unix-domain socket it
//! connects back to the driver on (`--socket <path>`). Serves episodes
//! until the driver closes the connection or sends `Shutdown`. Diagnostics
//! go to stderr, where the driver tails them into failure reports. Any other
//! invocation — including none at all, which once meant "serve on
//! stdin/stdout" — is a usage error, so a stale launcher fails fast instead
//! of blocking on stdin.

use predict_cluster::socket::{connect, CONNECT_TIMEOUT};
use predict_cluster::{serve, StreamEndpoint};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [flag, path] if flag == "--socket" => serve_socket(Path::new(path)),
        _ => {
            predict_obs::diag!(
                Error,
                "cluster_worker: usage: cluster_worker --socket <path>"
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
fn serve_socket(path: &Path) -> Result<(), String> {
    let stream = connect(path, CONNECT_TIMEOUT)
        .map_err(|e| format!("connecting to driver at {}: {e}", path.display()))?;
    let reader = stream
        .try_clone()
        .map_err(|e| format!("cloning socket stream: {e}"))?;
    serve(&mut StreamEndpoint::new(reader, stream), true)
}
