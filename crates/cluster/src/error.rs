//! Failure types of the cluster transports.
//!
//! Two layers, two error types. [`WireError`] is a *decode* failure: the
//! bytes of one frame or batch are malformed (truncated, wrong version,
//! unknown tag). [`ClusterError`] is a *drive* failure: a worker process or
//! thread died, hung past the read timeout, or spoke the protocol wrong.
//! Every `ClusterError` names the worker it happened on and, where known, the
//! superstep — plus the tail of the worker's stderr for spawned processes,
//! so a crash in a worker surfaces as a structured report instead of a hang.

use serde::Serialize;
use std::fmt;

/// A malformed byte payload (one wire batch or one frame body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value it promised.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The payload leads with a wire version this build does not speak.
    VersionMismatch {
        /// Version this build encodes and decodes.
        expected: u16,
        /// Version the payload claimed.
        got: u16,
    },
    /// A discriminant byte (enum kind, option flag, frame tag) is unknown.
    BadTag {
        /// What the discriminant selects.
        what: &'static str,
        /// The unknown value.
        tag: u8,
    },
    /// The bytes decoded structurally but describe an invalid value (e.g. a
    /// shard whose offsets contradict its edge count).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { what } => write!(f, "payload truncated while decoding {what}"),
            Self::VersionMismatch { expected, got } => {
                write!(f, "wire version mismatch: expected {expected}, got {got}")
            }
            Self::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            Self::Invalid(detail) => write!(f, "invalid payload: {detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A failed cluster drive: which worker, which superstep, and why.
/// Serializable, so the prediction stack can carry it inside its own error
/// type to whoever reports the failed request.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ClusterError {
    /// The worker process (or thread) could not be started.
    Spawn {
        /// Worker index that failed to start.
        worker: usize,
        /// Underlying failure (usually an I/O error message).
        detail: String,
    },
    /// The worker's connection closed while the driver still expected a
    /// reply — the process exited or the thread panicked mid-superstep.
    WorkerDied {
        /// Worker index that died.
        worker: usize,
        /// Superstep in flight when the connection closed, if any.
        superstep: Option<usize>,
        /// Last lines of the worker process's stderr (empty for in-process
        /// workers, which have no separate stderr stream).
        stderr_tail: String,
    },
    /// The worker sent nothing within the driver's read timeout.
    Timeout {
        /// Worker index that stalled.
        worker: usize,
        /// Superstep in flight when the timeout elapsed, if any.
        superstep: Option<usize>,
        /// The read timeout that elapsed, in milliseconds.
        timeout_ms: u64,
        /// Last lines of the worker process's stderr.
        stderr_tail: String,
    },
    /// The worker replied, but with bytes the protocol does not allow here
    /// (wrong frame tag, undecodable body).
    Protocol {
        /// Worker index that misspoke.
        worker: usize,
        /// What was wrong.
        detail: String,
    },
    /// The worker reported an error of its own through an `Error` frame.
    Remote {
        /// Worker index that reported.
        worker: usize,
        /// The worker's message.
        message: String,
    },
    /// A caller-built group does not have one worker per shard of the
    /// configuration; found before any worker is sent a frame.
    GroupSize {
        /// Workers the configuration shards the graph over.
        expected: usize,
        /// Workers in the group.
        actual: usize,
    },
}

impl ClusterError {
    /// Attaches decode context to a [`WireError`] coming from `worker`.
    pub fn from_wire(worker: usize, err: WireError) -> Self {
        Self::Protocol {
            worker,
            detail: err.to_string(),
        }
    }

    /// Fills in the superstep on errors whose transport layer could not know
    /// it (deaths and timeouts reported without drive context).
    pub fn at_superstep(mut self, s: usize) -> Self {
        if let Self::WorkerDied { superstep, .. } | Self::Timeout { superstep, .. } = &mut self {
            superstep.get_or_insert(s);
        }
        self
    }
}

fn write_superstep(f: &mut fmt::Formatter<'_>, superstep: &Option<usize>) -> fmt::Result {
    match superstep {
        Some(s) => write!(f, " during superstep {s}"),
        None => Ok(()),
    }
}

fn write_stderr_tail(f: &mut fmt::Formatter<'_>, tail: &str) -> fmt::Result {
    if tail.is_empty() {
        Ok(())
    } else {
        write!(f, "; stderr tail:\n{tail}")
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spawn { worker, detail } => {
                write!(f, "failed to spawn cluster worker {worker}: {detail}")
            }
            Self::WorkerDied {
                worker,
                superstep,
                stderr_tail,
            } => {
                write!(f, "cluster worker {worker} died")?;
                write_superstep(f, superstep)?;
                write_stderr_tail(f, stderr_tail)
            }
            Self::Timeout {
                worker,
                superstep,
                timeout_ms,
                stderr_tail,
            } => {
                write!(f, "cluster worker {worker} sent nothing for {timeout_ms}ms")?;
                write_superstep(f, superstep)?;
                write_stderr_tail(f, stderr_tail)
            }
            Self::Protocol { worker, detail } => {
                write!(
                    f,
                    "protocol violation from cluster worker {worker}: {detail}"
                )
            }
            Self::Remote { worker, message } => {
                write!(f, "cluster worker {worker} reported an error: {message}")
            }
            Self::GroupSize { expected, actual } => {
                write!(
                    f,
                    "worker group has {actual} workers, the configuration shards over {expected}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_name_the_worker_and_superstep() {
        let e = ClusterError::WorkerDied {
            worker: 3,
            superstep: Some(7),
            stderr_tail: "thread panicked".into(),
        };
        let text = e.to_string();
        assert!(text.contains("worker 3"));
        assert!(text.contains("superstep 7"));
        assert!(text.contains("thread panicked"));
    }

    #[test]
    fn timeout_without_superstep_omits_the_clause() {
        let e = ClusterError::Timeout {
            worker: 0,
            superstep: None,
            timeout_ms: 250,
            stderr_tail: String::new(),
        };
        let text = e.to_string();
        assert!(text.contains("250ms"));
        assert!(!text.contains("superstep"));
    }

    #[test]
    fn wire_errors_display_their_context() {
        assert!(WireError::Truncated { what: "u32" }
            .to_string()
            .contains("u32"));
        let v = WireError::VersionMismatch {
            expected: 1,
            got: 9,
        };
        assert!(v.to_string().contains("expected 1"));
    }
}
