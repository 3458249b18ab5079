//! Centralized parsing of the `PREDICT_*` environment knobs.
//!
//! Five environment variables tune how the engine executes a run without
//! changing its results: `PREDICT_THREADS` (superstep-phase thread count),
//! `PREDICT_STORAGE` (unified vs sharded graph layout), `PREDICT_TRANSPORT`
//! (in-memory executor vs the out-of-process cluster driver),
//! `PREDICT_TRACE` (Chrome-trace span export path) and `PREDICT_STORE`
//! (persistent artifact-store directory). They used to
//! be parsed ad hoc at each `resolve_*` site, and an invalid value —
//! `PREDICT_THREADS=fast`, `PREDICT_STORAGE=shard` — was silently ignored,
//! which made typos indistinguishable from defaults. This module is the one
//! place the knobs are read: every parser falls back to the documented
//! default on an unrecognized value *and* warns once per process per
//! variable on stderr, so a typo'd CI line shows up in the log instead of
//! quietly benchmarking the wrong configuration.
//!
//! The parsing core is pure (`value` comes in as an argument), so the unit
//! tests below never touch the real process environment and cannot race
//! concurrently running tests.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;

/// Thread-count knob honored by
/// [`ExecutionMode::Auto`](crate::config::ExecutionMode).
pub const THREADS_VAR: &str = "PREDICT_THREADS";
/// Storage-layout knob honored by
/// [`StorageMode::Auto`](crate::storage::StorageMode).
pub const STORAGE_VAR: &str = "PREDICT_STORAGE";
/// Transport knob honored by
/// [`TransportMode::Auto`](crate::remote::TransportMode).
pub const TRANSPORT_VAR: &str = "PREDICT_TRANSPORT";
/// Trace-output knob honored by `predict_bench::observability_guard`: a
/// file path that, when set, receives a Chrome trace-event JSON dump of
/// every span recorded during the process.
pub const TRACE_VAR: &str = "PREDICT_TRACE";
/// Artifact-store knob honored by `predict_core`'s
/// `PredictServiceConfig`: a directory that, when set, persists stage
/// artifacts (samples, sample runs, models, actual runs) across process
/// restarts so a restarted service answers warm.
pub const STORE_VAR: &str = "PREDICT_STORE";

/// Variables that have already produced an invalid-value warning in this
/// process. One warning per variable keeps a scenario sweep (thousands of
/// resolve calls) from flooding stderr while still surfacing the typo.
fn warned() -> &'static Mutex<BTreeSet<String>> {
    static WARNED: std::sync::OnceLock<Mutex<BTreeSet<String>>> = std::sync::OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Emits the invalid-value warning for `var` unless it was already warned
/// about in this process.
fn warn_invalid(var: &str, value: &str, expected: &str) {
    let mut seen = warned().lock().unwrap_or_else(|e| e.into_inner());
    if seen.insert(var.to_string()) {
        predict_obs::diag!(
            Warn,
            "ignoring invalid {var}={value:?} (expected {expected}); \
             using the default"
        );
    }
}

/// Parses a positive thread count from `value`; `None` when the variable is
/// unset, `Err` semantics folded into `None` + warning on garbage (`0`,
/// `fast`, …).
fn parse_threads(var: &str, value: Option<&str>) -> Option<usize> {
    let raw = value?;
    match raw.trim().parse::<usize>() {
        Ok(t) if t > 0 => Some(t),
        _ => {
            warn_invalid(var, raw, "a positive integer");
            None
        }
    }
}

/// Parses the storage knob: `sharded` selects sharded storage, unset or
/// `unified` selects unified; anything else warns and selects unified.
fn parse_storage(var: &str, value: Option<&str>) -> bool {
    let Some(raw) = value else { return false };
    match raw.trim().to_ascii_lowercase().as_str() {
        "sharded" => true,
        "" | "unified" => false,
        _ => {
            warn_invalid(var, raw, "`sharded` or `unified`");
            false
        }
    }
}

/// The transport choices `PREDICT_TRANSPORT` can select between (the
/// resolved form of [`TransportMode`](crate::remote::TransportMode)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportChoice {
    /// The in-memory executor (no transport boundary at all).
    #[default]
    InMemory,
    /// Channel-connected in-process worker threads speaking the wire format.
    InProc,
    /// Long-lived OS worker processes speaking the wire format over
    /// length-prefixed frame streams on Unix-domain sockets.
    Socket,
}

impl TransportChoice {
    /// The knob spelling of this choice, for reports and log lines.
    pub fn name(self) -> &'static str {
        match self {
            Self::InMemory => "inmem",
            Self::InProc => "inproc",
            Self::Socket => "socket",
        }
    }
}

/// Parses the transport knob: `inmem`/`inmemory` (or unset) selects the
/// in-memory executor, `inproc` the channel transport, `socket` the
/// Unix-domain socket transport; anything else — including the removed
/// `process` spelling — warns and stays in memory.
fn parse_transport(var: &str, value: Option<&str>) -> TransportChoice {
    let Some(raw) = value else {
        return TransportChoice::InMemory;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "inmem" | "inmemory" => TransportChoice::InMemory,
        "inproc" => TransportChoice::InProc,
        "socket" => TransportChoice::Socket,
        _ => {
            warn_invalid(var, raw, "`inmem`, `inproc` or `socket`");
            TransportChoice::InMemory
        }
    }
}

/// Parses the trace knob: a non-empty path selects Chrome-trace export to
/// that file; unset or blank disables tracing. Any non-blank string is a
/// legal path, so this parser has no invalid-value warning.
fn parse_trace(value: Option<&str>) -> Option<PathBuf> {
    let raw = value?.trim();
    if raw.is_empty() {
        return None;
    }
    Some(PathBuf::from(raw))
}

/// Parses the store knob: a non-empty path selects a persistent artifact
/// store rooted at that directory; unset or blank keeps artifacts in memory
/// only. Like the trace knob, any non-blank string is a legal path, so
/// there is no invalid-value warning.
fn parse_store(value: Option<&str>) -> Option<PathBuf> {
    let raw = value?.trim();
    if raw.is_empty() {
        return None;
    }
    Some(PathBuf::from(raw))
}

fn env(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// `PREDICT_THREADS` as a positive thread count, `None` when unset or
/// invalid (invalid values warn once).
pub fn env_threads() -> Option<usize> {
    parse_threads(THREADS_VAR, env(THREADS_VAR).as_deref())
}

/// Whether `PREDICT_STORAGE` selects sharded storage.
pub fn env_storage_sharded() -> bool {
    parse_storage(STORAGE_VAR, env(STORAGE_VAR).as_deref())
}

/// The transport `PREDICT_TRANSPORT` selects.
pub fn env_transport() -> TransportChoice {
    parse_transport(TRANSPORT_VAR, env(TRANSPORT_VAR).as_deref())
}

/// The Chrome-trace output path `PREDICT_TRACE` selects, `None` when
/// tracing is disabled.
pub fn env_trace_path() -> Option<PathBuf> {
    parse_trace(env(TRACE_VAR).as_deref())
}

/// The artifact-store directory `PREDICT_STORE` selects, `None` when
/// persistence is disabled.
pub fn env_store_path() -> Option<PathBuf> {
    parse_store(env(STORE_VAR).as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses a unique fake variable name so the warn-once set never
    // couples two tests, and no test mutates the real process environment.

    #[test]
    fn threads_accepts_positive_integers() {
        assert_eq!(parse_threads("T_OK", Some("4")), Some(4));
        assert_eq!(parse_threads("T_OK2", Some(" 12 ")), Some(12));
        assert_eq!(parse_threads("T_UNSET", None), None);
    }

    #[test]
    fn threads_rejects_zero_and_garbage() {
        assert_eq!(parse_threads("T_ZERO", Some("0")), None);
        assert_eq!(parse_threads("T_WORD", Some("fast")), None);
        assert_eq!(parse_threads("T_NEG", Some("-3")), None);
    }

    #[test]
    fn storage_recognizes_sharded_and_unified() {
        assert!(parse_storage("S_OK", Some("sharded")));
        assert!(parse_storage("S_CASE", Some(" ShArDeD ")));
        assert!(!parse_storage("S_UNI", Some("unified")));
        assert!(!parse_storage("S_UNSET", None));
        assert!(!parse_storage("S_TYPO", Some("shard")));
    }

    #[test]
    fn transport_recognizes_every_backend() {
        assert_eq!(
            parse_transport("X_MEM", Some("inmem")),
            TransportChoice::InMemory
        );
        assert_eq!(
            parse_transport("X_MEM2", Some("InMemory")),
            TransportChoice::InMemory
        );
        assert_eq!(
            parse_transport("X_PROC", Some("inproc")),
            TransportChoice::InProc
        );
        assert_eq!(
            parse_transport("X_SOCK", Some("socket")),
            TransportChoice::Socket
        );
        assert_eq!(TransportChoice::Socket.name(), "socket");
        assert_eq!(parse_transport("X_UNSET", None), TransportChoice::InMemory);
        assert_eq!(
            parse_transport("X_TYPO", Some("processes")),
            TransportChoice::InMemory
        );
    }

    #[test]
    fn the_removed_process_transport_is_an_invalid_value() {
        // `process` (stdin/stdout pipes) was a transport until `socket`
        // replaced it; a leftover setting warns once and stays in memory.
        assert_eq!(
            parse_transport("X_LEGACY", Some("process")),
            TransportChoice::InMemory
        );
        assert!(warned().lock().unwrap().contains("X_LEGACY"));
    }

    #[test]
    fn trace_accepts_paths_and_ignores_blanks() {
        assert_eq!(parse_trace(None), None);
        assert_eq!(parse_trace(Some("")), None);
        assert_eq!(parse_trace(Some("   ")), None);
        assert_eq!(
            parse_trace(Some("trace.json")),
            Some(PathBuf::from("trace.json"))
        );
        assert_eq!(
            parse_trace(Some(" target/out.trace.json ")),
            Some(PathBuf::from("target/out.trace.json"))
        );
    }

    #[test]
    fn store_accepts_paths_and_ignores_blanks() {
        assert_eq!(parse_store(None), None);
        assert_eq!(parse_store(Some("")), None);
        assert_eq!(parse_store(Some("  ")), None);
        assert_eq!(
            parse_store(Some(" target/store ")),
            Some(PathBuf::from("target/store"))
        );
    }

    #[test]
    fn warnings_fire_once_per_variable() {
        // The pure parsers route through the shared warn-once set; calling
        // twice with the same variable must not re-insert.
        assert_eq!(parse_threads("W_ONCE", Some("junk")), None);
        let before = warned().lock().unwrap().len();
        assert_eq!(parse_threads("W_ONCE", Some("junk")), None);
        assert_eq!(warned().lock().unwrap().len(), before);
        assert!(warned().lock().unwrap().contains("W_ONCE"));
    }
}
