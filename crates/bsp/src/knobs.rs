//! Centralized parsing of the `PREDICT_*` environment knobs.
//!
//! Three environment variables tune how the engine executes a run without
//! changing its results: `PREDICT_TRANSPORT` (in-memory executor vs the
//! out-of-process cluster driver), `PREDICT_TRACE` (Chrome-trace span
//! export path) and `PREDICT_STORE` (persistent artifact-store directory).
//! The superstep-phase thread count is not among them: it comes only from
//! [`BspConfig::execution`](crate::config::BspConfig). The knobs used to
//! be parsed ad hoc at each `resolve_*` site, and an invalid value such as
//! `PREDICT_TRANSPORT=sockets` was silently ignored, which made typos
//! indistinguishable from defaults. This module is the one place the knobs
//! are read: every parser falls back to the documented default on an
//! unrecognized value *and* warns once per process per variable on stderr,
//! so a typo'd CI line shows up in the log instead of quietly benchmarking
//! the wrong configuration.
//!
//! The parsing core is pure (`value` comes in as an argument), so the unit
//! tests below never touch the real process environment and cannot race
//! concurrently running tests.

use crate::remote::TransportMode;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;

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

/// Parses the transport knob: `inmem`/`inmemory` (or unset) selects the
/// in-memory executor; `inproc` and `socket` both serve the versioned wire
/// format over one Unix-domain socket pair per worker, `inproc` with each
/// worker a thread and `socket` with each worker a `cluster_worker
/// --stdin-socket` process. Anything else — including the removed `process`
/// spelling — warns and stays in memory. Never returns
/// [`TransportMode::Auto`].
fn parse_transport(var: &str, value: Option<&str>) -> TransportMode {
    let Some(raw) = value else {
        return TransportMode::InMemory;
    };
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "inmem" | "inmemory" => TransportMode::InMemory,
        "inproc" => TransportMode::InProc,
        "socket" => TransportMode::Socket,
        _ => {
            warn_invalid(var, raw, "`inmem`, `inproc` or `socket`");
            TransportMode::InMemory
        }
    }
}

/// Parses a path knob (`PREDICT_TRACE`, `PREDICT_STORE`): a non-empty
/// value selects that path; unset or blank leaves the feature off. Any
/// non-blank string is a legal path, so there is no invalid-value warning.
fn parse_path(value: Option<&str>) -> Option<PathBuf> {
    let raw = value?.trim();
    if raw.is_empty() {
        return None;
    }
    Some(PathBuf::from(raw))
}

fn env(var: &str) -> Option<String> {
    std::env::var(var).ok()
}

/// The transport `PREDICT_TRANSPORT` selects (never `Auto`).
pub fn env_transport() -> TransportMode {
    parse_transport(TRANSPORT_VAR, env(TRANSPORT_VAR).as_deref())
}

/// The Chrome-trace output path `PREDICT_TRACE` selects, `None` when
/// tracing is disabled.
pub fn env_trace_path() -> Option<PathBuf> {
    parse_path(env(TRACE_VAR).as_deref())
}

/// The artifact-store directory `PREDICT_STORE` selects, `None` when
/// persistence is disabled.
pub fn env_store_path() -> Option<PathBuf> {
    parse_path(env(STORE_VAR).as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test uses a unique fake variable name so the warn-once set never
    // couples two tests, and no test mutates the real process environment.

    #[test]
    fn transport_recognizes_every_backend() {
        assert_eq!(
            parse_transport("X_MEM", Some("inmem")),
            TransportMode::InMemory
        );
        assert_eq!(
            parse_transport("X_MEM2", Some("InMemory")),
            TransportMode::InMemory
        );
        assert_eq!(
            parse_transport("X_PROC", Some("inproc")),
            TransportMode::InProc
        );
        assert_eq!(
            parse_transport("X_SOCK", Some("socket")),
            TransportMode::Socket
        );
        assert_eq!(parse_transport("X_UNSET", None), TransportMode::InMemory);
        assert_eq!(
            parse_transport("X_TYPO", Some("processes")),
            TransportMode::InMemory
        );
    }

    #[test]
    fn the_removed_process_transport_is_an_invalid_value() {
        // `process` (stdin/stdout pipes) was a transport until `socket`
        // replaced it; a leftover setting warns once and stays in memory.
        assert_eq!(
            parse_transport("X_LEGACY", Some("process")),
            TransportMode::InMemory
        );
        assert!(warned().lock().unwrap().contains("X_LEGACY"));
    }

    #[test]
    fn trace_accepts_paths_and_ignores_blanks() {
        assert_eq!(parse_path(None), None);
        assert_eq!(parse_path(Some("")), None);
        assert_eq!(parse_path(Some("   ")), None);
        assert_eq!(
            parse_path(Some("trace.json")),
            Some(PathBuf::from("trace.json"))
        );
        assert_eq!(
            parse_path(Some(" target/out.trace.json ")),
            Some(PathBuf::from("target/out.trace.json"))
        );
    }

    #[test]
    fn store_accepts_paths_and_ignores_blanks() {
        assert_eq!(parse_path(None), None);
        assert_eq!(parse_path(Some("")), None);
        assert_eq!(parse_path(Some("  ")), None);
        assert_eq!(
            parse_path(Some(" target/store ")),
            Some(PathBuf::from("target/store"))
        );
    }

    #[test]
    fn warnings_fire_once_per_variable() {
        // The pure parsers route through the shared warn-once set; calling
        // twice with the same variable must not re-insert.
        assert_eq!(
            parse_transport("W_ONCE", Some("junk")),
            TransportMode::InMemory
        );
        let before = warned().lock().unwrap().len();
        assert_eq!(
            parse_transport("W_ONCE", Some("junk")),
            TransportMode::InMemory
        );
        assert_eq!(warned().lock().unwrap().len(), before);
        assert!(warned().lock().unwrap().contains("W_ONCE"));
    }
}
