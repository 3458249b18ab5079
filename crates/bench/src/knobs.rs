//! The `PREDICT_*` environment knobs of `predict_bench`, read once per
//! process.
//!
//! Three environment variables tune how the experiments execute without
//! changing their results: `PREDICT_TRANSPORT` (in-memory executor vs the
//! out-of-process cluster driver), `PREDICT_TRACE` (Chrome-trace span
//! export path) and `PREDICT_STORE` (persistent artifact-store directory).
//! A fourth, `PREDICT_SCALE`, picks the size of the dataset analogs the
//! experiments generate. No library crate reads them: this module turns
//! them into the values a library takes explicitly
//! ([`BspConfig::with_transport`], `PredictServiceConfig::store`,
//! [`predict_obs::trace::start_file`], a [`DatasetScale`]).
//!
//! [`Knobs::parse`] is pure (the variables come in through a lookup
//! function), so its tests never touch the process environment. [`knobs`]
//! parses the real environment once and prints one warning per invalid
//! variable, so a typo'd CI line shows up in the log instead of quietly
//! benchmarking the default configuration.
//!
//! [`BspConfig::with_transport`]: predict_bsp::BspConfig::with_transport

use predict_bsp::TransportMode;
use predict_graph::datasets::DatasetScale;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Transport knob: `inmem` (or unset), `inproc` or `socket`.
const TRANSPORT_VAR: &str = "PREDICT_TRANSPORT";
/// Trace-output knob: a file path that, when set, receives a Chrome
/// trace-event JSON dump of every span recorded during the process.
pub const TRACE_VAR: &str = "PREDICT_TRACE";
/// Artifact-store knob: a directory that, when set, persists stage
/// artifacts (samples, sample runs, models, actual runs) across process
/// restarts so a restarted service answers warm.
const STORE_VAR: &str = "PREDICT_STORE";
/// Dataset-scale knob: `small`, `default` or `large`.
pub const SCALE_VAR: &str = "PREDICT_SCALE";

/// The parsed knobs of one process.
#[derive(Debug)]
pub struct Knobs {
    /// The transport every experiment engine runs on.
    pub transport: TransportMode,
    /// Where the trace file goes; `None` leaves tracing off.
    pub trace: Option<PathBuf>,
    /// The artifact-store directory; `None` keeps services memory-only.
    pub store: Option<PathBuf>,
    /// The dataset scale; `None` (unset or invalid) leaves each caller's
    /// own default: `Default` for an experiment, `Small` for the scenarios
    /// `scenario_runner` launches.
    pub scale: Option<DatasetScale>,
}

impl Knobs {
    /// Parses the knobs from `lookup` (variable name to value), returning
    /// them plus one warning per invalid variable. An invalid value falls
    /// back to the default.
    pub fn parse(lookup: impl Fn(&str) -> Option<String>) -> (Self, Vec<String>) {
        let mut warnings = Vec::new();
        let transport = match lookup(TRANSPORT_VAR) {
            None => TransportMode::InMemory,
            Some(raw) => parse_transport(&raw).unwrap_or_else(|| {
                warnings.push(format!(
                    "ignoring invalid {TRANSPORT_VAR}={raw:?} \
                     (expected `inmem`, `inproc` or `socket`); using the default"
                ));
                TransportMode::InMemory
            }),
        };
        let scale = lookup(SCALE_VAR).and_then(|raw| {
            let scale = parse_scale(&raw);
            if scale.is_none() {
                warnings.push(format!(
                    "ignoring invalid {SCALE_VAR}={raw:?} \
                     (expected `small`, `default` or `large`); using the default"
                ));
            }
            scale
        });
        let path = |var| lookup(var).as_deref().and_then(parse_path);
        let knobs = Self {
            transport,
            trace: path(TRACE_VAR),
            store: path(STORE_VAR),
            scale,
        };
        (knobs, warnings)
    }
}

/// The knobs of this process: parsed from the environment on first use,
/// warnings printed then, and cached.
pub fn knobs() -> &'static Knobs {
    static KNOBS: OnceLock<Knobs> = OnceLock::new();
    KNOBS.get_or_init(|| {
        let (knobs, warnings) = Knobs::parse(|var| std::env::var(var).ok());
        for warning in warnings {
            predict_obs::diag!(Warn, "{warning}");
        }
        knobs
    })
}

/// `inmem`/`inmemory` (or blank) selects the in-memory executor; `inproc`
/// and `socket` both serve the versioned wire format over one Unix-domain
/// socket pair per worker, `inproc` with each worker a thread and `socket`
/// with each worker a `cluster_worker --stdin-socket` process. Anything
/// else — including the removed `process` spelling — is invalid (`None`).
fn parse_transport(raw: &str) -> Option<TransportMode> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "inmem" | "inmemory" => Some(TransportMode::InMemory),
        "inproc" => Some(TransportMode::InProc),
        "socket" => Some(TransportMode::Socket),
        _ => None,
    }
}

/// `small`, `default` or `large`, in any case and with surrounding blanks;
/// anything else is invalid (`None`).
fn parse_scale(raw: &str) -> Option<DatasetScale> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "small" => Some(DatasetScale::Small),
        "default" => Some(DatasetScale::Default),
        "large" => Some(DatasetScale::Large),
        _ => None,
    }
}

/// The value of [`SCALE_VAR`] that selects `scale`.
pub fn scale_name(scale: DatasetScale) -> &'static str {
    match scale {
        DatasetScale::Small => "small",
        DatasetScale::Default => "default",
        DatasetScale::Large => "large",
    }
}

/// A non-blank value selects that path; blank leaves the feature off. Any
/// non-blank string is a legal path, so a path knob is never invalid.
fn parse_path(raw: &str) -> Option<PathBuf> {
    let raw = raw.trim();
    (!raw.is_empty()).then(|| PathBuf::from(raw))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses an environment holding only `vars`.
    fn parse(vars: &[(&str, &str)]) -> (Knobs, Vec<String>) {
        Knobs::parse(|var| {
            vars.iter()
                .find(|(name, _)| *name == var)
                .map(|(_, value)| value.to_string())
        })
    }

    fn transport(value: &str) -> TransportMode {
        parse(&[(TRANSPORT_VAR, value)]).0.transport
    }

    #[test]
    fn transport_recognizes_every_backend() {
        assert_eq!(transport("inmem"), TransportMode::InMemory);
        assert_eq!(transport("InMemory"), TransportMode::InMemory);
        assert_eq!(transport("inproc"), TransportMode::InProc);
        assert_eq!(transport("socket"), TransportMode::Socket);
        assert_eq!(parse(&[]).0.transport, TransportMode::InMemory);
        assert_eq!(transport("processes"), TransportMode::InMemory);
    }

    #[test]
    fn the_removed_process_transport_is_an_invalid_value() {
        // `process` (stdin/stdout pipes) was a transport until `socket`
        // replaced it; a leftover setting warns and stays in memory.
        let (knobs, warnings) = parse(&[(TRANSPORT_VAR, "process")]);
        assert_eq!(knobs.transport, TransportMode::InMemory);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("\"process\""), "{warnings:?}");
    }

    #[test]
    fn trace_accepts_paths_and_ignores_blanks() {
        let trace = |value| parse(&[(TRACE_VAR, value)]).0.trace;
        assert_eq!(parse(&[]).0.trace, None);
        assert_eq!(trace(""), None);
        assert_eq!(trace("   "), None);
        assert_eq!(trace("trace.json"), Some(PathBuf::from("trace.json")));
        assert_eq!(
            trace(" target/out.trace.json "),
            Some(PathBuf::from("target/out.trace.json"))
        );
    }

    #[test]
    fn store_accepts_paths_and_ignores_blanks() {
        let store = |value| parse(&[(STORE_VAR, value)]).0.store;
        assert_eq!(parse(&[]).0.store, None);
        assert_eq!(store(""), None);
        assert_eq!(store("  "), None);
        assert_eq!(store(" target/store "), Some(PathBuf::from("target/store")));
    }

    #[test]
    fn scale_recognizes_every_size_and_warns_on_a_typo() {
        let scale = |value| parse(&[(SCALE_VAR, value)]).0.scale;
        assert_eq!(parse(&[]).0.scale, None);
        assert_eq!(scale("small"), Some(DatasetScale::Small));
        assert_eq!(scale(" Default "), Some(DatasetScale::Default));
        assert_eq!(scale("LARGE"), Some(DatasetScale::Large));
        for valid in [
            DatasetScale::Small,
            DatasetScale::Default,
            DatasetScale::Large,
        ] {
            assert_eq!(scale(scale_name(valid)), Some(valid));
        }
        // A typo no longer runs the default scale silently.
        let (knobs, warnings) = parse(&[(SCALE_VAR, "smal")]);
        assert_eq!(knobs.scale, None);
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("PREDICT_SCALE=\"smal\""),
            "{warnings:?}"
        );
    }

    #[test]
    fn warnings_fire_once_per_variable() {
        // One parse per process, one warning per invalid variable: a path
        // knob is never invalid, a bad transport warns exactly once.
        let (_, warnings) = parse(&[
            (TRANSPORT_VAR, "junk"),
            (TRACE_VAR, "junk"),
            (STORE_VAR, "junk"),
        ]);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains(TRANSPORT_VAR), "{warnings:?}");
        let valid = [(TRANSPORT_VAR, "socket"), (STORE_VAR, "dir")];
        assert!(parse(&valid).1.is_empty());
    }
}
