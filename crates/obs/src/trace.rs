//! Span-based tracer with Chrome trace-event export.
//!
//! A span is an RAII guard ([`SpanGuard`]) around a named scope: opening it
//! records a monotonic start timestamp, dropping it (including during a
//! panic unwind) records the duration and appends one completed
//! [`TraceEvent`] to the process-wide sink. Nesting comes for free from a
//! thread-local depth counter — spans opened while another span is live on
//! the same thread render inside it, which is also how Chrome's trace
//! viewer stacks complete events that share a `tid`.
//!
//! # Cost model
//!
//! Tracing is **disabled by default**. A disabled [`span`] call performs
//! exactly one relaxed atomic load and returns an empty guard whose drop is
//! a no-op — no timestamp, no allocation, no lock. The repository benchmark
//! measures it (`obs.span_noop_ns`). Enabled spans take one `Instant` read
//! at open and a short mutex-guarded push at close.
//!
//! # Export
//!
//! [`write_chrome_trace`] renders collected events as Chrome trace-event
//! JSON (`{"traceEvents": [{"ph": "X", ...}]}`), loadable in
//! `chrome://tracing` and Perfetto. [`start_file`] returns a [`TraceGuard`]
//! that enables tracing and flushes the file (with the current metrics
//! snapshot embedded under a `"metrics"` key) when dropped — the flush hook
//! `predict_bench::observability_guard` installs when `PREDICT_TRACE` is
//! set. Timestamps are relative to a process-start epoch, so a trace's
//! first event sits near zero regardless of when tracing was switched on.

use crate::metrics::MetricsSnapshot;
use serde::Value;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether spans are recorded. One relaxed load on every [`span`] call.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Monotonic epoch all span timestamps are measured from. Initialized on
/// first use (at latest when tracing is enabled).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stable per-thread id for trace events (dense, assigned on first span).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Current span-stack depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// True when spans are currently recorded.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off. Usually reached through [`start_file`];
/// exposed for tests and embedders with their own export path.
pub fn set_enabled(on: bool) {
    if on {
        epoch(); // anchor timestamps before the first span opens
    }
    ENABLED.store(on, Ordering::SeqCst);
}

/// One argument value attached to a span, rendered into the Chrome trace
/// `args` object.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// An unsigned integer argument.
    U64(u64),
    /// A float argument.
    F64(f64),
    /// A string argument.
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        Self::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        Self::Str(v)
    }
}

/// One completed span, in the shape Chrome's `"ph": "X"` events need.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (e.g. `service.request`, `bsp.superstep`).
    pub name: String,
    /// Nanoseconds from the process epoch to span open.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Thread the span ran on (dense tracer-assigned id, not the OS tid).
    pub tid: u64,
    /// Nesting depth at open (0 = top-level on its thread).
    pub depth: u32,
    /// Arguments attached via [`SpanGuard::arg`] / [`SpanGuard::set_arg`].
    pub args: Vec<(&'static str, ArgValue)>,
}

fn sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

/// Drains and returns every event recorded so far.
pub fn take_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *sink().lock().unwrap_or_else(|e| e.into_inner()))
}

/// Live state of an enabled span; absent entirely when tracing is off.
struct ActiveSpan {
    name: &'static str,
    start_ns: u64,
    depth: u32,
    args: Vec<(&'static str, ArgValue)>,
}

/// RAII span handle returned by [`span`]. Records one [`TraceEvent`] when
/// dropped — which happens on panic unwind too, so a span that dies
/// mid-flight still appears in the trace with the time it actually spent.
pub struct SpanGuard {
    /// Boxed so a disabled guard is a single pointer-sized `None`.
    active: Option<Box<ActiveSpan>>,
}

/// Opens a span named `name`. When tracing is disabled this is a no-op
/// costing one relaxed atomic load.
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard { active: None };
    }
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard {
        active: Some(Box::new(ActiveSpan {
            name,
            start_ns: now_ns(),
            depth,
            args: Vec::new(),
        })),
    }
}

impl SpanGuard {
    /// Attaches an argument (builder style). No-op when tracing is off.
    pub fn arg(mut self, key: &'static str, value: impl Into<ArgValue>) -> Self {
        self.set_arg(key, value);
        self
    }

    /// Attaches an argument to a live span — for values only known after
    /// the span opened (e.g. per-worker compute times collected at a
    /// superstep barrier). No-op when tracing is off.
    pub fn set_arg(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if let Some(active) = &mut self.active {
            active.args.push((key, value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let end_ns = now_ns();
        DEPTH.with(|d| d.set(active.depth));
        let event = TraceEvent {
            name: active.name.to_string(),
            start_ns: active.start_ns,
            dur_ns: end_ns.saturating_sub(active.start_ns),
            tid: TID.with(|t| *t),
            depth: active.depth,
            args: active.args,
        };
        sink().lock().unwrap_or_else(|e| e.into_inner()).push(event);
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export.

fn arg_value_json(value: &ArgValue) -> Value {
    match value {
        ArgValue::U64(v) => Value::UInt(*v),
        ArgValue::F64(v) => Value::Float(*v),
        ArgValue::Str(v) => Value::Str(v.clone()),
    }
}

fn event_json(event: &TraceEvent) -> Value {
    // Chrome expects microsecond timestamps; fractional values are allowed,
    // so nanosecond precision survives the conversion.
    let mut entries = vec![
        ("name".to_string(), Value::Str(event.name.clone())),
        ("cat".to_string(), Value::Str("predict".to_string())),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), Value::Float(event.start_ns as f64 / 1e3)),
        ("dur".to_string(), Value::Float(event.dur_ns as f64 / 1e3)),
        ("pid".to_string(), Value::UInt(1)),
        ("tid".to_string(), Value::UInt(event.tid)),
    ];
    if !event.args.is_empty() {
        let args = event
            .args
            .iter()
            .map(|(k, v)| (k.to_string(), arg_value_json(v)))
            .collect();
        entries.push(("args".to_string(), Value::Map(args)));
    }
    Value::Map(entries)
}

/// Writes `events` to `path` as Chrome trace-event JSON. When `metrics` is
/// given, the snapshot is embedded under a top-level `"metrics"` key —
/// trace viewers ignore unknown top-level keys, while `trace_view` renders
/// the table from it.
pub fn write_chrome_trace(
    path: &Path,
    events: &[TraceEvent],
    metrics: Option<&MetricsSnapshot>,
) -> std::io::Result<()> {
    let mut entries = vec![(
        "traceEvents".to_string(),
        Value::Seq(events.iter().map(event_json).collect()),
    )];
    if let Some(snapshot) = metrics {
        entries.push(("metrics".to_string(), serde_json::to_value(snapshot)));
    }
    let json = serde_json::to_string(&Value::Map(entries))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, json)
}

/// Flush guard returned by [`start_file`]: tracing is live while it exists;
/// dropping it disables tracing and writes the Chrome trace file (with the
/// global metrics snapshot embedded).
pub struct TraceGuard {
    path: PathBuf,
}

/// Enables tracing and returns a guard that flushes every recorded span to
/// `path` as Chrome trace-event JSON when dropped. Events recorded before
/// the call (from an earlier, already-flushed guard) are discarded so the
/// file holds exactly this guard's window.
pub fn start_file(path: impl Into<PathBuf>) -> TraceGuard {
    let _ = take_events();
    set_enabled(true);
    TraceGuard { path: path.into() }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        set_enabled(false);
        let events = take_events();
        let snapshot = crate::metrics::registry().snapshot();
        if let Err(e) = write_chrome_trace(&self.path, &events, Some(&snapshot)) {
            crate::diag!(
                Warn,
                "could not write trace file {}: {e}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer's enabled flag and sink are process-global; every test
    /// that flips them holds this lock so parallel test threads cannot
    /// observe each other's spans.
    fn trace_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = trace_lock();
        set_enabled(false);
        let _ = take_events();
        {
            let _a = span("outer");
            let _b = span("inner").arg("k", 1u64);
        }
        assert!(take_events().is_empty());
    }

    #[test]
    fn enabled_spans_record_nesting_depth_and_order() {
        let _lock = trace_lock();
        let _ = take_events();
        set_enabled(true);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner").arg("superstep", 3u64);
            }
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(events.len(), 2);
        // Inner closes first, so it is recorded first.
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[0].depth, 1);
        assert_eq!(events[0].args, vec![("superstep", ArgValue::U64(3))]);
        assert_eq!(events[1].name, "outer");
        assert_eq!(events[1].depth, 0);
        assert_eq!(events[0].tid, events[1].tid);
        // The inner span nests inside the outer span's interval.
        assert!(events[0].start_ns >= events[1].start_ns);
        assert!(events[0].start_ns + events[0].dur_ns <= events[1].start_ns + events[1].dur_ns);
    }

    #[test]
    fn a_panicking_scope_still_records_its_span_and_restores_depth() {
        let _lock = trace_lock();
        let _ = take_events();
        set_enabled(true);
        let result = std::panic::catch_unwind(|| {
            let _span = span("doomed");
            panic!("unwind through the span");
        });
        assert!(result.is_err());
        // Depth unwound: a fresh span on this thread is top-level again.
        {
            let _after = span("after");
        }
        set_enabled(false);
        let events = take_events();
        let doomed = events.iter().find(|e| e.name == "doomed").unwrap();
        let after = events.iter().find(|e| e.name == "after").unwrap();
        assert_eq!(doomed.depth, 0);
        assert_eq!(after.depth, 0);
    }

    #[test]
    fn set_arg_attaches_to_a_live_span() {
        let _lock = trace_lock();
        let _ = take_events();
        set_enabled(true);
        {
            let mut s = span("step");
            s.set_arg("compute_ns", "[1, 2]");
            s.set_arg("ratio", 0.5f64);
        }
        set_enabled(false);
        let events = take_events();
        assert_eq!(
            events[0].args,
            vec![
                ("compute_ns", ArgValue::Str("[1, 2]".to_string())),
                ("ratio", ArgValue::F64(0.5)),
            ]
        );
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let _lock = trace_lock();
        let events = vec![TraceEvent {
            name: "bsp.superstep".to_string(),
            start_ns: 1_500,
            dur_ns: 2_500,
            tid: 7,
            depth: 1,
            args: vec![("superstep", ArgValue::U64(4))],
        }];
        let dir = std::env::temp_dir().join(format!("predict_obs_test_{}", std::process::id()));
        let path = dir.join("trace.json");
        write_chrome_trace(&path, &events, None).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let value: Value = serde_json::from_str(&text).unwrap();
        let Value::Map(entries) = value else {
            panic!("trace file must be a JSON object");
        };
        let (_, trace_events) = entries
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents key");
        let Value::Seq(items) = trace_events else {
            panic!("traceEvents must be an array");
        };
        let Value::Map(event) = &items[0] else {
            panic!("events must be objects");
        };
        let get = |key: &str| &event.iter().find(|(k, _)| k == key).unwrap().1;
        assert_eq!(get("ph"), &Value::Str("X".to_string()));
        assert_eq!(get("ts"), &Value::Float(1.5));
        assert_eq!(get("dur"), &Value::Float(2.5));
        assert_eq!(get("tid"), &Value::UInt(7));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_guard_enables_flushes_and_disables() {
        let _lock = trace_lock();
        let dir = std::env::temp_dir().join(format!("predict_obs_guard_{}", std::process::id()));
        let path = dir.join("guarded.json");
        {
            let _guard = start_file(&path);
            assert!(is_enabled());
            let _span = span("guarded.work");
        }
        assert!(!is_enabled());
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("guarded.work"));
        assert!(text.contains("\"metrics\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
