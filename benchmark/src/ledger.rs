//! The harness's own span ledger for traced runs.
//!
//! Spans are recorded around each call the harness makes into a layer of
//! the program (the program's own tracer stays off), kept in memory, and
//! written out as a Chrome trace-event file when the workload ends. A
//! span's self time is its duration minus the part its children cover.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: name, interval, the span that caused it, and the
/// request it belongs to (spans of one request share the id).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder (traced replays run one client).
pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Ledger {
    fn default() -> Self {
        Self::new()
    }
}

impl Ledger {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records `f` as a span named `name`, child of whichever span is open.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Ledger) -> T,
    ) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already-measured interval (for tests and imported spans).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus the summed duration of its direct
    /// children (children of one parent never overlap — one thread).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations in milliseconds grouped by span name.
    pub fn durations_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            by_name
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64 / 1e6);
        }
        by_name
    }

    /// Summed self time in milliseconds per span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *by_name.entry(span.name).or_default() += own as f64 / 1e6;
        }
        by_name
    }

    /// The first `max_events` spans in the Chrome trace-event shape
    /// `trace_view` renders: complete (`"ph":"X"`) events with microsecond
    /// `ts`/`dur`.
    pub fn chrome_trace(&self, stamp: &impl Serialize, max_events: usize) -> String {
        #[derive(Serialize)]
        struct Args {
            request_id: u64,
            self_us: f64,
        }
        #[derive(Serialize)]
        struct Event {
            name: &'static str,
            ph: &'static str,
            ts: f64,
            dur: f64,
            pid: u32,
            tid: u64,
            args: Args,
        }
        let pid = std::process::id();
        let events: Vec<Event> = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .take(max_events)
            .map(|(s, own)| Event {
                name: s.name,
                ph: "X",
                ts: s.start_ns as f64 / 1e3,
                dur: s.duration_ns() as f64 / 1e3,
                pid,
                tid: 1,
                args: Args {
                    request_id: s.request,
                    self_us: own as f64 / 1e3,
                },
            })
            .collect();
        format!(
            "{{\"traceEvents\":{},\"stamp\":{}}}",
            serde_json::to_string(&events).expect("trace events serialize"),
            serde_json::to_string(stamp).expect("stamp serializes")
        )
    }
}

/// Σ staged stage time ÷ Σ untraced latency of the same request lists: how
/// much of the end-to-end number the traced decomposition explains.
pub fn reconcile_ratio(staged_ms: f64, untraced_ms: f64) -> f64 {
    if untraced_ms > 0.0 {
        staged_ms / untraced_ms
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let mut ledger = Ledger::new();
        let root = ledger.push(span("request", 0, 100, None));
        let a = ledger.push(span("stage.a", 10, 40, Some(root)));
        ledger.push(span("stage.a.inner", 15, 25, Some(a)));
        ledger.push(span("stage.b", 50, 90, Some(root)));
        let own = ledger.self_times_ns();
        // root: 100 - (30 + 40); a: 30 - 10; grandchild does not reach root.
        assert_eq!(own, vec![30, 20, 10, 40]);
        // Self times of a tree add back up to the root's duration.
        assert_eq!(own.iter().sum::<u64>(), 100);
        let by_name = ledger.self_ms_by_name();
        assert!((by_name["stage.b"] - 40.0 / 1e6).abs() < 1e-15);
    }

    #[test]
    fn closure_spans_nest_by_call_structure() {
        let mut ledger = Ledger::new();
        ledger.span("outer", 7, |l| {
            l.span("first", 7, |_| ());
            l.span("second", 7, |l| l.span("leaf", 7, |_| ()));
        });
        let parents: Vec<Option<usize>> = ledger.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(ledger.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(ledger.spans().iter().all(|s| s.request == 7));
    }

    #[test]
    fn reconcile_ratio_is_staged_over_untraced() {
        assert!((reconcile_ratio(9.5, 10.0) - 0.95).abs() < 1e-12);
        assert_eq!(reconcile_ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn chrome_trace_has_complete_events() {
        let mut ledger = Ledger::new();
        ledger.push(span("request", 1_000, 3_000, None));
        let json = ledger.chrome_trace(&"stamp", 10);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":2"));
    }
}
