//! Trace viewer: renders Chrome trace-event files produced via
//! `PREDICT_TRACE` as a text timeline plus a metrics table.
//!
//! Any experiment exports a trace when the knob is set, and a traced
//! `scenario_runner` pass writes one file per scenario:
//!
//! ```text
//! PREDICT_TRACE=target/experiments/fig4.trace.json predict_bench fig4_pagerank_iterations
//! predict_bench trace_view target/experiments/fig4.trace.json [--full]
//! predict_bench trace_view target/experiments/scenarios.trace.*.json
//! ```
//!
//! Given several files, the viewer reads them as one trace: the timeline
//! keeps each file's threads apart, the phase and store summaries sum over
//! every file, and each file's metrics table follows under its name.
//!
//! The timeline groups events by thread and indents by span nesting
//! (recomputed from the event intervals, exactly as chrome://tracing stacks
//! complete events), so the service → session → superstep → phase structure
//! is readable without leaving the terminal. A phase summary follows: per
//! superstep phase of the in-memory runtime, its calls, total time, and time
//! per unit of work — nanoseconds per active vertex for `bsp.compute`, per
//! delivered message for `bsp.deliver` — from the counts each phase span
//! carries, so a kernel change can show its gain on one phase. A store
//! summary follows when the trace read the artifact store: per artifact
//! kind, its reads and hits, and the total and mean milliseconds spent in
//! each read stage — the whole `store.read`, its `store.decompress` and
//! `store.decode`, and the typed `store.deserialize` after it — grouped by
//! the `kind` argument those spans carry. The metrics table renders the
//! snapshot the trace guard embedded under the file's `metrics` key:
//! counters and histogram count/p50/p90/p99 (quantiles are bucket upper
//! bounds, in microseconds for `*_ns` instruments).
//!
//! By default long timelines are truncated to the first
//! [`DEFAULT_EVENT_CAP`] events; pass `--full` to print everything.

use serde::Value;

/// Events printed before the timeline truncates without `--full`.
const DEFAULT_EVENT_CAP: usize = 200;

/// The phases the summary covers: span name, and the span argument counting
/// the phase's units of work.
const PHASES: [(&str, &str); 2] = [("bsp.compute", "active"), ("bsp.deliver", "messages")];

/// The read stages the store summary covers, in the order a read runs them.
const STORE_STAGES: [&str; 4] = [
    "store.read",
    "store.decompress",
    "store.decode",
    "store.deserialize",
];

/// One decoded trace event (only the fields the viewer needs).
struct Event {
    name: String,
    ts_us: f64,
    dur_us: f64,
    /// Index of the trace file the event came from; two files' thread ids
    /// never share a timeline group.
    source: usize,
    tid: u64,
    args: Vec<(String, String)>,
}

impl Event {
    /// The rendered value of argument `key`, if the span carries it.
    fn arg(&self, key: &str) -> Option<&str> {
        let found = self.args.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| v.as_str())
    }
}

fn lookup<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(v) => Some(*v as f64),
        Value::Int(v) => Some(*v as f64),
        Value::Float(v) => Some(*v),
        _ => None,
    }
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::UInt(v) => Some(*v),
        Value::Int(v) if *v >= 0 => Some(*v as u64),
        _ => None,
    }
}

fn render_arg(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        other => serde_json::to_string(other).unwrap_or_default(),
    }
}

fn decode_events(root: &[(String, Value)], source: usize) -> Vec<Event> {
    let Some(Value::Seq(items)) = lookup(root, "traceEvents") else {
        return Vec::new();
    };
    items
        .iter()
        .filter_map(|item| {
            let Value::Map(map) = item else { return None };
            Some(Event {
                name: match lookup(map, "name")? {
                    Value::Str(s) => s.clone(),
                    _ => return None,
                },
                ts_us: as_f64(lookup(map, "ts")?)?,
                dur_us: as_f64(lookup(map, "dur")?)?,
                source,
                tid: as_u64(lookup(map, "tid")?)?,
                args: match lookup(map, "args") {
                    Some(Value::Map(args)) => args
                        .iter()
                        .map(|(k, v)| (k.clone(), render_arg(v)))
                        .collect(),
                    _ => Vec::new(),
                },
            })
        })
        .collect()
}

/// Prints the per-thread timeline, indenting by nesting depth. Depth is
/// recomputed from the intervals: a span nests under every span on the same
/// thread whose interval still covers its start. With several files, each
/// thread heading names the file (`paths[source]`) its events came from.
fn print_timeline(events: &mut [Event], paths: &[&String], full: bool) {
    events.sort_by(|a, b| {
        (a.source, a.tid, a.ts_us)
            .partial_cmp(&(b.source, b.tid, b.ts_us))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("== timeline ({} events) ==", events.len());
    let mut current_thread = None;
    let mut open_ends: Vec<f64> = Vec::new();
    for (printed, event) in events.iter().enumerate() {
        if printed >= DEFAULT_EVENT_CAP && !full {
            println!(
                "... {} more events (pass --full to print all)",
                events.len() - printed
            );
            break;
        }
        if current_thread != Some((event.source, event.tid)) {
            current_thread = Some((event.source, event.tid));
            open_ends.clear();
            match paths {
                [_] => println!("-- thread {} --", event.tid),
                _ => println!("-- {} thread {} --", paths[event.source], event.tid),
            }
        }
        // Epsilon guards float round-trip of equal open/close timestamps.
        open_ends.retain(|&end| end > event.ts_us + 1e-9);
        let indent = "  ".repeat(open_ends.len());
        let args = if event.args.is_empty() {
            String::new()
        } else {
            let rendered: Vec<String> =
                event.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", rendered.join(" "))
        };
        println!(
            "{indent}{} @{:.1}us +{:.1}us{args}",
            event.name, event.ts_us, event.dur_us
        );
        open_ends.push(event.ts_us + event.dur_us);
    }
}

/// Prints one row per [`PHASES`] entry present in `events` — calls, total
/// milliseconds, units of work, and nanoseconds per unit — or nothing when
/// the trace holds no phase span.
fn print_phases(events: &[Event]) {
    let mut header = true;
    for (name, unit) in PHASES {
        let (mut calls, mut total_us, mut units) = (0u64, 0.0, 0u64);
        for event in events.iter().filter(|e| e.name == name) {
            calls += 1;
            total_us += event.dur_us;
            units += event.arg(unit).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        }
        if calls == 0 {
            continue;
        }
        if std::mem::take(&mut header) {
            println!(
                "\n== phases ==\n{:<12} {:>8} {:>10} {:>12} {:>10}  unit",
                "phase", "calls", "total_ms", "units", "ns/unit"
            );
        }
        let per_unit = if units == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", total_us * 1e3 / units as f64)
        };
        println!(
            "{name:<12} {calls:>8} {:>10.3} {units:>12} {per_unit:>10}  {unit}",
            total_us / 1e3
        );
    }
}

/// Renders one row per artifact kind that `store.read` spans name — reads,
/// hits (reads that carry `payload_bytes`), and total / mean milliseconds
/// per [`STORE_STAGES`] entry — or `None` when the trace read no store.
fn store_summary(events: &[Event]) -> Option<String> {
    use std::fmt::Write;
    let mut kinds: Vec<&str> = events
        .iter()
        .filter(|e| e.name == STORE_STAGES[0])
        .filter_map(|e| e.arg("kind"))
        .collect();
    kinds.sort();
    kinds.dedup();
    if kinds.is_empty() {
        return None;
    }
    let mut out = format!("== store ==\n{:<12} {:>7} {:>7}", "kind", "reads", "hits");
    for stage in STORE_STAGES {
        let stage = stage.trim_start_matches("store.");
        let _ = write!(out, " {:>16} {:>10}", format!("{stage}_ms"), "mean_ms");
    }
    for kind in &kinds {
        let of_kind = |e: &&Event| e.arg("kind") == Some(kind);
        let reads: Vec<&Event> = events
            .iter()
            .filter(|e| e.name == STORE_STAGES[0])
            .filter(of_kind)
            .collect();
        let hits = reads.iter().filter(|e| e.arg("payload_bytes").is_some());
        let _ = write!(out, "\n{kind:<12} {:>7} {:>7}", reads.len(), hits.count());
        for stage in STORE_STAGES {
            let (mut calls, mut total_us) = (0u64, 0.0);
            for event in events.iter().filter(|e| e.name == stage).filter(of_kind) {
                calls += 1;
                total_us += event.dur_us;
            }
            let mean_ms = total_us / 1e3 / calls.max(1) as f64;
            let _ = write!(out, " {:>16.3} {mean_ms:>10.4}", total_us / 1e3);
        }
    }
    Some(out)
}

/// Prints the embedded metrics snapshot under `heading`: counters as
/// name/value rows, histograms with count and bucket-derived quantiles.
fn print_metrics(root: &[(String, Value)], heading: &str) {
    let Some(Value::Map(metrics)) = lookup(root, "metrics") else {
        println!("\n(no metrics snapshot embedded in this trace)");
        return;
    };
    println!("\n== {heading} ==");
    if let Some(Value::Seq(items)) = lookup(metrics, "counters") {
        for item in items {
            let Value::Map(map) = item else { continue };
            let (Some(Value::Str(name)), Some(value)) = (lookup(map, "name"), lookup(map, "value"))
            else {
                continue;
            };
            println!("{name:<28} {}", as_u64(value).unwrap_or(0));
        }
    }
    let Some(Value::Seq(items)) = lookup(metrics, "histograms") else {
        return;
    };
    println!(
        "\n{:<28} {:>8} {:>10} {:>10} {:>10}",
        "histogram", "count", "p50_us", "p90_us", "p99_us"
    );
    for item in items {
        let Value::Map(map) = item else { continue };
        let (Some(Value::Str(name)), Some(edges), Some(buckets), Some(count)) = (
            lookup(map, "name"),
            lookup(map, "edges"),
            lookup(map, "buckets"),
            lookup(map, "count"),
        ) else {
            continue;
        };
        let decode_seq = |value: &Value| -> Vec<u64> {
            match value {
                Value::Seq(items) => items.iter().filter_map(as_u64).collect(),
                _ => Vec::new(),
            }
        };
        let snapshot = predict_obs::metrics::HistogramSnapshot {
            name: name.clone(),
            edges: decode_seq(edges),
            buckets: decode_seq(buckets),
            count: as_u64(count).unwrap_or(0),
            sum: 0,
        };
        let q = |quantile: Option<f64>| match quantile {
            Some(v) if v.is_finite() => format!("{:.1}", v / 1e3),
            Some(_) => "inf".to_string(),
            None => "-".to_string(),
        };
        println!(
            "{:<28} {:>8} {:>10} {:>10} {:>10}",
            snapshot.name,
            snapshot.count,
            q(snapshot.p50()),
            q(snapshot.p90()),
            q(snapshot.p99()),
        );
    }
}

/// Reads `path` as a trace file's top-level JSON object, exiting 1 when it
/// is unreadable or not a trace.
fn read_root(path: &str) -> Vec<(String, Value)> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            predict_obs::diag!(Error, "could not read {path}: {e}");
            std::process::exit(1);
        }
    };
    match serde_json::from_str(&text) {
        Ok(Value::Map(root)) => root,
        Ok(_) => {
            predict_obs::diag!(Error, "{path}: top level is not a JSON object");
            std::process::exit(1);
        }
        Err(e) => {
            predict_obs::diag!(Error, "{path} is not valid trace JSON: {e}");
            std::process::exit(1);
        }
    }
}

/// Renders the trace files named in `args` as one trace.
pub fn run(args: &[String]) {
    let full = args.iter().any(|a| a == "--full");
    let paths: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        predict_obs::diag!(
            Error,
            "usage: predict_bench trace_view <trace.json>... [--full]\n\
             produce a trace with PREDICT_TRACE=<path> on any experiment"
        );
        std::process::exit(2);
    }
    let roots: Vec<Vec<(String, Value)>> = paths.iter().map(|path| read_root(path)).collect();
    let mut events: Vec<Event> = roots
        .iter()
        .enumerate()
        .flat_map(|(source, root)| decode_events(root, source))
        .collect();
    print_timeline(&mut events, &paths, full);
    print_phases(&events);
    if let Some(summary) = store_summary(&events) {
        println!("\n{summary}");
    }
    for (root, path) in roots.iter().zip(&paths) {
        match paths.len() {
            1 => print_metrics(root, "metrics"),
            _ => print_metrics(root, &format!("metrics ({path})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, dur_us: f64, args: &[(&str, &str)]) -> Event {
        Event {
            name: name.to_string(),
            ts_us: 0.0,
            dur_us,
            source: 0,
            tid: 1,
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    #[test]
    fn store_summary_groups_read_stages_by_kind() {
        let hit = [("kind", "sample_run"), ("payload_bytes", "900")];
        let events = [
            event("store.read", 30.0, &hit),
            event("store.decompress", 4.0, &[("kind", "sample_run")]),
            event("store.decode", 10.0, &[("kind", "sample_run")]),
            event("store.read", 10.0, &[("kind", "sample_run")]),
            event("store.read", 8.0, &[("kind", "model"), ("payload_bytes", "1")]),
            event("bsp.compute", 99.0, &[("active", "3")]),
        ];
        let summary = store_summary(&events).expect("the trace read the store");
        let lines: Vec<&str> = summary.lines().collect();
        assert_eq!(lines[0], "== store ==");
        assert!(lines[1].contains("decompress_ms") && lines[1].contains("deserialize_ms"));
        // Kinds sort by name; a miss (no payload_bytes) is a read, not a hit.
        let model: Vec<&str> = lines[2].split_whitespace().collect();
        assert_eq!(model[..5], ["model", "1", "1", "0.008", "0.0080"]);
        let sample_run: Vec<&str> = lines[3].split_whitespace().collect();
        assert_eq!(
            sample_run[..9],
            ["sample_run", "2", "1", "0.040", "0.0200", "0.004", "0.0040", "0.010", "0.0100"]
        );
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn store_summary_is_absent_without_store_reads() {
        assert!(store_summary(&[event("bsp.compute", 1.0, &[])]).is_none());
    }
}
