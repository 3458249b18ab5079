//! Trace viewer: renders a Chrome trace-event file produced via
//! `PREDICT_TRACE` as a text timeline plus a metrics table.
//!
//! Any experiment exports a trace when the knob is set:
//!
//! ```text
//! PREDICT_TRACE=target/experiments/fig4.trace.json predict_bench fig4_pagerank_iterations
//! predict_bench trace_view target/experiments/fig4.trace.json [--full]
//! ```
//!
//! The timeline groups events by thread and indents by span nesting
//! (recomputed from the event intervals, exactly as chrome://tracing stacks
//! complete events), so the service → session → superstep → phase structure
//! is readable without leaving the terminal. The metrics table renders the
//! snapshot the trace guard embedded under the file's `metrics` key:
//! counters, gauges, and histogram count/p50/p90/p99 (quantiles are bucket
//! upper bounds, in microseconds for `*_ns` instruments).
//!
//! By default long timelines are truncated to the first
//! [`DEFAULT_EVENT_CAP`] events; pass `--full` to print everything.

use serde::Value;

/// Events printed before the timeline truncates without `--full`.
const DEFAULT_EVENT_CAP: usize = 200;

/// One decoded trace event (only the fields the viewer needs).
struct Event {
    name: String,
    ts_us: f64,
    dur_us: f64,
    tid: u64,
    args: Vec<(String, String)>,
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

fn decode_events(root: &[(String, Value)]) -> Vec<Event> {
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
/// thread whose interval still covers its start.
fn print_timeline(mut events: Vec<Event>, full: bool) {
    events.sort_by(|a, b| {
        (a.tid, a.ts_us)
            .partial_cmp(&(b.tid, b.ts_us))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("== timeline ({} events) ==", events.len());
    let mut current_tid = None;
    let mut open_ends: Vec<f64> = Vec::new();
    for (printed, event) in events.iter().enumerate() {
        if printed >= DEFAULT_EVENT_CAP && !full {
            println!(
                "... {} more events (pass --full to print all)",
                events.len() - printed
            );
            break;
        }
        if current_tid != Some(event.tid) {
            current_tid = Some(event.tid);
            open_ends.clear();
            println!("-- thread {} --", event.tid);
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

/// Prints the embedded metrics snapshot: counters and gauges as name/value
/// rows, histograms with count and bucket-derived quantiles.
fn print_metrics(root: &[(String, Value)]) {
    let Some(Value::Map(metrics)) = lookup(root, "metrics") else {
        println!("\n(no metrics snapshot embedded in this trace)");
        return;
    };
    println!("\n== metrics ==");
    for section in ["counters", "gauges"] {
        let Some(Value::Seq(items)) = lookup(metrics, section) else {
            continue;
        };
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

/// Renders the trace file named in `args`.
pub fn run(args: &[String]) {
    let full = args.iter().any(|a| a == "--full");
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        predict_obs::diag!(
            Error,
            "usage: predict_bench trace_view <trace.json> [--full]\n\
             produce a trace with PREDICT_TRACE=<path> on any experiment"
        );
        std::process::exit(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            predict_obs::diag!(Error, "could not read {path}: {e}");
            std::process::exit(1);
        }
    };
    let root: Value = match serde_json::from_str(&text) {
        Ok(root) => root,
        Err(e) => {
            predict_obs::diag!(Error, "{path} is not valid trace JSON: {e}");
            std::process::exit(1);
        }
    };
    let Value::Map(root) = root else {
        predict_obs::diag!(Error, "{path}: top level is not a JSON object");
        std::process::exit(1);
    };
    print_timeline(decode_events(&root), full);
    print_metrics(&root);
}
