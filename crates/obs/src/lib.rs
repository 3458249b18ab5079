//! Observability substrate for the PREDIcT reproduction.
//!
//! PREDIcT's value proposition is *explaining where time goes* in iterative
//! BSP jobs; this crate lets the stack explain where its own time goes.
//! Before it existed, timing and counters lived in disconnected islands —
//! `SessionStats`, `RunProfile.measured`, the pool's spawn counters, ad-hoc
//! `eprintln!` in workers — with no request-scoped view. Three pieces close
//! that gap:
//!
//! * [`trace`] — a span-based tracer. Every layer opens named spans
//!   (service request → session stage → BSP run → superstep → phase) via
//!   cheap RAII guards; when tracing is disabled (the default) a span is a
//!   single relaxed atomic load, so goldens and perf stay byte/cost
//!   identical. Collected spans export as Chrome trace-event JSON loadable
//!   in `chrome://tracing` / Perfetto.
//! * [`metrics`] — a process-wide registry of counters and fixed-bucket
//!   histograms. Snapshots are deterministically ordered (sorted by name)
//!   and identical for the same multiset of operations
//!   regardless of thread interleaving, so they can be asserted on and
//!   diffed. p50/p90/p99 are derivable from the histogram buckets.
//! * [`mod@diag`] — one level-gated stderr diagnostic macro ([`diag!`]),
//!   replacing raw `eprintln!` across workers and drivers; the level comes
//!   from `PREDICT_LOG`.
//!
//! The crate sits at the bottom of the workspace dependency graph (below
//! `predict_bsp`), so it cannot read the centralized `PREDICT_*` knob
//! parsers; enabling tracing is pushed in from above
//! ([`trace::start_file`]), which `predict_bench::observability_guard` wires
//! to the `PREDICT_TRACE` knob.
//!
//! # Contract: zero cost when off, zero result skew when on
//!
//! Neither tracing nor metrics ever touches stdout or experiment JSON:
//! spans buffer in memory and flush to the `PREDICT_TRACE` file, metrics
//! live in atomics until a snapshot is requested. Scenario goldens are
//! byte-identical with tracing on and off (CI replays them both ways), and
//! the repository benchmark measures the disabled-tracer overhead.

pub mod diag;
pub mod metrics;
pub mod trace;

pub use diag::Level;
pub use metrics::{registry, MetricsSnapshot, Registry};
pub use trace::{span, SpanGuard, TraceGuard};
