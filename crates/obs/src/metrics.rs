//! Process-wide metrics registry: counters and fixed-bucket histograms
//! with deterministically ordered snapshots.
//!
//! Instruments are created (or fetched) by name from the global
//! [`registry`], which takes a lock per lookup; handles are `Arc`s, so each
//! instrument is resolved once, by the object that owns it (a service, a
//! session, an engine, a store), and a request or a run then touches only
//! relaxed atomics. A [`ScopeTimer`] starts from a histogram its caller
//! already holds ([`Histogram::start_timer`]). A [`Registry::snapshot`]
//! walks every instrument in **sorted name order** and freezes its value —
//! two processes performing the same multiset of metric operations produce
//! byte-identical serialized snapshots no matter how their threads
//! interleaved, because every mutation is a commutative atomic add.
//!
//! Histograms use fixed ascending bucket edges chosen at creation (the
//! default is an exponential nanosecond ladder suited to latencies from
//! 1 µs to ~2 s) plus an overflow bucket. Quantiles are derived from the
//! frozen buckets ([`HistogramSnapshot::quantile`]): the reported value is
//! the upper edge of the bucket containing the requested rank, i.e. an
//! upper bound with one-bucket resolution — deterministic, mergeable, and
//! cheap, at the price of edge-granularity.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram. `edges` are ascending inclusive upper bounds;
/// `buckets` has one extra overflow slot for values above the last edge.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(edges: Vec<u64>) -> Self {
        assert!(
            !edges.is_empty(),
            "histogram needs at least one bucket edge"
        );
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly ascending"
        );
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            edges,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Exponential edge ladder: `n` edges starting at `start`, each
    /// `factor` times the previous.
    pub fn exponential_edges(start: u64, factor: u64, n: usize) -> Vec<u64> {
        assert!(start > 0 && factor > 1 && n > 0);
        let mut edges = Vec::with_capacity(n);
        let mut edge = start;
        for _ in 0..n {
            edges.push(edge);
            edge = edge.saturating_mul(factor);
        }
        edges.dedup(); // saturation can repeat u64::MAX
        edges
    }

    /// Default latency ladder: 1 µs to ~2.1 s in powers of two (32 edges).
    pub fn default_latency_edges() -> Vec<u64> {
        Self::exponential_edges(1_000, 2, 32)
    }

    /// Records one observation. A value lands in the first bucket whose
    /// edge is `>=` it; values above the last edge land in the overflow
    /// bucket.
    pub fn record(&self, value: u64) {
        let idx = self.edges.partition_point(|&e| value > e);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Starts a [`ScopeTimer`] that records into this histogram when
    /// dropped.
    pub fn start_timer(&self) -> ScopeTimer<'_> {
        ScopeTimer {
            histogram: self,
            start: Instant::now(),
        }
    }
}

/// RAII timer recording elapsed nanoseconds into a histogram on drop, so
/// every return path of a scope (including early returns and unwinds) is
/// measured. Started by [`Histogram::start_timer`] on a histogram the caller
/// already holds, so timing a scope never looks an instrument up.
pub struct ScopeTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl Drop for ScopeTimer<'_> {
    fn drop(&mut self) {
        self.histogram
            .record(self.start.elapsed().as_nanos() as u64);
    }
}

/// Named collection of instruments. Use the process-global [`registry`] in
/// production code; tests build private instances with [`Registry::new`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches or creates the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        fetch_or_insert(&self.counters, name, Counter::default)
    }

    /// Fetches or creates the named histogram with the default latency
    /// edges.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::default_latency_edges)
    }

    /// Fetches the named histogram, creating it with `edges()` if absent.
    /// An existing histogram keeps its original edges.
    pub fn histogram_with(&self, name: &str, edges: impl FnOnce() -> Vec<u64>) -> Arc<Histogram> {
        fetch_or_insert(&self.histograms, name, || Histogram::new(edges()))
    }

    /// Freezes every instrument into a deterministically ordered snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                edges: h.edges.clone(),
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: h.count(),
                sum: h.sum.load(Ordering::Relaxed),
            })
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// The instrument `name` in `map`, created by `make` if absent. A hit is a
/// lookup by `&str`; only an insert allocates the owned name.
fn fetch_or_insert<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(existing) = map.get(name) {
        return Arc::clone(existing);
    }
    let created = Arc::new(make());
    map.insert(name.to_string(), Arc::clone(&created));
    created
}

/// The process-global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

/// Frozen counter value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSnapshot {
    /// Instrument name.
    pub name: String,
    /// Count at snapshot time.
    pub value: u64,
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// Instrument name.
    pub name: String,
    /// Ascending inclusive upper bucket bounds.
    pub edges: Vec<u64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Upper-bound quantile estimate: the upper edge of the bucket holding
    /// the observation at rank `ceil(q * count)`. Returns
    /// [`f64::INFINITY`] when that rank falls in the overflow bucket and
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return Some(match self.edges.get(i) {
                    Some(&edge) => edge as f64,
                    None => f64::INFINITY,
                });
            }
        }
        Some(f64::INFINITY)
    }

    /// Median upper bound.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound.
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// Deterministically ordered freeze of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let registry = Registry::new();
        let c = registry.counter("c");
        c.incr();
        c.add(4);
        assert_eq!(registry.counter("c").get(), 5);
    }

    #[test]
    fn histogram_bucket_edges_zero_max_and_overflow() {
        let registry = Registry::new();
        let h = registry.histogram_with("h", || vec![10, 100, 1_000]);
        h.record(0); // zero → first bucket (0 <= 10)
        h.record(10); // exactly on an edge → that bucket, inclusive
        h.record(11); // just past the edge → next bucket
        h.record(1_000); // exactly the last edge → last real bucket
        h.record(1_001); // past the last edge → overflow
        h.record(u64::MAX); // max → overflow
        let snap = registry.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.buckets, vec![2, 1, 1, 2]);
        assert_eq!(hs.count, 6);
        // Atomic sums wrap on overflow; mirror that in the expectation.
        assert_eq!(hs.sum, 2_022u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn exponential_edges_grow_and_saturate() {
        let edges = Histogram::exponential_edges(1_000, 2, 4);
        assert_eq!(edges, vec![1_000, 2_000, 4_000, 8_000]);
        // Saturating growth dedups instead of producing equal edges.
        let big = Histogram::exponential_edges(u64::MAX / 2, 2, 4);
        assert!(big.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn quantiles_report_bucket_upper_edges() {
        let registry = Registry::new();
        let h = registry.histogram_with("q", || vec![10, 20, 30]);
        for v in [1, 2, 3, 4, 5, 15, 16, 17, 25, 100] {
            h.record(v);
        }
        let hs = registry.snapshot();
        let hs = hs.histogram("q").unwrap();
        assert_eq!(hs.p50(), Some(10.0)); // rank 5 of 10 → first bucket
        assert_eq!(hs.p90(), Some(30.0)); // rank 9 → third bucket
        assert_eq!(hs.p99(), Some(f64::INFINITY)); // rank 10 → overflow
        assert_eq!(hs.quantile(0.0), Some(10.0)); // rank clamps to 1
        let empty = HistogramSnapshot {
            name: "e".to_string(),
            edges: vec![1],
            buckets: vec![0, 0],
            count: 0,
            sum: 0,
        };
        assert_eq!(empty.p50(), None);
    }

    #[test]
    fn snapshot_is_identical_across_thread_interleavings() {
        let run = || {
            let registry = Arc::new(Registry::new());
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let registry = Arc::clone(&registry);
                handles.push(std::thread::spawn(move || {
                    for i in 0..100u64 {
                        registry.counter("ops").add(t + 1);
                        registry
                            .histogram_with("lat", || vec![50, 500])
                            .record(i * 7 % 600);
                    }
                }));
            }
            for handle in handles {
                handle.join().unwrap();
            }
            serde_json::to_string(&registry.snapshot())
        };
        // Same multiset of operations under different interleavings must
        // serialize identically.
        let first = run();
        for _ in 0..3 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn snapshot_orders_instruments_by_name() {
        let registry = Registry::new();
        registry.counter("zebra").incr();
        registry.counter("apple").incr();
        registry.counter("mango").incr();
        let names: Vec<_> = registry
            .snapshot()
            .counters
            .iter()
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(names, vec!["apple", "mango", "zebra"]);
    }

    #[test]
    fn histogram_with_keeps_original_edges() {
        let registry = Registry::new();
        let first = registry.histogram_with("h", || vec![1, 2]);
        let second = registry.histogram_with("h", || vec![100]);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(
            registry.snapshot().histogram("h").unwrap().edges,
            vec![1, 2]
        );
    }

    #[test]
    fn scope_timer_records_on_drop() {
        let registry = Registry::new();
        let histogram = registry.histogram("scope");
        {
            let _t = histogram.start_timer();
        }
        assert_eq!(histogram.count(), 1);
        assert_eq!(registry.snapshot().histogram("scope").unwrap().count, 1);
    }

    #[test]
    fn fetching_an_existing_instrument_returns_it_and_adds_nothing() {
        let registry = Registry::new();
        let (c, h) = (registry.counter("c"), registry.histogram("h"));
        let size = |r: &Registry| {
            let s = r.snapshot();
            (s.counters.len(), s.histograms.len())
        };
        assert_eq!(size(&registry), (1, 1));
        assert!(Arc::ptr_eq(&c, &registry.counter("c")));
        assert!(Arc::ptr_eq(&h, &registry.histogram("h")));
        assert_eq!(size(&registry), (1, 1));
    }
}
