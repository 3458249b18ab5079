//! Warm-path ratchet: once a service holds a request's artifacts, answering
//! it again costs its cache lookups and the `Prediction` it returns by value
//! — no formatting, no registry lookup, no engine run.
//!
//! Instruments are resolved once by their owners (the service, the session,
//! the engine), the model cache is keyed by the configuration's field values
//! and the workload token is rendered once per request, so what a warm
//! `submit` allocates is pinned exactly: a new allocation on this path fails
//! here. The pinned counts are the keys the two lookups build (the sample
//! run and the model; the sample is never looked up) plus the
//! clones of the returned `Prediction` (its profile, cost model and
//! provenance), almost all of them the latter.
//!
//! Counts are read from a counting global allocator shared by every thread
//! of the test binary — hence one test function.

use predict_algorithms::{ConnectedComponentsWorkload, PageRankWorkload, TopKWorkload, Workload};
use predict_bsp::{BspConfig, BspEngine};
use predict_core::{PredictRequest, PredictService, PredictServiceConfig, PredictorConfig};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_obs::MetricsSnapshot;
use predict_sampling::BiasedRandomJump;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocator calls that hand out memory (`alloc`, `realloc`) so far.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// `fetch_add` on a static, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Every latency histogram one warm `submit` records into, once each.
const REQUEST_HISTOGRAMS: [&str; 4] = [
    "service.request_ns",
    "session.predict_ns",
    "predict.stage.sample_run_ns",
    "predict.stage.train_ns",
];

/// The sample stage's histogram: a warm `submit` finds its sample run and
/// never looks its sample up, so it records nothing here.
const SAMPLE_HISTOGRAM: &str = "predict.stage.sample_ns";

fn histogram_count(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.histogram(name).map_or(0, |h| h.count)
}

#[test]
fn a_warm_submit_allocates_only_its_keys_and_the_returned_prediction() {
    let graph =
        Arc::new(DatasetConfig::new(Dataset::LiveJournal, DatasetScale::Default).generate());
    let n = graph.num_vertices();
    let service = PredictService::with_config(
        BspEngine::new(BspConfig::with_workers(8)),
        Arc::new(BiasedRandomJump::default()),
        PredictServiceConfig::default(),
    );
    let classes: [(&str, Arc<dyn Workload>, u64); 3] = [
        (
            "PR",
            Arc::new(PageRankWorkload::with_epsilon(0.001, n)),
            114,
        ),
        ("TOPK", Arc::new(TopKWorkload::default()), 85),
        ("CC", Arc::new(ConnectedComponentsWorkload), 50),
    ];
    for (class, workload, pinned) in classes {
        let request = PredictRequest::new("LJ", Arc::clone(&graph), workload)
            .with_config(PredictorConfig::single_ratio(0.1).with_seed(1));
        let primed = service.submit(&request).expect("cold submit succeeds");
        let runs = service.engine().runs_executed();
        let before = service.metrics_snapshot();

        let start = ALLOCATIONS.load(Ordering::Relaxed);
        let warm = service.submit(&request);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - start;

        let after = service.metrics_snapshot();
        let warm = warm.expect("warm submit succeeds");
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&primed).unwrap(),
            "{class}: the warm answer differs from the cold one"
        );
        assert_eq!(
            service.engine().runs_executed(),
            runs,
            "{class}: a warm submit ran the engine"
        );
        let requests = |s: &MetricsSnapshot| s.counter("service.requests").unwrap_or(0);
        assert_eq!(requests(&after) - requests(&before), 1, "{class}");
        for name in REQUEST_HISTOGRAMS {
            assert_eq!(
                histogram_count(&after, name) - histogram_count(&before, name),
                1,
                "{class}: {name} did not record the warm submit exactly once"
            );
        }
        assert_eq!(
            histogram_count(&after, SAMPLE_HISTOGRAM),
            histogram_count(&before, SAMPLE_HISTOGRAM),
            "{class}: a warm submit looked its sample up"
        );
        assert_eq!(
            allocations, pinned,
            "{class}: a warm submit made {allocations} allocations, pinned at {pinned}"
        );
    }
}
