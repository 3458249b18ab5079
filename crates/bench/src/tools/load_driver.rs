//! Load driver: concurrent scheduler-query generator for the prediction
//! service, measuring cold-store vs warm-store tail latency.
//!
//! The paper positions PREDIcT as a service a scheduler consults for SLA
//! feasibility and capacity planning. This subcommand drives that deployment
//! shape under load: a pinned scenario (four small dataset analogs × three
//! workloads × a spread of predictor seeds) is fired at a [`PredictService`]
//! by many concurrent client threads, twice —
//!
//! 1. **cold phase**: a fresh service against an *empty* store directory, so
//!    every unique query computes its artifacts (and writes them through);
//! 2. **warm phase**: a brand-new service (empty in-memory caches, fresh
//!    engine) against the *same* directory — a simulated process restart —
//!    so every unique query is answered from disk without a single engine
//!    execution.
//!
//! Each phase reports request count, wall-clock throughput, p50/p99/p999
//! latency, and the store's read/hit/write counters for the phase (hit-rate
//! is honest: it counts disk hits, not in-memory cache hits — see
//! `SessionStats::store_hits`). The report is printed as a table and saved
//! machine-readable to `target/experiments/load_driver.json`, which CI
//! uploads.
//!
//! Usage:
//!
//! ```text
//! predict_bench load_driver                      # closed loop, 2000 requests, 8 clients
//! predict_bench load_driver --requests 5000      # more load
//! predict_bench load_driver --clients 16         # wider closed loop
//! predict_bench load_driver --open --rate 500    # open loop at 500 requests/second
//! predict_bench load_driver --store DIR          # explicit store dir (default: temp)
//! predict_bench load_driver --keep-store         # skip the cold wipe (measure twice warm)
//! predict_bench load_driver --check-speedup 2.0  # exit 1 unless warm p99 ≥ 2x better
//! ```
//!
//! Closed loop (default): each client fires its next request the moment the
//! previous one returns — measures the service at saturation. Open loop
//! (`--open`): requests are released on a fixed schedule at `--rate` per
//! second and latency includes queueing delay behind slow responses — the
//! coordinated-omission-free view a real scheduler would see.

use predict_algorithms::{ConnectedComponentsWorkload, PageRankWorkload, TopKWorkload, Workload};
use predict_core::{PredictRequest, PredictService, PredictServiceConfig, PredictorConfig};
use predict_graph::datasets::{Dataset, DatasetConfig, DatasetScale};
use predict_sampling::BiasedRandomJump;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed spread per (dataset, workload) pair: each distinct seed is a
/// distinct artifact chain in the store, so the pinned scenario exercises
/// `datasets × workloads × SEEDS_PER_PAIR` unique store entries.
const SEEDS_PER_PAIR: u64 = 4;

/// The pinned query mix: every request the driver can fire, in a fixed
/// order. Clients walk this list round-robin, so any request count covers
/// the unique set as evenly as possible.
fn build_requests() -> Vec<PredictRequest> {
    let datasets = [
        Dataset::LiveJournal,
        Dataset::Wikipedia,
        Dataset::Twitter,
        Dataset::Uk2002,
    ];
    let mut requests = Vec::new();
    for dataset in datasets {
        let graph = Arc::new(DatasetConfig::new(dataset, DatasetScale::Small).generate());
        let workloads: [Arc<dyn Workload>; 3] = [
            Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices())),
            Arc::new(TopKWorkload::default()),
            Arc::new(ConnectedComponentsWorkload),
        ];
        for workload in workloads {
            for seed in 0..SEEDS_PER_PAIR {
                requests.push(
                    PredictRequest::new(
                        dataset.prefix(),
                        Arc::clone(&graph),
                        Arc::clone(&workload),
                    )
                    .with_config(
                        PredictorConfig::single_ratio(0.1)
                            .with_seed(predict_bench::EXPERIMENT_SEED + seed),
                    ),
                );
            }
        }
    }
    requests
}

/// Latency percentile over a sorted sample set (nearest-rank).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-phase report, serialized into `load_driver.json`.
#[derive(Debug, Clone, Serialize)]
struct PhaseReport {
    phase: String,
    mode: String,
    requests: usize,
    errors: usize,
    clients: usize,
    wall_ms: f64,
    throughput_rps: f64,
    p50_us: u64,
    p99_us: u64,
    p999_us: u64,
    max_us: u64,
    /// Engine runs this phase executed (0 on a fully warm phase).
    bsp_runs: u64,
    store_reads: u64,
    store_hits: u64,
    store_writes: u64,
    /// Disk hits / disk reads for this phase; `None` when nothing was read.
    store_hit_rate: Option<f64>,
}

/// Process-global counter values the phase accounting diffs.
#[derive(Clone, Copy)]
struct Counters {
    bsp_runs: u64,
    store_reads: u64,
    store_hits: u64,
    store_writes: u64,
}

fn counters_now() -> Counters {
    let snapshot = predict_obs::registry().snapshot();
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    Counters {
        bsp_runs: counter("bsp.runs"),
        store_reads: counter("store.reads"),
        store_hits: counter("store.hits"),
        store_writes: counter("store.writes"),
    }
}

struct DriverOptions {
    requests: usize,
    clients: usize,
    open_loop: bool,
    rate_per_sec: f64,
}

/// Fires `opts.requests` queries at `service` and collects per-request
/// latencies. Closed loop: `opts.clients` threads race down a shared
/// request counter. Open loop: request *i* is released at `i / rate`
/// seconds after phase start and its latency includes any queueing delay.
fn drive_phase(
    name: &str,
    service: &PredictService,
    pool: &[PredictRequest],
    opts: &DriverOptions,
) -> PhaseReport {
    let before = counters_now();
    let next = AtomicUsize::new(0);
    let errors = AtomicUsize::new(0);
    let start = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= opts.requests {
                            break;
                        }
                        let request = &pool[i % pool.len()];
                        // Open loop: wait for this request's scheduled
                        // release; latency is measured from the *schedule*,
                        // charging queueing delay to slow responses.
                        let scheduled = if opts.open_loop {
                            let at = Duration::from_secs_f64(i as f64 / opts.rate_per_sec);
                            let now = start.elapsed();
                            if at > now {
                                std::thread::sleep(at - now);
                            }
                            at
                        } else {
                            start.elapsed()
                        };
                        if service.submit(request).is_err() {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        let done = start.elapsed();
                        local.push(done.saturating_sub(scheduled).as_micros() as u64);
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    let after = counters_now();
    latencies.sort_unstable();
    let reads = after.store_reads - before.store_reads;
    let hits = after.store_hits - before.store_hits;
    PhaseReport {
        phase: name.to_string(),
        mode: if opts.open_loop {
            format!("open@{}rps", opts.rate_per_sec)
        } else {
            "closed".to_string()
        },
        requests: latencies.len(),
        errors: errors.load(Ordering::Relaxed),
        clients: opts.clients,
        wall_ms,
        throughput_rps: latencies.len() as f64 / (wall_ms / 1000.0).max(1e-9),
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        p999_us: percentile_us(&latencies, 99.9),
        max_us: latencies.last().copied().unwrap_or(0),
        bsp_runs: after.bsp_runs - before.bsp_runs,
        store_reads: reads,
        store_hits: hits,
        store_writes: after.store_writes - before.store_writes,
        store_hit_rate: (reads > 0).then(|| hits as f64 / reads as f64),
    }
}

fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Runs the cold and the warm phase with the options in `args`.
pub fn run(args: &[String]) {
    let _obs = predict_bench::observability_guard();
    let opts = DriverOptions {
        requests: flag_value(args, "--requests").unwrap_or(2000),
        clients: flag_value::<usize>(args, "--clients").unwrap_or(8).max(1),
        open_loop: args.iter().any(|a| a == "--open"),
        rate_per_sec: flag_value::<f64>(args, "--rate")
            .filter(|r| r.is_finite() && *r > 0.0)
            .unwrap_or(500.0),
    };
    let check_speedup: Option<f64> = flag_value(args, "--check-speedup");
    let store_dir: PathBuf = flag_value(args, "--store").unwrap_or_else(|| {
        std::env::temp_dir().join(format!("predict_load_store_{}", std::process::id()))
    });
    let keep_store = args.iter().any(|a| a == "--keep-store");
    if !keep_store {
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    eprintln!("[load] building pinned request mix (small-scale datasets)...");
    let pool = build_requests();
    eprintln!(
        "[load] {} unique queries, {} requests, {} clients, store at {}",
        pool.len(),
        opts.requests,
        opts.clients,
        store_dir.display()
    );

    // One service per phase: the warm phase is a *restart* — empty session
    // cache, fresh engine — warmed only through the store directory.
    let service = |_phase: &str| {
        PredictService::with_config(
            predict_bench::experiment_engine(),
            Arc::new(BiasedRandomJump::default()),
            PredictServiceConfig::default().store(&store_dir),
        )
    };

    let cold = drive_phase("cold", &service("cold"), &pool, &opts);
    let warm = drive_phase("warm", &service("warm"), &pool, &opts);

    let mut table = predict_bench::ResultTable::new(
        "Load driver: cold vs warm persistent store",
        &[
            "phase", "mode", "reqs", "errors", "rps", "p50 us", "p99 us", "p999 us", "bsp runs",
            "hit rate",
        ],
    );
    for r in [&cold, &warm] {
        table.push_row(vec![
            r.phase.clone(),
            r.mode.clone(),
            r.requests.to_string(),
            r.errors.to_string(),
            format!("{:.0}", r.throughput_rps),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
            r.p999_us.to_string(),
            r.bsp_runs.to_string(),
            r.store_hit_rate
                .map_or("-".to_string(), |h| format!("{:.1}%", h * 100.0)),
        ]);
    }

    let p99_speedup = cold.p99_us as f64 / (warm.p99_us.max(1)) as f64;
    #[derive(Serialize)]
    struct Report<'a> {
        phases: [&'a PhaseReport; 2],
        p99_speedup: f64,
        graph: &'static str,
    }
    let saved = table.emit(
        "load_driver",
        &Report {
            phases: [&cold, &warm],
            p99_speedup,
            graph: "datasets_small_x4",
        },
    );
    eprintln!("[load] warm p99 speedup over cold: {p99_speedup:.2}x");

    let mut failed = false;
    if let Err(e) = saved {
        eprintln!("[load] FAIL: could not save the report: {e}");
        failed = true;
    }
    if warm.bsp_runs > 0 {
        eprintln!(
            "[load] FAIL: warm phase executed {} engine run(s); a restarted \
             service must answer from the store alone",
            warm.bsp_runs
        );
        failed = true;
    }
    if cold.errors + warm.errors > 0 {
        eprintln!(
            "[load] FAIL: {} request(s) errored",
            cold.errors + warm.errors
        );
        failed = true;
    }
    if let Some(min) = check_speedup {
        if p99_speedup < min {
            eprintln!("[load] FAIL: warm p99 speedup {p99_speedup:.2}x < required {min:.2}x");
            failed = true;
        }
    }
    if !keep_store {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    if failed {
        std::process::exit(1);
    }
}
