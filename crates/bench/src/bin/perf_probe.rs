//! Perf probe: the CI perf-tracking gate for the graph-substrate hot paths.
//!
//! PREDIcT's premise is that sample runs are cheap relative to the full run,
//! so sampler walks and CSR/subgraph construction are *the* overhead the
//! paper's Table 3 budgets. This binary times exactly those paths on pinned
//! deterministic inputs (an R-MAT web-graph analog and a 2-D grid road
//! network) and turns the numbers into a machine-readable trajectory:
//!
//! * every run writes `BENCH_PR4.json` — an array of
//!   `{bench, median_ns, graph, commit}` entries (median of
//!   `PERF_PROBE_REPEATS` repeats, default 9);
//! * when a checked-in baseline (`crates/bench/perf_baseline.json`) exists,
//!   the run **fails (exit 1) if any bench regressed more than 1.5x**
//!   against it (override the factor with `PERF_PROBE_MAX_REGRESSION`) —
//!   the `perf` CI job runs this on every push;
//! * independent of any baseline, the run fails if reading a stored UK sample
//!   back (`store_get_sample_uk`) is slower than redrawing it
//!   (`sample_draw_uk`): a store tier slower than the work it saves is the
//!   one regression that defeats its purpose;
//! * `--bless` (re)writes the baseline from the current run, which is how the
//!   baseline follows intentional hardware or algorithm changes.
//!
//! Usage:
//!
//! ```text
//! perf_probe                # measure, write BENCH_PR4.json, gate vs baseline
//! perf_probe --bless        # measure and (re)write the baseline
//! perf_probe --out foo.json # override the report path
//! ```
//!
//! Timings are wall-clock and therefore hardware-dependent; the 1.5x gate is
//! deliberately loose so that only genuine algorithmic regressions (not
//! machine noise) trip it. The workloads are pinned by seed, so the *work*
//! measured is identical across runs and machines.

use predict_algorithms::{ConnectedComponentsWorkload, PageRankWorkload, TopKWorkload, Workload};
use predict_bsp::{BspConfig, BspEngine, PartitionStrategy, ShardLayout};
use predict_core::{PredictRequest, PredictService, PredictorConfig};
use predict_graph::generators::{generate_grid_road, generate_rmat, GridRoadConfig, RmatConfig};
use predict_graph::{induced_subgraph, CsrGraph, EdgeList, VertexId};
use predict_sampling::{BiasedRandomJump, ForestFire, Mhrw, RandomEdge, RandomJump, Sampler};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed for every pinned probe input; changing it invalidates the baseline.
const PROBE_SEED: u64 = 0xBE;

/// Default regression threshold of the CI gate: fail when `median_ns`
/// exceeds the baseline by more than this factor. Override with the
/// `PERF_PROBE_MAX_REGRESSION` environment variable — the baseline is
/// hardware-specific, so a runner-class change may need a looser factor
/// until the baseline is re-blessed from that hardware's own artifact.
const DEFAULT_REGRESSION_FACTOR: f64 = 1.5;

fn regression_factor() -> f64 {
    std::env::var("PERF_PROBE_MAX_REGRESSION")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&f: &f64| f.is_finite() && f >= 1.0)
        .unwrap_or(DEFAULT_REGRESSION_FACTOR)
}

/// One measured probe, in the schema the issue pins:
/// `{bench, median_ns, graph, commit}`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
struct ProbeResult {
    /// Name of the timed path (e.g. `csr_build`, `sampler_BRJ`).
    bench: String,
    /// Median wall-clock nanoseconds over the configured repeats.
    median_ns: u64,
    /// The pinned input graph the bench ran on.
    graph: String,
    /// Commit the numbers were measured at (`GITHUB_SHA`, `git rev-parse`,
    /// or `unknown`).
    commit: String,
}

/// Times `f` `repeats` times and returns the median in nanoseconds.
fn median_ns<T>(repeats: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut samples: Vec<u64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn repeats() -> usize {
    std::env::var("PERF_PROBE_REPEATS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(9)
}

fn commit() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.is_empty() {
            return sha;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-in baseline path, resolved relative to the crate so the gate
/// works from any working directory inside the repo.
fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("perf_baseline.json")
}

/// One pinned input: a name plus the graph and the raw (duplicate-preserving)
/// edge list the construction benches rebuild from.
struct ProbeInput {
    name: &'static str,
    graph: CsrGraph,
    raw_edges: EdgeList,
}

fn probe_inputs() -> Vec<ProbeInput> {
    let mut inputs = Vec::new();

    // Power-law web/social analog: the paper's primary regime (Table 2).
    let rmat_cfg = RmatConfig::new(14, 8)
        .with_seed(PROBE_SEED)
        .keep_duplicates();
    let rmat_raw = generate_rmat(&rmat_cfg).to_edge_list();
    let rmat = generate_rmat(&RmatConfig::new(14, 8).with_seed(PROBE_SEED));
    inputs.push(ProbeInput {
        name: "rmat_s14_d8",
        graph: rmat,
        raw_edges: rmat_raw,
    });

    // High-diameter, hub-free regime: the grid road network.
    let cfg = GridRoadConfig::new(128, 128).with_seed(PROBE_SEED);
    let graph = generate_grid_road(&cfg);
    let raw_edges = graph.to_edge_list();
    inputs.push(ProbeInput {
        name: "grid_128x128",
        graph,
        raw_edges,
    });

    inputs
}

fn run_probes() -> Vec<ProbeResult> {
    let reps = repeats();
    let commit = commit();
    let mut results = Vec::new();
    let mut push = |bench: &str, graph: &str, ns: u64| {
        eprintln!("[probe] {bench:<18} {graph:<14} {ns:>12} ns");
        results.push(ProbeResult {
            bench: bench.to_string(),
            median_ns: ns,
            graph: graph.to_string(),
            commit: commit.clone(),
        });
    };

    for input in &probe_inputs() {
        let g = &input.graph;
        let raw = &input.raw_edges;
        let n = g.num_vertices();

        // CSR placement from a raw (duplicate-preserving) edge list.
        let unified_build_ns = median_ns(reps, || CsrGraph::from_edge_list(raw));
        push("csr_build", input.name, unified_build_ns);
        // The frozen CSR of the same edge list cut into one `ShardedCsr`
        // per worker (8 workers, the default engine configuration) through a
        // prebuilt layout — the call `RemoteWorkers::init` makes, i.e. what a
        // cluster drive pays to cut the shards it ships to its workers. The
        // `perf` CI job compares this row against `csr_build` in its
        // uploaded artifact.
        let frozen = CsrGraph::from_edge_list(raw);
        let layout = ShardLayout::build(frozen.num_vertices(), 8, PartitionStrategy::Hash);
        let sharded_build_ns = median_ns(reps, || {
            predict_graph::shard_csr(&frozen, 8, |v| layout.owner_of(v))
        });
        push("sharded_csr_build", input.name, sharded_build_ns);
        eprintln!(
            "[probe] sharded/unified construction on {}: {:.2}x",
            input.name,
            sharded_build_ns as f64 / unified_build_ns.max(1) as f64
        );
        // Deduplication, the sort-shaped part of graph ingest.
        push(
            "edge_dedup",
            input.name,
            median_ns(reps, || {
                let mut el = raw.clone();
                el.dedup();
                el
            }),
        );
        // Full ingest (dedup + placement): the `GraphBuilder::build` path
        // every generator takes.
        push(
            "csr_ingest",
            input.name,
            median_ns(reps, || {
                let mut el = raw.clone();
                el.dedup();
                CsrGraph::from_edge_list(&el)
            }),
        );
        // Undirected mirroring (mirror + dedup), the semi-clustering ingest path.
        push(
            "to_undirected",
            input.name,
            median_ns(reps, || raw.to_undirected()),
        );
        // Induced-subgraph extraction on a pinned 20% vertex set.
        let selected: Vec<VertexId> =
            BiasedRandomJump::default().sample_vertices(g, 0.2, PROBE_SEED);
        push(
            "subgraph_extract",
            input.name,
            median_ns(reps, || induced_subgraph(g, &selected)),
        );

        // Every walk-based sampler at the paper's headline 10% ratio.
        let samplers: [(&str, &dyn Sampler); 5] = [
            ("sampler_BRJ", &BiasedRandomJump::default()),
            ("sampler_RJ", &RandomJump::default()),
            ("sampler_MHRW", &Mhrw::default()),
            ("sampler_FF", &ForestFire::default()),
            ("sampler_RE", &RandomEdge),
        ];
        for (name, sampler) in samplers {
            push(
                name,
                input.name,
                median_ns(reps, || sampler.sample_vertices(g, 0.1, PROBE_SEED)),
            );
        }
        let _ = n;
    }

    // Warm-service probe: batches scheduled onto the persistent worker pool.
    // `pool_warm_batch` tracks the latency of a fully cached 3-request batch
    // (pure service/scheduling overhead — no engine work); the companion
    // `pool_warm_batch_spawns` row records how many OS threads those warm
    // batches spawned, and hard-asserts the tentpole contract: **zero**.
    {
        use std::sync::Arc;
        let graph = Arc::new(generate_rmat(&RmatConfig::new(11, 8).with_seed(PROBE_SEED)));
        let engine = BspEngine::new(BspConfig::with_workers(4));
        let service = PredictService::new(engine.clone(), Arc::new(BiasedRandomJump::default()));
        let config = PredictorConfig::single_ratio(0.1);
        let requests: Vec<PredictRequest> = [
            Arc::new(PageRankWorkload::with_epsilon(0.01, graph.num_vertices()))
                as Arc<dyn Workload>,
            Arc::new(TopKWorkload::default()),
            Arc::new(ConnectedComponentsWorkload),
        ]
        .into_iter()
        .map(|w| PredictRequest::new("probe", Arc::clone(&graph), w).with_config(config.clone()))
        .collect();
        // Warm every cache (and the pool) before timing.
        for r in service.submit_batch(&requests, requests.len()) {
            r.expect("warm-up prediction failed");
        }
        let spawned_after_warmup = engine.pool_threads_spawned();
        push(
            "pool_warm_batch",
            "rmat_s11_d8",
            median_ns(reps, || {
                for r in service.submit_batch(&requests, requests.len()) {
                    r.expect("warm prediction failed");
                }
            }),
        );
        let warm_spawns = engine.pool_threads_spawned() - spawned_after_warmup;
        assert_eq!(
            warm_spawns, 0,
            "warm submit_batch spawned {warm_spawns} threads; the pool contract is zero"
        );
        push("pool_warm_batch_spawns", "rmat_s11_d8", warm_spawns);
    }

    // Observability probes: the disabled tracer and the metrics counters sit
    // on the engine's hottest paths (every superstep, every pool task), so
    // the gate pins their cost. Each repeat batches 1000 operations — the
    // per-op cost is a handful of nanoseconds, far below timer resolution.
    {
        push(
            "span_noop",
            "disabled_x1000",
            median_ns(reps, || {
                for _ in 0..1000 {
                    black_box(predict_obs::trace::span("probe.noop"));
                }
            }),
        );
        let counter = predict_obs::registry().counter("probe.counter");
        push(
            "counter_incr",
            "cached_x1000",
            median_ns(reps, || {
                for _ in 0..1000 {
                    counter.incr();
                }
            }),
        );
    }

    // Persistent-store probes: artifact publish/read on a pinned sample-graph
    // payload, and the warm-restart path — a fresh session answering a
    // prediction entirely from a populated store (provenance bind + four
    // disk reads, zero engine runs). `warm_restart_predict` is the perf
    // contract behind `PREDICT_STORE`: restarting a service must be
    // disk-read cheap, not recompute expensive.
    {
        use predict_core::{ArtifactKind, ArtifactStore, PredictorBuilder, SampleArtifact};
        use predict_graph::datasets::{Dataset, DatasetScale};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("predict_perf_store_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(ArtifactStore::open(&dir).expect("open probe store"));
        let graph = Arc::new(generate_rmat(&RmatConfig::new(11, 8).with_seed(PROBE_SEED)));
        push(
            "store_put",
            "rmat_s11_d8",
            median_ns(reps, || {
                store
                    .put(ArtifactKind::Sample, "probe", 1, graph.as_ref())
                    .expect("probe put succeeds")
            }),
        );
        push(
            "store_get",
            "rmat_s11_d8",
            median_ns(reps, || {
                store
                    .get_typed::<CsrGraph>(ArtifactKind::Sample, "probe", 1)
                    .expect("probe get hits")
            }),
        );

        let workload = PageRankWorkload::with_epsilon(0.01, graph.num_vertices());
        let config = PredictorConfig::single_ratio(0.1);
        let session = |engine: BspEngine| {
            PredictorBuilder::new()
                .engine(engine)
                .sampler(BiasedRandomJump::default())
                .config(config.clone())
                .store_arc(Arc::clone(&store))
                .bind(Arc::clone(&graph), "probe_restart")
        };
        // Populate the store once, then time restarts: every repeat is a
        // brand-new engine and session, warm only through the filesystem.
        session(BspEngine::new(BspConfig::with_workers(4)))
            .predict(&workload)
            .expect("cold populate succeeds");
        let warm_engine = BspEngine::new(BspConfig::with_workers(4));
        push(
            "warm_restart_predict",
            "rmat_s11_d8",
            median_ns(reps, || {
                session(warm_engine.clone())
                    .predict(&workload)
                    .expect("warm restart predict succeeds")
            }),
        );
        assert_eq!(
            warm_engine.runs_executed(),
            0,
            "warm restarts must execute zero engine runs"
        );

        // The store tier against the work it saves, on the benchmark's
        // largest default-scale sample (UK, BRJ 0.1): `main` fails the
        // probe when reading the sample back is slower than redrawing it.
        let uk = predict_bench::load_dataset(Dataset::Uk2002, DatasetScale::Default);
        let draw = || {
            SampleArtifact::draw(&BiasedRandomJump::default(), &uk, 0.1, PROBE_SEED)
                .expect("UK sample draws")
        };
        push("sample_draw_uk", UK_SAMPLE, median_ns(reps, draw));
        store
            .put(ArtifactKind::Sample, "probe_uk", 1, &draw())
            .expect("probe put succeeds");
        let stored = store.artifact_path(ArtifactKind::Sample, "probe_uk");
        eprintln!(
            "[probe] stored UK sample: {} bytes on disk",
            std::fs::metadata(&stored).map_or(0, |m| m.len())
        );
        push(
            "store_get_sample_uk",
            UK_SAMPLE,
            median_ns(reps, || {
                store
                    .get_typed::<SampleArtifact>(ArtifactKind::Sample, "probe_uk", 1)
                    .expect("probe get hits")
            }),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Cluster transport probes: the wire format's encode/decode cost on a
    // representative PageRank message batch, and the channel transport's
    // whole-run overhead against the in-memory executor on an identical
    // pinned PageRank run (same graph, same convergence, byte-identical
    // output — the delta is pure framing + scheduling cost).
    {
        use predict_algorithms::{PageRank, PageRankParams};
        use predict_cluster::{
            decode_exact, drive, encode_to_vec, DriveOptions, ProgramSpec, TransportKind, WireBatch,
        };

        // A dense-ish batch: 4096 destination vertices, 4 f64 messages each,
        // the shape a hub-heavy R-MAT superstep produces.
        let batch = WireBatch::<f64> {
            superstep: 3,
            src: 1,
            dst: 2,
            seq: 7,
            runs: (0..4096u32)
                .map(|v| (v, vec![0.25f64, 0.5, 0.125, 0.0625]))
                .collect(),
        };
        let bytes = encode_to_vec(&batch);
        eprintln!("[probe] wire batch payload: {} bytes", bytes.len());
        push(
            "wire_encode_batch",
            "pagerank_4096x4",
            median_ns(reps, || encode_to_vec(&batch)),
        );
        push(
            "wire_decode_batch",
            "pagerank_4096x4",
            median_ns(reps, || {
                decode_exact::<WireBatch<f64>>(&bytes).expect("round-trip decodes")
            }),
        );

        // One framed round trip of that batch over a Unix-domain socket
        // pair (send the payload, read a tiny ack): the per-frame kernel
        // cost the socket backend adds on top of encode/decode. An echo
        // thread plays the worker so the single-threaded probe can never
        // deadlock on a full socket buffer.
        {
            use predict_cluster::protocol::{read_frame, tag, write_frame};
            use std::io::BufReader;
            use std::os::unix::net::UnixStream;

            let (driver_side, worker_side) = UnixStream::pair().expect("socket pair");
            let echo = std::thread::spawn(move || {
                let mut reader =
                    BufReader::new(worker_side.try_clone().expect("clone echo socket"));
                let mut writer = worker_side;
                while let Ok(Some((frame_tag, _))) = read_frame(&mut reader) {
                    if frame_tag == tag::SHUTDOWN {
                        break;
                    }
                    write_frame(&mut writer, frame_tag, &[1]).expect("echo ack");
                }
            });
            let mut reader = BufReader::new(driver_side.try_clone().expect("clone probe socket"));
            let mut writer = driver_side;
            push(
                "wire_roundtrip_socket",
                "pagerank_4096x4",
                median_ns(reps, || {
                    write_frame(&mut writer, tag::VALUES, &bytes).expect("frame sent");
                    read_frame(&mut reader)
                        .expect("ack read")
                        .expect("ack frame")
                }),
            );
            write_frame(&mut writer, tag::SHUTDOWN, &[]).expect("shutdown echo thread");
            echo.join().expect("echo thread exits");
        }

        let graph = generate_rmat(&RmatConfig::new(10, 8).with_seed(PROBE_SEED));
        let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
        let program = PageRank::new(params);
        let config = BspConfig::with_workers(4);
        let engine = BspEngine::new(config.clone());
        let inmem_ns = median_ns(reps, || engine.run(&graph, &program));
        push("bsp_run_inmem", "rmat_s10_d8", inmem_ns);
        let spec = ProgramSpec::PageRank { params };
        let opts = DriveOptions::new(TransportKind::InProc);
        // Warm the worker pool so the probe times steady-state supersteps,
        // not thread spawns.
        drive(&program, &spec, &[], &graph, &config, &opts).expect("warm-up drive succeeds");
        let inproc_ns = median_ns(reps, || {
            drive(&program, &spec, &[], &graph, &config, &opts).expect("inproc drive succeeds")
        });
        push("bsp_run_inproc", "rmat_s10_d8", inproc_ns);
        eprintln!(
            "[probe] inproc/in-memory run overhead on rmat_s10_d8: {:.2}x",
            inproc_ns as f64 / inmem_ns.max(1) as f64
        );
        // The identical run over Unix-domain socket workers: real processes,
        // real kernel round trips per superstep. Warmed so the pooled group
        // (not process spawns) is what gets timed.
        let socket_opts = DriveOptions::new(TransportKind::Socket);
        drive(&program, &spec, &[], &graph, &config, &socket_opts)
            .expect("warm-up socket drive succeeds");
        let socket_ns = median_ns(reps, || {
            drive(&program, &spec, &[], &graph, &config, &socket_opts)
                .expect("socket drive succeeds")
        });
        push("bsp_run_socket", "rmat_s10_d8", socket_ns);
        eprintln!(
            "[probe] socket/in-memory run overhead on rmat_s10_d8: {:.2}x",
            socket_ns as f64 / inmem_ns.max(1) as f64
        );
    }
    results
}

/// Input label of the `sample_draw_uk` / `store_get_sample_uk` rows.
const UK_SAMPLE: &str = "uk_default_brj_0.1";

/// The store exists to be cheaper than the work it saves: reading a stored
/// sample back must not cost more than drawing it again. Baseline-free —
/// both sides are measured in this run, on this machine.
fn store_slower_than_recompute(current: &[ProbeResult]) -> Option<String> {
    let median = |bench: &str| {
        current
            .iter()
            .find(|r| r.bench == bench && r.graph == UK_SAMPLE)
            .map(|r| r.median_ns)
    };
    let (draw, get) = (median("sample_draw_uk")?, median("store_get_sample_uk")?);
    (get > draw).then(|| {
        format!("store_get_sample_uk ({get} ns) is slower than sample_draw_uk ({draw} ns)")
    })
}

/// Compares `current` against the baseline; returns the regression report
/// lines (empty = gate passes).
fn regressions(current: &[ProbeResult], baseline: &[ProbeResult]) -> Vec<String> {
    let max_factor = regression_factor();
    let mut failures = Vec::new();
    for cur in current {
        let Some(base) = baseline
            .iter()
            .find(|b| b.bench == cur.bench && b.graph == cur.graph)
        else {
            // New benches have no baseline yet; they gate from the next bless.
            continue;
        };
        let factor = cur.median_ns as f64 / (base.median_ns.max(1)) as f64;
        if factor > max_factor {
            failures.push(format!(
                "{} on {}: {} ns -> {} ns ({factor:.2}x > {max_factor}x)",
                cur.bench, cur.graph, base.median_ns, cur.median_ns
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_PR4.json"));

    let results = run_probes();
    let json = serde_json::to_string_pretty(&results).expect("serialize probe results");
    std::fs::write(&out_path, &json).expect("write probe report");
    eprintln!("[saved] {}", out_path.display());

    if let Some(failure) = store_slower_than_recompute(&results) {
        eprintln!("[gate] {failure} on {UK_SAMPLE}");
        std::process::exit(1);
    }

    let baseline = baseline_path();
    if bless {
        std::fs::write(&baseline, &json).expect("write baseline");
        eprintln!("[bless] {}", baseline.display());
        return;
    }
    match std::fs::read_to_string(&baseline) {
        Ok(text) => {
            let base: Vec<ProbeResult> =
                serde_json::from_str(&text).expect("parse perf baseline JSON");
            let failures = regressions(&results, &base);
            if failures.is_empty() {
                eprintln!(
                    "[gate] no bench regressed more than {}x; OK",
                    regression_factor()
                );
            } else {
                eprintln!("[gate] perf regressions against {}:", baseline.display());
                for f in &failures {
                    eprintln!("  {f}");
                }
                eprintln!("(re-baseline intentional changes with `perf_probe --bless`)");
                std::process::exit(1);
            }
        }
        Err(_) => {
            eprintln!(
                "[gate] no baseline at {} (run with --bless to create); skipping gate",
                baseline.display()
            );
        }
    }
}
