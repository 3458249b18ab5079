//! The traced run: the per-layer metrics.
//!
//! Two sources. *Probes* are pinned direct calls into one layer each
//! (`sut::probe_*` plus the service-level probes below); they are the same
//! calls whichever workload is traced, on that workload's own first graph
//! and requests. The *replay* runs the workload's rounds in pairs — once as
//! plain `submit`s, once decomposed into per-layer calls under ledger spans
//! — so stage medians, the reconcile ratio and the harness overhead come
//! from identical cold request lists within one process. Counts are taken
//! over the first plain round, a request list fixed by `--seed`, so they
//! repeat exactly.

use crate::ledger::{reconcile_ratio, Ledger};
use crate::report::{Outcome, Stamp};
use crate::run::{
    refresh_shared, run_round, service_spec, setup, Budget, EvalTotals, Options, Pass, Recorder,
    RoundReport, State,
};
use crate::stats::{median, percentile, sort};
use crate::sut::{self, Batch, Counters, Request, Sut, Transport};
use crate::workloads::{Kind, Workload};
use std::path::Path;
use std::time::Instant;

/// Spans kept in memory; the replay stops early once the ledger is this
/// full (only `warm_memory`, with its microsecond requests, gets there).
const LEDGER_SPAN_CAP: usize = 240_000;

/// Events written to the Chrome trace file (the head of the ledger).
const TRACE_FILE_EVENTS: usize = 40_000;

/// Requests the service-level probes prime and resubmit.
const SERVICE_PROBE_REQUESTS: usize = 16;

/// Stage spans whose sum must reconcile with the plain `submit` latency.
const STAGE_SPANS: [&str; 7] = [
    "predict.session_bind",
    "predict.session_lookup",
    "sampling.sample_artifact",
    "bsp.sample_run",
    "predict.trained_model",
    "predict.predict_with",
    "bsp.actual_run",
];

struct ServiceProbe {
    submit_warm_us: f64,
    submit_batch_rps: f64,
    store_restart_p50_ms: f64,
}

/// `predict` as a service: prime `requests` on a store-backed service, time
/// warm `submit`s and a warm `submit_batch`, then restart on the same store
/// and time the first answer to each request.
fn probe_service(w: &Workload, requests: &[Request], dir: &Path) -> Result<ServiceProbe, String> {
    let spec = service_spec(w).with_store(dir);
    let sut = Sut::new(&spec);
    for request in requests {
        sut.submit(request)?;
    }
    let loop_until_100ms =
        |op: &mut dyn FnMut() -> Result<usize, String>| -> Result<(usize, f64), String> {
            let t = Instant::now();
            let mut done = 0;
            while t.elapsed().as_millis() < 100 {
                done += op()?;
            }
            Ok((done, t.elapsed().as_secs_f64()))
        };
    let (done, wall) = loop_until_100ms(&mut || {
        for request in requests {
            sut.submit(request)?;
        }
        Ok(requests.len())
    })?;
    let submit_warm_us = wall * 1e6 / done as f64;
    let batch = Batch::new(requests);
    let (done, wall) = loop_until_100ms(&mut || {
        let ok = batch.submit(&sut, sut::nproc());
        if ok == batch.len() {
            Ok(ok)
        } else {
            Err("a warm submit_batch request failed".into())
        }
    })?;
    let submit_batch_rps = done as f64 / wall;
    drop(sut);

    let restarted = Sut::new(&spec);
    let mut latencies = Vec::new();
    for request in requests {
        let t = Instant::now();
        restarted.submit(request)?;
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(ServiceProbe {
        submit_warm_us,
        submit_batch_rps,
        store_restart_p50_ms: median(&latencies),
    })
}

/// The traced run of one workload: every per-layer metric.
pub fn run_traced(
    w: &Workload,
    opts: &Options,
    scratch: &Path,
    stamp: &Stamp,
) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let mut state: State = setup(w, opts, scratch, 0)?;
    // `ColdShared` replays the same cold list twice, so the staged pass
    // needs a second long-lived service of the same shape.
    let mut staged_shared = (w.kind == Kind::ColdShared).then(|| Sut::new(&service_spec(w)));
    let mut outcome = Outcome::new(w.name, opts, true);
    let mut rec = Recorder::default();

    // --- Probes ----------------------------------------------------------
    let probes_start = Instant::now();
    let ingest_ms: Vec<f64> = state.ingest.iter().map(|(ms, _)| *ms).collect();
    let ingest_edges: usize = state.ingest.iter().map(|(_, e)| *e).sum();
    outcome.per_layer("graph.ingest_ms", median(&ingest_ms));
    outcome.per_layer(
        "graph.ingest_edges_per_s",
        ingest_edges as f64 / (ingest_ms.iter().sum::<f64>() / 1e3).max(1e-9),
    );

    // Probes use the workload's first class and first dataset, wherever the
    // seed's shuffle put them in the round.
    let mut first_round = w.round(&state.graphs, opts.seed, 0);
    let pinned = first_round
        .iter()
        .position(|r| (r.dataset, r.class) == w.classes[0])
        .expect("a round covers every class");
    first_round.swap(0, pinned);
    let first_graph = &state.graphs[0];
    let sampling = sut::probe_sampling(first_graph);
    outcome.per_layer("sampling.sample_vertices_ms", sampling.sample_vertices_ms);
    outcome.per_layer("graph.subgraph_extract_ms", sampling.subgraph_extract_ms);
    outcome.per_layer(
        "bsp.engine_run_ms",
        sut::probe_engine_run_ms(&sampling.sample, w.workers),
    );

    let cluster = sut::probe_cluster(&sampling.sample)?;
    outcome.per_layer("cluster.drive_ms", cluster.drive_ms);
    outcome.per_layer("cluster.worker_compute_ms", cluster.worker_compute_ms);
    outcome.per_layer(
        "cluster.driver_overhead_ms",
        cluster.drive_ms - cluster.worker_compute_ms,
    );
    outcome.per_layer("cluster.overhead_ratio", cluster.overhead_ratio);
    outcome.per_layer("cluster.group_spawn_ms", cluster.group_spawn_ms);
    let (encode_ms, decode_ms) = sut::probe_wire();
    outcome.per_layer("cluster.wire_encode_ms", encode_ms);
    outcome.per_layer("cluster.wire_decode_ms", decode_ms);

    let actual = sut::probe_actual_runs();
    outcome.per_layer("bsp.actual_run_ms", actual.auto_ms);
    outcome.per_layer("bsp.actual_run_ms_t1", actual.t1_ms);
    outcome.per_layer("bsp.actual_run_ms_tmax", actual.tmax_ms);
    outcome.per_layer("bsp.edge_supersteps_per_s", actual.edge_supersteps_per_s);

    let [pagerank, topk, cc, semi] = sut::probe_algorithms()?;
    outcome.per_layer("algorithms.pagerank.sample_run_ms", pagerank);
    outcome.per_layer("algorithms.topk.sample_run_ms", topk);
    outcome.per_layer("algorithms.cc.sample_run_ms", cc);
    outcome.per_layer("algorithms.semi.sample_run_ms", semi);

    let store = sut::probe_store(&first_round[0], &scratch.join("probe-store"))?;
    outcome.per_layer("store.open_ms", store.open_ms);
    outcome.per_layer("store.put_sample_ms", store.put_sample_ms);
    outcome.per_layer("store.put_run_ms", store.put_run_ms);
    outcome.per_layer("store.put_model_ms", store.put_model_ms);
    outcome.per_layer("store.get_sample_ms", store.get_sample_ms);
    outcome.per_layer("store.get_run_ms", store.get_run_ms);
    outcome.per_layer("store.get_model_ms", store.get_model_ms);

    let probe_requests = &first_round[..first_round.len().min(SERVICE_PROBE_REQUESTS)];
    let service = probe_service(w, probe_requests, &scratch.join("probe-service"))?;
    outcome.per_layer("predict.submit_warm_us", service.submit_warm_us);
    outcome.per_layer("predict.submit_batch_rps", service.submit_batch_rps);
    outcome.per_layer("predict.store_restart_p50_ms", service.store_restart_p50_ms);

    // First `session_for` per dataset on a fresh service of the workload's
    // own shape: store-backed exactly when the workload is.
    let mut bind_spec = service_spec(w);
    if matches!(w.kind, Kind::StoreWrite | Kind::StoreRestart) {
        bind_spec = bind_spec.with_store(&scratch.join("probe-bind"));
    }
    let bind_sut = Sut::new(&bind_spec);
    let binds: Vec<f64> = state.graphs.iter().map(|g| bind_sut.bind_ms(g)).collect();
    outcome.per_layer("predict.session_bind_ms", median(&binds));
    drop(bind_sut);

    let (span_noop_ns, counter_incr_ns) = sut::probe_obs();
    outcome.per_layer("obs.span_noop_ns", span_noop_ns);
    outcome.per_layer("obs.counter_incr_ns", counter_incr_ns);
    let _ = std::fs::remove_dir_all(scratch.join("probe-store"));
    let _ = std::fs::remove_dir_all(scratch.join("probe-service"));
    let _ = std::fs::remove_dir_all(scratch.join("probe-bind"));
    let probes_s = probes_start.elapsed().as_secs_f64();

    // --- Paired replay ---------------------------------------------------
    let mut ledger = Ledger::new();
    let mut plain = Recorder::default();
    let mut staged = Recorder::default();
    let mut evals = EvalTotals::default();
    let mut first_counts: Option<(Counters, RoundReport)> = None;
    let mut staged_total = RoundReport::default();
    let mut budget = Budget::new((opts.seconds - probes_s).max(0.0));
    while budget.another_round() && ledger.spans().len() < LEDGER_SPAN_CAP {
        let round = budget.rounds();
        refresh_shared(w, round, &mut state.shared);
        refresh_shared(w, round, &mut staged_shared);
        // Alternate which pass goes first, so neither always runs on the
        // caches the other just warmed.
        let staged_first = round % 2 == 1;
        for staged_pass in [staged_first, !staged_first] {
            if staged_pass {
                let report = run_round(
                    w,
                    &state,
                    staged_shared.as_ref().or(state.shared.as_ref()),
                    opts,
                    scratch,
                    round,
                    Pass::Staged(&mut ledger),
                    &mut staged,
                    &mut evals,
                    None,
                );
                staged_total.requests += report.requests;
                staged_total.edge_ratio_sum += report.edge_ratio_sum;
            } else {
                let before = Counters::now();
                let report = run_round(
                    w,
                    &state,
                    state.shared.as_ref(),
                    opts,
                    scratch,
                    round,
                    Pass::Plain,
                    &mut plain,
                    &mut evals,
                    None,
                );
                first_counts.get_or_insert_with(|| (Counters::now().since(before), report));
            }
        }
        budget.round_done();
    }
    let (counts, first_report) = first_counts.expect("at least one plain round ran");
    crate::run::assert_counters(w, &counts, first_report.pool_threads_spawned, &mut rec);

    // --- Replay metrics --------------------------------------------------
    let durations = ledger.durations_ms();
    let stage_median = |name: &str| durations.get(name).map_or(0.0, |v| median(v));
    outcome.per_layer(
        "sampling.sample_artifact_ms",
        stage_median("sampling.sample_artifact"),
    );
    outcome.per_layer("bsp.sample_run_ms", stage_median("bsp.sample_run"));
    outcome.per_layer("predict.train_ms", stage_median("predict.trained_model"));
    outcome.per_layer(
        "predict.extrapolate_ms",
        stage_median("predict.predict_with"),
    );
    outcome.per_layer(
        "sampling.edge_ratio",
        staged_total.edge_ratio_sum / staged_total.requests.max(1) as f64,
    );
    let span_sum = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| durations.get(n))
            .map(|v| v.iter().sum::<f64>())
            .sum()
    };
    let plain_ms = plain.busy_s * 1e3;
    outcome.per_layer(
        "predict.reconcile_ratio",
        reconcile_ratio(span_sum(&STAGE_SPANS), plain_ms),
    );
    outcome.per_layer(
        "obs.harness_overhead_ratio",
        reconcile_ratio(span_sum(&["request"]), plain_ms),
    );

    let requests = first_report.requests.max(1) as f64;
    outcome.per_layer("bsp.runs", counts.bsp_runs as f64);
    outcome.per_layer("bsp.supersteps", counts.bsp_supersteps as f64);
    outcome.per_layer("bsp.messages", first_report.sample_run_messages as f64);
    outcome.per_layer("bsp.pool_tasks", counts.pool_tasks as f64);
    outcome.per_layer(
        "bsp.pool_threads_spawned",
        first_report.pool_threads_spawned as f64,
    );
    outcome.per_layer("cluster.steps", counts.cluster_steps as f64);
    outcome.per_layer("cluster.wire_bytes", counts.cluster_wire_bytes as f64);
    outcome.per_layer("store.reads", counts.store_reads as f64);
    outcome.per_layer("store.hits", counts.store_hits as f64);
    outcome.per_layer("store.writes", counts.store_writes as f64);
    outcome.per_layer("store.bytes", counts.store_bytes as f64);
    outcome.per_layer("store.quarantined", counts.store_quarantined as f64);
    outcome.per_layer(
        "store.hit_rate",
        counts.store_hits as f64 / (counts.store_reads as f64).max(1.0),
    );
    outcome.per_layer(
        "store.disk_bytes_per_request",
        counts.store_bytes as f64 / requests,
    );
    outcome.per_layer("predict.cache_hits", first_report.cache.hits as f64);
    outcome.per_layer("predict.cache_misses", first_report.cache.misses as f64);
    outcome.per_layer("predict.store_hits", first_report.cache.store_hits as f64);

    // The metrics too unsteady or too workload-specific to bound end to end.
    let (overhead, edges_per_s, iteration_error, runtime_error) = evals.metrics();
    outcome.per_layer("sample_overhead_ratio", overhead);
    outcome.per_layer("actual_edges_per_s", edges_per_s);
    outcome.per_layer("iteration_error_abs_median", iteration_error);
    outcome.per_layer("runtime_error_abs_median", runtime_error);
    outcome.per_layer("store_disk_mb", first_report.disk_bytes as f64 / 1e6);

    // --- Teardown and files ----------------------------------------------
    drop(staged_shared);
    drop(state);
    // The cluster probe (and a socket workload) leave a pooled worker group.
    sut::reap_worker_group(sut::CLUSTER_PROBE_WORKERS);
    if w.transport == Transport::Socket {
        sut::reap_worker_group(w.workers);
    }

    let mut sorted = std::mem::take(&mut plain.latencies_ms);
    sort(&mut sorted);
    outcome.extra("plain_latency_p50_ms", percentile(&sorted, 50.0), "ms");
    outcome.extra("probes_s", probes_s, "s");
    outcome.extra("traced_run_s", run_start.elapsed().as_secs_f64(), "s");
    for (name, ms) in ledger.self_ms_by_name() {
        outcome.extra(&format!("self_ms.{name}"), ms, "ms");
    }
    outcome.samples = sorted.len() as u64;
    outcome.rounds = budget.rounds();
    outcome.clients = 1;
    outcome.tail_percentile = w.tail_percentile;
    outcome.per_class = plain.class_rows();
    rec.merge(plain);
    rec.merge(staged);
    outcome.finish(&rec);

    let trace_path = opts.results_dir.join(format!("{}.trace.json", w.name));
    std::fs::write(&trace_path, ledger.chrome_trace(stamp, TRACE_FILE_EVENTS))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(outcome)
}
