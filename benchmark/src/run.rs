//! Set-up, the round executor both run modes share, and the untraced run
//! that produces the end-to-end metrics.

use crate::ledger::Ledger;
use crate::report::{ClassRow, Outcome};
use crate::stats::{highest_supported_percentile, median, percentile, sort};
use crate::sut::{
    self, CacheStats, Counters, Graph, Request, Response, ServiceSpec, Sut, Transport,
};
use crate::workloads::{shuffle, Kind, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Where result files go; scratch data lives in a sub-directory.
    pub results_dir: PathBuf,
}

/// Set-up repeats per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// `warm_memory` requests per client that stand in for a round; the first
/// response of every block is byte-compared.
const WARM_BLOCK: u64 = 1000;

/// Everything the measured phase starts from.
pub struct State {
    pub graphs: Vec<Graph>,
    /// (ms, edges) of each `generate` call, for the `graph` layer metrics.
    pub ingest: Vec<(f64, usize)>,
    /// The long-lived service of `ColdShared` and `Warm` workloads.
    pub shared: Option<Sut>,
    /// Requests answered during set-up with their serialized responses:
    /// the primed list (`Warm`) or the populated list (`StoreRestart`).
    pub recorded: Vec<(Request, String)>,
    /// The populated store directory of `StoreRestart`.
    pub store_dir: Option<PathBuf>,
}

pub fn service_spec(w: &Workload) -> ServiceSpec {
    ServiceSpec::memory(w.workers, w.transport)
}

fn submit_recorded(sut: &Sut, requests: Vec<Request>) -> Result<Vec<(Request, String)>, String> {
    requests
        .into_iter()
        .map(|request| {
            let response = sut.submit(&request)?;
            if !response.is_sane() {
                return Err(format!(
                    "set-up: {} failed its output check",
                    request.class_label()
                ));
            }
            let bytes = response.bytes();
            Ok((request, bytes))
        })
        .collect()
}

/// Builds the state a workload's measured phase starts from: graph
/// generation, service construction, worker-group spawn, cache priming,
/// store population — everything `setup_s` covers.
pub fn setup(
    w: &Workload,
    opts: &Options,
    scratch: &Path,
    attempt: usize,
) -> Result<State, String> {
    let mut ingest = Vec::new();
    let graphs: Vec<Graph> = w
        .datasets()
        .into_iter()
        .map(|dataset| {
            let t = Instant::now();
            let graph = Graph::generate(dataset, w.scale);
            ingest.push((t.elapsed().as_secs_f64() * 1e3, graph.edges()));
            graph
        })
        .collect();
    let mut state = State {
        graphs,
        ingest,
        shared: None,
        recorded: Vec::new(),
        store_dir: None,
    };
    match w.kind {
        Kind::ColdShared => {
            if w.transport == Transport::Socket {
                // Every set-up pays its own worker-group spawn.
                sut::reap_worker_group(w.workers);
            }
            let sut = Sut::new(&service_spec(w));
            if w.transport == Transport::Socket {
                // One unmeasured request spawns the pooled worker group; its
                // predictor seed is outside every round's range.
                let warm_up = Request::new(&state.graphs[0], sut::Class::Cc, u64::MAX - opts.seed);
                sut.submit(&warm_up)?;
            }
            state.shared = Some(sut);
        }
        Kind::Warm => {
            let sut = Sut::new(&service_spec(w));
            state.recorded = submit_recorded(&sut, w.round(&state.graphs, opts.seed, 0))?;
            state.shared = Some(sut);
        }
        Kind::StoreRestart => {
            let dir = scratch.join(format!("populated-{attempt}"));
            let sut = Sut::new(&service_spec(w).with_store(&dir));
            state.recorded = submit_recorded(&sut, w.round(&state.graphs, opts.seed, 0))?;
            state.store_dir = Some(dir);
        }
        Kind::StoreWrite | Kind::Evaluate => {}
    }
    Ok(state)
}

/// Latencies, verdicts and busy time of the requests a phase sent.
#[derive(Default)]
pub struct Recorder {
    /// `f32` keeps `warm_memory`'s millions of samples small next to the
    /// program's own memory, which `peak_rss_mb` is meant to show.
    pub latencies_ms: Vec<f32>,
    pub by_class: BTreeMap<String, Vec<f32>>,
    pub attempted: u64,
    pub failed: u64,
    /// First few failure messages, for the result file.
    pub failures: Vec<String>,
    /// Σ request latency: the measured-phase wall of a one-client phase,
    /// free of the harness's own checking between requests.
    pub busy_s: f64,
    /// One entry per finished round. The end-to-end numbers are medians
    /// over these, so interference from outside that slows a minority of
    /// rounds does not move them.
    pub rounds: Vec<RoundStats>,
    /// (requests, failures, busy seconds) when the last round ended.
    round_mark: (usize, u64, f64),
}

/// Throughput and latency of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Verified-OK requests per busy second.
    pub rate: f64,
    pub p50_ms: f64,
    /// The workload's tail percentile within the round.
    pub tail_ms: f64,
}

impl Recorder {
    pub fn request(&mut self, class: String, latency: Duration, verdict: Result<(), String>) {
        self.by_class
            .entry(class)
            .or_default()
            .push(latency.as_secs_f32() * 1e3);
        self.sample(latency, verdict);
    }

    /// A request outside the per-class table (`warm_memory`, where a map
    /// insert would cost as much as the request itself).
    pub fn sample(&mut self, latency: Duration, verdict: Result<(), String>) {
        self.busy_s += latency.as_secs_f64();
        self.latencies_ms.push(latency.as_secs_f32() * 1e3);
        self.check(verdict);
    }

    /// Counts one verification (an output check or a counter assertion).
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(message);
            }
        }
    }

    /// Closes a round: the statistics of the requests sent since the last
    /// one join `rounds`.
    pub fn end_round(&mut self, tail_percentile: f64) {
        let (requests, failed, busy_s) = self.round_mark;
        let mut sorted = self.latencies_ms[requests..].to_vec();
        sort(&mut sorted);
        let ok = (sorted.len() as u64).saturating_sub(self.failed - failed);
        self.rounds.push(RoundStats {
            rate: ok as f64 / (self.busy_s - busy_s).max(1e-9),
            p50_ms: percentile(&sorted, 50.0),
            tail_ms: percentile(&sorted, tail_percentile),
        });
        self.round_mark = (self.latencies_ms.len(), self.failed, self.busy_s);
    }

    /// Median over the rounds of one per-round statistic.
    pub fn round_median(&self, stat: impl Fn(&RoundStats) -> f64) -> f64 {
        median(&self.rounds.iter().map(stat).collect::<Vec<_>>())
    }

    pub fn merge(&mut self, mut other: Recorder) {
        self.latencies_ms.append(&mut other.latencies_ms);
        for (class, mut v) in other.by_class {
            self.by_class.entry(class).or_default().append(&mut v);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(8);
        self.busy_s += other.busy_s;
        self.rounds.append(&mut other.rounds);
    }

    pub fn class_rows(&self) -> Vec<ClassRow> {
        self.by_class
            .iter()
            .map(|(class, v)| {
                let mut sorted = v.clone();
                sort(&mut sorted);
                let tail = highest_supported_percentile(sorted.len());
                ClassRow {
                    class: class.clone(),
                    samples: sorted.len() as u64,
                    p50_ms: percentile(&sorted, 50.0),
                    tail_percentile: tail,
                    tail_ms: percentile(&sorted, f64::from(tail)),
                }
            })
            .collect()
    }
}

/// Sums over the `evaluate` requests of a phase (the paper's own metrics).
#[derive(Default)]
pub struct EvalTotals {
    pub submit_s: f64,
    pub actual_s: f64,
    pub edge_supersteps: f64,
    pub iteration_errors: Vec<f64>,
    pub runtime_errors: Vec<f64>,
}

impl EvalTotals {
    /// (sample_overhead_ratio, actual_edges_per_s, |iteration error| median,
    /// |runtime error| median); zeros when nothing was evaluated.
    pub fn metrics(&self) -> (f64, f64, f64, f64) {
        if self.actual_s == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let abs = |v: &[f64]| median(&v.iter().map(|e| e.abs()).collect::<Vec<_>>());
        (
            self.submit_s / self.actual_s,
            self.edge_supersteps / self.actual_s,
            abs(&self.iteration_errors),
            abs(&self.runtime_errors),
        )
    }
}

/// What one round did besides answering requests.
#[derive(Default, Clone, Copy)]
pub struct RoundReport {
    pub requests: u64,
    pub cache: CacheStats,
    pub pool_threads_spawned: u64,
    pub sample_run_messages: u64,
    /// Bytes under the round's store directory when it ended.
    pub disk_bytes: u64,
    /// Σ over requests of the sample's share of the full graph's edges
    /// (staged passes only).
    pub edge_ratio_sum: f64,
}

/// How a round sends its requests.
pub enum Pass<'a> {
    /// `submit` / `evaluate`, timed at the caller.
    Plain,
    /// The per-layer decomposition, recorded in the ledger.
    Staged(&'a mut Ledger),
}

fn dir_size(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_size(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn verdict(response: &Response, expected: Option<&str>) -> Result<(), String> {
    if !response.is_sane() {
        return Err("prediction is not finite or predicts zero iterations".into());
    }
    match expected {
        Some(bytes) if response.bytes() != bytes => {
            Err("response differs from the one recorded at first computation".into())
        }
        _ => Ok(()),
    }
}

/// Runs one round of `w` single-client and records it. `shared` is the
/// long-lived service of `ColdShared`/`Warm` workloads; the other kinds
/// build (and drop) their own. `keep_bytes`, when given, receives each
/// request with its serialized response.
#[allow(clippy::too_many_arguments)]
pub fn run_round(
    w: &Workload,
    state: &State,
    shared: Option<&Sut>,
    opts: &Options,
    scratch: &Path,
    round: u64,
    mut pass: Pass<'_>,
    rec: &mut Recorder,
    evals: &mut EvalTotals,
    mut keep_bytes: Option<&mut Vec<(Request, String)>>,
) -> RoundReport {
    // Untimed per-round preparation: the request list and, for the kinds
    // that restart, the fresh service.
    let requests: Vec<(Request, Option<&str>)> = match w.kind {
        // The recorded list again, in a fresh order, each response expected
        // to match the one recorded at first computation.
        Kind::Warm | Kind::StoreRestart => {
            let mut picks: Vec<&(Request, String)> = state.recorded.iter().collect();
            shuffle(&mut picks, opts.seed, round + 1);
            picks
                .into_iter()
                .map(|(request, bytes)| (request.clone(), Some(bytes.as_str())))
                .collect()
        }
        _ => w
            .round(&state.graphs, opts.seed, round)
            .into_iter()
            .map(|request| (request, None))
            .collect(),
    };
    let round_dir = (w.kind == Kind::StoreWrite).then(|| scratch.join(format!("round-{round}")));
    let store_dir = round_dir.as_ref().or(state.store_dir.as_ref());
    let owned;
    let sut: &Sut = match w.kind {
        Kind::ColdShared | Kind::Warm => shared.expect("shared service"),
        Kind::StoreWrite | Kind::StoreRestart => {
            let dir = store_dir.expect("store workloads have a directory");
            owned = Sut::new(&service_spec(w).with_store(dir));
            &owned
        }
        Kind::Evaluate => {
            owned = Sut::new(&service_spec(w));
            &owned
        }
    };

    let cache_before = sut.cache_stats();
    let threads_before = sut.pool_threads_spawned();
    let mut report = RoundReport {
        requests: requests.len() as u64,
        ..RoundReport::default()
    };
    let evaluate = w.kind == Kind::Evaluate;
    for (i, (request, expected)) in requests.iter().enumerate() {
        let expected = *expected;
        let id = round * 1_000_000 + i as u64;
        let t = Instant::now();
        let answered: Result<Response, String> = match &mut pass {
            Pass::Plain if evaluate => sut.evaluate(request).and_then(|e| {
                let sane = e.is_sane();
                evals.submit_s += e.submit_s;
                evals.actual_s += e.actual_s;
                evals.edge_supersteps += e.edge_supersteps;
                evals.iteration_errors.push(e.iteration_error);
                evals.runtime_errors.push(e.runtime_error);
                if sane {
                    Ok(e.response)
                } else {
                    Err("evaluation is not finite".into())
                }
            }),
            Pass::Plain => sut.submit(request),
            Pass::Staged(ledger) => {
                sut.submit_staged(request, evaluate, ledger, id)
                    .map(|(response, edge_ratio)| {
                        report.edge_ratio_sum += edge_ratio;
                        response
                    })
            }
        };
        let latency = t.elapsed();
        let checked = answered.and_then(|response| {
            report.sample_run_messages += response.sample_run_messages();
            verdict(&response, expected)?;
            if let Some(kept) = keep_bytes.as_deref_mut() {
                kept.push((request.clone(), response.bytes()));
            }
            Ok(())
        });
        rec.request(request.class_label(), latency, checked);
    }
    rec.end_round(w.tail_percentile);

    let cache_after = sut.cache_stats();
    report.cache = CacheStats {
        hits: cache_after.hits - cache_before.hits,
        misses: cache_after.misses - cache_before.misses,
        store_hits: cache_after.store_hits - cache_before.store_hits,
    };
    report.pool_threads_spawned = sut.pool_threads_spawned() - threads_before;
    report.disk_bytes = store_dir.map_or(0, |dir| dir_size(dir));
    if let Some(dir) = round_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    report
}

/// Rounds a `ColdShared` service lives for. Its sessions keep every
/// artifact they compute, so an unbounded lifetime would make peak memory
/// grow with the number of rounds — that is, with throughput.
const ROUNDS_PER_SERVICE: u64 = 8;

/// Replaces a `ColdShared` workload's long-lived service at every
/// `ROUNDS_PER_SERVICE`-th round.
pub fn refresh_shared(w: &Workload, round: u64, shared: &mut Option<Sut>) {
    if w.kind == Kind::ColdShared && round > 0 && round.is_multiple_of(ROUNDS_PER_SERVICE) {
        // Drop first: the old caches must not overlap the new service.
        *shared = None;
        *shared = Some(Sut::new(&service_spec(w)));
    }
}

/// Decides whether another whole round still fits the time budget.
pub struct Budget {
    start: Instant,
    seconds: f64,
    rounds: u64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Self {
            start: Instant::now(),
            seconds,
            rounds: 0,
        }
    }

    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    pub fn round_done(&mut self) {
        self.rounds += 1;
    }

    /// At least one round always runs; a further one starts only if, at the
    /// average round time so far, it would end within the budget.
    pub fn another_round(&self) -> bool {
        if self.rounds == 0 {
            return true;
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        elapsed + elapsed / self.rounds as f64 <= self.seconds
    }
}

/// `warm_memory`'s measured phase: `clients` closed-loop threads resubmit
/// the primed requests until the time is up.
fn run_warm_clients(state: &State, seconds: f64, clients: usize) -> Recorder {
    let sut = state.shared.as_ref().expect("primed service");
    let primed = &state.recorded;
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let recorders: Vec<Recorder> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut rec = Recorder::default();
                    // Clients walk the primed list from different offsets.
                    let mut i = client * primed.len() / clients;
                    let mut sent = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let (request, expected) = &primed[i % primed.len()];
                        let t = Instant::now();
                        let answered = sut.submit(request);
                        let latency = t.elapsed();
                        let check_bytes = sent.is_multiple_of(WARM_BLOCK);
                        let checked = answered.and_then(|response| {
                            verdict(&response, check_bytes.then_some(expected.as_str()))
                        });
                        rec.sample(latency, checked);
                        i += 1;
                        sent += 1;
                        if sent.is_multiple_of(WARM_BLOCK) {
                            rec.end_round(50.0);
                        }
                    }
                    rec
                })
            })
            .collect();
        while start.elapsed().as_secs_f64() < seconds {
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Recorder::default();
    for rec in recorders {
        total.merge(rec);
    }
    total
}

fn expect(rec: &mut Recorder, holds: bool, what: &str, delta: &Counters) {
    rec.check(if holds {
        Ok(())
    } else {
        Err(format!("counter assertion failed: {what} ({delta:?})"))
    });
}

/// The per-workload counter assertions: which layers must have done work
/// during the measured phase and which must have done none.
pub fn assert_counters(w: &Workload, delta: &Counters, threads_spawned: u64, rec: &mut Recorder) {
    let socket = w.transport == Transport::Socket;
    expect(
        rec,
        (delta.cluster_steps > 0) == socket,
        "cluster.steps > 0 only on socket",
        delta,
    );
    match w.kind {
        Kind::ColdShared | Kind::Evaluate => {
            // Socket runs execute in the worker processes and count as
            // cluster steps, not as in-process engine runs.
            expect(
                rec,
                (delta.bsp_runs > 0) != socket,
                "bsp.runs > 0 unless on socket",
                delta,
            );
            expect(rec, delta.store_reads == 0, "store.reads = 0", delta);
            expect(rec, delta.store_writes == 0, "store.writes = 0", delta);
        }
        Kind::Warm => {
            expect(rec, delta.bsp_runs == 0, "bsp.runs = 0", delta);
            expect(rec, delta.store_reads == 0, "store.reads = 0", delta);
            expect(rec, threads_spawned == 0, "pool_threads_spawned = 0", delta);
        }
        Kind::StoreWrite => {
            expect(rec, delta.bsp_runs > 0, "bsp.runs > 0", delta);
            expect(rec, delta.store_writes > 0, "store.writes > 0", delta);
            expect(rec, delta.store_hits == 0, "store.hits = 0", delta);
        }
        Kind::StoreRestart => {
            expect(rec, delta.bsp_runs == 0, "bsp.runs = 0", delta);
            expect(rec, delta.store_writes == 0, "store.writes = 0", delta);
            expect(
                rec,
                delta.store_reads > 0 && delta.store_hits == delta.store_reads,
                "store hit-rate = 1.0",
                delta,
            );
        }
    }
    expect(
        rec,
        delta.store_quarantined == 0,
        "store.quarantined = 0",
        delta,
    );
}

/// Recomputes `recorded` on an in-memory service with the same worker count
/// and checks every response byte for byte.
fn verify_against_in_memory(w: &Workload, recorded: &[(Request, String)], rec: &mut Recorder) {
    let reference = Sut::new(&ServiceSpec::memory(w.workers, Transport::InMemory));
    for (request, bytes) in recorded {
        let checked = reference
            .submit(request)
            .and_then(|response| verdict(&response, Some(bytes)));
        rec.check(
            checked.map_err(|e| format!("socket vs in-memory {}: {e}", request.class_label())),
        );
    }
}

pub fn client_threads(w: &Workload) -> usize {
    if w.kind == Kind::Warm {
        sut::nproc().min(4)
    } else {
        // The engine itself fans supersteps out to every core.
        1
    }
}

/// The untraced run: set up (several times, for a steady `setup_s`),
/// measure whole rounds for `opts.seconds`, verify, and report the
/// end-to-end metrics.
pub fn run_untraced(w: &Workload, opts: &Options, scratch: &Path) -> Result<Outcome, String> {
    let repeats = if opts.smoke { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::new();
    let mut state = None;
    for attempt in 0..repeats {
        // Drop the previous attempt first so set-ups do not stack in memory.
        if let Some(State {
            store_dir: Some(dir),
            ..
        }) = state.take()
        {
            let _ = std::fs::remove_dir_all(dir);
        }
        let t = Instant::now();
        state = Some(setup(w, opts, scratch, attempt)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");

    let clients = client_threads(w);
    let mut rec = Recorder::default();
    let mut evals = EvalTotals::default();
    let mut first_round = Vec::new();
    let mut disk_bytes = 0;
    let mut threads_spawned = 0;
    let before = Counters::now();
    if w.kind == Kind::Warm {
        let sut = state.shared.as_ref().expect("primed service");
        let threads_before = sut.pool_threads_spawned();
        let warm = run_warm_clients(&state, opts.seconds, clients);
        threads_spawned = sut.pool_threads_spawned() - threads_before;
        rec.merge(warm);
    } else {
        let mut budget = Budget::new(opts.seconds);
        while budget.another_round() {
            refresh_shared(w, budget.rounds(), &mut state.shared);
            let keep = (w.transport == Transport::Socket && budget.rounds() == 0)
                .then_some(&mut first_round);
            let report = run_round(
                w,
                &state,
                state.shared.as_ref(),
                opts,
                scratch,
                budget.rounds(),
                Pass::Plain,
                &mut rec,
                &mut evals,
                keep,
            );
            disk_bytes = report.disk_bytes;
            budget.round_done();
        }
    }
    let delta = Counters::now().since(before);
    assert_counters(w, &delta, threads_spawned, &mut rec);

    // Teardown: cross-check socket answers, then stop the worker processes.
    let mut worker_rss_kb = 0;
    if w.transport == Transport::Socket {
        verify_against_in_memory(w, &first_round, &mut rec);
        worker_rss_kb = crate::proc::children_vm_hwm_kb();
        drop(state);
        sut::reap_worker_group(w.workers);
    }

    let mut outcome = Outcome::new(w.name, opts, false);
    outcome.end_to_end("setup_s", median(&setup_s));
    // A round's rate is per client (requests over that client's busy
    // time); concurrent clients add up.
    outcome.end_to_end(
        "requests_per_s",
        rec.round_median(|r| r.rate) * clients as f64,
    );
    outcome.end_to_end("latency_p50_ms", rec.round_median(|r| r.p50_ms));
    outcome.end_to_end("latency_tail_ms", rec.round_median(|r| r.tail_ms));
    outcome.end_to_end(
        "peak_rss_mb",
        (crate::proc::own_vm_hwm_kb() + worker_rss_kb) as f64 / 1024.0,
    );
    let (overhead, edges_per_s, iteration_error, runtime_error) = evals.metrics();
    if w.kind == Kind::Evaluate {
        outcome.extra("sample_overhead_ratio", overhead, "ratio");
        outcome.extra("actual_edges_per_s", edges_per_s, "1/s");
        outcome.extra("iteration_error_abs_median", iteration_error, "ratio");
        outcome.extra("runtime_error_abs_median", runtime_error, "ratio");
    }
    if disk_bytes > 0 {
        outcome.extra("store_disk_mb", disk_bytes as f64 / 1e6, "MB");
    }
    outcome.samples = rec.latencies_ms.len() as u64;
    outcome.rounds = rec.rounds.len() as u64;
    outcome.clients = clients as u64;
    outcome.tail_percentile = w.tail_percentile;
    outcome.setup_samples_s = setup_s;
    outcome.per_class = rec.class_rows();
    outcome.finish(&rec);
    Ok(outcome)
}
