//! Cluster timing: simulated versus measured superstep cost.
//!
//! The whole reproduction runs on a *simulated* cluster clock — the paper's
//! cost-model inputs are deterministic per-superstep times derived from the
//! Table 1 counters. The cluster subsystem adds the first *measured* numbers
//! in the stack: a transport-backed run records the driver-observed wall
//! time of every superstep round plus per-worker compute time and serialized
//! bytes on the wire. This report drives the same pinned PageRank run
//! through in-process worker threads and worker processes (the `inproc` and
//! `socket` transports) and prints both timelines side by side, which is what lets the simulated cost
//! model be sanity-checked against an actual message-passing execution.
//!
//! The run's *results* are byte-identical across transports (runtime
//! determinism contract point 8); only the timing columns differ. Measured
//! wall-clock numbers vary run to run and machine to machine, so this
//! subcommand is deliberately **not** one of the golden `scenario_runner`
//! scenarios — it is a report, not a regression artifact.
//!
//! ```text
//! predict_bench cluster_timing [--json]
//! ```
//!
//! `--json` dumps the full per-transport [`MeasuredRun`]s (plus the derived
//! timing summaries) as machine-readable JSON on stdout instead of the
//! table, so measured timings can be diffed across runs and machines.

use predict_algorithms::{PageRank, PageRankParams};
use predict_bench::{experiment_scale, load_dataset, ResultTable};
use predict_bsp::{BspConfig, MeasuredRun, RunProfile};
use predict_cluster::{drive, DriveOptions, ProgramSpec, TransportKind};
use predict_graph::datasets::Dataset;
use serde::Serialize;

/// One transport's entry in the `--json` dump: the derived summary plus the
/// raw measured run it came from.
#[derive(Debug, Serialize)]
struct JsonEntry {
    timing: TransportTiming,
    measured: MeasuredRun,
}

/// Everything the report records for one transport's run.
#[derive(Debug, Serialize)]
struct TransportTiming {
    transport: String,
    supersteps: usize,
    /// Simulated superstep-phase time from the cluster clock (ms).
    simulated_superstep_ms: f64,
    /// Measured superstep-phase wall time as seen by the driver (ms).
    measured_superstep_ms: f64,
    /// Measured wall time of the whole run, setup through value collection (ms).
    measured_total_ms: f64,
    /// Total serialized bytes that crossed the wire.
    wire_bytes: u64,
    /// Raw remote message payload bytes from the Table 1 counters — the
    /// bytes the simulated clock's network term charges for.
    remote_payload_bytes: u64,
    /// Per-superstep `(simulated_ms, measured_ms)` pairs.
    per_superstep: Vec<(f64, f64)>,
}

fn timing_of(profile: &RunProfile, measured: &MeasuredRun) -> TransportTiming {
    let per_superstep: Vec<(f64, f64)> = profile
        .supersteps
        .iter()
        .zip(&measured.supersteps)
        .map(|(sim, m)| (sim.wall_time_ms, m.wall_ns as f64 / 1e6))
        .collect();
    let remote_payload_bytes = profile
        .supersteps
        .iter()
        .flat_map(|s| &s.workers)
        .map(|w| w.remote_message_bytes)
        .sum();
    TransportTiming {
        transport: measured.transport.clone(),
        supersteps: profile.supersteps.len(),
        simulated_superstep_ms: profile.superstep_phase_ms(),
        measured_superstep_ms: measured.superstep_phase_ms(),
        measured_total_ms: measured.total_wall_ns as f64 / 1e6,
        wire_bytes: measured.total_wire_bytes(),
        remote_payload_bytes,
        per_superstep,
    }
}

/// Drives the pinned run over both transports and reports the timelines.
pub fn run(args: &[String]) {
    let _obs = predict_bench::observability_guard();
    let json = args.iter().any(|a| a == "--json");
    let scale = experiment_scale();
    let graph = load_dataset(Dataset::LiveJournal, scale);
    let params = PageRankParams::with_epsilon(0.01, graph.num_vertices());
    let program = PageRank::new(params);
    let spec = ProgramSpec::PageRank { params };
    let config = BspConfig::with_workers(4);

    let mut table = ResultTable::new(
        "Simulated vs measured superstep cost (PageRank on LJ analog)",
        &[
            "transport",
            "supersteps",
            "sim superstep ms",
            "meas superstep ms",
            "meas total ms",
            "wire KB",
        ],
    );
    let mut points: Vec<TransportTiming> = Vec::new();
    let mut measured_runs: Vec<MeasuredRun> = Vec::new();

    for kind in [TransportKind::InProc, TransportKind::Socket] {
        let opts = DriveOptions::new(kind);
        let result =
            drive(&program, &spec, &[], &graph, &config, &opts).expect("cluster drive succeeds");
        let measured = result
            .profile
            .measured
            .as_ref()
            .expect("transport-backed runs record measured timings");
        let timing = timing_of(&result.profile, measured);
        table.push_row(vec![
            timing.transport.clone(),
            timing.supersteps.to_string(),
            format!("{:.3}", timing.simulated_superstep_ms),
            format!("{:.3}", timing.measured_superstep_ms),
            format!("{:.3}", timing.measured_total_ms),
            format!("{:.1}", timing.wire_bytes as f64 / 1024.0),
        ]);
        points.push(timing);
        measured_runs.push(measured.clone());
    }

    // The determinism contract makes the simulated columns transport-
    // independent; assert it so the report can't silently drift.
    for p in &points[1..] {
        assert_eq!(
            points[0].simulated_superstep_ms, p.simulated_superstep_ms,
            "simulated timings must be identical across transports"
        );
        assert_eq!(points[0].supersteps, p.supersteps);
        // Serialized frames are deterministic, so measured wire bytes are a
        // transport-independent property of the run — threads and processes
        // must report the same count, superstep by superstep.
        assert_eq!(
            points[0].wire_bytes, p.wire_bytes,
            "measured wire bytes must be identical across transports"
        );
        assert_eq!(points[0].remote_payload_bytes, p.remote_payload_bytes);
    }
    // Network term against the wire: the simulated clock charges every
    // remote message its full payload, while a batch section writes a run of
    // byte-identical messages once and a broadcast once per destination
    // worker (its destinations cross once per drive, in superstep 0's
    // tables), so the ratio is reported, not bounded.
    eprintln!(
        "[cluster_timing] network term: {} remote payload bytes, {} measured wire bytes \
         ({:.2}x the payload), identical across {} transports",
        points[0].remote_payload_bytes,
        points[0].wire_bytes,
        points[0].wire_bytes as f64 / points[0].remote_payload_bytes.max(1) as f64,
        points.len()
    );

    if json {
        let entries: Vec<JsonEntry> = points
            .into_iter()
            .zip(measured_runs)
            .map(|(timing, measured)| JsonEntry { timing, measured })
            .collect();
        let payload = serde_json::to_string_pretty(&entries).expect("measured timings serialize");
        println!("{payload}");
    } else if let Err(e) = table.emit("cluster_timing", &points) {
        predict_obs::diag!(Error, "could not save the cluster_timing report: {e}");
        std::process::exit(1);
    }
}
