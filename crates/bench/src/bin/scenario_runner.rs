//! Scenario runner: executes every figure/table experiment binary and diffs
//! its JSON output against the golden files under `crates/bench/golden/`.
//!
//! Every stage of the reproduction is deterministic — fixed experiment seeds,
//! a seeded simulated cluster clock, and a BSP runtime that is byte-identical
//! at every thread count — so each experiment's JSON is a stable artifact.
//! The goldens pin them: any engine, sampling or prediction change that
//! shifts a single byte of any figure shows up as a diff here, which is what
//! lets the runtime be refactored aggressively (ROADMAP "Experiment harness
//! scenarios").
//!
//! Usage:
//!
//! ```text
//! scenario_runner                # run all scenarios, diff against goldens
//! scenario_runner --bless        # run all scenarios, (re)write the goldens
//! scenario_runner fig4 table3    # only scenarios whose name contains a filter
//! scenario_runner --expect-warm  # additionally assert a warm store answered
//! ```
//!
//! `--expect-warm` requires `PREDICT_STORE` to point at a directory a prior
//! pass already populated: every scenario must still match its golden *and*
//! its `[store-summary]` stderr line (emitted by the experiment harness when
//! the knob is set) must report zero engine runs — the warm pass answered
//! entirely from the persistent artifact store, byte-identically, without
//! re-executing a single stored sample or actual run.
//!
//! Scenarios execute at `PREDICT_SCALE=small` (goldens are small-scale
//! artifacts; override by exporting `PREDICT_SCALE` yourself) and honor
//! `PREDICT_THREADS` and `PREDICT_TRANSPORT`, so CI can assert that 1-thread
//! and 4-thread sweeps — and the in-memory, in-process and
//! Unix-domain-socket transports — all produce the same goldens. The summary table carries a
//! transport column recording which transport each scenario ran under, and a
//! scenario that dies mid-run (e.g. a killed cluster worker) surfaces the
//! tail of its stderr, which includes the worker id, superstep and worker
//! stderr carried by the structured cluster error. Exit code: 0 when every
//! scenario matches, 1 on any mismatch or missing golden.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The figure/table experiment binaries; each emits
/// `target/experiments/<name>.json`.
const SCENARIOS: [&str; 15] = [
    "fig4_pagerank_iterations",
    "fig5_semiclustering_iterations",
    "fig6_topk_features",
    "fig7_semiclustering_runtime",
    "fig8_topk_runtime",
    "fig9_sampling_sensitivity",
    "fig9_new_generators",
    "table2_datasets",
    "table2_new_datasets",
    "table3_overhead",
    "ablation_critical_path",
    "ablation_extrapolation",
    "ablation_transform",
    "semiclustering_sensitivity",
    "upper_bounds",
];

/// Directory of this binary's sibling experiment binaries.
fn bin_dir() -> PathBuf {
    let mut exe = std::env::current_exe().expect("current exe path");
    exe.pop();
    exe
}

/// The golden directory, resolved relative to the crate at compile time so
/// the runner works from any working directory inside the repo.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// A finished scenario child: its experiment JSON plus its stderr (which
/// carries the `[store-summary]` line when `PREDICT_STORE` is set).
struct ScenarioRun {
    json: String,
    stderr: String,
}

fn run_scenario(name: &str) -> Result<ScenarioRun, String> {
    let bin = bin_dir().join(name);
    let scale = std::env::var("PREDICT_SCALE").unwrap_or_else(|_| "small".to_string());
    let output = Command::new(&bin)
        .env("PREDICT_SCALE", &scale)
        .output()
        .map_err(|e| format!("could not launch {}: {e}", bin.display()))?;
    if !output.status.success() {
        // Surface the tail of the child's stderr so a CI failure is
        // debuggable without a local repro. Cluster-transport failures land
        // here too: a killed worker aborts the experiment with a structured
        // error naming the worker, the superstep and the worker's own stderr
        // tail, so the tail is deep enough to carry all of it.
        let stderr = String::from_utf8_lossy(&output.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(20).collect();
        let tail: Vec<&str> = tail.into_iter().rev().collect();
        return Err(format!(
            "{name} exited with {}; stderr tail:\n  {}",
            output.status,
            tail.join("\n  ")
        ));
    }
    let json_path = predict_bench::output_dir().join(format!("{name}.json"));
    let json = std::fs::read_to_string(&json_path)
        .map_err(|e| format!("{name} produced no {}: {e}", json_path.display()))?;
    Ok(ScenarioRun {
        json,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    })
}

/// The engine-run count a child's `[store-summary]` stderr line reported,
/// or an error when the line is absent or unparseable (the harness only
/// emits it when `PREDICT_STORE` is set).
fn summary_bsp_runs(stderr: &str) -> Result<u64, String> {
    let line = stderr
        .lines()
        .rev()
        .find_map(|l| l.trim().strip_prefix("[store-summary] "))
        .ok_or_else(|| "no [store-summary] line on stderr (is PREDICT_STORE set?)".to_string())?;
    let runs = line
        .split("\"bsp_runs\":")
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().ok()
        })
        .ok_or_else(|| format!("unparseable store summary: {line}"))?;
    Ok(runs)
}

/// First line on which two strings differ, for a readable mismatch report.
fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: golden `{la}` vs actual `{lb}`", i + 1);
        }
    }
    format!(
        "line count: golden {} vs actual {}",
        a.lines().count(),
        b.lines().count()
    )
}

/// Number of lines that differ between two outputs (length mismatch counts
/// the excess), quantifying a diff's blast radius in the summary table.
fn divergent_lines(a: &str, b: &str) -> usize {
    let differing = a.lines().zip(b.lines()).filter(|(la, lb)| la != lb).count();
    differing + a.lines().count().abs_diff(b.lines().count())
}

/// Outcome of one scenario, collected for the end-of-run summary table.
struct Outcome {
    name: &'static str,
    /// `OK` / `BLESSED` / a short failure description.
    status: String,
    failed: bool,
}

/// Prints the aligned status-per-scenario table every run ends with, so a CI
/// log shows the full blast radius of a golden mismatch at a glance instead
/// of only the first diff encountered. The transport column records which
/// executor produced each artifact — goldens are transport-independent, so
/// the same table must read `ok` under every column value.
fn print_summary(outcomes: &[Outcome], transport: &str) {
    let width = outcomes.iter().map(|o| o.name.len()).max().unwrap_or(8);
    let twidth = transport.len().max("transport".len());
    println!("\n== scenario summary ==");
    println!(
        "{:<width$}  stat  {:<twidth$}  detail",
        "scenario", "transport"
    );
    for o in outcomes {
        println!(
            "{:<width$}  {}  {:<twidth$}  {}",
            o.name,
            if o.failed { "FAIL" } else { "ok  " },
            transport,
            o.status
        );
    }
    let failures = outcomes.iter().filter(|o| o.failed).count();
    println!("\n{} scenario(s), {} failure(s)", outcomes.len(), failures);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    let expect_warm = args.iter().any(|a| a == "--expect-warm");
    if expect_warm && predict_bsp::env_store_path().is_none() {
        predict_obs::diag!(Error, "--expect-warm requires PREDICT_STORE to be set");
        std::process::exit(1);
    }
    let filters: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let selected: Vec<&str> = SCENARIOS
        .iter()
        .copied()
        .filter(|name| filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str())))
        .collect();
    if selected.is_empty() {
        predict_obs::diag!(Error, "no scenario matches the given filters");
        std::process::exit(1);
    }

    // The transport every child scenario inherits through the environment;
    // parsed with the same knob rules the engine itself applies.
    let transport = predict_cluster::TransportKind::from_mode(predict_bsp::TransportMode::Auto)
        .map_or("inmem", predict_cluster::TransportKind::name);
    println!("transport: {transport} (set PREDICT_TRANSPORT=inmem|inproc|socket)");

    let golden = golden_dir();
    if bless {
        std::fs::create_dir_all(&golden).expect("create golden dir");
    }

    // Every selected scenario runs to completion — a diff in one bin never
    // hides diffs in the others — and the run ends with a summary table plus
    // a non-zero exit when anything diverged.
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(selected.len());
    for name in &selected {
        let run = match run_scenario(name) {
            Ok(run) => run,
            Err(e) => {
                println!("[FAIL] {name}: {e}");
                outcomes.push(Outcome {
                    name,
                    status: "did not produce output".to_string(),
                    failed: true,
                });
                continue;
            }
        };
        let actual = run.json;
        // Warm-store assertion: a pass against a populated store must not
        // have executed a single engine run — all artifacts came from disk.
        if expect_warm {
            match summary_bsp_runs(&run.stderr) {
                Ok(0) => {}
                Ok(runs) => {
                    println!("[FAIL] {name}: warm pass executed {runs} engine run(s)");
                    outcomes.push(Outcome {
                        name,
                        status: format!("warm pass executed {runs} engine run(s)"),
                        failed: true,
                    });
                    continue;
                }
                Err(e) => {
                    println!("[FAIL] {name}: {e}");
                    outcomes.push(Outcome {
                        name,
                        status: e,
                        failed: true,
                    });
                    continue;
                }
            }
        }
        let golden_path = golden.join(format!("{name}.json"));
        if bless {
            std::fs::write(&golden_path, &actual).expect("write golden");
            println!("[BLESS] {name} -> {}", golden_path.display());
            outcomes.push(Outcome {
                name,
                status: "BLESSED".to_string(),
                failed: false,
            });
            continue;
        }
        match std::fs::read_to_string(&golden_path) {
            Ok(expected) if expected == actual => {
                println!("[OK] {name}");
                outcomes.push(Outcome {
                    name,
                    status: "matches golden".to_string(),
                    failed: false,
                });
            }
            Ok(expected) => {
                println!(
                    "[FAIL] {name}: output differs from {} ({})",
                    golden_path.display(),
                    first_divergence(&expected, &actual)
                );
                outcomes.push(Outcome {
                    name,
                    status: format!(
                        "{} divergent line(s); first: {}",
                        divergent_lines(&expected, &actual),
                        first_divergence(&expected, &actual)
                    ),
                    failed: true,
                });
            }
            Err(_) => {
                println!(
                    "[FAIL] {name}: missing golden {} (run with --bless to create)",
                    golden_path.display()
                );
                outcomes.push(Outcome {
                    name,
                    status: "missing golden (run with --bless)".to_string(),
                    failed: true,
                });
            }
        }
    }

    print_summary(&outcomes, transport);
    if outcomes.iter().any(|o| o.failed) {
        std::process::exit(1);
    }
}
