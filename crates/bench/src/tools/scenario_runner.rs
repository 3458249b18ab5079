//! Scenario runner: executes every figure/table experiment and diffs its
//! JSON output against the golden files under `crates/bench/golden/`.
//!
//! Every stage of the reproduction is deterministic — fixed experiment seeds,
//! a seeded simulated cluster clock, and a BSP runtime that is byte-identical
//! at every thread count — so each experiment's JSON is a stable artifact.
//! The goldens pin them: any engine, sampling or prediction change that
//! shifts a single byte of any figure shows up as a diff here, which is what
//! lets the runtime be refactored aggressively.
//!
//! ```text
//! predict_bench scenario_runner                # run all scenarios, diff against goldens
//! predict_bench scenario_runner --bless        # run all scenarios, (re)write the goldens
//! predict_bench scenario_runner fig4 table3    # only scenarios whose name contains a filter
//! predict_bench scenario_runner --expect-warm  # additionally assert a warm store answered
//! ```
//!
//! The scenarios are the experiments registered in `main.rs`. Each runs as a
//! child process of this binary (`predict_bench <name>`), so its metrics and
//! its `[run-summary]` line are its own, and so is its trace: with
//! `PREDICT_TRACE=<dir>/<stem>.json` set, scenario `<name>` writes
//! `<dir>/<stem>.<name>.json` (render them together with `predict_bench
//! trace_view <dir>/<stem>.*.json`).
//!
//! `--expect-warm` requires `PREDICT_STORE` to point at a directory a prior
//! pass already populated: every scenario must still match its golden *and*
//! its `[run-summary]` stderr line (which every experiment prints) must
//! report zero engine runs — the warm pass answered entirely from the
//! persistent artifact store, byte-identically, without re-executing a
//! single stored sample or actual run.
//!
//! Scenarios execute at `PREDICT_SCALE=small` (goldens are small-scale
//! artifacts; override by exporting `PREDICT_SCALE` yourself) and honor
//! `PREDICT_TRANSPORT`, so CI can assert that the in-memory, in-process and
//! Unix-domain-socket transports all produce the same goldens. Under
//! `inproc` or `socket`, a scenario whose `[run-summary]` reports in-memory
//! engine runs but no cluster superstep fails: its engine never reached the
//! transport, and the goldens alone could not tell. The summary
//! table's header records which transport the scenarios ran under, and a
//! scenario that dies mid-run (e.g. a killed cluster worker) surfaces the
//! tail of its stderr, which includes the worker id, superstep and worker
//! stderr carried by the structured cluster error. Exit code: 0 when every
//! scenario matches, 1 on any mismatch or missing golden.

use predict_bench::knobs::{knobs, scale_name, SCALE_VAR, TRACE_VAR};
use predict_graph::datasets::DatasetScale;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The golden directory, resolved relative to the crate at compile time so
/// the runner works from any working directory inside the repo.
pub(crate) fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// A finished scenario child: its experiment JSON plus its stderr (which
/// ends with its `[run-summary]` line).
struct ScenarioRun {
    json: String,
    stderr: String,
}

/// Deletes `path` so a file an earlier run left behind never stands in for
/// this run's.
fn remove_stale(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("could not remove stale {}: {e}", path.display())),
    }
}

/// The trace file scenario `name` writes when the runner's own trace path
/// is `trace`: `<dir>/<stem>.json` becomes `<dir>/<stem>.<name>.json` (a
/// path without an extension gets `.<name>` appended).
fn scenario_trace_path(trace: &Path, name: &str) -> PathBuf {
    let mut file = trace.file_stem().unwrap_or_default().to_os_string();
    file.push(format!(".{name}"));
    if let Some(ext) = trace.extension() {
        file.push(".");
        file.push(ext);
    }
    trace.with_file_name(file)
}

fn run_scenario(name: &str) -> Result<ScenarioRun, String> {
    let json_path = predict_bench::output_dir().join(format!("{name}.json"));
    remove_stale(&json_path)?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate current exe: {e}"))?;
    let scale = knobs().scale.unwrap_or(DatasetScale::Small);
    let mut child = Command::new(&exe);
    child.arg(name).env(SCALE_VAR, scale_name(scale));
    if let Some(trace) = &knobs().trace {
        let trace = scenario_trace_path(trace, name);
        remove_stale(&trace)?;
        child.env(TRACE_VAR, trace);
    }
    let output = child
        .output()
        .map_err(|e| format!("could not launch {} {name}: {e}", exe.display()))?;
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
    let json = std::fs::read_to_string(&json_path)
        .map_err(|e| format!("{name} produced no {}: {e}", json_path.display()))?;
    Ok(ScenarioRun {
        json,
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
    })
}

/// Counter `key` of a child's `[run-summary]` stderr line, or an error
/// when the line is absent or the counter unparseable.
fn summary_counter(stderr: &str, key: &str) -> Result<u64, String> {
    let line = stderr
        .lines()
        .rev()
        .find_map(|l| l.trim().strip_prefix("[run-summary] "))
        .ok_or_else(|| "no [run-summary] line on stderr".to_string())?;
    line.split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().ok()
        })
        .ok_or_else(|| format!("no {key} in run summary: {line}"))
}

/// Why a child's `[run-summary]` fails the pass, if it does: a warm pass
/// (`expect_warm`) must execute no engine run and drive no cluster step,
/// and a transported pass must not run engine work in memory without
/// driving a single cluster step.
fn summary_failure(stderr: &str, expect_warm: bool, transported: bool) -> Option<String> {
    let (runs, steps) = match (
        summary_counter(stderr, "bsp_runs"),
        summary_counter(stderr, "cluster_steps"),
    ) {
        (Ok(runs), Ok(steps)) => (runs, steps),
        (Err(e), _) | (_, Err(e)) => return Some(e),
    };
    // `bsp_runs` counts in-memory runs only; a transported run shows as
    // cluster steps.
    if expect_warm && runs + steps > 0 {
        return Some(format!(
            "warm pass executed {runs} engine run(s) and {steps} cluster step(s)"
        ));
    }
    if transported && runs > 0 && steps == 0 {
        return Some(format!(
            "{runs} in-memory engine run(s) and no cluster step under a transport"
        ));
    }
    None
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
/// of only the first diff encountered. The header records which executor
/// produced every artifact — goldens are transport-independent, so the same
/// table must read `ok` under every transport.
fn print_summary(outcomes: &[Outcome], transport: &str) {
    let width = outcomes.iter().map(|o| o.name.len()).max().unwrap_or(8);
    println!("\n== scenario summary (transport: {transport}) ==");
    println!("{:<width$}  stat  detail", "scenario");
    for o in outcomes {
        println!(
            "{:<width$}  {}  {}",
            o.name,
            if o.failed { "FAIL" } else { "ok  " },
            o.status
        );
    }
    let failures = outcomes.iter().filter(|o| o.failed).count();
    println!("\n{} scenario(s), {} failure(s)", outcomes.len(), failures);
}

/// Runs the scenarios selected by `args` and diffs them against the goldens.
pub fn run(args: &[String]) {
    let bless = args.iter().any(|a| a == "--bless");
    let expect_warm = args.iter().any(|a| a == "--expect-warm");
    if expect_warm && knobs().store.is_none() {
        predict_obs::diag!(Error, "--expect-warm requires PREDICT_STORE to be set");
        std::process::exit(1);
    }
    let filters: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let selected: Vec<&str> = crate::EXPERIMENTS
        .iter()
        .map(|&(name, _)| name)
        .filter(|name| filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str())))
        .collect();
    if selected.is_empty() {
        predict_obs::diag!(Error, "no scenario matches the given filters");
        std::process::exit(1);
    }

    // The transport every child scenario inherits through the environment;
    // parsed with the same knob rules the children apply.
    let kind = predict_cluster::TransportKind::from_mode(knobs().transport);
    let transport = kind.map_or("inmem", predict_cluster::TransportKind::name);
    println!("transport: {transport} (set PREDICT_TRANSPORT=inmem|inproc|socket)");

    let golden = golden_dir();
    if bless {
        std::fs::create_dir_all(&golden).expect("create golden dir");
    }

    // Every selected scenario runs to completion — a diff in one experiment
    // never hides diffs in the others — and the run ends with a summary table plus
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
        // Counter assertions: a pass against a populated store must not have
        // executed a single engine run (all artifacts came from disk), and a
        // transported pass must have driven its engine work over the wire.
        if let Some(failure) = summary_failure(&run.stderr, expect_warm, kind.is_some()) {
            println!("[FAIL] {name}: {failure}");
            outcomes.push(Outcome {
                name,
                status: failure,
                failed: true,
            });
            continue;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scenario_gets_its_own_trace_file() {
        let trace = Path::new("target/experiments/scenarios.trace.json");
        assert_eq!(
            scenario_trace_path(trace, "fig4_pagerank_iterations"),
            Path::new("target/experiments/scenarios.trace.fig4_pagerank_iterations.json")
        );
        assert_eq!(
            scenario_trace_path(Path::new("trace"), "upper_bounds"),
            Path::new("trace.upper_bounds")
        );
    }

    #[test]
    fn run_summaries_gate_warm_and_transported_passes() {
        let summary = |runs: u64, steps: u64| {
            format!(
                "[saved] x\n[run-summary] {{\"bsp_runs\":{runs},\"cluster_steps\":{steps},\
                 \"store_reads\":0,\"store_hits\":0,\"store_writes\":0,\"store_quarantined\":0}}\n"
            )
        };
        // An untransported cold pass passes whatever it ran.
        assert_eq!(summary_failure(&summary(12, 0), false, false), None);
        // A warm pass fails on a single engine run, in memory or over a
        // transport.
        assert_eq!(summary_failure(&summary(0, 0), true, false), None);
        assert!(summary_failure(&summary(1, 0), true, false).is_some());
        assert!(summary_failure(&summary(0, 1), true, true).is_some());
        // A transported pass fails on engine work that never reached a
        // cluster step, and passes one that did, or that ran nothing.
        assert!(summary_failure(&summary(3, 0), false, true).is_some());
        assert_eq!(summary_failure(&summary(3, 40), false, true), None);
        assert_eq!(summary_failure(&summary(0, 0), false, true), None);
        // Every child prints the line; its absence is a failure.
        assert!(summary_failure("[saved] x\n", false, false).is_some());
    }
}
