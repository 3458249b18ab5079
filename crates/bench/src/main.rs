//! `predict_bench`: one subcommand per figure or table of the paper, plus the
//! tools that replay, inspect and gate them.
//!
//! ```text
//! predict_bench <subcommand> [args...]
//! ```
//!
//! An experiment takes no arguments: it prints its table and saves it as
//! `target/experiments/<name>.json`, honoring `PREDICT_SCALE` and the
//! result-neutral `PREDICT_*` knobs ([`predict_bench::knobs`]). Each tool
//! documents its arguments in its module. [`EXPERIMENTS`] is the one list of
//! experiments: the dispatch table, the usage text and the scenario list
//! `scenario_runner` diffs against `crates/bench/golden/`.

use std::process::ExitCode;

/// Declares one module per name under `src/<dir>/` and lists each with its
/// `run` function in `table`, under the module's name.
macro_rules! registry {
    ($dir:ident, $table:ident: $run:ty = [$($name:ident),* $(,)?]) => {
        mod $dir {
            $(pub mod $name;)*
        }
        const $table: &[(&str, $run)] = &[$((stringify!($name), $dir::$name::run)),*];
    };
}

registry!(experiments, EXPERIMENTS: fn() -> std::io::Result<()> = [
    fig4_pagerank_iterations,
    fig5_semiclustering_iterations,
    fig6_topk_features,
    fig7_semiclustering_runtime,
    fig8_topk_runtime,
    fig9_sampling_sensitivity,
    fig9_new_generators,
    table2_datasets,
    table2_new_datasets,
    table3_overhead,
    ablation_critical_path,
    ablation_extrapolation,
    ablation_transform,
    semiclustering_sensitivity,
    upper_bounds,
]);

registry!(tools, TOOLS: fn(&[String]) = [
    scenario_runner,
    trace_view,
    cluster_timing,
    docs_links,
]);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    if let Some(&(name, run)) = EXPERIMENTS.iter().find(|(name, _)| name == command) {
        // One guard per experiment process: it writes the trace file and the
        // `[run-summary]` line `scenario_runner` parses. Only
        // experiments install one; `scenario_runner` hands each child its
        // own trace path and records nothing itself.
        let _obs = predict_bench::observability_guard();
        return match run() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                predict_obs::diag!(Error, "{name}: could not save its results: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some((_, run)) = TOOLS.iter().find(|(name, _)| name == command) {
        run(&args[1..]);
        return ExitCode::SUCCESS;
    }
    usage()
}

/// Names every subcommand on stderr; exit code 2.
fn usage() -> ExitCode {
    let experiments: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
    let tools: Vec<&str> = TOOLS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: predict_bench <subcommand> [args...]\n  experiments: {}\n  tools: {}",
        experiments.join(" "),
        tools.join(" ")
    );
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn the_registered_experiments_are_exactly_the_goldens() {
        let registered: BTreeSet<String> = EXPERIMENTS
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
        let goldens: BTreeSet<String> = std::fs::read_dir(tools::scenario_runner::golden_dir())
            .expect("golden directory is readable")
            .map(|entry| entry.expect("golden entry").path())
            .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
            .map(|path| {
                path.file_stem()
                    .expect("file stem")
                    .to_string_lossy()
                    .into()
            })
            .collect();
        assert_eq!(registered, goldens);
        assert_eq!(
            registered.len(),
            EXPERIMENTS.len(),
            "a name is registered twice"
        );
    }
}
