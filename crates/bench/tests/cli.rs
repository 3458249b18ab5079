//! The `predict_bench` command line: without a known subcommand it prints a
//! usage line naming every subcommand — each experiment, which is each
//! golden, and each tool — to stderr and exits 2.

use std::path::Path;
use std::process::Command;

const TOOLS: [&str; 6] = [
    "scenario_runner",
    "trace_view",
    "cluster_timing",
    "load_driver",
    "perf_probe",
    "docs_links",
];

fn assert_usage(args: &[&str]) {
    let output = Command::new(env!("CARGO_BIN_EXE_predict_bench"))
        .args(args)
        .output()
        .expect("predict_bench launches");
    assert_eq!(output.status.code(), Some(2), "args {args:?}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    let golden_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    let experiments: Vec<String> = std::fs::read_dir(golden_dir)
        .expect("golden directory is readable")
        .map(|entry| entry.expect("golden entry").path())
        .filter_map(|path| Some(path.file_stem()?.to_string_lossy().into_owned()))
        .collect();
    assert_eq!(experiments.len(), 15);
    for name in experiments.iter().map(String::as_str).chain(TOOLS) {
        let named = stderr.split_whitespace().any(|word| word == name);
        assert!(
            named,
            "usage for {args:?} does not name `{name}`:\n{stderr}"
        );
    }
}

#[test]
fn no_subcommand_prints_the_usage_and_exits_2() {
    assert_usage(&[]);
}

#[test]
fn an_unknown_subcommand_prints_the_usage_and_exits_2() {
    assert_usage(&["fig4"]);
}
