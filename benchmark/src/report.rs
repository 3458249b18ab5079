//! Result files, the hardware/commit stamp, the contract's last output
//! line, and the set-to-set comparison table.

use crate::run::{Options, Recorder};
use crate::spec::spec;
use crate::stats::{median, quartile_spread};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// Latency of one request class within a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClassRow {
    pub class: String,
    pub samples: u64,
    pub p50_ms: f64,
    /// The highest percentile with at least ten samples beyond it.
    pub tail_percentile: u32,
    pub tail_ms: f64,
}

/// Where and on what a result was measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Stamp {
    pub commit: String,
    pub nproc: u64,
    pub cpu_model: String,
    pub rustc: String,
    /// The scrubbed environment the harness ran under: every `PREDICT_*`
    /// variable left set (only the worker-binary path should be) and the
    /// build directory.
    pub env: BTreeMap<String, String>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Stamp {
    pub fn collect() -> Self {
        let env = std::env::vars()
            .filter(|(k, _)| k.starts_with("PREDICT_") || k == "CARGO_TARGET_DIR")
            .collect();
        Self {
            // A checkout that is not a git repository reads "unknown".
            commit: command_line("git", &["rev-parse", "HEAD"]),
            nproc: crate::sut::nproc() as u64,
            cpu_model: crate::proc::cpu_model(),
            rustc: command_line("rustc", &["-V"]),
            env,
        }
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Smoke results exercise the harness only and are never compared.
    pub smoke: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The contract metrics of this mode: every end-to-end metric of an
    /// untraced run, every per-layer metric of a traced one.
    pub metrics: BTreeMap<String, Metric>,
    /// Metrics printed and filed but not part of the contract line.
    pub extra: BTreeMap<String, Metric>,
    /// Latency samples behind `latency_*` (the timings' sample count).
    pub samples: u64,
    pub rounds: u64,
    pub clients: u64,
    pub tail_percentile: f64,
    pub setup_samples_s: Vec<f64>,
    pub per_class: Vec<ClassRow>,
}

impl Outcome {
    pub fn new(workload: &str, opts: &Options, traced: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed: opts.seed,
            seconds: opts.seconds,
            traced,
            smoke: opts.smoke,
            correct: false,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            extra: BTreeMap::new(),
            samples: 0,
            rounds: 0,
            clients: 1,
            tail_percentile: 50.0,
            setup_samples_s: Vec::new(),
            per_class: Vec::new(),
        }
    }

    fn insert(&mut self, name: &str, value: f64, unit: Option<&str>) {
        let unit = unit.unwrap_or_else(|| panic!("metric `{name}` is not in BENCHMARK.json"));
        self.metrics.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    pub fn end_to_end(&mut self, name: &str, value: f64) {
        self.insert(name, value, spec().end_to_end_unit(name));
    }

    pub fn per_layer(&mut self, name: &str, value: f64) {
        self.insert(name, value, spec().per_layer_unit(name));
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &str) {
        self.extra.insert(
            name.to_string(),
            Metric {
                value,
                unit: unit.to_string(),
            },
        );
    }

    /// Closes the outcome: failure counts, and the check that exactly the
    /// metrics the contract lists for this mode were produced, all finite.
    pub fn finish(&mut self, rec: &Recorder) {
        self.attempted = rec.attempted.max(1);
        self.failed = rec.failed;
        self.failures = rec.failures.clone();
        let declared: Vec<&str> = if self.traced {
            spec().per_layer.iter().map(|m| m.name.as_str()).collect()
        } else {
            spec().end_to_end.iter().map(|m| m.name.as_str()).collect()
        };
        for name in &declared {
            match self.metrics.get(*name) {
                None => self.reject(format!("metric `{name}` was not produced")),
                Some(m) if !m.value.is_finite() => {
                    self.reject(format!("metric `{name}` is not finite"));
                    self.metrics.get_mut(*name).expect("present").value = 0.0;
                }
                Some(_) => {}
            }
        }
        if self.metrics.len() != declared.len() {
            self.reject("a metric outside the declared list was produced".into());
        }
        self.correct = self.failed == 0;
    }

    fn reject(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(message);
    }

    /// The contract's result line.
    pub fn contract_line(&self) -> String {
        #[derive(Serialize)]
        struct Line<'a> {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: &'a BTreeMap<String, Metric>,
        }
        serde_json::to_string(&Line {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: &self.metrics,
        })
        .expect("result line serializes")
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// `<workload>.json`, or `<workload>.layers.json` for a traced run.
    fn file_name(workload: &str, traced: bool) -> String {
        format!("{workload}{}.json", if traced { ".layers" } else { "" })
    }

    /// Writes the result file under `dir`, stamped.
    pub fn write(&self, dir: &Path, stamp: &Stamp) -> std::io::Result<PathBuf> {
        #[derive(Serialize)]
        struct File<'a> {
            result: &'a Outcome,
            stamp: &'a Stamp,
        }
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::file_name(&self.workload, self.traced));
        let body = serde_json::to_string_pretty(&File {
            result: self,
            stamp,
        })
        .expect("result file serializes");
        std::fs::write(&path, body + "\n")?;
        Ok(path)
    }

    /// Reads back a result file written by [`Outcome::write`].
    pub fn read(dir: &Path, workload: &str, traced: bool) -> Result<Outcome, String> {
        #[derive(Deserialize)]
        struct File {
            result: Outcome,
        }
        let path = dir.join(Self::file_name(workload, traced));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        serde_json::from_str::<File>(&text)
            .map(|f| f.result)
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        let label = match (self.smoke, self.traced) {
            (true, _) => " [SMOKE — not comparable]",
            (false, true) => " [traced]",
            (false, false) => "",
        };
        println!(
            "== {}{label}: seed {}, {} s, {} client(s), {} round(s), {} latency samples",
            self.workload, self.seed, self.seconds, self.clients, self.rounds, self.samples
        );
        for (name, m) in self.metrics.iter().chain(&self.extra) {
            println!("  {name:<36} {:>16.6} {}", m.value, m.unit);
        }
        println!(
            "  {:<36} {:>16.6} ratio  ({} failed of {} checks)",
            "failed_share",
            self.failed_share(),
            self.failed,
            self.attempted
        );
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// Relative spread of one metric over the sets: with four or more sets the
/// interquartile distance over the median (the acceptance rule's measure),
/// with fewer `(max − min) ÷ median`.
fn relative_spread(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return quartile_spread(values);
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    (hi - lo) / median(values).abs().max(f64::MIN_POSITIVE)
}

/// Prints, per workload × end-to-end metric, each set's value, the relative
/// spread, and PASS when the spread is within the metric's bound,
/// UNRESOLVED when it is not. Returns false if any row is unresolved or any
/// set is a smoke run.
pub fn print_comparison(sets: &[Vec<Outcome>]) -> bool {
    let mut all_pass = true;
    println!(
        "\n{:<20} {:<16} {:>8}  {:>8}  verdict     values per set",
        "workload", "metric", "spread", "bound"
    );
    for w in &spec().workloads {
        let runs: Vec<&Outcome> = sets
            .iter()
            .filter_map(|set| set.iter().find(|o| o.workload == w.name))
            .collect();
        if runs.len() != sets.len() || runs.iter().any(|o| o.smoke) {
            println!(
                "{:<20} missing from a set, or a smoke result (never compared)",
                w.name
            );
            all_pass = false;
            continue;
        }
        for m in &spec().end_to_end {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|o| o.metrics.get(&m.name).map(|v| v.value))
                .collect();
            let spread = relative_spread(&values);
            let pass = values.len() == runs.len() && spread <= m.bound;
            all_pass &= pass;
            let rendered: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<20} {:<16} {:>7.2}%  {:>7.0}%  {}  {} {}",
                w.name,
                m.name,
                spread * 100.0,
                m.bound * 100.0,
                if pass { "PASS      " } else { "UNRESOLVED" },
                rendered.join("  "),
                m.unit
            );
        }
    }
    all_pass
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options() -> Options {
        Options {
            seed: 1,
            seconds: 1.0,
            smoke: false,
            results_dir: PathBuf::from("unused"),
        }
    }

    fn untraced_with_every_metric() -> Outcome {
        let mut outcome = Outcome::new("cold_inmem", &options(), false);
        for m in &spec().end_to_end {
            outcome.end_to_end(&m.name, 1.5);
        }
        outcome
    }

    #[test]
    fn an_outcome_is_correct_only_with_exactly_the_declared_metrics() {
        let mut complete = untraced_with_every_metric();
        complete.finish(&Recorder::default());
        assert!(complete.correct, "{:?}", complete.failures);
        let emitted: Vec<&String> = complete.metrics.keys().collect();
        let mut declared: Vec<&String> = spec().end_to_end.iter().map(|m| &m.name).collect();
        declared.sort();
        assert_eq!(emitted, declared);

        let mut missing = untraced_with_every_metric();
        missing.metrics.remove("setup_s");
        missing.finish(&Recorder::default());
        assert!(!missing.correct);

        let mut not_finite = untraced_with_every_metric();
        not_finite.end_to_end("requests_per_s", f64::NAN);
        not_finite.finish(&Recorder::default());
        assert!(!not_finite.correct);
        assert_eq!(not_finite.metrics["requests_per_s"].value, 0.0);
    }

    #[test]
    #[should_panic(expected = "not in BENCHMARK.json")]
    fn a_metric_name_outside_the_contract_is_a_bug() {
        Outcome::new("cold_inmem", &options(), false).end_to_end("made_up_ms", 1.0);
    }

    #[test]
    fn the_contract_line_has_exactly_the_four_keys() {
        let mut outcome = untraced_with_every_metric();
        outcome.finish(&Recorder::default());
        let line = outcome.contract_line();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn spread_is_range_for_few_sets_and_quartiles_for_many() {
        assert!((relative_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_files_round_trip() {
        let dir =
            std::env::temp_dir().join(format!("benchmark-report-test-{}", std::process::id()));
        let mut outcome = untraced_with_every_metric();
        outcome.finish(&Recorder::default());
        let stamp = Stamp {
            commit: "abc".into(),
            nproc: 2,
            cpu_model: "cpu".into(),
            rustc: "rustc".into(),
            env: BTreeMap::new(),
        };
        outcome.write(&dir, &stamp).unwrap();
        let back = Outcome::read(&dir, "cold_inmem", false).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(back.metrics["setup_s"].value, 1.5);
        assert!(back.correct);
    }
}
