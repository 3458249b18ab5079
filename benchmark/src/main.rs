//! The repo benchmark harness. See `benchmark/README.md`.
//!
//! ```text
//! harness --workload W --seed N --seconds S --trace 0|1   one workload; the last
//!                                                         stdout line is the result
//! harness [--traced] [--smoke] [--seed N]                 all six workloads
//! harness --sets N [--vary-seed]                          N sets + repeatability table
//! harness --compare DIR_A DIR_B [..]                      the same table over result dirs
//! ```

mod ledger;
mod proc;
mod report;
mod run;
mod spec;
mod stats;
mod sut;
mod traced;
mod workloads;

use report::{print_comparison, Outcome, Stamp};
use run::Options;
use spec::spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The pinned default `--seed`.
const DEFAULT_SEED: u64 = 1;

/// `--smoke` divides the measured time by this.
const SMOKE_DIVISOR: f64 = 20.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    sets: usize,
    /// Set k runs with `--seed` + k − 1 instead of the same seed.
    vary_seed: bool,
    compare: Vec<PathBuf>,
    results: PathBuf,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec().run_seconds as f64,
        traced: false,
        smoke: false,
        sets: 1,
        vary_seed: false,
        compare: Vec::new(),
        results: PathBuf::from("benchmark/results"),
    };
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i)?.clone()),
            "--seed" => cli.seed = number("--seed", value(&mut i)?)?,
            "--seconds" => cli.seconds = number("--seconds", value(&mut i)?)?,
            "--trace" => cli.traced = number::<u8>("--trace", value(&mut i)?)? != 0,
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--sets" => cli.sets = number("--sets", value(&mut i)?)?,
            "--vary-seed" => cli.vary_seed = true,
            "--results" => cli.results = PathBuf::from(value(&mut i)?),
            "--compare" => {
                while args.get(i + 1).is_some_and(|a| !a.starts_with("--")) {
                    i += 1;
                    cli.compare.push(PathBuf::from(&args[i]));
                }
                if cli.compare.len() < 2 {
                    return Err("--compare needs at least two result directories".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) || cli.sets == 0 {
        return Err("--seconds and --sets must be positive".into());
    }
    Ok(cli)
}

/// Runs one workload in this process and prints the contract line last.
fn run_one(cli: &Cli, name: &str) -> Result<(), String> {
    let workload = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = spec().workloads.iter().map(|w| w.name.as_str()).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let opts = Options {
        seed: cli.seed,
        seconds: cli.seconds / if cli.smoke { SMOKE_DIVISOR } else { 1.0 },
        smoke: cli.smoke,
        results_dir: cli.results.clone(),
    };
    // Scratch data (store directories, worker sockets) stays inside the
    // checkout: the program takes its socket paths from the temp dir. The
    // relative path also keeps them short enough for a Unix socket address.
    let scratch = cli.results.join(format!("scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    std::env::set_var("TMPDIR", &scratch);

    let stamp = Stamp::collect();
    let outcome = if cli.traced {
        traced::run_traced(&workload, &opts, &scratch, &stamp)
    } else {
        run::run_untraced(&workload, &opts, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let leftover = proc::child_pids();
    if !leftover.is_empty() {
        return Err(format!(
            "child processes still running at exit: {leftover:?}"
        ));
    }
    let outcome = outcome?;
    outcome
        .write(&cli.results, &stamp)
        .map_err(|e| format!("writing results: {e}"))?;
    outcome.print();
    println!("{}", outcome.contract_line());
    Ok(())
}

/// Runs every workload, each in a process of its own (fresh counters, fresh
/// peak-RSS), and reads the result files back.
fn run_set(cli: &Cli, seed: u64, dir: &Path) -> Result<Vec<Outcome>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the harness: {e}"))?;
    let mut outcomes = Vec::new();
    for w in &spec().workloads {
        let mut command = Command::new(&exe);
        command
            .args(["--workload", &w.name])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.traced { "1" } else { "0" }])
            .arg("--results")
            .arg(dir);
        if cli.smoke {
            command.arg("--smoke");
        }
        let status = command.status().map_err(|e| format!("{}: {e}", w.name))?;
        if !status.success() {
            return Err(format!("workload {} exited with {status}", w.name));
        }
        outcomes.push(Outcome::read(dir, &w.name, cli.traced)?);
    }
    Ok(outcomes)
}

fn read_set(dir: &Path) -> Result<Vec<Outcome>, String> {
    spec()
        .workloads
        .iter()
        .map(|w| Outcome::read(dir, &w.name, false))
        .collect()
}

fn run(cli: &Cli) -> Result<bool, String> {
    if !cli.compare.is_empty() {
        let sets: Vec<Vec<Outcome>> = cli
            .compare
            .iter()
            .map(|d| read_set(d))
            .collect::<Result<_, _>>()?;
        return Ok(print_comparison(&sets));
    }
    if let Some(name) = &cli.workload {
        run_one(cli, name)?;
        return Ok(true);
    }
    let mut sets = Vec::new();
    for set in 1..=cli.sets {
        let dir = if cli.sets == 1 {
            cli.results.clone()
        } else {
            cli.results.join(format!("set-{set}"))
        };
        let seed = cli.seed + if cli.vary_seed { set as u64 - 1 } else { 0 };
        sets.push(run_set(cli, seed, &dir)?);
    }
    let mut ok = sets.iter().flatten().all(|o| o.correct);
    println!("\nfailed_share per workload:");
    for outcome in sets.iter().flatten() {
        println!(
            "  {:<20} {:.6} ratio",
            outcome.workload,
            outcome.failed_share()
        );
    }
    if cli.sets > 1 && !cli.traced {
        ok &= print_comparison(&sets);
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(|cli| run(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
