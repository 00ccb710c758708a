//! # The polygen ledger
//!
//! The one benchmark every performance claim in this repository is
//! measured with: a seeded, closed-loop, measured-client run through
//! the real `polygen-net` front door, attributed crate by crate, with
//! the paper's own cost question — what do tags cost over the flat
//! relational substrate? — kept as a workload of its own.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run, one result line
//! ledger [--workload W] [--seed N] [--seconds S] [--repeat K]
//!                                      every workload, each in its own process
//! ledger --list                        every metric: layer, unit, direction, bound
//! ```
//!
//! `--smoke` shrinks every size to a few hundred queries; it shows that
//! the paths still run and is no basis for any claim. See `README.md`.

mod catalog;
mod json;
mod run;
mod spans;
mod stats;
mod tagtax;
mod tcp;
mod traced;

use catalog::{END_TO_END, RUN_SECONDS};
use json::{obj, Json};
use run::{RunArgs, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use tcp::Sizes;

/// The seed of a run that names none. `BENCHMARK.json` has no key to
/// record it under, so it is recorded here and in every report.
const DEFAULT_SEED: u64 = 1990;

/// Window of a `--smoke` run that names none, seconds.
const SMOKE_SECONDS: f64 = 0.4;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat: Option<usize>,
    list: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    cli.workload = Some(
                        Workload::from_name(&name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => cli.seed = Some(parsed(&flag, &value()?)?),
                "--seconds" => {
                    let seconds: f64 = parsed(&flag, &value()?)?;
                    if !(seconds > 0.0 && seconds <= 60.0) {
                        return Err(format!("--seconds {seconds} is outside (0, 60]"));
                    }
                    cli.seconds = Some(seconds);
                }
                "--trace" => {
                    cli.trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    });
                }
                "--repeat" => {
                    let repeat: usize = parsed(&flag, &value()?)?;
                    if repeat == 0 {
                        return Err("--repeat needs at least 1".to_string());
                    }
                    cli.repeat = Some(repeat);
                }
                "--smoke" => cli.smoke = true,
                "--list" => cli.list = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if cli.trace.is_some() && (cli.workload.is_none() || cli.repeat.is_some()) {
            return Err("--trace runs one workload once: name it with --workload".to_string());
        }
        Ok(cli)
    }

    fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.smoke {
            SMOKE_SECONDS
        } else {
            f64::from(RUN_SECONDS)
        })
    }
}

fn parsed<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} cannot take `{text}`"))
}

fn main() -> ExitCode {
    let cli = match Cli::parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("ledger: {why}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        print!("{}", catalog::render_list());
        return ExitCode::SUCCESS;
    }
    let outcome = match (cli.workload, cli.trace) {
        (Some(workload), Some(trace)) => single_run(&cli, workload, trace),
        _ => report(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::FAILURE
        }
    }
}

/// One workload, once, in this process: the driver's contract. Prints
/// the result as the last line of standard output; `Ok(false)` when an
/// answer was wrong.
fn single_run(cli: &Cli, workload: Workload, trace: bool) -> Result<bool, String> {
    if cli.smoke {
        eprintln!("ledger: --smoke sizes detect rot only; the numbers support no claim");
    }
    let result = run::run(&RunArgs {
        workload,
        seed: cli.seed(),
        window: Duration::from_secs_f64(cli.seconds()),
        trace,
        sizes: if cli.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        out_dir: std::env::var_os("LEDGER_OUT")
            .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from),
    })?;
    println!("{}", result.to_json().render());
    Ok(result.correct)
}

/// Every workload (or the one named), each run in a process of its own,
/// plain then traced; `--repeat K` does the whole set K times on this
/// build and holds the first two sets against each metric's bound.
fn report(cli: &Cli) -> Result<bool, String> {
    let workloads: Vec<Workload> = cli
        .workload
        .map_or_else(|| Workload::ALL.to_vec(), |w| vec![w]);
    let mut all_correct = true;
    let mut sets = Vec::new();
    for _ in 0..cli.repeat.unwrap_or(1) {
        let mut set = Vec::new();
        for &workload in &workloads {
            let plain = spawn_run(cli, workload, false)?;
            let traced = spawn_run(cli, workload, true)?;
            let correct = [&plain, &traced]
                .iter()
                .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
            all_correct &= correct;
            let sum = |key: &str| {
                Json::Num(
                    [&plain, &traced]
                        .iter()
                        .filter_map(|r| r.get(key).and_then(Json::as_f64))
                        .sum(),
                )
            };
            set.push(obj([
                ("name", Json::Str(workload.name().to_string())),
                ("correct", Json::Bool(correct)),
                ("attempted", sum("attempted")),
                ("failed", sum("failed")),
                (
                    "end_to_end",
                    plain.get("metrics").cloned().unwrap_or(Json::Null),
                ),
                (
                    "per_layer",
                    traced.get("metrics").cloned().unwrap_or(Json::Null),
                ),
            ]));
        }
        sets.push(Json::Arr(set));
    }
    let comparison = (sets.len() >= 2).then(|| compare(&sets[0], &sets[1]));
    let agree = comparison.as_ref().is_none_or(|rows| {
        rows.iter()
            .all(|row| row.get("within_bound").and_then(Json::as_bool) == Some(true))
    });
    let env = |key: &str| Json::Str(std::env::var(key).unwrap_or_else(|_| "unknown".to_string()));
    let mut members = vec![
        ("benchmark", Json::Str("polygen-ledger".to_string())),
        ("smoke", Json::Bool(cli.smoke)),
        ("seed", Json::Num(cli.seed() as f64)),
        ("seconds", Json::Num(cli.seconds())),
        ("rustc", env("LEDGER_RUSTC")),
        ("commit", env("LEDGER_COMMIT")),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("runs", Json::Arr(sets)),
    ];
    if let Some(rows) = comparison {
        members.push(("comparison", Json::Arr(rows)));
    }
    println!("{}", pretty(&obj(members), 0));
    // Smoke-sized windows are too short to agree with each other; their
    // comparison is printed and decides nothing.
    Ok(all_correct && (agree || cli.smoke))
}

/// Run one workload in a child process and parse its result line.
fn spawn_run(cli: &Cli, workload: Workload, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &cli.seed().to_string()])
        .args(["--seconds", &cli.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if cli.smoke {
        command.arg("--smoke");
    }
    eprintln!(
        "ledger: {} ({})",
        workload.name(),
        if trace { "traced" } else { "plain" }
    );
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{} printed no result ({})", workload.name(), output.status))?;
    Json::parse(line).map_err(|e| format!("{} result line: {e}", workload.name()))
}

/// Hold two sets of runs of the same code against each end-to-end
/// metric's bound: one row per workload and metric.
fn compare(first: &Json, second: &Json) -> Vec<Json> {
    let mut rows = Vec::new();
    for (a, b) in first.items().iter().zip(second.items()) {
        for def in END_TO_END {
            let value = |set: &Json| {
                set.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                continue;
            };
            let difference = stats::relative_difference(x, y);
            let bound = def.bound.expect("end-to-end metrics are bounded");
            rows.push(obj([
                ("workload", a.get("name").cloned().unwrap_or(Json::Null)),
                ("metric", Json::Str(def.name.to_string())),
                ("first", Json::Num(x)),
                ("second", Json::Num(y)),
                ("relative_difference", Json::Num(difference)),
                ("bound", Json::Num(bound)),
                ("better", Json::Str(def.better.label().to_string())),
                ("within_bound", Json::Bool(difference <= bound)),
            ]));
        }
    }
    rows
}

/// Indent objects and arrays of objects; keep leaves on one line.
fn pretty(value: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    let close = "  ".repeat(depth);
    let leaf = |v: &Json| !matches!(v, Json::Obj(_) | Json::Arr(_));
    match value {
        Json::Obj(members) if !members.iter().all(|(_, v)| leaf(v)) => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::Str(k.clone()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{close}}}", body.join(",\n"))
        }
        Json::Arr(items) if !items.iter().all(leaf) => {
            let body: Vec<String> = items
                .iter()
                .map(|v| format!("{pad}{}", pretty(v, depth + 1)))
                .collect();
            format!("[\n{}\n{close}]", body.join(",\n"))
        }
        other => other.render(),
    }
}
