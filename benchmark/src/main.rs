//! `bc-benchmark`: the repo's benchmark, one command.
//!
//! ```text
//! bc-benchmark [run] --workload <name|all> --seed N --seconds S --trace 0|1 [--smoke]
//! bc-benchmark noise [--runs 5] [--seed N] [--seconds S] [--out benchmark/NOISE.json]
//! bc-benchmark compare <base run files…> --vs <change run files…>
//! bc-benchmark spec        # prints BENCHMARK.json
//! ```
//!
//! A run prints one detail line per metric and, last, the one-line JSON
//! object of `BENCHMARK.json`'s contract; it exits non-zero when an oracle
//! disagrees with what the workload computed. See `benchmark/README.md`.

mod compare;
mod feed;
mod gen;
mod load;
mod oracle;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use gen::Kind;
use spec::RUN_SECONDS;

/// Op-list scale under `--smoke`: tenth-size lists, every metric printed,
/// the under-floor ones marked ungated.
const SMOKE_SCALE: f64 = 0.1;

struct Args {
    workload: String,
    seed: u64,
    seconds: u32,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        runs: 5,
        out: "benchmark/NOISE.json".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot parse {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--runs" => a.runs = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--out" => a.out = value()?.clone(),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(1..=60).contains(&a.seconds) {
        return Err(format!("--seconds must be 1..=60, not {}", a.seconds));
    }
    Ok(a)
}

/// One workload, in this process. Returns whether its outputs were correct.
fn run_one(kind: Kind, a: &Args) -> bool {
    let scale = if a.smoke { SMOKE_SCALE } else { f64::from(a.seconds) / f64::from(RUN_SECONDS) };
    let cfg = workloads::RunConfig { kind, seed: a.seed, scale, traced: a.trace };
    let report = workloads::run(&cfg);
    print!("{}", report.details(kind.name()));
    println!("{}", report.json_line(kind.name(), a.trace));
    report.correct()
}

/// `--workload all`: one child process per workload, so peak memory and
/// allocator state do not leak from one workload into the next.
fn run_all(raw: &[String]) -> bool {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut all_correct = true;
    for kind in Kind::ALL {
        let mut child_args: Vec<String> =
            vec!["run".into(), "--workload".into(), kind.name().into()];
        let mut skip = false;
        for arg in raw {
            if skip {
                skip = false;
            } else if arg == "--workload" {
                skip = true;
            } else {
                child_args.push(arg.clone());
            }
        }
        let status = Command::new(&exe).args(&child_args).status();
        all_correct &= status.is_ok_and(|s| s.success());
    }
    all_correct
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "noise" | "compare" | "spec")) => (c, &raw[1..]),
        _ => ("run", &raw[..]),
    };
    if command == "spec" {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if command == "compare" {
        return ExitCode::from(compare::compare(rest) as u8);
    }
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if command == "noise" {
        return ExitCode::from(compare::noise(args.runs, args.seed, args.seconds, &args.out) as u8);
    }
    let correct = match Kind::parse(&args.workload) {
        Some(kind) => run_one(kind, &args),
        None if args.workload == "all" => run_all(rest),
        None => {
            eprintln!("bc-benchmark: unknown workload {:?}", args.workload);
            return ExitCode::from(2);
        }
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
