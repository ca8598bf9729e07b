//! `perf`: the socket-host benchmark's command line.
//!
//! ```text
//! perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
//! perf --all [--seed <u64>] [--seconds <n>] [--runs <n>] [--quick] [--json <file>]
//! perf compare <parent.json> <change.json>
//! ```
//!
//! A `--workload` run prints its result as the last line of standard
//! output — one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, layer metrics with
//! `--trace 1`). A failed correctness check exits non-zero and prints no
//! result.

use std::path::PathBuf;
use std::process::ExitCode;

use quorumcc_perf::metrics::{END_TO_END, PER_LAYER};
use quorumcc_perf::run::{all, compare, end_to_end, per_layer, AllOpts, Opts};

const USAGE: &str = "usage:
  perf --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--quick]
  perf --all [--seed <u64>] [--seconds <n>] [--runs <n>] [--quick] [--json <file>]
  perf compare <parent.json> <change.json>";

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    quick: bool,
    runs: usize,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        all: false,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        runs: 1,
        json: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: {v:?} is not a number"))
        }
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--all" => out.all = true,
            "--quick" => out.quick = true,
            "--seed" => out.seed = num(flag, value()?)?,
            "--seconds" => out.seconds = Some(num(flag, value()?)?),
            "--runs" => out.runs = num(flag, value()?)?,
            "--json" => out.json = Some(PathBuf::from(value()?)),
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args else {
            return Err(USAGE.into());
        };
        let regressed = compare(a.as_ref(), b.as_ref())?;
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    let args = parse(args)?;
    let opts = Opts {
        seed: args.seed,
        // The full run length is BENCHMARK.json's `run_seconds`.
        seconds: args.seconds.unwrap_or(if args.quick { 1 } else { 24 }),
        quick: args.quick,
    };
    match (&args.workload, args.all) {
        (Some(name), false) => {
            let (outcome, table) = if args.trace {
                (per_layer(name, &opts)?, PER_LAYER)
            } else {
                (end_to_end(name, &opts)?, END_TO_END)
            };
            println!("{}", outcome.result_line(table));
        }
        (None, true) => all(&AllOpts {
            run: opts,
            runs: args.runs,
            json: args.json,
        })?,
        _ => return Err(USAGE.into()),
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::FAILURE
    })
}
