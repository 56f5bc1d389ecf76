//! The full-stack v-Bundle benchmark: five workloads, end-to-end metrics,
//! per-layer attribution taken from outside the crates under measurement.
//! See `benchmark/README.md` for what is measured and why.
//!
//! ```text
//! benchmark run [--seed N] [--quick] [--out DIR]   all five workloads
//! benchmark compare A.json B.json                 apply the bounds to two runs
//! benchmark --workload W --seed N --seconds S --trace 0|1
//!                                                 one workload, one JSON line
//! ```

mod alloc;
mod catalog;
mod compare;
mod harness;
mod json;
mod ladder;
mod micro;
mod report;
#[cfg(test)]
mod schema_test;
mod span;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Plan, Policy};
use workloads::{Params, NAMES};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The paper's publication date, as every sweep in this repository uses.
const DEFAULT_SEED: u64 = 20120618;

const USAGE: &str = "usage:
  benchmark run [--seed N] [--quick] [--out DIR]
  benchmark compare A.json B.json
  benchmark --workload NAME --seed N --seconds S --trace 0|1
workloads: rebalance steady_agg boot_storm market_churn engine_gossip";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    seed: Option<u64>,
    quick: bool,
    out: Option<PathBuf>,
    workload: Option<&'static str>,
    seconds: Option<f64>,
    trace: Option<bool>,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--workload" => {
                let name = value("--workload")?;
                let known = NAMES.iter().copied().find(|n| *n == name);
                args.workload = Some(known.ok_or(format!("unknown workload {name}"))?);
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--quick" => args.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if args.command.is_none() => args.command = Some(arg),
            _ => args.files.push(arg),
        }
    }
    Ok(args)
}

/// `run`: all five workloads, interleaved; prints every metric, writes
/// `result.json` and the traces. Returns whether every self-check held.
fn run_all(args: &Args) -> Result<bool, String> {
    let p = Params {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        quick: args.quick,
    };
    let policy = if p.quick {
        Policy::Reps { min: 1, max: 1 }
    } else {
        Policy::Reps { min: 5, max: 9 }
    };
    let mut outcomes = harness::measure(
        &NAMES,
        &p,
        Plan {
            policy,
            layers: true,
        },
    );
    report::check_traces(&mut outcomes);
    println!(
        "# v-Bundle full-stack benchmark, seed {}, {} sizes",
        p.seed,
        if p.quick { "quick" } else { "full" }
    );
    report::print(&outcomes);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"));
    report::write_files(&out, &outcomes, &p)?;
    println!("# wrote {}", out.join("result.json").display());
    Ok(outcomes.iter().all(|o| o.broken.is_empty()))
}

/// One workload for `--seconds`, ending in the single JSON result line.
fn run_one(args: &Args, name: &'static str) -> Result<bool, String> {
    let p = Params {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        quick: args.quick,
    };
    let traced = args.trace.unwrap_or(false);
    let plan = if traced {
        // Per-layer numbers come from fixed work: one timed rep as the
        // ladder's top rung, then the counted rep, the traced pass, the
        // prefixes and the microloops.
        Plan {
            policy: Policy::Reps { min: 1, max: 1 },
            layers: true,
        }
    } else {
        Plan {
            policy: Policy::Seconds(args.seconds.ok_or("--workload needs --seconds")?),
            layers: false,
        }
    };
    let mut outcomes = harness::measure(&[name], &p, plan);
    report::check_traces(&mut outcomes);
    let outcome = &outcomes[0];
    eprintln!("{name}: run_s per timed rep {:.4?}", outcome.run_s);
    eprintln!("{name}: setup_s per timed rep {:.4?}", outcome.setup_s);
    for b in &outcome.broken {
        eprintln!("self-check failed: {b}");
    }
    println!("{}", report::result_line(outcome, traced));
    Ok(outcome.broken.is_empty())
}

fn compare_files(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes exactly two result files".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let regressed = compare::compare(&load(a)?, &load(b)?)?;
    Ok(!regressed)
}

fn main() -> ExitCode {
    alloc::pin_mmap_threshold();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = match (args.command.as_deref(), &args.workload) {
        (Some("run"), None) => run_all(&args),
        (Some("compare"), None) => compare_files(&args.files),
        (None, Some(name)) => run_one(&args, name),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_three_forms() {
        let a = parse(argv("run --seed 7 --quick")).unwrap();
        assert_eq!(
            (a.command.as_deref(), a.seed, a.quick),
            (Some("run"), Some(7), true)
        );
        let a = parse(argv("compare a.json b.json")).unwrap();
        assert_eq!(a.files, ["a.json", "b.json"]);
        let a = parse(argv(
            "--workload boot_storm --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some("boot_storm"));
        assert_eq!((a.seconds, a.trace), (Some(10.0), Some(true)));
    }

    #[test]
    fn rejects_what_it_cannot_interpret() {
        assert!(parse(argv("--workload nope")).is_err());
        assert!(parse(argv("run --sed 1")).is_err());
        assert!(parse(argv("--trace 2")).is_err());
        assert!(parse(argv("--seconds 0")).is_err());
        assert!(parse(argv("--seed")).is_err());
    }
}
