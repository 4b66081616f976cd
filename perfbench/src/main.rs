//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! With `--trace 0`, runs the workload's campaign repeatedly for `S`
//! seconds and prints the end-to-end metrics; with `--trace 1`, runs the
//! traced measurement and prints the per-layer metrics. Either way the
//! last line of standard output is the JSON result, and a failed output
//! check exits with code 1.
//!
//! The end-to-end run starts copies of itself with `--setup-probe 1`:
//! such a process sets the workload up cold, prints the seconds from the
//! start of `main` until the campaign could be dispatched, and exits.

use perfbench::workload::{by_name, WORKLOADS};
use perfbench::{e2e, layers, result_line};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_probe = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" | "--setup-probe" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    setup_probe = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(w) = by_name(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload '{}' (available: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    if args.setup_probe {
        return match e2e::setup_probe(w, args.seed, started) {
            Ok(seconds) => {
                println!("{seconds:?}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = if args.trace {
        layers::run(w, args.seed, args.seconds)
            .map(|o| (o.attempted, o.failed, o.metrics, o.problems))
    } else {
        e2e::run(w, args.seed, args.seconds).map(|o| {
            println!("report_fnv1a64 {:#018x}", o.digest);
            (o.attempted, o.failed, o.metrics, o.problems)
        })
    };
    let (attempted, failed, metrics, problems) = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    for m in &metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let correct = problems.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
