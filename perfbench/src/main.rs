//! `flsa-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable lines (inputs, tail percentile, failure
//! counts), then one JSON object as the last line. Exits 0 when every
//! checked output matched its reference, 1 when one did not (the JSON
//! is still printed, with `"correct": false`), and 2 on a usage error or
//! a run that could not complete.

use std::process::ExitCode;

use flsa_perfbench::report::Report;
use flsa_perfbench::workload::Workload;
use flsa_perfbench::{align_run, layers, rss};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!(
            "--workload is required (one of {})",
            names.join(", ")
        ))?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<(Report, Vec<String>), String> {
    if args.trace {
        let l = layers::run_traced(args.workload, args.seed, args.seconds)?;
        let report = Report {
            correct: l.tally.failed() == 0,
            attempted: l.tally.attempted,
            failed: l.tally.failed(),
            metrics: l.metrics()?,
        };
        return Ok((report, l.lines));
    }
    let (e2e, mut lines) = align_run::run_untraced(args.workload, args.seed, args.seconds);
    let (metrics, more) = e2e.metrics()?;
    lines.extend(more);
    let report = Report {
        correct: e2e.tally.failed() == 0,
        attempted: e2e.tally.attempted,
        failed: e2e.tally.failed(),
        metrics,
    };
    Ok((report, lines))
}

fn main() -> ExitCode {
    rss::fix_mmap_threshold();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flsa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (report, lines) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flsa-perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(2);
        }
    };
    let json = match report.to_json() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("flsa-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    for line in &lines {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    println!("{json}");
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flsa-perfbench: {} of {} checked outputs failed; see fail_ratio above",
            report.failed, report.attempted
        );
        ExitCode::from(1)
    }
}
