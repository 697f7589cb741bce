//! The repository benchmark. Runs one workload from one seeded process,
//! verifies every answer, and prints the result as the last line of
//! standard output:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-cg --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! metrics from an in-memory span trace, written to `perfbench/out/`.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod host;
mod probes;
mod rng;
mod runner;
#[cfg(test)]
mod selftest;
mod stats;
mod trace;
mod verify;
mod workload;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use runner::Outcome;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value != "0"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn result_line(o: &Outcome) -> String {
    let mut m = String::new();
    for (k, x) in o.metrics.iter().enumerate() {
        let sep = if k > 0 { "," } else { "" };
        let _ = write!(
            m,
            r#"{sep}"{}":{{"value":{},"unit":"{}"}}"#,
            x.name, x.value, x.unit
        );
    }
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{m}}}}}"#,
        o.correct, o.attempted, o.failed
    )
}

fn report_line(args: &Args, host: &str, o: &Outcome) -> String {
    let mut samples = String::new();
    for (k, x) in o.metrics.iter().enumerate() {
        let _ = write!(
            samples,
            r#"{}"{}":{}"#,
            if k > 0 { "," } else { "" },
            x.name,
            x.samples
        );
    }
    let mut counts = String::new();
    for (k, (name, v)) in o.counts.iter().enumerate() {
        let _ = write!(counts, r#"{}"{name}":{v}"#, if k > 0 { "," } else { "" });
    }
    format!(
        r#"{{"report":{{"workload":"{}","seed":{},"seconds":{},"trace":{},"host":{host},"samples":{{{samples}}},"counts":{{{counts}}}}}}}"#,
        args.workload, args.seed, args.seconds, args.trace
    )
}

fn run(args: &Args) -> Result<Outcome, String> {
    let name = args.workload.as_str();
    let seed = args.seed;
    let make = || {
        workloads::make(name, seed)
            .ok_or_else(|| format!("unknown workload {name}; one of {:?}", workloads::NAMES))
    };
    let mut w = make()?;
    let host = host::descriptor(&w.matrices());
    let outcome = if args.trace {
        let (o, tr) = runner::run_traced(make()?, w, args.seconds, seed)?;
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{name}-seed{seed}.jsonl"));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, tr.to_jsonl()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
        o
    } else {
        runner::run_untraced(w.as_mut(), args.seconds)?
    };
    for m in &outcome.metrics {
        eprintln!(
            "{:<30} {:>14.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", report_line(args, &host, &outcome));
    Ok(outcome)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| run(&a));
    match result {
        Ok(o) => {
            println!("{}", result_line(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
