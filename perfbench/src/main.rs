//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable block per workload, then one JSON result line
//! (the last line of standard output). Exits 1 when a correctness gate
//! fails and 2 on a usage error.

use perfbench::report::{provenance, Outcome};
use perfbench::{run, Config, SCRATCH_DIR, WORKLOADS};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]";

fn parse() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 15.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// Runs one workload and prints its block; the JSON line comes last.
fn report(name: &str, cfg: &Config) -> Outcome {
    println!(
        "== perfbench {name}: seed {}, {} s, {}",
        cfg.seed,
        cfg.seconds,
        if cfg.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        }
    );
    let out = run(name, cfg).expect("known workload");
    println!("provenance: {}", provenance(name, out.threads));
    for note in &out.notes {
        println!("  {note}");
    }
    for (metric, unit) in Outcome::catalogue(cfg.trace) {
        if let Some(v) = out.values.get(metric) {
            println!("  {metric:<34} {v:>16.6} {unit}");
        }
    }
    let unmeasured = out.unmeasured(cfg.trace);
    if !unmeasured.is_empty() {
        println!(
            "  not measured on this workload (reported as 0): {}",
            unmeasured.join(", ")
        );
    }
    println!(
        "  correctness: {} ({} attempted, {} failed)",
        if out.correct() { "ok" } else { "FAILED" },
        out.attempted,
        out.failed
    );
    for e in &out.errors {
        println!("  gate failed: {e}");
    }
    out
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> = match workload.as_str() {
        "all" => WORKLOADS.iter().map(|(n, _)| *n).collect(),
        n if WORKLOADS.iter().any(|(w, _)| *w == n) => vec![n],
        n => {
            eprintln!("unknown workload {n:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in names {
        let out = report(name, &cfg);
        ok &= out.correct();
        println!("{}", out.json(cfg.trace));
    }
    std::fs::remove_dir_all(SCRATCH_DIR).ok();
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
