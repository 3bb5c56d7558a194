//! `perfbench --workload <stanford|oltp|reopt> --seed N --seconds S
//! --trace <0|1> [--work DIR]`
//!
//! Runs one workload and prints, as its last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics, traced runs the per-layer ones.

use perfbench::{oltp, per_layer, reopt, stanford, Config, Outcome, END_TO_END};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".perfbench_work"),
        small: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--work" => cfg.work = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, cfg))
}

/// The result line: every metric of the run's mode, in declaration order.
fn result_line(out: &Outcome, trace: bool) -> String {
    let names: Vec<(String, &str)> = if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match workload.as_str() {
        "stanford" => stanford::run(&cfg),
        "oltp" => oltp::run(&cfg),
        "reopt" => reopt::run(&cfg),
        other => {
            eprintln!("perfbench: unknown workload {other} (stanford, oltp, reopt)");
            return ExitCode::from(2);
        }
    };
    let known: Vec<String> = if cfg.trace {
        per_layer().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    };
    for name in out.metrics.keys() {
        if !known.contains(name) {
            eprintln!("perfbench: internal error: undeclared metric {name}");
            return ExitCode::from(3);
        }
    }
    for line in &out.notes {
        println!("{line}");
    }
    if cfg.trace {
        for (name, unit) in per_layer() {
            let v = out.metrics.get(&name).copied().unwrap_or(0.0);
            println!("{name:<34} {v:>16.4} {unit}");
        }
    }
    println!("{}", result_line(&out, cfg.trace));
    ExitCode::SUCCESS
}
