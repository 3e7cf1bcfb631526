//! The repeat driver: `rbpbench repeat [--runs N] [--seconds S]
//! [--seed FIRST] [--workloads a,b] [--trace 0|1]`.
//!
//! Runs each workload `N` times in child processes, seeds `FIRST`,
//! `FIRST + 1`, …, and prints per metric the median, the quartiles (as
//! Python's `statistics.quantiles(values, n=4)` computes them) and the
//! spread `(q3 - q1) / median` — the figure a metric's bound in
//! `BENCHMARK.json` must stay three times above.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use rbp_util::json::Json;

use crate::stats::{median, quartiles};
use crate::WORKLOADS;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// One metric's values across runs.
#[derive(Debug, Default)]
struct Series {
    unit: String,
    values: Vec<f64>,
}

/// Entry point of the `repeat` subcommand.
pub fn main(args: &[String]) -> ExitCode {
    let runs: usize = flag(args, "--runs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let seconds = flag(args, "--seconds").unwrap_or("20");
    let first: u64 = flag(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let trace = flag(args, "--trace").unwrap_or("0");
    let workloads: Vec<String> = flag(args, "--workloads").map_or_else(
        || WORKLOADS.iter().map(|w| (*w).to_string()).collect(),
        |w| w.split(',').map(String::from).collect(),
    );
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let manifest = rbp_trace::Manifest::new("rbpbench-repeat")
        .field("runs", runs)
        .field("seconds", seconds)
        .field("first_seed", first)
        .field("traced", trace == "1")
        .field("nproc", nproc);
    println!("{}", manifest.to_json().render());
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("rbpbench repeat: cannot locate own executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for w in &workloads {
        let mut series: BTreeMap<String, Series> = BTreeMap::new();
        let mut failed_runs = 0;
        for i in 0..runs as u64 {
            let seed = (first + i).to_string();
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed,
                    "--seconds",
                    seconds,
                    "--trace",
                    trace,
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let stdout = out
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
                .unwrap_or_default();
            // Unscaled times ride along as `raw <name> <value> <unit>`.
            for line in stdout.lines().filter_map(|l| l.strip_prefix("raw ")) {
                let mut parts = line.split(' ');
                if let (Some(name), Some(Ok(v)), Some(unit)) = (
                    parts.next(),
                    parts.next().map(str::parse::<f64>),
                    parts.next(),
                ) {
                    let s = series.entry(format!("raw.{name}")).or_default();
                    s.unit = unit.to_string();
                    s.values.push(v);
                }
            }
            let Some(json) = stdout.lines().last().and_then(|l| Json::parse(l).ok()) else {
                println!("{w} seed {seed}: run failed");
                failed_runs += 1;
                continue;
            };
            let correct = json.get("correct") == Some(&Json::Bool(true));
            println!(
                "{w} seed {seed}: correct={correct} attempted={} failed={}",
                json.get("attempted").and_then(Json::as_u64).unwrap_or(0),
                json.get("failed").and_then(Json::as_u64).unwrap_or(0)
            );
            failed_runs += usize::from(!correct);
            if let Some(Json::Obj(metrics)) = json.get("metrics") {
                let mut row = Vec::new();
                for (name, m) in metrics {
                    let s = series.entry(name.clone()).or_default();
                    s.unit = m
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    if let Some(v) = m.get("value").and_then(Json::as_f64) {
                        s.values.push(v);
                        row.push(format!("{name}={v:.6}"));
                    }
                }
                println!("  {}", row.join(" "));
            }
        }
        ok &= failed_runs == 0;
        println!("== {w}: {runs} runs, {failed_runs} failed or incorrect");
        println!(
            "{:<44} {:>8} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "median", "q1", "q3", "spread"
        );
        for (name, s) in &series {
            let med = median(&s.values).unwrap_or(0.0);
            let [q1, _, q3] = quartiles(&s.values).unwrap_or([med; 3]);
            let spread = if med == 0.0 {
                0.0
            } else {
                (q3 - q1) / med.abs()
            };
            println!(
                "{name:<44} {:>8} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4}",
                s.unit
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
