//! `rbpbench --workload <exact|refine|stream|serve> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload and prints, as its
//! last stdout line, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics when untraced, the per-layer metrics when
//! traced. `rbpbench repeat …` runs workloads several times and
//! summarises every metric (see `repeat.rs`).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use rbpbench::calibrate::Kernel;
use rbpbench::spans::Tracer;
use rbpbench::{
    closed_loop, common_prefix_rates, end_to_end, exact, layers, print_metrics, print_phase,
    refine, repeat, repeated_setup, result_line, serve, stream, Args, Calibration, Metrics, Phase,
    Workload,
};

/// Scratch directory for the serve store and span dumps, relative to
/// the directory the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repeat") {
        return repeat::main(&args[1..]);
    }
    let parsed = match Args::parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rbpbench: {e}");
            eprintln!("usage: rbpbench --workload <exact|refine|stream|serve> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rbpbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The untraced baseline of `trace.overhead_pct`, from a child run of
/// the same workload and seed over `seconds`: its unscaled `ops_per_s`
/// (the traced run's rate is unscaled too) and, for the single-threaded
/// workloads, its per-operation latencies.
fn untraced_baseline(a: &Args, seconds: f64) -> Result<(f64, Vec<f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .env_remove("RBP_PHASE_PROF")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ops = stdout
        .lines()
        .find_map(|l| l.strip_prefix("raw ops_per_s "))
        .and_then(|l| l.split(' ').next()?.parse().ok())
        .ok_or_else(|| "untraced run printed no raw ops_per_s".to_string())?;
    let latencies = stdout
        .lines()
        .find_map(|l| l.strip_prefix("op_latencies_ms "))
        .map(|l| l.split(' ').filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    Ok((ops, latencies))
}

/// What one workload run produced.
struct Ran {
    phase: Phase,
    setup_s: f64,
    layers: Metrics,
    spans: Tracer,
    cal: Calibration,
    cost_total: u64,
}

fn run_workload<W: Workload>(setup: impl FnMut() -> W, seconds: f64, traced: bool) -> Ran {
    let (mut w, setup_s) = repeated_setup(setup);
    let mut tr = Tracer::new(traced);
    let mut cal = Calibration::new(w.kernel());
    let mut phase = closed_loop(&mut w, seconds, &mut tr, &mut cal);
    let mut extra = w.final_checks();
    let mut m = Metrics::default();
    if traced {
        extra.extend(w.layer_metrics(&mut m));
        layers::add_self_times(&tr, &mut m);
        layers::print_self_times(&tr);
    }
    for e in extra {
        phase.attempted += 1;
        phase.failed += 1;
        phase.errors.push(e);
    }
    Ran {
        cost_total: phase.cost_total(),
        phase,
        setup_s,
        layers: m,
        spans: tr,
        cal,
    }
}

fn run(a: &Args) -> Result<String, String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let manifest = rbp_trace::Manifest::new("rbpbench")
        .field("workload", a.workload.as_str())
        .field("seed", a.seed)
        .field("seconds", a.seconds)
        .field("traced", a.trace)
        .field("nproc", nproc);
    println!("{}", manifest.to_json().render());

    let work_dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{WORK_DIR}: {e}"))?;

    // The traced run splits its time: the first half measures the
    // untraced throughput in a child process, the second half runs with
    // spans and the solver's phase profiling on.
    let (seconds, untraced) = if a.trace {
        let half = a.seconds / 2.0;
        let base = untraced_baseline(a, half);
        std::env::set_var("RBP_PHASE_PROF", "1");
        (half, Some(base))
    } else {
        std::env::remove_var("RBP_PHASE_PROF");
        (a.seconds, None)
    };

    let seed = a.seed;
    let ran = match a.workload.as_str() {
        "exact" => run_workload(|| exact::Exact::setup(seed), seconds, a.trace),
        "refine" => run_workload(|| refine::Refine::setup(seed), seconds, a.trace),
        "stream" => run_workload(|| stream::Stream::setup(seed), seconds, a.trace),
        _ => {
            let hot = serve::hot_set();
            let mut rep = 0;
            let (rig, setup_s) = repeated_setup(|| {
                rep += 1;
                serve::Rig::start(&work_dir, rep, &hot)
            });
            let mut cal = Calibration::new(Kernel::Handoff);
            let out = serve::run(rig?, seed, seconds, a.trace, &work_dir, &mut cal);
            Ran {
                phase: out.phase,
                setup_s,
                layers: out.layers,
                spans: out.spans,
                cal,
                cost_total: out.cost_total,
            }
        }
    };
    let Ran {
        phase,
        setup_s,
        layers: mut layer_metrics,
        spans: tracer,
        cal,
        cost_total,
    } = ran;
    print_phase(&phase);
    println!(
        "host speed: {:?} calibration kernel median {:.4} ms over {} runs (nominal {} ms), time scale {:.4}",
        cal.kernel(),
        cal.median_ms(),
        cal.samples(),
        cal.kernel().nominal_ms(),
        cal.scale()
    );
    if !a.trace && a.workload != "serve" {
        let lat: Vec<String> = phase.latencies_ms.iter().map(f64::to_string).collect();
        println!("op_latencies_ms {}", lat.join(" "));
    }

    let metrics = if a.trace {
        let traced_ops = phase.latencies_ms.len() as f64 / phase.elapsed_s.max(1e-9);
        let rates = match &untraced {
            Some(Ok((_, lat))) if !lat.is_empty() => common_prefix_rates(lat, &phase.latencies_ms),
            Some(Ok((ops, _))) => Some((*ops, traced_ops)),
            Some(Err(e)) => {
                println!("warning: no untraced baseline: {e}");
                None
            }
            None => None,
        };
        if let Some((base, traced)) = rates.filter(|(b, _)| *b > 0.0) {
            layer_metrics.set("trace.overhead_pct", (base - traced) / base * 100.0, "%");
        }
        write_spans(&tracer, &work_dir, a);
        layers::complete(&layer_metrics)
    } else {
        let raw = end_to_end(&phase.latencies_ms, phase.elapsed_s, setup_s, cost_total);
        for (name, value, unit) in &raw.0 {
            println!("raw {name} {value} {unit}");
        }
        let (latencies, elapsed) = phase.at_reference_speed(&cal);
        end_to_end(&latencies, elapsed, setup_s * cal.scale(), cost_total)
    };
    print_metrics(&metrics);
    Ok(result_line(
        phase.failed == 0,
        phase.attempted,
        phase.failed,
        &metrics,
    ))
}

fn write_spans(tr: &Tracer, dir: &Path, a: &Args) {
    let path = dir.join(format!("spans-{}-{}.jsonl", a.workload, a.seed));
    match tr.write_jsonl(&path) {
        Ok(()) => println!("spans {} written to {}", tr.spans().len(), path.display()),
        Err(e) => println!("warning: could not write {}: {e}", path.display()),
    }
}
