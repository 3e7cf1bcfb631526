//! # rbpbench — the repository benchmark
//!
//! Four seeded closed-loop workloads drive the workspace crates through
//! their public APIs and check every answer:
//!
//! - [`exact`]: sequential exact solves (MPP, SPP, three-level) whose
//!   witnesses are replayed through their validators and compared with
//!   committed reference optima;
//! - [`refine`]: the scheduler registry, `batchify`, then a
//!   proposal-budgeted `rbp_refine::refine`;
//! - [`stream`]: a 10^5–10^6-node DAG built by a generator and
//!   scheduled by one streaming scheduler into a discarding or a JSONL
//!   sink;
//! - [`serve`]: an in-process server under two closed-loop clients
//!   (HTTP and the binary wire protocol) sending a hot/fresh mix.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! (`--trace 1`) records spans around the benchmark's own calls into
//! each layer ([`spans`]) and reports the per-layer metrics
//! ([`layers`]). See `README.md` in this directory.

pub mod calibrate;
pub mod exact;
pub mod layers;
pub mod refine;
pub mod repeat;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod stream;

use std::time::{Duration, Instant};

use rbp_util::json::Json;

pub use crate::calibrate::Calibration;
use crate::spans::Tracer;

/// Setups per run; `setup_s` reports their median.
pub const SETUP_REPS: usize = 3;

/// Command-line arguments of one benchmark run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (`exact`, `refine`, `stream`, `serve`).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <w> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    /// A message naming the missing or malformed flag.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Option<&str> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .map(String::as_str)
        };
        let workload = get("--workload").ok_or("missing --workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload '{workload}' ({})",
                WORKLOADS.join("|")
            ));
        }
        let seed = get("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "bad --seed")?;
        let seconds: f64 = get("--seconds")
            .unwrap_or("10")
            .parse()
            .map_err(|_| "bad --seconds")?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err("--seconds must be in (0, 3600]".into());
        }
        let trace = match get("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// The workload names, in the order the repeat driver runs them.
pub const WORKLOADS: &[&str] = &["exact", "refine", "stream", "serve"];

/// An ordered set of named metrics with units.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.0.push((name, value, unit)),
        }
    }

    /// The value of `name`, if set.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// The `metrics` object of the result line.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(n, v, u)| {
                    (
                        n.clone(),
                        Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]),
                    )
                })
                .collect(),
        )
    }
}

/// What one operation reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpResult {
    /// The pebbling total the operation produced, when it produces one.
    pub total: Option<u64>,
    /// Why the operation counts as failed (error, refusal, or a wrong
    /// answer), if it does.
    pub error: Option<String>,
}

impl OpResult {
    /// A checked, correct answer.
    #[must_use]
    pub fn ok(total: Option<u64>) -> Self {
        OpResult { total, error: None }
    }

    /// A failed operation.
    #[must_use]
    pub fn failed(msg: impl Into<String>) -> Self {
        OpResult {
            total: None,
            error: Some(msg.into()),
        }
    }
}

/// A single-threaded closed-loop workload: operation `i` of the seeded
/// sequence runs only after operation `i - 1` returned.
pub trait Workload {
    /// Length of one pass over the seeded case list; `cost_total` sums
    /// the totals of the first pass.
    fn cycle(&self) -> usize;
    /// The calibration kernel this workload's times are scaled by.
    fn kernel(&self) -> calibrate::Kernel {
        calibrate::Kernel::Mixed
    }
    /// Runs and checks operation `i`, recording spans into `tr`.
    fn run_op(&mut self, i: u64, tr: &mut Tracer) -> OpResult;
    /// Checks run once after the timed phase; each message is one
    /// failed operation.
    fn final_checks(&mut self) -> Vec<String> {
        Vec::new()
    }
    /// Adds this workload's per-layer metrics after a traced timed
    /// phase (span self times are added by the caller); returns the
    /// failures of any extra checked operations it ran.
    fn layer_metrics(&mut self, out: &mut Metrics) -> Vec<String>;
}

/// Latencies and outcome counts of a timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-operation wall time, milliseconds, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Wall time from the first operation's start to the last one's end.
    pub elapsed_s: f64,
    /// Totals of the first pass over the case list.
    pub first_pass: Vec<Option<u64>>,
    /// First few failure messages, for the log.
    pub errors: Vec<String>,
    /// Per-operation factor to the reference host speed, from the
    /// calibration runs around each operation (empty: one factor for
    /// the whole run).
    pub scales: Vec<f64>,
}

impl Phase {
    /// Latencies and elapsed time at the reference host speed: each
    /// operation scaled by its own factor when there are per-operation
    /// factors, otherwise everything by `cal`'s run-wide factor.
    #[must_use]
    pub fn at_reference_speed(&self, cal: &Calibration) -> (Vec<f64>, f64) {
        if self.scales.len() != self.latencies_ms.len() || self.scales.is_empty() {
            let s = cal.scale();
            return (
                self.latencies_ms.iter().map(|l| l * s).collect(),
                self.elapsed_s * s,
            );
        }
        let scaled: Vec<f64> = self
            .latencies_ms
            .iter()
            .zip(&self.scales)
            .map(|(l, s)| l * s)
            .collect();
        let raw_sum: f64 = self.latencies_ms.iter().sum();
        let ratio = scaled.iter().sum::<f64>() / raw_sum.max(1e-12);
        (scaled, self.elapsed_s * ratio)
    }

    /// Counts one operation's outcome.
    pub fn record(&mut self, res: &OpResult) {
        self.attempted += 1;
        if let Some(e) = &res.error {
            self.failed += 1;
            if self.errors.len() < 5 {
                self.errors.push(e.clone());
            }
        }
    }

    /// Sum of the first pass's totals.
    #[must_use]
    pub fn cost_total(&self) -> u64 {
        self.first_pass.iter().flatten().sum()
    }
}

/// Runs `w` in a closed loop for `seconds`, timing the calibration
/// kernel before the first operation and after every operation, then
/// completes the first pass over its case list untimed if the timed
/// phase ended early.
pub fn closed_loop(
    w: &mut dyn Workload,
    seconds: f64,
    tr: &mut Tracer,
    cal: &mut Calibration,
) -> Phase {
    let mut phase = Phase::default();
    let cycle = w.cycle() as u64;
    let budget = Duration::from_secs_f64(seconds);
    let first_probe = cal.samples();
    cal.probe();
    let mut probe_s = 0.0;
    let t0 = Instant::now();
    let mut i = 0u64;
    while t0.elapsed() < budget {
        let t = Instant::now();
        let res = tr.span("op", i, |tr| w.run_op(i, tr));
        phase.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        phase.record(&res);
        if i < cycle {
            phase.first_pass.push(res.total);
        }
        probe_s += cal.probe() / 1e3;
        i += 1;
    }
    phase.elapsed_s = t0.elapsed().as_secs_f64() - probe_s;
    phase.scales = (0..phase.latencies_ms.len())
        .map(|op| cal.scale_around(first_probe, op))
        .collect();
    // The untimed remainder of the first pass: cost_total always covers
    // every case, and its answers are checked like any other.
    let mut untimed = Tracer::new(false);
    while i < cycle {
        let res = w.run_op(i, &mut untimed);
        phase.record(&res);
        phase.first_pass.push(res.total);
        i += 1;
    }
    phase
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `SETUP_REPS` calls of `setup`, keeping the last result (earlier
/// ones are dropped before the next starts) and returning the median
/// setup time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let median = stats::median(&times).unwrap_or(0.0);
    (last.expect("at least one setup"), median)
}

/// The end-to-end metrics every workload reports from its timed phase:
/// per-operation latencies, the timed phase's elapsed time (operations
/// only) and the median setup time.
#[must_use]
pub fn end_to_end(latencies_ms: &[f64], elapsed_s: f64, setup_s: f64, cost_total: u64) -> Metrics {
    let mut sorted = latencies_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = |p: f64| stats::percentile(&sorted, p).unwrap_or(0.0);
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set(
        "ops_per_s",
        sorted.len() as f64 / elapsed_s.max(1e-9),
        "1/s",
    );
    m.set("latency_ms.p50", pct(50.0), "ms");
    m.set("latency_ms.p90", pct(90.0), "ms");
    m.set("latency_ms.p99", pct(99.0), "ms");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    m.set("cost_total", cost_total as f64, "count");
    m
}

/// The prefix of the operation sequence two runs both completed, as
/// operations per second of each: `(untraced, traced)`. Comparing the
/// same operations keeps a half-finished pass of slow cases from
/// masquerading as tracing overhead.
#[must_use]
pub fn common_prefix_rates(untraced_ms: &[f64], traced_ms: &[f64]) -> Option<(f64, f64)> {
    let n = untraced_ms.len().min(traced_ms.len());
    let rate = |xs: &[f64]| n as f64 / (xs[..n].iter().sum::<f64>() / 1e3);
    (n > 0).then(|| (rate(untraced_ms), rate(traced_ms)))
}

/// Prints the human-readable sample and failure summary of a phase.
pub fn print_phase(phase: &Phase) {
    let n = phase.latencies_ms.len();
    println!(
        "samples {n} (beyond p50: {}, beyond p90: {}, beyond p99: {})",
        stats::beyond(n, 50.0),
        stats::beyond(n, 90.0),
        stats::beyond(n, 99.0)
    );
    if stats::beyond(n, 90.0) < 10 {
        println!("warning: fewer than 10 samples beyond p90; lengthen --seconds");
    }
    let rate = phase.failed as f64 / phase.attempted.max(1) as f64;
    println!(
        "attempted {} failed {} error_rate {rate}",
        phase.attempted, phase.failed
    );
    for e in &phase.errors {
        println!("error: {e}");
    }
}

/// Prints every metric as `metric <name> <value> <unit>`.
pub fn print_metrics(m: &Metrics) {
    for (name, value, unit) in &m.0 {
        println!("metric {name} {value} {unit}");
    }
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
#[must_use]
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        ("metrics", metrics.to_json()),
    ])
    .render()
}

/// SplitMix64 finaliser: decorrelates derived seeds
/// (`mix(seed ^ salt)`) so neighbouring workload seeds give unrelated
/// streams.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded permutation of `0..n` (Fisher–Yates over [`rbp_util::Rng`]).
#[must_use]
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rbp_util::Rng::new(mix(seed)).shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let a: Vec<String> = "--workload exact --seed 9 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let p = Args::parse(&a).unwrap();
        assert_eq!(
            (p.workload.as_str(), p.seed, p.seconds, p.trace),
            ("exact", 9, 2.5, true)
        );
        let bad: Vec<String> = ["--workload", "nope"].map(String::from).to_vec();
        assert!(Args::parse(&bad).is_err());
    }

    #[test]
    fn permutation_is_seeded() {
        assert_eq!(permutation(7, 3), permutation(7, 3));
        assert_ne!(permutation(7, 3), permutation(7, 4));
        let mut p = permutation(7, 5);
        p.sort_unstable();
        assert_eq!(p, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5, "s");
        let line = result_line(true, 3, 0, &m);
        let j = Json::parse(&line).unwrap();
        let Json::Obj(pairs) = &j else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = j.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(v.get("value").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("unit").unwrap().as_str(), Some("s"));
    }
}
