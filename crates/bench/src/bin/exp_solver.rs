//! E-SOLVER — before/after sweep of the exact-solver optimizations.
//!
//! Runs the exact MPP solver over an `(n, k, r, g)` grid of DAG
//! families per instance as baseline (plain Dijkstra, no symmetry
//! reduction) and optimized (processor-symmetry canonicalization +
//! admissible A\*), checking the optima agree, and reports per-instance
//! wall time, settled-state counts, packed-arena memory (peak bytes and
//! bytes per interned state) and aggregate speedups. The instances run
//! one at a time, so no other solve competes for the cores.
//!
//! A `--threads ∈ {2, 4}` sweep of the hash-sharded engine follows,
//! one solve at a time as well. Each round runs a fresh `t = 1` solve
//! and then the `t ≥ 2` solve of the same instance; a point's speedup
//! is the median `t = 1` wall over the median `t ≥ 2` wall of
//! [`ROUNDS`] rounds, and every point must prove the sequential
//! optimum. On a single-hardware-thread host the sweep
//! is **skipped entirely** (its table columns print `-`, the JSON
//! arrays stay empty): time-sliced workers would only measure
//! scheduling overhead. The host's `hardware_threads` is recorded with
//! a `sweep_valid` flag, and `rbp report` calls a skipped sweep out.
//!
//! Results land in `BENCH_solver.json` for commit-to-commit comparison;
//! the EXPERIMENTS E16 and E19 tables are regenerated from this run.
//!
//! Usage: `exp_solver [--quick]` (`--quick` trims the grid for CI).

use std::time::Instant;

use rbp_bench::{banner, Table};
use rbp_core::rbp_dag::{generators, Dag};
use rbp_core::{solve_mpp_with, MppInstance, SearchConfig, SearchStats};
use rbp_util::env_seed;
use rbp_util::json::Json;

struct Case {
    dag: Dag,
    family: &'static str,
    k: usize,
    r: usize,
    g: u64,
}

/// Thread counts of the sharded-engine sweep.
const SWEEP_THREADS: [usize; 2] = [2, 4];
/// Interleaved `t = 1` / `t ≥ 2` rounds per sweep point (odd, so the
/// median is one run).
const ROUNDS: usize = 3;

/// The sharded engine at one thread count: median walls of [`ROUNDS`]
/// interleaved runs, and the counters of the median `t ≥ 2` run.
struct SweepPoint {
    threads: usize,
    wall_ns: u64,
    t1_wall_ns: u64,
    stats: SearchStats,
}

impl SweepPoint {
    fn speedup(&self) -> f64 {
        self.t1_wall_ns as f64 / self.wall_ns.max(1) as f64
    }
}

struct Outcome {
    label: String,
    n: usize,
    k: usize,
    total: u64,
    base_ns: u64,
    base_stats: SearchStats,
    opt_ns: u64,
    opt_stats: SearchStats,
}

fn grid_cases(quick: bool) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut push = |dag: Dag, family: &'static str, k: usize, r: usize, g: u64| {
        cases.push(Case {
            dag,
            family,
            k,
            r,
            g,
        });
    };
    // k = 2 sweep on n ≥ 8 DAGs (the acceptance grid), plus k = 1 and
    // k = 3 spot checks. r stays close to Δin + 1 so fast memory is
    // tight and the search non-trivial; n stays ≤ ~9 because the
    // *baseline* must also finish within the state budget.
    for g in [1u64, 2] {
        push(generators::grid(2, 4), "grid2x4", 2, 3, g);
        push(generators::independent_chains(2, 4), "chains2x4", 2, 2, g);
    }
    push(generators::grid(3, 3), "grid3x3", 2, 3, 1);
    push(
        generators::layered_random(3, 3, 2, 7 + env_seed(0)),
        "layered3x3",
        2,
        3,
        1,
    );
    push(generators::grid(3, 3), "grid3x3", 1, 3, 2);
    if !quick {
        push(generators::grid(3, 3), "grid3x3", 2, 3, 2);
        push(generators::binary_in_tree(4), "tree4", 3, 3, 2);
        push(generators::binary_in_tree(4), "tree4", 2, 3, 1);
    }
    cases
}

/// Wall-clock nanoseconds of one solve, with its outcome.
fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t = Instant::now();
    let out = f();
    (
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        out,
    )
}

fn run_case(case: &Case) -> Outcome {
    let inst = MppInstance::new(&case.dag, case.k, case.r, case.g);
    let (base_ns, base) = timed(|| solve_mpp_with(&inst, &SearchConfig::baseline()));
    let (opt_ns, opt) = timed(|| solve_mpp_with(&inst, &SearchConfig::default()));

    let b = base.solution.expect("baseline solved");
    let o = opt.solution.expect("optimized solved");
    assert_eq!(
        b.total, o.total,
        "{} k={} r={} g={}: optimized solver changed the optimum",
        case.family, case.k, case.r, case.g
    );
    o.strategy
        .validate(&inst)
        .expect("optimized witness validates");

    Outcome {
        label: format!("{} k={} r={} g={}", case.family, case.k, case.r, case.g),
        n: case.dag.n(),
        k: case.k,
        total: o.total,
        base_ns,
        base_stats: base.stats,
        opt_ns,
        opt_stats: opt.stats,
    }
}

/// The thread sweep of one case, run while nothing else runs: per
/// thread count, [`ROUNDS`] rounds of a fresh `t = 1` solve followed by
/// the `t ≥ 2` solve, each of which must prove `total`.
fn sweep_case(case: &Case, total: u64) -> Vec<SweepPoint> {
    let inst = MppInstance::new(&case.dag, case.k, case.r, case.g);
    let cfg = SearchConfig::default();
    let median = |mut walls: Vec<u64>| {
        walls.sort_unstable();
        walls[walls.len() / 2]
    };
    SWEEP_THREADS
        .into_iter()
        .map(|threads| {
            let mut t1_walls = Vec::with_capacity(ROUNDS);
            let mut runs = Vec::with_capacity(ROUNDS);
            for _ in 0..ROUNDS {
                let (t1_ns, seq) = timed(|| solve_mpp_with(&inst, &cfg));
                assert_eq!(seq.solution.map(|s| s.total), Some(total));
                t1_walls.push(t1_ns);
                let (ns, par) = timed(|| solve_mpp_with(&inst, &cfg.with_threads(threads)));
                assert_eq!(
                    par.solution.map(|s| s.total),
                    Some(total),
                    "{} k={} r={} g={}: --threads {threads} changed the optimum",
                    case.family,
                    case.k,
                    case.r,
                    case.g
                );
                runs.push((ns, par.stats));
            }
            runs.sort_unstable_by_key(|&(ns, _)| ns);
            let (wall_ns, stats) = runs.swap_remove(ROUNDS / 2);
            SweepPoint {
                threads,
                wall_ns,
                t1_wall_ns: median(t1_walls),
                stats,
            }
        })
        .collect()
}

fn main() {
    rbp_bench::init_trace("exp_solver", &[]);
    let quick = std::env::args().any(|a| a == "--quick");
    banner(
        "E-SOLVER",
        "exact-solver ablation: Dijkstra vs symmetry-reduced A*",
    );
    let hardware_threads = std::thread::available_parallelism().map_or(0, usize::from);
    // On a single-hardware-thread host the sharded workers time-slice
    // one core, so the wall-clock side of the sweep is noise: skip it
    // entirely and flag the run rather than record fake scaling data.
    let sweep_valid = hardware_threads > 1;
    let cases = grid_cases(quick);
    let results: Vec<Outcome> = cases.iter().map(run_case).collect();
    let sweeps: Vec<Vec<SweepPoint>> = cases
        .iter()
        .zip(&results)
        .map(|(case, o)| {
            if sweep_valid {
                sweep_case(case, o.total)
            } else {
                Vec::new()
            }
        })
        .collect();

    let mut t = Table::new(&[
        "instance",
        "n",
        "OPT",
        "base ms",
        "opt ms",
        "base settled",
        "opt settled",
        "settled x",
        "wall x",
        "bytes/st",
        "t2 ms",
        "t2 x",
        "t4 ms",
        "t4 x",
    ]);
    let mut rows = Vec::new();
    let (mut k2_settled_base, mut k2_settled_opt) = (0u64, 0u64);
    let (mut k2_ns_base, mut k2_ns_opt) = (0u64, 0u64);
    let (mut k2_arena_bytes, mut k2_arena_states) = (0u64, 0u64);
    // Per sweep thread count: summed median walls at t and at t = 1.
    let mut k2_thread_ns = [0u64; SWEEP_THREADS.len()];
    let mut k2_thread_t1_ns = [0u64; SWEEP_THREADS.len()];
    for (o, sweep) in results.iter().zip(&sweeps) {
        let settled_x = o.base_stats.settled as f64 / o.opt_stats.settled.max(1) as f64;
        let wall_x = o.base_ns as f64 / o.opt_ns.max(1) as f64;
        let mut cells = vec![
            o.label.clone(),
            o.n.to_string(),
            o.total.to_string(),
            format!("{:.2}", o.base_ns as f64 / 1e6),
            format!("{:.2}", o.opt_ns as f64 / 1e6),
            o.base_stats.settled.to_string(),
            o.opt_stats.settled.to_string(),
            format!("{settled_x:.1}x"),
            format!("{wall_x:.1}x"),
            format!("{:.1}", o.opt_stats.bytes_per_state()),
        ];
        // The sweep columns collapse to `-` when the sweep was skipped
        // (single-hardware-thread host).
        if sweep.is_empty() {
            cells.extend([
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
            ]);
        } else {
            for p in sweep {
                cells.push(format!("{:.2}", p.wall_ns as f64 / 1e6));
                cells.push(format!("{:.2}x", p.speedup()));
            }
        }
        t.row(&cells);
        if o.k >= 2 && o.n >= 8 {
            k2_settled_base += o.base_stats.settled;
            k2_settled_opt += o.opt_stats.settled;
            k2_ns_base += o.base_ns;
            k2_ns_opt += o.opt_ns;
            k2_arena_bytes += o.opt_stats.arena_peak_bytes;
            k2_arena_states += o.opt_stats.arena_states;
            for (i, p) in sweep.iter().enumerate() {
                k2_thread_ns[i] += p.wall_ns;
                k2_thread_t1_ns[i] += p.t1_wall_ns;
            }
        }
        let sweep_json: Vec<Json> = sweep
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("threads", Json::from(p.threads)),
                    ("wall_ns", Json::from(p.wall_ns)),
                    ("t1_wall_ns", Json::from(p.t1_wall_ns)),
                    ("speedup_vs_t1", Json::from(p.speedup())),
                    ("settled", Json::from(p.stats.settled)),
                    ("cross_sends", Json::from(p.stats.cross_sends)),
                    ("send_blocks", Json::from(p.stats.send_blocks)),
                    ("locality_fraction", Json::from(p.stats.locality_fraction())),
                    ("arena_peak_bytes", Json::from(p.stats.arena_peak_bytes)),
                ])
            })
            .collect();
        rows.push(Json::obj(vec![
            ("instance", Json::from(o.label.as_str())),
            ("n", Json::from(o.n)),
            ("k", Json::from(o.k)),
            ("total", Json::from(o.total)),
            ("base_wall_ns", Json::from(o.base_ns)),
            ("opt_wall_ns", Json::from(o.opt_ns)),
            ("base_settled", Json::from(o.base_stats.settled)),
            ("opt_settled", Json::from(o.opt_stats.settled)),
            ("opt_probe_settled", Json::from(o.opt_stats.probe_settled)),
            ("base_pushed", Json::from(o.base_stats.pushed)),
            ("opt_pushed", Json::from(o.opt_stats.pushed)),
            (
                "opt_arena_peak_bytes",
                Json::from(o.opt_stats.arena_peak_bytes),
            ),
            (
                "opt_bytes_per_state",
                Json::from(o.opt_stats.bytes_per_state()),
            ),
            ("sweep", Json::Arr(sweep_json)),
        ]));
    }
    t.print_traced("E-SOLVER");

    let settled_speedup = k2_settled_base as f64 / k2_settled_opt.max(1) as f64;
    let wall_speedup = k2_ns_base as f64 / k2_ns_opt.max(1) as f64;
    // Per *interned* state (the arena stores every relaxed state, not
    // just settled ones).
    let bytes_per_state = k2_arena_bytes as f64 / k2_arena_states.max(1) as f64;
    rbp_trace::gauge("exp_solver.sweep_valid", f64::from(u8::from(sweep_valid)));
    println!(
        "\naggregate over k>=2, n>=8: settled-state reduction {settled_speedup:.1}x, \
         wall-clock speedup {wall_speedup:.1}x"
    );
    println!("memory: {bytes_per_state:.1} bytes/interned state packed");
    let thread_aggregate: Vec<Json> = if sweep_valid {
        SWEEP_THREADS
            .into_iter()
            .zip(k2_thread_ns.into_iter().zip(k2_thread_t1_ns))
            .map(|(threads, (ns, t1_ns))| {
                let speedup = t1_ns as f64 / ns.max(1) as f64;
                println!(
                    "threads={threads}: wall {speedup:.2}x vs interleaved t1, \
                     median of {ROUNDS} ({hardware_threads} hardware threads on this host)"
                );
                Json::obj(vec![
                    ("threads", Json::from(threads)),
                    ("wall_ns", Json::from(ns)),
                    ("t1_wall_ns", Json::from(t1_ns)),
                    ("speedup_vs_t1", Json::from(speedup)),
                ])
            })
            .collect()
    } else {
        println!(
            "WARNING: sweep_valid=false — single hardware thread; the t>=2 sweep \
             was skipped (time-sliced workers would measure scheduling overhead, \
             not speedup); re-run on a multi-core host for scaling data"
        );
        Vec::new()
    };
    let json = Json::obj(vec![
        ("suite", Json::from("solver")),
        ("quick", Json::from(quick)),
        ("hardware_threads", Json::from(hardware_threads)),
        ("sweep_valid", Json::from(sweep_valid)),
        (
            "aggregate_k2",
            Json::obj(vec![
                ("settled_speedup", Json::from(settled_speedup)),
                ("wall_speedup", Json::from(wall_speedup)),
                ("base_settled", Json::from(k2_settled_base)),
                ("opt_settled", Json::from(k2_settled_opt)),
                ("base_wall_ns", Json::from(k2_ns_base)),
                ("opt_wall_ns", Json::from(k2_ns_opt)),
                ("arena_peak_bytes", Json::from(k2_arena_bytes)),
                ("arena_states", Json::from(k2_arena_states)),
                ("bytes_per_state", Json::from(bytes_per_state)),
                ("threads", Json::Arr(thread_aggregate)),
            ]),
        ),
        ("results", Json::Arr(rows)),
    ]);
    let path = "BENCH_solver.json";
    match std::fs::write(path, json.render_pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    rbp_bench::finish_trace();
}
