//! E-SOLVER — before/after sweep of the exact-solver optimizations.
//!
//! Runs the exact MPP solver over an `(n, k, r, g)` grid of DAG
//! families per instance as baseline (plain Dijkstra, no symmetry
//! reduction), optimized (processor-symmetry canonicalization +
//! admissible A\*), and a `--threads ∈ {2, 4}` × `--partition ∈ {hash,
//! bands, anchors}` sweep of the sharded parallel engine — checking all
//! optima agree — and reports per-instance wall time, settled-state
//! counts, packed-arena memory (peak bytes and bytes per interned
//! state), cross-shard traffic per partition mode, and aggregate
//! speedups.
//! Results land in `BENCH_solver.json` for commit-to-commit comparison;
//! the EXPERIMENTS speedup table is regenerated from this run. The
//! host's `hardware_threads` is recorded alongside a `sweep_valid`
//! flag: on a single-hardware-thread host the wall-clock side of the
//! thread sweep measures nothing but scheduling overhead, so the sweep
//! is **skipped entirely** (its table columns print `-`, the JSON
//! arrays stay empty), the flag goes `false`, and `rbp report` calls
//! the absence out. Cross-shard send counts are deterministic
//! properties of the partition, so re-running on a multi-core host
//! restores them with no schema change.
//!
//! Usage: `exp_solver [--quick]` (`--quick` trims the grid for CI).

use std::time::Instant;

use rbp_bench::{banner, par_sweep, Table};
use rbp_core::rbp_dag::{generators, Dag};
use rbp_core::{solve_mpp_with, MppInstance, PartitionMode, SearchConfig, SearchStats};
use rbp_util::env_seed;
use rbp_util::json::Json;

struct Case {
    dag: Dag,
    family: &'static str,
    k: usize,
    r: usize,
    g: u64,
}

/// One parallel-engine run at a fixed thread count and partition mode.
struct SweepPoint {
    threads: usize,
    partition: PartitionMode,
    wall_ns: u64,
    stats: SearchStats,
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
    sweep: Vec<SweepPoint>,
}

impl Outcome {
    /// The sweep point at `(threads, partition)`; every case runs the
    /// full cross product, so the lookup always succeeds.
    fn point(&self, threads: usize, partition: PartitionMode) -> &SweepPoint {
        self.sweep
            .iter()
            .find(|p| p.threads == threads && p.partition == partition)
            .expect("full threads x partition sweep")
    }
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

fn run_case(case: &Case, do_sweep: bool) -> Outcome {
    let inst = MppInstance::new(&case.dag, case.k, case.r, case.g);
    let base_cfg = SearchConfig::baseline();
    let opt_cfg = SearchConfig::default();

    let t = Instant::now();
    let base = solve_mpp_with(&inst, &base_cfg);
    let base_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let t = Instant::now();
    let opt = solve_mpp_with(&inst, &opt_cfg);
    let opt_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);

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

    // Threads × partition sweep of the sharded engine; every point must
    // prove the same optimum. Skipped wholesale on single-core hosts
    // (`do_sweep == false`) — time-sliced workers would only record
    // scheduling-overhead noise.
    let mut sweep = Vec::new();
    let thread_counts: &[usize] = if do_sweep { &[2, 4] } else { &[] };
    for &threads in thread_counts {
        for partition in PartitionMode::ALL {
            let cfg = opt_cfg.with_threads(threads).with_partition(partition);
            let t = Instant::now();
            let par = solve_mpp_with(&inst, &cfg);
            let wall_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let p = par.solution.expect("parallel solved");
            assert_eq!(
                p.total, o.total,
                "{} k={} r={} g={}: --threads {threads} --partition {partition} \
                 changed the optimum",
                case.family, case.k, case.r, case.g
            );
            sweep.push(SweepPoint {
                threads,
                partition,
                wall_ns,
                stats: par.stats,
            });
        }
    }

    Outcome {
        label: format!("{} k={} r={} g={}", case.family, case.k, case.r, case.g),
        n: case.dag.n(),
        k: case.k,
        total: o.total,
        base_ns,
        base_stats: base.stats,
        opt_ns,
        opt_stats: opt.stats,
        sweep,
    }
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
    let results = par_sweep(cases, |case| run_case(case, sweep_valid));

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
        "t4 ms",
        "send redux",
    ]);
    let mut rows = Vec::new();
    let (mut k2_settled_base, mut k2_settled_opt) = (0u64, 0u64);
    let (mut k2_ns_base, mut k2_ns_opt) = (0u64, 0u64);
    let (mut k2_arena_bytes, mut k2_arena_states) = (0u64, 0u64);
    let mut k2_thread_ns = [0u64; 2];
    // Per-partition t=4 traffic aggregates (indexed like PartitionMode::ALL).
    let mut k2_t4_sends = [0u64; 3];
    let mut k2_t4_settled = [0u64; 3];
    for o in &results {
        let settled_x = o.base_stats.settled as f64 / o.opt_stats.settled.max(1) as f64;
        let wall_x = o.base_ns as f64 / o.opt_ns.max(1) as f64;
        // The sweep columns collapse to `-` when the sweep was skipped
        // (single-hardware-thread host).
        let (t2_ms, t4_ms, send_redux) = if o.sweep.is_empty() {
            ("-".to_string(), "-".to_string(), "-".to_string())
        } else {
            let hash4 = o.point(4, PartitionMode::Hash);
            let anchors4 = o.point(4, PartitionMode::Anchors);
            // Sends-per-settled normalizes away the (mode-dependent)
            // amount of duplicated exploration before comparing traffic.
            let hash_sps = hash4.stats.cross_sends as f64 / hash4.stats.settled.max(1) as f64;
            let anchors_sps =
                anchors4.stats.cross_sends as f64 / anchors4.stats.settled.max(1) as f64;
            (
                format!(
                    "{:.2}",
                    o.point(2, PartitionMode::Hash).wall_ns as f64 / 1e6
                ),
                format!("{:.2}", hash4.wall_ns as f64 / 1e6),
                format!("{:.1}x", hash_sps / anchors_sps.max(1e-9)),
            )
        };
        t.row(&[
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
            t2_ms,
            t4_ms,
            send_redux,
        ]);
        if o.k >= 2 && o.n >= 8 {
            k2_settled_base += o.base_stats.settled;
            k2_settled_opt += o.opt_stats.settled;
            k2_ns_base += o.base_ns;
            k2_ns_opt += o.opt_ns;
            k2_arena_bytes += o.opt_stats.arena_peak_bytes;
            k2_arena_states += o.opt_stats.arena_states;
            if !o.sweep.is_empty() {
                for (slot, threads) in k2_thread_ns.iter_mut().zip([2usize, 4]) {
                    *slot += o.point(threads, PartitionMode::Hash).wall_ns;
                }
                for (i, mode) in PartitionMode::ALL.into_iter().enumerate() {
                    let p = o.point(4, mode);
                    k2_t4_sends[i] += p.stats.cross_sends;
                    k2_t4_settled[i] += p.stats.settled;
                }
            }
        }
        let sweep_json: Vec<Json> = o
            .sweep
            .iter()
            .map(|p| {
                Json::obj(vec![
                    ("threads", Json::from(p.threads)),
                    ("partition", Json::from(p.partition.as_str())),
                    ("wall_ns", Json::from(p.wall_ns)),
                    ("settled", Json::from(p.stats.settled)),
                    ("cross_sends", Json::from(p.stats.cross_sends)),
                    ("send_blocks", Json::from(p.stats.send_blocks)),
                    ("foreign_expansions", Json::from(p.stats.foreign_expansions)),
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
    let sends_per_settled = |i: usize| k2_t4_sends[i] as f64 / k2_t4_settled[i].max(1) as f64;
    if sweep_valid {
        for (i, threads) in [2usize, 4].into_iter().enumerate() {
            println!(
                "threads={threads}: wall {:.1}x vs opt t1 ({} hardware threads on this host)",
                k2_ns_opt as f64 / k2_thread_ns[i].max(1) as f64,
                hardware_threads
            );
        }
        let hash_sps = sends_per_settled(0);
        for (i, mode) in PartitionMode::ALL.into_iter().enumerate() {
            println!(
                "partition={mode} t=4: {:.3} cross-shard sends/settled ({:.1}x fewer than hash)",
                sends_per_settled(i),
                hash_sps / sends_per_settled(i).max(1e-9)
            );
        }
    } else {
        println!(
            "WARNING: sweep_valid=false — single hardware thread; the t>=2 sweep \
             was skipped (time-sliced workers would measure scheduling overhead, \
             not speedup); re-run on a multi-core host for scaling data"
        );
    }

    let (thread_aggregate, partition_aggregate): (Vec<Json>, Vec<Json>) = if sweep_valid {
        let hash_sps = sends_per_settled(0);
        (
            [2usize, 4]
                .into_iter()
                .zip(k2_thread_ns)
                .map(|(threads, ns)| {
                    Json::obj(vec![
                        ("threads", Json::from(threads)),
                        ("wall_ns", Json::from(ns)),
                        (
                            "speedup_vs_t1",
                            Json::from(k2_ns_opt as f64 / ns.max(1) as f64),
                        ),
                    ])
                })
                .collect(),
            PartitionMode::ALL
                .into_iter()
                .enumerate()
                .map(|(i, mode)| {
                    Json::obj(vec![
                        ("partition", Json::from(mode.as_str())),
                        ("threads", Json::from(4u64)),
                        ("cross_sends", Json::from(k2_t4_sends[i])),
                        ("settled", Json::from(k2_t4_settled[i])),
                        ("sends_per_settled", Json::from(sends_per_settled(i))),
                        (
                            "send_reduction_vs_hash",
                            Json::from(hash_sps / sends_per_settled(i).max(1e-9)),
                        ),
                    ])
                })
                .collect(),
        )
    } else {
        (Vec::new(), Vec::new())
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
                ("partitions_t4", Json::Arr(partition_aggregate)),
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
