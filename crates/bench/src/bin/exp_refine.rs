//! E17 — the optimality gap before and after refinement.
//!
//! For every instance in a small/large grid this runs (a) every
//! registered scheduler (batchified, best-of), (b) the anytime portfolio
//! *without* the exact solver (schedulers + local-search refinement
//! only, so the measured gap is the local search's doing), and (c) on
//! solver-feasible sizes the exact optimum; larger instances fall back
//! to the Lemma 1 lower bound. It asserts the refinement sandwich
//! `OPT ≤ refined ≤ best-heuristic` on every instance, reports how often
//! refinement closes the gap entirely, and writes the gap table to
//! `BENCH_refine.json`.
//!
//! Usage: `exp_refine [--quick]` (`--quick` trims budgets and the grid
//! for CI). Honors `RBP_SEED` for the randomized pieces.

use rbp_bench::{banner, par_sweep, Table};
use rbp_bounds::trivial;
use rbp_core::rbp_dag::{generators, Dag};
use rbp_core::{batchify, solve_mpp, MppInstance, SolveLimits};
use rbp_refine::{race, PortfolioConfig};
use rbp_schedulers::all_schedulers;
use rbp_util::env_seed;
use rbp_util::json::Json;

struct Case {
    dag: Dag,
    family: &'static str,
    k: usize,
    r: usize,
    g: u64,
    /// Whether the exact solver is expected to finish on this instance.
    exact: bool,
}

struct Outcome {
    label: String,
    n: usize,
    k: usize,
    best_heuristic: u64,
    refined: u64,
    refined_by: String,
    /// `Ok(opt)` when the exact solver finished, `Err(lower)` otherwise.
    reference: Result<u64, u64>,
}

fn cases(quick: bool, seed: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut push = |dag: Dag, family: &'static str, k: usize, r: usize, g: u64, exact: bool| {
        cases.push(Case {
            dag,
            family,
            k,
            r,
            g,
            exact,
        });
    };
    // Solver-feasible tier: OPT is computable, so the gap is exact.
    push(generators::grid(2, 4), "grid2x4", 2, 3, 2, true);
    push(
        generators::independent_chains(2, 4),
        "chains2x4",
        2,
        2,
        2,
        true,
    );
    push(
        generators::independent_chains(2, 4),
        "chains2x4",
        2,
        3,
        2,
        true,
    );
    push(generators::binary_in_tree(4), "tree4", 2, 3, 2, true);
    push(generators::grid(3, 3), "grid3x3", 2, 3, 1, true);
    push(
        generators::layered_random(3, 3, 2, 7 + seed),
        "layered3x3",
        2,
        3,
        1,
        true,
    );
    if !quick {
        push(generators::grid(3, 3), "grid3x3", 2, 3, 2, true);
        push(generators::binary_in_tree(4), "tree4", 3, 3, 2, true);
        // Beyond-solver tier: only the Lemma 1 lower bound to compare to.
        push(generators::grid(4, 6), "grid4x6", 4, 4, 2, false);
        push(generators::fft(3), "fft3", 4, 4, 2, false);
        push(
            generators::layered_random(5, 6, 3, 7 + seed),
            "layered5x6",
            4,
            4,
            2,
            false,
        );
    }
    cases
}

fn run_case(case: &Case, budget_millis: u64, seed: u64) -> Outcome {
    let inst = MppInstance::new(&case.dag, case.k, case.r, case.g);
    let label = format!("{} k={} r={} g={}", case.family, case.k, case.r, case.g);

    // (a) Best registered heuristic, batchified.
    let best_heuristic = all_schedulers()
        .iter()
        .map(|s| {
            let run = s.schedule(&inst).expect("scheduler runs");
            batchify(&inst, &run.strategy)
                .validate(&inst)
                .expect("batchified strategy validates")
                .total(inst.model)
        })
        .min()
        .expect("scheduler registry is never empty");

    // (b) Portfolio *without* the exact solver: the refined cost.
    let cfg = PortfolioConfig {
        budget_millis,
        seed,
        use_exact: false,
        ..PortfolioConfig::default()
    };
    let out = race(&inst, &cfg).expect("portfolio runs");
    out.run
        .strategy
        .validate(&inst)
        .expect("portfolio winner validates");

    // (c) The reference: OPT where the solver reaches, Lemma 1 otherwise.
    let reference = if case.exact {
        let sol = solve_mpp(&inst, SolveLimits::default())
            .unwrap_or_else(|| panic!("{label}: exact tier did not solve"));
        Ok(sol.total)
    } else {
        Err(trivial::lower(&inst))
    };

    // The refinement sandwich, on every instance.
    assert!(
        out.total <= best_heuristic,
        "{label}: refined {} worse than best heuristic {}",
        out.total,
        best_heuristic
    );
    let floor = match reference {
        Ok(opt) => opt,
        Err(lower) => lower,
    };
    assert!(
        out.total >= floor,
        "{label}: refined {} beats the {} bound {} — a validator bug",
        out.total,
        if case.exact { "optimal" } else { "lower" },
        floor
    );

    Outcome {
        label,
        n: case.dag.n(),
        k: case.k,
        best_heuristic,
        refined: out.total,
        refined_by: out.provenance,
        reference,
    }
}

fn main() {
    rbp_bench::init_trace("exp_refine", &[]);
    let quick = std::env::args().any(|a| a == "--quick");
    let seed = env_seed(0);
    let budget_millis = if quick { 300 } else { 800 };
    banner("E17", "heuristic-to-OPT gap closed by anytime refinement");

    let all = cases(quick, seed);
    let results = par_sweep(all, |c| run_case(c, budget_millis, seed));

    let mut t = Table::new(&[
        "instance",
        "n",
        "best heur",
        "refined",
        "OPT",
        "lower",
        "gap",
        "winner",
    ]);
    let mut rows = Vec::new();
    let (mut exact_cases, mut exact_closed) = (0u64, 0u64);
    for o in &results {
        let (opt_cell, lower_cell, gap_cell) = match o.reference {
            Ok(opt) => {
                exact_cases += 1;
                if o.refined == opt {
                    exact_closed += 1;
                }
                (
                    opt.to_string(),
                    "-".to_string(),
                    (o.refined - opt).to_string(),
                )
            }
            Err(lower) => ("-".to_string(), lower.to_string(), "≤?".to_string()),
        };
        t.row(&[
            o.label.clone(),
            o.n.to_string(),
            o.best_heuristic.to_string(),
            o.refined.to_string(),
            opt_cell,
            lower_cell,
            gap_cell,
            o.refined_by.clone(),
        ]);
        rows.push(Json::obj(vec![
            ("instance", Json::from(o.label.as_str())),
            ("n", Json::from(o.n)),
            ("k", Json::from(o.k)),
            ("best_heuristic", Json::from(o.best_heuristic)),
            ("refined", Json::from(o.refined)),
            ("refined_by", Json::from(o.refined_by.as_str())),
            ("opt", o.reference.map_or(Json::Null, Json::from)),
            (
                "lower_bound",
                o.reference.map_or_else(Json::from, |_| Json::Null),
            ),
        ]));
    }
    t.print_traced("E17");

    let closed_fraction = exact_closed as f64 / exact_cases.max(1) as f64;
    println!(
        "\nsolver-feasible instances: {exact_closed}/{exact_cases} refined to OPT \
         ({:.0}% closed)",
        closed_fraction * 100.0
    );
    assert!(
        2 * exact_closed >= exact_cases,
        "refinement closed the gap on fewer than half the solver-feasible instances"
    );

    // The portfolio races wall-clock budgets, so how much each worker
    // gets done depends on the cores it shares.
    let hardware_threads = std::thread::available_parallelism().map_or(0, usize::from);
    let json = Json::obj(vec![
        ("suite", Json::from("refine")),
        ("quick", Json::from(quick)),
        ("seed", Json::from(seed)),
        ("hardware_threads", Json::from(hardware_threads)),
        ("budget_millis", Json::from(budget_millis)),
        ("exact_cases", Json::from(exact_cases)),
        ("exact_closed", Json::from(exact_closed)),
        ("closed_fraction", Json::from(closed_fraction)),
        ("results", Json::Arr(rows)),
    ]);
    let path = "BENCH_refine.json";
    match std::fs::write(path, json.render_pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    rbp_bench::finish_trace();
}
