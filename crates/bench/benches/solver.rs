//! Exact solver scaling (SPP in n and r; MPP in k), plus the ablation
//! of the PR's two search optimizations: processor-symmetry
//! canonicalization and the admissible A\* heuristic. Each variant's
//! settled-state count lands in `BENCH_solver.json` next to wall time,
//! so before/after runs can be compared commit-to-commit.

use rbp_bench::Bench;
use rbp_core::mpp::exact::probe;
use rbp_core::rbp_dag::generators;
use rbp_core::{
    solve_mpp, solve_mpp_with, solve_spp, solve_spp_with, MppInstance, SearchConfig, SolveLimits,
    SppInstance,
};

fn main() {
    // The full before/after sweep (exp_solver) owns BENCH_solver.json;
    // this microbench suite writes BENCH_solver_micro.json.
    let mut b = Bench::new("solver_micro");

    for leaves in [4usize, 8] {
        let dag = generators::binary_in_tree(leaves);
        b.run(&format!("spp/tree{leaves}"), || {
            solve_spp(
                &SppInstance::with_compute(&dag, 3, 2),
                SolveLimits::default(),
            )
            .unwrap()
            .total
        });
    }
    for r in [3usize, 4] {
        let dag = generators::grid(3, 3);
        b.run(&format!("spp/grid3x3_r{r}"), || {
            solve_spp(
                &SppInstance::with_compute(&dag, r, 2),
                SolveLimits::default(),
            )
            .unwrap()
            .total
        });
    }
    for k in [1usize, 2] {
        let dag = generators::binary_in_tree(4);
        b.run(&format!("mpp/tree4_k{k}"), || {
            solve_mpp(&MppInstance::new(&dag, k, 3, 2), SolveLimits::default())
                .unwrap()
                .total
        });
    }

    // Ablation: symmetry × heuristic on a k=2 instance. All four
    // variants must agree on the optimum; they differ in states settled
    // and wall time.
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);
    let mut totals = Vec::new();
    for (sym, heur) in [(false, false), (true, false), (false, true), (true, true)] {
        let cfg = SearchConfig {
            symmetry: sym,
            heuristic: heur,
            ..SearchConfig::default()
        };
        let label = format!(
            "mpp/grid3x3_k2[sym={}+heur={}]",
            u8::from(sym),
            u8::from(heur)
        );
        let outcome = solve_mpp_with(&inst, &cfg);
        totals.push(outcome.solution.as_ref().expect("solvable").total);
        let settled = outcome.stats.settled;
        let pushed = outcome.stats.pushed;
        let m = b.run(&label, || solve_mpp_with(&inst, &cfg).stats.settled);
        m.extra.add("settled", settled);
        m.extra.add("pushed", pushed);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "ablation variants disagree: {totals:?}"
    );

    // Same ablation for SPP (no symmetry axis; heuristic only).
    let dag = generators::grid(3, 4);
    let inst = SppInstance::with_compute(&dag, 3, 2);
    for heur in [false, true] {
        let cfg = SearchConfig {
            symmetry: false,
            heuristic: heur,
            ..SearchConfig::default()
        };
        let outcome = solve_spp_with(&inst, &cfg);
        let settled = outcome.stats.settled;
        let m = b.run(&format!("spp/grid3x4[heur={}]", u8::from(heur)), || {
            solve_spp_with(&inst, &cfg).stats.settled
        });
        m.extra.add("settled", settled);
    }

    // Hot-path kernels (`solver_kernel` group), timed in isolation via
    // the solver's probe hooks: memoized processor-permutation
    // canonicalization and per-expansion successor generation with
    // dominance pruning off vs on. The walk-based kernels share a fixed
    // seed so before/after runs time identical work; the returned
    // checksums keep the work live.
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);
    const KSEED: u64 = 0xbeb0;
    let m = b.run("solver_kernel/canonicalize_64k", || {
        probe::canon_kernel(64_000, KSEED)
    });
    m.extra.add("iters", 64_000u64);
    for (label, dominance) in [
        ("solver_kernel/expand_naive_2k", false),
        ("solver_kernel/expand_pruned_2k", true),
    ] {
        let emitted = probe::expand_kernel(&inst, 2_000, dominance, KSEED);
        let m = b.run(label, || {
            probe::expand_kernel(&inst, 2_000, dominance, KSEED)
        });
        m.extra.add("expansions", 2_000u64);
        m.extra.add("emitted", emitted);
    }

    b.finish();
}
