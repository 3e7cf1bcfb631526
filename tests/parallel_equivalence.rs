//! Equivalence harness for the sharded parallel exact solver.
//!
//! The parallel engine (HDA\*-style hash ownership over SPSC channels)
//! must be invisible in the results: on every instance and every
//! thread count it proves the same optimal `total` as the sequential
//! engine, its witness validates, and its stop reasons stay
//! meaningful. This harness checks that on randomized small instances
//! across MPP (k ≤ 3), the same instances lifted to the three-level
//! game, and the SPP variant zoo, at 2, 4, and 8 worker threads, plus
//! on fixed instances, and checks determinism of the proven cost
//! across repeated parallel runs.
//!
//! Every case is a deterministic function of its loop index (seeded
//! in-tree RNG), so a failure message identifies the exact instance.

use std::time::{Duration, Instant};

use rbp::core::rbp_dag::generators;
use rbp::core::{
    solve_mpp_with, solve_spp_with, CostModel, MppInstance, SearchConfig, SearchStats, SolveLimits,
    SppInstance, SppVariant, StopReason,
};
use rbp::gadgets::HierSkip;
use rbp::hier::{solve_hier_with, HierInstance};
use rbp::util::Rng;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

fn sequential_cfg() -> SearchConfig {
    SearchConfig::default().with_limits(SolveLimits::states(400_000))
}

/// Whether the incumbent probe's schedule met the root's admissible
/// bound in a sequential solve with this outcome: then it is optimal,
/// and every engine returns it without starting a shard. It did exactly
/// when the optimum is `h_root` and the exact search settled nothing
/// after the probe: every `f` is at least `h_root`, so nothing is left
/// below such a schedule, and a cheaper goal found after the probe's
/// would have needed an expansion. (The probe finds its schedule within
/// its budget on these small instances.)
fn probe_met_h_root(stats: &SearchStats, total: u64) -> bool {
    total == stats.h_root && stats.settled == stats.probe_settled
}

/// 60 random MPP instances × thread counts {2, 4, 8}: the parallel
/// engine proves the sequential optimum, its witness validates, it
/// reports one shard row per worker — or one thread and none when the
/// probe's schedule met the root's bound — and its settled count is
/// the incumbent probe's plus the shards'. Each instance is also solved
/// as a three-level game (green cap 1, green cost 1), whose sharded
/// optimum must match its own sequential one. At least 40 cases of each
/// game run the shards.
#[test]
fn mpp_parallel_matches_sequential_on_random_dags() {
    let seq_cfg = sequential_cfg();
    let mut rng = Rng::new(0x9a11e1);
    let (mut sharded, mut hier_sharded) = (0u32, 0u32);
    for case in 0..60u64 {
        let n = 4 + rng.index(4); // 4..=7 nodes
        let p = 0.15 + rng.f64() * 0.45;
        let dag = generators::random_dag(n, p, case);
        let k = 1 + rng.index(3); // 1..=3 processors
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(1, 5);
        let inst = MppInstance::new(&dag, k, r, g);

        let seq = solve_mpp_with(&inst, &seq_cfg);
        let ctx = format!("case {case}: n={n} k={k} r={r} g={g}");
        let s = seq
            .solution
            .unwrap_or_else(|| panic!("{ctx}: sequential budget"));
        let hinst = HierInstance::from_mpp(&inst, 1, 1);
        let hseq = solve_hier_with(&hinst, &seq_cfg);
        let hs = hseq
            .solution
            .unwrap_or_else(|| panic!("{ctx}: sequential three-level budget"));
        let shards = !probe_met_h_root(&seq.stats, s.total);
        let hier_shards = !probe_met_h_root(&hseq.stats, hs.total);
        sharded += u32::from(shards);
        hier_sharded += u32::from(hier_shards);
        // One shard row per worker when the shards run, none otherwise.
        let rows = |run: bool, threads: usize| if run { threads } else { 0 };
        for threads in THREAD_COUNTS {
            let par = solve_mpp_with(&inst, &seq_cfg.with_threads(threads));
            let p = par
                .solution
                .unwrap_or_else(|| panic!("{ctx}: t={threads} budget"));
            assert_eq!(s.total, p.total, "{ctx}: t={threads} optimum differs");
            assert_eq!(par.reason, StopReason::Solved, "{ctx}: t={threads} reason");
            let cost = p
                .strategy
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{ctx}: t={threads} witness invalid: {e}"));
            assert_eq!(cost.total(inst.model), p.total, "{ctx}: witness cost");
            assert_eq!(
                par.stats.threads,
                rows(shards, threads).max(1) as u64,
                "{ctx}: t={threads} reported thread count"
            );
            assert_eq!(
                par.shards.len(),
                rows(shards, threads),
                "{ctx}: t={threads} shard row count"
            );
            let shard_settled: u64 = par.shards.iter().map(|s| s.settled).sum();
            assert_eq!(
                par.stats.probe_settled + shard_settled,
                par.stats.settled,
                "{ctx}: probe and shard settled sum to the aggregate"
            );

            let hpar = solve_hier_with(&hinst, &seq_cfg.with_threads(threads));
            let hp = hpar
                .solution
                .unwrap_or_else(|| panic!("{ctx}: t={threads} three-level budget"));
            assert_eq!(
                hs.total, hp.total,
                "{ctx}: t={threads} three-level optimum differs"
            );
            let hcost = hp
                .strategy
                .validate(&hinst)
                .unwrap_or_else(|e| panic!("{ctx}: t={threads} three-level witness: {e}"));
            assert_eq!(
                hcost.total(hinst.model),
                hp.total,
                "{ctx}: three-level witness cost"
            );
            assert_eq!(
                (hpar.stats.threads, hpar.shards.len()),
                (
                    rows(hier_shards, threads).max(1) as u64,
                    rows(hier_shards, threads)
                ),
                "{ctx}: t={threads} three-level thread count and shard rows"
            );
        }
    }
    assert!(
        sharded >= 40,
        "only {sharded} of 60 MPP cases ran the shards"
    );
    assert!(
        hier_sharded >= 40,
        "only {hier_sharded} of 60 three-level cases ran the shards"
    );
}

/// 40 random SPP instances across the §3.1 variant zoo × thread counts
/// {2, 4, 8}: parallel and sequential agree on both the optimum and on
/// unsolvability (one-shot instances can be genuinely unsolvable).
#[test]
fn spp_parallel_matches_sequential_across_variants() {
    let seq_cfg = sequential_cfg();
    let mut rng = Rng::new(0x5e9_1a1 ^ 0xffff);
    let mut solved = 0u32;
    for case in 0..40u64 {
        let n = 4 + rng.index(4);
        let p = 0.15 + rng.f64() * 0.45;
        let dag = generators::random_dag(n, p, case);
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(1, 5);
        let (model, variant) = match case % 5 {
            0 => (CostModel::spp_io_only(g), SppVariant::base()),
            1 => (CostModel::mpp(g), SppVariant::base()),
            2 => (CostModel::spp_with_compute(g, 2), SppVariant::base()),
            3 => (CostModel::spp_io_only(g), SppVariant::hong_kung()),
            _ => (CostModel::mpp(g), SppVariant::one_shot()),
        };
        let inst = SppInstance {
            dag: &dag,
            r,
            model,
            variant,
        };

        let seq = solve_spp_with(&inst, &seq_cfg);
        let ctx = format!("case {case}: n={n} r={r} g={g} variant={variant:?}");
        for threads in THREAD_COUNTS {
            let par = solve_spp_with(&inst, &seq_cfg.with_threads(threads));
            match (&seq.solution, par.solution) {
                (None, None) => {
                    assert!(variant.one_shot, "{ctx}: only one-shot can be unsolvable");
                }
                (Some(s), Some(p)) => {
                    assert_eq!(s.total, p.total, "{ctx}: t={threads} optimum differs");
                    let cost = p
                        .strategy
                        .validate(&inst)
                        .unwrap_or_else(|e| panic!("{ctx}: t={threads} witness invalid: {e}"));
                    assert_eq!(cost.total(inst.model), p.total, "{ctx}: witness cost");
                    solved += 1;
                }
                (s, p) => panic!(
                    "{ctx}: t={threads} disagrees on solvability (seq={}, par={})",
                    s.is_some(),
                    p.is_some()
                ),
            }
        }
    }
    // The unsolvable one-shot cases are a small minority.
    assert!(
        solved >= 90,
        "only {solved} (instance, threads) runs solved"
    );
}

/// Thread-count sweep on fixed instances: every thread count proves
/// the identical optimum with a validating witness and reports sane
/// traffic stats (fractions in range).
#[test]
fn every_thread_count_proves_identical_optima() {
    let cfg = sequential_cfg();
    for (dag, k, r, g) in [
        (generators::grid(3, 3), 2, 3, 2),
        (generators::binary_in_tree(4), 2, 3, 1),
        (generators::independent_chains(2, 4), 3, 2, 2),
    ] {
        let inst = MppInstance::new(&dag, k, r, g);
        let seq = solve_mpp_with(&inst, &cfg)
            .solution
            .expect("sequential budget");
        let ctx = format!("n={} k={k} r={r} g={g}", dag.n());
        for threads in THREAD_COUNTS {
            let par = solve_mpp_with(&inst, &cfg.with_threads(threads));
            let sol = par
                .solution
                .unwrap_or_else(|| panic!("{ctx}: t={threads} budget"));
            assert_eq!(seq.total, sol.total, "{ctx}: t={threads} optimum differs");
            let cost = sol
                .strategy
                .validate(&inst)
                .unwrap_or_else(|e| panic!("{ctx}: t={threads} invalid: {e}"));
            assert_eq!(cost.total(inst.model), sol.total, "{ctx}: witness cost");
            let lf = par.stats.locality_fraction();
            assert!(
                (0.0..=1.0).contains(&lf),
                "{ctx}: t={threads} locality_fraction {lf} out of range"
            );
            for (i, shard) in par.shards.iter().enumerate() {
                let dr = shard.duplicate_rate();
                assert!(
                    (0.0..=1.0).contains(&dr),
                    "{ctx}: t={threads} shard{i} duplicate_rate {dr}"
                );
            }
        }
    }
}

/// The proven cost is deterministic run to run: tie-breaking inside the
/// parallel engine may pick different witnesses, but the optimum (and
/// its witness's validated cost) never wavers.
#[test]
fn parallel_cost_is_deterministic_across_runs() {
    let cfg = sequential_cfg().with_threads(4);
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);
    let mut totals = Vec::new();
    for run in 0..5 {
        let out = solve_mpp_with(&inst, &cfg);
        let sol = out
            .solution
            .unwrap_or_else(|| panic!("run {run}: budget exhausted"));
        let cost = sol
            .strategy
            .validate(&inst)
            .unwrap_or_else(|e| panic!("run {run}: witness invalid: {e}"));
        assert_eq!(cost.total(inst.model), sol.total, "run {run}: witness cost");
        totals.push(sol.total);
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "parallel optimum wavered across runs: {totals:?}"
    );
}

/// Stop reasons stay distinct and honest under the parallel engine: a
/// tiny state budget reports `StateLimit`, an expired deadline reports
/// `Deadline`, and both leave the solution empty.
#[test]
fn parallel_stop_reasons_distinguish_limit_from_deadline() {
    let dag = generators::grid(3, 3);
    let inst = MppInstance::new(&dag, 2, 3, 2);

    let limited = SearchConfig::default()
        .with_limits(SolveLimits::states(8))
        .with_threads(4);
    let out = solve_mpp_with(&inst, &limited);
    assert!(out.solution.is_none(), "8 settled states cannot solve 3x3");
    assert_eq!(out.reason, StopReason::StateLimit);

    let expired = SearchConfig::default()
        .with_limits(SolveLimits::states(400_000).with_deadline(Duration::from_nanos(0)))
        .with_threads(4);
    let out = solve_mpp_with(&inst, &expired);
    assert!(out.solution.is_none(), "expired deadline cannot solve");
    assert_eq!(out.reason, StopReason::Deadline);
}

/// The deadline counts from the start of the solve, the incumbent probe
/// included: on hier_skip 5 (three-level, k = 3) the probe alone runs
/// past a 100 ms deadline, and both engines must then stop at the
/// deadline rather than restart its clock for the exact search.
#[test]
fn deadline_covers_the_incumbent_probe() {
    let dag = HierSkip::build(5).dag;
    let inst = HierInstance::new(&dag, 3, 3, 2, 2, 1);
    let deadline = Duration::from_millis(100);
    for threads in [1, 2] {
        let config = SearchConfig::default()
            .with_limits(SolveLimits::default().with_deadline(deadline))
            .with_threads(threads);
        let started = Instant::now();
        let out = solve_hier_with(&inst, &config);
        let took = started.elapsed();
        assert_eq!(out.reason, StopReason::Deadline, "threads={threads}");
        assert!(
            took < deadline * 3 / 2,
            "threads={threads}: stopped after {took:?} under a {deadline:?} deadline"
        );
    }
}
