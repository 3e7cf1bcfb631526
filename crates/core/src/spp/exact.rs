//! Exact optimal SPP solver.
//!
//! The single-processor game is the `k = 1` case of the one exact
//! search ([`crate::mpp::exact::solve_game`]): its variant flags — one-shot,
//! no deletion, the Hong–Kung boundary convention — are parameters of
//! the rule kernel's [`Game`], and the search takes them from there.
//! This module keeps the SPP facade: it takes the witness as
//! [`crate::SppMove`]s (built by `Move::from_rule`), validates it with
//! [`crate::spp::validate`], and reports the `solve.spp` span and the
//! `solver.spp.*` counters.
//! Optimal pebbling is PSPACE-complete in general, so the search is
//! exponential; intended for the small instances that experiments use
//! as ground truth (`n ≤ ~14` in practice, hard limit 64).
//!
//! Disable the heuristic via [`SearchConfig`] to recover the original
//! uniform-cost (Dijkstra) behavior; the equivalence tests and the
//! before/after benchmarks rely on that mode.

use crate::mpp::exact::solve_game;
use crate::rules::Game;
use crate::search::{SearchConfig, SearchOutcome};
use crate::{Cost, SppInstance, SppStrategy};

pub use crate::search::SolveLimits;

/// An optimal solution found by [`solve`].
#[derive(Debug, Clone)]
pub struct SppSolution {
    /// The optimal total cost under the instance's cost model.
    pub total: u64,
    /// Tally of the optimal strategy's rule applications.
    pub cost: Cost,
    /// A witness strategy achieving `total` (validates against the
    /// instance).
    pub strategy: SppStrategy,
}

/// Finds a minimum-total-cost pebbling with the default (fully
/// optimized) configuration, or `None` if the instance is infeasible
/// (`r ≤ Δ_in`), the DAG has more than 64 nodes, or
/// `limits.max_states` was exhausted.
#[must_use]
pub fn solve(instance: &SppInstance, limits: SolveLimits) -> Option<SppSolution> {
    solve_with(instance, &SearchConfig::default().with_limits(limits)).solution
}

/// [`solve`] with explicit optimization switches, also reporting search
/// statistics for benchmarking. Each call opens a `solve.spp` trace
/// span and reports the search counters and heuristic tightness through
/// `rbp-trace` (no-ops unless a sink is installed).
#[must_use]
pub fn solve_with(instance: &SppInstance, config: &SearchConfig) -> SearchOutcome<SppSolution> {
    let _span = rbp_trace::span_with(
        "solve.spp",
        vec![
            ("n", rbp_util::Json::from(instance.dag.n())),
            ("r", rbp_util::Json::from(instance.r)),
            ("g", rbp_util::Json::from(instance.model.g)),
            ("one_shot", rbp_util::Json::from(instance.variant.one_shot)),
            ("heuristic", rbp_util::Json::from(config.heuristic)),
            ("threads", rbp_util::Json::from(config.threads.max(1))),
        ],
    );
    solve_game(&Game::spp(instance), instance.model, 0, config, "spp").map(|(total, moves)| {
        let strategy = SppStrategy::from_moves(moves);
        let cost = strategy
            .validate(instance)
            .expect("solver produced an invalid strategy");
        debug_assert_eq!(cost.total(instance.model), total);
        SppSolution {
            total,
            cost,
            strategy,
        }
    })
}

/// Convenience: the minimum number of I/O steps to pebble `dag` with `r`
/// red pebbles in the base variant (classical SPP objective).
#[must_use]
pub fn min_io(dag: &rbp_dag::Dag, r: usize) -> Option<u64> {
    let inst = SppInstance::io_only(dag, r, 1);
    solve(&inst, SolveLimits::default()).map(|s| s.cost.io_steps())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, SppVariant, StopReason};
    use rbp_dag::{dag_from_edges, generators};

    #[test]
    fn chain_needs_no_io() {
        let d = generators::chain(6);
        let sol = solve(&SppInstance::io_only(&d, 2, 1), SolveLimits::default()).unwrap();
        assert_eq!(sol.total, 0);
        assert_eq!(sol.cost.io_steps(), 0);
    }

    #[test]
    fn empty_dag_costs_zero() {
        let d = dag_from_edges(0, &[]);
        let sol = solve(&SppInstance::io_only(&d, 1, 1), SolveLimits::default()).unwrap();
        assert_eq!(sol.total, 0);
        assert!(sol.strategy.is_empty());
    }

    #[test]
    fn infeasible_capacity_returns_none() {
        let d = dag_from_edges(3, &[(0, 2), (1, 2)]);
        assert!(solve(&SppInstance::io_only(&d, 2, 1), SolveLimits::default()).is_none());
    }

    #[test]
    fn too_many_nodes_returns_none() {
        let d = generators::chain(65);
        assert!(solve(&SppInstance::io_only(&d, 2, 1), SolveLimits::default()).is_none());
    }

    #[test]
    fn with_compute_costs_counts_n_computes_minimum() {
        // Chain of 5 with ample memory: optimal = 5 computes, no I/O.
        let d = generators::chain(5);
        let inst = SppInstance::with_compute(&d, 3, 4);
        let sol = solve(&inst, SolveLimits::default()).unwrap();
        assert_eq!(sol.total, 5);
        assert_eq!(sol.cost.computes, 5);
    }

    #[test]
    fn fig1_dag_single_processor_io() {
        // Figure 1 of the paper: ids v1..v7 -> 0..6.
        // We encode: u1,u2 -> a ; u3,u4 -> b ; a,b -> s.
        let d = dag_from_edges(7, &[(0, 2), (1, 2), (3, 5), (4, 5), (2, 6), (5, 6)]);
        let inst = SppInstance::io_only(&d, 3, 1);
        let sol = solve(&inst, SolveLimits::default()).unwrap();
        // With r=3: compute a (3 pebbles), store a, free reds, compute b,
        // load a, compute s → exactly 2 I/O.
        assert_eq!(sol.total, 2);
    }

    #[test]
    fn larger_memory_never_costs_more() {
        let d = generators::binary_in_tree(4);
        let mut prev = u64::MAX;
        for r in 3..=7 {
            let sol = solve(&SppInstance::io_only(&d, r, 1), SolveLimits::default()).unwrap();
            assert!(sol.total <= prev, "r={r} worsened the optimum");
            prev = sol.total;
        }
    }

    #[test]
    fn witness_strategy_validates() {
        let d = generators::binary_in_tree(4);
        let inst = SppInstance::with_compute(&d, 3, 2);
        let sol = solve(&inst, SolveLimits::default()).unwrap();
        let cost = sol.strategy.validate(&inst).unwrap();
        assert_eq!(cost.total(inst.model), sol.total);
    }

    #[test]
    fn one_shot_at_least_as_expensive_as_base() {
        let d = generators::binary_in_tree(4);
        for r in 3..=4 {
            let base = solve(&SppInstance::io_only(&d, r, 1), SolveLimits::default())
                .unwrap()
                .total;
            let one_shot = solve(
                &SppInstance {
                    dag: &d,
                    r,
                    model: CostModel::spp_io_only(1),
                    variant: SppVariant::one_shot(),
                },
                SolveLimits::default(),
            )
            .unwrap()
            .total;
            assert!(one_shot >= base);
        }
    }

    #[test]
    fn no_delete_variant_solves_small_instances() {
        let d = generators::chain(4);
        let sol = solve(
            &SppInstance {
                dag: &d,
                r: 4,
                model: CostModel::spp_io_only(1),
                variant: SppVariant::no_delete(),
            },
            SolveLimits::default(),
        )
        .unwrap();
        assert_eq!(sol.total, 0, "whole chain fits in memory");
    }

    #[test]
    fn min_io_convenience() {
        let d = generators::chain(3);
        assert_eq!(min_io(&d, 2), Some(0));
    }

    #[test]
    fn diamond_with_tight_memory_requires_io() {
        // Diamond of width 3 with r = 4: all 3 mids + sink need pebbles,
        // plus the source's pebble is needed while computing mids.
        let d = generators::diamond(3);
        let tight = solve(&SppInstance::io_only(&d, 4, 1), SolveLimits::default())
            .unwrap()
            .total;
        let roomy = solve(&SppInstance::io_only(&d, 5, 1), SolveLimits::default())
            .unwrap()
            .total;
        assert_eq!(roomy, 0);
        assert!(tight <= 2, "recomputation of the free source caps I/O");
    }

    #[test]
    fn state_limit_aborts() {
        let d = generators::binary_in_tree(8);
        let out = solve_with(
            &SppInstance::io_only(&d, 3, 1),
            &SearchConfig::default().with_limits(SolveLimits::states(10)),
        );
        assert!(out.solution.is_none());
        assert_eq!(out.reason, StopReason::StateLimit);
    }

    #[test]
    fn parallel_matches_sequential_cost() {
        let d = generators::grid(3, 3);
        let inst = SppInstance::with_compute(&d, 3, 2);
        let seq = solve_with(&inst, &SearchConfig::default());
        for threads in [2usize, 4] {
            let par = solve_with(&inst, &SearchConfig::default().with_threads(threads));
            assert_eq!(
                seq.solution.as_ref().unwrap().total,
                par.solution.as_ref().unwrap().total,
                "threads={threads}"
            );
            par.solution.unwrap().strategy.validate(&inst).unwrap();
        }
    }

    #[test]
    fn hong_kung_variant_agrees_with_baseline() {
        let d = generators::binary_in_tree(4);
        let inst = SppInstance {
            dag: &d,
            r: 3,
            model: CostModel::spp_io_only(1),
            variant: SppVariant::hong_kung(),
        };
        let base = solve_with(&inst, &SearchConfig::baseline());
        let opt = solve_with(&inst, &SearchConfig::default());
        assert_eq!(
            base.solution.unwrap().total,
            opt.solution.as_ref().unwrap().total
        );
        opt.solution.unwrap().strategy.validate(&inst).unwrap();
    }

    #[test]
    fn heuristic_prunes_without_changing_optimum() {
        let d = generators::grid(3, 3);
        let inst = SppInstance::with_compute(&d, 3, 2);
        let base = solve_with(&inst, &SearchConfig::baseline());
        let opt = solve_with(&inst, &SearchConfig::default());
        let (b, o) = (base.solution.unwrap(), opt.solution.unwrap());
        assert_eq!(b.total, o.total);
        assert!(
            opt.stats.settled < base.stats.settled,
            "A* should settle fewer states ({} vs {})",
            opt.stats.settled,
            base.stats.settled
        );
    }
}
