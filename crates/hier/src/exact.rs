//! Exact optimal solver for the three-level game on small instances.
//!
//! A thin facade over `rbp_core`'s one exact search, which takes the
//! green tier as an optional part of its state space
//! ([`rbp_core::mpp::exact::solve_game`] on the instance's rule-kernel
//! [`rbp_core::rules::Game`]): one A\* kernel, with processor-symmetry
//! canonicalization, the Lemma 1 admissible heuristic (`G ∪ B` in the
//! role of the blue set, reload cost `min(g, green)`), lazy eviction
//! and maximal-batch dominance pruning, serves every game. This module
//! takes the witness as [`crate::HierMove`]s (built by
//! `Move::from_rule`), validates it with [`crate::validate_hier`], and
//! reports the `solve.hier` span and the `hier.*` trace counters.
//!
//! With `green_cap = 0` the game has no tier, so the three-level solve
//! *is* the vanilla solve — same states, same witness. The
//! randomized reduction-equivalence suite in this crate's tests pins
//! that down against `rbp_core::solve_mpp_with`.

use rbp_core::mpp::exact::solve_game;
use rbp_core::{SearchConfig, SearchOutcome, SolveLimits};
use rbp_util::Json;

use crate::{HierCost, HierInstance, HierStrategy};

/// An optimal three-level solution found by [`solve`].
#[derive(Debug, Clone)]
pub struct HierSolution {
    /// The optimal total cost under the instance's cost model.
    pub total: u64,
    /// Tally of the optimal strategy's rule applications.
    pub cost: HierCost,
    /// A witness strategy achieving `total`.
    pub strategy: HierStrategy,
}

/// Finds a minimum-total-cost three-level pebbling with the default
/// (fully optimized) configuration, or `None` if infeasible
/// (`r ≤ Δ_in`), too large (`n > 64`, `k > 4` or `green_cap > 64`), or
/// out of budget.
#[must_use]
pub fn solve(instance: &HierInstance, limits: SolveLimits) -> Option<HierSolution> {
    solve_with(instance, &SearchConfig::default().with_limits(limits)).solution
}

/// [`solve`] with explicit optimization switches, also reporting search
/// statistics. Each call opens a `solve.hier` trace span and reports
/// the shared search counters under `solver.hier.*` plus the
/// hierarchy-specific `hier.*` counters (green vs blue traffic split of
/// the witness) — all no-ops unless a trace sink is installed.
#[must_use]
pub fn solve_with(instance: &HierInstance, config: &SearchConfig) -> SearchOutcome<HierSolution> {
    let _span = rbp_trace::span_with(
        "solve.hier",
        vec![
            ("n", Json::from(instance.dag.n())),
            ("k", Json::from(instance.k)),
            ("r", Json::from(instance.r)),
            ("g", Json::from(instance.model.g)),
            ("green_cap", Json::from(instance.green_cap)),
            ("green_cost", Json::from(instance.model.green)),
            ("heuristic", Json::from(config.heuristic)),
            ("symmetry", Json::from(config.symmetry)),
            ("threads", Json::from(config.threads.max(1))),
        ],
    );
    let out = solve_game(
        &instance.game(),
        instance.model.as_mpp(),
        instance.model.green,
        config,
        "hier",
    )
    .map(|(total, moves)| {
        let strategy = HierStrategy::from_moves(moves);
        let cost = strategy
            .validate(instance)
            .expect("hier solver produced an invalid strategy");
        debug_assert_eq!(cost.total(instance.model), total);
        HierSolution {
            total,
            cost,
            strategy,
        }
    });
    if rbp_trace::enabled() {
        rbp_trace::counter("hier.runs", 1);
        rbp_trace::gauge("hier.green_cap", instance.green_cap as f64);
        rbp_trace::gauge("hier.green_cost", instance.model.green as f64);
        if let Some(sol) = &out.solution {
            rbp_trace::counter("hier.green_stores", sol.cost.green_stores);
            rbp_trace::counter("hier.green_loads", sol.cost.green_loads);
            rbp_trace::counter("hier.blue_stores", sol.cost.stores);
            rbp_trace::counter("hier.blue_loads", sol.cost.loads);
            rbp_trace::counter("hier.computes", sol.cost.computes);
            rbp_trace::gauge("hier.total", sol.total as f64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_core::{solve_mpp, solve_mpp_with, MppInstance, StopReason};
    use rbp_dag::{dag_from_edges, generators};

    fn limits() -> SolveLimits {
        SolveLimits::states(500_000)
    }

    #[test]
    fn single_node_costs_one_compute() {
        let d = dag_from_edges(1, &[]);
        let sol = solve(&HierInstance::new(&d, 2, 1, 3, 2, 1), limits()).unwrap();
        assert_eq!(sol.total, 1);
        assert_eq!(sol.cost.computes, 1);
    }

    #[test]
    fn zero_capacity_matches_vanilla_exactly() {
        // Four processors on 12 nodes pack five vanilla fields into one
        // 64-bit word; a green field would need a second.
        for (d, k, r, g) in [
            (generators::binary_in_tree(4), 2, 3, 2),
            (generators::grid(2, 3), 2, 3, 2),
            (generators::independent_chains(2, 3), 2, 2, 3),
            (generators::independent_chains(3, 4), 4, 2, 2),
        ] {
            let mpp = MppInstance::new(&d, k, r, g);
            let config = SearchConfig::default().with_limits(limits());
            let vanilla = solve_mpp_with(&mpp, &config);
            let hier = solve_with(&HierInstance::from_mpp(&mpp, 0, 1), &config);
            let (vs, hs) = (&vanilla.stats, &hier.stats);
            assert_eq!(
                (hs.settled, hs.pushed, hs.arena_peak_bytes),
                (vs.settled, vs.pushed, vs.arena_peak_bytes),
                "{}",
                d.name()
            );
            let (vanilla, hier) = (vanilla.solution.unwrap(), hier.solution.unwrap());
            assert_eq!(hier.total, vanilla.total, "{}", d.name());
            assert_eq!(hier.cost.green_io_steps(), 0);
        }
    }

    #[test]
    fn cheap_green_never_worse_than_vanilla() {
        let d = generators::grid(2, 3);
        let mpp = MppInstance::new(&d, 2, 3, 3);
        let vanilla = solve_mpp(&mpp, limits()).unwrap();
        let hier = solve(&HierInstance::from_mpp(&mpp, 2, 1), limits()).unwrap();
        assert!(hier.total <= vanilla.total);
    }

    #[test]
    fn green_tier_beats_vanilla_on_skip_gadget() {
        // Two triangle-capped chains joined at a sink (rbp-gadgets
        // `hier_skip`): at r = 3 the second triangle needs all three
        // red slots while the first part's output is still live, so it
        // must be spilled. Vanilla pays the blue round-trip 2g; the
        // green tier pays 2·green.
        let gadget = rbp_gadgets::HierSkip::build(1);
        let mpp = MppInstance::new(&gadget.dag, 1, 3, 3);
        let vanilla = solve_mpp(&mpp, limits()).unwrap();
        let hier = solve(&HierInstance::from_mpp(&mpp, 1, 1), limits()).unwrap();
        assert_eq!(vanilla.total, gadget.vanilla_total(3));
        assert_eq!(hier.total, gadget.hier_total(1));
        assert!(
            hier.total < vanilla.total,
            "hier {} !< vanilla {}",
            hier.total,
            vanilla.total
        );
        assert!(hier.cost.green_io_steps() > 0);
    }

    #[test]
    fn degenerate_green_cost_matches_vanilla_total() {
        // green_cost = g: the tier is still usable but never cheaper,
        // so the optimum is the two-level one.
        let d = generators::binary_in_tree(4);
        let mpp = MppInstance::new(&d, 2, 3, 2);
        let vanilla = solve_mpp(&mpp, limits()).unwrap();
        let hier = solve(&HierInstance::from_mpp(&mpp, 2, 2), limits()).unwrap();
        assert_eq!(hier.total, vanilla.total);
    }

    #[test]
    fn witness_validates_with_green_traffic() {
        let gadget = rbp_gadgets::HierSkip::build(1);
        let d = gadget.dag;
        let inst = HierInstance::new(&d, 1, 3, 3, 1, 1);
        let sol = solve(&inst, limits()).unwrap();
        let cost = sol.strategy.validate(&inst).unwrap();
        assert_eq!(cost.total(inst.model), sol.total);
        assert_eq!(cost, sol.cost);
    }

    #[test]
    fn parallel_matches_sequential_cost() {
        let d = generators::grid(2, 3);
        let inst = HierInstance::new(&d, 2, 3, 2, 2, 1);
        let seq = solve_with(&inst, &SearchConfig::default());
        for threads in [2usize, 4] {
            let par = solve_with(&inst, &SearchConfig::default().with_threads(threads));
            let (s, p) = (seq.solution.as_ref().unwrap(), par.solution.unwrap());
            assert_eq!(s.total, p.total, "threads={threads}");
            p.strategy.validate(&inst).unwrap();
            assert_eq!(par.reason, StopReason::Solved);
        }
    }

    #[test]
    fn optimized_and_baseline_agree() {
        for (d, k, r, g, cap, gc) in [
            (generators::binary_in_tree(4), 2, 3, 2, 2, 1),
            (generators::diamond(2), 2, 3, 3, 1, 1),
            (generators::independent_chains(2, 3), 2, 2, 3, 2, 1),
        ] {
            let inst = HierInstance::new(&d, k, r, g, cap, gc);
            let base = solve_with(&inst, &SearchConfig::baseline());
            let opt = solve_with(&inst, &SearchConfig::default());
            let (b, o) = (base.solution.unwrap(), opt.solution.unwrap());
            assert_eq!(b.total, o.total, "{} k={k} r={r}", d.name());
            o.strategy.validate(&inst).unwrap();
        }
    }

    #[test]
    fn symmetry_witness_remains_valid_with_green() {
        let d = generators::grid(2, 2);
        let inst = HierInstance::new(&d, 2, 3, 2, 2, 1);
        let sol = solve(&inst, limits()).unwrap();
        let cost = sol.strategy.validate(&inst).unwrap();
        assert_eq!(cost.total(inst.model), sol.total);
    }

    #[test]
    fn infeasible_and_oversized_rejected() {
        let d = dag_from_edges(3, &[(0, 2), (1, 2)]);
        assert!(solve(&HierInstance::new(&d, 2, 2, 1, 2, 1), limits()).is_none());
        assert!(solve(&HierInstance::new(&d, 5, 3, 1, 2, 1), limits()).is_none());
        assert!(solve(&HierInstance::new(&d, 2, 3, 1, 65, 1), limits()).is_none());
        let big = generators::chain(65);
        assert!(solve(&HierInstance::new(&big, 2, 2, 1, 2, 1), limits()).is_none());
    }

    #[test]
    fn empty_dag_is_free() {
        let d = dag_from_edges(0, &[]);
        let sol = solve(&HierInstance::new(&d, 2, 1, 1, 2, 1), limits()).unwrap();
        assert_eq!(sol.total, 0);
    }

    #[test]
    fn state_budget_aborts() {
        let d = generators::grid(3, 3);
        let out = solve_with(
            &HierInstance::new(&d, 2, 3, 1, 2, 1),
            &SearchConfig::default().with_limits(SolveLimits::states(5)),
        );
        assert!(out.solution.is_none());
        assert_eq!(out.reason, StopReason::StateLimit);
    }
}
