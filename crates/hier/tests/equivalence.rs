//! Randomized reduction-equivalence suite: with degenerate green
//! parameters the three-level solver must reproduce the vanilla MPP
//! exact optimum, instance for instance.
//!
//! 100 seeded random instances, two degeneracies each:
//! - `green_cap = 0`: the solver passes no green tier to the shared MPP
//!   search, so the solve *is* the two-level one — totals, search
//!   counters and the witness must match move for move.
//! - `green_cost = g`: the tier is usable but never cheaper — the
//!   optimum must still match (witness tallies may legitimately trade
//!   green for blue traffic at equal cost).

use rbp_core::{solve_mpp, solve_mpp_with, MppInstance, SearchConfig, SolveLimits};
use rbp_dag::{generators, Dag};
use rbp_hier::{solve_hier, solve_hier_with, HierInstance};
use rbp_util::Rng;

fn limits() -> SolveLimits {
    SolveLimits::states(2_000_000)
}

/// Draws a small random instance: the solve must stay cheap enough to
/// run 200 exact solves in this suite.
fn draw(rng: &mut Rng) -> (Dag, usize, usize, u64) {
    let dag = if rng.bool(0.5) {
        generators::layered_random(rng.range(2, 4), 2, 2, rng.next_u64())
    } else {
        generators::random_dag(rng.range(4, 7), 0.3, rng.next_u64())
    };
    let k = rng.range(1, 3);
    let r = dag.max_in_degree() + 1 + usize::from(rng.bool(0.25));
    let g = rng.range_u64(2, 6);
    (dag, k, r, g)
}

#[test]
fn zero_green_capacity_matches_vanilla_on_100_seeds() {
    let mut rng = Rng::new(0x9e37_2024);
    for case in 0..100 {
        let (dag, k, r, g) = draw(&mut rng);
        let mpp = MppInstance::new(&dag, k, r, g);
        let config = SearchConfig::default().with_limits(limits());
        let vanilla_out = solve_mpp_with(&mpp, &config);
        let vanilla = vanilla_out.solution.expect("vanilla solve");
        let green_cost = rng.range_u64(1, g + 1);
        let inst = HierInstance::from_mpp(&mpp, 0, green_cost);
        let hier_out = solve_hier_with(&inst, &config);
        let hier = hier_out.solution.expect("hier solve");
        // One search: the same states settled, pushed and interned.
        let (hs, vs) = (&hier_out.stats, &vanilla_out.stats);
        assert_eq!(
            (hs.settled, hs.pushed, hs.arena_peak_bytes),
            (vs.settled, vs.pushed, vs.arena_peak_bytes),
            "case {case}: search counters diverged without a green tier"
        );
        // ... and the same witness, move for move (no green move to drop).
        assert_eq!(hier.strategy.len(), vanilla.strategy.len(), "case {case}");
        assert_eq!(
            rbp_hier::hier_to_mpp(&inst, &hier.strategy).moves,
            vanilla.strategy.moves,
            "case {case}: witnesses diverged without a green tier"
        );
        assert_eq!(
            hier.total,
            vanilla.total,
            "case {case}: {} k={k} r={r} g={g}",
            dag.name()
        );
        assert_eq!(hier.cost.green_io_steps(), 0, "case {case}");
        // Byte-identical costs: the degenerate tally *is* an MPP tally.
        assert_eq!(
            (hier.cost.stores, hier.cost.loads, hier.cost.computes),
            (
                vanilla.cost.stores,
                vanilla.cost.loads,
                vanilla.cost.computes
            ),
            "case {case}: optimal tallies diverged without a green tier"
        );
    }
}

#[test]
fn green_priced_at_g_matches_vanilla_on_100_seeds() {
    let mut rng = Rng::new(0x51_2024);
    for case in 0..100 {
        let (dag, k, r, g) = draw(&mut rng);
        let mpp = MppInstance::new(&dag, k, r, g);
        let vanilla = solve_mpp(&mpp, limits()).expect("vanilla solve");
        let cap = rng.range(1, 3);
        let hier = solve_hier(&HierInstance::from_mpp(&mpp, cap, g), limits()).expect("hier solve");
        assert_eq!(
            hier.total,
            vanilla.total,
            "case {case}: {} k={k} r={r} g={g} cap={cap}",
            dag.name()
        );
    }
}

#[test]
fn cheap_green_never_exceeds_vanilla_and_projection_bounds_it() {
    // Sanity on non-degenerate parameters: OPT_hier ≤ OPT_mpp, and the
    // flattened strategy certifies OPT_mpp ≤ re-priced hier cost.
    let mut rng = Rng::new(0xcafe_2024);
    for case in 0..25 {
        let (dag, k, r, g) = draw(&mut rng);
        let mpp = MppInstance::new(&dag, k, r, g);
        let vanilla = solve_mpp(&mpp, limits()).expect("vanilla solve");
        let inst = HierInstance::from_mpp(&mpp, rng.range(1, 3), 1);
        let hier = solve_hier(&inst, limits()).expect("hier solve");
        assert!(hier.total <= vanilla.total, "case {case}");
        let projected = rbp_hier::hier_to_mpp(&inst, &hier.strategy);
        let cost = projected.validate(&mpp).expect("projection invalid");
        let repriced = g * (hier.cost.io_steps() + hier.cost.green_io_steps())
            + inst.model.compute * hier.cost.computes;
        assert!(cost.total(mpp.model) <= repriced, "case {case}");
        assert!(vanilla.total <= cost.total(mpp.model), "case {case}");
    }
}
