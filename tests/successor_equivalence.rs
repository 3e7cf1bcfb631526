//! Successor-set equivalence harness for the dominance-pruned
//! generation kernel.
//!
//! Dominance pruning must only ever drop successors that a surviving
//! successor provably dominates. On 110 seeded random instances across
//! the games (MPP, the SPP variants as its one-processor case,
//! three-level hier), all walked through the one search's successor
//! probe, this harness checks, state by state:
//!
//! 1. **Soundness of the set**: the pruned generator's successor set is
//!    a subset of the naive generator's (same states, same edge costs —
//!    pruning never invents anything);
//! 2. **Every pruned move is dominated**: each successor the naive
//!    generator emits and the pruned one drops is dominated by some
//!    emitted successor — the same ever-computed set, a pointwise
//!    superset of every pebble colour, and no greater cost (maximal
//!    batches, and the one-processor recompute-vs-reload rule);
//! 3. **OPT is preserved**: solving with dominance on and off yields
//!    the same optimal total on every instance, so pruning never cuts
//!    the only path to the optimum;
//! 4. **The solver's rule encodings match the rules**: every naive
//!    successor's decoded move, applied to its parent through the
//!    shared rule kernel (`rbp::core::rules`), is accepted and lands on
//!    exactly the successor's masks.
//!
//! Every case is a deterministic function of its loop index (seeded
//! in-tree RNG), so a failure message identifies the exact instance.

use rbp::core::mpp::exact::probe::{successor_walk, Succ};
use rbp::core::rbp_dag::{generators, NodeId, NodeSet};
use rbp::core::rules::{self, Game, Rule};
use rbp::core::{
    solve_mpp_with, solve_spp_with, Configuration, CostModel, MppInstance, SearchConfig,
    SolveLimits, SppInstance, SppVariant,
};
use rbp::hier::{solve_hier_with, HierConfiguration, HierInstance};
use rbp::util::Rng;

const WALK_STEPS: usize = 8;

/// The nodes of an `n`-node mask.
fn set(n: usize, mask: u64) -> NodeSet {
    NodeSet::from_iter(n, (0..n).filter(|i| mask >> i & 1 == 1).map(NodeId::new))
}

/// The mask of a node set.
fn mask(set: &NodeSet) -> u64 {
    set.iter().fold(0, |m, v| m | 1 << v.index())
}

/// Applies every naive successor's decoded move to its parent through
/// the rule kernel under `game` — on a three-level configuration with a
/// green tier, a two-level one otherwise — and checks it lands on the
/// successor's red, green, blue and ever-computed masks.
fn kernel_accepts_moves(
    ctx: &str,
    game: &Game,
    parent: &Succ,
    naive: &[Succ],
    moves: &[(Rule, Vec<(usize, NodeId)>)],
) {
    let (n, k) = (game.dag.n(), game.k);
    let reds = || (0..k).map(|j| set(n, parent.reds[j])).collect();
    for (s, (rule, sel)) in naive.iter().zip(moves) {
        let landed = if game.green_cap == 0 {
            let mut c = Configuration {
                reds: reds(),
                blue: set(n, parent.blue),
                computed: set(n, parent.computed),
            };
            rules::apply(game, &mut c, *rule, sel).map(|()| {
                // The search tracks `computed` only in the one-shot variant.
                let computed = if game.variant.one_shot {
                    mask(&c.computed)
                } else {
                    0
                };
                (c.reds, 0, mask(&c.blue), computed)
            })
        } else {
            let mut c = HierConfiguration {
                reds: reds(),
                green: set(n, parent.green),
                blue: set(n, parent.blue),
            };
            let applied = rules::apply(game, &mut c, *rule, sel);
            applied.map(|()| (c.reds, mask(&c.green), mask(&c.blue), 0))
        };
        let (r, g, b, c) =
            landed.unwrap_or_else(|e| panic!("{ctx}: kernel rejects {rule:?} {sel:?}: {e:?}"));
        let r: Vec<u64> = r.iter().map(mask).collect();
        assert_eq!(
            (r.as_slice(), g, b, c),
            (&s.reds[..k], s.green, s.blue, s.computed),
            "{ctx}: {rule:?} {sel:?} lands elsewhere"
        );
    }
}

/// Whether `e` dominates `s`: the same ever-computed set, a pointwise
/// superset of every pebble colour, and no greater cost.
fn dominates(e: &Succ, s: &Succ) -> bool {
    e.computed == s.computed
        && e.cost <= s.cost
        && e.blue & s.blue == s.blue
        && e.green & s.green == s.green
        && e.reds.iter().zip(&s.reds).all(|(er, sr)| er & sr == *sr)
}

/// Walks `game` (costs as in `solve_game`) along a seeded path and
/// checks every visited state: the kernel accepts each naive move
/// (property 4), pruned ⊆ naive (1), and every dropped successor is
/// dominated by an emitted one (2).
fn check_walk(ctx: &str, game: &Game, model: CostModel, green_cost: u64, seed: u64) {
    let walk = successor_walk(game, model, green_cost, seed, WALK_STEPS);
    for (step, walk) in walk.into_iter().enumerate() {
        let (naive, pruned) = (&walk.naive, &walk.pruned);
        let at = format!("{ctx} step {step}");
        kernel_accepts_moves(&at, game, &walk.parent, naive, &walk.moves);
        for s in pruned {
            assert!(naive.contains(s), "{at}: pruned invented {s:?}");
        }
        for s in naive {
            if !pruned.contains(s) {
                let dominated = pruned.iter().any(|e| dominates(e, s));
                assert!(dominated, "{at}: {s:?} pruned but not dominated");
            }
        }
    }
}

fn configs() -> (SearchConfig, SearchConfig) {
    let limits = SolveLimits::states(400_000);
    (
        SearchConfig {
            dominance: false,
            ..SearchConfig::default()
        }
        .with_limits(limits),
        SearchConfig::default().with_limits(limits),
    )
}

/// 40 random MPP instances: pruned ⊆ naive, every dropped successor is
/// dominated by an emitted one, and the proven optimum is identical
/// with dominance on and off.
#[test]
fn mpp_pruned_successors_are_dominated_and_opt_preserved() {
    let (plain_cfg, dom_cfg) = configs();
    let mut rng = Rng::new(0xd0_111a);
    for case in 0..40u64 {
        let n = 4 + rng.index(4); // 4..=7 nodes
        let p = 0.15 + rng.f64() * 0.45;
        let dag = generators::random_dag(n, p, case);
        let k = 1 + rng.index(3); // 1..=3 processors
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(1, 5);
        let inst = MppInstance::new(&dag, k, r, g);
        let ctx = format!("mpp case {case}: n={n} k={k} r={r} g={g}");

        check_walk(&ctx, &Game::mpp(&inst), inst.model, 0, case);

        let plain = solve_mpp_with(&inst, &plain_cfg).solution;
        let dom = solve_mpp_with(&inst, &dom_cfg).solution;
        let plain = plain.unwrap_or_else(|| panic!("{ctx}: plain budget"));
        let dom = dom.unwrap_or_else(|| panic!("{ctx}: dominance budget"));
        assert_eq!(plain.total, dom.total, "{ctx}: optima differ");
        dom.strategy
            .validate(&inst)
            .unwrap_or_else(|e| panic!("{ctx}: witness invalid: {e}"));
    }
}

/// 40 random SPP instances across the variant zoo, walked as the
/// one-processor case of the same search: the only pruned moves are
/// recomputes of already-stored nodes, each dominated by the reload
/// reaching the identical state at no greater cost; OPT agrees.
#[test]
fn spp_pruned_successors_are_dominated_and_opt_preserved() {
    let (plain_cfg, dom_cfg) = configs();
    let mut rng = Rng::new(0x59_0a1b);
    for case in 0..40u64 {
        let n = 4 + rng.index(5); // 4..=8 nodes
        let p = 0.15 + rng.f64() * 0.45;
        let dag = generators::random_dag(n, p, case.wrapping_mul(31).wrapping_add(7));
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(1, 5);
        let (variant, vname) = match case % 4 {
            0 => (SppVariant::base(), "base"),
            1 => (SppVariant::one_shot(), "one_shot"),
            2 => (SppVariant::no_delete(), "no_delete"),
            _ => (SppVariant::hong_kung(), "hong_kung"),
        };
        let model = if case % 2 == 0 {
            CostModel::spp_io_only(g)
        } else {
            CostModel::spp_with_compute(g, 1 + case % 3)
        };
        let inst = SppInstance {
            dag: &dag,
            r,
            model,
            variant,
        };
        let ctx = format!("spp case {case} ({vname}): n={n} r={r} g={g}");

        check_walk(&ctx, &Game::spp(&inst), inst.model, 0, case);

        let plain = solve_spp_with(&inst, &plain_cfg).solution;
        let dom = solve_spp_with(&inst, &dom_cfg).solution;
        match (plain, dom) {
            (Some(p), Some(d)) => {
                assert_eq!(p.total, d.total, "{ctx}: optima differ");
                d.strategy
                    .validate(&inst)
                    .unwrap_or_else(|e| panic!("{ctx}: witness invalid: {e}"));
            }
            // One-shot instances can be genuinely infeasible; both
            // generators must agree on that too.
            (None, None) => {}
            (p, d) => panic!(
                "{ctx}: solvability diverged (plain={}, dominance={})",
                p.is_some(),
                d.is_some()
            ),
        }
    }
}

/// 30 random three-level instances, walked through the same search with
/// the instance's green tier (none at `green_cap = 0`): maximal-batch
/// pruning on all five batched rules (including budget-capped green
/// stores) only drops pointwise-dominated successors, and OPT agrees.
#[test]
fn hier_pruned_successors_are_dominated_and_opt_preserved() {
    let (plain_cfg, dom_cfg) = configs();
    let mut rng = Rng::new(0x0041_e20c);
    for case in 0..30u64 {
        let n = 4 + rng.index(3); // 4..=6 nodes
        let p = 0.15 + rng.f64() * 0.45;
        let dag = generators::random_dag(n, p, case.wrapping_mul(17).wrapping_add(3));
        let k = 1 + rng.index(2); // 1..=2 processors
        let r = dag.max_in_degree() + 1 + rng.index(2);
        let g = rng.range_u64(2, 5);
        let green_cap = rng.index(3); // 0..=2 (0 = degenerate two-level)
        let green_cost = rng.range_u64(1, g.max(2));
        let inst = HierInstance::new(&dag, k, r, g, green_cap, green_cost);
        let ctx =
            format!("hier case {case}: n={n} k={k} r={r} g={g} cap={green_cap} gc={green_cost}");

        check_walk(
            &ctx,
            &inst.game(),
            inst.model.as_mpp(),
            inst.model.green,
            case,
        );

        let plain = solve_hier_with(&inst, &plain_cfg).solution;
        let dom = solve_hier_with(&inst, &dom_cfg).solution;
        let plain = plain.unwrap_or_else(|| panic!("{ctx}: plain budget"));
        let dom = dom.unwrap_or_else(|| panic!("{ctx}: dominance budget"));
        assert_eq!(plain.total, dom.total, "{ctx}: optima differ");
        dom.strategy
            .validate(&inst)
            .unwrap_or_else(|e| panic!("{ctx}: witness invalid: {e}"));
    }
}
