//! Successor-set equivalence harness for the dominance-pruned
//! generation kernel.
//!
//! Dominance pruning must only ever drop successors that a surviving
//! successor provably dominates. On 110 seeded random instances across
//! the three domains (MPP, SPP variants, three-level hier), this
//! harness walks each state space and checks, state by state:
//!
//! 1. **Soundness of the set**: the pruned generator's successor set is
//!    a subset of the naive generator's (same states, same edge costs —
//!    pruning never invents anything);
//! 2. **Every pruned move is dominated**: each successor the naive
//!    generator emits and the pruned one drops is dominated by some
//!    emitted successor — equal batch cost and a pointwise-superset
//!    configuration (MPP/hier maximal batches), or the identical state
//!    at no greater cost (the SPP recompute-vs-reload rule);
//! 3. **OPT is preserved**: solving with dominance on and off yields
//!    the same optimal total on every instance, so pruning never cuts
//!    the only path to the optimum;
//! 4. **The solvers' rule encodings match the rules**: every naive
//!    successor's decoded move, applied to its parent through the
//!    shared rule kernel (`rbp::core::rules`), is accepted and lands on
//!    exactly the successor's masks.
//!
//! Every case is a deterministic function of its loop index (seeded
//! in-tree RNG), so a failure message identifies the exact instance.

use rbp::core::mpp::exact::probe::{self as mpp_probe, Succ};
use rbp::core::rbp_dag::{generators, NodeId, NodeSet};
use rbp::core::rules::{self, Game, Rule};
use rbp::core::spp::exact::probe as spp_probe;
use rbp::core::{
    solve_mpp_with, solve_spp_with, Configuration, CostModel, MppInstance, SearchConfig,
    SolveLimits, SppInstance, SppState, SppVariant,
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
/// the rule kernel, on a three-level configuration under `game` (a
/// two-level one when `green_cap = 0`), and checks it lands on the
/// successor's red, green and blue masks.
fn kernel_accepts_mpp_moves(
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
                computed: set(n, 0),
            };
            rules::apply(game, &mut c, *rule, sel).map(|()| (c.reds, 0, mask(&c.blue)))
        } else {
            let mut c = HierConfiguration {
                reds: reds(),
                green: set(n, parent.green),
                blue: set(n, parent.blue),
            };
            let applied = rules::apply(game, &mut c, *rule, sel);
            applied.map(|()| (c.reds, mask(&c.green), mask(&c.blue)))
        };
        let (r, g, b) =
            landed.unwrap_or_else(|e| panic!("{ctx}: kernel rejects {rule:?} {sel:?}: {e:?}"));
        let r: Vec<u64> = r.iter().map(mask).collect();
        assert_eq!(
            (r.as_slice(), g, b),
            (&s.reds[..k], s.green, s.blue),
            "{ctx}: {rule:?} {sel:?} lands elsewhere"
        );
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
/// dominated by an emitted one (equal cost, pointwise-superset masks),
/// and the proven optimum is identical with dominance on and off.
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

        for (step, walk) in mpp_probe::successor_walk(&inst, None, case, WALK_STEPS)
            .into_iter()
            .enumerate()
        {
            let (naive, pruned) = (&walk.naive, &walk.pruned);
            let at = format!("{ctx} step {step}");
            kernel_accepts_mpp_moves(&at, &Game::mpp(&inst), &walk.parent, naive, &walk.moves);
            for s in pruned {
                assert!(
                    naive.contains(s),
                    "{ctx} step {step}: pruned invented {s:?}"
                );
            }
            for s in naive {
                if pruned.contains(s) {
                    continue;
                }
                let dominated = pruned.iter().any(|e| {
                    e.cost == s.cost
                        && e.blue & s.blue == s.blue
                        && e.reds
                            .iter()
                            .zip(s.reds.iter())
                            .all(|(er, sr)| er & sr == *sr)
                });
                assert!(
                    dominated,
                    "{ctx} step {step}: {s:?} pruned but not dominated"
                );
            }
        }

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

/// 40 random SPP instances across the variant zoo: the only pruned
/// moves are recomputes of already-stored nodes, each dominated by the
/// reload reaching the identical state at no greater cost; OPT agrees.
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

        let game = Game::spp(&inst);
        for (step, walk) in spp_probe::successor_walk(&inst, case, WALK_STEPS)
            .into_iter()
            .enumerate()
        {
            let (naive, pruned) = (&walk.naive, &walk.pruned);
            let p = walk.parent;
            for (s, (rule, sel)) in naive.iter().zip(&walk.moves) {
                let mut state = SppState {
                    red: set(n, p.red),
                    blue: set(n, p.blue),
                    computed: set(n, p.computed),
                };
                rules::apply(&game, &mut state, *rule, sel).unwrap_or_else(|e| {
                    panic!("{ctx} step {step}: kernel rejects {rule:?} {sel:?}: {e:?}")
                });
                // The key tracks `computed` only in the one-shot variant.
                let computed = if variant.one_shot {
                    mask(&state.computed)
                } else {
                    0
                };
                assert_eq!(
                    (mask(&state.red), mask(&state.blue), computed),
                    (s.red, s.blue, s.computed),
                    "{ctx} step {step}: {rule:?} {sel:?} lands elsewhere"
                );
            }
            for s in pruned {
                assert!(
                    naive.contains(s),
                    "{ctx} step {step}: pruned invented {s:?}"
                );
            }
            for s in naive {
                if pruned.contains(s) {
                    continue;
                }
                let dominated = pruned.iter().any(|e| {
                    e.red == s.red
                        && e.blue == s.blue
                        && e.computed == s.computed
                        && e.cost <= s.cost
                });
                assert!(
                    dominated,
                    "{ctx} step {step}: {s:?} pruned but not dominated"
                );
            }
        }

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

/// 30 random three-level instances, walked through the MPP kernel with
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

        let game = Game {
            green_cap,
            ..Game::mpp(&inst.mpp_instance())
        };
        let walk =
            mpp_probe::successor_walk(&inst.mpp_instance(), inst.green_tier(), case, WALK_STEPS);
        for (step, walk) in walk.into_iter().enumerate() {
            let (naive, pruned) = (&walk.naive, &walk.pruned);
            let at = format!("{ctx} step {step}");
            kernel_accepts_mpp_moves(&at, &game, &walk.parent, naive, &walk.moves);
            for s in pruned {
                assert!(
                    naive.contains(s),
                    "{ctx} step {step}: pruned invented {s:?}"
                );
            }
            for s in naive {
                if pruned.contains(s) {
                    continue;
                }
                let dominated = pruned.iter().any(|e| {
                    e.cost == s.cost
                        && e.blue & s.blue == s.blue
                        && e.green & s.green == s.green
                        && e.reds
                            .iter()
                            .zip(s.reds.iter())
                            .all(|(er, sr)| er & sr == *sr)
                });
                assert!(
                    dominated,
                    "{ctx} step {step}: {s:?} pruned but not dominated"
                );
            }
        }

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
