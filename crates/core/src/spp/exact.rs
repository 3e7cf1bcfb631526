//! Exact optimal SPP solver.
//!
//! A\* search over game states packed into `u64` bitmasks, built on the
//! shared [`crate::search`] engine. Optimal pebbling is PSPACE-complete
//! in general, so this is exponential; intended for the small instances
//! that experiments use as ground truth (`n ≤ ~14` in practice, hard
//! limit 64).
//!
//! Exactness-preserving reductions:
//!
//! 1. **Blue pebbles are never deleted.** Slow memory is unlimited and
//!    deletion is free, so keeping blue pebbles can never hurt.
//! 2. **Red pebbles are deleted lazily**: a `RemoveRed` transition is only
//!    generated when fast memory is full. Any strategy can defer each
//!    deletion to the moment space is actually needed, so some optimal
//!    strategy survives the restriction.
//! 3. **Admissible heuristic** ([`crate::search::AdmissibleHeuristic`]):
//!    remaining-computes plus the forced-I/O terms of the Lemma 1
//!    trivial bound. In the one-shot variant the heuristic additionally
//!    proves some states dead (a needed node was computed and dropped),
//!    which prunes them exactly.
//!
//! Disable the heuristic via [`SearchConfig`] to recover the original
//! uniform-cost (Dijkstra) behavior; the equivalence tests and the
//! before/after benchmarks rely on that mode.

use rbp_dag::NodeId;

use crate::arena::{pack_fields, unpack_fields, words_for};
use crate::driver::{self, Domain, EmitFn};
use crate::partition::Partition;
use crate::search::{
    trace_shards, HeurCtx, PackedMove, PhaseProf, PhaseStats, SearchConfig, SearchOutcome,
    SearchStats, ShardStats, StopReason, MAX_THREADS,
};
use crate::{AdmissibleHeuristic, Cost, SppInstance, SppMove, SppStrategy};

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

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    red: u64,
    blue: u64,
    /// Ever-computed mask; tracked only for the one-shot variant (zero
    /// otherwise so states collapse).
    computed: u64,
}

// Packed move layout: tag in bits 30..=31, node in bits 0..=5.
const TAG_COMPUTE: u32 = 0;
const TAG_LOAD: u32 = 1;
const TAG_STORE: u32 = 2;
const TAG_REMOVE: u32 = 3;

#[inline]
fn encode(tag: u32, node: u32) -> PackedMove {
    (tag << 30) | node
}

fn decode(w: PackedMove) -> SppMove {
    let v = NodeId::new((w & 0x3f) as usize);
    match w >> 30 {
        TAG_COMPUTE => SppMove::Compute(v),
        TAG_LOAD => SppMove::Load(v),
        TAG_STORE => SppMove::Store(v),
        _ => SppMove::RemoveRed(v),
    }
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
            ("partition", rbp_util::Json::from(config.partition.as_str())),
        ],
    );
    let (solution, stats, reason, shards, phases) = solve_inner(instance, config);
    stats.trace("spp", solution.as_ref().map(|s| s.total));
    trace_shards("spp", &shards);
    phases.trace("spp");
    SearchOutcome {
        solution,
        stats,
        reason,
        shards,
        phases,
    }
}

/// The SPP state space described for the shared search drivers: keys
/// are `(red, blue[, computed])` masks bit-packed to two (three under
/// the one-shot variant) `n`-bit fields.
struct SppDomain {
    n: usize,
    r: usize,
    compute: u64,
    g: u64,
    one_shot: bool,
    no_delete: bool,
    sources_start_blue: bool,
    sinks_need_blue: bool,
    preds_mask: Vec<u64>,
    sinks_mask: u64,
    start_blue: u64,
    heur: AdmissibleHeuristic,
    use_heuristic: bool,
    dominance: bool,
    max_priority: u64,
    partition: Partition,
}

/// Per-worker scratch: just the embedded phase profiler (successor
/// generation itself is allocation-free — masks live on the stack).
#[derive(Default)]
struct SppScratch {
    prof: PhaseProf,
}

impl SppDomain {
    /// Packed fields: `computed` is tracked only one-shot (zero and
    /// omitted otherwise so states collapse).
    fn field_count(&self) -> usize {
        if self.one_shot {
            3
        } else {
            2
        }
    }
}

impl Domain for SppDomain {
    type Key = Key;
    type Scratch = SppScratch;

    fn key_words(&self) -> usize {
        words_for(self.field_count(), self.n)
    }

    fn pack(&self, key: &Key, out: &mut [u64]) {
        let fields = [key.red, key.blue, key.computed];
        pack_fields(&fields[..self.field_count()], self.n, out);
    }

    fn unpack(&self, words: &[u64]) -> Key {
        let mut fields = [0u64; 3];
        let fc = self.field_count();
        unpack_fields(words, self.n, &mut fields[..fc]);
        Key {
            red: fields[0],
            blue: fields[1],
            computed: fields[2],
        }
    }

    fn root(&self) -> Key {
        Key {
            red: 0,
            blue: self.start_blue,
            computed: 0,
        }
    }

    fn is_goal(&self, key: &Key) -> bool {
        if self.sinks_need_blue {
            self.sinks_mask & !key.blue == 0
        } else {
            self.sinks_mask & !(key.red | key.blue) == 0
        }
    }

    fn heuristic(&self, key: &Key) -> Option<u64> {
        if self.use_heuristic {
            self.heur.eval(key.red, key.blue, key.computed)
        } else {
            Some(0)
        }
    }

    fn max_priority(&self) -> u64 {
        self.max_priority
    }

    fn owner(&self, key: &Key, hash: u64, shards: usize) -> usize {
        self.partition.owner(key.red, key.blue, hash, shards)
    }

    fn expand(&self, key: &Key, scratch: &mut SppScratch, emit: EmitFn<'_, Key>) {
        let Key {
            red,
            blue,
            computed,
        } = *key;
        let one_shot = self.one_shot;
        let prof = &mut scratch.prof;

        // Per-parent heuristic context: one from-scratch closure walk
        // whose needed set answers the base-variant successors in O(1)
        // via `eval_delta` (the one-shot / Hong–Kung variants carry I/O
        // terms and fall back to the full evaluation automatically).
        // `prepare` returns `None` only on dead states, which the driver
        // never expands; fall back to per-successor `eval` regardless.
        let hctx: Option<HeurCtx> = if self.use_heuristic {
            let t0 = prof.start();
            prof.stats.heur_full_evals += 1;
            let ctx = self.heur.prepare(red, blue, computed);
            prof.stop_heur(t0);
            ctx
        } else {
            None
        };
        let mut emit_one = |nk: Key, cost: u64, mv: PackedMove| {
            emit(nk, cost, mv, &mut || {
                if !self.use_heuristic {
                    return Some(0);
                }
                let t0 = prof.start();
                let hv = match &hctx {
                    Some(ctx) => {
                        self.heur
                            .eval_delta(ctx, nk.red, nk.blue, nk.computed, &mut prof.stats)
                    }
                    None => self.heur.eval(nk.red, nk.blue, nk.computed),
                };
                prof.stop_heur(t0);
                hv
            });
        };

        let mut suppressed = 0u64;
        let red_count = red.count_ones() as usize;
        if red_count < self.r {
            // Compute moves.
            for (i, &pm) in self.preds_mask.iter().enumerate() {
                let b = 1u64 << i;
                if red & b != 0 {
                    continue;
                }
                if pm & !red != 0 {
                    continue;
                }
                if one_shot && computed & b != 0 {
                    continue;
                }
                // Under the Hong–Kung convention, inputs are data.
                if self.sources_start_blue && pm == 0 {
                    continue;
                }
                // Dominance: recomputing an already-stored node is
                // (weakly) dominated by reloading it — the load emitted
                // below reaches the *identical* successor at cost
                // `g ≤ compute`. Only exact when the states really
                // coincide, i.e. outside the one-shot variant.
                if self.dominance && !one_shot && blue & b != 0 && self.g <= self.compute {
                    suppressed += 1;
                    continue;
                }
                let nk = Key {
                    red: red | b,
                    blue,
                    computed: if one_shot { computed | b } else { 0 },
                };
                emit_one(nk, self.compute, encode(TAG_COMPUTE, i as u32));
            }
            // Load moves.
            for i in iter_bits(blue & !red) {
                let nk = Key {
                    red: red | (1 << i),
                    blue,
                    computed,
                };
                emit_one(nk, self.g, encode(TAG_LOAD, i));
            }
        } else if !self.no_delete {
            // At (or above) capacity: lazy eviction.
            for i in iter_bits(red) {
                let nk = Key {
                    red: red & !(1 << i),
                    blue,
                    computed,
                };
                emit_one(nk, 0, encode(TAG_REMOVE, i));
            }
        }
        // Store moves (legal at any occupancy). Storing an already-blue
        // node is structurally excluded by the `red & !blue` mask.
        for i in iter_bits(red & !blue) {
            let nk = Key {
                red,
                blue: blue | (1 << i),
                computed,
            };
            emit_one(nk, self.g, encode(TAG_STORE, i));
        }
        scratch.prof.stats.idle_suppressed += suppressed;
    }

    fn take_phases(&self, scratch: &mut SppScratch) -> PhaseStats {
        scratch.prof.take()
    }
}

/// Builds the search domain for a supported, non-empty, feasible
/// instance; `None` otherwise (the caller distinguishes the trivial
/// `n == 0` case itself).
fn build_domain(instance: &SppInstance, config: &SearchConfig) -> Option<SppDomain> {
    let dag = instance.dag;
    let n = dag.n();
    if n == 0 || n > 64 || !instance.is_feasible() {
        return None;
    }
    let model = instance.model;

    let preds_mask: Vec<u64> = dag
        .nodes()
        .map(|v| dag.preds(v).iter().fold(0u64, |m, p| m | bit(*p)))
        .collect();
    let sinks_mask: u64 = dag.sinks().iter().fold(0u64, |m, s| m | bit(*s));
    let start_blue: u64 = if instance.variant.sources_start_blue {
        dag.sources().iter().fold(0u64, |m, s| m | bit(*s))
    } else {
        0
    };

    let ub = (model.g * (dag.max_in_degree() as u64 + 1))
        .saturating_add(model.compute)
        .saturating_mul(n as u64)
        .saturating_add(model.g.saturating_mul(2 * n as u64));
    let max_priority = ub
        .saturating_mul(2)
        .saturating_add(model.g.saturating_add(model.compute));

    Some(SppDomain {
        n,
        r: instance.r,
        compute: model.compute,
        g: model.g,
        one_shot: instance.variant.one_shot,
        no_delete: instance.variant.no_delete,
        sources_start_blue: instance.variant.sources_start_blue,
        sinks_need_blue: instance.variant.sinks_need_blue,
        preds_mask,
        sinks_mask,
        start_blue,
        heur: AdmissibleHeuristic::for_spp(instance),
        use_heuristic: config.heuristic,
        dominance: config.dominance,
        max_priority,
        partition: Partition::build(config.partition, dag, config.threads.clamp(1, MAX_THREADS)),
    })
}

#[allow(clippy::type_complexity)]
fn solve_inner(
    instance: &SppInstance,
    config: &SearchConfig,
) -> (
    Option<SppSolution>,
    SearchStats,
    StopReason,
    Vec<ShardStats>,
    PhaseStats,
) {
    if instance.dag.n() == 0 {
        return (
            Some(SppSolution {
                total: 0,
                cost: Cost::zero(),
                strategy: SppStrategy::new(),
            }),
            SearchStats::default(),
            StopReason::Solved,
            Vec::new(),
            PhaseStats::default(),
        );
    }
    let Some(domain) = build_domain(instance, config) else {
        return (
            None,
            SearchStats::default(),
            StopReason::Unsupported,
            Vec::new(),
            PhaseStats::default(),
        );
    };
    // A dead root (one-shot variants) is caught by the driver through
    // the heuristic's `None` and reported as `Exhausted`.
    let out = driver::search(&domain, config);
    let solution = out
        .best
        .map(|(total, path)| reconstruct(instance, path, total));
    (solution, out.stats, out.reason, out.shards, out.phases)
}

fn reconstruct(instance: &SppInstance, path: Vec<(Key, PackedMove)>, total: u64) -> SppSolution {
    let moves: Vec<SppMove> = path.into_iter().map(|(_, mv)| decode(mv)).collect();
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
}

#[inline]
fn bit(v: NodeId) -> u64 {
    1u64 << v.index()
}

fn iter_bits(mut mask: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let i = mask.trailing_zeros();
            mask &= mask - 1;
            Some(i)
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

#[doc(hidden)]
pub mod probe {
    //! Test hooks into the successor-generation kernel: raw naive vs
    //! dominance-pruned successor sets along deterministic
    //! pseudo-random walks, with the decoded move behind each naive
    //! successor, for the successor-set equivalence property tests.
    //! Not a public API.

    use super::*;
    use crate::mpp::exact::probe::WalkStep;
    use crate::rules::Move;
    use rbp_util::Rng;

    /// A raw successor snapshot: state masks plus edge cost.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Succ {
        /// Red (fast-memory) mask.
        pub red: u64,
        /// Blue (slow-memory) mask.
        pub blue: u64,
        /// Ever-computed mask (zero outside the one-shot variant).
        pub computed: u64,
        /// Edge cost of the generating move.
        pub cost: u64,
    }

    fn expand_into(
        domain: &SppDomain,
        key: &Key,
        scratch: &mut SppScratch,
    ) -> (Vec<Succ>, Vec<PackedMove>) {
        let (mut out, mut moves) = (Vec::new(), Vec::new());
        domain.expand(key, scratch, &mut |k2, c, mv, _hv| {
            out.push(Succ {
                red: k2.red,
                blue: k2.blue,
                computed: k2.computed,
                cost: c,
            });
            moves.push(mv);
        });
        (out, moves)
    }

    fn raw_config(dominance: bool) -> SearchConfig {
        SearchConfig {
            heuristic: false,
            dominance,
            ..SearchConfig::default()
        }
    }

    /// Walks `steps` states from the root along a seeded random path
    /// (always stepping through a *naive* successor), returning every
    /// visited state with its naive and pruned successor sets.
    /// Panics on unsupported instances.
    #[must_use]
    pub fn successor_walk(instance: &SppInstance, seed: u64, steps: usize) -> Vec<WalkStep<Succ>> {
        let naive = build_domain(instance, &raw_config(false)).expect("unsupported instance");
        let pruned = build_domain(instance, &raw_config(true)).expect("unsupported instance");
        let mut rng = Rng::new(seed);
        let mut scratch = SppScratch::default();
        let mut key = naive.root();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (ns, packed) = expand_into(&naive, &key, &mut scratch);
            let (ps, _) = expand_into(&pruned, &key, &mut scratch);
            if ns.is_empty() {
                break;
            }
            let moves = packed
                .into_iter()
                .map(|w| decode(w).with_rule(|rule, sel| (rule, sel.to_vec())))
                .collect();
            let parent = Succ {
                red: key.red,
                blue: key.blue,
                computed: key.computed,
                cost: 0,
            };
            let pick = rng.index(ns.len());
            key = Key {
                red: ns[pick].red,
                blue: ns[pick].blue,
                computed: ns[pick].computed,
            };
            out.push(WalkStep {
                parent,
                naive: ns,
                moves,
                pruned: ps,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CostModel, SppVariant};
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
