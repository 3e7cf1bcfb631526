//! Exact optimal MPP solver for small instances, optionally with the
//! green tier of the three-level game.
//!
//! A\* search over configurations `(R^1..R^k, B)` packed into `u64`
//! masks, built on the shared [`crate::search`] engine. Transitions are
//! whole rule applications: all non-empty batched selections of a single
//! rule type are enumerated (each processor independently acts or
//! idles), so the solver exploits the paper's one-cost-per-parallel-step
//! semantics exactly.
//!
//! State-space reductions, all correctness-preserving:
//!
//! - **Processor symmetry.** Processors are interchangeable (equal
//!   capacity `r`, shared blue memory), so configurations differing only
//!   by a relabeling of shades are equivalent. Keys are canonicalized by
//!   sorting the per-processor red masks, collapsing up to `k!`
//!   states into one; witness reconstruction re-applies the permutation
//!   trail so the returned strategy uses consistent concrete labels.
//! - **Admissible heuristic.** `ceil(|needed| / k) · compute`, where
//!   `needed` is the set of nodes that provably must still be computed
//!   (see [`crate::search::AdmissibleHeuristic`]). With the heuristic
//!   disabled the solver degenerates to the original uniform-cost
//!   search.
//! - The two classic normalizations: blue pebbles are never deleted,
//!   and red deletions are generated lazily, only on a processor at
//!   capacity (`≥ r`, so a capacity-1 processor still makes progress).
//!
//! **Green tier.** `rbp-hier`'s three-level game adds a shared green
//! set `G` of bounded capacity between the red and blue memories, with
//! one batched store/load pair of its own cost ([`GreenTier`]).
//! [`solve_tiered`] searches `(R^1..R^k, G, B)` with the same kernel:
//! the green set is invariant under shade relabeling, so symmetry and
//! the permutation trail carry over; green pebbles are evicted lazily
//! when the tier is full and stored at most into its free slots; and
//! `G ∪ B` plays the blue role in the goal test and the heuristic,
//! whose reload cost drops to `min(g, green)`. Without a tier the green
//! mask stays empty and the key packs the `k + 1` two-level fields.
//!
//! Complexity is brutal by design (the problem is NP-hard even for
//! 2-layer DAGs, Lemma 2): intended for `n ≤ ~10`, `k ≤ 4`.

use rbp_dag::NodeId;
use rbp_util::Json;

use crate::arena::{pack_fields, unpack_fields, words_for};
use crate::driver::{self, Domain, EmitFn};
use crate::partition::Partition;
use crate::rules::Rule;
use crate::search::{
    trace_shards, HeurCtx, PackedMove, PhaseProf, PhaseStats, SearchConfig, SearchOutcome,
    StopReason, MAX_THREADS,
};
use crate::{
    AdmissibleHeuristic, Cost, MppInstance, MppMove, MppStrategy, Pebble, ProcId, SolveLimits,
};

const MAX_K: usize = 4;

/// An optimal solution found by [`solve`].
#[derive(Debug, Clone)]
pub struct MppSolution {
    /// The optimal total cost under the instance's cost model.
    pub total: u64,
    /// Tally of the optimal strategy's rule applications.
    pub cost: Cost,
    /// A witness strategy achieving `total`.
    pub strategy: MppStrategy,
}

/// The shared, bounded mid-level (green) memory of the three-level
/// game: at most `cap` green pebbles, and `cost` per batched green
/// store or load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreenTier {
    /// Green capacity (the search supports at most 64).
    pub cap: usize,
    /// Cost of one batched green store or load.
    pub cost: u64,
}

/// Rules by packed-move tag (`Rule as u32`). The search never deletes
/// blue pebbles, so [`Rule::RemoveBlue`] has no tag.
const RULES: [Rule; 7] = [
    Rule::Compute,
    Rule::Load,
    Rule::Store,
    Rule::LoadGreen,
    Rule::StoreGreen,
    Rule::RemoveRed,
    Rule::RemoveGreen,
];

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Key {
    reds: [u64; MAX_K],
    green: u64,
    blue: u64,
}

impl Key {
    #[inline]
    fn red_all(&self) -> u64 {
        self.reds.iter().fold(0, |a, &b| a | b)
    }

    /// The pebbles outside fast memory: green joins blue as "available
    /// without recomputing" for the goal test and the heuristic.
    #[inline]
    fn outer(&self) -> u64 {
        self.green | self.blue
    }
}

// Packed move layout (see `crate::search::PackedMove`): bits 28..=30
// hold the rule tag; batch moves store one 7-bit slot per processor
// (bit 6 = active, bits 0..=5 = node) in bits 0..=27; removals store
// the node in bits 0..=5 and, for red removals, the processor in bits
// 6..=7.
#[inline]
fn encode_batch(rule: Rule, batch: &[(usize, u32)]) -> PackedMove {
    let mut w = (rule as u32) << 28;
    for &(j, i) in batch {
        w |= (0x40 | i) << (7 * j as u32);
    }
    w
}

#[inline]
fn encode_remove(rule: Rule, proc: usize, node: u32) -> PackedMove {
    ((rule as u32) << 28) | ((proc as u32) << 6) | node
}

fn decode(w: PackedMove, k: usize) -> (Rule, Vec<(usize, u32)>) {
    let rule = RULES[(w >> 28) as usize];
    if matches!(rule, Rule::RemoveRed | Rule::RemoveGreen) {
        return (rule, vec![(((w >> 6) & 0x3) as usize, w & 0x3f)]);
    }
    let mut pairs = Vec::new();
    for j in 0..k {
        let slot = (w >> (7 * j as u32)) & 0x7f;
        if slot & 0x40 != 0 {
            pairs.push((j, slot & 0x3f));
        }
    }
    (rule, pairs)
}

#[inline]
fn apply(key: &mut Key, rule: Rule, pairs: &[(usize, u32)]) {
    for &(j, i) in pairs {
        let bit = 1u64 << i;
        match rule {
            Rule::Compute | Rule::Load | Rule::LoadGreen => key.reds[j] |= bit,
            Rule::Store => key.blue |= bit,
            Rule::StoreGreen => key.green |= bit,
            Rule::RemoveRed => key.reds[j] &= !bit,
            Rule::RemoveGreen => key.green &= !bit,
            Rule::RemoveBlue => key.blue &= !bit,
        }
    }
}

/// Sorts the first `len` masks descending (insertion sort; `len ≤ 4`).
#[inline]
fn sort_desc(xs: &mut [u64]) {
    for i in 1..xs.len() {
        let mut j = i;
        while j > 0 && xs[j] > xs[j - 1] {
            xs.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Whether the masks are already in canonical (descending) order — the
/// memo check that lets most successors skip the sort: the parent is
/// canonical, and a move that leaves the relative order of the red
/// masks intact (every store, most single-processor acquires) produces
/// an already-sorted child.
#[inline]
fn is_sorted_desc(xs: &[u64]) -> bool {
    xs.windows(2).all(|w| w[0] >= w[1])
}

/// Canonicalizes `raw` and returns the gather permutation `pi` such that
/// `canonical.reds[q] == raw.reds[pi[q]]`. The shared green and blue
/// sets are invariant under shade relabeling.
fn canon_with_perm(raw: Key, k: usize, symmetry: bool) -> (Key, [usize; MAX_K]) {
    let mut idx = [0usize, 1, 2, 3];
    if !symmetry {
        return (raw, idx);
    }
    idx[..k].sort_by(|&a, &b| raw.reds[b].cmp(&raw.reds[a]));
    let mut out = raw;
    for (q, &i) in idx[..k].iter().enumerate() {
        out.reds[q] = raw.reds[i];
    }
    (out, idx)
}

/// Finds a minimum-total-cost MPP pebbling with the default (fully
/// optimized) configuration, or `None` if infeasible (`r ≤ Δ_in`), too
/// large (`n > 64` or `k > 4`), or out of budget.
#[must_use]
pub fn solve(instance: &MppInstance, limits: SolveLimits) -> Option<MppSolution> {
    solve_with(instance, &SearchConfig::default().with_limits(limits)).solution
}

/// [`solve`] with explicit optimization switches, also reporting search
/// statistics (settled/pushed state counts) for benchmarking. Each call
/// opens a `solve.mpp` trace span and reports the search counters and
/// heuristic tightness through `rbp-trace` (no-ops unless a sink is
/// installed).
#[must_use]
pub fn solve_with(instance: &MppInstance, config: &SearchConfig) -> SearchOutcome<MppSolution> {
    let _span = rbp_trace::span_with(
        "solve.mpp",
        vec![
            ("n", Json::from(instance.dag.n())),
            ("k", Json::from(instance.k)),
            ("r", Json::from(instance.r)),
            ("g", Json::from(instance.model.g)),
            ("heuristic", Json::from(config.heuristic)),
            ("symmetry", Json::from(config.symmetry)),
            ("threads", Json::from(config.threads.max(1))),
            ("partition", Json::from(config.partition.as_str())),
        ],
    );
    solve_tiered(instance, None, config, "mpp", |rule, batch| match rule {
        Rule::Compute => MppMove::Compute(batch),
        Rule::Load => MppMove::Load(batch),
        Rule::Store => MppMove::Store(batch),
        Rule::RemoveRed => MppMove::Remove(Pebble::Red(batch[0].0, batch[0].1)),
        Rule::RemoveBlue => MppMove::Remove(Pebble::Blue(batch[0].1)),
        Rule::LoadGreen | Rule::StoreGreen | Rule::RemoveGreen => {
            unreachable!("green rule without a green tier")
        }
    })
    .map(|(total, moves)| {
        let strategy = MppStrategy::from_moves(moves);
        let cost = strategy
            .validate(instance)
            .expect("solver produced an invalid strategy");
        debug_assert_eq!(cost.total(instance.model), total);
        MppSolution {
            total,
            cost,
            strategy,
        }
    })
}

/// The search behind [`solve_with`] and `rbp-hier`'s three-level
/// solver: solves `instance`, extended by the green `tier` when given,
/// and reports the search counters under `solver.<which>.*` trace
/// names. The solution is the optimal total plus the witness, one
/// `step(rule, selection)` per move with the shaded selection under
/// concrete processor labels; the caller builds its own move type from
/// those steps and validates the strategy.
///
/// Unsupported (`None` with [`StopReason::Unsupported`]) when the
/// instance is infeasible (`r ≤ Δ_in`), too large (`n > 64` or
/// `k > 4`), or the tier holds more than 64 pebbles.
#[must_use]
pub fn solve_tiered<M>(
    instance: &MppInstance,
    tier: Option<GreenTier>,
    config: &SearchConfig,
    which: &str,
    step: impl FnMut(Rule, Vec<(ProcId, NodeId)>) -> M,
) -> SearchOutcome<(u64, Vec<M>)> {
    let out = if instance.dag.n() == 0 && supported(instance.k, tier) {
        SearchOutcome {
            solution: Some((0, Vec::new())),
            ..SearchOutcome::stopped(StopReason::Solved)
        }
    } else if let Some(domain) = build_domain(instance, tier, config) {
        let out = driver::search(&domain, config);
        SearchOutcome {
            solution: out
                .best
                .map(|(total, path)| (total, reconstruct(instance.k, path, config.symmetry, step))),
            stats: out.stats,
            reason: out.reason,
            shards: out.shards,
            phases: out.phases,
        }
    } else {
        SearchOutcome::stopped(StopReason::Unsupported)
    };
    out.stats
        .trace(which, out.solution.as_ref().map(|&(total, _)| total));
    trace_shards(which, &out.shards);
    out.phases.trace(which);
    out
}

/// The MPP state space described for the shared search drivers: keys
/// are `(R^1..R^k, [G,] B)` masks bit-packed to `(k+1) * n` bits, plus
/// `n` for the green field when a tier exists; successors are whole
/// batched rule applications (canonicalized under processor symmetry
/// before emission).
struct MppDomain {
    n: usize,
    k: usize,
    r: usize,
    tier: Option<GreenTier>,
    compute: u64,
    g: u64,
    preds_mask: Vec<u64>,
    sinks_mask: u64,
    heur: AdmissibleHeuristic,
    use_heuristic: bool,
    symmetry: bool,
    dominance: bool,
    max_priority: u64,
    partition: Partition,
}

impl MppDomain {
    /// Packed fields: the red masks, the green mask if a tier exists,
    /// and the blue mask.
    fn fields(&self) -> usize {
        self.k + 1 + usize::from(self.tier.is_some())
    }
}

/// Reused per-worker expansion buffers (allocation-free inner loop) and
/// the embedded phase profiler the driver drains via `take_phases`.
struct MppScratch {
    batch: Vec<(usize, u32)>,
    prof: PhaseProf,
}

impl Default for MppScratch {
    fn default() -> Self {
        MppScratch {
            batch: Vec::with_capacity(MAX_K),
            prof: PhaseProf::default(),
        }
    }
}

/// Per-processor option masks: `f(j)` for the `k` live processors.
#[inline]
fn per_proc(k: usize, f: impl Fn(usize) -> u64) -> [u64; MAX_K] {
    std::array::from_fn(|j| if j < k { f(j) } else { 0 })
}

impl Domain for MppDomain {
    type Key = Key;
    type Scratch = MppScratch;

    fn key_words(&self) -> usize {
        words_for(self.fields(), self.n)
    }

    fn pack(&self, key: &Key, out: &mut [u64]) {
        let mut fields = [0u64; MAX_K + 2];
        fields[..self.k].copy_from_slice(&key.reds[..self.k]);
        fields[self.k] = key.green;
        fields[self.fields() - 1] = key.blue;
        pack_fields(&fields[..self.fields()], self.n, out);
    }

    fn unpack(&self, words: &[u64]) -> Key {
        let mut fields = [0u64; MAX_K + 2];
        unpack_fields(words, self.n, &mut fields[..self.fields()]);
        let mut key = Key::default();
        key.reds[..self.k].copy_from_slice(&fields[..self.k]);
        if self.tier.is_some() {
            key.green = fields[self.k];
        }
        key.blue = fields[self.fields() - 1];
        key
    }

    fn root(&self) -> Key {
        Key::default()
    }

    fn is_goal(&self, key: &Key) -> bool {
        self.sinks_mask & !(key.red_all() | key.outer()) == 0
    }

    fn heuristic(&self, key: &Key) -> Option<u64> {
        if self.use_heuristic {
            self.heur.eval(key.red_all(), key.outer(), 0)
        } else {
            Some(0)
        }
    }

    fn max_priority(&self) -> u64 {
        self.max_priority
    }

    fn owner(&self, key: &Key, hash: u64, shards: usize) -> usize {
        // Green pebbles are fast-memory-adjacent for locality purposes:
        // fold them into the red side of the partition signature.
        self.partition
            .owner(key.red_all() | key.green, key.blue, hash, shards)
    }

    fn expand(&self, key: &Key, scratch: &mut MppScratch, emit: EmitFn<'_, Key>) {
        let (k, r, n) = (self.k, self.r, self.n);
        let key = *key;
        let full = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let MppScratch { batch, prof } = scratch;

        // Per-parent heuristic context: one from-scratch closure walk
        // whose needed set answers most successors in O(1) via
        // `eval_delta`.
        let hctx: Option<HeurCtx> = if self.use_heuristic {
            let t0 = prof.start();
            prof.stats.heur_full_evals += 1;
            let ctx = self.heur.prepare(key.red_all(), key.outer(), 0);
            prof.stop_heur(t0);
            debug_assert!(ctx.is_some(), "MPP states are never dead");
            ctx
        } else {
            None
        };

        let mut emit_raw = |mut raw: Key, cost: u64, mv: PackedMove| {
            if self.symmetry {
                let t0 = prof.start();
                if is_sorted_desc(&raw.reds[..k]) {
                    prof.stats.canon_memo_hits += 1;
                } else {
                    sort_desc(&mut raw.reds[..k]);
                    prof.stats.canon_sorts += 1;
                }
                prof.stop_canon(t0);
            }
            emit(raw, cost, mv, &mut || {
                if !self.use_heuristic {
                    return Some(0);
                }
                let t0 = prof.start();
                let hv = match &hctx {
                    Some(ctx) => {
                        self.heur
                            .eval_delta(ctx, raw.red_all(), raw.outer(), 0, &mut prof.stats)
                    }
                    None => self.heur.eval(raw.red_all(), raw.outer(), 0),
                };
                prof.stop_heur(t0);
                hv
            });
        };

        // --- R4-M: lazy red eviction on full processors (cost 0). ---
        for j in 0..k {
            if key.reds[j].count_ones() as usize >= r {
                for i in iter_bits(key.reds[j]) {
                    let mut nk = key;
                    nk.reds[j] &= !(1u64 << i);
                    emit_raw(nk, 0, encode_remove(Rule::RemoveRed, j, i));
                }
            }
        }

        // --- R4-H: lazy green eviction when the tier is full (cost 0). ---
        if let Some(tier) = self.tier {
            if key.green.count_ones() as usize >= tier.cap {
                for i in iter_bits(key.green) {
                    let mut nk = key;
                    nk.green &= !(1u64 << i);
                    emit_raw(nk, 0, encode_remove(Rule::RemoveGreen, 0, i));
                }
            }
        }

        let mut suppressed = 0u64;
        // Emits every batch over the per-processor option masks as one
        // application of `rule` (see `for_each_batch`).
        let mut batched =
            |rule: Rule, opts: [u64; MAX_K], distinct: bool, budget: usize, cost: u64| {
                for_each_batch(
                    &opts[..k],
                    distinct,
                    self.dominance,
                    budget,
                    batch,
                    &mut suppressed,
                    &mut |batch| {
                        let mut nk = key;
                        apply(&mut nk, rule, batch);
                        emit_raw(nk, cost, encode_batch(rule, batch));
                    },
                );
            };
        let has_room = |j: usize| (key.reds[j].count_ones() as usize) < r;

        // --- R3-M: batched computes. ---
        // Option masks per processor: eligible nodes (not yet red here,
        // all predecessors red here), empty at capacity.
        let computable = per_proc(k, |j| {
            if !has_room(j) {
                return 0;
            }
            iter_bits(full & !key.reds[j])
                .filter(|&i| self.preds_mask[i as usize] & !key.reds[j] == 0)
                .fold(0, |m, i| m | (1u64 << i))
        });
        batched(Rule::Compute, computable, false, usize::MAX, self.compute);

        // --- R2-M: batched blue loads (distinct vertices). ---
        let loadable = |src: u64| per_proc(k, |j| if has_room(j) { src & !key.reds[j] } else { 0 });
        batched(Rule::Load, loadable(key.blue), true, usize::MAX, self.g);

        // --- R1-M: batched blue stores (distinct vertices). ---
        // Storing an already-blue node is structurally excluded by the
        // option mask — the other half of the dominance story.
        let blue_stores = per_proc(k, |j| key.reds[j] & !key.blue);
        batched(Rule::Store, blue_stores, true, usize::MAX, self.g);

        if let Some(tier) = self.tier {
            // --- R6-H: batched green loads (distinct vertices). ---
            batched(
                Rule::LoadGreen,
                loadable(key.green),
                true,
                usize::MAX,
                tier.cost,
            );

            // --- R5-H: batched green stores (distinct vertices, bounded
            // by the shared capacity — the enumerator's `budget` enforces
            // the free-slot cap, and maximality is judged against it, so
            // a batch filling every free slot is maximal even when idle
            // processors still hold storable values). ---
            let free = tier.cap.saturating_sub(key.green.count_ones() as usize);
            if free > 0 {
                let green_stores = per_proc(k, |j| key.reds[j] & !key.green);
                batched(Rule::StoreGreen, green_stores, true, free, tier.cost);
            }
        }

        prof.stats.idle_suppressed += suppressed;
    }

    fn take_phases(&self, scratch: &mut MppScratch) -> PhaseStats {
        scratch.prof.take()
    }
}

/// Whether the search handles `k` processors and the green tier.
fn supported(k: usize, tier: Option<GreenTier>) -> bool {
    (1..=MAX_K).contains(&k) && tier.is_none_or(|t| t.cap <= 64)
}

/// Builds the search domain for a supported, non-empty, feasible
/// instance; `None` otherwise (the caller distinguishes the trivial
/// `n == 0` case itself).
fn build_domain(
    instance: &MppInstance,
    tier: Option<GreenTier>,
    config: &SearchConfig,
) -> Option<MppDomain> {
    let dag = instance.dag;
    let n = dag.n();
    if n == 0 || n > 64 || !supported(instance.k, tier) || !instance.is_feasible() {
        return None;
    }
    let model = instance.model;

    let preds_mask: Vec<u64> = dag
        .nodes()
        .map(|v| {
            dag.preds(v)
                .iter()
                .fold(0u64, |m, p| m | (1u64 << p.index()))
        })
        .collect();
    let sinks_mask: u64 = dag
        .sinks()
        .iter()
        .fold(0u64, |m, s| m | (1u64 << s.index()));

    // Priority ceiling for the bucket representation: the game can
    // always ignore the green tier, so twice the Lemma 1 trivial upper
    // bound covers every f-value the search can push.
    let ub = (model.g * (dag.max_in_degree() as u64 + 1))
        .saturating_add(model.compute)
        .saturating_mul(n as u64);
    let max_priority = ub.saturating_mul(2).saturating_add(
        model
            .g
            .saturating_add(model.compute)
            .saturating_add(tier.map_or(0, |t| t.cost)),
    );

    // The heuristic's re-entry term assumes the cheapest way to
    // re-redden an evicted value; the green tier may undercut a blue
    // reload.
    let mut heur = AdmissibleHeuristic::for_mpp(instance);
    if let Some(tier) = tier {
        heur = heur.with_load_cost(model.g.min(tier.cost));
    }

    Some(MppDomain {
        n,
        k: instance.k,
        r: instance.r,
        tier,
        compute: model.compute,
        g: model.g,
        preds_mask,
        sinks_mask,
        heur,
        use_heuristic: config.heuristic,
        symmetry: config.symmetry,
        dominance: config.dominance,
        max_priority,
        partition: Partition::build(config.partition, dag, config.threads.clamp(1, MAX_THREADS)),
    })
}

/// Enumerates non-empty batches over per-processor option bitmasks:
/// each processor picks one set bit of its mask or idles. With
/// `distinct_vertices`, no vertex may repeat across the batch
/// (R1-M/R2-M set semantics; for stores a repeated vertex would be a
/// redundant double-write anyway). `budget` caps the total number of
/// acting processors (the hierarchical green-store slot budget;
/// `usize::MAX` otherwise). The caller provides the scratch `batch`
/// buffer so the enumeration allocates nothing.
///
/// With `maximal` (dominance pruning), only **inclusion-maximal**
/// batches survive: a batch where some idle processor could still be
/// assigned an option (unused, under the budget) is rejected, because
/// the extended batch keeps the same flat batch cost and reaches a
/// configuration that is a pointwise superset — any completion from the
/// partial state is simulated from the extended one (free lazy
/// evictions shed the extra red pebble whenever a slot is needed; extra
/// blue never hurts; the goal test is monotone coverage). Maximality is
/// checked at the leaf against the *final* used-vertex set, never
/// greedily per processor: with distinct vertices, forcing an early
/// processor to take a contended vertex would wrongly prune the batch
/// that gives it to a later processor, which no emitted batch
/// dominates. Pruned branches/leaves are counted into `suppressed`.
fn for_each_batch(
    options: &[u64],
    distinct_vertices: bool,
    maximal: bool,
    budget: usize,
    batch: &mut Vec<(usize, u32)>,
    suppressed: &mut u64,
    f: &mut impl FnMut(&[(usize, u32)]),
) {
    #[allow(clippy::too_many_arguments)]
    fn rec(
        options: &[u64],
        j: usize,
        distinct: bool,
        maximal: bool,
        budget: usize,
        used: u64,
        batch: &mut Vec<(usize, u32)>,
        suppressed: &mut u64,
        f: &mut impl FnMut(&[(usize, u32)]),
    ) {
        if j == options.len() {
            if batch.is_empty() {
                return;
            }
            if maximal && batch.len() < budget {
                for (jj, &opt) in options.iter().enumerate() {
                    if batch.iter().any(|&(b, _)| b == jj) {
                        continue;
                    }
                    let ext = if distinct { opt & !used } else { opt };
                    if ext != 0 {
                        // Idle processor jj could still act: this batch
                        // is dominated by the one that also assigns it.
                        *suppressed += 1;
                        return;
                    }
                }
            }
            f(batch);
            return;
        }
        let avail = if distinct {
            options[j] & !used
        } else {
            options[j]
        };
        let can_act = avail != 0 && batch.len() < budget;
        // Idle branch. Without distinct vertices an option can never be
        // consumed by another processor, so an idling processor that
        // could act now could still act at the leaf — cut the whole
        // subtree early instead of rejecting every leaf. Only valid
        // when the budget can never bind (a leaf that hits the budget
        // without this processor is maximal and must survive).
        if maximal && !distinct && can_act && budget >= options.len() {
            *suppressed += 1;
        } else {
            rec(
                options,
                j + 1,
                distinct,
                maximal,
                budget,
                used,
                batch,
                suppressed,
                f,
            );
        }
        if !can_act {
            return;
        }
        let mut m = avail;
        while m != 0 {
            let i = m.trailing_zeros();
            m &= m - 1;
            batch.push((j, i));
            rec(
                options,
                j + 1,
                distinct,
                maximal,
                budget,
                used | (1u64 << i),
                batch,
                suppressed,
                f,
            );
            batch.pop();
        }
    }
    batch.clear();
    rec(
        options,
        0,
        distinct_vertices,
        maximal,
        budget,
        0,
        batch,
        suppressed,
        f,
    );
}

/// Rebuilds the witness from the canonical-state parent chain.
///
/// With symmetry reduction each stored move is expressed in the frame of
/// its parent's canonical representative, while the canonical successor
/// is a *sorted* relabeling of the raw successor. Replaying forward, we
/// maintain the composed permutation `perm` (canonical index → concrete
/// processor id) and hand every step to `step` under concrete labels,
/// so the strategy validates against the ordinary rules.
fn reconstruct<M>(
    k: usize,
    path: Vec<(Key, PackedMove)>,
    symmetry: bool,
    mut step: impl FnMut(Rule, Vec<(ProcId, NodeId)>) -> M,
) -> Vec<M> {
    let mut perm = [0usize, 1, 2, 3];
    let mut cur = path.first().map_or(Key::default(), |&(p, _)| p);
    let mut moves = Vec::with_capacity(path.len());
    for (parent, mv) in path {
        debug_assert_eq!(parent, cur);
        let (rule, pairs) = decode(mv, k);
        let concrete = pairs
            .iter()
            .map(|&(j, i)| (perm[j], NodeId::new(i as usize)))
            .collect();
        moves.push(step(rule, concrete));
        let mut raw = parent;
        apply(&mut raw, rule, &pairs);
        let (next, pi) = canon_with_perm(raw, k, symmetry);
        let prev_perm = perm;
        for q in 0..k {
            perm[q] = prev_perm[pi[q]];
        }
        cur = next;
    }
    moves
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

#[doc(hidden)]
pub mod probe {
    //! Test and benchmark hooks into the successor-generation kernel.
    //!
    //! Exposes the raw (symmetry-off) naive vs dominance-pruned
    //! successor sets along deterministic pseudo-random walks, with the
    //! decoded move behind each naive successor — the substrate of the
    //! successor-set equivalence property tests, with or without the
    //! green tier — and the micro-kernels
    //! (`canonicalize`, heuristic delta vs from-scratch, per-expansion
    //! successor generation) timed by the `solver_kernel` bench group.
    //! Not a public API.

    use super::*;
    use rbp_util::Rng;

    /// A raw successor snapshot: per-processor red masks, the shared
    /// green and blue masks, and edge cost. Produced with symmetry
    /// canonicalization off so set comparisons see concrete processor
    /// labels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Succ {
        /// Per-processor red masks (entries `k..` are zero).
        pub reds: [u64; MAX_K],
        /// Green mask (zero without a tier).
        pub green: u64,
        /// Blue mask.
        pub blue: u64,
        /// Edge cost of the generating move.
        pub cost: u64,
    }

    impl Succ {
        fn of(key: &Key, cost: u64) -> Self {
            Succ {
                reds: key.reds,
                green: key.green,
                blue: key.blue,
                cost,
            }
        }

        fn key(&self) -> Key {
            Key {
                reds: self.reds,
                green: self.green,
                blue: self.blue,
            }
        }
    }

    /// Every successor of `key` with the packed move generating it.
    fn expand_into(
        domain: &MppDomain,
        key: &Key,
        scratch: &mut MppScratch,
    ) -> Vec<(Succ, PackedMove)> {
        let mut out = Vec::new();
        domain.expand(key, scratch, &mut |k2, c, mv, _hv| {
            out.push((Succ::of(&k2, c), mv));
        });
        out
    }

    fn raw_config(dominance: bool) -> SearchConfig {
        SearchConfig {
            heuristic: false,
            symmetry: false,
            dominance,
            ..SearchConfig::default()
        }
    }

    /// One visited state of a successor walk (here and in the SPP
    /// probe), with successor snapshots of type `S`.
    #[derive(Debug, Clone)]
    pub struct WalkStep<S> {
        /// The expanded state (its `cost` is 0).
        pub parent: S,
        /// The naive generator's successors.
        pub naive: Vec<S>,
        /// The move behind each naive successor: its rule and shaded
        /// selection, under concrete processor labels.
        pub moves: Vec<(Rule, Vec<(ProcId, NodeId)>)>,
        /// The dominance-pruned generator's successors.
        pub pruned: Vec<S>,
    }

    /// Walks `steps` states from the root along a seeded random path
    /// (always stepping through a *naive* successor), returning every
    /// visited state with its naive and pruned successor sets.
    /// Panics on unsupported instances.
    #[must_use]
    pub fn successor_walk(
        instance: &MppInstance,
        tier: Option<GreenTier>,
        seed: u64,
        steps: usize,
    ) -> Vec<WalkStep<Succ>> {
        let naive = build_domain(instance, tier, &raw_config(false)).expect("unsupported instance");
        let pruned = build_domain(instance, tier, &raw_config(true)).expect("unsupported instance");
        let mut rng = Rng::new(seed);
        let mut scratch = MppScratch::default();
        let mut key = naive.root();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (ns, packed): (Vec<_>, Vec<_>) =
                expand_into(&naive, &key, &mut scratch).into_iter().unzip();
            if ns.is_empty() {
                break;
            }
            let decoded = |w| {
                let (rule, pairs) = decode(w, instance.k);
                let sel = pairs.into_iter().map(|(j, i)| (j, NodeId::new(i as usize)));
                (rule, sel.collect())
            };
            let pruned = expand_into(&pruned, &key, &mut scratch);
            let next = ns[rng.index(ns.len())].key();
            out.push(WalkStep {
                parent: Succ::of(&key, 0),
                naive: ns,
                moves: packed.into_iter().map(decoded).collect(),
                pruned: pruned.into_iter().map(|(s, _)| s).collect(),
            });
            key = next;
        }
        out
    }

    /// Canonicalization micro-kernel: sorts `iters` pseudo-random
    /// 4-mask keys through the memoized path; returns a checksum so the
    /// work cannot be optimized away.
    #[must_use]
    pub fn canon_kernel(iters: u64, seed: u64) -> u64 {
        let mut rng = Rng::new(seed);
        let mut acc = 0u64;
        for _ in 0..iters {
            let mut reds = [
                rng.next_u64() & 0xff,
                rng.next_u64() & 0xff,
                rng.next_u64() & 0xff,
                rng.next_u64() & 0xff,
            ];
            if !is_sorted_desc(&reds) {
                sort_desc(&mut reds);
            }
            acc = acc.wrapping_add(reds[0]).rotate_left(7) ^ reds[3];
        }
        acc
    }

    /// Heuristic micro-kernel: evaluates the admissible bound for every
    /// successor along a seeded walk, either through the incremental
    /// delta path (`delta = true`) or from scratch, until `iters`
    /// evaluations have run. Returns a checksum of the bounds.
    #[must_use]
    pub fn heur_kernel(instance: &MppInstance, iters: u64, delta: bool, seed: u64) -> u64 {
        let domain = build_domain(instance, None, &raw_config(true)).expect("unsupported instance");
        let mut rng = Rng::new(seed);
        let mut scratch = MppScratch::default();
        let mut stats = PhaseStats::default();
        let mut key = domain.root();
        let mut acc = 0u64;
        let mut done = 0u64;
        while done < iters {
            let succs = expand_into(&domain, &key, &mut scratch);
            if succs.is_empty() {
                key = domain.root();
                continue;
            }
            let ctx = domain
                .heur
                .prepare(key.red_all(), key.outer(), 0)
                .expect("MPP states are never dead");
            for (s, _) in &succs {
                let (red_all, outer) = (s.key().red_all(), s.key().outer());
                let hv = if delta {
                    domain.heur.eval_delta(&ctx, red_all, outer, 0, &mut stats)
                } else {
                    domain.heur.eval(red_all, outer, 0)
                };
                acc = acc.rotate_left(5) ^ hv.unwrap_or(u64::MAX);
                done += 1;
                if done >= iters {
                    break;
                }
            }
            key = succs[rng.index(succs.len())].0.key();
        }
        acc
    }

    /// Successor-generation micro-kernel: expands states along a seeded
    /// walk (heuristic delta and canonicalization included, as in the
    /// real hot loop) until `iters` expansions have run; returns the
    /// total number of emitted successors.
    #[must_use]
    pub fn expand_kernel(instance: &MppInstance, iters: u64, dominance: bool, seed: u64) -> u64 {
        let config = SearchConfig {
            dominance,
            ..SearchConfig::default()
        };
        let domain = build_domain(instance, None, &config).expect("unsupported instance");
        let mut rng = Rng::new(seed);
        let mut scratch = MppScratch::default();
        let mut key = domain.root();
        let mut emitted = 0u64;
        for _ in 0..iters {
            let succs = expand_into(&domain, &key, &mut scratch);
            emitted += succs.len() as u64;
            if succs.is_empty() {
                key = domain.root();
                continue;
            }
            key = succs[rng.index(succs.len())].0.key();
        }
        emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rbp_dag::{dag_from_edges, generators};

    fn limits() -> SolveLimits {
        SolveLimits::states(500_000)
    }

    #[test]
    fn single_node_costs_one_compute() {
        let d = dag_from_edges(1, &[]);
        let sol = solve(&MppInstance::new(&d, 2, 1, 3), limits()).unwrap();
        assert_eq!(sol.total, 1);
        assert_eq!(sol.cost.computes, 1);
    }

    #[test]
    fn two_independent_chains_parallelize_perfectly() {
        // Lemma 7 tightness shape: k=2 halves the chain cost exactly.
        // r=3 so the finished chain's sink can stay resident while the
        // other chain is computed (r=2 would force a store or recompute).
        let d = generators::independent_chains(2, 4);
        let k1 = solve(&MppInstance::new(&d, 1, 3, 2), limits()).unwrap();
        let k2 = solve(&MppInstance::new(&d, 2, 3, 2), limits()).unwrap();
        assert_eq!(k1.total, 8, "8 sequential computes");
        assert_eq!(k2.total, 4, "4 parallel compute steps");
    }

    #[test]
    fn communication_chain_needs_two_io_or_restart() {
        // 0 -> 1 with k=2: optimal is to do it all on one processor
        // (cost 2), never paying 2g to communicate.
        let d = dag_from_edges(2, &[(0, 1)]);
        let sol = solve(&MppInstance::new(&d, 2, 2, 5), limits()).unwrap();
        assert_eq!(sol.total, 2);
        assert_eq!(sol.cost.io_steps(), 0);
    }

    #[test]
    fn k1_matches_spp_with_compute_costs() {
        use crate::{solve_spp, SppInstance};
        let d = generators::binary_in_tree(4);
        for r in 3..=4 {
            let mpp = solve(&MppInstance::new(&d, 1, r, 2), limits()).unwrap();
            let spp =
                solve_spp(&SppInstance::with_compute(&d, r, 2), SolveLimits::default()).unwrap();
            assert_eq!(mpp.total, spp.total, "r={r}");
        }
    }

    #[test]
    fn more_processors_never_hurt_in_practical_comparison() {
        // Same r, larger k: OPT can only decrease (§5 practical case).
        let d = generators::binary_in_tree(4);
        let k1 = solve(&MppInstance::new(&d, 1, 3, 2), limits()).unwrap();
        let k2 = solve(&MppInstance::new(&d, 2, 3, 2), limits()).unwrap();
        assert!(k2.total <= k1.total);
    }

    #[test]
    fn witness_validates_and_batches() {
        let d = generators::independent_chains(2, 3);
        let inst = MppInstance::new(&d, 2, 3, 1);
        let sol = solve(&inst, limits()).unwrap();
        let cost = sol.strategy.validate(&inst).unwrap();
        assert_eq!(cost.total(inst.model), sol.total);
        assert_eq!(sol.total, 3);
        // The witness must use full batches to reach cost 3.
        assert!(sol
            .strategy
            .moves
            .iter()
            .all(|m| m.batch_size() == 2 || matches!(m, MppMove::Remove(_))));
    }

    #[test]
    fn infeasible_and_oversized_rejected() {
        let d = dag_from_edges(3, &[(0, 2), (1, 2)]);
        assert!(solve(&MppInstance::new(&d, 2, 2, 1), limits()).is_none());
        assert!(solve(&MppInstance::new(&d, 5, 3, 1), limits()).is_none());
        let big = generators::chain(65);
        assert!(solve(&MppInstance::new(&big, 2, 2, 1), limits()).is_none());
    }

    #[test]
    fn empty_dag_is_free() {
        let d = dag_from_edges(0, &[]);
        let sol = solve(&MppInstance::new(&d, 2, 1, 1), limits()).unwrap();
        assert_eq!(sol.total, 0);
    }

    #[test]
    fn state_budget_aborts() {
        let d = generators::grid(3, 3);
        let out = solve_with(
            &MppInstance::new(&d, 2, 3, 1),
            &SearchConfig::default().with_limits(SolveLimits::states(5)),
        );
        assert!(out.solution.is_none());
        assert_eq!(out.reason, StopReason::StateLimit);
    }

    #[test]
    fn deadline_aborts_with_distinct_reason() {
        let d = generators::grid(3, 3);
        let limits = SolveLimits::states(500_000).with_deadline(std::time::Duration::from_nanos(0));
        let out = solve_with(
            &MppInstance::new(&d, 2, 3, 1),
            &SearchConfig::default().with_limits(limits),
        );
        assert!(out.solution.is_none());
        assert_eq!(out.reason, StopReason::Deadline);
    }

    #[test]
    fn stop_reasons_for_trivial_and_unsupported() {
        let d = dag_from_edges(1, &[]);
        let out = solve_with(&MppInstance::new(&d, 2, 1, 3), &SearchConfig::default());
        assert_eq!(out.reason, StopReason::Solved);
        let big = generators::chain(65);
        let out = solve_with(&MppInstance::new(&big, 2, 2, 1), &SearchConfig::default());
        assert_eq!(out.reason, StopReason::Unsupported);
    }

    #[test]
    fn parallel_matches_sequential_cost() {
        for (d, k, r, g) in [
            (generators::grid(2, 3), 2, 3, 2),
            (generators::binary_in_tree(4), 2, 3, 1),
            (generators::independent_chains(2, 4), 2, 3, 2),
        ] {
            let inst = MppInstance::new(&d, k, r, g);
            let seq = solve_with(&inst, &SearchConfig::default());
            for threads in [2usize, 4] {
                let par = solve_with(&inst, &SearchConfig::default().with_threads(threads));
                let (s, p) = (seq.solution.as_ref().unwrap(), par.solution.unwrap());
                assert_eq!(s.total, p.total, "{} threads={threads}", d.name());
                p.strategy.validate(&inst).unwrap();
                assert_eq!(par.reason, StopReason::Solved);
                assert_eq!(par.shards.len(), threads);
                assert_eq!(par.stats.threads, threads as u64);
            }
        }
    }

    #[test]
    fn capacity_one_processors_make_progress() {
        // Regression for the R4-M guard: with r = 1 every processor is
        // at capacity after one compute; lazy eviction (generated at
        // `count >= r`, not `== r` only) must free the slot so the
        // sweep continues — including under symmetry canonicalization.
        let d = dag_from_edges(3, &[]);
        for symmetry in [false, true] {
            let cfg = SearchConfig {
                symmetry,
                ..SearchConfig::default()
            };
            let sol = solve_with(&MppInstance::new(&d, 2, 1, 1), &cfg)
                .solution
                .unwrap();
            // ceil(3/2) = 2 compute batches; only 2 red pebbles exist
            // in total, so the third sink must be stored blue: + g.
            assert_eq!(sol.total, 3, "symmetry={symmetry}");
            assert_eq!(sol.cost.computes, 2);
            assert_eq!(sol.cost.io_steps(), 1);
            sol.strategy
                .validate(&MppInstance::new(&d, 2, 1, 1))
                .unwrap();
        }
    }

    #[test]
    fn optimized_and_baseline_agree() {
        for (d, k, r, g) in [
            (generators::binary_in_tree(4), 2, 3, 2),
            (generators::diamond(2), 2, 3, 1),
            (generators::grid(2, 3), 3, 3, 2),
            (generators::independent_chains(3, 2), 3, 2, 3),
        ] {
            let inst = MppInstance::new(&d, k, r, g);
            let base = solve_with(&inst, &SearchConfig::baseline());
            let opt = solve_with(&inst, &SearchConfig::default());
            let (b, o) = (base.solution.unwrap(), opt.solution.unwrap());
            assert_eq!(b.total, o.total, "{} k={k} r={r} g={g}", d.name());
            o.strategy.validate(&inst).unwrap();
        }
    }

    #[test]
    fn symmetry_and_heuristic_shrink_the_search() {
        let d = generators::binary_in_tree(4);
        let inst = MppInstance::new(&d, 2, 3, 2);
        let base = solve_with(&inst, &SearchConfig::baseline());
        let opt = solve_with(&inst, &SearchConfig::default());
        assert_eq!(
            base.solution.unwrap().total,
            opt.solution.as_ref().unwrap().total
        );
        assert!(
            opt.stats.settled * 2 < base.stats.settled,
            "optimized settled {} vs baseline {}",
            opt.stats.settled,
            base.stats.settled
        );
    }

    #[test]
    fn witness_unpermutes_correctly_under_symmetry() {
        // A DAG forcing cross-processor traffic: the witness must remain
        // valid (consistent shade labels) after canonical reconstruction.
        let d = generators::grid(2, 2);
        let inst = MppInstance::new(&d, 2, 3, 1);
        let sol = solve(&inst, limits()).unwrap();
        let cost = sol.strategy.validate(&inst).unwrap();
        assert_eq!(cost.total(inst.model), sol.total);
    }
}
