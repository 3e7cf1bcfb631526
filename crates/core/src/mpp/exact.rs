//! Exact optimal search for every pebbling game on small instances.
//!
//! One A\* search over configurations `(R^1..R^k, [G,] B[, C])` packed
//! into `u64` masks, built on the shared [`crate::search`] engine,
//! serves the paper's multiprocessor game, the single-processor game
//! with its §3.1 variants as the `k = 1` case, and `rbp-hier`'s
//! three-level game. [`solve_game`] reads the rule kernel's [`Game`] —
//! `k`, `r`, the green capacity and the SPP variant — plus the rule
//! costs, so the move checker and the search share one description of
//! the game. Transitions are whole rule applications: all non-empty
//! batched selections of a single rule type are enumerated (each
//! processor independently acts or idles), so the solver exploits the
//! paper's one-cost-per-parallel-step semantics exactly.
//!
//! The game's parameters shape the state space:
//!
//! - **Green tier** (`green_cap > 0`): a shared green set `G` of
//!   bounded capacity between the red and blue memories, with one
//!   batched store/load pair of its own cost. The green set is
//!   invariant under shade relabeling, so symmetry and the permutation
//!   trail carry over; green pebbles are evicted lazily when the tier is
//!   full and stored at most into its free slots; and `G ∪ B` plays the
//!   blue role in the goal test and the heuristic, whose reload cost
//!   drops to `min(g, green)`.
//! - **One-shot**: an ever-computed mask `C`, packed after blue, forbids
//!   a second compute. A state whose needed nodes were computed and
//!   dropped is dead — the heuristic returns `None` — and is pruned
//!   exactly.
//! - **Hong–Kung convention**: the root's blue set holds the sources,
//!   which are never computed, and the goal requires blue sinks.
//! - **No deletion**: no eviction is generated.
//!
//! Without a tier or the one-shot variant the key packs the `k + 1`
//! two-level fields, and the green and ever-computed masks share one
//! slot of the unpacked key (no game has both). The key's red array is
//! sized by `k` (a const generic, dispatched once per solve), so the
//! per-expansion cost scales with the processor count.
//!
//! State-space reductions, all correctness-preserving:
//!
//! - **Processor symmetry.** Processors are interchangeable (equal
//!   capacity `r`, shared green and blue memory), so configurations
//!   differing only by a relabeling of shades are equivalent. Keys are
//!   canonicalized by sorting the per-processor red masks, collapsing up
//!   to `k!` states into one; witness reconstruction re-applies the
//!   permutation trail so the returned strategy uses consistent concrete
//!   labels. Vacuous with one processor, where it is skipped.
//! - **Admissible heuristic.** `ceil(|needed| / k) · compute` plus
//!   re-entry and forced-I/O terms, where `needed` is the set of nodes
//!   that provably must still be computed (see
//!   [`crate::search::AdmissibleHeuristic`]). With the heuristic
//!   disabled the solver degenerates to the original uniform-cost
//!   search.
//! - The two classic normalizations: blue pebbles are never deleted,
//!   and red deletions are generated lazily, only on a processor at
//!   capacity (`≥ r`, so a capacity-1 processor still makes progress).
//! - **Dominance.** Only inclusion-maximal batches are generated (see
//!   `Batches`). With one processor a compute batch is one node, so
//!   recomputing a stored node is dominated by reloading it when
//!   `g ≤ compute` outside the one-shot variant: the load reaches the
//!   identical successor at no greater cost.
//!
//! Complexity is brutal by design (the problem is NP-hard even for
//! 2-layer DAGs, Lemma 2): intended for `n ≤ ~10` at `k ≤ 4`, and
//! `n ≤ ~14` for one processor.

use rbp_dag::NodeId;
use rbp_util::Json;

use crate::arena::{pack_fields, unpack_fields, words_for};
use crate::driver::{self, Domain, EmitFn};
use crate::rules::{Game, Move, Rule};
use crate::search::{
    game_masks, trace_shards, PackedMove, Phase, PhaseProf, SearchConfig, SearchOutcome, StopReason,
};
use crate::{AdmissibleHeuristic, Cost, CostModel, MppInstance, MppStrategy, ProcId, SolveLimits};

const MAX_K: usize = 4;

/// Evaluates `$body` with the constant `$K` bound to the processor
/// count `$k` when the search supports it (`1..=MAX_K`), `$other`
/// otherwise.
macro_rules! with_k {
    ($k:expr, $K:ident => $body:expr, _ => $other:expr) => {
        match $k {
            1 => {
                const $K: usize = 1;
                $body
            }
            2 => {
                const $K: usize = 2;
                $body
            }
            3 => {
                const $K: usize = 3;
                $body
            }
            4 => {
                const $K: usize = 4;
                $body
            }
            _ => $other,
        }
    };
}

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

/// A search state: one red mask per processor, the shared blue mask,
/// and one variant mask `extra` — the green set with a tier, the
/// ever-computed set under one-shot, empty otherwise (so states
/// collapse). No game needs both (the search rejects one that would),
/// which keeps the one-processor key at three words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key<const K: usize> {
    reds: [u64; K],
    blue: u64,
    extra: u64,
}

impl<const K: usize> Key<K> {
    #[inline]
    fn red_all(&self) -> u64 {
        self.reds.iter().fold(0, |a, &b| a | b)
    }
}

// Packed move layout (see `crate::search::PackedMove`): bits 28..=30
// hold the rule tag; batch moves store one 7-bit slot per processor
// (bit 6 = active, bits 0..=5 = node) in bits 0..=27; removals store
// the node in bits 0..=5 and, for red removals, the processor in bits
// 6..=7.
#[inline]
fn batch_slot(proc: usize, node: u32) -> PackedMove {
    (0x40 | node) << (7 * proc as u32)
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
/// `canonical.reds[q] == raw.reds[pi[q]]`. The shared blue and variant
/// masks are invariant under shade relabeling.
fn canon_with_perm<const K: usize>(raw: Key<K>, symmetry: bool) -> (Key<K>, [usize; K]) {
    let mut idx: [usize; K] = std::array::from_fn(|j| j);
    if !symmetry {
        return (raw, idx);
    }
    idx.sort_by(|&a, &b| raw.reds[b].cmp(&raw.reds[a]));
    let mut out = raw;
    for (q, &i) in idx.iter().enumerate() {
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
        ],
    );
    solve_game(&Game::mpp(instance), instance.model, 0, config, "mpp").map(|(total, moves)| {
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

/// The search behind every exact solver: solves `game` under the
/// `model` costs — plus `green_cost` per green store or load, read only
/// when the game has a green tier — and reports the search counters
/// under `solver.<which>.*` trace names. The solution is the optimal
/// total plus the witness in the caller's move type `M`, each move
/// built by [`Move::from_rule`] with the shaded selection under concrete
/// processor labels; the caller validates the strategy.
///
/// Unsupported (`None` with [`StopReason::Unsupported`]) when the game
/// is infeasible (`r ≤ Δ_in`), too large for the packed key (`n > 64`,
/// `k > 4` or a green capacity above 64), both three-level and
/// one-shot, or priced so high that the search's sums could overflow a
/// `u64` within `config`'s state budget.
#[must_use]
pub fn solve_game<M: Move>(
    game: &Game,
    model: CostModel,
    green_cost: u64,
    config: &SearchConfig,
    which: &str,
) -> SearchOutcome<(u64, Vec<M>)> {
    let out = with_k!(game.k, K => solve_k::<K, M>(game, model, green_cost, config),
        _ => SearchOutcome::stopped(StopReason::Unsupported));
    out.stats
        .trace(which, out.solution.as_ref().map(|&(total, _)| total));
    trace_shards(which, &out.shards);
    out.phases.trace(which);
    out
}

fn solve_k<const K: usize, M: Move>(
    game: &Game,
    model: CostModel,
    green_cost: u64,
    config: &SearchConfig,
) -> SearchOutcome<(u64, Vec<M>)> {
    if game.dag.n() == 0 && game.green_cap <= 64 {
        return SearchOutcome {
            solution: Some((0, Vec::new())),
            ..SearchOutcome::stopped(StopReason::Solved)
        };
    }
    let Some(domain) = MppDomain::<K>::build(game, model, green_cost, config) else {
        return SearchOutcome::stopped(StopReason::Unsupported);
    };
    // A dead root (one-shot variants) is caught by the driver through
    // the heuristic's `None` and reported as `Exhausted`.
    let out = driver::search(&domain, config);
    SearchOutcome {
        solution: out
            .best
            .map(|(total, path)| (total, domain.reconstruct(path))),
        stats: out.stats,
        reason: out.reason,
        shards: out.shards,
        phases: out.phases,
    }
}

/// The largest sum the search can form on a game of `n` nodes whose
/// edges cost at most `e`, within `max_states` expansions; `None` when
/// it overflows a `u64`.
///
/// A distance is a sum of edge costs along a chain of expansions, one
/// per settled state, and the state budget caps those, so it is at most
/// `max_states · e`. Each term of [`AdmissibleHeuristic::eval`] counts
/// at most `n` nodes, at a compute, a load (at most `g`) or a store
/// each, so `h ≤ n·(compute + 2g)`. The largest sums are then the
/// probe's priority `d + ⌊h·3/2⌋` and the `h·3` inside it.
fn largest_sum(n: u64, e: u64, model: CostModel, max_states: u64) -> Option<u64> {
    let h_max = model
        .g
        .checked_mul(2)?
        .checked_add(model.compute)?
        .checked_mul(n)?;
    let (num, _) = driver::PROBE_WEIGHT;
    h_max
        .checked_mul(num)?
        .checked_add(max_states.checked_mul(e)?)
}

/// A game's state space described for the shared search drivers: keys
/// are `(R^1..R^k, [G,] B[, C])` masks bit-packed to `n` bits a field —
/// the green field with a tier, the ever-computed field under one-shot;
/// successors are whole batched rule applications (canonicalized under
/// processor symmetry before emission).
struct MppDomain<const K: usize> {
    n: usize,
    /// Packed fields: the red masks, the green mask if a tier exists,
    /// the blue mask, and the ever-computed mask under one-shot.
    fields: usize,
    r: usize,
    green_cap: usize,
    green_cost: u64,
    compute: u64,
    g: u64,
    /// All ones where the key's `extra` mask is the green set (a
    /// tier exists), zero otherwise.
    green_bits: u64,
    /// All ones where the key's `extra` mask is the ever-computed set
    /// (one-shot), zero otherwise.
    computed_bits: u64,
    no_delete: bool,
    sinks_need_blue: bool,
    /// Nodes rule R3 never fires on: the sources under the Hong–Kung
    /// convention, where they also start blue.
    sources_blue: u64,
    preds_mask: Vec<u64>,
    sinks_mask: u64,
    heur: AdmissibleHeuristic,
    use_heuristic: bool,
    symmetry: bool,
    dominance: bool,
    /// Recomputing a blue node is dominated by reloading it: the
    /// successors coincide and `g ≤ compute`. Sound only where a compute
    /// batch is one node (`k = 1`) and outside the one-shot variant,
    /// whose successors differ in the ever-computed mask.
    reload_dominates: bool,
}

impl<const K: usize> MppDomain<K> {
    /// Builds the search domain for a supported, non-empty, feasible
    /// game whose sums fit a `u64`; `None` otherwise (the caller
    /// distinguishes the trivial `n == 0` case itself).
    fn build(
        game: &Game,
        model: CostModel,
        green_cost: u64,
        config: &SearchConfig,
    ) -> Option<Self> {
        debug_assert_eq!(game.k, K);
        let dag = game.dag;
        let n = dag.n();
        let variant = game.variant;
        let fields = K + 1 + usize::from(game.green_cap > 0 || variant.one_shot);
        if n == 0
            || n > 64
            || game.green_cap > 64
            || (game.green_cap > 0 && variant.one_shot)
            || game.r <= dag.max_in_degree()
        {
            return None;
        }
        // A wrapped distance would corrupt the parent chains.
        let tier_cost = if game.green_cap > 0 { green_cost } else { 0 };
        largest_sum(
            n as u64,
            model.g.max(model.compute).max(tier_cost),
            model,
            config.limits.max_states as u64,
        )?;
        let (preds_mask, sinks_mask, sources_blue) = game_masks(game);

        Some(MppDomain {
            n,
            fields,
            r: game.r,
            green_cap: game.green_cap,
            green_cost,
            compute: model.compute,
            g: model.g,
            green_bits: if game.green_cap > 0 { u64::MAX } else { 0 },
            computed_bits: if variant.one_shot { u64::MAX } else { 0 },
            no_delete: variant.no_delete,
            sinks_need_blue: variant.sinks_need_blue,
            sources_blue,
            preds_mask,
            sinks_mask,
            heur: AdmissibleHeuristic::new(game, model, green_cost),
            use_heuristic: config.heuristic,
            symmetry: config.symmetry,
            dominance: config.dominance,
            reload_dominates: config.dominance
                && K == 1
                && !variant.one_shot
                && model.g <= model.compute,
        })
    }

    /// The green set of `key` (empty without a tier).
    #[inline]
    fn green(&self, key: &Key<K>) -> u64 {
        key.extra & self.green_bits
    }

    /// The ever-computed set of `key` (empty outside one-shot).
    #[inline]
    fn computed(&self, key: &Key<K>) -> u64 {
        key.extra & self.computed_bits
    }

    /// The pebbles outside fast memory: green joins blue as "available
    /// without recomputing" for the goal test and the heuristic.
    #[inline]
    fn outer(&self, key: &Key<K>) -> u64 {
        key.blue | self.green(key)
    }

    /// Applies one entry `(j, bit)` of a `rule` selection to `key`.
    #[inline]
    fn apply(&self, key: &mut Key<K>, rule: Rule, j: usize, bit: u64) {
        match rule {
            Rule::Compute => {
                key.reds[j] |= bit;
                key.extra |= bit & self.computed_bits;
            }
            Rule::Load | Rule::LoadGreen => key.reds[j] |= bit,
            Rule::Store => key.blue |= bit,
            Rule::StoreGreen => key.extra |= bit,
            Rule::RemoveRed => key.reds[j] &= !bit,
            Rule::RemoveGreen => key.extra &= !bit,
            Rule::RemoveBlue => key.blue &= !bit,
        }
    }

    /// Rebuilds the witness from the canonical-state parent chain.
    ///
    /// With symmetry reduction each stored move is expressed in the
    /// frame of its parent's canonical representative, while the
    /// canonical successor is a *sorted* relabeling of the raw
    /// successor. Replaying forward, we maintain the composed
    /// permutation `perm` (canonical index → concrete processor id) and
    /// build every move under concrete labels, so the strategy validates
    /// against the ordinary rules.
    fn reconstruct<M: Move>(&self, path: Vec<(Key<K>, PackedMove)>) -> Vec<M> {
        let mut perm: [usize; K] = std::array::from_fn(|j| j);
        let mut cur = path.first().map_or(self.root(), |&(p, _)| p);
        let mut moves = Vec::with_capacity(path.len());
        for (parent, mv) in path {
            debug_assert_eq!(parent, cur);
            let (rule, pairs) = decode(mv, K);
            let concrete = pairs
                .iter()
                .map(|&(j, i)| (perm[j], NodeId::new(i as usize)))
                .collect();
            moves.push(M::from_rule(rule, concrete));
            let mut raw = parent;
            for &(j, i) in &pairs {
                self.apply(&mut raw, rule, j, 1u64 << i);
            }
            let (next, pi) = canon_with_perm(raw, self.symmetry && K > 1);
            let prev_perm = perm;
            for q in 0..K {
                perm[q] = prev_perm[pi[q]];
            }
            cur = next;
        }
        moves
    }
}

impl<const K: usize> Domain for MppDomain<K> {
    type Key = Key<K>;

    fn key_words(&self) -> usize {
        words_for(self.fields, self.n)
    }

    // Pack and unpack index the field array with constants only, one
    // branch per layout (`extra` goes before blue with a tier, after it
    // under one-shot): that keeps a one-processor solve as fast as the
    // single-processor key this layout replaced, where runtime indices
    // and lengths measured ~3% slower.
    fn pack(&self, key: &Key<K>, out: &mut [u64]) {
        let mut fields = [0u64; MAX_K + 2];
        fields[..K].copy_from_slice(&key.reds);
        (fields[K], fields[K + 1]) = if self.green_cap > 0 {
            (key.extra, key.blue)
        } else {
            (key.blue, key.extra)
        };
        if self.fields == K + 1 {
            pack_fields(&fields[..K + 1], self.n, out);
        } else {
            pack_fields(&fields[..K + 2], self.n, out);
        }
    }

    fn unpack(&self, words: &[u64]) -> Key<K> {
        let mut fields = [0u64; MAX_K + 2];
        if self.fields == K + 1 {
            unpack_fields(words, self.n, &mut fields[..K + 1]);
        } else {
            unpack_fields(words, self.n, &mut fields[..K + 2]);
        }
        let (blue, extra) = if self.green_cap > 0 {
            (fields[K + 1], fields[K])
        } else {
            (fields[K], fields[K + 1])
        };
        Key {
            reds: std::array::from_fn(|j| fields[j]),
            blue,
            extra,
        }
    }

    fn root(&self) -> Key<K> {
        Key {
            reds: [0; K],
            blue: self.sources_blue,
            extra: 0,
        }
    }

    fn is_goal(&self, key: &Key<K>) -> bool {
        let done = if self.sinks_need_blue {
            key.blue
        } else {
            key.red_all() | self.outer(key)
        };
        self.sinks_mask & !done == 0
    }

    fn heuristic(&self, key: &Key<K>) -> Option<u64> {
        if self.use_heuristic {
            self.heur
                .eval(key.red_all(), self.outer(key), self.computed(key))
        } else {
            Some(0)
        }
    }

    fn expand(&self, key: &Key<K>, prof: &mut PhaseProf, emit: EmitFn<'_, Key<K>>) {
        let r = self.r;
        let key = *key;
        let green = self.green(&key);

        let mut emit_raw = |mut raw: Key<K>, cost: u64, mv: PackedMove| {
            // Canonicalization is vacuous with one processor.
            if K > 1 && self.symmetry {
                let t0 = prof.start();
                if is_sorted_desc(&raw.reds) {
                    prof.stats.canon_memo_hits += 1;
                } else {
                    sort_desc(&mut raw.reds);
                    prof.stats.canon_sorts += 1;
                }
                prof.stop(Phase::Canonicalize, t0);
            }
            emit(raw, cost, mv);
        };

        if !self.no_delete {
            // --- R4-M: lazy red eviction on full processors (cost 0). ---
            for j in 0..K {
                if key.reds[j].count_ones() as usize >= r {
                    for i in iter_bits(key.reds[j]) {
                        let mut nk = key;
                        nk.reds[j] &= !(1u64 << i);
                        emit_raw(nk, 0, encode_remove(Rule::RemoveRed, j, i));
                    }
                }
            }

            // --- R4-H: lazy green eviction when the tier is full. ---
            if self.green_cap > 0 && green.count_ones() as usize >= self.green_cap {
                for i in iter_bits(green) {
                    let mut nk = key;
                    nk.extra &= !(1u64 << i);
                    emit_raw(nk, 0, encode_remove(Rule::RemoveGreen, 0, i));
                }
            }
        }

        let has_room = |j: usize| (key.reds[j].count_ones() as usize) < r;
        let mut suppressed = 0u64;

        // --- R3-M: batched computes. ---
        // Option masks per processor: eligible nodes (not yet red here,
        // all predecessors red here, computable in this variant), empty
        // at capacity.
        let fresh = !(self.sources_blue | self.computed(&key));
        let mut computable: [u64; K] = std::array::from_fn(|j| {
            if !has_room(j) {
                return 0;
            }
            let red = key.reds[j];
            let mut ready = 0u64;
            for (i, &pm) in self.preds_mask.iter().enumerate() {
                if pm & !red == 0 {
                    ready |= 1u64 << i;
                }
            }
            ready & fresh & !red
        });
        if self.reload_dominates {
            for opts in &mut computable {
                suppressed += u64::from((*opts & key.blue).count_ones());
                *opts &= !key.blue;
            }
        }
        // Emits every batch over the per-processor option masks as one
        // application of `rule` (see `Batches`).
        let mut batched = |rule: Rule, options: [u64; K], distinct: bool, budget: usize, cost| {
            let batches = Batches {
                domain: self,
                rule,
                options,
                distinct,
                budget,
            };
            batches.each(key, &mut suppressed, &mut |nk, mv| emit_raw(nk, cost, mv));
        };
        batched(Rule::Compute, computable, false, usize::MAX, self.compute);

        // --- R2-M: batched blue loads (distinct vertices). ---
        let loadable =
            |src: u64| std::array::from_fn(|j| if has_room(j) { src & !key.reds[j] } else { 0 });
        batched(Rule::Load, loadable(key.blue), true, usize::MAX, self.g);

        // --- R1-M: batched blue stores (distinct vertices). ---
        // Storing an already-blue node is structurally excluded by the
        // option mask — the other half of the dominance story.
        let blue_stores = std::array::from_fn(|j| key.reds[j] & !key.blue);
        batched(Rule::Store, blue_stores, true, usize::MAX, self.g);

        if self.green_cap > 0 {
            // --- R6-H: batched green loads (distinct vertices). ---
            let green_loads = loadable(green);
            batched(
                Rule::LoadGreen,
                green_loads,
                true,
                usize::MAX,
                self.green_cost,
            );

            // --- R5-H: batched green stores (distinct vertices, bounded
            // by the shared capacity — the enumerator's `budget` enforces
            // the free-slot cap, and maximality is judged against it, so
            // a batch filling every free slot is maximal even when idle
            // processors still hold storable values). ---
            let free = self.green_cap.saturating_sub(green.count_ones() as usize);
            if free > 0 {
                let green_stores = std::array::from_fn(|j| key.reds[j] & !green);
                batched(Rule::StoreGreen, green_stores, true, free, self.green_cost);
            }
        }

        prof.stats.idle_suppressed += suppressed;
    }
}

/// The non-empty batches of one rule over per-processor option masks:
/// each processor picks one set bit of its mask or idles. With
/// `distinct`, no vertex may repeat across the batch (R1-M/R2-M set
/// semantics; for stores a repeated vertex would be a redundant
/// double-write anyway). `budget` caps the number of acting processors
/// (the green-store slot budget; `usize::MAX` otherwise). Each batch
/// reaches its successor key and packed move incrementally, so the
/// enumeration allocates nothing.
///
/// With dominance pruning, only **inclusion-maximal** batches survive:
/// a batch where some idle processor could still be assigned an option
/// (unused, under the budget) is rejected, because the extended batch
/// keeps the same flat batch cost and reaches a configuration that is a
/// pointwise superset — any completion from the partial state is
/// simulated from the extended one (free lazy evictions shed the extra
/// red pebble whenever a slot is needed; extra blue never hurts; the
/// goal test is monotone coverage). Maximality is checked at the leaf
/// against the *final* used-vertex set, never greedily per processor:
/// with distinct vertices, forcing an early processor to take a
/// contended vertex would wrongly prune the batch that gives it to a
/// later processor, which no emitted batch dominates. Pruned
/// branches/leaves are counted into `suppressed`.
struct Batches<'a, const K: usize> {
    domain: &'a MppDomain<K>,
    rule: Rule,
    options: [u64; K],
    distinct: bool,
    budget: usize,
}

impl<const K: usize> Batches<'_, K> {
    /// Calls `f(successor, packed_move)` for every batch applied to
    /// `key`, in processor-major, ascending-vertex order.
    #[inline]
    fn each(&self, key: Key<K>, suppressed: &mut u64, f: &mut impl FnMut(Key<K>, PackedMove)) {
        self.choose(0, 0, 0, key, (self.rule as u32) << 28, suppressed, f);
    }

    /// The options of processor `j` still free after `used`.
    #[inline]
    fn avail(&self, j: usize, used: u64) -> u64 {
        if self.distinct {
            self.options[j] & !used
        } else {
            self.options[j]
        }
    }

    /// The recursion point of [`Batches::choose`], kept out of line so
    /// that the first processor's choices inline into [`Batches::each`]
    /// — with one processor, the whole enumeration is a plain bit loop.
    #[allow(clippy::too_many_arguments)]
    fn extend(
        &self,
        j: usize,
        acted: usize,
        used: u64,
        nk: Key<K>,
        mv: PackedMove,
        suppressed: &mut u64,
        f: &mut impl FnMut(Key<K>, PackedMove),
    ) {
        self.choose(j, acted, used, nk, mv, suppressed, f);
    }

    /// Extends the partial batch `mv` — `acted` processors below `j`
    /// acting on the vertices `used`, reaching `nk` — by processor `j`
    /// idling or acting.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn choose(
        &self,
        j: usize,
        acted: usize,
        used: u64,
        nk: Key<K>,
        mv: PackedMove,
        suppressed: &mut u64,
        f: &mut impl FnMut(Key<K>, PackedMove),
    ) {
        let avail = self.avail(j, used);
        let can_act = avail != 0 && acted < self.budget;
        let last = j + 1 == K;
        // Idle branch. Without distinct vertices an option can never be
        // consumed by another processor, so an idling processor that
        // could act now could still act at the leaf — cut the whole
        // subtree early instead of rejecting every leaf. Only valid
        // when the budget can never bind (a leaf that hits the budget
        // without this processor is maximal and must survive).
        if self.domain.dominance && !self.distinct && can_act && self.budget >= K {
            *suppressed += 1;
        } else if last {
            self.leaf(acted, used, nk, mv, suppressed, f);
        } else {
            self.extend(j + 1, acted, used, nk, mv, suppressed, f);
        }
        if !can_act {
            return;
        }
        for i in iter_bits(avail) {
            let bit = 1u64 << i;
            let mut next = nk;
            self.domain.apply(&mut next, self.rule, j, bit);
            let mv = mv | batch_slot(j, i);
            if last {
                self.leaf(acted + 1, used | bit, next, mv, suppressed, f);
            } else {
                self.extend(j + 1, acted + 1, used | bit, next, mv, suppressed, f);
            }
        }
    }

    /// Emits a complete batch unless it is empty or, under dominance
    /// pruning, not maximal.
    #[inline]
    fn leaf(
        &self,
        acted: usize,
        used: u64,
        nk: Key<K>,
        mv: PackedMove,
        suppressed: &mut u64,
        f: &mut impl FnMut(Key<K>, PackedMove),
    ) {
        if acted == 0 {
            return;
        }
        if self.domain.dominance && acted < self.budget {
            let idle = |j: usize| mv & batch_slot(j, 0) == 0;
            if (0..K).any(|j| idle(j) && self.avail(j, used) != 0) {
                // An idle processor could still act: this batch is
                // dominated by the one that also assigns it.
                *suppressed += 1;
                return;
            }
        }
        f(nk, mv);
    }
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
    //! successor-set equivalence property tests for every game — and
    //! the micro-kernels (`canonicalize`, per-expansion successor
    //! generation) timed by the `solver_kernel` bench group. Not a
    //! public API.

    use super::*;
    use rbp_util::Rng;

    /// A raw successor snapshot: per-processor red masks, the shared
    /// green and blue masks, the ever-computed mask, and edge cost.
    /// Produced with symmetry canonicalization off so set comparisons
    /// see concrete processor labels.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    pub struct Succ {
        /// Per-processor red masks (entries `k..` are zero).
        pub reds: [u64; MAX_K],
        /// Green mask (zero without a tier).
        pub green: u64,
        /// Blue mask.
        pub blue: u64,
        /// Ever-computed mask (zero outside the one-shot variant).
        pub computed: u64,
        /// Edge cost of the generating move.
        pub cost: u64,
    }

    impl Succ {
        fn of<const K: usize>(domain: &MppDomain<K>, key: &Key<K>, cost: u64) -> Self {
            Succ {
                reds: std::array::from_fn(|j| if j < K { key.reds[j] } else { 0 }),
                green: domain.green(key),
                blue: key.blue,
                computed: domain.computed(key),
                cost,
            }
        }

        fn key<const K: usize>(&self) -> Key<K> {
            Key {
                reds: std::array::from_fn(|j| self.reds[j]),
                blue: self.blue,
                extra: self.green | self.computed,
            }
        }
    }

    /// Every successor of `key` with the packed move generating it.
    fn expand_into<const K: usize>(
        domain: &MppDomain<K>,
        key: &Key<K>,
        scratch: &mut PhaseProf,
    ) -> Vec<(Succ, PackedMove)> {
        let mut out = Vec::new();
        domain.expand(key, scratch, &mut |k2, c, mv| {
            out.push((Succ::of(domain, &k2, c), mv));
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

    /// The search domain of an MPP instance.
    fn mpp_domain<const K: usize>(instance: &MppInstance, config: &SearchConfig) -> MppDomain<K> {
        MppDomain::build(&Game::mpp(instance), instance.model, 0, config)
            .expect("unsupported instance")
    }

    /// One visited state of a successor walk, with successor snapshots
    /// of type `S`.
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

    /// Walks `steps` states of `game` (costs as in [`solve_game`]) from
    /// the root along a seeded random path (always stepping through a
    /// *naive* successor), returning every visited state with its naive
    /// and pruned successor sets. Panics on unsupported games.
    #[must_use]
    pub fn successor_walk(
        game: &Game,
        model: CostModel,
        green_cost: u64,
        seed: u64,
        steps: usize,
    ) -> Vec<WalkStep<Succ>> {
        with_k!(game.k, K => walk::<K>(game, model, green_cost, seed, steps),
            _ => panic!("unsupported instance"))
    }

    fn walk<const K: usize>(
        game: &Game,
        model: CostModel,
        green_cost: u64,
        seed: u64,
        steps: usize,
    ) -> Vec<WalkStep<Succ>> {
        let build = |dominance| {
            MppDomain::<K>::build(game, model, green_cost, &raw_config(dominance))
                .expect("unsupported instance")
        };
        let (naive, pruned) = (build(false), build(true));
        let mut rng = Rng::new(seed);
        let mut scratch = PhaseProf::default();
        let mut key = naive.root();
        let mut out = Vec::with_capacity(steps);
        for _ in 0..steps {
            let (ns, packed): (Vec<_>, Vec<_>) =
                expand_into(&naive, &key, &mut scratch).into_iter().unzip();
            if ns.is_empty() {
                break;
            }
            let decoded = |w| {
                let (rule, pairs) = decode(w, K);
                let sel = pairs.into_iter().map(|(j, i)| (j, NodeId::new(i as usize)));
                (rule, sel.collect())
            };
            let pruned = expand_into(&pruned, &key, &mut scratch);
            let next = ns[rng.index(ns.len())].key();
            out.push(WalkStep {
                parent: Succ::of(&naive, &key, 0),
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

    /// Successor-generation micro-kernel: expands states along a seeded
    /// walk (canonicalization included, as in the real hot loop) until
    /// `iters` expansions have run; returns the total number of emitted
    /// successors. Bounds are the driver's to evaluate, so no heuristic
    /// runs here.
    #[must_use]
    pub fn expand_kernel(instance: &MppInstance, iters: u64, dominance: bool, seed: u64) -> u64 {
        with_k!(instance.k, K => expand_walk::<K>(instance, iters, dominance, seed),
            _ => panic!("unsupported instance"))
    }

    fn expand_walk<const K: usize>(
        instance: &MppInstance,
        iters: u64,
        dominance: bool,
        seed: u64,
    ) -> u64 {
        let config = SearchConfig {
            dominance,
            ..SearchConfig::default()
        };
        let domain = mpp_domain::<K>(instance, &config);
        let mut rng = Rng::new(seed);
        let mut scratch = PhaseProf::default();
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
    use crate::MppMove;
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
        // One search serves both games: at k = 1 the MPP and SPP facades
        // walk the same state space in the same order.
        use crate::{solve_spp_with, SppInstance};
        let d = generators::binary_in_tree(4);
        for r in 3..=4 {
            let config = SearchConfig::default().with_limits(limits());
            let mpp = solve_with(&MppInstance::new(&d, 1, r, 2), &config);
            let spp = solve_spp_with(&SppInstance::with_compute(&d, r, 2), &config);
            let (m, s) = (mpp.solution.unwrap(), spp.solution.unwrap());
            assert_eq!(m.total, s.total, "r={r}");
            assert_eq!(
                (mpp.stats.settled, mpp.stats.pushed),
                (spp.stats.settled, spp.stats.pushed),
                "r={r}"
            );
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
        // The chains' probe schedule meets the root's admissible bound,
        // which proves it optimal before any shard starts.
        for (d, k, r, g, shards_run) in [
            (generators::grid(2, 3), 2, 3, 2, true),
            (generators::binary_in_tree(4), 2, 3, 1, true),
            (generators::independent_chains(2, 4), 2, 3, 2, false),
        ] {
            let inst = MppInstance::new(&d, k, r, g);
            let seq = solve_with(&inst, &SearchConfig::default());
            let s = seq.solution.as_ref().unwrap();
            assert_eq!(
                s.total == seq.stats.h_root && seq.stats.settled == seq.stats.probe_settled,
                !shards_run,
                "{}: the probe meets h_root",
                d.name()
            );
            for threads in [2usize, 4] {
                let par = solve_with(&inst, &SearchConfig::default().with_threads(threads));
                let p = par.solution.unwrap();
                assert_eq!(s.total, p.total, "{} threads={threads}", d.name());
                p.strategy.validate(&inst).unwrap();
                assert_eq!(par.reason, StopReason::Solved);
                let workers = if shards_run { threads } else { 0 };
                assert_eq!(par.shards.len(), workers);
                assert_eq!(par.stats.threads, workers.max(1) as u64);
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
