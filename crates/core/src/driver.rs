//! Sequential and hash-sharded parallel A\* drivers over the [`Domain`]
//! abstraction.
//!
//! The one exact search (every game: MPP, SPP as its one-processor
//! case, and the three-level game's green tier) describes its state
//! space through [`Domain`] — packing/unpacking of bit-packed keys,
//! goal test, admissible heuristic, successor enumeration — and the
//! drivers here own the search loop, the packed interning arenas, and
//! the frontier.
//!
//! Both engines run the same per-shard search state, [`Search`]: an
//! arena and a frontier, the counters and the driver's phase timers, a
//! pop that skips stale entries, and the one batched relax step that
//! every successor goes through — generated or received over a ring.
//!
//! `threads = 1` runs [`sequential`]: one A\* loop in two phases over
//! one [`Search`]. The loop first runs as the incumbent probe, weighted
//! A\* (`f = g + h·3/2`) looking for any schedule; at its first goal,
//! or after [`PROBE_MAX_STATES`] expansions, it re-keys
//! its frontier at weight 1 and carries on as the exact search, pruning
//! against the probe's schedule and re-expanding a state the probe
//! reached the long way round (A\* with re-opening). It stops at the
//! first goal popped at weight 1 — optimal, by the argument on
//! [`sequential`] — or proves the probe's schedule optimal by emptying
//! the frontier below it. The frontier pops the smallest `f`, then the
//! deepest state (see `Frontier`).
//!
//! `threads ≥ 2` runs the same loop up to that switch and then
//! [`parallel`], which takes only the probe's incumbent (its shards
//! start from the root with arenas of their own) — unless that
//! incumbent meets the root's admissible bound, which proves it optimal
//! and starts no shard. The sharded engine is an HDA\*-style search
//! (Kishimoto et al.). Every canonical state is **owned** by the
//! shard its packed-key hash selects ([`crate::arena::shard_of`]); each
//! worker runs a [`Search`] of its own for its shard and forwards
//! successors it does not own over bounded SPSC rings, packed into
//! fixed-capacity [`MsgBlock`]s that flush on fill or on local-frontier
//! exhaustion. A shared atomic **incumbent** (best goal distance so
//! far) prunes pushes and pops; goals are not expanded but recorded,
//! and the search continues until global quiescence — at which point
//! every frontier's minimum `f` is at least the incumbent, which (with
//! the admissible heuristic) proves the incumbent optimal. Quiescence is
//! detected with monotone sent/received **block** counters plus an idle
//! bitmask, double-read so a racing message cannot be missed: `sent` is
//! incremented *before* a ring push and `received` *after* the block is
//! fully processed, and a worker flushes every out-buffer before
//! advertising idle, so "all workers idle and `sent == received`"
//! observed twice with no send in between implies no work exists
//! anywhere.
//!
//! Resource limits are **global** at any thread count and cover the
//! probe: a shared settled counter, which starts at the probe's count,
//! and the shared deadline abort every worker through a status word,
//! and the distinct abort causes surface as [`StopReason::StateLimit`]
//! vs [`StopReason::Deadline`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::arena::{gid, gid_idx, gid_shard, hash_words, shard_of, StateArena, MAX_KEY_WORDS};
use crate::search::{
    Frontier, PackedMove, Phase, PhaseProf, PhaseStats, SearchConfig, SearchStats, ShardStats,
    SolveLimits, StopReason, MAX_THREADS,
};
use crate::spsc::Spsc;

/// Successor sink passed to [`Domain::expand`]: receives
/// `(key, edge_cost, move)` per canonical successor.
pub type EmitFn<'a, K> = &'a mut dyn FnMut(K, u64, PackedMove);

/// A solver-specific description of an implicit shortest-path space.
///
/// Implementations canonicalize inside [`Domain::expand`] (the driver
/// never sees raw states) and must keep the emission order
/// deterministic — the sequential engine's tie-breaking, and therefore
/// its exact witness, depends on it. The search domain of
/// `mpp/exact.rs` (every game) is the one implementation.
pub trait Domain: Sync {
    /// Unpacked state (solver-native masks).
    type Key: Copy;

    /// Packed-key width in 64-bit words (at most [`MAX_KEY_WORDS`]).
    fn key_words(&self) -> usize;
    /// Packs `key` into exactly [`Domain::key_words`] words.
    fn pack(&self, key: &Self::Key, out: &mut [u64]);
    /// Inverse of [`Domain::pack`].
    fn unpack(&self, words: &[u64]) -> Self::Key;
    /// The (already canonical) start state.
    fn root(&self) -> Self::Key;
    /// Goal test.
    fn is_goal(&self, key: &Self::Key) -> bool;
    /// Admissible lower bound on remaining cost; `None` marks the state
    /// provably dead (never enqueued). Must return `Some(0)`-style
    /// constants when the heuristic is disabled in config so baselines
    /// stay comparable. The drivers call this for the root, for each
    /// successor whose distance a relaxation created or improved, and —
    /// once an incumbent exists — for every emitted successor before it
    /// is interned, to prune it.
    fn heuristic(&self, key: &Self::Key) -> Option<u64>;
    /// Emits every canonical successor as `(key, edge_cost, move)`.
    /// Phase counters accumulate into `prof`, which the drivers combine
    /// with their own once per shard.
    fn expand(&self, key: &Self::Key, prof: &mut PhaseProf, emit: EmitFn<'_, Self::Key>);
}

/// What a driver run produced: the optimal cost plus the root-to-goal
/// `(state, move)` path when solved, and the counters either way.
pub struct DriverOutcome<K> {
    /// `(optimal_cost, path)` where `path[i] = (state_before_move_i,
    /// move_i)` from the root to the goal.
    pub best: Option<(u64, Vec<(K, PackedMove)>)>,
    /// Aggregated search counters for this run.
    pub stats: SearchStats,
    /// Per-shard counters (empty for sequential runs).
    pub shards: Vec<ShardStats>,
    /// Why the search stopped.
    pub reason: StopReason,
    /// Phase-level hot-path accounting (summed across shards).
    pub phases: PhaseStats,
}

/// Entry point: dispatches on `config.threads` (clamped to
/// `1..=MAX_THREADS`). The deadline in `config.limits` counts from this
/// call, and `config.limits.max_states` bounds the expansions of the
/// incumbent probe and the exact search together.
pub fn search<D: Domain>(domain: &D, config: &SearchConfig) -> DriverOutcome<D::Key> {
    let start = Instant::now();
    let threads = config.threads.clamp(1, MAX_THREADS);
    match sequential(domain, config, start, threads > 1) {
        Ended::Search(out) => out,
        Ended::Switch(probe) => parallel(domain, config, threads, probe, start),
    }
}

/// A feasible schedule found by the incumbent probe: its cost and its
/// full move path, kept so the exact search can return it as the
/// witness when it proves no strictly better schedule exists.
type Incumbent<K> = (u64, Vec<(K, PackedMove)>);

/// Heuristic weight of the incumbent probe, as a ratio `(num, den)`:
/// `f = g + h·3/2`. Weighted A* with an admissible `h` returns a goal
/// within `3/2` of optimal while settling a small fraction of the
/// exact search's states.
pub(crate) const PROBE_WEIGHT: (u64, u64) = (3, 2);
/// Expansions after which the probe stops looking for a goal and the
/// loop switches to the exact search, which carries on from the probe's
/// states.
const PROBE_MAX_STATES: u64 = 20_000;

/// How the sequential loop ended: with the search's outcome, or — when
/// asked to stop there — at the switch from the probe to the exact
/// search.
enum Ended<K> {
    Search(DriverOutcome<K>),
    Switch(Probe<K>),
}

/// What the probe hands the parallel engine: the incumbent, if it
/// popped a goal, and its counters.
struct Probe<K> {
    incumbent: Option<Incumbent<K>>,
    stats: SearchStats,
    phases: PhaseStats,
}

// ---------------------------------------------------------------------
// One shard's search state
// ---------------------------------------------------------------------

/// A successor: its packed key and its tentative relaxation. `Copy` and
/// fixed-size, so the cross-shard SPSC ring can move it by bitwise read.
#[derive(Clone, Copy)]
struct Succ {
    words: [u64; MAX_KEY_WORDS],
    dist: u64,
    parent: u64,
    mv: PackedMove,
}

const EMPTY_SUCC: Succ = Succ {
    words: [0; MAX_KEY_WORDS],
    dist: 0,
    parent: 0,
    mv: 0,
};

/// A successor as [`Domain::expand`] emitted it: its key, its tentative
/// distance and its move, plus its bound once the exact search has
/// evaluated it eagerly (see [`Search::prune`]).
struct Emitted<K> {
    key: K,
    dist: u64,
    mv: PackedMove,
    h: Option<u64>,
}

/// A successor waiting in a [`Search`]'s batch: packed, hashed, and
/// with its bound if that is already known. The batch keeps the hash,
/// never a table slot: an insert can grow the table mid-batch.
struct Pending {
    succ: Succ,
    hash: u64,
    h: Option<u64>,
}

/// One shard's search: its arena and frontier, its counters and the
/// driver's phase timers. The sequential loop runs one; the sharded
/// engine runs one per worker.
struct Search {
    kw: usize,
    arena: StateArena,
    frontier: Frontier,
    /// The settled, pushed, stale and frontier-peak counts, plus a
    /// worker's traffic counts; [`Search::stats`] adds the arena's.
    stats: SearchStats,
    /// The driver's timers and counters. The domain accumulates into a
    /// profile of its own, which [`PhaseProf::finish`] adds in.
    prof: PhaseProf,
    /// Successors staged for [`Search::relax_batch`], in order.
    batch: Vec<Pending>,
    /// The batch positions whose relaxation created or improved a
    /// distance, with their arena indices, in order.
    improved: Vec<(usize, u32)>,
}

impl Search {
    fn new(kw: usize) -> Self {
        Search {
            kw,
            arena: StateArena::new(kw),
            frontier: Frontier::default(),
            stats: SearchStats::default(),
            prof: PhaseProf::default(),
            batch: Vec::new(),
            improved: Vec::new(),
        }
    }

    /// Interns the root, packed in `root` with itself as parent (index
    /// 0 of this shard), and queues it with bound `h`.
    fn seed<D: Domain>(&mut self, domain: &D, root: &Succ, h: u64, probing: bool) {
        self.stage(*root, hash_words(&root.words[..self.kw]), Some(h));
        let created = self.relax_batch(domain, probing, u64::MAX);
        debug_assert!(
            created == 1 && self.arena.len() == 1,
            "root interns at index 0"
        );
    }

    /// Pops the best live entry as `(f, arena index, dist)`, skipping
    /// and counting stale ones.
    fn pop(&mut self) -> Option<(u64, u32, u64)> {
        loop {
            let (f, idx, d) = self.frontier.pop()?;
            if self.arena.meta(idx).dist == d {
                return Some((f, idx, d));
            }
            self.stats.stale += 1;
        }
    }

    /// Expands `key`, at distance `dist`, into `out`: each successor with
    /// its own distance and move, in emission order. Starts the chain of
    /// phase laps that times this expansion's passes, and counts the
    /// successors. `dprof` is the domain's profile.
    fn expand<D: Domain>(
        &mut self,
        domain: &D,
        key: &D::Key,
        dist: u64,
        dprof: &mut PhaseProf,
        out: &mut Vec<Emitted<D::Key>>,
    ) {
        out.clear();
        self.prof.begin();
        domain.expand(key, dprof, &mut |key, c, mv| {
            out.push(Emitted {
                key,
                dist: dist + c,
                mv,
                h: None,
            });
        });
        self.prof.lap(Phase::Expand);
        self.prof.stats.emitted += out.len() as u64;
    }

    /// Evaluates the bound of every successor in `emitted` and keeps
    /// only those whose `dist + h` can beat the incumbent's cost `ub`:
    /// the others, and dead ones, are discarded before they pay for
    /// hashing and interning, the dominant cost.
    fn prune<D: Domain>(&mut self, domain: &D, emitted: &mut Vec<Emitted<D::Key>>, ub: u64) {
        let all = emitted.len();
        emitted.retain_mut(|e| {
            e.h = domain.heuristic(&e.key).filter(|&h| e.dist + h < ub);
            e.h.is_some()
        });
        self.prof.stats.heur_full_evals += all as u64;
        self.prof.stats.ub_pruned += (all - emitted.len()) as u64;
        self.prof.lap(Phase::Heuristic);
    }

    /// Adds `succ`, whose key hashes to `hash`, to the batch with its
    /// bound `h` if known, and prefetches the table slot its lookup
    /// probes first.
    #[inline]
    fn stage(&mut self, succ: Succ, hash: u64, h: Option<u64>) {
        self.arena.prefetch_slot(hash);
        self.batch.push(Pending { succ, hash, h });
    }

    /// The one relax step, for generated and received successors alike:
    /// relaxes the batch in staging order and queues each successor
    /// whose distance that creates or improves at `f = dist + h` (`h·3/2`
    /// while `probing`) if `f < cap` and it is not dead. The bound is
    /// evaluated only then, unless already known: most successors are
    /// duplicates. Returns how many distances improved.
    ///
    /// Once the arena outgrows the cache, a lookup misses three times in
    /// a row — the table slot, then the key words and the metadata it
    /// points to. So the lookups of one batch overlap: staging
    /// prefetched each first slot, a first pass here prefetches each
    /// slot's occupant, and only then does the second relax them, in
    /// order, through [`StateArena::relax`]. The bounds and the pushes
    /// of the improved successors follow in passes of their own, in the
    /// same order; neither touches the arena, so every count, tie-break
    /// and witness is that of relaxing the successors one at a time. Each
    /// pass is one phase lap: staging and the lookups are `hash_intern`.
    fn relax_batch<D: Domain>(&mut self, domain: &D, probing: bool, cap: u64) -> u64 {
        for p in &self.batch {
            self.arena.prefetch_entry(p.hash);
        }
        self.improved.clear();
        for (at, p) in self.batch.iter().enumerate() {
            let succ = &p.succ;
            let (idx, better) = self.arena.relax(
                &succ.words[..self.kw],
                p.hash,
                succ.dist,
                succ.parent,
                succ.mv,
            );
            if better {
                self.improved.push((at, idx));
            }
        }
        self.prof.lap(Phase::HashIntern);
        for &(at, _) in &self.improved {
            let p = &mut self.batch[at];
            if p.h.is_none() {
                self.prof.stats.heur_full_evals += 1;
                p.h = domain.heuristic(&domain.unpack(&p.succ.words[..self.kw]));
            }
        }
        self.prof.lap(Phase::Heuristic);
        let (num, den) = PROBE_WEIGHT;
        for &(at, idx) in &self.improved {
            let p = &self.batch[at];
            // A dead successor is interned but never queued.
            let Some(h) = p.h else { continue };
            // At weight 1 no push pays for a division.
            let f = p.succ.dist + if probing { h * num / den } else { h };
            if f < cap {
                self.frontier.push(f, h, idx, p.succ.dist);
                self.stats.pushed += 1;
                self.stats.frontier_peak = self.stats.frontier_peak.max(self.frontier.len() as u64);
            }
        }
        self.prof.lap(Phase::Queue);
        self.batch.clear();
        self.improved.len() as u64
    }

    /// The counters, with the arena's size.
    fn stats(&self) -> SearchStats {
        SearchStats {
            arena_states: self.arena.len() as u64,
            arena_peak_bytes: self.arena.bytes(),
            ..self.stats
        }
    }
}

/// Whether `settled` expansions overrun the state budget, or the
/// deadline counted from `start` has passed, and which.
fn over_budget(limits: &SolveLimits, settled: u64, start: Instant) -> Option<StopReason> {
    if settled > limits.max_states as u64 {
        return Some(StopReason::StateLimit);
    }
    let late = limits.deadline.is_some_and(|dl| start.elapsed() >= dl);
    late.then_some(StopReason::Deadline)
}

// ---------------------------------------------------------------------
// Sequential driver
// ---------------------------------------------------------------------

/// The sequential A\* loop: two phases over one [`Search`].
///
/// 1. **Probe.** Weighted A\*, `f = g + h·3/2` (floored), looks for any
///    goal. The probe only follows [`Domain::expand`] edges from the
///    root, so a goal's distance is the cost of a real schedule: the
///    first goal it pops becomes the incumbent, path and all.
/// 2. **Exact search.** At that goal, or after [`PROBE_MAX_STATES`]
///    expansions without one, every live frontier entry is re-keyed at
///    weight 1 (`f = g + h`; entries at or above the incumbent's cost
///    are dropped), and the loop carries on with the same arena,
///    distances and parents. A successor whose `g + h` cannot beat the
///    incumbent is discarded before it is interned.
///
/// The probe may expand a state at more than its optimal distance. The
/// exact search expands it again if it finds a shorter path (A\* with
/// re-opening: the arena's relax reports the improvement and the state
/// is pushed again), and that keeps the search exact. Take any optimal
/// path, and on it the first state not yet expanded at its optimal
/// distance: the root is queued at distance 0, and any later state was
/// relaxed to its optimal distance when its predecessor on the path was
/// expanded at its own. So that state is always queued at
/// `f = g* + h ≤ OPT` (admissible `h`; symmetry and dominance pruning
/// keep some optimal path in the searched graph). Hence while a
/// schedule cheaper than the incumbent exists, no weight-1 pop has
/// `f > OPT`: the first goal popped at weight 1 is optimal, and
/// emptying the frontier below the incumbent proves the incumbent
/// optimal. The consistent `h` also makes each weight-1 expansion
/// final, so the exact search expands a state at most once.
///
/// A baseline run (heuristic disabled) switches before its first pop and
/// keeps the unpruned search it is meant to measure. With
/// `stop_at_switch` the loop returns at the switch instead of carrying
/// on, for the parallel engine — unless the incumbent meets the root's
/// bound `h_root`, which proves it optimal: every entry has `f ≥ h_root`
/// under the consistent `h`, so the re-key empties the frontier and the
/// loop returns the incumbent without starting a shard. The deadline
/// counts from `start`.
fn sequential<D: Domain>(
    domain: &D,
    config: &SearchConfig,
    start: Instant,
    stop_at_switch: bool,
) -> Ended<D::Key> {
    let kw = domain.key_words();
    let root = domain.root();
    let mut s = Search::new(kw);
    s.stats.threads = 1;
    let Some(h0) = domain.heuristic(&root) else {
        // The start state is already dead: unsolvable.
        return Ended::Search(DriverOutcome {
            best: None,
            stats: s.stats,
            shards: Vec::new(),
            reason: StopReason::Exhausted,
            phases: PhaseStats::default(),
        });
    };
    s.stats.h_root = h0;
    let probe_budget = if config.heuristic {
        PROBE_MAX_STATES
    } else {
        0
    };
    let mut succ = Succ {
        parent: gid(0, 0),
        ..EMPTY_SUCC
    };
    domain.pack(&root, &mut succ.words[..kw]);
    s.seed(domain, &succ, h0, true);

    let mut dprof = PhaseProf::default();
    let mut probing = true;
    let mut incumbent: Option<Incumbent<D::Key>> = None;
    // The incumbent's cost, pruned against by the exact search.
    let mut ub: Option<u64> = None;
    // One expansion's successors; reused, so the hot loop allocates
    // nothing once it has grown.
    let mut emitted = Vec::new();
    let mut best: Option<(u64, u64)> = None;
    let reason = loop {
        if probing && (incumbent.is_some() || s.stats.settled >= probe_budget) {
            probing = false;
            ub = incumbent.as_ref().map(|&(u, _)| u);
            // A schedule at the root's bound is optimal: finish here,
            // where the re-key empties the frontier, and start no shard.
            if stop_at_switch && ub != Some(h0) {
                return Ended::Switch(Probe {
                    incumbent,
                    stats: s.stats,
                    phases: s.prof.finish(&dprof),
                });
            }
            let cap = ub.unwrap_or(u64::MAX);
            s.frontier
                .rekey(|idx, d, f| s.arena.meta(idx).dist == d && f < cap);
        }
        let Some((f, idx, d)) = s.pop() else {
            // Emptying the frontier below the incumbent proves it optimal;
            // without one, no goal is reachable.
            break if ub.is_some() {
                StopReason::Solved
            } else {
                StopReason::Exhausted
            };
        };
        debug_assert!(
            ub.is_none_or(|u| f < u),
            "queued entries beat the incumbent"
        );
        let key = domain.unpack(s.arena.key_words(idx));
        if domain.is_goal(&key) {
            if probing {
                incumbent = Some((d, reconstruct_path(domain, &[&s.arena], gid(0, idx))));
                continue;
            }
            best = Some((d, gid(0, idx)));
            break StopReason::Solved;
        }
        s.stats.settled += 1;
        s.stats.probe_settled += u64::from(probing);
        if let Some(reason) = over_budget(&config.limits, s.stats.settled, start) {
            break reason;
        }
        succ.parent = gid(0, idx);
        s.expand(domain, &key, d, &mut dprof, &mut emitted);
        if let Some(ub) = ub {
            s.prune(domain, &mut emitted, ub);
        }
        for e in &emitted {
            (succ.dist, succ.mv) = (e.dist, e.mv);
            domain.pack(&e.key, &mut succ.words[..kw]);
            s.stage(succ, hash_words(&succ.words[..kw]), e.h);
        }
        s.relax_batch(domain, probing, ub.unwrap_or(u64::MAX));
    };
    let best = match best {
        Some((d, goal_gid)) => Some((d, reconstruct_path(domain, &[&s.arena], goal_gid))),
        None if reason == StopReason::Solved => incumbent,
        None => None,
    };
    Ended::Search(DriverOutcome {
        best,
        stats: s.stats(),
        shards: Vec::new(),
        reason,
        phases: s.prof.finish(&dprof),
    })
}

/// Walks the parent chain from `goal_gid` back to the root (marked by a
/// self-loop parent) across the given shard arenas and returns the
/// forward `(state, move)` path.
fn reconstruct_path<D: Domain>(
    domain: &D,
    arenas: &[&StateArena],
    goal_gid: u64,
) -> Vec<(D::Key, PackedMove)> {
    let mut rev = Vec::new();
    let mut cur = goal_gid;
    loop {
        let m = arenas[gid_shard(cur)].meta(gid_idx(cur));
        if m.parent == cur {
            break; // root self-loop
        }
        let p = m.parent;
        rev.push((
            domain.unpack(arenas[gid_shard(p)].key_words(gid_idx(p))),
            m.mv,
        ));
        cur = p;
    }
    rev.reverse();
    rev
}

// ---------------------------------------------------------------------
// Parallel (hash-sharded) driver
// ---------------------------------------------------------------------

/// Frontier pops per worker iteration between inbox drains.
const POP_BATCH: usize = 32;
/// Capacity of each cross-shard SPSC ring (blocks; times
/// [`BLOCK_CAP`] messages).
const CHAN_CAP: usize = 1 << 7;
/// Messages per ring block: a full block spans eight cache lines, so
/// the per-slot atomic hand-off cost is amortized over eight states.
const BLOCK_CAP: usize = 8;

const STATUS_RUNNING: u64 = 0;
const STATUS_DONE: u64 = 1;
const STATUS_STATE_LIMIT: u64 = 2;
const STATUS_DEADLINE: u64 = 3;

/// A batch of [`Succ`]s moved through the ring as one slot: senders fill
/// blocks in per-destination out-buffers and flush on fill or frontier
/// exhaustion, so the quiescence counters count blocks, not messages.
#[derive(Clone, Copy)]
struct MsgBlock {
    len: u32,
    msgs: [Succ; BLOCK_CAP],
}

const EMPTY_BLOCK: MsgBlock = MsgBlock {
    len: 0,
    msgs: [EMPTY_SUCC; BLOCK_CAP],
};

/// State shared by every worker of one parallel solve.
struct Shared {
    /// Best goal distance found so far (`u64::MAX` until the first
    /// goal); updated only under the `goal` lock, so it decreases
    /// monotonically.
    incumbent: AtomicU64,
    /// `(dist, gid)` of the best goal state.
    goal: Mutex<Option<(u64, u64)>>,
    /// Global settled-state counter (the `max_states` budget).
    settled: AtomicU64,
    /// Blocks pushed to any ring (incremented *before* the push).
    sent: AtomicU64,
    /// Blocks fully processed (incremented *after* every message in the
    /// block has been relaxed).
    received: AtomicU64,
    /// Bitmask of workers currently idle.
    idle: AtomicU64,
    /// `STATUS_*` word; leaves `STATUS_RUNNING` exactly once.
    status: AtomicU64,
}

impl Shared {
    fn new() -> Self {
        Shared {
            incumbent: AtomicU64::new(u64::MAX),
            goal: Mutex::new(None),
            settled: AtomicU64::new(0),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
            idle: AtomicU64::new(0),
            status: AtomicU64::new(STATUS_RUNNING),
        }
    }

    /// First abort cause wins; later ones are ignored.
    fn abort(&self, status: u64) {
        let _ = self.status.compare_exchange(
            STATUS_RUNNING,
            status,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }
}

/// One worker of the sharded engine: what surrounds its shard's
/// [`Search`] — routing, the shared incumbent and quiescence. Its
/// methods take the search as an argument, so a successor handler can
/// route while the search is expanding.
struct Worker<'a, D: Domain> {
    me: usize,
    threads: usize,
    domain: &'a D,
    shared: &'a Shared,
    /// Full `threads x threads` ring matrix, indexed `from * threads +
    /// to`; this worker consumes column `me` and produces row `me`.
    chans: &'a [Spsc<MsgBlock>],
    start: Instant,
    limits: SolveLimits,
    /// Per-destination out-buffers; `out[to]` fills until [`BLOCK_CAP`]
    /// then flushes into the ring (`out[me]` stays unused).
    out: Vec<MsgBlock>,
    /// Messages received, and those that improved no distance.
    received: u64,
    dup_msgs: u64,
    /// The current expansion's successors, and those of them that
    /// another shard owns, sent once the owned ones are relaxed.
    emitted: Vec<Emitted<D::Key>>,
    foreign: Vec<(usize, Succ)>,
}

impl<D: Domain> Worker<'_, D> {
    /// Routes `emitted`, the successors of the state `parent` this shard
    /// just settled: relaxes those this shard owns, then buffers the
    /// others for their owners. Sending can drain the inboxes, which
    /// relax through the batch too, so the owned successors go first.
    fn successors(&mut self, s: &mut Search, parent: u64) {
        let inc = self.shared.incumbent.load(Ordering::Relaxed);
        for e in &self.emitted {
            if e.dist >= inc {
                continue;
            }
            let mut succ = Succ {
                dist: e.dist,
                parent,
                mv: e.mv,
                ..EMPTY_SUCC
            };
            self.domain.pack(&e.key, &mut succ.words[..s.kw]);
            let hash = hash_words(&succ.words[..s.kw]);
            let owner = shard_of(hash, self.threads);
            if owner == self.me {
                s.stats.local_succs += 1;
                s.stage(succ, hash, None);
            } else {
                self.foreign.push((owner, succ));
            }
        }
        s.relax_batch(self.domain, false, inc);
        for i in 0..self.foreign.len() {
            let (owner, succ) = self.foreign[i];
            self.buffer_send(s, owner, succ);
        }
        self.foreign.clear();
    }

    /// Drains every inbox once, relaxing each block as one batch;
    /// returns whether any block arrived.
    fn drain_inboxes(&mut self, s: &mut Search) -> bool {
        let me = self.me;
        let mut any = false;
        for from in (0..self.threads).filter(|&from| from != me) {
            while let Some(blk) = self.chans[from * self.threads + me].try_pop() {
                let msgs = &blk.msgs[..blk.len as usize];
                s.prof.begin();
                for m in msgs {
                    s.stage(*m, hash_words(&m.words[..s.kw]), None);
                }
                let inc = self.shared.incumbent.load(Ordering::Relaxed);
                let improved = s.relax_batch(self.domain, false, inc);
                self.dup_msgs += msgs.len() as u64 - improved;
                self.received += msgs.len() as u64;
                self.shared.received.fetch_add(1, Ordering::SeqCst);
                any = true;
            }
        }
        any
    }

    /// Whether any inbox currently holds a block.
    fn has_inbox_msgs(&self) -> bool {
        (0..self.threads)
            .any(|from| from != self.me && !self.chans[from * self.threads + self.me].is_empty())
    }

    /// Buffers a successor for its owning shard, flushing the block
    /// when full.
    fn buffer_send(&mut self, s: &mut Search, to: usize, msg: Succ) {
        s.stats.cross_sends += 1;
        let blk = &mut self.out[to];
        blk.msgs[blk.len as usize] = msg;
        blk.len += 1;
        if blk.len as usize == BLOCK_CAP {
            self.flush(s, to);
        }
    }

    /// Pushes `out[to]` into the ring, draining our own inboxes while
    /// the target ring is full (receiving only relaxes locally and
    /// never sends, so this cannot deadlock).
    fn flush(&mut self, s: &mut Search, to: usize) {
        if self.out[to].len == 0 {
            return;
        }
        let blk = std::mem::replace(&mut self.out[to], EMPTY_BLOCK);
        s.stats.send_blocks += 1;
        self.shared.sent.fetch_add(1, Ordering::SeqCst);
        loop {
            if self.chans[self.me * self.threads + to].try_push(blk) {
                return;
            }
            if self.shared.status.load(Ordering::Acquire) != STATUS_RUNNING {
                // Aborting: the block may be dropped, nobody will
                // look at the counters again.
                return;
            }
            if !self.drain_inboxes(s) {
                std::hint::spin_loop();
            }
        }
    }

    /// Flushes every non-empty out-buffer. Must run before advertising
    /// idle: the quiescence counters only see flushed blocks.
    fn flush_all(&mut self, s: &mut Search) {
        for to in 0..self.threads {
            if to != self.me {
                self.flush(s, to);
            }
        }
    }

    /// Records a popped goal state, lowering the shared incumbent.
    fn offer_goal(&self, dist: u64, g: u64) {
        let mut best = self.shared.goal.lock().unwrap();
        if best.is_none_or(|(bd, _)| dist < bd) {
            *best = Some((dist, g));
            self.shared.incumbent.store(dist, Ordering::SeqCst);
        }
    }

    /// Idle protocol: advertise idleness, watch for new work, and
    /// attempt quiescence detection. Returns `true` to terminate.
    fn idle_protocol(&mut self, s: &Search) -> bool {
        let my_bit = 1u64 << self.me;
        let full_mask = if self.threads == 64 {
            u64::MAX
        } else {
            (1u64 << self.threads) - 1
        };
        self.shared.idle.fetch_or(my_bit, Ordering::SeqCst);
        loop {
            if self.shared.status.load(Ordering::Acquire) != STATUS_RUNNING {
                return true;
            }
            let inc = self.shared.incumbent.load(Ordering::SeqCst);
            let has_local = s.frontier.peek_priority().is_some_and(|f| f < inc);
            if self.has_inbox_msgs() || has_local {
                self.shared.idle.fetch_and(!my_bit, Ordering::SeqCst);
                return false;
            }
            // Double-read quiescence check: no message can be in flight
            // between two observations of equal monotone counters with
            // every worker idle throughout.
            let s1 = self.shared.sent.load(Ordering::SeqCst);
            let r1 = self.shared.received.load(Ordering::SeqCst);
            if s1 == r1 && self.shared.idle.load(Ordering::SeqCst) == full_mask {
                let s2 = self.shared.sent.load(Ordering::SeqCst);
                if s2 == s1 && self.shared.idle.load(Ordering::SeqCst) == full_mask {
                    self.shared.abort(STATUS_DONE);
                    return true;
                }
            }
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    /// Searches this shard until quiescence or an abort; returns the
    /// search, its shard row and its phase profile.
    fn run(mut self, mut s: Search) -> (Search, ShardStats, PhaseStats) {
        let domain = self.domain;
        let mut dprof = PhaseProf::default();
        'outer: while self.shared.status.load(Ordering::Acquire) == STATUS_RUNNING {
            let mut progress = self.drain_inboxes(&mut s);
            for _ in 0..POP_BATCH {
                let inc = self.shared.incumbent.load(Ordering::Relaxed);
                let Some((f, idx, d)) = s.pop() else {
                    break;
                };
                progress = true;
                if f >= inc {
                    // Can no longer beat the incumbent; with the
                    // monotone incumbent this holds forever. Discard.
                    continue;
                }
                let key = domain.unpack(s.arena.key_words(idx));
                if domain.is_goal(&key) {
                    self.offer_goal(d, gid(self.me, idx));
                    continue;
                }
                s.stats.settled += 1;
                let settled = self.shared.settled.fetch_add(1, Ordering::Relaxed) + 1;
                if let Some(reason) = over_budget(&self.limits, settled, self.start) {
                    self.shared.abort(if reason == StopReason::StateLimit {
                        STATUS_STATE_LIMIT
                    } else {
                        STATUS_DEADLINE
                    });
                    break 'outer;
                }
                s.expand(domain, &key, d, &mut dprof, &mut self.emitted);
                self.successors(&mut s, gid(self.me, idx));
            }
            if !progress {
                // Local frontier exhausted: ship partial blocks so no
                // work hides in an out-buffer, then look for incoming
                // work before attempting quiescence.
                self.flush_all(&mut s);
                if self.drain_inboxes(&mut s) {
                    continue;
                }
                if self.idle_protocol(&s) {
                    break;
                }
            }
        }
        let shard = ShardStats {
            shard: self.me as u64,
            settled: s.stats.settled,
            pushed: s.stats.pushed,
            sent: s.stats.cross_sends,
            send_blocks: s.stats.send_blocks,
            local_succs: s.stats.local_succs,
            received: self.received,
            dup_msgs: self.dup_msgs,
            arena_states: s.arena.len() as u64,
            arena_bytes: s.arena.bytes(),
        };
        let phases = s.prof.finish(&dprof);
        (s, shard, phases)
    }
}

/// The sharded engine, started where the sequential loop's probe ended:
/// it takes the probe's incumbent, and its shards search from the root
/// with their own arenas. The probe's expansions count toward
/// `max_states`; the deadline counts from `start`.
fn parallel<D: Domain>(
    domain: &D,
    config: &SearchConfig,
    threads: usize,
    probe: Probe<D::Key>,
    start: Instant,
) -> DriverOutcome<D::Key> {
    let kw = domain.key_words();
    let h0 = probe.stats.h_root;
    let mut stats = SearchStats {
        threads: threads as u64,
        h_root: h0,
        settled: probe.stats.settled,
        probe_settled: probe.stats.probe_settled,
        ..SearchStats::default()
    };
    let incumbent = probe.incumbent;

    let mut root = EMPTY_SUCC;
    domain.pack(&domain.root(), &mut root.words[..kw]);
    let root_owner = shard_of(hash_words(&root.words[..kw]), threads);
    root.parent = gid(root_owner, 0);

    let shared = Shared::new();
    shared.settled.store(probe.stats.settled, Ordering::SeqCst);
    if let Some((ub, _)) = incumbent {
        // Seed the shared incumbent exactly as if a goal of cost `ub`
        // had already been offered: every push and pop keeps only
        // `f < ub`, which no strictly better schedule violates. A
        // worker that pops a real goal cheaper than `ub` records it in
        // the goal slot as usual; quiescing without one proves the
        // probe's schedule optimal and it becomes the witness.
        shared.incumbent.store(ub, Ordering::SeqCst);
    }
    let chans: Vec<Spsc<MsgBlock>> = (0..threads * threads)
        .map(|_| Spsc::new(CHAN_CAP))
        .collect();

    let results: Vec<(Search, ShardStats, PhaseStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let (shared, chans) = (&shared, &chans[..]);
                scope.spawn(move || {
                    let mut search = Search::new(kw);
                    if me == root_owner {
                        search.seed(domain, &root, h0, false);
                    }
                    let worker = Worker {
                        me,
                        threads,
                        domain,
                        shared,
                        chans,
                        start,
                        limits: config.limits,
                        out: vec![EMPTY_BLOCK; threads],
                        received: 0,
                        dup_msgs: 0,
                        emitted: Vec::new(),
                        foreign: Vec::new(),
                    };
                    worker.run(search)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver worker panicked"))
            .collect()
    });

    let mut shards = Vec::with_capacity(threads);
    let mut phases = probe.phases;
    for (search, shard, shard_phases) in &results {
        stats.merge(&search.stats());
        phases.merge(shard_phases);
        shards.push(*shard);
    }
    let (reason, best) = match shared.status.load(Ordering::SeqCst) {
        STATUS_STATE_LIMIT => (StopReason::StateLimit, None),
        STATUS_DEADLINE => (StopReason::Deadline, None),
        _ => match *shared.goal.lock().unwrap() {
            Some((dist, goal)) => {
                let arenas: Vec<&StateArena> = results.iter().map(|(s, ..)| &s.arena).collect();
                let path = reconstruct_path(domain, &arenas, goal);
                (StopReason::Solved, Some((dist, path)))
            }
            // Quiesced with every `f < ub` state exhausted and no
            // cheaper goal found: the probe's schedule is optimal.
            None if incumbent.is_some() => (StopReason::Solved, incumbent),
            None => (StopReason::Exhausted, None),
        },
    };
    DriverOutcome {
        best,
        stats,
        shards,
        reason,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A space of two-word keys `[a, a ^ 0xbeef]` for driving a
    /// [`Search`] by hand: the bound is `a mod 5`, and keys with
    /// `a ≡ 3 (mod 7)` are dead.
    struct Keys;

    impl Domain for Keys {
        type Key = [u64; 2];
        fn key_words(&self) -> usize {
            2
        }
        fn pack(&self, key: &[u64; 2], out: &mut [u64]) {
            out.copy_from_slice(key);
        }
        fn unpack(&self, words: &[u64]) -> [u64; 2] {
            [words[0], words[1]]
        }
        fn root(&self) -> [u64; 2] {
            [0, 0xbeef]
        }
        fn is_goal(&self, _: &[u64; 2]) -> bool {
            false
        }
        fn heuristic(&self, key: &[u64; 2]) -> Option<u64> {
            (key[0] % 7 != 3).then_some(key[0] % 5)
        }
        fn expand(&self, _: &[u64; 2], _: &mut PhaseProf, _: EmitFn<'_, [u64; 2]>) {}
    }

    /// The successor `a` at `dist`, with a parent and a move that tell
    /// its relaxations apart.
    fn succ(a: u64, dist: u64) -> Succ {
        let mut s = Succ {
            dist,
            parent: gid(1, a as u32),
            mv: (a << 8 | dist) as PackedMove,
            ..EMPTY_SUCC
        };
        s.words[..2].copy_from_slice(&[a, a ^ 0xbeef]);
        s
    }

    /// The relax step as it was before batching, and the reference
    /// here: one successor at a time, its bound `h` if known, else the
    /// domain's, evaluated once its distance improved.
    struct OneAtATime {
        arena: StateArena,
        frontier: Frontier,
        pushed: u64,
    }

    impl OneAtATime {
        fn new() -> Self {
            OneAtATime {
                arena: StateArena::new(2),
                frontier: Frontier::default(),
                pushed: 0,
            }
        }

        fn relax(&mut self, m: &Succ, h: Option<u64>, probing: bool, cap: u64) {
            let words = &m.words[..2];
            let (idx, improved) =
                self.arena
                    .relax(words, hash_words(words), m.dist, m.parent, m.mv);
            if !improved {
                return;
            }
            let Some(h) = h.or_else(|| Keys.heuristic(&Keys.unpack(words))) else {
                return;
            };
            let (num, den) = PROBE_WEIGHT;
            let f = m.dist + if probing { h * num / den } else { h };
            if f < cap {
                self.frontier.push(f, h, idx, m.dist);
                self.pushed += 1;
            }
        }
    }

    /// Stages `batch` and relaxes it as one batch.
    fn relax_as_batch(s: &mut Search, batch: &[(Succ, Option<u64>)], probing: bool, cap: u64) {
        for &(m, h) in batch {
            s.stage(m, hash_words(&m.words[..2]), h);
        }
        s.relax_batch(&Keys, probing, cap);
    }

    /// Every index's key, distance, parent and move, the push count and
    /// the pop sequence agree (which drains both frontiers).
    fn assert_same(s: &mut Search, one: &mut OneAtATime) {
        assert_eq!(s.arena.len(), one.arena.len());
        for i in 0..one.arena.len() as u32 {
            assert_eq!(s.arena.key_words(i), one.arena.key_words(i), "key {i}");
            let (a, b) = (s.arena.meta(i), one.arena.meta(i));
            assert_eq!((a.dist, a.parent, a.mv), (b.dist, b.parent, b.mv), "{i}");
        }
        assert_eq!(s.stats.pushed, one.pushed);
        let pops = std::iter::from_fn(|| s.frontier.pop()).collect::<Vec<_>>();
        let want = std::iter::from_fn(|| one.frontier.pop()).collect::<Vec<_>>();
        assert_eq!(pops, want);
    }

    #[test]
    fn a_batch_relaxes_a_repeated_key_as_one_at_a_time_does() {
        // Keys 1 and 2 exist before the batch. In it, 10 and 2 come
        // worse then better, 11 and 1 better then worse, and 3 is dead.
        let pre = [succ(1, 5), succ(2, 9)].map(|m| (m, None));
        let batch = [
            succ(10, 8),
            succ(11, 4),
            succ(1, 3),
            succ(10, 6),
            succ(2, 12),
            succ(3, 1),
            succ(11, 7),
            succ(1, 4),
            succ(2, 8),
        ]
        .map(|m| (m, None));
        for probing in [false, true] {
            let (mut s, mut one) = (Search::new(2), OneAtATime::new());
            for items in [&pre[..], &batch[..]] {
                relax_as_batch(&mut s, items, probing, u64::MAX);
                for &(m, h) in items {
                    one.relax(&m, h, probing, u64::MAX);
                }
            }
            assert_same(&mut s, &mut one);
        }
    }

    #[test]
    fn a_batch_relaxes_across_a_table_growth_as_one_at_a_time_does() {
        // A fresh table has 1,024 slots and doubles when the 512th
        // state is interned: 500 states first, then a batch of 40 new
        // ones, interleaved with shorter paths to earlier states and to
        // states of the batch itself, on both sides of the growth.
        let pre: Vec<_> = (0..500).map(|a| (succ(a, 100 + a), None)).collect();
        let mut batch = Vec::new();
        for a in 500..540 {
            batch.push((succ(a, 50), None));
            if a % 4 == 0 {
                batch.push((succ(a - 480, 60), None));
                batch.push((succ(a - 2, 40), None));
            }
        }
        let (mut s, mut one) = (Search::new(2), OneAtATime::new());
        for items in [&pre[..], &batch[..]] {
            relax_as_batch(&mut s, items, false, u64::MAX);
            for &(m, h) in items {
                one.relax(&m, h, false, u64::MAX);
            }
        }
        assert!(
            pre.len() < 512 && s.arena.len() > 512,
            "the batch grew the table"
        );
        assert_same(&mut s, &mut one);
    }

    #[test]
    fn eager_bounds_under_an_incumbent_relax_as_one_at_a_time_does() {
        // With an incumbent of cost 12 the loop evaluates every bound
        // before staging: dead keys (3, 10, 17) and those with
        // `dist + h >= 12` are dropped, the rest keep their bound.
        let ub = 12;
        let (mut s, mut one) = (Search::new(2), OneAtATime::new());
        let mut emitted: Vec<_> = [(4, 9), (10, 1), (5, 11), (6, 10), (3, 0), (6, 8), (9, 8)]
            .into_iter()
            .chain((11..30).map(|a| (a, a % 9)))
            .map(|(a, dist)| Emitted {
                key: [a, a ^ 0xbeef],
                dist,
                mv: a as PackedMove,
                h: None,
            })
            .collect();
        let mut pruned = 0;
        for e in &emitted {
            match Keys.heuristic(&e.key) {
                Some(h) if e.dist + h < ub => {
                    let mut m = succ(e.key[0], e.dist);
                    m.mv = e.mv;
                    one.relax(&m, Some(h), false, ub);
                }
                _ => pruned += 1,
            }
        }
        s.prune(&Keys, &mut emitted, ub);
        let batch: Vec<_> = emitted
            .iter()
            .map(|e| {
                let mut m = succ(e.key[0], e.dist);
                m.mv = e.mv;
                (m, e.h)
            })
            .collect();
        relax_as_batch(&mut s, &batch, false, ub);
        assert!(pruned > 0 && !batch.is_empty());
        assert_eq!(s.prof.stats.ub_pruned, pruned);
        // Only the eager bounds ran: the improved successors reused them.
        assert_eq!(s.prof.stats.heur_full_evals, 26);
        assert_same(&mut s, &mut one);
    }
}
