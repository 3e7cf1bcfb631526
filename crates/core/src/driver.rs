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
//! pop that skips stale entries, and the one relax-then-push step.
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

/// Lazily evaluated admissible bound for an emitted successor — the
/// value [`Domain::heuristic`] would return for it, computed only if the
/// driver calls the thunk. `None` marks the state provably dead. See
/// [`Domain::expand`].
pub type HeurThunk<'a> = &'a mut dyn FnMut() -> Option<u64>;

/// Successor sink passed to [`Domain::expand`]: receives
/// `(key, edge_cost, move, heuristic_thunk)` per canonical successor.
pub type EmitFn<'a, K> = &'a mut dyn FnMut(K, u64, PackedMove, HeurThunk<'_>);

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
    /// stay comparable. The drivers call this for the root and for
    /// states arriving over cross-shard channels; locally generated
    /// successors carry a [`HeurThunk`] for the same bound instead.
    fn heuristic(&self, key: &Self::Key) -> Option<u64>;
    /// Emits every canonical successor as `(key, edge_cost, move,
    /// heuristic_thunk)`. The last component evaluates the successor's
    /// own admissible bound on demand — `None` for provably dead
    /// successors (interned but never enqueued), `Some(0)` when the
    /// heuristic is disabled. The drivers invoke it only when the relax
    /// actually improved a locally owned distance, or before interning
    /// when an incumbent may prune the successor: most emitted
    /// successors are duplicates (or ship to a foreign shard, which
    /// evaluates on arrival), and their bound is never needed. Phase
    /// counters accumulate into `prof`, which the drivers combine with
    /// their own once per shard.
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
}

impl Search {
    fn new(kw: usize) -> Self {
        Search {
            kw,
            arena: StateArena::new(kw),
            frontier: Frontier::default(),
            stats: SearchStats::default(),
            prof: PhaseProf::default(),
        }
    }

    /// Interns the root, packed in `root` with itself as parent (index
    /// 0 of this shard), and queues it at priority `f`.
    fn seed(&mut self, root: &Succ, f: u64, h: u64) {
        let hash = hash_words(&root.words[..self.kw]);
        let created = self.relax(root, hash, None, || Some((f, h)));
        debug_assert!(created && self.arena.len() == 1, "root interns at index 0");
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

    /// The one relax-then-push step, for generated and received
    /// successors alike: relaxes `succ`, whose key hashes to `hash`, and
    /// when that creates or improves its distance queues it at the
    /// `(f, h)` that `entry` evaluates — only then, since most
    /// successors are duplicates — unless `entry` finds it dead or cut
    /// off. `t0` is the hash-intern timer, started before the caller
    /// packed or hashed the key. Returns whether the distance improved.
    #[inline]
    fn relax(
        &mut self,
        succ: &Succ,
        hash: u64,
        t0: Option<Instant>,
        entry: impl FnOnce() -> Option<(u64, u64)>,
    ) -> bool {
        let words = &succ.words[..self.kw];
        let (idx, improved) = self
            .arena
            .relax(words, hash, succ.dist, succ.parent, succ.mv);
        self.prof.stop(Phase::HashIntern, t0);
        if improved {
            if let Some((f, h)) = entry() {
                let t0 = self.prof.start();
                self.frontier.push(f, h, idx, succ.dist);
                self.stats.pushed += 1;
                self.stats.frontier_peak = self.stats.frontier_peak.max(self.frontier.len() as u64);
                self.prof.stop(Phase::Queue, t0);
            }
        }
        improved
    }

    /// Expands `key`, handing each successor with this state to `succ`;
    /// times the expansion and counts the successors. `dprof` is the
    /// domain's profile.
    fn expand<D: Domain>(
        &mut self,
        domain: &D,
        key: &D::Key,
        dprof: &mut PhaseProf,
        mut succ: impl FnMut(&mut Self, D::Key, u64, PackedMove, HeurThunk<'_>),
    ) {
        let t0 = self.prof.start();
        domain.expand(key, dprof, &mut |k2, c, mv, hv| {
            self.prof.stats.emitted += 1;
            succ(self, k2, c, mv, hv);
        });
        self.prof.stop(Phase::Expand, t0);
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
    let (num, den) = PROBE_WEIGHT;
    let mut succ = Succ {
        parent: gid(0, 0),
        ..EMPTY_SUCC
    };
    domain.pack(&root, &mut succ.words[..kw]);
    s.seed(&succ, h0 * num / den, h0);

    let mut dprof = PhaseProf::default();
    let mut probing = true;
    let mut incumbent: Option<Incumbent<D::Key>> = None;
    // The incumbent's cost, pruned against by the exact search.
    let mut ub: Option<u64> = None;
    // The hot loop is allocation-free: successors are relaxed inline as
    // the domain emits them from its scratch buffers, with no
    // intermediate Vec.
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
        s.expand(domain, &key, &mut dprof, |s, k2, c, mv, hv| {
            let nd = d + c;
            // With an incumbent the heuristic is evaluated eagerly: a
            // successor whose f provably cannot *beat* the incumbent is
            // discarded before paying the dominant cost of hashing and
            // interning it. Dead successors (`hv() == None`) are
            // discarded the same way.
            let mut hval: Option<u64> = None;
            if let Some(ub) = ub {
                match hv() {
                    Some(hb) if nd + hb < ub => hval = Some(hb),
                    _ => {
                        s.prof.stats.ub_pruned += 1;
                        return;
                    }
                }
            }
            let t0 = s.prof.start();
            (succ.dist, succ.mv) = (nd, mv);
            domain.pack(&k2, &mut succ.words[..kw]);
            let hash = hash_words(&succ.words[..kw]);
            s.relax(&succ, hash, t0, || {
                let h = hval.or_else(hv)?;
                // At weight 1 no push pays for a division.
                Some((nd + if probing { h * num / den } else { h }, h))
            });
        });
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
}

impl<D: Domain> Worker<'_, D> {
    /// The queue entry of an owned successor at `dist` with bound `h`:
    /// `(f, h)` while `f = dist + h` beats the incumbent, `None` when it
    /// cannot or the state is dead.
    fn entry(&self, dist: u64, h: Option<u64>) -> Option<(u64, u64)> {
        let h = h?;
        let f = dist + h;
        (f < self.shared.incumbent.load(Ordering::Relaxed)).then_some((f, h))
    }

    /// Routes one successor of a state this shard settled, `succ` with
    /// its key still unpacked in `key`: relaxes it here if this shard
    /// owns it, else buffers it for its owner.
    fn successor(&mut self, s: &mut Search, key: D::Key, mut succ: Succ, hv: HeurThunk<'_>) {
        if succ.dist >= self.shared.incumbent.load(Ordering::Relaxed) {
            return;
        }
        let t0 = s.prof.start();
        self.domain.pack(&key, &mut succ.words[..s.kw]);
        let hash = hash_words(&succ.words[..s.kw]);
        let owner = shard_of(hash, self.threads);
        if owner == self.me {
            s.stats.local_succs += 1;
            s.relax(&succ, hash, t0, || self.entry(succ.dist, hv()));
        } else {
            s.prof.stop(Phase::HashIntern, t0);
            self.buffer_send(s, owner, succ);
        }
    }

    /// Drains every inbox once; returns whether any block arrived.
    fn drain_inboxes(&mut self, s: &mut Search) -> bool {
        let (me, kw, domain) = (self.me, s.kw, self.domain);
        let mut any = false;
        for from in (0..self.threads).filter(|&from| from != me) {
            while let Some(blk) = self.chans[from * self.threads + me].try_pop() {
                for m in &blk.msgs[..blk.len as usize] {
                    let t0 = s.prof.start();
                    let hash = hash_words(&m.words[..kw]);
                    let improved = s.relax(m, hash, t0, || {
                        let h = domain.heuristic(&domain.unpack(&m.words[..kw]));
                        self.entry(m.dist, h)
                    });
                    // The bound was evaluated exactly when it improved.
                    s.prof.stats.heur_full_evals += u64::from(improved);
                    self.dup_msgs += u64::from(!improved);
                    self.received += 1;
                }
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
                let parent = gid(self.me, idx);
                s.expand(domain, &key, &mut dprof, |s, k2, c, mv, hv| {
                    let succ = Succ {
                        dist: d + c,
                        parent,
                        mv,
                        ..EMPTY_SUCC
                    };
                    self.successor(s, k2, succ, hv);
                });
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
                        search.seed(&root, h0, h0);
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
