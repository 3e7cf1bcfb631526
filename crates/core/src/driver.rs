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
//! `threads = 1` runs [`sequential`]: the classic A\* loop, stopping at
//! the first goal pop (optimal under the consistent heuristic), with
//! identical expansion order to the pre-refactor engine. The same loop
//! runs the incumbent probe: its priority is `f = g + h·num/den`, with
//! the weight 1/1 for the exact search and 3/2 for the probe.
//!
//! `threads ≥ 2` runs [`parallel`], an HDA\*-style search (Kishimoto et
//! al.): every canonical state is **owned** by a shard chosen through
//! [`Domain::owner`] — the hash partition or a structure-aware
//! projection ([`crate::partition::Partition`]); each worker keeps a
//! private arena + frontier for its shard and forwards successors it
//! does not own over bounded SPSC rings, packed into fixed-capacity
//! [`MsgBlock`]s that flush on fill or on local-frontier exhaustion. A
//! shared atomic **incumbent** (best goal distance so far) prunes
//! pushes and pops; goals are not expanded but recorded, and the search
//! continues until global quiescence — at which point every frontier's
//! minimum `f` is at least the incumbent, which (with the admissible
//! heuristic) proves the incumbent optimal. Quiescence is detected with
//! monotone sent/received **block** counters plus an idle bitmask,
//! double-read so a racing message cannot be missed: `sent` is
//! incremented *before* a ring push and `received` *after* the block is
//! fully processed, and a worker flushes every out-buffer before
//! advertising idle, so "all workers idle and `sent == received`"
//! observed twice with no send in between implies no work exists
//! anywhere.
//!
//! When a worker's frontier is empty but quiescence has not been
//! reached, it **speculatively expands** the best foreign successor it
//! buffered instead of spinning. Every speculative state was *also*
//! delivered to its true owner, so the buffer never holds the only copy
//! of any work item and can be ignored by the termination argument;
//! duplicates reconcile through the ordinary arena g-value check, so
//! optimality is untouched and the only cost is some duplicated
//! expansion (counted per shard as `foreign_expansions` / `dup_msgs`).
//!
//! Resource limits are **global** at any thread count: a shared settled
//! counter and the shared deadline abort every worker through a status
//! word, and the distinct abort causes surface as
//! [`StopReason::StateLimit`] vs [`StopReason::Deadline`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::arena::{gid, gid_idx, gid_shard, hash_words, StateArena, MAX_KEY_WORDS};
use crate::search::{
    phase_timing_enabled, Frontier, PackedMove, PhaseProf, PhaseStats, SearchConfig, SearchStats,
    ShardStats, SolveLimits, StopReason, MAX_THREADS,
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
    /// counters accumulate into the worker's `prof`, which the drivers
    /// drain once per run.
    fn expand(&self, key: &Self::Key, prof: &mut PhaseProf, emit: EmitFn<'_, Self::Key>);
    /// Upper bound on every `f` value under weight 1/1 (selects the
    /// frontier representation).
    fn max_priority(&self) -> u64;
    /// Owning shard of the canonical `key` whose packed-key hash is
    /// `hash`, under a [`crate::partition::Partition`] (the hash
    /// partition among them). Must be a pure, total function of the
    /// canonical state (same key → same shard on every call and every
    /// worker) — the distributed termination proof and duplicate
    /// detection rely on it.
    fn owner(&self, key: &Self::Key, hash: u64, shards: usize) -> usize;
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

impl<K> DriverOutcome<K> {
    fn stopped(
        stats: SearchStats,
        shards: Vec<ShardStats>,
        reason: StopReason,
        phases: PhaseStats,
    ) -> Self {
        DriverOutcome {
            best: None,
            stats,
            shards,
            reason,
            phases,
        }
    }
}

/// Entry point: dispatches on `config.threads` (clamped to
/// `1..=MAX_THREADS`). The deadline in `config.limits` counts from this
/// call, across the incumbent probe and the exact search.
pub fn search<D: Domain>(domain: &D, config: &SearchConfig) -> DriverOutcome<D::Key> {
    let start = Instant::now();
    let threads = config.threads.clamp(1, MAX_THREADS);
    // A weighted-A* probe for a feasible schedule seeds an incumbent:
    // the exact search then discards every successor whose f-value
    // provably cannot beat it, before paying the dominant cost of
    // hashing and interning it. When the probe's schedule turns out
    // optimal, the exact search never settles the `f == OPT` plateau
    // at all — exhausting `f < ub` proves the incumbent optimal and
    // the probe's own schedule is the witness. Only worthwhile when
    // the heuristic exists to guide the probe and compute f — a
    // baseline run keeps the unpruned search it is meant to measure.
    let incumbent = if config.heuristic {
        probe_upper_bound(domain, config, start)
    } else {
        None
    };
    if threads == 1 {
        sequential(domain, config, incumbent, start, (1, 1))
    } else {
        parallel(domain, config, threads, incumbent, start)
    }
}

/// A feasible schedule found by the upper-bound probe: its cost and
/// its full move path, kept so the exact search can return it as the
/// witness when it proves no strictly better schedule exists.
type Incumbent<K> = (u64, Vec<(K, PackedMove)>);

/// Heuristic weight of the upper-bound probe, as a ratio `(num, den)`:
/// `f = g + h·3/2`. Weighted A* with an admissible `h` returns a goal
/// within `3/2` of optimal while settling a small fraction of the
/// exact search's states.
const PROBE_WEIGHT: (u64, u64) = (3, 2);
/// Settled-state budget of the probe. The probe is a bet: if greedy
/// descent does not reach a goal quickly, give up and run the exact
/// search unpruned rather than burn a meaningful slice of its budget.
const PROBE_MAX_STATES: usize = 20_000;

/// Runs weighted A* (the sequential engine at [`PROBE_WEIGHT`]) for
/// *any* goal state and returns its cost and move path — a feasible,
/// not necessarily optimal, schedule. `None` when the probe gives up
/// (state budget, deadline, or an unsolvable instance).
///
/// The bound is correct by construction: the probe only follows real
/// [`Domain::expand`] edges from the root and `g` accumulates real
/// edge costs, so the distance of any goal it settles is the cost of
/// an actual schedule. The weight only affects *which* goal greedy
/// descent reaches first; the probe reuses the exact engine — same
/// canonicalization, dominance pruning, and arena. It shares the
/// solve's deadline, counted from `start`.
fn probe_upper_bound<D: Domain>(
    domain: &D,
    config: &SearchConfig,
    start: Instant,
) -> Option<Incumbent<D::Key>> {
    let probe_config = SearchConfig {
        threads: 1,
        limits: SolveLimits {
            max_states: PROBE_MAX_STATES.min(config.limits.max_states),
            deadline: config.limits.deadline,
        },
        ..*config
    };
    sequential(domain, &probe_config, None, start, PROBE_WEIGHT).best
}

// ---------------------------------------------------------------------
// Sequential driver
// ---------------------------------------------------------------------

/// The classic A\* loop with priority `f = g + h·num/den` (floored) at
/// `weight = (num, den)`; the deadline counts from `start`. Only the
/// exact search, at weight 1/1, takes an incumbent: pruning against it
/// uses the admissible `h`, and its optimality proof the popped `f`.
fn sequential<D: Domain>(
    domain: &D,
    config: &SearchConfig,
    incumbent: Option<Incumbent<D::Key>>,
    start: Instant,
    (num, den): (u64, u64),
) -> DriverOutcome<D::Key> {
    debug_assert!(incumbent.is_none() || num == den);
    // At 1/1 (the exact search) no push pays for a division.
    let weigh = |h: u64| {
        if num == den {
            h
        } else {
            h.saturating_mul(num) / den
        }
    };
    let kw = domain.key_words();
    let root = domain.root();
    let mut stats = SearchStats {
        threads: 1,
        ..SearchStats::default()
    };
    let Some(h0) = domain.heuristic(&root) else {
        // The start state is already dead: unsolvable.
        return DriverOutcome::stopped(
            stats,
            Vec::new(),
            StopReason::Exhausted,
            PhaseStats::default(),
        );
    };
    stats.h_root = h0;

    let mut arena = StateArena::new(kw);
    // The ceiling that selects the frontier representation grows with
    // the weighted priorities.
    let max_priority = domain.max_priority();
    let mut frontier: Frontier<u32> = Frontier::new(if num == den {
        max_priority
    } else {
        max_priority.saturating_mul(num).saturating_add(den)
    });
    stats.heap_fallback = matches!(frontier, Frontier::Heap(_));

    let mut wbuf = [0u64; MAX_KEY_WORDS];
    domain.pack(&root, &mut wbuf[..kw]);
    let (ridx, _) = arena.relax(&wbuf[..kw], hash_words(&wbuf[..kw]), 0, gid(0, 0), 0);
    debug_assert_eq!(ridx, 0, "root interns at index 0");
    frontier.push(weigh(h0), 0, 0);
    stats.pushed = 1;
    stats.frontier_peak = 1;

    let timing = phase_timing_enabled();
    let mut phases = PhaseStats::default();
    let mut expand_ns = 0u64;
    let mut prof = PhaseProf::default();
    let ub = incumbent.as_ref().map(|&(u, _)| u);
    // The hot loop is allocation-free: successors are relaxed inline as
    // the domain emits them from its scratch buffers, with no
    // intermediate Vec.
    let mut best: Option<(u64, u64)> = None;
    let mut proved_incumbent = false;
    let reason = loop {
        let Some((f, idx, d)) = frontier.pop() else {
            // With an incumbent, exhausting every `f < ub` state IS the
            // optimality proof: the admissible bound keeps some state of
            // any strictly cheaper schedule enqueued until it is found.
            proved_incumbent = ub.is_some();
            break if proved_incumbent {
                StopReason::Solved
            } else {
                StopReason::Exhausted
            };
        };
        if let Some(ub) = ub {
            // The popped f is the frontier minimum, which lower-bounds
            // the cost of any schedule not yet found — reaching the
            // incumbent proves the incumbent optimal. (Pushes filter
            // `f >= ub`, so this triggers at most for the root.)
            if f >= ub {
                proved_incumbent = true;
                break StopReason::Solved;
            }
        }
        if arena.meta(idx).dist != d {
            stats.stale += 1;
            continue;
        }
        let key = domain.unpack(arena.key_words(idx));
        if domain.is_goal(&key) {
            best = Some((d, gid(0, idx)));
            break StopReason::Solved;
        }
        stats.settled += 1;
        if stats.settled > config.limits.max_states as u64 {
            break StopReason::StateLimit;
        }
        if let Some(dl) = config.limits.deadline {
            if start.elapsed() >= dl {
                break StopReason::Deadline;
            }
        }
        let t_exp = if timing { Some(Instant::now()) } else { None };
        domain.expand(&key, &mut prof, &mut |k2, c, mv, hv| {
            phases.emitted += 1;
            let nd = d + c;
            // With a seeded incumbent the heuristic is evaluated
            // eagerly: a successor whose f provably cannot *beat* the
            // known feasible schedule is discarded before paying the
            // dominant cost of hashing and interning it. Dead
            // successors (`hv() == None`) are discarded the same way.
            let mut hval: Option<u64> = None;
            if let Some(ub) = ub {
                match hv() {
                    Some(hb) if nd + hb < ub => hval = Some(hb),
                    _ => {
                        phases.ub_pruned += 1;
                        return;
                    }
                }
            }
            let ti = if timing { Some(Instant::now()) } else { None };
            domain.pack(&k2, &mut wbuf[..kw]);
            let h = hash_words(&wbuf[..kw]);
            let (idx2, improved) = arena.relax(&wbuf[..kw], h, nd, gid(0, idx), mv);
            if let Some(t0) = ti {
                phases.hash_intern_ns += t0.elapsed().as_nanos() as u64;
            }
            if improved {
                if let Some(hv) = hval.or_else(hv) {
                    let tq = if timing { Some(Instant::now()) } else { None };
                    frontier.push(nd + weigh(hv), idx2, nd);
                    stats.pushed += 1;
                    stats.frontier_peak = stats.frontier_peak.max(frontier.len() as u64);
                    if let Some(t0) = tq {
                        phases.queue_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        });
        if let Some(t0) = t_exp {
            expand_ns += t0.elapsed().as_nanos() as u64;
        }
    };
    stats.arena_states = arena.len() as u64;
    stats.arena_peak_bytes = arena.bytes();
    phases.merge(&prof.take());
    // Successor generation is the in-expand remainder: expand wall-clock
    // minus the phases timed individually (all of which run inside
    // expand or its emit callback).
    phases.succ_gen_ns = expand_ns.saturating_sub(phases.timed_ns());
    if proved_incumbent {
        let (d, path) = incumbent.expect("proved_incumbent implies an incumbent");
        return DriverOutcome {
            best: Some((d, path)),
            stats,
            shards: Vec::new(),
            reason: StopReason::Solved,
            phases,
        };
    }
    if let Some((d, goal_gid)) = best {
        let path = reconstruct_path(domain, &[&arena], goal_gid);
        return DriverOutcome {
            best: Some((d, path)),
            stats,
            shards: Vec::new(),
            reason: StopReason::Solved,
            phases,
        };
    }
    DriverOutcome::stopped(stats, Vec::new(), reason, phases)
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
/// Per-worker cap on buffered foreign states eligible for speculative
/// expansion. Small: it is a starvation stopgap, not a second frontier.
const SPEC_CAP: usize = 64;

const STATUS_RUNNING: u64 = 0;
const STATUS_DONE: u64 = 1;
const STATUS_STATE_LIMIT: u64 = 2;
const STATUS_DEADLINE: u64 = 3;

/// A cross-shard successor hand-off: the packed key plus its tentative
/// relaxation. `Copy`, fixed-size, so the SPSC ring can move it by
/// bitwise read.
#[derive(Clone, Copy)]
struct Msg {
    words: [u64; MAX_KEY_WORDS],
    dist: u64,
    parent: u64,
    mv: PackedMove,
}

const EMPTY_MSG: Msg = Msg {
    words: [0; MAX_KEY_WORDS],
    dist: 0,
    parent: 0,
    mv: 0,
};

/// A batch of [`Msg`]s moved through the ring as one slot: senders fill
/// blocks in per-destination out-buffers and flush on fill or frontier
/// exhaustion, so the quiescence counters count blocks, not messages.
#[derive(Clone, Copy)]
struct MsgBlock {
    len: u32,
    msgs: [Msg; BLOCK_CAP],
}

const EMPTY_BLOCK: MsgBlock = MsgBlock {
    len: 0,
    msgs: [EMPTY_MSG; BLOCK_CAP],
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

/// What each worker hands back after the join.
struct WorkerResult {
    arena: StateArena,
    shard: ShardStats,
    stale: u64,
    frontier_peak: u64,
    heap_fallback: bool,
    phases: PhaseStats,
}

struct Worker<'a, D: Domain> {
    me: usize,
    threads: usize,
    kw: usize,
    domain: &'a D,
    shared: &'a Shared,
    /// Full `threads x threads` ring matrix, indexed `from * threads +
    /// to`; this worker consumes column `me` and produces row `me`.
    chans: &'a [Spsc<MsgBlock>],
    start: Instant,
    max_states: u64,
    deadline: Option<std::time::Duration>,
    arena: StateArena,
    frontier: Frontier<u32>,
    prof: PhaseProf,
    timing: bool,
    phases: PhaseStats,
    expand_ns: u64,
    /// Per-destination out-buffers; `out[to]` fills until [`BLOCK_CAP`]
    /// then flushes into the ring (`out[me]` stays unused).
    out: Vec<MsgBlock>,
    /// Bounded stash of foreign successors for speculative expansion
    /// (every entry was *also* sent to its owner).
    spec: Vec<Msg>,
    settled: u64,
    pushed: u64,
    stale: u64,
    sent: u64,
    send_blocks: u64,
    local_succs: u64,
    received: u64,
    dup_msgs: u64,
    foreign_expansions: u64,
    frontier_peak: u64,
}

impl<'a, D: Domain> Worker<'a, D> {
    /// Relaxes an owned state given its packed words and hash; enqueues
    /// it when the distance improved, the heuristic finds it alive, and
    /// its `f` still beats the incumbent. Returns whether the distance
    /// was created or improved. Used for states arriving over channels
    /// or the speculation stash, which come without a heuristic thunk —
    /// the bound is evaluated here, lazily, only on improvement. Runs
    /// outside `expand`, so it is deliberately untimed: the phase
    /// profile accounts the expansion path.
    #[inline]
    fn relax_owned(
        &mut self,
        words: &[u64],
        hash: u64,
        dist: u64,
        parent: u64,
        mv: PackedMove,
    ) -> bool {
        let (idx, improved) = self.arena.relax(words, hash, dist, parent, mv);
        if improved {
            let key = self.domain.unpack(words);
            self.phases.heur_full_evals += 1;
            if let Some(hv) = self.domain.heuristic(&key) {
                let f = dist + hv;
                if f < self.shared.incumbent.load(Ordering::Relaxed) {
                    self.frontier.push(f, idx, dist);
                    self.pushed += 1;
                    self.frontier_peak = self.frontier_peak.max(self.frontier.len() as u64);
                }
            }
        }
        improved
    }

    /// [`Worker::relax_owned`] for locally generated successors, whose
    /// admissible bound is evaluated lazily — the domain's thunk `hv`
    /// runs only when the distance actually improved.
    #[inline]
    fn relax_owned_h(
        &mut self,
        words: &[u64],
        hash: u64,
        dist: u64,
        parent: u64,
        mv: PackedMove,
        hv: &mut dyn FnMut() -> Option<u64>,
    ) {
        let ti = if self.timing {
            Some(Instant::now())
        } else {
            None
        };
        let (idx, improved) = self.arena.relax(words, hash, dist, parent, mv);
        if let Some(t0) = ti {
            self.phases.hash_intern_ns += t0.elapsed().as_nanos() as u64;
        }
        if improved {
            if let Some(hv) = hv() {
                let f = dist + hv;
                if f < self.shared.incumbent.load(Ordering::Relaxed) {
                    let tq = if self.timing {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    self.frontier.push(f, idx, dist);
                    self.pushed += 1;
                    self.frontier_peak = self.frontier_peak.max(self.frontier.len() as u64);
                    if let Some(t0) = tq {
                        self.phases.queue_ns += t0.elapsed().as_nanos() as u64;
                    }
                }
            }
        }
    }

    /// Drains every inbox once; returns whether any block arrived.
    fn drain_inboxes(&mut self) -> bool {
        let mut any = false;
        for from in 0..self.threads {
            if from == self.me {
                continue;
            }
            while let Some(blk) = self.chans[from * self.threads + self.me].try_pop() {
                for j in 0..blk.len as usize {
                    let m = blk.msgs[j];
                    let h = hash_words(&m.words[..self.kw]);
                    if !self.relax_owned(&m.words[..self.kw], h, m.dist, m.parent, m.mv) {
                        self.dup_msgs += 1;
                    }
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
    /// when full, and stashes a copy for speculative expansion.
    fn buffer_send(&mut self, to: usize, msg: Msg) {
        self.sent += 1;
        self.spec_offer(msg);
        let blk = &mut self.out[to];
        blk.msgs[blk.len as usize] = msg;
        blk.len += 1;
        if blk.len as usize == BLOCK_CAP {
            self.flush(to);
        }
    }

    /// Pushes `out[to]` into the ring, draining our own inboxes while
    /// the target ring is full (receiving only relaxes locally and
    /// never sends, so this cannot deadlock).
    fn flush(&mut self, to: usize) {
        if self.out[to].len == 0 {
            return;
        }
        let blk = std::mem::replace(&mut self.out[to], EMPTY_BLOCK);
        self.send_blocks += 1;
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
            if !self.drain_inboxes() {
                std::hint::spin_loop();
            }
        }
    }

    /// Flushes every non-empty out-buffer. Must run before advertising
    /// idle: the quiescence counters only see flushed blocks.
    fn flush_all(&mut self) {
        for to in 0..self.threads {
            if to != self.me {
                self.flush(to);
            }
        }
    }

    /// Stashes a foreign successor for possible speculative expansion,
    /// keeping the `SPEC_CAP` best (lowest-distance) entries.
    fn spec_offer(&mut self, msg: Msg) {
        if msg.dist >= self.shared.incumbent.load(Ordering::Relaxed) {
            return;
        }
        if self.spec.len() < SPEC_CAP {
            self.spec.push(msg);
            return;
        }
        let (worst, wd) = self
            .spec
            .iter()
            .enumerate()
            .map(|(i, m)| (i, m.dist))
            .max_by_key(|&(_, d)| d)
            .expect("spec buffer non-empty at cap");
        if msg.dist < wd {
            self.spec[worst] = msg;
        }
    }

    /// Speculatively expands buffered foreign work: promotes the
    /// best-distance stashed state into the local arena and frontier.
    /// Returns `true` when something was promoted (the main loop should
    /// go back to popping). Safe to drain to empty before idling —
    /// every entry was also delivered to its owner.
    fn promote_spec(&mut self) -> bool {
        while !self.spec.is_empty() {
            let best = self
                .spec
                .iter()
                .enumerate()
                .min_by_key(|(_, m)| m.dist)
                .map(|(i, _)| i)
                .expect("non-empty");
            let m = self.spec.swap_remove(best);
            if m.dist >= self.shared.incumbent.load(Ordering::Relaxed) {
                continue;
            }
            let h = hash_words(&m.words[..self.kw]);
            if self.relax_owned(&m.words[..self.kw], h, m.dist, m.parent, m.mv) {
                self.foreign_expansions += 1;
                return true;
            }
        }
        false
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
    fn idle_protocol(&mut self) -> bool {
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
            let has_local = self.frontier.peek_priority().is_some_and(|f| f < inc);
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

    fn run(mut self) -> WorkerResult {
        let domain = self.domain;
        let kw = self.kw;
        'outer: while self.shared.status.load(Ordering::Acquire) == STATUS_RUNNING {
            let mut progress = self.drain_inboxes();
            for _ in 0..POP_BATCH {
                let inc = self.shared.incumbent.load(Ordering::Relaxed);
                let Some((f, idx, d)) = self.frontier.pop() else {
                    break;
                };
                progress = true;
                if self.arena.meta(idx).dist != d {
                    self.stale += 1;
                    continue;
                }
                if f >= inc {
                    // Can no longer beat the incumbent; with the
                    // monotone incumbent this holds forever. Discard.
                    continue;
                }
                let key = domain.unpack(self.arena.key_words(idx));
                if domain.is_goal(&key) {
                    self.offer_goal(d, gid(self.me, idx));
                    continue;
                }
                self.settled += 1;
                let g = self.shared.settled.fetch_add(1, Ordering::Relaxed) + 1;
                if g > self.max_states {
                    self.shared.abort(STATUS_STATE_LIMIT);
                    break 'outer;
                }
                if let Some(dl) = self.deadline {
                    if self.start.elapsed() >= dl {
                        self.shared.abort(STATUS_DEADLINE);
                        break 'outer;
                    }
                }
                let parent = gid(self.me, idx);
                // Take the profiler out of `self` so the emit closure can
                // borrow the rest of the worker mutably; successors are
                // relaxed or shipped inline, with no intermediate Vec.
                let mut prof = std::mem::take(&mut self.prof);
                let t_exp = if self.timing {
                    Some(Instant::now())
                } else {
                    None
                };
                domain.expand(&key, &mut prof, &mut |k2, c, mv, hv| {
                    self.phases.emitted += 1;
                    let nd = d + c;
                    if nd >= self.shared.incumbent.load(Ordering::Relaxed) {
                        return;
                    }
                    let ti = if self.timing {
                        Some(Instant::now())
                    } else {
                        None
                    };
                    let mut wbuf = [0u64; MAX_KEY_WORDS];
                    domain.pack(&k2, &mut wbuf[..kw]);
                    let h = hash_words(&wbuf[..kw]);
                    let owner = domain.owner(&k2, h, self.threads);
                    if let Some(t0) = ti {
                        self.phases.hash_intern_ns += t0.elapsed().as_nanos() as u64;
                    }
                    if owner == self.me {
                        self.local_succs += 1;
                        self.relax_owned_h(&wbuf[..kw], h, nd, parent, mv, hv);
                    } else {
                        self.buffer_send(
                            owner,
                            Msg {
                                words: wbuf,
                                dist: nd,
                                parent,
                                mv,
                            },
                        );
                    }
                });
                if let Some(t0) = t_exp {
                    self.expand_ns += t0.elapsed().as_nanos() as u64;
                }
                self.prof = prof;
            }
            if !progress {
                // Local frontier exhausted: ship partial blocks so no
                // work hides in an out-buffer, then look for incoming
                // work, then fall back to speculative expansion before
                // attempting quiescence.
                self.flush_all();
                if self.drain_inboxes() || self.promote_spec() {
                    continue;
                }
                if self.idle_protocol() {
                    break;
                }
            }
        }
        self.phases.merge(&self.prof.take());
        self.phases.succ_gen_ns = self.expand_ns.saturating_sub(self.phases.timed_ns());
        WorkerResult {
            shard: ShardStats {
                shard: self.me as u64,
                settled: self.settled,
                pushed: self.pushed,
                sent: self.sent,
                send_blocks: self.send_blocks,
                local_succs: self.local_succs,
                received: self.received,
                dup_msgs: self.dup_msgs,
                foreign_expansions: self.foreign_expansions,
                arena_states: self.arena.len() as u64,
                arena_bytes: self.arena.bytes(),
            },
            stale: self.stale,
            frontier_peak: self.frontier_peak,
            heap_fallback: matches!(self.frontier, Frontier::Heap(_)),
            phases: self.phases,
            arena: self.arena,
        }
    }
}

/// The sharded engine; the deadline counts from `start`.
fn parallel<D: Domain>(
    domain: &D,
    config: &SearchConfig,
    threads: usize,
    incumbent: Option<Incumbent<D::Key>>,
    start: Instant,
) -> DriverOutcome<D::Key> {
    let kw = domain.key_words();
    let root = domain.root();
    let mut stats = SearchStats {
        threads: threads as u64,
        ..SearchStats::default()
    };
    let Some(h0) = domain.heuristic(&root) else {
        return DriverOutcome::stopped(
            stats,
            Vec::new(),
            StopReason::Exhausted,
            PhaseStats::default(),
        );
    };
    stats.h_root = h0;

    let mut root_words = [0u64; MAX_KEY_WORDS];
    domain.pack(&root, &mut root_words[..kw]);
    let root_hash = hash_words(&root_words[..kw]);
    let root_owner = domain.owner(&root, root_hash, threads);

    let shared = Shared::new();
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
    let max_states = config.limits.max_states as u64;
    let deadline = config.limits.deadline;
    let max_priority = domain.max_priority();

    let results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let shared = &shared;
                let chans = &chans[..];
                s.spawn(move || {
                    let mut w = Worker {
                        me,
                        threads,
                        kw,
                        domain,
                        shared,
                        chans,
                        start,
                        max_states,
                        deadline,
                        arena: StateArena::new(kw),
                        frontier: Frontier::new(max_priority),
                        prof: PhaseProf::default(),
                        timing: phase_timing_enabled(),
                        phases: PhaseStats::default(),
                        expand_ns: 0,
                        out: vec![EMPTY_BLOCK; threads],
                        spec: Vec::with_capacity(SPEC_CAP),
                        settled: 0,
                        pushed: 0,
                        stale: 0,
                        sent: 0,
                        send_blocks: 0,
                        local_succs: 0,
                        received: 0,
                        dup_msgs: 0,
                        foreign_expansions: 0,
                        frontier_peak: 0,
                    };
                    if me == root_owner {
                        let (ridx, _) =
                            w.arena
                                .relax(&root_words[..kw], root_hash, 0, gid(me, 0), 0);
                        debug_assert_eq!(ridx, 0);
                        w.frontier.push(h0, 0, 0);
                        w.pushed = 1;
                        w.frontier_peak = 1;
                    }
                    w.run()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("solver worker panicked"))
            .collect()
    });

    let mut shards = Vec::with_capacity(threads);
    let mut phases = PhaseStats::default();
    for r in &results {
        phases.merge(&r.phases);
        stats.settled += r.shard.settled;
        stats.pushed += r.shard.pushed;
        stats.stale += r.stale;
        stats.frontier_peak += r.frontier_peak;
        stats.heap_fallback |= r.heap_fallback;
        stats.cross_sends += r.shard.sent;
        stats.send_blocks += r.shard.send_blocks;
        stats.local_succs += r.shard.local_succs;
        stats.foreign_expansions += r.shard.foreign_expansions;
        stats.arena_states += r.shard.arena_states;
        stats.arena_peak_bytes += r.shard.arena_bytes;
        shards.push(r.shard);
    }

    match shared.status.load(Ordering::SeqCst) {
        STATUS_STATE_LIMIT => DriverOutcome::stopped(stats, shards, StopReason::StateLimit, phases),
        STATUS_DEADLINE => DriverOutcome::stopped(stats, shards, StopReason::Deadline, phases),
        _ => {
            let goal = *shared.goal.lock().unwrap();
            if let Some((dist, ggid)) = goal {
                let arenas: Vec<&StateArena> = results.iter().map(|r| &r.arena).collect();
                let path = reconstruct_path(domain, &arenas, ggid);
                DriverOutcome {
                    best: Some((dist, path)),
                    stats,
                    shards,
                    reason: StopReason::Solved,
                    phases,
                }
            } else if let Some((d, path)) = incumbent {
                // Quiesced with every `f < ub` state exhausted and no
                // cheaper goal found: the probe's schedule is optimal.
                DriverOutcome {
                    best: Some((d, path)),
                    stats,
                    shards,
                    reason: StopReason::Solved,
                    phases,
                }
            } else {
                DriverOutcome::stopped(stats, shards, StopReason::Exhausted, phases)
            }
        }
    }
}
