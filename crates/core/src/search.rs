//! Shared A\* search engine behind the exact solvers.
//!
//! Every game's state space is the same kind of space — packed `u64`
//! pebbling configurations connected by small-integer-cost rule
//! applications (`0` for deletions, `compute` for R3, `g` for R1/R2) —
//! searched by the one domain in `mpp/exact.rs`, so the machinery lives
//! here once:
//!
//! - `Frontier`: an ordered map from each queued `f = d + h` to its
//!   entries, grouped in one run per `h`, that pops the smallest `f`,
//!   then the deepest state (smallest `h`), then the latest push. Edge
//!   costs are few distinct integers, so a search queues few distinct
//!   `f` values at once: `push` is a `Vec` append into the run for its
//!   `(f, h)`, `pop` a `Vec` pop from the smallest bucket, and only the
//!   queued values take memory, whatever the cost range.
//! - [`AdmissibleHeuristic`]: the lower bound guiding A\*, computed by
//!   its one evaluation, [`AdmissibleHeuristic::eval`]. See the
//!   admissibility argument on the type; it is also *consistent*, so
//!   at weight 1 a settling is final and no push lands below the
//!   smallest queued `f`. The incumbent probe's weighted priorities
//!   break both, which the driver (re-opening) and the frontier (any
//!   `f` may be pushed at any time) tolerate.
//! - [`SearchStats`] / [`ShardStats`] / [`PhaseStats`]: counters for
//!   the benchmark harness and trace gauges, including the packed-arena
//!   memory axis and the hot-path phase profile.
//!
//! The search loop itself lives in `driver.rs` (sequential and
//! hash-sharded parallel engines over the `Domain` trait), with state
//! storage in `arena.rs` (packed interning) and cross-shard messaging
//! in `spsc.rs`.
//!
//! A\* degenerates to the old uniform-cost search when the heuristic is
//! disabled via [`SearchConfig`], which is exactly how the equivalence
//! tests and the before/after benchmarks obtain the baseline solver.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::rules::Game;
use crate::CostModel;

/// Resource limits for the exact solvers.
///
/// Limits are **global**: at any thread count the budget covers the
/// whole solve, not each worker. The parallel solver enforces them
/// through shared atomic counters and a shared deadline, so
/// `max_states = 10_000` means the same thing at `threads = 1` and
/// `threads = 8`.
#[derive(Debug, Clone, Copy)]
pub struct SolveLimits {
    /// Abort after settling this many states (summed across shards).
    /// The budget also bounds the distances a search can form, so a
    /// game whose edge costs times this budget overflow a `u64` is
    /// [`StopReason::Unsupported`].
    pub max_states: usize,
    /// Abort when this much wall-clock time has elapsed since the
    /// solve started (`None` = no deadline). Checked periodically, so
    /// overshoot is bounded by one expansion batch.
    pub deadline: Option<Duration>,
}

impl Default for SolveLimits {
    fn default() -> Self {
        SolveLimits {
            max_states: 2_000_000,
            deadline: None,
        }
    }
}

impl SolveLimits {
    /// Limits with a settled-state budget and no deadline.
    #[must_use]
    pub fn states(max_states: usize) -> Self {
        SolveLimits {
            max_states,
            ..SolveLimits::default()
        }
    }

    /// These limits with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// Tuning switches for the exact solvers.
///
/// The default enables every correctness-preserving reduction; the
/// [`SearchConfig::baseline`] configuration reproduces the original
/// plain-Dijkstra solver for equivalence testing and benchmarking.
///
/// ```
/// use rbp_core::{SearchConfig, SolveLimits};
///
/// let fast = SearchConfig::default();       // A* + symmetry + dominance
/// assert!(fast.heuristic && fast.symmetry && fast.dominance);
///
/// let reference = SearchConfig::baseline(); // plain uniform-cost search
/// assert!(!reference.heuristic && !reference.symmetry && !reference.dominance);
///
/// // The knobs compose with a state budget:
/// let bounded = fast.with_limits(SolveLimits::states(10_000));
/// assert_eq!(bounded.limits.max_states, 10_000);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Guide the search with the admissible heuristic (A\*).
    pub heuristic: bool,
    /// Canonicalize processor-symmetric states (vacuous with one
    /// processor).
    pub symmetry: bool,
    /// Suppress provably dominated successors at generation time (e.g.
    /// partial rule batches that an equal-cost, pointwise-larger batch
    /// subsumes). Never changes the proven optimum; the successor-set
    /// equivalence property tests pin the soundness argument down per
    /// pruned move.
    pub dominance: bool,
    /// Worker threads. `0` or `1` runs the sequential engine; `≥ 2`
    /// runs the sharded parallel engine (HDA\*-style state ownership),
    /// which returns the same optimal costs. Capped at [`MAX_THREADS`].
    pub threads: usize,
    /// Resource limits.
    pub limits: SolveLimits,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            heuristic: true,
            symmetry: true,
            dominance: true,
            threads: 1,
            limits: SolveLimits::default(),
        }
    }
}

impl SearchConfig {
    /// The unoptimized reference configuration: plain uniform-cost
    /// search over raw (label-sensitive) states.
    #[must_use]
    pub fn baseline() -> Self {
        SearchConfig {
            heuristic: false,
            symmetry: false,
            dominance: false,
            ..SearchConfig::default()
        }
    }

    /// This configuration with different limits.
    #[must_use]
    pub fn with_limits(mut self, limits: SolveLimits) -> Self {
        self.limits = limits;
        self
    }

    /// This configuration with a worker-thread count (see
    /// [`SearchConfig::threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// Hard cap on solver worker threads (shard count). The shard id must
/// fit the packed global-state-id layout, and pebbling searches stop
/// scaling long before this anyway.
pub const MAX_THREADS: usize = 64;

/// Why a solve stopped — distinguishes a proven answer from the
/// different ways of running out of resources.
///
/// Pre-existing callers that only look at `SearchOutcome::solution`
/// keep working; the reason disambiguates `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// An optimal solution was found and proven optimal.
    Solved,
    /// The reachable state space was exhausted without reaching a goal
    /// (the instance is unsolvable, e.g. a dead one-shot variant).
    Exhausted,
    /// The global `max_states` settled-state budget ran out.
    StateLimit,
    /// The wall-clock deadline in [`SolveLimits::deadline`] passed.
    Deadline,
    /// The instance is outside the solver's supported range: `n > 64`,
    /// `k > 4`, a green capacity above 64, a three-level one-shot game,
    /// infeasible capacity (`r ≤ Δ_in`), or costs so large that the
    /// search's sums could overflow a `u64` within the state budget.
    Unsupported,
}

impl StopReason {
    /// Short lowercase token for logs and JSON (`"solved"`,
    /// `"exhausted"`, `"state_limit"`, `"deadline"`, `"unsupported"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Solved => "solved",
            StopReason::Exhausted => "exhausted",
            StopReason::StateLimit => "state_limit",
            StopReason::Deadline => "deadline",
            StopReason::Unsupported => "unsupported",
        }
    }
}

/// Counters describing one exact-solve run.
///
/// Accumulated locally in the search hot loop and emitted through
/// `rbp-trace` once per solve (see [`SearchStats::trace`]), so enabling
/// tracing never adds per-relaxation overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// States settled (popped with an up-to-date distance and expanded),
    /// counted at both weights of the sequential loop: the incumbent
    /// probe's expansions and the exact search's, including a state the
    /// exact search re-expands at a shorter distance than the probe
    /// reached it at. [`SolveLimits::max_states`] bounds this count.
    pub settled: u64,
    /// The part of [`SearchStats::settled`] expanded by the incumbent
    /// probe, the loop's first phase at weight 3/2 (zero when the
    /// heuristic is disabled). In a parallel solve the shards' settled
    /// counts make up the rest.
    pub probe_settled: u64,
    /// Queue pushes (each corresponds to a distance improvement).
    pub pushed: u64,
    /// Stale queue entries skipped on pop.
    pub stale: u64,
    /// High-water mark of the frontier size (peak open-queue length).
    pub frontier_peak: u64,
    /// The admissible heuristic's value at the start state (zero when
    /// the heuristic is disabled). `h_root / OPT` measures heuristic
    /// tightness: 1.0 would be a perfect lower bound.
    pub h_root: u64,
    /// Distinct states interned into the state arena(s) — discovered
    /// states, settled or not.
    pub arena_states: u64,
    /// Peak bytes held by the state arena(s): packed key words, node
    /// metadata, and the interning tables, summed over shards. The
    /// memory axis of the before/after benchmarks;
    /// [`SearchStats::bytes_per_state`] derives the per-state figure.
    pub arena_peak_bytes: u64,
    /// Successors handed to another shard over an SPSC channel
    /// (always zero in the sequential engine).
    pub cross_sends: u64,
    /// Ring blocks those sends were batched into; `cross_sends /
    /// send_blocks` is the achieved batching factor.
    pub send_blocks: u64,
    /// Successors kept on the shard that generated them (zero in the
    /// sequential engine).
    pub local_succs: u64,
    /// Worker threads the solve actually used.
    pub threads: u64,
}

impl SearchStats {
    /// Arena bytes per interned state (`arena_peak_bytes /
    /// arena_states`), the compactness figure the memory benchmarks
    /// track. Zero before any state is interned.
    #[must_use]
    pub fn bytes_per_state(&self) -> f64 {
        if self.arena_states == 0 {
            0.0
        } else {
            self.arena_peak_bytes as f64 / self.arena_states as f64
        }
    }

    /// Fraction of generated successors that stayed on their shard
    /// (`local_succs / (local_succs + cross_sends)`). Zero when nothing
    /// was generated; 1.0 would mean no successor crossed shards.
    #[must_use]
    pub fn locality_fraction(&self) -> f64 {
        let total = self.local_succs + self.cross_sends;
        if total == 0 {
            0.0
        } else {
            self.local_succs as f64 / total as f64
        }
    }

    /// Adds a shard's counters into `self` (every field but `h_root`
    /// and `threads`).
    pub(crate) fn merge(&mut self, other: &SearchStats) {
        self.settled += other.settled;
        self.probe_settled += other.probe_settled;
        self.pushed += other.pushed;
        self.stale += other.stale;
        self.frontier_peak += other.frontier_peak;
        self.arena_states += other.arena_states;
        self.arena_peak_bytes += other.arena_peak_bytes;
        self.cross_sends += other.cross_sends;
        self.send_blocks += other.send_blocks;
        self.local_succs += other.local_succs;
    }

    /// Emits these counters through the global tracer under
    /// `solver.<which>.*` names, plus the heuristic-tightness gauge
    /// when the achieved optimum is known. No-op while tracing is
    /// disabled.
    pub fn trace(&self, which: &str, total: Option<u64>) {
        if !rbp_trace::enabled() {
            return;
        }
        rbp_trace::counter(&format!("solver.{which}.settled"), self.settled);
        rbp_trace::counter(&format!("solver.{which}.probe_settled"), self.probe_settled);
        rbp_trace::counter(&format!("solver.{which}.pushed"), self.pushed);
        rbp_trace::counter(&format!("solver.{which}.stale"), self.stale);
        rbp_trace::gauge(
            &format!("solver.{which}.frontier_peak"),
            self.frontier_peak as f64,
        );
        rbp_trace::counter(&format!("solver.{which}.arena_states"), self.arena_states);
        rbp_trace::gauge(
            &format!("solver.{which}.arena_bytes"),
            self.arena_peak_bytes as f64,
        );
        rbp_trace::gauge(
            &format!("solver.{which}.bytes_per_state"),
            self.bytes_per_state(),
        );
        rbp_trace::counter(&format!("solver.{which}.cross_sends"), self.cross_sends);
        rbp_trace::counter(&format!("solver.{which}.send_blocks"), self.send_blocks);
        rbp_trace::gauge(
            &format!("solver.{which}.locality_fraction"),
            self.locality_fraction(),
        );
        rbp_trace::gauge(&format!("solver.{which}.threads"), self.threads as f64);
        if let Some(total) = total {
            if total > 0 {
                rbp_trace::gauge(
                    &format!("solver.{which}.h_tightness"),
                    self.h_root as f64 / total as f64,
                );
            }
        }
    }
}

/// Per-shard counters from one parallel solve (empty for sequential
/// runs). Emitted as `solver.<which>.shard<i>.*` trace gauges after
/// each parallel solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (also the owning worker thread's index).
    pub shard: u64,
    /// States this shard settled.
    pub settled: u64,
    /// Frontier pushes on this shard.
    pub pushed: u64,
    /// Successors this shard sent to other shards.
    pub sent: u64,
    /// Ring blocks those sends were flushed in.
    pub send_blocks: u64,
    /// Successors this shard generated and kept (it owned them).
    pub local_succs: u64,
    /// Messages this shard received from other shards.
    pub received: u64,
    /// Received messages that did not improve any distance (duplicates
    /// of work already done).
    pub dup_msgs: u64,
    /// Distinct states interned into this shard's arena.
    pub arena_states: u64,
    /// Bytes held by this shard's arena (keys + metadata + table).
    pub arena_bytes: u64,
}

impl ShardStats {
    /// Fraction of this shard's generated successors it owned itself.
    #[must_use]
    pub fn locality_fraction(&self) -> f64 {
        let total = self.local_succs + self.sent;
        if total == 0 {
            0.0
        } else {
            self.local_succs as f64 / total as f64
        }
    }

    /// Fraction of received messages that were duplicates
    /// (`dup_msgs / received`). Zero when nothing was received.
    #[must_use]
    pub fn duplicate_rate(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.dup_msgs as f64 / self.received as f64
        }
    }
}

/// Emits per-shard counters as `solver.<which>.shard<i>.{settled,
/// pushed,sent,send_blocks,locality_fraction,duplicate_rate,
/// arena_bytes}` trace gauges. No-op while tracing is
/// disabled or for sequential solves (empty slice).
pub(crate) fn trace_shards(which: &str, shards: &[ShardStats]) {
    if !rbp_trace::enabled() {
        return;
    }
    for s in shards {
        let i = s.shard;
        rbp_trace::gauge(
            &format!("solver.{which}.shard{i}.settled"),
            s.settled as f64,
        );
        rbp_trace::gauge(&format!("solver.{which}.shard{i}.pushed"), s.pushed as f64);
        rbp_trace::gauge(&format!("solver.{which}.shard{i}.sent"), s.sent as f64);
        rbp_trace::gauge(
            &format!("solver.{which}.shard{i}.send_blocks"),
            s.send_blocks as f64,
        );
        rbp_trace::gauge(
            &format!("solver.{which}.shard{i}.locality_fraction"),
            s.locality_fraction(),
        );
        rbp_trace::gauge(
            &format!("solver.{which}.shard{i}.duplicate_rate"),
            s.duplicate_rate(),
        );
        rbp_trace::gauge(
            &format!("solver.{which}.shard{i}.arena_bytes"),
            s.arena_bytes as f64,
        );
    }
}

/// Returns whether per-phase wall-clock timing is enabled via the
/// `RBP_PHASE_PROF` environment variable (any value other than empty
/// or `0`). Read once and cached for the process lifetime.
///
/// Timing is opt-in because it reads the clock twice per successor —
/// enabling it unconditionally would pollute the very benchmarks the
/// profile exists to explain. The phase *counters* (memo hits,
/// heuristic evaluations, suppressed idles, emissions) are plain
/// integer increments and are always accumulated.
#[must_use]
pub fn phase_timing_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED
        .get_or_init(|| std::env::var("RBP_PHASE_PROF").is_ok_and(|v| !v.is_empty() && v != "0"))
}

/// Phase-level accounting for the expansion hot path, aggregated over a
/// whole solve (summed across shards for parallel runs).
///
/// The `*_ns` fields partition the wall-clock time spent inside
/// `Domain::expand` plus the driver's per-successor work; they are only
/// populated when [`phase_timing_enabled`] (env `RBP_PHASE_PROF=1`). In
/// a sharded solve `hash_intern_ns` and `queue_ns` also cover the
/// successors a shard receives, which it relaxes outside its
/// expansions, so there `succ_gen_ns` understates by their share.
/// The count fields are always populated. Emitted through `rbp-trace`
/// as `solver.phase.*` once per solve (see [`PhaseStats::trace`]) and
/// rendered by `rbp report` as the "Hot path" section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Time sorting red masks into the canonical processor order.
    pub canonicalize_ns: u64,
    /// Time evaluating the admissible bound.
    pub heuristic_ns: u64,
    /// Time enumerating rule batches and building successor keys:
    /// expand wall-clock minus the other in-expand phases.
    pub succ_gen_ns: u64,
    /// Time packing, hashing, and interning successors into the arena.
    pub hash_intern_ns: u64,
    /// Time pushing improved successors onto the frontier.
    pub queue_ns: u64,
    /// Canonicalizations satisfied by the sorted-order memo check
    /// (the red projection was already canonical; no sort ran).
    pub canon_memo_hits: u64,
    /// Canonicalizations that had to sort the red masks.
    pub canon_sorts: u64,
    /// Always zero: every bound is computed by
    /// [`AdmissibleHeuristic::eval`], with no fast path to count. Kept,
    /// and still traced, so that readers of
    /// `solver.phase.*.heur_delta_fast` keep parsing.
    pub heur_delta_fast: u64,
    /// Heuristic evaluations of successors (each one runs
    /// [`AdmissibleHeuristic::eval`]).
    pub heur_full_evals: u64,
    /// Successors suppressed by dominance pruning (idle processors that
    /// had an available action, and dominated single moves).
    pub idle_suppressed: u64,
    /// Successors emitted to the driver (post-pruning).
    pub emitted: u64,
    /// Emitted successors the exact search discarded before interning
    /// because `g + h` could not beat the incumbent probe's schedule (or
    /// the successor was provably dead).
    pub ub_pruned: u64,
}

impl PhaseStats {
    /// Adds `other`'s counters into `self` (shard aggregation).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.canonicalize_ns += other.canonicalize_ns;
        self.heuristic_ns += other.heuristic_ns;
        self.succ_gen_ns += other.succ_gen_ns;
        self.hash_intern_ns += other.hash_intern_ns;
        self.queue_ns += other.queue_ns;
        self.canon_memo_hits += other.canon_memo_hits;
        self.canon_sorts += other.canon_sorts;
        self.heur_delta_fast += other.heur_delta_fast;
        self.heur_full_evals += other.heur_full_evals;
        self.idle_suppressed += other.idle_suppressed;
        self.emitted += other.emitted;
        self.ub_pruned += other.ub_pruned;
    }

    /// Sum of the explicitly timed phases (everything but the derived
    /// successor-generation remainder).
    #[must_use]
    pub fn timed_ns(&self) -> u64 {
        self.canonicalize_ns + self.heuristic_ns + self.hash_intern_ns + self.queue_ns
    }

    /// Emits these counters through the global tracer under
    /// `solver.phase.<which>.*` names. The `*_ns` gauges are only
    /// emitted when phase timing ran (any nonzero timer); counts are
    /// always emitted. No-op while tracing is disabled.
    pub fn trace(&self, which: &str) {
        if !rbp_trace::enabled() {
            return;
        }
        rbp_trace::counter(&format!("solver.phase.{which}.emitted"), self.emitted);
        rbp_trace::counter(
            &format!("solver.phase.{which}.idle_suppressed"),
            self.idle_suppressed,
        );
        rbp_trace::counter(
            &format!("solver.phase.{which}.canon_memo_hits"),
            self.canon_memo_hits,
        );
        rbp_trace::counter(
            &format!("solver.phase.{which}.canon_sorts"),
            self.canon_sorts,
        );
        rbp_trace::counter(
            &format!("solver.phase.{which}.heur_delta_fast"),
            self.heur_delta_fast,
        );
        rbp_trace::counter(
            &format!("solver.phase.{which}.heur_full_evals"),
            self.heur_full_evals,
        );
        rbp_trace::counter(&format!("solver.phase.{which}.ub_pruned"), self.ub_pruned);
        if self.timed_ns() + self.succ_gen_ns > 0 {
            rbp_trace::gauge(
                &format!("solver.phase.{which}.canonicalize_ns"),
                self.canonicalize_ns as f64,
            );
            rbp_trace::gauge(
                &format!("solver.phase.{which}.heuristic_ns"),
                self.heuristic_ns as f64,
            );
            rbp_trace::gauge(
                &format!("solver.phase.{which}.succ_gen_ns"),
                self.succ_gen_ns as f64,
            );
            rbp_trace::gauge(
                &format!("solver.phase.{which}.hash_intern_ns"),
                self.hash_intern_ns as f64,
            );
            rbp_trace::gauge(
                &format!("solver.phase.{which}.queue_ns"),
                self.queue_ns as f64,
            );
        }
    }
}

/// The phases a [`PhaseProf`] times (see [`PhaseStats`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Phase {
    Canonicalize,
    Heuristic,
    HashIntern,
    Queue,
    /// A whole expansion, successor handling included: the span
    /// [`PhaseProf::finish`] derives successor generation from.
    Expand,
}

/// Phase profiler: the counters of a [`PhaseStats`] plus the timers,
/// which read the clock only while [`phase_timing_enabled`]. The search
/// domain accumulates into one during
/// [`expand`](crate::driver::Domain::expand), each shard's driver into
/// another; [`PhaseProf::finish`] combines them once per shard, so the
/// hot loop never touches shared state.
#[derive(Debug, Clone)]
pub(crate) struct PhaseProf {
    timing: bool,
    /// The counters being accumulated.
    pub stats: PhaseStats,
    /// Wall-clock of the timed [`Phase::Expand`] spans.
    expand_ns: u64,
}

impl Default for PhaseProf {
    fn default() -> Self {
        PhaseProf {
            timing: phase_timing_enabled(),
            stats: PhaseStats::default(),
            expand_ns: 0,
        }
    }
}

impl PhaseProf {
    /// Starts a phase timer; `None` (free) unless `RBP_PHASE_PROF` is
    /// set.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        if self.timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Accounts a started timer to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: Phase, t0: Option<Instant>) {
        let Some(t0) = t0 else { return };
        let s = &mut self.stats;
        *match phase {
            Phase::Canonicalize => &mut s.canonicalize_ns,
            Phase::Heuristic => &mut s.heuristic_ns,
            Phase::HashIntern => &mut s.hash_intern_ns,
            Phase::Queue => &mut s.queue_ns,
            Phase::Expand => &mut self.expand_ns,
        } += t0.elapsed().as_nanos() as u64;
    }

    /// These counters plus `other`'s, with successor generation as the
    /// expansion wall-clock the timed phases leave over.
    pub fn finish(&self, other: &PhaseProf) -> PhaseStats {
        let mut out = self.stats;
        out.merge(&other.stats);
        out.succ_gen_ns = (self.expand_ns + other.expand_ns).saturating_sub(out.timed_ns());
        out
    }
}

/// Result of an exact solve together with the search counters that
/// produced it — the unit the before/after benchmarks compare.
#[derive(Debug, Clone)]
pub struct SearchOutcome<T> {
    /// The optimal solution, or `None` when the instance is infeasible,
    /// too large, provably unsolvable, or a resource limit was hit
    /// (see [`SearchOutcome::reason`] for which).
    pub solution: Option<T>,
    /// Search-effort counters for this run.
    pub stats: SearchStats,
    /// Why the search stopped; disambiguates `solution == None`
    /// between "proven unsolvable", "state budget", and "deadline".
    pub reason: StopReason,
    /// Per-shard counters (empty for sequential solves).
    pub shards: Vec<ShardStats>,
    /// Phase-level hot-path accounting (summed across shards).
    pub phases: PhaseStats,
}

impl<T> SearchOutcome<T> {
    /// An outcome without a solution and with zeroed counters.
    pub(crate) fn stopped(reason: StopReason) -> Self {
        SearchOutcome {
            solution: None,
            stats: SearchStats::default(),
            reason,
            shards: Vec::new(),
            phases: PhaseStats::default(),
        }
    }

    /// Maps the solution, keeping the counters.
    #[must_use]
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> SearchOutcome<U> {
        SearchOutcome {
            solution: self.solution.map(f),
            stats: self.stats,
            reason: self.reason,
            shards: self.shards,
            phases: self.phases,
        }
    }
}

/// A compact one-word move encoding; the solvers define the bit layout.
pub type PackedMove = u32;

/// Entries of one `(f, h)`: `(arena index, dist)` in push order.
type Run = Vec<(u32, u64)>;

/// Min-priority frontier ordered by `(f, h)`: the smallest `f` first,
/// then the smallest `h` — the deepest state, since `h = f − g` at
/// weight 1 — and the last pushed among equal `(f, h)`. An ordered map
/// from each queued `f` to its runs serves every cost range: only the
/// `f` values queued at the moment take memory, however large `g` makes
/// them. Entries carry the g-value at push time so stale entries can be
/// recognized without a decrease-key operation.
///
/// The tie-break never changes an optimum: A\* proves one whichever
/// entry of the minimum `f` it pops. It decides how much of the
/// `f = OPT` plateau a search settles before it reaches a goal there,
/// and how deep the incumbent probe dives.
#[derive(Default)]
pub(crate) struct Frontier {
    /// Each queued `f` with one run per `h`, in decreasing `h` (the
    /// deepest run last); no run and no bucket is empty.
    buckets: BTreeMap<u64, Vec<(u64, Run)>>,
    len: usize,
}

impl Frontier {
    /// Queues arena index `key` at distance `dist` with priority `f` and
    /// admissible bound `h` (`f = dist + h` at weight 1).
    #[inline]
    pub(crate) fn push(&mut self, f: u64, h: u64, key: u32, dist: u64) {
        let runs = self.buckets.entry(f).or_default();
        let at = match runs.binary_search_by(|&(rh, _)| h.cmp(&rh)) {
            Ok(at) => at,
            Err(at) => {
                runs.insert(at, (h, Vec::new()));
                at
            }
        };
        runs[at].1.push((key, dist));
        self.len += 1;
    }

    /// Pops the minimum entry as `(f, key, dist)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(u64, u32, u64)> {
        let mut bucket = self.buckets.first_entry()?;
        let f = *bucket.key();
        let runs = bucket.get_mut();
        let run = &mut runs.last_mut().expect("buckets are non-empty").1;
        let (key, dist) = run.pop().expect("runs are non-empty");
        if run.is_empty() {
            runs.pop();
            if runs.is_empty() {
                bucket.remove();
            }
        }
        self.len -= 1;
        Some((f, key, dist))
    }

    /// Re-keys every entry at weight 1, `f = dist + h`, keeping those
    /// for which `keep(key, dist, f)` holds, and pushes them back in
    /// their stored order. The pushes of one search use one weight, so
    /// entries that shared an `(f, h)` share the new one and keep their
    /// LIFO order.
    pub(crate) fn rekey(&mut self, mut keep: impl FnMut(u32, u64, u64) -> bool) {
        self.len = 0;
        for (h, run) in std::mem::take(&mut self.buckets).into_values().flatten() {
            for (key, dist) in run {
                let f = dist + h;
                if keep(key, dist, f) {
                    self.push(f, h, key, dist);
                }
            }
        }
    }

    /// The minimum priority currently queued, without popping it.
    /// Conservative in the presence of stale entries: may report a
    /// priority whose entry will be discarded on pop, never one larger
    /// than the true minimum.
    pub(crate) fn peek_priority(&self) -> Option<u64> {
        self.buckets.first_key_value().map(|(&f, _)| f)
    }

    /// Current number of queued (possibly stale) entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// An admissible, consistent lower bound on the remaining cost of a
/// pebbling search state, guiding the exact search and exported to
/// `rbp-bounds`.
///
/// Let `pebbled = red_all ∪ blue` and let the **needed set** `A` be the
/// upward closure of the unpebbled sinks through unpebbled nodes
/// (following predecessor edges). Every `v ∈ A` must be computed at
/// least once in *any* completion: an unpebbled sink must clearly be
/// computed (it cannot be loaded — it is not blue, and blue pebbles
/// only appear by storing red ones, which requires acquiring red
/// first); and if `v ∈ A` must be computed, an unpebbled predecessor
/// `p` must hold a red pebble at that moment, whose first acquisition
/// must itself be a compute by the same argument. A compute step
/// finishes at most `k` nodes, and a computable node has all
/// predecessors red — it is a *minimal* element of `A` — so one step
/// removes at most `k` nodes from `A`. Hence
/// `ceil(|A| / k) · compute` remaining compute cost, and the bound
/// drops by at most `compute` per compute step (consistency).
///
/// A re-entry term strengthens the compute count: every predecessor of
/// `A` that is blue (or green, folded into the blue role) but not red
/// must re-enter fast memory before its consumer computes, occupying a
/// slot in some load batch (cost `load_cost`) or — where recomputing is
/// legal — a slot in some compute batch. With `a = |A|`, `forced` the
/// uncomputable such predecessors (Hong–Kung sources, spent one-shot
/// nodes) and `optional` the computable ones, any completion with `x`
/// compute steps and `y` load steps satisfies `kx ≥ a + rb` and
/// `ky ≥ forced + optional − rb` for *some* split `rb`, so
///
/// ```text
/// h ≥ min over rb of ceil((a+rb)/k)·compute
///                  + ceil((forced+optional−rb)/k)·load_cost
/// ```
///
/// is admissible (the slot counts bound disjoint step classes: the
/// re-entering nodes are pebbled, hence disjoint from `A`). Under the
/// Hong–Kung sink convention every non-blue sink additionally forces a
/// store. This is the Lemma 1 trivial I/O reasoning applied to the
/// not-yet-red values a completion still has to touch.
///
/// [`AdmissibleHeuristic::eval`] returns `None` for provably dead
/// states (a needed node can never be computed again), which the
/// one-shot variant uses as exact pruning.
#[derive(Debug, Clone)]
pub struct AdmissibleHeuristic {
    preds: Vec<u64>,
    sinks: u64,
    k: u64,
    compute_cost: u64,
    g: u64,
    /// Cheapest way to re-redden one batch of pebbled values — `g`,
    /// except in the three-level game where the green tier may undercut
    /// it (`min(g, green_cost)`).
    load_cost: u64,
    /// Nodes rule R3 can never fire on (Hong–Kung sources).
    no_compute: u64,
    /// One-shot variant: nodes in `computed` cannot be recomputed.
    one_shot: bool,
    /// Hong–Kung sink convention: sinks must end blue.
    store_sinks: bool,
}

impl AdmissibleHeuristic {
    /// The heuristic for `game` under the `model` costs, honoring its
    /// SPP variant flags. `green_cost` prices a green store or load and
    /// is read only when the game has a green tier, whose reloads may
    /// undercut the blue `g`.
    #[must_use]
    pub fn new(game: &Game, model: CostModel, green_cost: u64) -> Self {
        let (preds, sinks, no_compute) = game_masks(game);
        let variant = game.variant;
        let load_cost = if game.green_cap > 0 {
            model.g.min(green_cost)
        } else {
            model.g
        };
        AdmissibleHeuristic {
            preds,
            sinks,
            k: game.k as u64,
            compute_cost: model.compute,
            g: model.g,
            load_cost,
            no_compute,
            one_shot: variant.one_shot,
            store_sinks: variant.sinks_need_blue,
        }
    }

    /// Evaluates the bound at a packed state. `red_all` is the union of
    /// all red masks, `computed` the ever-computed mask (zero unless the
    /// one-shot variant tracks it). `None` means the state admits no
    /// completion at all.
    ///
    /// This is the bound's only evaluation path: the search, the probe
    /// and `rbp-bounds` all call it, so a new term goes here once.
    #[must_use]
    pub fn eval(&self, red_all: u64, blue: u64, computed: u64) -> Option<u64> {
        let pebbled = red_all | blue;
        let mut need = self.sinks & !pebbled;
        let mut stack = need;
        let mut pred_union = 0u64;
        while stack != 0 {
            let v = stack.trailing_zeros() as usize;
            stack &= stack - 1;
            let ps = self.preds[v];
            pred_union |= ps;
            let fresh = ps & !pebbled & !need;
            need |= fresh;
            stack |= fresh;
        }
        let uncomputable = self.no_compute | if self.one_shot { computed } else { 0 };
        if need & uncomputable != 0 {
            return None;
        }
        let a = u64::from(need.count_ones());
        // Blue-only predecessors of needed nodes: each must re-enter
        // fast memory, by a load batch slot or (when recomputable) a
        // compute batch slot. Minimize over the load/recompute split.
        let reenter = pred_union & blue & !red_all;
        let forced = u64::from((reenter & uncomputable).count_ones());
        let optional = u64::from((reenter & !uncomputable).count_ones());
        let mut h = u64::MAX;
        for rb in 0..=optional {
            let c = (a + rb).div_ceil(self.k) * self.compute_cost
                + (forced + optional - rb).div_ceil(self.k) * self.load_cost;
            h = h.min(c);
        }
        if self.store_sinks {
            let missing_stores = self.sinks & !blue;
            h += u64::from(missing_stores.count_ones()).div_ceil(self.k) * self.g;
        }
        Some(h)
    }
}

/// The masks of a game on at most 64 nodes: each node's predecessors,
/// the sinks, and the nodes that start blue and are never computed
/// (the sources under the Hong–Kung convention, none otherwise).
pub(crate) fn game_masks(game: &Game) -> (Vec<u64>, u64, u64) {
    let dag = game.dag;
    let mask = |vs: &[rbp_dag::NodeId]| vs.iter().fold(0u64, |m, v| m | (1u64 << v.index()));
    let preds = dag.nodes().map(|v| mask(dag.preds(v))).collect();
    let sources = if game.variant.sources_start_blue {
        mask(&dag.sources())
    } else {
        0
    };
    (preds, mask(&dag.sinks()), sources)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MppInstance, SppInstance};
    use rbp_dag::generators;

    fn mpp_heuristic(inst: &MppInstance) -> AdmissibleHeuristic {
        AdmissibleHeuristic::new(&Game::mpp(inst), inst.model, 0)
    }

    fn spp_heuristic(inst: &SppInstance) -> AdmissibleHeuristic {
        AdmissibleHeuristic::new(&Game::spp(inst), inst.model, 0)
    }

    fn drain(f: &mut Frontier) -> Vec<u32> {
        std::iter::from_fn(|| f.pop().map(|(_, k, _)| k)).collect()
    }

    #[test]
    fn frontier_pops_smallest_f_then_smallest_h_then_latest() {
        let mut f = Frontier::default();
        // (f, h, key); dist = f - h.
        for (pf, h, k) in [(5, 2, 50), (3, 1, 31), (3, 2, 32), (3, 1, 33), (3, 0, 30)] {
            f.push(pf, h, k, pf - h);
        }
        f.push(4, 0, 40, 4);
        f.push(3, 2, 34, 1);
        assert_eq!(f.peek_priority(), Some(3));
        assert_eq!(f.pop(), Some((3, 30, 3)));
        // A deeper entry pushed on the current f jumps the queue.
        f.push(3, 0, 35, 3);
        assert_eq!(f.len(), 7);
        assert_eq!(drain(&mut f), [35, 33, 31, 34, 32, 40, 50]);
        assert_eq!(f.peek_priority(), None);
        assert_eq!(f.len(), 0);
    }

    /// Priorities far beyond any bucket vector's reach (a huge `g`) cost
    /// no more than small ones.
    #[test]
    fn frontier_orders_huge_priorities() {
        let mut f = Frontier::default();
        f.push(1 << 40, 0, 2, 1 << 40);
        f.push(u64::MAX, 1, 4, u64::MAX - 1);
        f.push(3, 0, 1, 3);
        f.push(1 << 40, 5, 3, (1 << 40) - 5);
        assert_eq!(f.peek_priority(), Some(3));
        assert_eq!(f.pop(), Some((3, 1, 3)));
        assert_eq!(f.pop(), Some((1 << 40, 2, 1 << 40)));
        assert_eq!(f.pop(), Some((1 << 40, 3, (1 << 40) - 5)));
        assert_eq!(f.pop(), Some((u64::MAX, 4, u64::MAX - 1)));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn frontier_tolerates_push_below_the_minimum() {
        let mut f = Frontier::default();
        f.push(5, 0, 50, 5);
        f.push(7, 0, 70, 7);
        assert_eq!(f.pop(), Some((5, 50, 5)));
        f.push(2, 0, 20, 2);
        assert_eq!(f.peek_priority(), Some(2));
        assert_eq!(f.pop(), Some((2, 20, 2)));
        assert_eq!(f.pop(), Some((7, 70, 7)));
    }

    /// Entries pushed at weight 3/2 and re-keyed at weight 1 pop exactly
    /// as if the kept ones had been pushed at weight 1 in their original
    /// order.
    #[test]
    fn frontier_rekey_keeps_the_stored_order() {
        let mut rng = rbp_util::Rng::new(7);
        // (key, dist, h)
        let entries: Vec<(u32, u64, u64)> = (0..300)
            .map(|k| (k, rng.range_u64(0, 12), rng.range_u64(0, 9)))
            .collect();
        let keep = |k: u32, f: u64| k % 7 != 3 && f < 16;
        let (mut f, mut reference) = (Frontier::default(), Frontier::default());
        for &(k, d, h) in &entries {
            f.push(d + h * 3 / 2, h, k, d);
        }
        // Pop some first, as the probe does before the switch.
        let popped: Vec<u32> = (0..20).map(|_| f.pop().expect("queued").1).collect();
        f.rekey(|k, _, pf| keep(k, pf));
        for &(k, d, h) in &entries {
            if !popped.contains(&k) && keep(k, d + h) {
                reference.push(d + h, h, k, d);
            }
        }
        assert_eq!(f.len(), reference.len());
        let order = drain(&mut f);
        assert_eq!(order, drain(&mut reference));
        assert!(order.len() > 100);
    }

    #[test]
    fn heuristic_counts_remaining_computes() {
        let dag = generators::chain(4);
        let inst = MppInstance::new(&dag, 1, 2, 3);
        let h = mpp_heuristic(&inst);
        // Nothing pebbled: all 4 nodes must be computed.
        assert_eq!(h.eval(0, 0, 0), Some(4));
        // Node 2 red: the closure from sink 3 stops there; 3 remains.
        assert_eq!(h.eval(1 << 2, 0, 0), Some(1));
        // Sink pebbled: done.
        assert_eq!(h.eval(1 << 3, 0, 0), Some(0));
        assert_eq!(h.eval(0, 1 << 3, 0), Some(0));
    }

    #[test]
    fn heuristic_divides_by_k() {
        let dag = generators::independent_chains(2, 3); // 6 nodes
        let inst = MppInstance::new(&dag, 2, 2, 1);
        let h = mpp_heuristic(&inst);
        assert_eq!(h.eval(0, 0, 0), Some(3));
    }

    #[test]
    fn heuristic_hong_kung_forces_loads_and_stores() {
        use crate::{CostModel, SppVariant};
        let dag = generators::chain(3);
        let inst = SppInstance {
            dag: &dag,
            r: 2,
            model: CostModel::spp_io_only(2),
            variant: SppVariant::hong_kung(),
        };
        let h = spp_heuristic(&inst);
        // Source (node 0) starts blue; sink (node 2) must end blue.
        // Needed = {1, 2}; node 0 is a forced load; sink store missing:
        // h = 0 computes + g(load 0) + g(store 2) = 4.
        assert_eq!(h.eval(0, 1 << 0, 0), Some(4));
        // Everything blue: done.
        assert_eq!(h.eval(0, 0b111, 0), Some(0));
    }

    #[test]
    fn heuristic_one_shot_detects_dead_states() {
        let dag = generators::chain(2);
        let inst = SppInstance {
            dag: &dag,
            r: 2,
            model: crate::CostModel::spp_io_only(1),
            variant: crate::SppVariant::one_shot(),
        };
        let h = spp_heuristic(&inst);
        // Node 0 computed then deleted without a store, sink unpebbled:
        // node 0 must be re-acquired but cannot be. Dead.
        assert_eq!(h.eval(0, 0, 1 << 0), None);
        // Same mask but node 0 still red: fine.
        assert!(h.eval(1 << 0, 0, 1 << 0).is_some());
    }
}
